//! Metric collection, summary statistics and the result line.

use std::collections::BTreeMap;

/// Quantile `q ∈ [0, 1]` by linear interpolation between order
/// statistics; `0.0` for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Ordered `name → (value, unit)` map printed as the result line.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<String, (f64, &'static str)>,
}

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.values.insert(name.to_string(), (value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).map(|v| v.0)
    }

    /// Keeps only the named metrics, adding `0` for any that were not
    /// measured on this workload (a layer the workload never calls).
    pub fn restrict(self, wanted: &[(&'static str, &'static str)]) -> Metrics {
        let mut out = Metrics::default();
        for &(name, unit) in wanted {
            let value = self.values.get(name).map_or(0.0, |v| v.0);
            out.set(name, value, unit);
        }
        out
    }

    fn json(&self) -> String {
        let body: Vec<String> = self
            .values
            .iter()
            .map(|(k, (v, u))| format!("\"{k}\": {{\"value\": {}, \"unit\": \"{u}\"}}", num(*v)))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// A finite JSON number with every digit Rust's shortest round-trip
/// formatting keeps.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// The final line of standard output.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {}}}",
        attempted.max(1),
        metrics.json()
    )
}

/// Outcome counters shared by every workload.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    /// Failed, rejected or wrong products.
    pub failed: u64,
    /// Products that differed from the oracle.
    pub wrong: u64,
}

impl Tally {
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    pub fn failed(&mut self) {
        self.attempted += 1;
        self.failed += 1;
    }

    pub fn check(&mut self, equal: bool) {
        if equal {
            self.ok();
        } else {
            self.failed();
            self.wrong += 1;
        }
    }

    pub fn ok_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            1.0 - self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn restrict_fills_unmeasured_layers_with_zero() {
        let mut m = Metrics::default();
        m.set("a", 1.5, "s");
        m.set("b", 2.0, "s");
        let r = m.restrict(&[("a", "s"), ("c", "count")]);
        assert_eq!(r.get("a"), Some(1.5));
        assert_eq!(r.get("c"), Some(0.0));
        assert_eq!(r.get("b"), None);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut m = Metrics::default();
        m.set("x", 0.25, "s");
        let line = result_line(true, 3, 0, &m);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"x\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }
}
