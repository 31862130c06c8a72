//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! crate's public functions; the program itself is not instrumented. Each
//! span keeps its name, start, end and the span that was open when it
//! started, so a layer's self time is its duration minus what its child
//! spans cover. Spans stay in memory until the run ends and are then
//! written out as JSON lines.

use std::io::Write;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Span sink.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer::with_origin(Instant::now())
    }

    /// A tracer whose timestamps share `origin` with other tracers, so
    /// per-thread tracers can be merged with [`Tracer::absorb`].
    pub fn with_origin(origin: Instant) -> Tracer {
        Tracer { origin, spans: Vec::new(), open: Vec::new() }
    }

    /// Appends another tracer's closed spans (same origin assumed).
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(
            other.spans.into_iter().map(|s| Span { parent: s.parent.map(|p| p + offset), ..s }),
        );
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span { name, parent, start_ns, end_ns: start_ns });
        self.open.push(id);
        id
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans must close in LIFO order");
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.open(name);
        let out = f(self);
        self.close(id);
        out
    }

    /// Records an already-measured interval as a child of the open span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        let to_ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        let parent = self.open.last().copied();
        self.spans.push(Span { name, parent, start_ns: to_ns(start), end_ns: to_ns(end) });
    }

    /// Durations in seconds of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(Span::seconds).collect()
    }

    /// Self time in seconds of every span named `name`: its duration minus
    /// the time its direct children cover.
    pub fn self_times(&self, name: &str) -> Vec<f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| (s.end_ns - s.start_ns).saturating_sub(child_ns[i]) as f64 * 1e-9)
            .collect()
    }

    /// Share of the summed duration of spans named `root` that their
    /// direct children cover.
    pub fn coverage(&self, root: &str) -> f64 {
        let total: u64 =
            self.spans.iter().filter(|s| s.name == root).map(|s| s.end_ns - s.start_ns).sum();
        let covered: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent.is_some_and(|p| self.spans[p].name == root))
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        if total == 0 {
            0.0
        } else {
            covered as f64 / total as f64
        }
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, w: &mut impl Write) -> std::io::Result<()> {
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_coverage_counts_them() {
        let mut t = Tracer::new();
        t.time("call", |t| {
            t.time("child", |_| std::thread::sleep(std::time::Duration::from_millis(5)));
            std::thread::sleep(std::time::Duration::from_millis(5));
        });
        let call = t.durations("call")[0];
        let child = t.durations("child")[0];
        let own = t.self_times("call")[0];
        assert!((call - child - own).abs() < 1e-6);
        let cov = t.coverage("call");
        assert!(cov > 0.3 && cov < 0.8, "{cov}");
    }
}
