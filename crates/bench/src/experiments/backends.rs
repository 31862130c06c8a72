//! Backends experiment: the planned pipeline executed on every registered
//! backend.
//!
//! Two backends ship: the production rayon path (`parallel-cpu`, which
//! runs every auto plan) and the serial oracle (`serial-reference`, the
//! determinism floor cross-validation compares against). The planner's
//! chosen pipeline is executed warm (preparation cached, kernel +
//! postprocess only) on each, so the table reads as the parallel path's
//! gain over the oracle at equal plan knobs.

use crate::report::{Direction, Report, Table};
use crate::runner::{anchor_seconds, time_median, RunConfig};
use cw_engine::{BackendId, Engine, Plan, Planner, PlanningPolicy, DEFAULT_CACHE_CAPACITY};
use cw_obs::{export, MetricsRegistry, Tracer};
use cw_sparse::CsrMatrix;
use std::sync::Arc;

/// Warm per-call seconds of `plan` on `a` (kernel + postprocess; the
/// preparation is cached by the engine before timing starts).
fn warm_per_call(engine: &mut Engine, a: &CsrMatrix, plan: Plan, reps: usize) -> f64 {
    let _ = engine.multiply_planned(a, a, plan);
    time_median(reps, || engine.multiply_planned(a, a, plan))
}

/// Runs the backends experiment.
pub fn run(cfg: &RunConfig) -> Report {
    let datasets = cfg.select(cw_datasets::representative(cfg.scale));
    let mut rep = Report::new("backends", "Execution backends: per-backend warm timings");
    rep.note("All per-call timings are warm (prepared operand cached): kernel + postprocess only.");
    rep.note(
        "Both backends run the planner's chosen pipeline unchanged; only the execution strategy \
         differs (rayon production path vs the serial oracle).",
    );

    let mut t = Table::new(vec![
        "Dataset",
        "plan (pipeline)",
        "parallel-cpu s",
        "serial-reference s",
        "parallel speedup",
    ]);
    for d in &datasets {
        let a = d.build(cfg.scale);
        let mut meter = Engine::new(
            Planner::with_policy(cfg.seed, PlanningPolicy::frozen()),
            DEFAULT_CACHE_CAPACITY,
        );
        let pipeline = meter.planner().plan(&a);
        let seconds: Vec<f64> = BackendId::ALL
            .iter()
            .map(|&id| warm_per_call(&mut meter, &a, pipeline.on_backend(id), cfg.reps))
            .collect();
        for (id, s) in BackendId::ALL.iter().zip(&seconds) {
            rep.add_metric(
                format!("warm_per_call_s/{}/{}", d.name, id.name()),
                *s,
                Direction::LowerIsBetter,
            );
        }
        t.push_row(vec![
            d.name.to_string(),
            pipeline.describe(),
            format!("{:.6}", seconds[0]),
            format!("{:.6}", seconds[1]),
            format!("{:.2}", seconds[1] / seconds[0].max(1e-12)),
        ]);
    }
    rep.add_table("warm per-call seconds by execution backend", t);
    rep.add_metric("anchor_s", anchor_seconds(cfg.reps), Direction::LowerIsBetter);

    // --- Trace artifact: one traced multiply per backend ---
    // A separate engine (the timing table above stays untraced), with the
    // engine's plan/prepare/execute/postprocess spans and per-backend
    // kernel histograms exported as versioned JSON-lines.
    if let Some(d) = datasets.first() {
        let a = d.build(cfg.scale);
        let tracer = Arc::new(Tracer::new(BackendId::ALL.len()));
        tracer.set_enabled(true);
        let registry = MetricsRegistry::new();
        let mut engine = Engine::new(
            Planner::with_policy(cfg.seed, PlanningPolicy::frozen()),
            DEFAULT_CACHE_CAPACITY,
        );
        engine.set_tracer(Arc::clone(&tracer));
        engine.cache().bind_metrics(&registry, "cache.");
        let pipeline = engine.planner().plan(&a);
        for (i, id) in BackendId::ALL.iter().enumerate() {
            tracer.begin_trace(i as u64);
            let start = tracer.now_ns();
            let (_, r) = engine.multiply_planned(&a, &a, pipeline.on_backend(*id));
            registry
                .histogram(&format!("kernel_seconds.{}", id.name()))
                .record(r.timings.kernel_seconds);
            tracer.end_trace(i as u64, "request", start);
        }
        rep.attachments.push((
            "OBS_backends.jsonl".to_string(),
            export::export_jsonl(&tracer.flight_traces(), &registry.snapshot()),
        ));
    }
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backends_experiment_measures_every_backend() {
        let cfg = RunConfig { reps: 1, subset: Some(2), ..Default::default() };
        let rep = run(&cfg);
        assert_eq!(rep.id, "backends");
        assert_eq!(rep.tables.len(), 1);

        let (_, timing) = &rep.tables[0];
        assert_eq!(timing.rows.len(), 2);
        for row in &timing.rows {
            for col in 2..=3 {
                let s: f64 = row[col].parse().unwrap();
                assert!(s > 0.0, "column {col} must carry a timing: {row:?}");
            }
            assert!(row[1].contains("Adaptive") || row[1].contains("ClusterWise"), "{row:?}");
        }

        // One traced request per backend in the obs artifact.
        let (_, jsonl) =
            rep.attachments.iter().find(|(n, _)| n == "OBS_backends.jsonl").expect("obs artifact");
        let traces = jsonl.lines().filter(|l| l.contains("\"kind\":\"trace\"")).count();
        assert_eq!(traces, BackendId::ALL.len());
        for id in BackendId::ALL {
            assert!(jsonl.contains(&format!("kernel_seconds.{}", id.name())));
        }
    }
}
