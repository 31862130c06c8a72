//! `a2-pipelines`: `A²` on five representative families through five
//! forced pipelines, closed loop, one caller, via `Engine::multiply_planned`.

use crate::common::{bytes_moved, check, reset_peak_rss, seeded_values};
use crate::report::{mean, median, Metrics, Tally};
use crate::trace::Tracer;
use crate::{Args, Outcome};
use cw_core::cluster_stats::cluster_stats;
use cw_core::{hierarchical_clustering, variable_clustering, ClusterConfig, CsrCluster};
use cw_datasets::{representative, Scale};
use cw_engine::{ClusteringStrategy, Engine, KernelChoice, Plan};
use cw_reorder::Reordering;
use cw_sparse::{checksum, fingerprint, CsrMatrix};
use cw_spgemm::{flops::flops, spgemm_serial, AccumulatorKind};
use std::time::{Duration, Instant};

/// Pinned workload parameters.
pub const FAMILIES: [&str; 5] = ["cage12-like", "conf5-like", "pdb1-like", "M6-like", "wb-like"];
const SMOKE_FAMILIES: [&str; 2] = ["pdb1-like", "M6-like"];
const SETUP_REPS: usize = 3;

/// A forced pipeline named by the paper axis it changes on top of
/// `Plan::baseline()`; the name ends its kernel span and metric.
struct Pipeline {
    plan: Plan,
    kernel_span: &'static str,
    kernel_metric: &'static str,
}

fn pipelines() -> Vec<Pipeline> {
    let base = Plan::baseline();
    let cluster = |clustering| Plan { clustering, kernel: KernelChoice::ClusterWise, ..base };
    vec![
        Pipeline {
            plan: base,
            kernel_span: "spgemm.kernel.hash",
            kernel_metric: "spgemm.kernel_s.hash",
        },
        Pipeline {
            plan: Plan { acc: AccumulatorKind::Dense, ..base },
            kernel_span: "spgemm.kernel.dense",
            kernel_metric: "spgemm.kernel_s.dense",
        },
        Pipeline {
            plan: Plan { reorder: Some(Reordering::Gp(16)), ..base },
            kernel_span: "spgemm.kernel.gp16",
            kernel_metric: "spgemm.kernel_s.gp16",
        },
        Pipeline {
            plan: cluster(ClusteringStrategy::Hierarchical),
            kernel_span: "core.kernel.hier",
            kernel_metric: "core.kernel_s.hier",
        },
        Pipeline {
            plan: cluster(ClusteringStrategy::Variable),
            kernel_span: "core.kernel.var",
            kernel_metric: "core.kernel_s.var",
        },
    ]
}

struct Operand {
    name: &'static str,
    a: CsrMatrix,
    oracle: CsrMatrix,
    flops: u64,
}

fn operands(args: &Args) -> Vec<Operand> {
    let (names, scale): (&[&str], Scale) =
        if args.smoke { (&SMOKE_FAMILIES, Scale::Small) } else { (&FAMILIES, Scale::Large) };
    let all = representative(scale);
    names
        .iter()
        .enumerate()
        .map(|(i, name)| {
            let ds = all.iter().find(|d| d.name == *name).expect("pinned family exists");
            let a = seeded_values(&ds.build(scale), args.seed.wrapping_add(i as u64));
            let oracle = spgemm_serial(&a, &a);
            let flops = flops(&a, &a);
            Operand { name: ds.name, a, oracle, flops }
        })
        .collect()
}

/// One set-up: a fresh engine and its own copy of every operand, so each
/// instance's data sits at its own addresses.
struct Instance {
    engine: Engine,
    operands: Vec<CsrMatrix>,
}

/// Cold pass: a fresh engine serves every operand × pipeline once.
/// Returns the instance and the summed call seconds.
fn setup(ops: &[Operand], pipes: &[Pipeline], args: &Args, tally: &mut Tally) -> (Instance, f64) {
    let mut engine = Engine::default();
    let operands: Vec<CsrMatrix> = ops.iter().map(|op| op.a.clone()).collect();
    let mut seconds = 0.0;
    for (op, a) in ops.iter().zip(&operands) {
        for p in pipes {
            let t0 = Instant::now();
            let (c, _) = engine.multiply_planned(a, a, p.plan);
            seconds += t0.elapsed().as_secs_f64();
            check(tally, args, c, &op.oracle);
        }
    }
    (Instance { engine, operands }, seconds)
}

pub fn run(args: &Args) -> Outcome {
    let ops = operands(args);
    reset_peak_rss();
    let pipes = pipelines();
    let mut tally = Tally::default();
    let context: Vec<(&str, u64)> =
        ops.iter().map(|o| (o.name, o.a.memory_bytes() as u64)).collect();

    let reps = if args.smoke { 1 } else { SETUP_REPS };
    let mut setups = Vec::new();
    let mut instances = Vec::new();
    for _ in 0..reps {
        let (instance, s) = setup(&ops, &pipes, args, &mut tally);
        setups.push(s);
        instances.push(instance);
    }

    let mut m = Metrics::default();
    m.set("setup_s", median(&setups), "s");
    let mut tracer = None;
    if args.trace {
        let engine = &mut instances.last_mut().expect("at least one setup").engine;
        tracer = Some(traced(engine, &ops, &pipes, args, &mut tally, &mut m));
    } else {
        // Rounds rotate over the set-up instances, so the run's figures
        // are not those of one memory layout.
        let mut loop_ = ClosedLoop::default();
        let deadline = Instant::now() + args.duration();
        for round in 0.. {
            let Instance { engine, operands } = &mut instances[round % reps];
            for (i, (op, a)) in ops.iter().zip(operands.iter()).enumerate() {
                for (j, p) in pipes.iter().enumerate() {
                    let t0 = Instant::now();
                    let (c, _) = engine.multiply_planned(a, a, p.plan);
                    loop_.call(i * pipes.len() + j, t0.elapsed().as_secs_f64(), op.flops);
                    check(&mut tally, args, c, &op.oracle);
                }
            }
            if args.smoke || Instant::now() >= deadline {
                break;
            }
        }
        loop_.metrics(&mut m);
    }
    Outcome { tally, metrics: m, context, server_process: false, tracer }
}

/// Call timings of a closed loop, per input (one operand × pipeline, or
/// one engine × operand × frontier). Rates come from each input's median
/// call time, so a disturbed call moves no rate and every input weighs the
/// same however many rounds the run fits.
#[derive(Debug, Default)]
pub struct ClosedLoop {
    calls: Vec<f64>,
    /// `(call seconds, flops)` per input index; an index that was never
    /// called stays empty and is not counted.
    inputs: Vec<(Vec<f64>, u64)>,
}

impl ClosedLoop {
    pub fn call(&mut self, input: usize, seconds: f64, flops: u64) {
        if self.inputs.len() <= input {
            self.inputs.resize(input + 1, (Vec::new(), 0));
        }
        self.calls.push(seconds);
        self.inputs[input].0.push(seconds);
        self.inputs[input].1 = flops;
    }

    /// The end-to-end metrics shared by the closed-loop workloads.
    pub fn metrics(&self, m: &mut Metrics) {
        let called: Vec<&(Vec<f64>, u64)> =
            self.inputs.iter().filter(|(t, _)| !t.is_empty()).collect();
        let round: f64 = called.iter().map(|(t, _)| median(t)).sum();
        let flops: u64 = called.iter().map(|(_, f)| f).sum();
        m.set("throughput_gflops", flops as f64 / round / 1e9, "GFLOP/s");
        m.set("max_rate_rps", called.len() as f64 / round, "1/s");
        m.set("latency_p50_s", median(&self.calls), "s");
    }
}

/// Times the preparation layers on one operand and records the cluster
/// quality counts.
fn probe(
    op: &Operand,
    seed: u64,
    cfg: &ClusterConfig,
    t: &mut Tracer,
    stats: &mut Vec<(&'static str, f64, f64)>,
) {
    t.time("reorder.compute.gp16", |_| {
        std::hint::black_box(Reordering::Gp(16).compute(&op.a, seed))
    });
    let cc = t.time("core.cluster_build.hier", |_| {
        hierarchical_clustering(&op.a, cfg).build_rows_only(&op.a)
    });
    let s = cluster_stats(&cc);
    stats.push(("hier", s.sharing_factor, s.padding_fraction));
    let cc = t.time("core.cluster_build.var", |_| {
        CsrCluster::from_csr(&op.a, &variable_clustering(&op.a, cfg))
    });
    let s = cluster_stats(&cc);
    stats.push(("var", s.sharing_factor, s.padding_fraction));
}

fn traced(
    engine: &mut Engine,
    ops: &[Operand],
    pipes: &[Pipeline],
    args: &Args,
    tally: &mut Tally,
    m: &mut Metrics,
) -> Tracer {
    let mut t = Tracer::new();
    let seed = engine.planner().reorder_seed();
    let cfg = engine.planner().cluster;
    let mut stats = Vec::new();
    for op in ops {
        probe(op, seed, &cfg, &mut t, &mut stats);
    }

    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut kernel_reports = Vec::new();
    let mut hits = 0usize;
    let deadline = Instant::now() + args.duration();
    let mut round = 0usize;
    loop {
        // Alternate untraced and traced rounds so drift cancels out of the
        // overhead estimate.
        let with_spans = round % 2 == 1;
        for op in ops {
            t.time("sparse.checksum", |_| std::hint::black_box(checksum(&op.a)));
            t.time("sparse.fingerprint", |_| std::hint::black_box(fingerprint(&op.a)));
            for p in pipes {
                let t0 = Instant::now();
                let c = if with_spans {
                    let (c, hit) = traced_call(engine, &mut t, op, p);
                    hits += hit as usize;
                    traced.push(t0.elapsed().as_secs_f64());
                    c
                } else {
                    // `multiply_planned` is `prepare_with` + `execute_prepared`
                    // for these full-shape plans: the traced call's path
                    // without the spans.
                    let (c, report) = engine.multiply_planned(&op.a, &op.a, p.plan);
                    untraced.push(t0.elapsed().as_secs_f64());
                    kernel_reports.push(report.timings.kernel_seconds);
                    c
                };
                check(tally, args, c, &op.oracle);
            }
        }
        round += 1;
        if round >= 2 && (args.smoke || Instant::now() >= deadline) {
            break;
        }
    }

    let per_op = |name: &str| mean(&t.durations(name));
    m.set("reorder.compute_s.gp16", per_op("reorder.compute.gp16"), "s");
    m.set("core.cluster_build_s.hier", per_op("core.cluster_build.hier"), "s");
    m.set("core.cluster_build_s.var", per_op("core.cluster_build.var"), "s");
    for scheme in ["hier", "var"] {
        let of = |f: fn(&(&str, f64, f64)) -> f64| {
            mean(&stats.iter().filter(|s| s.0 == scheme).map(f).collect::<Vec<_>>())
        };
        m.set(&format!("core.sharing_factor.{scheme}"), of(|s| s.1), "ratio");
        m.set(&format!("core.padding_frac.{scheme}"), of(|s| s.2), "frac");
    }
    for p in pipes {
        m.set(p.kernel_metric, mean(&t.durations(p.kernel_span)), "s");
    }
    m.set("sparse.checksum_s", median(&t.durations("sparse.checksum")), "s");
    m.set("sparse.fingerprint_s", median(&t.durations("sparse.fingerprint")), "s");
    m.set("sparse.unpermute_s", median(&t.durations("sparse.unpermute")), "s");
    m.set("engine.resolve_s", median(&t.durations("engine.resolve")), "s");
    m.set("engine.execute_s", median(&t.durations("engine.execute")), "s");
    m.set("engine.kernel_s", median(&kernel_reports), "s");
    m.set("engine.cache_hit_frac", hits as f64 / traced.len().max(1) as f64, "frac");
    let flops: u64 = ops.iter().map(|o| o.flops).sum();
    let bytes: u64 = ops.iter().map(|o| bytes_moved(&o.a, &o.a, &o.oracle)).sum();
    m.set("spgemm.flops", flops as f64, "count");
    m.set("spgemm.bytes_moved", bytes as f64, "bytes");
    m.set("spgemm.flops_per_byte", flops as f64 / bytes as f64, "flop/B");
    m.set("bench.span_coverage", t.coverage("call"), "frac");
    m.set("bench.call_self_s", median(&t.self_times("call")), "s");
    m.set("bench.trace_overhead_frac", mean(&traced) / mean(&untraced) - 1.0, "frac");
    t
}

/// One warm call split into its public-API steps: resolve the prepared
/// operand (`Engine::prepare_with`), then run it (`Engine::execute_prepared`:
/// kernel, row un-permutation, feedback record and report). The kernel and
/// un-permutation spans are the stage seconds the engine reports, placed
/// inside the execute span.
fn traced_call(
    engine: &mut Engine,
    t: &mut Tracer,
    op: &Operand,
    p: &Pipeline,
) -> (CsrMatrix, bool) {
    t.time("call", |t| {
        let (prepared, timings, hit) =
            t.time("engine.resolve", |_| engine.prepare_with(&op.a, Some(p.plan)));
        let c = t.time("engine.execute", |t| {
            let start = Instant::now();
            let (c, report) = engine.execute_prepared(&prepared, &op.a, timings, hit);
            let kernel_end = start + Duration::from_secs_f64(report.timings.kernel_seconds);
            t.record(p.kernel_span, start, kernel_end);
            if prepared.is_reordered() {
                let post = Duration::from_secs_f64(report.timings.postprocess_seconds);
                t.record("sparse.unpermute", kernel_end, kernel_end + post);
            }
            c
        });
        (c, hit)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_loop_counts_only_inputs_that_were_called() {
        // Inputs 0 and 2 called, 1 never (a family with fewer frontiers
        // than its slots): the rate is over two inputs, not three.
        let mut l = ClosedLoop::default();
        for _ in 0..3 {
            l.call(0, 0.001, 1_000_000);
            l.call(2, 0.003, 3_000_000);
        }
        let mut m = Metrics::default();
        l.metrics(&mut m);
        assert!((m.get("max_rate_rps").unwrap() - 2.0 / 0.004).abs() < 1e-6);
        assert!((m.get("throughput_gflops").unwrap() - 4e6 / 0.004 / 1e9).abs() < 1e-9);
        assert_eq!(m.get("latency_p50_s"), Some(0.002));
    }
}
