//! `tallskinny-frontiers`: `A × Fᵢ` (paper §4.4) on four tall-skinny
//! families, 32 BFS sources × 10 frontiers each, auto-planned through
//! `Engine::multiply` with feedback on, closed loop, one caller.

use crate::a2::ClosedLoop;
use crate::common::{bytes_moved, check, reset_peak_rss, seeded_values};
use crate::report::{mean, median, Metrics, Tally};
use crate::trace::Tracer;
use crate::{Args, Outcome};
use cw_datasets::frontier::bc_frontiers;
use cw_datasets::{tall_skinny_suite, Scale};
use cw_engine::{Engine, ExecutionReport};
use cw_sparse::{checksum, fingerprint, CsrMatrix};
use cw_spgemm::{flops::flops, spgemm_serial};
use std::time::Instant;

/// Pinned workload parameters.
pub const FAMILIES: [&str; 4] =
    ["LiveJournal-like", "europe-osm-like", "kkt-power-like", "M6-like"];
const SMOKE_FAMILIES: [&str; 2] = ["europe-osm-like", "M6-like"];
pub const SOURCES: usize = 32;
pub const FRONTIERS: usize = 10;
const SETUP_REPS: usize = 15;
/// Passes over every (operand, frontier) pair after set-up and before any
/// timing, so the feedback loop's exploration is past its expensive start.
const WARMUP_PASSES: usize = 6;
/// Engines the untraced run measures, rounds rotating over them: each
/// engine's feedback loop settles on its own plans, and per-input medians
/// over all of them keep one engine's choice from setting the figures.
const ENGINES: usize = 2;
/// Candidates of `Planner::plans_ranked` timed forced for `engine.regret`.
const REGRET_TOP: usize = 4;

struct Family {
    name: &'static str,
    a: CsrMatrix,
    /// `(frontier, oracle product, flops)`.
    rhs: Vec<(CsrMatrix, CsrMatrix, u64)>,
}

fn families(args: &Args) -> Vec<Family> {
    let (names, scale): (&[&str], Scale) =
        if args.smoke { (&SMOKE_FAMILIES, Scale::Small) } else { (&FAMILIES, Scale::Large) };
    let suite = tall_skinny_suite(scale);
    names
        .iter()
        .enumerate()
        .map(|(i, name)| {
            let ds = suite.iter().find(|d| d.name == *name).expect("pinned family exists");
            let seed = args.seed.wrapping_add(i as u64);
            let a = seeded_values(&ds.build(scale), seed);
            let frontiers = if args.smoke { 2 } else { FRONTIERS };
            let rhs = bc_frontiers(&a, SOURCES, frontiers, seed)
                .into_iter()
                .map(|f| {
                    let c = spgemm_serial(&a, &f);
                    let w = flops(&a, &f);
                    (f, c, w)
                })
                .collect();
            Family { name: ds.name, a, rhs }
        })
        .collect()
}

pub fn run(args: &Args) -> Outcome {
    let fams = families(args);
    reset_peak_rss();
    let mut tally = Tally::default();
    let context: Vec<(&str, u64)> =
        fams.iter().map(|f| (f.name, f.a.memory_bytes() as u64)).collect();

    // Set-up: a fresh engine serves every operand once (plan, prepare and
    // the first multiply). Only the last `kept` engines stay alive.
    let reps = if args.smoke { 1 } else { SETUP_REPS };
    let kept = if args.smoke || args.trace { 1 } else { ENGINES };
    let mut setups = Vec::new();
    let mut engines = Vec::new();
    for _ in 0..reps {
        let mut engine = Engine::default();
        let mut s = 0.0;
        for f in &fams {
            let (b, oracle, _) = &f.rhs[0];
            let t0 = Instant::now();
            let (c, _) = engine.multiply(&f.a, b);
            s += t0.elapsed().as_secs_f64();
            check(&mut tally, args, c, oracle);
        }
        setups.push(s);
        engines.push(engine);
        if engines.len() > kept {
            engines.remove(0);
        }
    }

    let mut m = Metrics::default();
    m.set("setup_s", median(&setups), "s");
    let mut warm_prep = 0.0;
    for engine in &mut engines {
        for _ in 0..if args.smoke { 1 } else { WARMUP_PASSES } {
            for f in &fams {
                for (b, oracle, _) in &f.rhs {
                    let (c, report) = engine.multiply(&f.a, b);
                    warm_prep += report.timings.preprocessing();
                    check(&mut tally, args, c, oracle);
                }
            }
        }
    }
    let mut tracer = None;
    if args.trace {
        tracer = Some(traced(&mut engines[0], &fams, args, &mut tally, &mut m));
        m.set("engine.warmup_prep_s", warm_prep, "s");
    } else {
        // Inputs are numbered per engine, so each engine's settled plan
        // gets its own median. A family may yield fewer than FRONTIERS
        // frontiers (`bc_frontiers` stops once every BFS is exhausted), so
        // the numbering runs over the frontiers that exist.
        let inputs: usize = fams.iter().map(|f| f.rhs.len()).sum();
        let mut loop_ = ClosedLoop::default();
        let deadline = Instant::now() + args.duration();
        for round in 0.. {
            let e = round % kept;
            let engine = &mut engines[e];
            let rhs = fams.iter().flat_map(|f| f.rhs.iter().map(move |r| (&f.a, r)));
            for (k, (a, (b, oracle, w))) in rhs.enumerate() {
                let t0 = Instant::now();
                let (c, _) = engine.multiply(a, b);
                loop_.call(e * inputs + k, t0.elapsed().as_secs_f64(), *w);
                check(&mut tally, args, c, oracle);
            }
            if args.smoke || Instant::now() >= deadline {
                break;
            }
        }
        loop_.metrics(&mut m);
    }
    Outcome { tally, metrics: m, context, server_process: false, tracer }
}

fn traced(
    engine: &mut Engine,
    fams: &[Family],
    args: &Args,
    tally: &mut Tally,
    m: &mut Metrics,
) -> Tracer {
    let mut t = Tracer::new();
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut reports: Vec<ExecutionReport> = Vec::new();
    // Per family: execute seconds of the traced calls, in call order.
    let mut executes: Vec<Vec<f64>> = vec![Vec::new(); fams.len()];
    let deadline = Instant::now() + args.duration().mul_f64(0.75);
    let mut round = 0usize;
    loop {
        let with_spans = round % 2 == 1;
        for (fi, f) in fams.iter().enumerate() {
            t.time("sparse.checksum", |_| std::hint::black_box(checksum(&f.a)));
            t.time("sparse.fingerprint", |_| std::hint::black_box(fingerprint(&f.a)));
            for (b, oracle, _) in &f.rhs {
                let t0 = Instant::now();
                let (c, report) = if with_spans {
                    let out = t.time("call", |t| {
                        let (prepared, timings, hit) =
                            t.time("engine.resolve", |_| engine.prepare_with(&f.a, None));
                        let t1 = Instant::now();
                        let out = t.time("engine.execute", |_| {
                            engine.execute_prepared(&prepared, b, timings, hit)
                        });
                        executes[fi].push(t1.elapsed().as_secs_f64());
                        out
                    });
                    traced.push(t0.elapsed().as_secs_f64());
                    out
                } else {
                    let out = engine.multiply(&f.a, b);
                    untraced.push(t0.elapsed().as_secs_f64());
                    out
                };
                reports.push(report);
                check(tally, args, c, oracle);
            }
        }
        round += 1;
        if round >= 2 && (args.smoke || Instant::now() >= deadline) {
            break;
        }
    }

    let kernels: Vec<f64> = reports.iter().map(|r| r.timings.kernel_seconds).collect();
    let hits = reports.iter().filter(|r| r.cache_hit).count();
    let replans = reports.iter().filter(|r| r.feedback.is_some_and(|f| f.switched)).count();
    let warm_prep: f64 = reports.iter().map(|r| r.timings.preprocessing()).sum();
    m.set("engine.resolve_s", median(&t.durations("engine.resolve")), "s");
    m.set("engine.execute_s", median(&t.durations("engine.execute")), "s");
    m.set("engine.kernel_s", median(&kernels), "s");
    m.set("engine.cache_hit_frac", hits as f64 / reports.len() as f64, "frac");
    m.set("engine.replans", replans as f64, "count");
    m.set("engine.warm_prep_s", warm_prep, "s");
    m.set("engine.regret", regret(engine, fams, &executes, &mut t, tally, args), "ratio");
    m.set("sparse.checksum_s", median(&t.durations("sparse.checksum")), "s");
    m.set("sparse.fingerprint_s", median(&t.durations("sparse.fingerprint")), "s");
    let flops: u64 = fams.iter().flat_map(|f| f.rhs.iter().map(|r| r.2)).sum();
    let bytes: u64 =
        fams.iter().flat_map(|f| f.rhs.iter().map(|(b, c, _)| bytes_moved(&f.a, b, c))).sum();
    m.set("spgemm.flops", flops as f64, "count");
    m.set("spgemm.bytes_moved", bytes as f64, "bytes");
    m.set("spgemm.flops_per_byte", flops as f64 / bytes as f64, "flop/B");
    m.set("bench.span_coverage", t.coverage("call"), "frac");
    m.set("bench.call_self_s", median(&t.self_times("call")), "s");
    m.set("bench.trace_overhead_frac", mean(&traced) / mean(&untraced) - 1.0, "frac");
    t
}

/// Geometric mean over families of the converged auto plan's median
/// execute seconds ÷ the best median among the planner's top candidates,
/// each run forced over the same frontiers.
fn regret(
    engine: &mut Engine,
    fams: &[Family],
    executes: &[Vec<f64>],
    t: &mut Tracer,
    tally: &mut Tally,
    args: &Args,
) -> f64 {
    let mut log_sum = 0.0;
    for (f, auto) in fams.iter().zip(executes) {
        let converged = median(&auto[auto.len() / 2..]);
        let mut best = f64::INFINITY;
        let candidates = engine.planner().plans_ranked(&f.a);
        for plan in candidates.into_iter().take(REGRET_TOP) {
            // Warm the forced preparation first; only warm calls count.
            let (c, _) = engine.multiply_planned(&f.a, &f.rhs[0].0, plan);
            check(tally, args, c, &f.rhs[0].1);
            let mut times = Vec::new();
            for (b, oracle, _) in &f.rhs {
                let (prepared, timings, hit) = engine.prepare_with(&f.a, Some(plan));
                let t1 = Instant::now();
                let (c, _) = t.time("engine.execute_forced", |_| {
                    engine.execute_prepared(&prepared, b, timings, hit)
                });
                times.push(t1.elapsed().as_secs_f64());
                check(tally, args, c, oracle);
            }
            best = best.min(median(&times));
        }
        log_sum += (converged / best).ln();
    }
    (log_sum / fams.len() as f64).exp()
}
