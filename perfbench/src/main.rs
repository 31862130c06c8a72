//! The repository benchmark: one command, three workloads.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <a2-pipelines|tallskinny-frontiers|serve-wire> \
//!     --seed <n> --seconds <s> --trace <0|1> [--smoke] [--inject-mismatch]
//! ```
//!
//! Inputs are generated here from `--seed`; the program only ever sees
//! matrices. Every product is compared bit for bit with the serial oracle
//! outside the timed intervals. `--trace 0` prints the end-to-end metrics,
//! `--trace 1` runs the workload traced (spans recorded by this benchmark
//! around its calls into each crate) and prints the per-layer metrics. The
//! last line of standard output is the JSON result; the line before it is
//! the machine context. A product that differs from the oracle makes the
//! run exit with code 1.

mod a2;
mod common;
mod report;
mod serve;
mod tallskinny;
mod trace;

use report::{result_line, Metrics, Tally};
use std::time::Duration;
use trace::Tracer;

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("throughput_gflops", "GFLOP/s"),
    ("latency_p50_s", "s"),
    ("max_rate_rps", "1/s"),
    ("ok_frac", "frac"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed by every traced run (`0` where the workload
/// never calls the layer).
pub const PER_LAYER: [(&str, &str); 46] = [
    ("sparse.checksum_s", "s"),
    ("sparse.fingerprint_s", "s"),
    ("sparse.csrb_encode_s", "s"),
    ("sparse.csrb_decode_s", "s"),
    ("sparse.unpermute_s", "s"),
    ("reorder.compute_s.gp16", "s"),
    ("core.cluster_build_s.hier", "s"),
    ("core.cluster_build_s.var", "s"),
    ("core.kernel_s.hier", "s"),
    ("core.kernel_s.var", "s"),
    ("spgemm.kernel_s.hash", "s"),
    ("spgemm.kernel_s.dense", "s"),
    ("spgemm.kernel_s.gp16", "s"),
    ("spgemm.flops", "count"),
    ("spgemm.bytes_moved", "bytes"),
    ("spgemm.flops_per_byte", "flop/B"),
    ("core.sharing_factor.hier", "ratio"),
    ("core.sharing_factor.var", "ratio"),
    ("core.padding_frac.hier", "frac"),
    ("core.padding_frac.var", "frac"),
    ("engine.resolve_s", "s"),
    ("engine.execute_s", "s"),
    ("engine.kernel_s", "s"),
    ("engine.cache_hit_frac", "frac"),
    ("engine.replans", "count"),
    ("engine.warm_prep_s", "s"),
    ("engine.warmup_prep_s", "s"),
    ("engine.regret", "ratio"),
    ("service.queue_p50_s", "s"),
    ("service.queue_p99_s", "s"),
    ("service.execute_s", "s"),
    ("service.batch_size", "count"),
    ("service.reject_frac", "frac"),
    ("service.inproc_p50_s", "s"),
    ("net.call_p50_s", "s"),
    ("net.wire_gap_s", "s"),
    ("net.lat_p99_s.low", "s"),
    ("net.lat_p99_s.high", "s"),
    ("net.lat_p90_s.high", "s"),
    ("bench.trace_overhead_frac", "frac"),
    ("bench.span_coverage", "frac"),
    ("bench.call_self_s", "s"),
    ("bench.generator_late_p99_s", "s"),
    ("bench.ok_frac", "frac"),
    ("bench.calls", "count"),
    ("bench.setup_s", "s"),
];

pub const WORKLOADS: [&str; 3] = ["a2-pipelines", "tallskinny-frontiers", "serve-wire"];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Tiny inputs and one round: the harness's own self-test.
    pub smoke: bool,
    /// Corrupts the first product before its oracle check (self-test of
    /// the check itself).
    pub inject_mismatch: bool,
}

impl Args {
    pub fn duration(&self) -> Duration {
        Duration::from_secs(self.seconds)
    }

    pub fn seconds_f64(&self) -> f64 {
        self.seconds as f64
    }
}

/// What a workload hands back to `main`.
pub struct Outcome {
    pub tally: Tally,
    pub metrics: Metrics,
    pub context: Vec<(&'static str, u64)>,
    pub server_process: bool,
    pub tracer: Option<Tracer>,
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> \
         [--smoke] [--inject-mismatch]",
        WORKLOADS.join("|")
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10,
        trace: false,
        smoke: false,
        inject_mismatch: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => args.workload = value(),
            "--seed" => args.seed = value().parse().unwrap_or_else(|_| usage("bad --seed")),
            "--seconds" => {
                args.seconds = value().parse().unwrap_or_else(|_| usage("bad --seconds"))
            }
            "--trace" => {
                args.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            "--smoke" => args.smoke = true,
            "--inject-mismatch" => args.inject_mismatch = true,
            other => usage(&format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        usage(&format!("unknown workload {:?}", args.workload));
    }
    args
}

/// Writes the traced run's spans as JSON lines under `perfbench/traces/`
/// (relative to the working directory, the repository root).
fn write_trace(args: &Args, t: &Tracer) {
    let dir = std::path::Path::new("perfbench").join("traces");
    let path = dir.join(format!("{}-seed{}.jsonl", args.workload, args.seed));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|_| std::fs::File::create(&path))
        .and_then(|f| t.write_jsonl(&mut std::io::BufWriter::new(f)));
    if let Err(e) = written {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
}

fn main() {
    if std::env::args().nth(1).as_deref() == Some("--serve-child") {
        serve::serve_child();
        return;
    }
    let args = parse_args();
    let mut out = match args.workload.as_str() {
        "a2-pipelines" => a2::run(&args),
        "tallskinny-frontiers" => tallskinny::run(&args),
        _ => serve::run(&args),
    };
    if let Some(t) = &out.tracer {
        write_trace(&args, t);
    }
    let tally = out.tally;
    let m = &mut out.metrics;
    m.set("ok_frac", tally.ok_frac(), "frac");
    if m.get("peak_rss_mb").is_none() {
        m.set("peak_rss_mb", common::peak_rss_mb("self"), "MiB");
    }
    m.set("bench.ok_frac", tally.ok_frac(), "frac");
    m.set("bench.calls", tally.attempted as f64, "count");
    if let Some(s) = m.get("setup_s") {
        m.set("bench.setup_s", s, "s");
    }
    let wanted: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let metrics = std::mem::take(&mut out.metrics).restrict(wanted);
    println!("{}", common::context_line(&args.workload, &out.context, out.server_process));
    println!("{}", result_line(tally.wrong == 0, tally.attempted, tally.failed, &metrics));
    if tally.wrong > 0 {
        eprintln!("perfbench: {} product(s) differ from the oracle", tally.wrong);
        std::process::exit(1);
    }
}
