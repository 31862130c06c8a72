//! Smoke tests of the harness itself: tiny inputs, one round.
//!
//! They check that every metric `BENCHMARK.json` names is emitted with its
//! unit, and that a product differing from the oracle fails the run.

use std::path::{Path, PathBuf};
use std::process::Command;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("package sits in the repo").to_path_buf()
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let start = text.find(&format!("\"{section}\"")).expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section closes")];
    let field = |obj: &str, key: &str| -> Option<String> {
        let at = obj.find(&format!("\"{key}\""))?;
        let rest = &obj[at + key.len() + 2..];
        let open = rest.find('"')?;
        let close = rest[open + 1..].find('"')?;
        Some(rest[open + 1..open + 1 + close].to_string())
    };
    body.split('{')
        .skip(1)
        .filter_map(|obj| Some((field(obj, "name")?, field(obj, "unit")?)))
        .collect()
}

struct Run {
    code: i32,
    last_line: String,
}

fn run(workload: &str, trace: bool, extra: &[&str]) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(repo_root())
        .args(["--workload", workload, "--seed", "3", "--seconds", "1", "--smoke"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(extra)
        .output()
        .expect("run perfbench");
    let stdout = String::from_utf8_lossy(&out.stdout);
    Run {
        code: out.status.code().unwrap_or(-1),
        last_line: stdout.lines().last().unwrap_or_default().to_string(),
    }
}

fn assert_emits(workload: &str, trace: bool, section: &str) {
    let r = run(workload, trace, &[]);
    assert_eq!(r.code, 0, "{workload}: {}", r.last_line);
    assert!(r.last_line.starts_with("{\"correct\": true, \"attempted\": "), "{}", r.last_line);
    let metrics = declared(section);
    assert!(!metrics.is_empty());
    for (name, unit) in metrics {
        let entry = format!("\"{name}\": {{\"value\": ");
        let at = r.last_line.find(&entry).unwrap_or_else(|| panic!("{workload}: no {name}"));
        let rest = &r.last_line[at..];
        let unit_field = format!("\"unit\": \"{unit}\"}}");
        let close = rest.find('}').expect("metric object closes");
        assert!(rest[..=close].ends_with(&unit_field), "{workload}: {name} unit: {rest}");
    }
}

#[test]
fn every_end_to_end_metric_is_emitted_on_every_workload() {
    for w in ["a2-pipelines", "tallskinny-frontiers", "serve-wire"] {
        assert_emits(w, false, "end_to_end");
    }
}

#[test]
fn every_per_layer_metric_is_emitted_on_every_workload() {
    for w in ["a2-pipelines", "tallskinny-frontiers", "serve-wire"] {
        assert_emits(w, true, "per_layer");
    }
}

#[test]
fn an_oracle_mismatch_fails_the_run() {
    for w in ["a2-pipelines", "tallskinny-frontiers", "serve-wire"] {
        let r = run(w, false, &["--inject-mismatch"]);
        assert_eq!(r.code, 1, "{w}: {}", r.last_line);
        assert!(r.last_line.starts_with("{\"correct\": false"), "{w}: {}", r.last_line);
        assert!(!r.last_line.contains("\"failed\": 0,"), "{w}: {}", r.last_line);
    }
}

#[test]
fn unknown_workload_is_a_usage_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"])
        .output()
        .expect("run perfbench");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
