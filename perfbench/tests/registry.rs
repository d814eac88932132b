//! The registry in code is the single source of `BENCHMARK.json` and of
//! every name a run emits. These tests run the built binary from the root
//! of the checkout, as the driver does.

use std::path::Path;
use std::process::Command;

fn perfbench(args: &[&str]) -> (bool, String) {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .current_dir(root)
        .output()
        .expect("run perfbench");
    (
        out.status.success(),
        String::from_utf8(out.stdout).expect("utf-8 output"),
    )
}

/// Every `X` of a `{"name": "X"` in `--print benchmark-json`.
fn registry_names(benchmark_json: &str) -> Vec<String> {
    benchmark_json
        .split("{\"name\": \"")
        .skip(1)
        .filter_map(|rest| rest.split('"').next())
        .map(str::to_string)
        .collect()
}

/// Every `X` of an `"X": {"value": ...` in a run's last line.
fn emitted_names(contract_line: &str) -> Vec<String> {
    let pieces: Vec<&str> = contract_line.split("\": {\"value\":").collect();
    pieces[..pieces.len() - 1]
        .iter()
        .filter_map(|before| before.rsplit('"').next())
        .map(str::to_string)
        .collect()
}

#[test]
fn benchmark_json_on_disk_is_what_the_registry_renders() {
    let (ok, printed) = perfbench(&["--print", "benchmark-json"]);
    assert!(ok);
    let on_disk =
        std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"))
            .expect("BENCHMARK.json at the root of the checkout");
    assert_eq!(
        on_disk, printed,
        "BENCHMARK.json differs from `perfbench --print benchmark-json`; regenerate it"
    );
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "run with --release: a debug build re-prices fully on every probe"
)]
fn smoke_runs_are_correct_and_emit_registry_names_only() {
    let (_, printed) = perfbench(&["--print", "benchmark-json"]);
    let known = registry_names(&printed);
    assert!(known.iter().any(|n| n == "setup_s"));

    let (ok, out) = perfbench(&["--smoke"]);
    let runs: Vec<&str> = out
        .lines()
        .filter(|l| l.starts_with("{\"correct\""))
        .collect();
    // One untraced run per workload, one traced run.
    assert_eq!(runs.len(), 5, "smoke output:\n{out}");
    assert!(ok, "a smoke run failed verification:\n{out}");
    let mut per_layer_seen = 0;
    for line in runs {
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": "),
            "{line}"
        );
        let names = emitted_names(line);
        assert!(!names.is_empty());
        for name in &names {
            assert!(
                known.contains(name),
                "a run emitted `{name}`, which BENCHMARK.json does not list"
            );
        }
        per_layer_seen += usize::from(names.iter().any(|n| n == "bench.closure_ratio"));
    }
    assert_eq!(
        per_layer_seen, 1,
        "exactly the traced run reports per-layer metrics"
    );
}

#[test]
fn a_usage_error_prints_no_result() {
    let (ok, out) = perfbench(&["--workload", "no_such_workload"]);
    assert!(!ok);
    assert!(out.is_empty());
}
