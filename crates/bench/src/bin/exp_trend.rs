//! Cross-commit trend gate: diffs the current run's `PINUM_JSON_DIR`
//! experiment JSON against the committed baseline
//! (`crates/bench/baselines/trend.json`) and exits non-zero on any
//! probe-count/quality/identity regression. See `pinum_bench::trend`.
//!
//! With `--write-baseline`, instead of gating, the baseline file is
//! rewritten with every tracked metric's current value (kinds,
//! tolerances and the comment are preserved) — the supported workflow
//! for moving the baseline when a change shifts a metric intentionally:
//! run the experiments into `PINUM_JSON_DIR`, run `exp_trend
//! --write-baseline`, and commit the diff in the same PR.
//!
//! Environment:
//! * `PINUM_JSON_DIR` — directory holding the current `<name>.json`
//!   files (default `artifacts`);
//! * `PINUM_TREND_BASELINE` — baseline file override (default
//!   `crates/bench/baselines/trend.json`, resolved against the crate
//!   when not run from the repo root).

use pinum_bench::trend;
use std::path::PathBuf;

fn main() {
    let write_baseline = std::env::args().skip(1).any(|a| a == "--write-baseline");
    let dir = PathBuf::from(std::env::var("PINUM_JSON_DIR").unwrap_or_else(|_| "artifacts".into()));
    let baseline = std::env::var("PINUM_TREND_BASELINE")
        .map(PathBuf::from)
        .unwrap_or_else(|_| {
            let committed = PathBuf::from("crates/bench/baselines/trend.json");
            if committed.exists() {
                committed
            } else {
                PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("baselines/trend.json")
            }
        });
    if write_baseline {
        match trend::write_baseline(&dir, &baseline) {
            Ok(summary) => {
                println!("baseline refresh: {summary}");
                println!("commit the diff of {} in the same PR", baseline.display());
                return;
            }
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(2);
            }
        }
    }
    println!(
        "trend gate: {} vs baseline {}\n",
        dir.display(),
        baseline.display()
    );
    let specs = match trend::load_baseline(&baseline) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let outcomes = trend::evaluate(&dir, &specs);
    let (table, all_ok) = trend::report(&outcomes);
    println!("{table}");
    if all_ok {
        println!("trend ok: {} metrics within tolerance", outcomes.len());
    } else {
        let failed: Vec<String> = outcomes
            .iter()
            .filter(|o| !o.ok)
            .map(|o| format!("{}:{}", o.spec.file, o.spec.key))
            .collect();
        eprintln!(
            "trend REGRESSION in {} of {} metrics: {}",
            failed.len(),
            outcomes.len(),
            failed.join(", ")
        );
        std::process::exit(1);
    }
}
