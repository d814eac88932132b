//! `perfbench`: the benchmark of the pinum workspace. Every layer is
//! measured from outside, by timing calls into its public functions; see
//! `README.md` beside this crate.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--append <file>]
//! perfbench --smoke
//! perfbench --compare <a.jsonl> <b.jsonl>
//! perfbench --print benchmark-json | metric-table
//! ```

mod compare;
mod fixtures;
mod registry;
mod round;
mod run;
mod stats;
mod sys;
mod trace;
mod workloads;

use run::{Report, RunArgs};
use std::io::Write;
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>] [--append <file>]
       perfbench --smoke
       perfbench --compare <a.jsonl> <b.jsonl>
       perfbench --print benchmark-json|metric-table";

/// Prints a run's two lines — the detail line, then the contract line,
/// which must be the last line of standard output — and appends the detail
/// line to `append` for a later `--compare`.
fn emit(report: &Report, append: Option<&str>) -> Result<(), String> {
    println!("{}", report.detail);
    println!("{}", report.contract_line());
    if let Some(path) = append {
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("{path}: {e}"))?;
        writeln!(file, "{}", report.detail).map_err(|e| format!("{path}: {e}"))?;
    }
    Ok(())
}

/// All four workloads at a size that takes seconds, verification on, plus
/// one traced run so every per-layer metric is produced once.
fn smoke() -> Result<bool, String> {
    let mut correct = true;
    let tiny = |workload, trace| RunArgs {
        workload,
        seed: 1,
        seconds: 0.0,
        trace,
        size: fixtures::SMOKE,
        probe_size: fixtures::SMOKE,
    };
    for w in &registry::WORKLOADS {
        let report = run::run(&tiny(w.name, false));
        correct &= report.correct();
        emit(&report, None)?;
    }
    let report = run::run(&tiny(registry::OFFLINE_ADVISE, true));
    correct &= report.correct();
    emit(&report, None)?;
    Ok(correct)
}

fn real_main() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<Option<&str>, String> {
        match args.iter().position(|a| a == flag) {
            None => Ok(None),
            Some(i) => args
                .get(i + 1)
                .map(|v| Some(v.as_str()))
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}")),
        }
    };
    fn parsed<T: std::str::FromStr>(
        value: Option<&str>,
        flag: &str,
        default: T,
    ) -> Result<T, String> {
        match value {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("{flag}: `{v}` is not a number")),
        }
    }
    if let Some(what) = value("--print")? {
        match what {
            "benchmark-json" => print!("{}", registry::benchmark_json()),
            "metric-table" => print!("{}", registry::metric_table()),
            other => return Err(format!("--print: unknown `{other}`\n{USAGE}")),
        }
        return Ok(true);
    }
    if let Some(i) = args.iter().position(|a| a == "--compare") {
        let (Some(a), Some(b)) = (args.get(i + 1), args.get(i + 2)) else {
            return Err(format!("--compare needs two files\n{USAGE}"));
        };
        return compare::compare(a, b);
    }
    if args.iter().any(|a| a == "--smoke") {
        return smoke();
    }
    let Some(name) = value("--workload")? else {
        return Err(USAGE.into());
    };
    let workload = registry::workload(name).ok_or_else(|| {
        let names: Vec<&str> = registry::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload `{name}`; one of {}", names.join(", "))
    })?;
    let report = run::run(&RunArgs {
        workload: workload.name,
        seed: parsed(value("--seed")?, "--seed", 1u64)?,
        seconds: parsed(
            value("--seconds")?,
            "--seconds",
            registry::RUN_SECONDS as f64,
        )?,
        trace: parsed(value("--trace")?, "--trace", 0u8)? != 0,
        size: fixtures::FULL,
        probe_size: fixtures::PROBE,
    });
    emit(&report, value("--append")?)?;
    Ok(report.correct())
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("perfbench: {message}");
            ExitCode::from(2)
        }
    }
}
