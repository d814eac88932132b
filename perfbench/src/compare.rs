//! `--compare a.jsonl b.jsonl`: two sets of runs collected with `--append`,
//! judged per workload and end-to-end metric by the rule in
//! [`crate::stats::verdict`].

use crate::registry::{Better, END_TO_END, WORKLOADS};
use crate::stats::{self, Verdict};
use pinum_bench::json::JsonValue as Json;

/// One `--append`ed line, as far as comparing needs it.
struct Line {
    workload: String,
    seed: f64,
    nproc: f64,
    journal_on_tmpfs: f64,
    metrics: Json,
}

fn read_lines(path: &str) -> Result<Vec<Line>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut lines = Vec::new();
    for (n, raw) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let at = || format!("{path}:{}", n + 1);
        let v = Json::parse(raw).map_err(|e| format!("{}: {e}", at()))?;
        if v.get("trace").and_then(Json::as_f64) != Some(0.0) {
            continue; // traced runs carry no end-to-end numbers to judge
        }
        let num = |key: &str| {
            v.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{}: no `{key}`", at()))
        };
        lines.push(Line {
            workload: v
                .get("workload")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("{}: no `workload`", at()))?
                .to_string(),
            seed: num("seed")?,
            nproc: num("nproc")?,
            journal_on_tmpfs: num("journal_on_tmpfs")?,
            metrics: v
                .get("metrics")
                .cloned()
                .ok_or_else(|| format!("{}: no `metrics`", at()))?,
        });
    }
    Ok(lines)
}

/// Prints the comparison. `Err` when the two sides are not comparable;
/// `Ok(true)` when nothing regressed and nothing is unresolved.
pub fn compare(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (read_lines(path_a)?, read_lines(path_b)?);
    let mut clean = true;
    println!(
        "{:<15} {:<26} {:>36} {:>36} {:>8}  verdict",
        "workload", "metric", "a: median [q1, q3]", "b: median [q1, q3]", "change"
    );
    for w in &WORKLOADS {
        let side = |lines: &[Line]| -> Vec<usize> {
            (0..lines.len())
                .filter(|&i| lines[i].workload == w.name)
                .collect()
        };
        let (ia, ib) = (side(&a), side(&b));
        if ia.is_empty() && ib.is_empty() {
            continue;
        }
        if ia.len() != ib.len() {
            return Err(format!(
                "{}: {} runs in {path_a} but {} in {path_b}; runs are compared in pairs",
                w.name,
                ia.len(),
                ib.len()
            ));
        }
        let all = || ia.iter().map(|&i| &a[i]).chain(ib.iter().map(|&i| &b[i]));
        let first = &a[ia[0]];
        if all().any(|l| l.nproc != first.nproc || l.journal_on_tmpfs != first.journal_on_tmpfs) {
            return Err(format!(
                "{}: runs differ in `nproc` or `journal_on_tmpfs`; numbers from different machine shapes are not compared",
                w.name
            ));
        }
        if ia.iter().zip(&ib).any(|(&i, &j)| a[i].seed != b[j].seed) {
            return Err(format!("{}: paired runs differ in `seed`", w.name));
        }
        for m in &END_TO_END {
            let column = |lines: &[Line], at: &[usize]| -> Vec<f64> {
                at.iter()
                    .filter_map(|&i| lines[i].metrics.get(m.name).and_then(Json::as_f64))
                    .collect()
            };
            let (va, vb) = (column(&a, &ia), column(&b, &ib));
            if va.len() != ia.len() || vb.len() != ib.len() {
                return Err(format!("{}: a run has no `{}`", w.name, m.name));
            }
            let lower = m.better == Better::Lower;
            let verdict = if m.exact {
                stats::exact_verdict(&va, &vb, lower)
            } else {
                stats::verdict(&va, &vb, lower, m.bound)
            };
            clean &= !matches!(verdict, Verdict::Regressed | Verdict::Unresolved);
            let show = |v: &[f64]| {
                let (q1, q3) = stats::quartiles(v);
                format!("{:.5} [{:.5}, {:.5}]", stats::median(v), q1, q3)
            };
            let change = (stats::median(&vb) - stats::median(&va)) / stats::median(&va);
            println!(
                "{:<15} {:<26} {:>36} {:>36} {:>+7.2}%  {}",
                w.name,
                m.name,
                show(&va),
                show(&vb),
                change * 100.0,
                verdict.as_str()
            );
        }
    }
    Ok(clean)
}
