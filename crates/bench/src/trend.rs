//! Cross-commit trend tracking: diff the current run's `PINUM_JSON_DIR`
//! experiment output against a **committed baseline**
//! (`crates/bench/baselines/trend.json`) and fail on regressions.
//!
//! Every CI run already asserts hard acceptance gates inside each
//! experiment; this harness adds the *relative* dimension — a change
//! that still clears the hard gate but doubles the probe count fails
//! here. Only deterministic behavioural metrics are tracked; timings
//! are perfbench's. The baseline file lists metrics as
//!
//! ```json
//! { "metrics": [
//!   { "file": "search_strategies", "key": "strategies.0.probes",
//!     "kind": "max", "baseline": 1875, "tolerance_pct": 10 } ] }
//! ```
//!
//! * `kind: "max"` — regression when `current > baseline × (1 + tol)`
//!   (lower is better: probe counts, cost ratios);
//! * `kind: "min"` — regression when `current < baseline × (1 − tol)`
//!   (higher is better: call reductions, `identical` flags);
//! * `kind: "near"` — both bounds (counts that should not move at all).
//!
//! `key` is a dotted path into the experiment's JSON object; numeric
//! segments index arrays (`strategies.1.probes`). When an optimization
//! intentionally shifts a metric, update the baseline in the same PR —
//! the diff then documents the shift.

use crate::json::JsonValue;
use crate::table::TextTable;
use std::collections::HashMap;
use std::path::Path;

/// Direction of one tracked metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrendKind {
    /// Lower is better; fail when current exceeds baseline + tolerance.
    Max,
    /// Higher is better; fail when current undercuts baseline − tolerance.
    Min,
    /// Fail on movement past the tolerance in either direction.
    Near,
}

/// One tracked metric from the baseline file.
#[derive(Debug, Clone)]
pub struct MetricSpec {
    /// Experiment JSON file stem (`<dir>/<file>.json`).
    pub file: String,
    /// Dotted path into the object.
    pub key: String,
    pub kind: TrendKind,
    pub baseline: f64,
    pub tolerance_pct: f64,
}

/// One evaluated metric.
#[derive(Debug, Clone)]
pub struct MetricOutcome {
    pub spec: MetricSpec,
    /// `None` when the file or key was missing/non-numeric (a failure).
    pub current: Option<f64>,
    pub ok: bool,
    /// Human-readable bound, e.g. `≤ 2053.7`.
    pub bound: String,
}

/// Parses the committed baseline file.
pub fn load_baseline(path: &Path) -> Result<Vec<MetricSpec>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read baseline {}: {e}", path.display()))?;
    let doc = JsonValue::parse(&text)
        .map_err(|e| format!("baseline {} is not valid JSON: {e}", path.display()))?;
    let metrics = doc
        .get("metrics")
        .and_then(JsonValue::as_array)
        .ok_or_else(|| format!("baseline {} lacks a \"metrics\" array", path.display()))?;
    metrics
        .iter()
        .enumerate()
        .map(|(i, m)| {
            let field = |k: &str| m.get(k).ok_or_else(|| format!("metric #{i} lacks \"{k}\""));
            let kind = match field("kind")?.as_str() {
                Some("max") => TrendKind::Max,
                Some("min") => TrendKind::Min,
                Some("near") => TrendKind::Near,
                other => return Err(format!("metric #{i}: bad kind {other:?}")),
            };
            Ok(MetricSpec {
                file: field("file")?
                    .as_str()
                    .ok_or_else(|| format!("metric #{i}: \"file\" not a string"))?
                    .to_string(),
                key: field("key")?
                    .as_str()
                    .ok_or_else(|| format!("metric #{i}: \"key\" not a string"))?
                    .to_string(),
                kind,
                baseline: field("baseline")?
                    .as_f64()
                    .ok_or_else(|| format!("metric #{i}: \"baseline\" not numeric"))?,
                tolerance_pct: field("tolerance_pct")?
                    .as_f64()
                    .ok_or_else(|| format!("metric #{i}: \"tolerance_pct\" not numeric"))?,
            })
        })
        .collect()
}

/// Inclusive bounds a current value must satisfy.
fn bounds(spec: &MetricSpec) -> (Option<f64>, Option<f64>) {
    let tol = spec.tolerance_pct / 100.0;
    let hi = spec.baseline + spec.baseline.abs() * tol;
    let lo = spec.baseline - spec.baseline.abs() * tol;
    match spec.kind {
        TrendKind::Max => (None, Some(hi)),
        TrendKind::Min => (Some(lo), None),
        TrendKind::Near => (Some(lo), Some(hi)),
    }
}

/// Evaluates every metric against the JSON files in `dir`.
pub fn evaluate(dir: &Path, specs: &[MetricSpec]) -> Vec<MetricOutcome> {
    let mut cache: HashMap<String, Option<JsonValue>> = HashMap::new();
    specs
        .iter()
        .map(|spec| {
            let doc = cache
                .entry(spec.file.clone())
                .or_insert_with(|| {
                    let path = dir.join(format!("{}.json", spec.file));
                    std::fs::read_to_string(&path)
                        .ok()
                        .and_then(|t| JsonValue::parse(&t).ok())
                })
                .as_ref();
            let current = doc
                .and_then(|d| d.path(&spec.key))
                .and_then(JsonValue::as_f64);
            let (lo, hi) = bounds(spec);
            let ok =
                current.is_some_and(|c| lo.is_none_or(|l| c >= l) && hi.is_none_or(|h| c <= h));
            let bound = match (lo, hi) {
                (None, Some(h)) => format!("<= {h:.4}"),
                (Some(l), None) => format!(">= {l:.4}"),
                (Some(l), Some(h)) => format!("[{l:.4}, {h:.4}]"),
                (None, None) => unreachable!("every kind has a bound"),
            };
            MetricOutcome {
                spec: spec.clone(),
                current,
                ok,
                bound,
            }
        })
        .collect()
}

/// Renders the outcome table; returns whether every metric passed.
pub fn report(outcomes: &[MetricOutcome]) -> (String, bool) {
    let mut table = TextTable::new(vec![
        "experiment",
        "metric",
        "baseline",
        "current",
        "allowed",
        "status",
    ]);
    let mut all_ok = true;
    for o in outcomes {
        all_ok &= o.ok;
        table.row(vec![
            o.spec.file.clone(),
            o.spec.key.clone(),
            format!("{:.4}", o.spec.baseline),
            o.current
                .map(|c| format!("{c:.4}"))
                .unwrap_or_else(|| "MISSING".to_string()),
            o.bound.clone(),
            if o.ok { "ok" } else { "REGRESSED" }.to_string(),
        ]);
    }
    (table.render(), all_ok)
}

/// Rewrites the baseline file with every metric's *current* value from
/// the experiment JSON in `dir`, preserving each metric's kind and
/// tolerance and the file-level comment. This is `exp_trend
/// --write-baseline` — the supported way to move the baseline when a
/// change shifts a metric intentionally, replacing hand-editing.
///
/// Fails (without touching the file) when any tracked metric is missing
/// from `dir`: a partial experiment run must not silently shrink the
/// baseline's coverage.
pub fn write_baseline(dir: &Path, path: &Path) -> Result<String, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read baseline {}: {e}", path.display()))?;
    let doc = JsonValue::parse(&text)
        .map_err(|e| format!("baseline {} is not valid JSON: {e}", path.display()))?;
    let comment = doc
        .get("comment")
        .and_then(JsonValue::as_str)
        .unwrap_or_default()
        .to_string();
    let specs = load_baseline(path)?;
    let outcomes = evaluate(dir, &specs);
    let missing: Vec<String> = outcomes
        .iter()
        .filter(|o| o.current.is_none())
        .map(|o| format!("{}:{}", o.spec.file, o.spec.key))
        .collect();
    if !missing.is_empty() {
        return Err(format!(
            "refusing to write baseline: {} tracked metric(s) missing from {}: {}",
            missing.len(),
            dir.display(),
            missing.join(", ")
        ));
    }

    let escape = |s: &str| s.replace('\\', "\\\\").replace('"', "\\\"");
    let mut out = String::from("{\n");
    if !comment.is_empty() {
        out.push_str(&format!("  \"comment\": \"{}\",\n", escape(&comment)));
    }
    out.push_str("  \"metrics\": [\n");
    let mut moved = 0usize;
    for (i, o) in outcomes.iter().enumerate() {
        let kind = match o.spec.kind {
            TrendKind::Max => "max",
            TrendKind::Min => "min",
            TrendKind::Near => "near",
        };
        let current = o.current.expect("missing metrics rejected above");
        if current != o.spec.baseline {
            moved += 1;
        }
        // `{}` writes the shortest decimal that parses back to the same
        // f64 (integers without a fraction), so a refreshed baseline holds
        // exactly the value it was taken from: a tolerance-0 row can never
        // fail its own gate through rounding.
        out.push_str(&format!(
            "    {{ \"file\": \"{}\", \"key\": \"{}\", \"kind\": \"{kind}\", \
             \"baseline\": {current}, \"tolerance_pct\": {} }}{}\n",
            escape(&o.spec.file),
            escape(&o.spec.key),
            o.spec.tolerance_pct,
            if i + 1 < outcomes.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    std::fs::write(path, &out)
        .map_err(|e| format!("cannot write baseline {}: {e}", path.display()))?;
    Ok(format!(
        "wrote {} metrics ({moved} moved) to {}",
        outcomes.len(),
        path.display()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(kind: TrendKind, baseline: f64, tol: f64) -> MetricSpec {
        MetricSpec {
            file: "f".into(),
            key: "k".into(),
            kind,
            baseline,
            tolerance_pct: tol,
        }
    }

    fn check(spec: &MetricSpec, current: f64) -> bool {
        let (lo, hi) = bounds(spec);
        lo.is_none_or(|l| current >= l) && hi.is_none_or(|h| current <= h)
    }

    #[test]
    fn bound_semantics() {
        let max = spec(TrendKind::Max, 100.0, 10.0);
        assert!(check(&max, 100.0));
        assert!(check(&max, 110.0));
        assert!(check(&max, 5.0), "improvements always pass a max bound");
        assert!(!check(&max, 110.1));

        let min = spec(TrendKind::Min, 10.0, 50.0);
        assert!(check(&min, 10.0));
        assert!(check(&min, 5.0));
        assert!(check(&min, 1e9), "improvements always pass a min bound");
        assert!(!check(&min, 4.9));

        let near = spec(TrendKind::Near, 8.0, 0.0);
        assert!(check(&near, 8.0));
        assert!(!check(&near, 8.1));
        assert!(!check(&near, 7.9));
    }

    #[test]
    fn evaluate_against_real_files() {
        let dir = std::env::temp_dir().join(format!("pinum_trend_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join("exp.json"),
            r#"{"probes": 90, "nested": {"ratio": 1.5}}"#,
        )
        .unwrap();
        let specs = vec![
            MetricSpec {
                file: "exp".into(),
                key: "probes".into(),
                kind: TrendKind::Max,
                baseline: 100.0,
                tolerance_pct: 0.0,
            },
            MetricSpec {
                file: "exp".into(),
                key: "nested.ratio".into(),
                kind: TrendKind::Max,
                baseline: 1.0,
                tolerance_pct: 10.0,
            },
            MetricSpec {
                file: "exp".into(),
                key: "absent".into(),
                kind: TrendKind::Min,
                baseline: 1.0,
                tolerance_pct: 0.0,
            },
        ];
        let outcomes = evaluate(&dir, &specs);
        assert!(outcomes[0].ok);
        assert!(!outcomes[1].ok, "1.5 over a 1.1 cap must regress");
        assert!(!outcomes[2].ok, "missing keys must fail, not pass silently");
        let (_, all_ok) = report(&outcomes);
        assert!(!all_ok);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn write_baseline_refreshes_values_and_preserves_shape() {
        let dir = std::env::temp_dir().join(format!("pinum_trend_wb_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join("exp.json"),
            r#"{"probes": 120, "speedup": 9.12341}"#,
        )
        .unwrap();
        let baseline = dir.join("trend.json");
        std::fs::write(
            &baseline,
            r#"{ "comment": "keep me",
                 "metrics": [
                   { "file": "exp", "key": "probes", "kind": "max", "baseline": 100, "tolerance_pct": 10 },
                   { "file": "exp", "key": "speedup", "kind": "min", "baseline": 7.5, "tolerance_pct": 50 } ] }"#,
        )
        .unwrap();

        let summary = write_baseline(&dir, &baseline).expect("write must succeed");
        assert!(summary.contains("2 metrics"), "{summary}");

        // The rewritten file parses, keeps kinds/tolerances/comment, and
        // carries the current values as the new baselines.
        let text = std::fs::read_to_string(&baseline).unwrap();
        assert!(text.contains("keep me"));
        assert!(
            text.contains("\"baseline\": 120,"),
            "integers stay integers: {text}"
        );
        let specs = load_baseline(&baseline).unwrap();
        assert_eq!(specs.len(), 2);
        assert_eq!(specs[0].baseline, 120.0);
        assert_eq!(specs[0].kind, TrendKind::Max);
        assert_eq!(specs[0].tolerance_pct, 10.0);
        assert_eq!(specs[1].baseline, 9.12341, "written exactly, not rounded");
        assert_eq!(specs[1].kind, TrendKind::Min);

        // A missing metric refuses to write (and leaves the file alone).
        std::fs::write(
            &baseline,
            r#"{ "metrics": [
                   { "file": "exp", "key": "absent", "kind": "max", "baseline": 1, "tolerance_pct": 0 } ] }"#,
        )
        .unwrap();
        let before = std::fs::read_to_string(&baseline).unwrap();
        assert!(write_baseline(&dir, &baseline).is_err());
        assert_eq!(std::fs::read_to_string(&baseline).unwrap(), before);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn refreshed_baseline_passes_its_own_gate() {
        let dir = std::env::temp_dir().join(format!("pinum_trend_rt_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // Values whose 4-decimal rounding goes down (1.00194) and up
        // (1.00196): either direction breaks a tolerance-0 bound.
        std::fs::write(dir.join("exp.json"), r#"{"down": 1.00194, "up": 1.00196}"#).unwrap();
        let baseline = dir.join("trend.json");
        std::fs::write(
            &baseline,
            r#"{ "metrics": [
                   { "file": "exp", "key": "down", "kind": "max", "baseline": 1, "tolerance_pct": 0 },
                   { "file": "exp", "key": "up", "kind": "min", "baseline": 1, "tolerance_pct": 0 },
                   { "file": "exp", "key": "down", "kind": "near", "baseline": 1, "tolerance_pct": 0 },
                   { "file": "exp", "key": "up", "kind": "near", "baseline": 1, "tolerance_pct": 0 } ] }"#,
        )
        .unwrap();

        write_baseline(&dir, &baseline).expect("write must succeed");
        let outcomes = evaluate(&dir, &load_baseline(&baseline).unwrap());
        for o in &outcomes {
            assert!(
                o.ok,
                "{} row {} reads {:?} against its own refreshed baseline {}",
                o.bound, o.spec.key, o.current, o.spec.baseline
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn committed_baseline_parses() {
        // Guard the actual checked-in file against syntax rot.
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("baselines/trend.json");
        let specs = load_baseline(&path).expect("committed baseline must parse");
        assert!(specs.len() >= 8, "baseline lost its metrics");
        assert!(specs
            .iter()
            .any(|s| s.file == "online_drift" && s.key == "admit_arms_identical"));
    }
}
