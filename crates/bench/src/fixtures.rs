//! Shared experiment fixtures: the paper's workload at a configurable
//! scale, with one place defining the seeds so every experiment sees the
//! same database and queries.

use pinum_workload::star::{StarSchema, StarWorkload};

/// Default schema seed (printed by every experiment for reproducibility).
pub const SCHEMA_SEED: u64 = 42;

/// Default workload seed.
pub const WORKLOAD_SEED: u64 = 7;

/// The paper's experimental setup: star schema plus ten queries.
pub struct PaperWorkload {
    pub schema: StarSchema,
    pub workload: StarWorkload,
}

/// Builds the §VI-A workload. `scale = 1.0` is the paper's 10 GB database;
/// experiments default to 1.0 since only statistics are materialized.
pub fn paper_workload(scale: f64) -> PaperWorkload {
    let schema = StarSchema::generate(SCHEMA_SEED, scale);
    let workload = StarWorkload::generate(&schema, WORKLOAD_SEED, 10);
    PaperWorkload { schema, workload }
}

/// Scale requested via the `PINUM_SCALE` environment variable (default 1.0)
/// so CI can run the full harness quickly. A value that is not a finite
/// positive number exits the process with status 2 rather than silently
/// running the full-scale experiment.
pub fn scale_from_env() -> f64 {
    let raw = std::env::var_os("PINUM_SCALE");
    let value = raw.as_ref().map(|v| v.to_str().unwrap_or("<non-UTF-8>"));
    parse_scale(value).unwrap_or_else(|msg| {
        eprintln!("error: {msg}");
        std::process::exit(2);
    })
}

/// `PINUM_SCALE`'s value → scale: unset is 1.0; anything but a finite
/// number > 0 is refused with a message naming the value.
fn parse_scale(value: Option<&str>) -> Result<f64, String> {
    let Some(value) = value else {
        return Ok(1.0);
    };
    match value.trim().parse::<f64>() {
        Ok(scale) if scale.is_finite() && scale > 0.0 => Ok(scale),
        _ => Err(format!(
            "PINUM_SCALE must be a finite number > 0, got {value:?}"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::parse_scale;

    #[test]
    fn unset_scale_is_full_scale() {
        assert_eq!(parse_scale(None), Ok(1.0));
    }

    #[test]
    fn positive_finite_scales_parse() {
        assert_eq!(parse_scale(Some("0.02")), Ok(0.02));
        assert_eq!(parse_scale(Some("1")), Ok(1.0));
        assert_eq!(parse_scale(Some(" 0.25 ")), Ok(0.25));
    }

    #[test]
    fn bad_scales_are_refused_naming_the_value() {
        for bad in [
            "", "0.o2", "abc", "NaN", "inf", "-inf", "0", "-0.5", "1e400",
        ] {
            let err = parse_scale(Some(bad)).expect_err(bad);
            assert!(err.contains(&format!("{bad:?}")), "{bad}: {err}");
        }
    }
}
