//! Shared experiment fixtures: the paper's workload at full scale, with
//! one place defining the seeds so every experiment sees the same
//! database and queries.

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

/// Builds the §VI-A workload at scale 1.0, the paper's 10 GB database.
/// Only statistics are materialized, so full scale is cheap.
pub fn paper_workload() -> PaperWorkload {
    let schema = StarSchema::generate(SCHEMA_SEED, 1.0);
    let workload = StarWorkload::generate(&schema, WORKLOAD_SEED, 10);
    PaperWorkload { schema, workload }
}
