//! What the acceptance tests share: the scale-1.0 star schema, candidate
//! pools capped at N, per-query PINUM models, drift streams ready to
//! replay, and self-cleaning scratch directories.

use pinum_advisor::candidates::generate_candidates;
use pinum_advisor::search::StrategyKind;
use pinum_bench::fixtures::{SCHEMA_SEED, WORKLOAD_SEED};
use pinum_core::access_costs::{collect_pinum, AccessCostCatalog};
use pinum_core::builder::{build_cache_pinum, BuilderOptions};
use pinum_core::{CandidatePool, PlanCache};
use pinum_online::{query_templates, AdmissionSpec, OnlineAdvisor, OnlineAdvisorOptions};
use pinum_optimizer::Optimizer;
use pinum_query::{Query, TemplateKey};
use pinum_workload::drift::{DriftProfile, DriftedQuery};
use pinum_workload::star::{StarSchema, StarWorkload};
use std::path::PathBuf;

/// The paper's 5 GB index budget (§VI-A) at scale 1.0.
pub const BUDGET: u64 = 5 * 1024 * 1024 * 1024;

/// Query count of the workload-scale fixture (the paper uses 10 queries;
/// the scale target is 200).
const QUERIES: usize = 200;

/// Cap on the workload-scale fixture's candidate pool.
const CANDIDATE_CAP: usize = 400;

/// The star schema at scale 1.0, the only scale the values are pinned at.
pub fn schema() -> StarSchema {
    StarSchema::generate(SCHEMA_SEED, 1.0)
}

/// The candidates generated for `queries`, capped at the first `cap`.
fn capped_pool(schema: &StarSchema, queries: &[Query], cap: usize) -> CandidatePool {
    let full = generate_candidates(&schema.catalog, queries);
    if full.len() > cap {
        CandidatePool::from_indexes(full.indexes()[..cap].to_vec())
    } else {
        full
    }
}

/// Each query's one-call PINUM cache and its access catalog over `pool`.
pub fn models(
    schema: &StarSchema,
    queries: &[Query],
    pool: &CandidatePool,
) -> Vec<(PlanCache, AccessCostCatalog)> {
    let optimizer = Optimizer::new(&schema.catalog);
    queries
        .iter()
        .map(|q| {
            let built = build_cache_pinum(&optimizer, q, &BuilderOptions::default());
            let (access, _) = collect_pinum(&optimizer, q, pool);
            (built.cache, access)
        })
        .collect()
}

/// The workload-scale fixture: [`QUERIES`] star queries over a pool
/// capped at [`CANDIDATE_CAP`].
pub struct StarFixture {
    pub schema: StarSchema,
    pub queries: Vec<Query>,
    pub pool: CandidatePool,
}

pub fn star_fixture() -> StarFixture {
    let schema = schema();
    let queries = StarWorkload::generate(&schema, WORKLOAD_SEED, QUERIES).queries;
    let pool = capped_pool(&schema, &queries, CANDIDATE_CAP);
    StarFixture {
        schema,
        queries,
        pool,
    }
}

/// The drift shape every stream here shares: a 4-edge window and 5 %
/// churn per phase.
pub fn drift_profile(phases: usize, phase_length: usize, growth_per_phase: f64) -> DriftProfile {
    DriftProfile {
        phases,
        phase_length,
        edge_window: 4,
        churn: 0.05,
        growth_per_phase,
    }
}

/// A drift stream's admissions, ready to replay: the pool generated over
/// the whole stream and capped, plus each admission's weight, templates
/// and model.
pub struct Drift {
    pub pool: CandidatePool,
    pub weights: Vec<f64>,
    pub templates: Vec<Vec<TemplateKey>>,
    pub models: Vec<(PlanCache, AccessCostCatalog)>,
}

impl Drift {
    pub fn new(
        schema: &StarSchema,
        stream: impl IntoIterator<Item = DriftedQuery>,
        cap: usize,
    ) -> Self {
        let (queries, weights): (Vec<Query>, Vec<f64>) =
            stream.into_iter().map(|d| (d.query, d.weight)).unzip();
        let pool = capped_pool(schema, &queries, cap);
        let models = models(schema, &queries, &pool);
        Self {
            templates: queries.iter().map(query_templates).collect(),
            pool,
            weights,
            models,
        }
    }

    pub fn len(&self) -> usize {
        self.models.len()
    }

    /// Admission `i` with its weight and templates.
    pub fn spec(&self, i: usize) -> AdmissionSpec<'_> {
        let (cache, access) = &self.models[i];
        AdmissionSpec::new(cache, access)
            .weight(self.weights[i])
            .templates(&self.templates[i])
    }
}

/// The drift tests' advisor: swap hill climbing, re-advise on a 15 %
/// window regression, the 5 GB budget.
pub fn swap_options(window: usize, epoch: usize, scoped_readvise: bool) -> OnlineAdvisorOptions {
    OnlineAdvisorOptions {
        window_capacity: window,
        epoch_length: epoch,
        drift_threshold: 0.15,
        strategy: StrategyKind::SwapHillClimb,
        budget_bytes: BUDGET,
        scoped_readvise,
    }
}

/// Every bit the identity gates cover: selection, priced-cost bits (total
/// and per query) and counters.
pub fn fingerprint(advisor: &OnlineAdvisor) -> (Vec<usize>, u64, Vec<u64>, Vec<u64>) {
    let stats = advisor.stats();
    (
        advisor.selection().ids().collect(),
        advisor.current_cost().to_bits(),
        advisor
            .to_parts()
            .per_query
            .iter()
            .map(|c| c.to_bits())
            .collect(),
        vec![
            stats.admits as u64,
            stats.reweights as u64,
            stats.readvises as u64,
            stats.epoch_readvises as u64,
            stats.drift_readvises as u64,
            stats.full_repricings as u64,
        ],
    )
}

/// Self-cleaning scratch directory (no external tempfile dependency).
/// The tests share one process id, so each passes its own `tag`.
pub struct ScratchDir(pub PathBuf);

impl ScratchDir {
    pub fn new(tag: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("pinum-acceptance-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        Self(dir)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
