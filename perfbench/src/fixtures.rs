//! Inputs: query sets for `advise`, prebuilt search models, and the
//! drifting admission stream the served workloads replay. The program under
//! test receives only what is generated here.
//!
//! Two seeds make them. [`POPULATION_SEED`] fixes *which* queries exist, as
//! a TPC-style benchmark fixes its query templates; `--seed` arranges them:
//! the order of sets and ops, where each tenant starts in the stream, the op
//! mix, which queries verification samples. Queries drawn
//! fresh per `--seed` were tried first and moved every timing by 15-40 %
//! between seeds (one `advise` set in sixty holds a query the optimizer
//! spends 350 ms on; drift streams differ in frame size by half), which would
//! bury the 10 % regressions the benchmark exists to catch; see the README.

use pinum_advisor::candidates::generate_candidates;
use pinum_core::access_costs::AccessCostCatalog;
use pinum_core::builder::BuilderOptions;
use pinum_core::collector::build_workload_models;
use pinum_core::{CandidatePool, PlanCache};
use pinum_online::query_templates;
use pinum_optimizer::Optimizer;
use pinum_persist::convert;
use pinum_protocol::WireAdmission;
use pinum_query::{Query, TemplateKey};
use pinum_workload::drift::{DriftProfile, DriftStream};
use pinum_workload::star::{StarSchema, StarWorkload};

/// The schema seed every experiment of the repository uses
/// (`pinum_bench::fixtures::SCHEMA_SEED`); `--seed` varies the queries
/// asked of that database, never the database.
pub const SCHEMA_SEED: u64 = 42;
pub const SCALE: f64 = 1.0;

/// Seed of the query population (`pinum_bench::fixtures::WORKLOAD_SEED`).
pub const POPULATION_SEED: u64 = 7;

/// Index budget of the offline advisor and of every tenant.
pub const BUDGET_BYTES: u64 = 5 << 30;

/// How much work a round does. `FULL` is what `--trace 0` measures;
/// `PROBE` sizes the rounds a traced run adds for the workloads it was not
/// asked about (their per-layer metrics are still due); `SMOKE` is the
/// seconds-long check of `--smoke`.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    pub advise_sets: usize,
    pub advise_queries: usize,
    /// Further sets, `advise`d once, untimed, before the timed phase.
    pub advise_warm_sets: usize,
    pub advise_reps: usize,
    /// Queries per set whose cache-priced cost is checked against direct
    /// optimizer calls.
    pub advise_checked: usize,
    pub sweep_models: usize,
    pub sweep_queries: usize,
    pub sweep_candidates: usize,
    pub sweep_reps: usize,
    pub stream_phases: usize,
    pub stream_phase_length: usize,
    pub stream_candidates: usize,
    pub durable_warm_ops: usize,
    pub durable_ops: usize,
    pub mixed_warm_admits: usize,
    pub mixed_ops: usize,
}

pub const FULL: Size = Size {
    advise_sets: 12,
    advise_queries: 24,
    advise_warm_sets: 4,
    advise_reps: 2,
    advise_checked: 3,
    sweep_models: 2,
    sweep_queries: 120,
    sweep_candidates: 400,
    sweep_reps: 4,
    // 168 queries are 21 batches of 8: a tenant's walk round the stream then
    // slips by a quarter of an epoch (32 admissions) per lap, so every run
    // re-advises at every alignment to the stream, whatever offset `--seed`
    // starts it at. With 160 the alignment was fixed by the offset and the
    // p99 read 14 or 17 ms by seed.
    stream_phases: 4,
    stream_phase_length: 42,
    stream_candidates: 300,
    durable_warm_ops: 160,
    durable_ops: 2000,
    mixed_warm_admits: 80,
    mixed_ops: 6000,
};

pub const PROBE: Size = Size {
    advise_sets: 3,
    advise_warm_sets: 1,
    advise_reps: 1,
    sweep_models: 1,
    sweep_reps: 1,
    durable_ops: 400,
    mixed_ops: 1500,
    ..FULL
};

pub const SMOKE: Size = Size {
    advise_sets: 2,
    advise_queries: 8,
    advise_warm_sets: 1,
    advise_reps: 2,
    advise_checked: 1,
    sweep_models: 1,
    sweep_queries: 24,
    sweep_candidates: 120,
    sweep_reps: 1,
    stream_phases: 2,
    stream_phase_length: 16,
    stream_candidates: 120,
    durable_warm_ops: 16,
    durable_ops: 48,
    mixed_warm_admits: 16,
    mixed_ops: 200,
};

/// SplitMix64: the benchmark's own generator, so op mixes do not depend on
/// any crate under test.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is irrelevant here.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// The seed of one input stream: `seed` mixed with the stream's name and
/// index, so streams are independent and each is a function of `seed`.
pub fn derive_seed(seed: u64, stream: &str, index: u64) -> u64 {
    let tag = stream.bytes().fold(0xCBF2_9CE4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3)
    });
    Rng::new(seed ^ tag.rotate_left(17) ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64()
}

pub fn schema() -> StarSchema {
    StarSchema::generate(SCHEMA_SEED, SCALE)
}

/// `0..n` in an order `--seed` decides.
pub fn shuffled(seed: u64, stream: &str, n: usize) -> Vec<usize> {
    let mut rng = Rng::new(derive_seed(seed, stream, 0));
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    order
}

/// The timed sets followed by the warm-up sets: small star workloads, each
/// spanning join widths 2-6, so every `advise` op costs about the same (one
/// big workload sliced into batches would give ops from 2 ms to 2 s:
/// `StarWorkload::generate` orders queries by width).
pub fn advise_sets(schema: &StarSchema, size: &Size) -> Vec<Vec<Query>> {
    (0..(size.advise_sets + size.advise_warm_sets) as u64)
        .map(|k| {
            let seed = derive_seed(POPULATION_SEED, "advise", k);
            StarWorkload::generate(schema, seed, size.advise_queries).queries
        })
        .collect()
}

/// The first `cap` candidates of a generated pool.
fn capped(pool: CandidatePool, cap: usize) -> CandidatePool {
    if pool.len() > cap {
        CandidatePool::from_indexes(pool.indexes()[..cap].to_vec())
    } else {
        pool
    }
}

/// Generates the queries and candidate pool of search model `m`.
pub fn sweep_inputs(schema: &StarSchema, m: u64, size: &Size) -> (Vec<Query>, CandidatePool) {
    let seed = derive_seed(POPULATION_SEED, "sweep", m);
    let queries = StarWorkload::generate(schema, seed, size.sweep_queries).queries;
    let pool = capped(
        generate_candidates(&schema.catalog, &queries),
        size.sweep_candidates,
    );
    (queries, pool)
}

/// The admission stream the served workloads replay, in every form a round
/// needs: domain models for the twins, wire admissions for the daemon.
pub struct ServeFixture {
    pub pool: CandidatePool,
    pub weights: Vec<f64>,
    pub models: Vec<(PlanCache, AccessCostCatalog)>,
    pub templates: Vec<Vec<TemplateKey>>,
    pub wire: Vec<WireAdmission>,
    pub optimizer_calls: usize,
}

impl ServeFixture {
    pub fn len(&self) -> usize {
        self.models.len()
    }
}

pub fn serve_fixture(schema: &StarSchema, size: &Size) -> ServeFixture {
    let profile = DriftProfile {
        phases: size.stream_phases,
        phase_length: size.stream_phase_length,
        edge_window: 4,
        churn: 0.05,
        growth_per_phase: 1.2,
    };
    let seed = derive_seed(POPULATION_SEED, "drift", 0);
    let stream: Vec<_> = DriftStream::new(schema, seed, profile).collect();
    let queries: Vec<Query> = stream.iter().map(|d| d.query.clone()).collect();
    let weights: Vec<f64> = stream.iter().map(|d| d.weight).collect();
    let pool = capped(
        generate_candidates(&schema.catalog, &queries),
        size.stream_candidates,
    );
    let optimizer = Optimizer::new(&schema.catalog);
    let built = build_workload_models(&optimizer, &queries, &pool, &BuilderOptions::default());
    let templates: Vec<Vec<TemplateKey>> = queries.iter().map(query_templates).collect();
    let wire = built
        .models
        .iter()
        .zip(&weights)
        .zip(&templates)
        .map(|(((cache, access), weight), templates)| WireAdmission {
            cache: convert::cache_to_wire(cache),
            access: convert::access_to_wire(access),
            weight: *weight,
            templates: templates.iter().map(convert::template_to_wire).collect(),
        })
        .collect();
    ServeFixture {
        pool,
        weights,
        optimizer_calls: built.cache_calls + built.collect_calls,
        models: built.models,
        templates,
        wire,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_are_functions_of_seed_stream_and_index() {
        assert_eq!(derive_seed(1, "advise", 0), derive_seed(1, "advise", 0));
        assert_ne!(derive_seed(1, "advise", 0), derive_seed(2, "advise", 0));
        assert_ne!(derive_seed(1, "advise", 0), derive_seed(1, "advise", 1));
        assert_ne!(derive_seed(1, "advise", 0), derive_seed(1, "sweep", 0));
    }

    #[test]
    fn seed_shuffles_and_the_same_seed_shuffles_the_same() {
        let order = shuffled(3, "advise-order", 12);
        assert_eq!(order, shuffled(3, "advise-order", 12));
        assert_ne!(order, shuffled(4, "advise-order", 12));
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..12).collect::<Vec<_>>());
    }

    #[test]
    fn advise_sets_span_the_join_widths() {
        let schema = schema();
        let a = advise_sets(&schema, &SMOKE);
        assert_eq!(a.len(), SMOKE.advise_sets + SMOKE.advise_warm_sets);
        // Each small set spans the join widths.
        let widths: Vec<usize> = a[0].iter().map(Query::relation_count).collect();
        assert_eq!(widths.first(), Some(&2));
        assert_eq!(widths.last(), Some(&6));
    }
}
