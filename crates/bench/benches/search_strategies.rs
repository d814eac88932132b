//! Criterion bench of the pluggable search strategies over one pre-built
//! workload model (model construction excluded — the comparison is purely
//! the search policy): eager greedy vs lazy greedy vs swap hill climbing
//! vs annealing, plus model construction.

use criterion::{criterion_group, criterion_main, Criterion};
use pinum_advisor::greedy::GreedyOptions;
use pinum_advisor::search::{Anneal, EagerGreedy, LazyGreedy, SearchStrategy, SwapHillClimb};
use pinum_bench::experiments::advisor_scale::build_scale_fixture;
use pinum_core::WorkloadModel;

fn bench_search_strategies(c: &mut Criterion) {
    // Same reduced shape as the advisor_scale bench so runs stay quick.
    let (_schema, _workload, pool, models) = build_scale_fixture(0.05, 60, 200);
    let model = WorkloadModel::build(pool.len(), models.iter().map(|(c, a)| (c, a)));
    let gopts = GreedyOptions {
        budget_bytes: 256 * 1024 * 1024,
        benefit_per_byte: false,
    };
    let mut group = c.benchmark_group("search_strategies");
    group.sample_size(10);
    group.bench_function("eager_greedy", |b| {
        b.iter(|| EagerGreedy.search(&pool, &model, &gopts))
    });
    group.bench_function("lazy_greedy", |b| {
        b.iter(|| LazyGreedy.search(&pool, &model, &gopts))
    });
    group.bench_function("swap_hill_climb", |b| {
        b.iter(|| SwapHillClimb::default().search(&pool, &model, &gopts))
    });
    group.bench_function("anneal", |b| {
        b.iter(|| Anneal::with_seed(0xC0FFEE).search(&pool, &model, &gopts))
    });
    group.bench_function("model_build", |b| {
        b.iter(|| WorkloadModel::build(pool.len(), models.iter().map(|(c, a)| (c, a))))
    });
    group.finish();
}

criterion_group!(benches, bench_search_strategies);
criterion_main!(benches);
