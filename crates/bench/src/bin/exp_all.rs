//! Runs the nine paper-figure experiments in sequence — regenerates all
//! of the paper's tables and figures.
use pinum_bench::experiments as e;
use pinum_bench::fixtures::scale_from_env;

fn main() {
    let scale = scale_from_env();
    println!("==== PINUM reproduction: full experiment run (scale {scale}) ====\n");
    e::redundancy::run(scale);
    e::whatif::run(scale);
    e::cost_accuracy::run(scale);
    e::cache_construction::run(scale);
    e::index_selection::run(scale, false);
    e::pruning::run(scale);
    e::nlj::run(scale);
    e::greedy_quality::run(scale);
    e::engine_validation::run(scale);
    println!("==== done ====");
}
