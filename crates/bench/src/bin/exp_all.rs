//! Runs the paper's nine experiments and prints their tables: the one
//! place the reproduction is rendered. The values are asserted by the
//! `acceptance` test target's `paper` module; the wall clocks printed
//! here are not asserted anywhere.
//!
//! ```sh
//! cargo run --release --bin exp_all
//! ```

use pinum_advisor::tool::AdvisorOptions;
use pinum_bench::experiments as e;
use pinum_bench::fixtures::{SCHEMA_SEED, WORKLOAD_SEED};
use pinum_bench::table::{fmt_duration as time, TextTable};
use std::time::Duration;

const GIB: f64 = 1024.0 * 1024.0 * 1024.0;

/// One table row: each cell through `Display`.
macro_rules! cells {
    ($($cell:expr),* $(,)?) => { vec![$($cell.to_string()),*] };
}

fn main() {
    println!("==== PINUM reproduction: full experiment run (scale 1) ====\n");
    redundancy(&e::redundancy::run());
    whatif(&e::whatif::run());
    cost_accuracy(&e::cost_accuracy::run());
    cache_construction(&e::cache_construction::run());
    index_selection(&e::index_selection::run());
    pruning(&e::pruning::run());
    nlj(&e::nlj::run());
    greedy_quality(&e::greedy_quality::run());
    engine_validation(&e::engine_validation::run());
    println!("==== done ====");
}

/// Prints a table under `header` (column names joined by `|`).
fn table(header: &str, rows: impl IntoIterator<Item = Vec<String>>) {
    let mut table = TextTable::new(header.split('|').collect());
    for row in rows {
        table.row(row);
    }
    println!("{}", table.render());
}

fn percent(fraction: f64) -> String {
    format!("{:.2}%", fraction * 100.0)
}

fn redundancy(r: &e::redundancy::Redundancy) {
    println!("E1: plan redundancy (paper §IV) — seeds {SCHEMA_SEED}, {WORKLOAD_SEED}\n");
    table(
        "query|tables|IOCs (=INUM calls)|INUM unique winners|redundant calls|PINUM useful plans",
        std::iter::once(&r.tpch_q5).chain(&r.star).map(|x| {
            let (unique, plans) = (x.inum_unique_winners, x.pinum_useful_plans);
            let redundant = format!("{:.0}%", 100.0 * (1.0 - unique as f64 / x.iocs as f64));
            cells![x.query, x.tables, x.iocs, unique, redundant, plans]
        }),
    );
    let iocs: u64 = r.star.iter().map(|x| x.iocs).sum();
    let plans: usize = r.star.iter().map(|x| x.pinum_useful_plans).sum();
    println!("star workload totals: {iocs} interesting-order combinations, {plans} useful plans");
    println!("paper (§VI-A):       266 interesting-order combinations, 43 useful plans");
    println!("paper (§IV, Q5):     648 IOCs → 64 unique plans (90% redundant)\n");
}

fn whatif(w: &e::whatif::WhatIfAccuracy) {
    use e::whatif::{INDEX_SETS, SEED};
    println!(
        "E2: what-if index accuracy (paper §VI-B) — {INDEX_SETS} random index sets, seed {SEED:#x}\n"
    );
    table(
        "metric|this repro|paper",
        [
            cells!["average error", percent(w.average), "0.33%"],
            cells!["maximum error", percent(w.maximum), "1.05%"],
            cells!["index sets", w.index_sets, INDEX_SETS],
        ],
    );
    println!(
        "(what-if sizes ignore internal B-tree pages; the residual error is that page-count gap)\n"
    );
}

fn cost_accuracy(rows: &[e::cost_accuracy::QueryAccuracy]) {
    use e::cost_accuracy::{CONFIGS_PER_QUERY, SEED};
    println!(
        "E3: cache cost-model accuracy (paper §VI-C) — {CONFIGS_PER_QUERY} random atomic configurations per query, seed {SEED:#x}\n"
    );
    table(
        "query|tables|mean err|p95 err|max err",
        rows.iter().map(|a| {
            let errors = [a.mean_error, a.p95_error, a.max_error].map(percent);
            cells![a.name, a.tables, errors[0], errors[1], errors[2]]
        }),
    );
    let under = |bound: f64| rows.iter().filter(|a| a.mean_error < bound).count();
    println!(
        "this repro: {} queries <1% error, {} in 1–5%, {} ≥5%",
        under(0.01),
        under(0.05) - under(0.01),
        rows.len() - under(0.05)
    );
    println!("paper:      6 queries <1% error, 3 ≈4%, 1 ≈9% (NLJ-favouring query)\n");
}

fn cache_construction(c: &e::cache_construction::CacheConstruction) {
    println!(
        "E4: cache construction times (paper Fig. 4/5) — {} candidate indexes\n",
        c.candidates
    );
    let ratio = |slow: Duration, fast: Duration| slow.as_secs_f64() / fast.as_secs_f64();
    let speedups: Vec<_> = c
        .rows
        .iter()
        .map(|r| {
            let cache = ratio(r.inum_cache.wall, r.pinum_cache.wall);
            (cache, ratio(r.inum_access.wall, r.pinum_access.wall))
        })
        .collect();
    table(
        "query|tables|IOCs|INUM calls|INUM cache|PINUM cache|speedup|\
         INUM access|PINUM access|speedup ",
        c.rows.iter().zip(&speedups).map(|(r, (cache, access))| {
            let (ic, pc) = (time(r.inum_cache.wall), time(r.pinum_cache.wall));
            let (ia, pa) = (time(r.inum_access.wall), time(r.pinum_access.wall));
            let (cs, acs) = (format!("{cache:.1}x"), format!("{access:.1}x"));
            let (iocs, calls) = (r.inum_cache.ioc_count, r.inum_cache.optimizer_calls);
            cells![r.name, r.tables, iocs, calls, ic, pc, cs, ia, pa, acs]
        }),
    );
    let geo = |v: Vec<f64>| (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp();
    println!(
        "geometric-mean speedup: cache {:.1}x, access-cost collection {:.1}x",
        geo(speedups.iter().map(|s| s.0).collect()),
        geo(speedups.iter().map(|s| s.1).collect())
    );
    println!("paper: cache ≥10x (up to 100x for >3-way joins), access-cost collection ≈5x\n");
}

fn index_selection([optimized, paper]: &[e::index_selection::SelectionRun; 2]) {
    let budget = AdvisorOptions::default().budget_bytes as f64 / GIB;
    println!(
        "E5: index selection (paper Fig. 6/7) — budget {budget:.2} GB, \
         optimized vs paper defaults\n"
    );
    println!(
        "candidate merging dropped {} prefix-subsumed candidates (optimized defaults)",
        optimized.advice.candidates_merged
    );
    let per_query = optimized
        .advice
        .per_query
        .iter()
        .zip(&paper.advice.per_query);
    table(
        "query|original cost|with indexes (optimized)|improvement (optimized)|\
         with indexes (paper)|improvement (paper)",
        per_query.map(|(o, p)| {
            let [cost, o_cost, p_cost] =
                [o.original_cost, o.final_cost, p.final_cost].map(|c| format!("{c:.0}"));
            let [o_gain, p_gain] = [o, p].map(|x| format!("{:.0}%", x.improvement() * 100.0));
            cells![o.name, cost, o_cost, o_gain, p_cost, p_gain]
        }),
    );

    for r in [optimized, paper] {
        let a = &r.advice;
        let estimated: f64 = a.per_query.iter().map(|o| o.final_cost).sum();
        let direct: f64 = r.direct_costs.iter().sum();
        println!(
            "{} defaults: suggested {} indexes, {:.2} GB of {budget:.2} GB budget, \
             {} cost-model evaluations\n\
             cost model built with {} optimizer calls in {}\n\
             advice audit: re-optimized under the picks the workload costs {direct:.0} \
             (cache estimate {estimated:.0})\n\
             suggested indexes:",
            r.defaults,
            a.greedy.picked.len(),
            a.greedy.total_bytes as f64 / GIB,
            a.greedy.evaluations,
            a.model_build_calls,
            time(a.model_build_time)
        );
        for ix in a.selected_indexes() {
            let mb = ix.size().total_bytes() as f64 / (1024.0 * 1024.0);
            let columns = ix.key_columns().len();
            println!("  {} ({columns} key columns, {mb:.1} MB)", ix.name());
        }
        println!(
            "\naverage improvement: {:.0}% (paper: 95% average, via covering indexes on the fact table)\n",
            a.average_improvement() * 100.0
        );
    }
}

fn pruning(rows: &[e::pruning::PruningRow]) {
    println!("A1: §V-D subset-cost pruning ablation\n");
    table(
        "query|pruned time|unpruned time|pruned arena nodes|unpruned arena nodes|\
         pruned final paths|unpruned final paths|exported (pruned)|exported (unpruned)",
        rows.iter().map(|r| {
            let modes = [&r.pruned, &r.unpruned];
            let mut row = vec![r.name.clone()];
            row.extend(modes.map(|m| time(m.stats.elapsed)));
            row.extend(modes.map(|m| m.stats.arena_size.to_string()));
            row.extend(modes.map(|m| m.stats.final_paths.to_string()));
            row.extend(modes.map(|m| m.exported.to_string()));
            row
        }),
    );
    let same = rows
        .iter()
        .all(|r| r.pruned.winner_cost == r.unpruned.winner_cost);
    println!(
        "({} winning plans in both modes — the pruning only removes unhelpful IOC plans)\n",
        if same { "identical" } else { "DIFFERENT" }
    );
}

fn nlj(rows: &[e::nlj::NljRow]) {
    println!(
        "A2: nested-loop plan caching ablation — {} random configurations per query\n",
        e::nlj::CONFIGS
    );
    table(
        "query|NLJ plans cached|err with NLJ|err without NLJ",
        rows.iter().map(|r| {
            let (with, without) = (percent(r.error_with_nlj), percent(r.error_without_nlj));
            cells![r.name, r.nlj_plans, with, without]
        }),
    );
    println!("(the paper's star schema favours nested loops; dropping the NLJ plans degrades accuracy)\n");
}

fn greedy_quality(rows: &[e::greedy_quality::GreedyQualityRow]) {
    println!("A3: greedy vs exhaustive selection quality (small instances)\n");
    table(
        "queries|candidates|budget MB|greedy cost|optimal cost|gap",
        rows.iter().map(|r| {
            let [greedy, optimal] = [r.greedy_cost, r.optimal_cost].map(|c| format!("{c:.0}"));
            let gap = format!("{:.1}%", (r.greedy_cost / r.optimal_cost - 1.0) * 100.0);
            cells![r.queries, r.candidates, r.budget_mb, greedy, optimal, gap]
        }),
    );
    println!(
        "(the greedy gap stays small; the paper's quality comes from the large candidate set)\n"
    );
}

fn engine_validation(rows: &[e::engine_validation::ValidationRow]) {
    use e::engine_validation::ENGINE_SCALE;
    println!("V1: engine validation at scale {ENGINE_SCALE}\n");
    table(
        "query|est rows|actual rows|ratio|plans agree",
        rows.iter().map(|r| {
            let estimated = format!("{:.0}", r.estimated_rows);
            let ratio = format!("{:.2}", r.estimated_rows / r.actual_rows.max(1) as f64);
            let agree = if r.plans_agree { "yes" } else { "NO" };
            cells![r.name, estimated, r.actual_rows, ratio, agree]
        }),
    );
    println!("(identical results under different configurations; estimates track uniform-data actuals)\n");
}
