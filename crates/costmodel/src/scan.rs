//! Scan costs: sequential scan, (plain and index-only) B-tree index scan.

use crate::{clamp_row_est, log2_ceil, Cost, CostParams};

/// Cost of a full sequential scan over `pages` heap pages producing
/// `rows` tuples and evaluating `qual_ops` operator calls per tuple
/// (PostgreSQL `cost_seqscan`).
pub fn cost_seqscan(p: &CostParams, pages: u64, rows: f64, qual_ops: u32) -> Cost {
    let io = pages as f64 * p.seq_page_cost;
    let cpu = rows * (p.cpu_tuple_cost + qual_ops as f64 * p.cpu_operator_cost);
    Cost::run_only(io + cpu)
}

/// Inputs of [`cost_index_scan`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IndexScanInput {
    /// Leaf pages of the index.
    pub index_leaf_pages: u64,
    /// Tree height (descents); what-if and materialized twins share it.
    pub index_height: u32,
    /// Index tuples (= table rows).
    pub index_rows: f64,
    /// Heap pages of the underlying table.
    pub heap_pages: u64,
    /// Heap rows of the underlying table.
    pub heap_rows: f64,
    /// Fraction of the index actually scanned (selectivity of the *index
    /// conditions*, i.e. predicates on a key prefix).
    pub index_selectivity: f64,
    /// Leading-key correlation with heap order, in `[-1, 1]`.
    pub correlation: f64,
    /// Operator calls per visited tuple for non-index filter quals.
    pub filter_ops: u32,
    /// If true, the index covers every referenced column and the heap is
    /// never visited (index-only scan).
    pub index_only: bool,
    /// Number of outer repetitions when used as a parameterized inner of a
    /// nested loop (`loop_count` in PostgreSQL); amortizes cache effects.
    pub loop_count: f64,
}

impl Default for IndexScanInput {
    fn default() -> Self {
        Self {
            index_leaf_pages: 1,
            index_height: 0,
            index_rows: 1.0,
            heap_pages: 1,
            heap_rows: 1.0,
            index_selectivity: 1.0,
            correlation: 0.0,
            filter_ops: 0,
            index_only: false,
            loop_count: 1.0,
        }
    }
}

/// Mackert–Lohman page-fetch estimate, PostgreSQL's `index_pages_fetched`.
///
/// Estimates how many distinct heap pages `tuples` random probes touch in a
/// table of `pages` pages given an `effective_cache` of pages.
pub fn index_pages_fetched(tuples: f64, pages: u64, effective_cache: f64) -> f64 {
    let t = (pages.max(1)) as f64;
    let n = tuples.max(0.0);
    if n <= 0.0 {
        return 0.0;
    }
    let b = effective_cache.max(1.0);
    let pages_fetched = if t <= b {
        let pf = (2.0 * t * n) / (2.0 * t + n);
        pf.min(t)
    } else {
        let lim = (2.0 * t * b) / (2.0 * t - b);
        if n <= lim {
            (2.0 * t * n) / (2.0 * t + n)
        } else {
            b + (n - lim) * (t - b) / t
        }
    };
    pages_fetched.ceil()
}

/// B-tree index scan cost (PostgreSQL `cost_index` + `btcostestimate`).
///
/// Returns the *per-execution* cost when `loop_count > 1` (the caller
/// multiplies by the loop count), matching PostgreSQL's convention for
/// parameterized inner paths.
pub fn cost_index_scan(p: &CostParams, input: &IndexScanInput) -> Cost {
    let (startup, total) = index_scan_terms(p, input);
    Cost::new(startup, total)
}

/// [`cost_index_scan`]'s total, bit for bit, without [`Cost`]'s
/// finiteness check: re-priced at a cached plan's loop count, finite
/// inputs in their domain can overflow the loop branch to `+∞`, which the
/// plan-cache pricers read as an inapplicable probe.
pub fn index_probe_total(p: &CostParams, input: &IndexScanInput) -> f64 {
    index_scan_terms(p, input).1
}

/// The `(startup, total)` pair of [`cost_index_scan`].
fn index_scan_terms(p: &CostParams, input: &IndexScanInput) -> (f64, f64) {
    let sel = input.index_selectivity.clamp(0.0, 1.0);
    let index_tuples = clamp_row_est(sel * input.index_rows);
    let tuples_fetched = clamp_row_est(sel * input.heap_rows);
    let index_pages = ((sel * input.index_leaf_pages as f64).ceil()).max(1.0);

    // Descent: one comparison per level plus the traditional 50x fudge per
    // page descended (PostgreSQL 9.x btcostestimate).
    let descent = log2_ceil(input.index_rows) * p.cpu_operator_cost
        + (input.index_height as f64 + 1.0) * 50.0 * p.cpu_operator_cost;

    // Index page I/O: leaf pages are walked via sibling pointers; PostgreSQL
    // charges them at random_page_cost, amortized across loops.
    let index_io = if input.loop_count > 1.0 {
        let pages = index_pages_fetched(
            index_pages * input.loop_count,
            input.index_leaf_pages,
            p.effective_cache_pages,
        );
        pages * p.random_page_cost / input.loop_count
    } else {
        index_pages * p.random_page_cost
    };

    let cpu_index = index_tuples * p.cpu_index_tuple_cost;

    // Heap I/O.
    let heap_io = if input.index_only {
        0.0
    } else if input.loop_count > 1.0 {
        // Repeated executions share cache; use Mackert-Lohman over all loops
        // then amortize (PostgreSQL's exact approach).
        let pages = index_pages_fetched(
            tuples_fetched * input.loop_count,
            input.heap_pages,
            p.effective_cache_pages,
        );
        pages * p.random_page_cost / input.loop_count
    } else {
        let max_pages =
            index_pages_fetched(tuples_fetched, input.heap_pages, p.effective_cache_pages);
        let max_io = max_pages * p.random_page_cost;
        // Perfectly correlated: the needed fraction of the heap, read almost
        // sequentially (first page random, rest sequential).
        let min_pages = (sel * input.heap_pages as f64).ceil().max(1.0);
        let min_io = p.random_page_cost + (min_pages - 1.0) * p.seq_page_cost;
        let c2 = input.correlation * input.correlation;
        // Correlation can only make the scan cheaper; if the sequential
        // estimate exceeds the Mackert-Lohman bound, keep the bound.
        max_io + c2 * (min_io - max_io).min(0.0)
    };

    let cpu_heap =
        tuples_fetched * (p.cpu_tuple_cost + input.filter_ops as f64 * p.cpu_operator_cost);

    (descent, descent + index_io + cpu_index + heap_io + cpu_heap)
}

/// Bitmap heap scan cost (PostgreSQL `cost_bitmap_heap_scan` +
/// `cost_bitmap_tree_node`): scan the index to build a TID bitmap, then
/// fetch the qualifying heap pages in physical order. Order-destroying but
/// far cheaper than a plain index scan at medium selectivities, because
/// each heap page is visited once and quasi-sequentially.
pub fn cost_bitmap_heap_scan(p: &CostParams, input: &IndexScanInput) -> Cost {
    let sel = input.index_selectivity.clamp(0.0, 1.0);
    let index_tuples = clamp_row_est(sel * input.index_rows);
    let tuples_fetched = clamp_row_est(sel * input.heap_rows);
    let index_pages = ((sel * input.index_leaf_pages as f64).ceil()).max(1.0);
    let t = input.heap_pages.max(1) as f64;

    // Build the bitmap: walk the index portion.
    let descent = log2_ceil(input.index_rows) * p.cpu_operator_cost
        + (input.index_height as f64 + 1.0) * 50.0 * p.cpu_operator_cost;
    let index_io = index_pages * p.random_page_cost;
    let cpu_index = index_tuples * p.cpu_index_tuple_cost;
    let build = descent + index_io + cpu_index;

    // Heap fetch: pages in physical order; the per-page cost interpolates
    // from random toward sequential as the visited fraction grows.
    let pages_fetched =
        index_pages_fetched(tuples_fetched, input.heap_pages, p.effective_cache_pages)
            .min(t)
            .max(1.0);
    let cost_per_page = if pages_fetched >= 2.0 {
        p.random_page_cost - (p.random_page_cost - p.seq_page_cost) * (pages_fetched / t).sqrt()
    } else {
        p.random_page_cost
    };
    let heap_io = pages_fetched * cost_per_page;
    // Every fetched tuple is rechecked against the quals.
    let cpu_heap =
        tuples_fetched * (p.cpu_tuple_cost + (input.filter_ops as f64 + 1.0) * p.cpu_operator_cost);

    // The whole bitmap must exist before the first heap page is read.
    Cost::new(build, build + heap_io + cpu_heap)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p() -> CostParams {
        CostParams::default()
    }

    #[test]
    fn seqscan_linear_in_pages_and_rows() {
        let a = cost_seqscan(&p(), 100, 1000.0, 1);
        let b = cost_seqscan(&p(), 200, 2000.0, 1);
        assert!((b.total - 2.0 * a.total).abs() < 1e-9);
        assert_eq!(a.startup, 0.0);
    }

    #[test]
    fn mackert_lohman_caps_at_table_size() {
        // Huge number of probes cannot touch more pages than exist (within
        // cache).
        let pf = index_pages_fetched(1e9, 1000, 524_288.0);
        assert_eq!(pf, 1000.0);
        // Few probes touch about that many pages.
        let pf = index_pages_fetched(3.0, 100_000, 524_288.0);
        assert!((1.0..=3.0).contains(&pf));
        assert_eq!(index_pages_fetched(0.0, 1000, 1e6), 0.0);
    }

    #[test]
    fn correlated_scan_is_cheaper() {
        let base = IndexScanInput {
            index_leaf_pages: 5_000,
            index_height: 2,
            index_rows: 1_000_000.0,
            heap_pages: 50_000,
            heap_rows: 1_000_000.0,
            index_selectivity: 0.05,
            correlation: 0.0,
            ..Default::default()
        };
        let uncorr = cost_index_scan(&p(), &base);
        let corr = cost_index_scan(
            &p(),
            &IndexScanInput {
                correlation: 1.0,
                ..base
            },
        );
        assert!(corr.total < uncorr.total);
    }

    #[test]
    fn index_only_scan_is_cheaper_than_heap_fetching() {
        let base = IndexScanInput {
            index_leaf_pages: 5_000,
            index_height: 2,
            index_rows: 1_000_000.0,
            heap_pages: 50_000,
            heap_rows: 1_000_000.0,
            index_selectivity: 0.10,
            ..Default::default()
        };
        let plain = cost_index_scan(&p(), &base);
        let only = cost_index_scan(
            &p(),
            &IndexScanInput {
                index_only: true,
                ..base
            },
        );
        assert!(only.total < plain.total);
    }

    #[test]
    fn selective_scan_beats_seqscan_unselective_does_not() {
        let heap_pages = 50_000;
        let rows = 1_000_000.0;
        let seq = cost_seqscan(&p(), heap_pages, rows, 1);
        let narrow = cost_index_scan(
            &p(),
            &IndexScanInput {
                index_leaf_pages: 5_000,
                index_height: 2,
                index_rows: rows,
                heap_pages,
                heap_rows: rows,
                index_selectivity: 0.0001,
                ..Default::default()
            },
        );
        let wide = cost_index_scan(
            &p(),
            &IndexScanInput {
                index_leaf_pages: 5_000,
                index_height: 2,
                index_rows: rows,
                heap_pages,
                heap_rows: rows,
                index_selectivity: 0.9,
                ..Default::default()
            },
        );
        assert!(narrow.total < seq.total, "selective index scan should win");
        assert!(wide.total > seq.total, "unselective index scan should lose");
    }

    #[test]
    fn loop_count_amortizes_io() {
        let base = IndexScanInput {
            index_leaf_pages: 5_000,
            index_height: 2,
            index_rows: 1_000_000.0,
            heap_pages: 50_000,
            heap_rows: 1_000_000.0,
            index_selectivity: 0.001,
            ..Default::default()
        };
        let single = cost_index_scan(&p(), &base);
        let looped = cost_index_scan(
            &p(),
            &IndexScanInput {
                loop_count: 1000.0,
                ..base
            },
        );
        assert!(looped.total <= single.total);
    }
}

#[cfg(test)]
mod bitmap_tests {
    use super::*;

    fn p() -> CostParams {
        CostParams::default()
    }

    /// The paper's workload shape: 1 % selectivity on a large table.
    fn one_percent() -> IndexScanInput {
        IndexScanInput {
            index_leaf_pages: 2_500,
            index_height: 2,
            index_rows: 1_000_000.0,
            heap_pages: 6_400,
            heap_rows: 1_000_000.0,
            index_selectivity: 0.01,
            ..Default::default()
        }
    }

    #[test]
    fn bitmap_beats_plain_index_scan_at_medium_selectivity() {
        let input = one_percent();
        let plain = cost_index_scan(&p(), &input);
        let bitmap = cost_bitmap_heap_scan(&p(), &input);
        assert!(
            bitmap.total < plain.total,
            "bitmap {bitmap:?} should beat plain {plain:?} at 1 %"
        );
    }

    #[test]
    fn bitmap_beats_seqscan_at_one_percent() {
        let input = one_percent();
        let seq = cost_seqscan(&p(), input.heap_pages, input.heap_rows, 1);
        let bitmap = cost_bitmap_heap_scan(&p(), &input);
        assert!(
            bitmap.total < seq.total,
            "bitmap {bitmap:?} should beat seqscan {seq:?}"
        );
    }

    #[test]
    fn bitmap_blocks_until_built() {
        let b = cost_bitmap_heap_scan(&p(), &one_percent());
        assert!(b.startup > 0.0);
        assert!(b.total > b.startup);
    }

    #[test]
    fn bitmap_degrades_gracefully_to_full_scan() {
        let mut input = one_percent();
        input.index_selectivity = 1.0;
        let full = cost_bitmap_heap_scan(&p(), &input);
        let seq = cost_seqscan(&p(), input.heap_pages, input.heap_rows, 1);
        // A full-table bitmap scan should not be wildly cheaper than the
        // sequential scan (it reads every page plus the whole index).
        assert!(full.total > seq.total * 0.8);
    }
}
