//! The access-path collector (paper Fig. 2): sequential and index access
//! paths per base relation, with the PINUM *keep-all* hook (§V-C).
//!
//! Standard behaviour: "If two indexes cover the same interesting order,
//! then this component filters out the access path with the higher cost."
//! PINUM hook: "We modify the module to keep all index access paths,
//! instead of the least expensive one. This allows PINUM to determine the
//! access costs of a large set of indexes by calling the optimizer just
//! once."

use crate::path::{KeysId, Path, PathArena, PathKind};
use crate::preprocess::{EcId, PlannerInfo};
use crate::relset::RelSet;
use pinum_catalog::{Catalog, Configuration, Index, Table, TableId};
use pinum_cost::scan::{cost_bitmap_heap_scan, cost_index_scan, cost_seqscan, IndexScanInput};
use pinum_cost::{Cost, CostParams};

use pinum_query::{FilterOp, Ioc, RelIdx, RelTemplate};

pub use crate::path::IndexRef;

/// Where an access cost comes from.
#[derive(Debug, Clone, PartialEq)]
pub enum AccessSource {
    SeqScan,
    Index(IndexRef),
}

/// One access-cost observation, reported by the keep-all hook. This is the
/// payload PINUM piggy-backs on a single optimizer call so the designer can
/// price every candidate index without further calls.
#[derive(Debug, Clone)]
pub struct AccessCostEntry {
    pub rel: RelIdx,
    pub source: AccessSource,
    /// The interesting order this access path covers (`None` = Φ): the
    /// index's leading column when that column is an interesting order.
    pub order: Option<u16>,
    pub cost: Cost,
    pub index_only: bool,
    /// Output rows of the access path (after all filters).
    pub rows: f64,
    /// Pricing inputs for using this index as a parameterized nested-loop
    /// inner (equality probe on the leading key). The consumer re-prices
    /// with `cost_index_scan` at the cached plan's actual loop count, since
    /// Mackert–Lohman amortization depends on it. `None` for unordered
    /// sources.
    pub probe_spec: Option<IndexScanInput>,
}

/// All candidate access paths of one relation, before list pruning.
pub struct RelAccessPaths {
    pub paths: Vec<Path>,
    pub entries: Vec<AccessCostEntry>,
    /// The relation's template arms priced against a pricing request's
    /// indexes (empty without a request).
    pub arms: Vec<TemplateArm>,
}

/// Result of matching an index's key prefix against a relation's filters.
struct IndexMatch {
    /// Selectivity of the matched prefix conditions.
    index_selectivity: f64,
    /// Number of filters *not* handled as index conditions.
    residual_filter_ops: u32,
}

/// Matches an index's key prefix against a relation's filter shape. This
/// is the single arithmetic path both per-query collection and the
/// template batch hook price through — sharing it is what makes batched
/// collection bit-identical to the per-query reference.
fn match_template_conditions(
    catalog: &Catalog,
    table: TableId,
    filters: &[(u16, FilterOp)],
    index: &Index,
) -> IndexMatch {
    let mut sel = 1.0;
    let mut matched = 0u32;
    'prefix: for &key_col in index.key_columns() {
        let mut advanced = false;
        for &(column, op) in filters {
            if column != key_col {
                continue;
            }
            let s = pinum_query::selectivity::column_filter_selectivity(catalog, table, column, op);
            sel *= s;
            matched += 1;
            match op {
                // Equality pins the column; the scan can keep matching the
                // next key column.
                FilterOp::Eq { .. } => advanced = true,
                // A range bound consumes the prefix; matching stops here.
                FilterOp::Range { .. } => break 'prefix,
            }
        }
        if !advanced {
            break;
        }
    }
    let total = filters.len() as u32;
    IndexMatch {
        index_selectivity: sel,
        residual_filter_ops: total - matched.min(total),
    }
}

/// Pricing inputs of a standalone scan through `index` (loop count 1).
/// Shared by the per-query collector and the template batch hook.
fn standalone_input(
    table: &Table,
    index: &Index,
    m: &IndexMatch,
    index_only: bool,
) -> IndexScanInput {
    IndexScanInput {
        // PostgreSQL prices scans against the index's full relpages;
        // hypothetical indexes report zero internal pages (§V-A), which
        // is the what-if accuracy gap of §VI-B.
        index_leaf_pages: index.size().leaf_pages + index.size().internal_pages,
        index_height: index.size().height,
        index_rows: index.rows() as f64,
        heap_pages: table.heap_pages(),
        heap_rows: table.rows() as f64,
        index_selectivity: m.index_selectivity,
        correlation: index.correlation(),
        filter_ops: m.residual_filter_ops,
        index_only,
        loop_count: 1.0,
    }
}

/// Pricing inputs of an equality probe on `index`'s leading key
/// (`loop_count` stays 1; consumers re-price at the plan's actual loop
/// count). Shared by both collection paths.
fn probe_input(table: &Table, index: &Index, filter_ops: u32, index_only: bool) -> IndexScanInput {
    let leading = index.leading_column();
    let ndv = table.column(leading).stats().n_distinct.max(1.0);
    IndexScanInput {
        index_leaf_pages: index.size().leaf_pages + index.size().internal_pages,
        index_height: index.size().height,
        index_rows: index.rows() as f64,
        heap_pages: table.heap_pages(),
        heap_rows: table.rows() as f64,
        index_selectivity: 1.0 / ndv,
        correlation: index.correlation(),
        filter_ops,
        index_only,
        loop_count: 1.0,
    }
}

/// Builds the pathkeys an index scan provides: equivalence classes of its
/// key columns, as long as they are ordering-relevant.
fn index_pathkeys(
    info: &PlannerInfo<'_>,
    arena: &mut PathArena,
    rel: RelIdx,
    index: &Index,
) -> KeysId {
    let keys: Vec<EcId> = (index.key_columns().iter())
        .map_while(|&col| info.ec(rel, col))
        .collect();
    arena.intern(&keys)
}

/// The leaf-IOC contribution of scanning `rel` through `index`: the leading
/// column's order slot when it is an interesting order (definition 4:
/// an index covers an interesting order iff the order is its first column).
fn index_leaf_ioc(info: &PlannerInfo<'_>, rel: RelIdx, index: &Index) -> Ioc {
    let leading = index.leading_column();
    match info
        .orders
        .orders_of(rel)
        .iter()
        .position(|&c| c == leading)
    {
        Some(k) => Ioc::NONE.with_order(rel, k as u8),
        None => Ioc::NONE,
    }
}

/// Pricing inputs for an equality probe on `index`'s leading key
/// (`loop_count` is left at 1; consumers set the actual loop count before
/// calling `cost_index_scan`).
fn probe_spec(info: &PlannerInfo<'_>, rel: RelIdx, index: &Index) -> IndexScanInput {
    let base = &info.base[rel as usize];
    let table = info.catalog.table(base.table);
    let index_only = index.covers_columns(&base.referenced_columns);
    probe_input(table, index, base.filter_ops, index_only)
}

/// Generates every access path of `rel`.
///
/// `keep_all` triggers the PINUM hook: every index contributes an
/// [`AccessCostEntry`] even when its path is obviously dominated. The
/// paths are candidates — not yet nodes of `arena`, which only interns
/// their orderings.
///
/// `request` is a pricing request's index set: the relation's
/// [`TemplateArm`]s are priced against it from the same filter shape, as
/// [`collect_template_arms`] prices them. Its indexes are priced only —
/// they add no path and no entry.
pub fn collect_access_paths(
    info: &PlannerInfo<'_>,
    params: &CostParams,
    arena: &mut PathArena,
    rel: RelIdx,
    keep_all: bool,
    request: Option<&Configuration>,
) -> RelAccessPaths {
    let base = &info.base[rel as usize];
    let table = info.catalog.table(base.table);
    // The relation's filter shape, materialized once: index-condition
    // matching runs through the same template arithmetic as the batched
    // collector (`collect_template_arms`), so both stay bit-identical.
    let filters: Vec<(u16, FilterOp)> = info
        .query
        .filters_on(rel)
        .map(|f| (f.column, f.op))
        .collect();
    let mut paths = Vec::new();
    let mut entries = Vec::new();

    // --- Sequential scan: always available, provides Φ. ---
    let seq_cost = cost_seqscan(params, table.heap_pages(), base.raw_rows, base.filter_ops);
    paths.push(Path {
        kind: PathKind::SeqScan { rel },
        rels: RelSet::single(rel),
        rows: base.rows,
        cost: seq_cost,
        rescan: seq_cost,
        pathkeys: KeysId::NONE,
        leaf_ioc: Ioc::NONE,
        c0: 0.0,
    });
    entries.push(AccessCostEntry {
        rel,
        source: AccessSource::SeqScan,
        order: None,
        cost: seq_cost,
        index_only: false,
        rows: base.rows,
        probe_spec: None,
    });

    // --- Index scans: catalog indexes then configuration indexes. ---
    let catalog_ixs = info
        .catalog
        .table_indexes(base.table)
        .iter()
        .map(|id| (IndexRef::Catalog(*id), info.catalog.index(*id)));
    let config_ixs = info
        .config
        .indexes()
        .iter()
        .enumerate()
        .filter(|(_, ix)| ix.table() == base.table)
        .map(|(i, ix)| (IndexRef::Config(i), ix));

    for (ixref, index) in catalog_ixs.chain(config_ixs) {
        let m = match_template_conditions(info.catalog, base.table, &filters, index);
        let index_only = index.covers_columns(&base.referenced_columns);
        let input = standalone_input(table, index, &m, index_only);
        let cost = cost_index_scan(params, &input);
        let leaf_ioc = index_leaf_ioc(info, rel, index);
        let order = info.orders.column_of(leaf_ioc, rel);
        let probe = order.map(|_| probe_spec(info, rel, index));
        entries.push(AccessCostEntry {
            rel,
            source: AccessSource::Index(ixref),
            order,
            cost,
            index_only,
            rows: base.rows,
            probe_spec: probe,
        });
        paths.push(Path {
            kind: PathKind::IndexScan {
                rel,
                index: ixref,
                index_only,
                param: None,
            },
            rels: RelSet::single(rel),
            rows: base.rows,
            cost,
            rescan: cost,
            pathkeys: index_pathkeys(info, arena, rel, index),
            leaf_ioc,
            c0: 0.0,
        });

        // Bitmap heap scan: only worthwhile when index conditions narrow
        // the scan and the heap must be visited anyway.
        if m.index_selectivity < 1.0 && !index_only {
            let bcost = cost_bitmap_heap_scan(params, &input);
            entries.push(AccessCostEntry {
                rel,
                source: AccessSource::Index(ixref),
                order: None, // bitmap output is unordered
                cost: bcost,
                index_only: false,
                rows: base.rows,
                probe_spec: None,
            });
            paths.push(Path {
                kind: PathKind::BitmapScan { rel, index: ixref },
                rels: RelSet::single(rel),
                rows: base.rows,
                cost: bcost,
                rescan: bcost,
                pathkeys: KeysId::NONE,
                leaf_ioc: Ioc::NONE,
                c0: 0.0,
            });
        }
    }

    if !keep_all {
        entries.clear();
    }
    let arms = request.map_or_else(Vec::new, |config| {
        template_arms(info.catalog, params, base.table, &filters, seq_cost, config)
    });
    RelAccessPaths {
        paths,
        entries,
        arms,
    }
}

/// One access arm of a relation *template*, priced in **both** covering
/// variants — the payload of the workload-level batch hook
/// ([`collect_template_arms`] / `Optimizer::price_template`).
///
/// Whether an index runs index-only depends on the member query's
/// referenced columns, which are *not* part of the template; pricing both
/// variants up front lets one template call serve every member, whichever
/// side of the covering test its projection lands on. All other pricing
/// inputs (selectivities, residual quals, page counts) are functions of
/// the template alone.
#[derive(Debug, Clone, PartialEq)]
pub struct TemplateArm {
    /// Sequential scan, catalog index, or configuration index (positions
    /// refer to the configuration handed to the template call).
    pub source: AccessSource,
    /// The index's leading key column (`None` for the sequential scan) —
    /// member queries map it onto their own interesting orders.
    pub leading: Option<u16>,
    /// Standalone scan cost when the heap must be visited.
    pub cost_heap: Cost,
    /// Standalone scan cost when the index covers every referenced column
    /// of the member (index-only). Equals `cost_heap` for the seq arm.
    pub cost_cover: Cost,
    /// Bitmap heap scan cost, present when the index conditions narrow the
    /// scan (`index_selectivity < 1`). Applies only to members that visit
    /// the heap — an index-only member never takes the bitmap arm.
    pub bitmap: Option<Cost>,
    /// Probe pricing inputs per covering variant (equality lookup on the
    /// leading key, `loop_count` 1; `None` for the seq arm). Members
    /// re-price at their plans' actual loop counts.
    pub probe_heap: Option<IndexScanInput>,
    /// See [`Self::probe_heap`]; the index-only variant.
    pub probe_cover: Option<IndexScanInput>,
}

/// Workload-level §V-C batch hook: prices every access arm of one
/// relation template against `config` in a single call.
///
/// Where [`collect_access_paths`] (keep-all mode) reports each arm under
/// one query's covering/ordering interpretation, this hook reports the
/// *uninterpreted* arms — both covering variants, keyed by leading column
/// — so a workload collector can fan them out to every query sharing the
/// template. Arm order matches the per-query collector exactly
/// (sequential scan, then catalog indexes, then configuration indexes),
/// and all arithmetic runs through the same shared helpers, so a member's
/// reconstructed catalog is bit-identical to a dedicated per-query call.
pub fn collect_template_arms(
    catalog: &Catalog,
    params: &CostParams,
    template: &RelTemplate,
    config: &Configuration,
) -> Vec<TemplateArm> {
    let table = catalog.table(template.table);
    let seq_cost = cost_seqscan(
        params,
        table.heap_pages(),
        table.rows() as f64,
        template.filter_count(),
    );
    template_arms(
        catalog,
        params,
        template.table,
        &template.filters,
        seq_cost,
        config,
    )
}

/// The arms of the template `(table_id, filters)` against `config`, given
/// its sequential-scan cost: the one body behind [`collect_template_arms`]
/// and the pricing requests [`collect_access_paths`] answers.
fn template_arms(
    catalog: &Catalog,
    params: &CostParams,
    table_id: TableId,
    filters: &[(u16, FilterOp)],
    seq_cost: Cost,
    config: &Configuration,
) -> Vec<TemplateArm> {
    let table = catalog.table(table_id);
    let filter_ops = filters.len() as u32;

    // --- Sequential scan: covering-agnostic. ---
    let mut arms = vec![TemplateArm {
        source: AccessSource::SeqScan,
        leading: None,
        cost_heap: seq_cost,
        cost_cover: seq_cost,
        bitmap: None,
        probe_heap: None,
        probe_cover: None,
    }];

    // --- Index arms: catalog indexes then configuration indexes, the
    // per-query collector's order. ---
    let catalog_ixs = catalog
        .table_indexes(table_id)
        .iter()
        .map(|id| (IndexRef::Catalog(*id), catalog.index(*id)));
    let config_ixs = config
        .indexes()
        .iter()
        .enumerate()
        .filter(|(_, ix)| ix.table() == table_id)
        .map(|(i, ix)| (IndexRef::Config(i), ix));
    for (ixref, index) in catalog_ixs.chain(config_ixs) {
        let m = match_template_conditions(catalog, table_id, filters, index);
        let heap_input = standalone_input(table, index, &m, false);
        let cover_input = IndexScanInput {
            index_only: true,
            ..heap_input
        };
        arms.push(TemplateArm {
            source: AccessSource::Index(ixref),
            leading: Some(index.leading_column()),
            cost_heap: cost_index_scan(params, &heap_input),
            cost_cover: cost_index_scan(params, &cover_input),
            bitmap: (m.index_selectivity < 1.0).then(|| cost_bitmap_heap_scan(params, &heap_input)),
            probe_heap: Some(probe_input(table, index, filter_ops, false)),
            probe_cover: Some(probe_input(table, index, filter_ops, true)),
        });
    }
    arms
}

/// Builds a *parameterized* inner index scan for a nested-loop join: the
/// index probes the join key once per outer row. Returns `None` when the
/// index's leading column is not the given join column.
///
/// The path decomposes as one unit of its relation's *probe* slot — this
/// is exactly the access path the INUM cache "misses" (paper §VI-C),
/// producing its NLJ cost error. `loop_count` is the outer side's row
/// count, a property of the outer relation set: the join planner builds one
/// such scan per (outer set, index), not one per outer path.
#[allow(clippy::too_many_arguments)]
pub fn param_index_scan(
    info: &PlannerInfo<'_>,
    params: &CostParams,
    arena: &mut PathArena,
    rel: RelIdx,
    ixref: IndexRef,
    index: &Index,
    join_col: u16,
    ec: EcId,
    per_probe_sel: f64,
    loop_count: f64,
) -> Option<Path> {
    if index.leading_column() != join_col {
        return None;
    }
    let base = &info.base[rel as usize];
    let table = info.catalog.table(base.table);
    let index_only = index.covers_columns(&base.referenced_columns);
    let input = IndexScanInput {
        index_leaf_pages: index.size().leaf_pages + index.size().internal_pages,
        index_height: index.size().height,
        index_rows: index.rows() as f64,
        heap_pages: table.heap_pages(),
        heap_rows: base.raw_rows,
        index_selectivity: per_probe_sel,
        correlation: index.correlation(),
        filter_ops: base.filter_ops,
        index_only,
        loop_count: loop_count.max(1.0),
    };
    let cost = cost_index_scan(params, &input);
    let rows_per_probe = (base.rows * per_probe_sel).max(1.0);
    // Decomposed as one probe-slot unit: the cache re-prices the probe under
    // other configurations at the same loop count, so the build value is
    // simply the charged per-execution cost.
    Some(Path {
        kind: PathKind::IndexScan {
            rel,
            index: ixref,
            index_only,
            param: Some(ec),
        },
        rels: RelSet::single(rel),
        rows: rows_per_probe,
        cost,
        rescan: cost,
        pathkeys: index_pathkeys(info, arena, rel, index),
        leaf_ioc: index_leaf_ioc(info, rel, index),
        c0: 0.0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pinum_catalog::{Catalog, Column, ColumnType, Configuration, ConfigurationBuilder, Table};
    use pinum_query::{Query, QueryBuilder};

    fn setup() -> (Catalog, Query) {
        let mut cat = Catalog::new();
        cat.add_table(Table::new(
            "t",
            1_000_000,
            vec![
                Column::new("a", ColumnType::Int8).with_ndv(1_000_000),
                Column::new("b", ColumnType::Int8).with_ndv(1_000),
                Column::new("c", ColumnType::Int4).with_ndv(100),
            ],
        ));
        cat.add_table(Table::new(
            "s",
            10_000,
            vec![Column::new("k", ColumnType::Int8).with_ndv(10_000)],
        ));
        let q = QueryBuilder::new("q", &cat)
            .table("t")
            .table("s")
            .join(("t", "b"), ("s", "k"))
            .filter_range(("t", "c"), 0.0, 1.0)
            .select(("t", "a"))
            .order_by(("t", "a"))
            .build();
        (cat, q)
    }

    #[test]
    fn seqscan_always_present() {
        let (cat, q) = setup();
        let cfg = Configuration::empty();
        let info = PlannerInfo::new(&cat, &q, &cfg);
        let params = CostParams::default();
        let acc = collect_access_paths(&info, &params, &mut PathArena::new(), 0, false, None);
        assert_eq!(acc.paths.len(), 1);
        assert!(matches!(acc.paths[0].kind, PathKind::SeqScan { .. }));
        assert!(acc.entries.is_empty(), "entries only in keep-all mode");
    }

    #[test]
    fn config_indexes_produce_paths_and_entries() {
        let (cat, q) = setup();
        let t = cat.table_id("t").unwrap();
        let cfg = ConfigurationBuilder::new()
            .whatif_index(&cat, t, vec![1]) // covers join order b
            .whatif_index(&cat, t, vec![2]) // filter column c
            .whatif_index(&cat, t, vec![0]) // order-by column a
            .build();
        let info = PlannerInfo::new(&cat, &q, &cfg);
        let params = CostParams::default();
        let acc = collect_access_paths(&info, &params, &mut PathArena::new(), 0, true, None);
        // seq + 3 index scans + 1 bitmap scan (only the c-index has a
        // matched filter condition).
        assert_eq!(acc.paths.len(), 5);
        assert_eq!(acc.entries.len(), 5);
        // The b-index covers interesting order b (ordinal 1).
        let b_entry = acc
            .entries
            .iter()
            .find(|e| matches!(e.source, AccessSource::Index(IndexRef::Config(0))))
            .unwrap();
        assert_eq!(b_entry.order, Some(1));
        // The c-index covers no interesting order.
        let c_entry = acc
            .entries
            .iter()
            .find(|e| matches!(e.source, AccessSource::Index(IndexRef::Config(1))))
            .unwrap();
        assert_eq!(c_entry.order, None);
        // The a-index covers the ORDER BY interesting order.
        let a_entry = acc
            .entries
            .iter()
            .find(|e| matches!(e.source, AccessSource::Index(IndexRef::Config(2))))
            .unwrap();
        assert_eq!(a_entry.order, Some(0));
    }

    #[test]
    fn filter_index_enables_cheap_bitmap_access() {
        let (cat, q) = setup();
        let t = cat.table_id("t").unwrap();
        let cfg = ConfigurationBuilder::new()
            .whatif_index(&cat, t, vec![2])
            .build();
        let info = PlannerInfo::new(&cat, &q, &cfg);
        let params = CostParams::default();
        let acc = collect_access_paths(&info, &params, &mut PathArena::new(), 0, false, None);
        let seq = &acc.paths[0];
        let bitmap = acc
            .paths
            .iter()
            .find(|p| matches!(p.kind, PathKind::BitmapScan { .. }))
            .expect("1% filter index should generate a bitmap path");
        // At 1 % selectivity on a large uncorrelated table, the realistic
        // winner is the bitmap heap scan (a plain index scan pays one
        // random page per row and loses to the seqscan — PostgreSQL
        // behaves the same way).
        assert!(
            bitmap.cost.total < seq.cost.total,
            "bitmap scan {:?} must beat seqscan {:?}",
            bitmap.cost,
            seq.cost
        );
        assert_eq!(bitmap.pathkeys, KeysId::NONE, "bitmap output is unordered");
        assert_eq!(bitmap.leaf_ioc, Ioc::NONE);
    }

    #[test]
    fn param_scan_requires_matching_leading_column() {
        let (cat, q) = setup();
        let s = cat.table_id("s").unwrap();
        let cfg = ConfigurationBuilder::new()
            .whatif_index(&cat, s, vec![0])
            .build();
        let info = PlannerInfo::new(&cat, &q, &cfg);
        let params = CostParams::default();
        let ec = info.ec(1, 0).unwrap();
        let ix = &cfg.indexes()[0];
        let mut arena = PathArena::new();
        let p = param_index_scan(
            &info,
            &params,
            &mut arena,
            1,
            IndexRef::Config(0),
            ix,
            0,
            ec,
            1.0 / 10_000.0,
            1000.0,
        )
        .unwrap();
        // The probe slot is repriceable; the standalone slots are not used.
        let id = arena.add(p);
        let linear = arena.linear(id, 2);
        assert_eq!(linear.coefs, vec![0.0, 0.0]);
        assert!(linear.probe_coefs[1] > 0.0);
        let (access, probes) = arena.leaf_access(id, 2);
        let consistent = linear.eval(&access, &probes);
        assert!((consistent - p.cost.total).abs() < 1e-9);
        assert!(p.rows >= 1.0);
        // Wrong join column → no path.
        assert!(param_index_scan(
            &info,
            &params,
            &mut arena,
            1,
            IndexRef::Config(0),
            ix,
            99,
            ec,
            0.1,
            10.0
        )
        .is_none());
    }

    #[test]
    fn template_arms_reproduce_per_query_entries_bit_identically() {
        let (cat, q) = setup();
        let t = cat.table_id("t").unwrap();
        let cfg = ConfigurationBuilder::new()
            .whatif_index(&cat, t, vec![1]) // join order b
            .whatif_index(&cat, t, vec![2]) // filter column c
            .whatif_index(&cat, t, vec![0, 1, 2]) // covering
            .build();
        let info = PlannerInfo::new(&cat, &q, &cfg);
        let params = CostParams::default();
        let per_query = collect_access_paths(&info, &params, &mut PathArena::new(), 0, true, None);

        let template = RelTemplate::of(&q, 0);
        let arms = collect_template_arms(&cat, &params, &template, &cfg);
        // One seq arm plus one arm per index, in the same order.
        assert!(matches!(arms[0].source, AccessSource::SeqScan));
        assert_eq!(arms.len(), 1 + cfg.len());

        // Fan the arms out under this query's covering/ordering
        // interpretation and compare against the per-query entries.
        let refs = &info.base[0].referenced_columns;
        let orders = info.orders.orders_of(0);
        let mut reconstructed: Vec<AccessCostEntry> = Vec::new();
        for arm in &arms {
            match arm.source {
                AccessSource::SeqScan => reconstructed.push(AccessCostEntry {
                    rel: 0,
                    source: AccessSource::SeqScan,
                    order: None,
                    cost: arm.cost_heap,
                    index_only: false,
                    rows: info.base[0].rows,
                    probe_spec: None,
                }),
                AccessSource::Index(IndexRef::Config(i)) => {
                    let index = &cfg.indexes()[i];
                    let index_only = index.covers_columns(refs);
                    let leading = arm.leading.expect("index arm has a leading column");
                    let order = orders.contains(&leading).then_some(leading);
                    reconstructed.push(AccessCostEntry {
                        rel: 0,
                        source: arm.source.clone(),
                        order,
                        cost: if index_only {
                            arm.cost_cover
                        } else {
                            arm.cost_heap
                        },
                        index_only,
                        rows: info.base[0].rows,
                        probe_spec: order.and(if index_only {
                            arm.probe_cover
                        } else {
                            arm.probe_heap
                        }),
                    });
                    if let Some(bitmap) = arm.bitmap.filter(|_| !index_only) {
                        reconstructed.push(AccessCostEntry {
                            rel: 0,
                            source: arm.source.clone(),
                            order: None,
                            cost: bitmap,
                            index_only: false,
                            rows: info.base[0].rows,
                            probe_spec: None,
                        });
                    }
                }
                AccessSource::Index(IndexRef::Catalog(_)) => unreachable!("no catalog indexes"),
            }
        }
        assert_eq!(reconstructed.len(), per_query.entries.len());
        for (a, b) in reconstructed.iter().zip(&per_query.entries) {
            assert_eq!(a.source, b.source);
            assert_eq!(a.order, b.order, "{:?}", a.source);
            assert_eq!(
                a.cost.total.to_bits(),
                b.cost.total.to_bits(),
                "{:?}",
                a.source
            );
            assert_eq!(a.index_only, b.index_only);
            assert_eq!(a.probe_spec, b.probe_spec, "{:?}", a.source);
        }
    }

    #[test]
    fn leaf_linear_decomposition_matches_cost() {
        let (cat, q) = setup();
        let t = cat.table_id("t").unwrap();
        let cfg = ConfigurationBuilder::new()
            .whatif_index(&cat, t, vec![1])
            .build();
        let info = PlannerInfo::new(&cat, &q, &cfg);
        let params = CostParams::default();
        let mut arena = PathArena::new();
        let acc = collect_access_paths(&info, &params, &mut arena, 0, false, None);
        assert_eq!(acc.paths.len(), 2);
        for p in acc.paths {
            let id = arena.add(p);
            let (access, probes) = arena.leaf_access(id, 2);
            let eval = arena.linear(id, 2).eval(&access, &probes);
            assert!(
                (eval - p.cost.total).abs() < 1e-9,
                "linear decomposition mismatch: {eval} vs {}",
                p.cost.total
            );
        }
    }
}
