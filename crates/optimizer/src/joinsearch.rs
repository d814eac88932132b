//! The join planner (paper Fig. 2): a System-R bottom-up dynamic program.
//!
//! "Given a query joining n relations, the join planner's dynamic program
//! consists of n-1 levels. In the first level, optimal join methods are
//! determined for every two pairs of relations. Every subsequent level adds
//! one more relation to the join of the previous level and finds the optimal
//! plan for the join." We additionally allow bushy shapes, as PostgreSQL's
//! standard join search does.
//!
//! Under [`PruneMode::KeepIoc`] the per-relset path lists retain one optimal
//! plan per *leaf interesting-order combination* (the §V-D pruning rule),
//! which is what lets a single call export the whole INUM cache. That makes
//! the lists long and the candidates many — most of them losers — so the
//! enumeration is *cost-first*: a candidate is a [`Path`] header costed and
//! keyed from copies of its children's headers, and only one a list accepts
//! becomes an arena node (see `addpath`'s precheck/insert contract).
//! Whatever does not depend on the candidate is computed further out:
//!
//! * **per relation set** (`plan_joinrel`): the list under construction and
//!   its §V-D sweep;
//! * **per (outer set, inner set)** (`make_joins`): output rows, the join
//!   edges and their merge keys, the inner width — and, when the inner is
//!   one base relation, its parameterized index scans, priced once at the
//!   outer *set's* row count (every path of a set has the set's rows);
//! * **per inner path**, once per `make_joins` call: its sorted variant per
//!   edge and its nested-loop forms (rescanned as is, or materialized);
//! * **per outer path**: its header copy and its sorted variant per edge;
//! * **per (outer, inner) pair**: the union of the leaf IOCs and the one
//!   index lookup it keys ([`PathList::chain`]) — shared by the pair's hash,
//!   merge and nested-loop candidates, which then cost a few dozen flops
//!   and a comparison each.
//!
//! Sort and materialize wrappers are memoized across calls (the same inner
//! path meets many outer sets); they are arena nodes whether or not a
//! candidate above them survives.

use crate::access::param_index_scan;
use crate::addpath::{AddPathStats, IocChain, PathList, PruneMode};
use crate::path::{nestloop_scale, IndexRef, KeysId, Path, PathArena, PathId, PathKind};
use crate::preprocess::{EcId, PlannerInfo};
use crate::relset::RelSet;
use pinum_cost::join::{cost_hashjoin, cost_mergejoin, cost_nestloop, JoinInput};
use pinum_cost::sort::{cost_material, cost_rescan_material, cost_sort};
use pinum_cost::{Cost, CostParams};
use std::collections::HashMap;

/// Options consumed by the join search.
#[derive(Debug, Clone, Copy)]
pub struct JoinSearchOptions {
    /// PostgreSQL's `enable_nestloop`; PINUM "tweak\[s\] the join planner to
    /// remove nested loop operations if this flag is set" (§V-B).
    pub enable_nestloop: bool,
    pub prune_mode: PruneMode,
    /// Apply the §V-D sweep per completed join relation.
    pub subset_pruning: bool,
}

/// An arena node with a copy of its header: a join input as the candidate
/// loops read it, free of the arena borrow.
type Node = (PathId, Path);

/// The DP state: one [`PathList`] per planned relation set.
pub struct JoinSearch<'a, 'q> {
    info: &'a PlannerInfo<'q>,
    params: &'a CostParams,
    options: JoinSearchOptions,
    /// Indexed by the relation set's bits; `None` = not (yet) planned.
    lists: Vec<Option<PathList>>,
    wrappers: Wrappers,
    pub stats: AddPathStats,
    pub joinrels_planned: usize,
}

impl<'a, 'q> JoinSearch<'a, 'q> {
    pub fn new(
        info: &'a PlannerInfo<'q>,
        params: &'a CostParams,
        options: JoinSearchOptions,
    ) -> Self {
        Self {
            info,
            params,
            options,
            lists: Vec::new(),
            wrappers: Wrappers::default(),
            stats: AddPathStats::default(),
            joinrels_planned: 0,
        }
    }

    /// Runs the DP; `base_lists[r]` holds relation `r`'s access paths.
    /// Returns the path list of the full relation set.
    pub fn run(
        mut self,
        arena: &mut PathArena,
        base_lists: Vec<PathList>,
    ) -> (PathList, AddPathStats, usize) {
        // At most `MAX_RELATIONS` = 16 (`InterestingOrders` enforces it).
        let n = self.info.relation_count();
        let full = RelSet::all(n);
        self.lists.resize_with(full.0 as usize + 1, || None);
        for (r, list) in base_lists.into_iter().enumerate() {
            self.lists[RelSet::single(r as u16).0 as usize] = Some(list);
        }
        for size in 2..=n as u32 {
            // Enumerate masks with the right population count.
            for mask in 1..=full.0 {
                if RelSet(mask).len() == size {
                    self.plan_joinrel(arena, RelSet(mask));
                }
            }
        }
        let list = self.lists[full.0 as usize].take().unwrap_or_default();
        (list, self.stats, self.joinrels_planned)
    }

    fn planned(&self, set: RelSet) -> Option<&PathList> {
        self.lists[set.0 as usize].as_ref()
    }

    fn plan_joinrel(&mut self, arena: &mut PathArena, set: RelSet) {
        let mut list = PathList::new();
        let mut planned = false;
        for left in set.proper_submasks_with_first() {
            let right = RelSet(set.0 & !left.0);
            if self.planned(left).is_none() || self.planned(right).is_none() {
                continue; // a side is disconnected
            }
            if !self.info.connected(left, right) {
                continue; // would be a Cartesian product
            }
            planned = true;
            self.make_joins(arena, &mut list, left, right);
            self.make_joins(arena, &mut list, right, left);
        }
        if planned && !list.is_empty() {
            // §V-D: apply the subset-cost pruning once the relation set is
            // fully planned — "This pruning process reduces the search
            // space of the join planner, while preserving all useful
            // plans."
            if self.options.prune_mode == PruneMode::KeepIoc && self.options.subset_pruning {
                list.subset_cost_sweep(arena, &mut self.stats);
            }
            self.joinrels_planned += 1;
            self.lists[set.0 as usize] = Some(list);
        }
    }

    /// Generates hash, merge and nested-loop paths for `outer ⋈ inner`.
    fn make_joins(
        &mut self,
        arena: &mut PathArena,
        list: &mut PathList,
        outer_set: RelSet,
        inner_set: RelSet,
    ) {
        let (info, params) = (self.info, self.params);
        let nestloop = self.options.enable_nestloop;
        // Per edge: its equivalence class and, interned, the ordering a
        // merge join on it needs.
        let ecs: Vec<(EcId, KeysId)> = (info.edges_between(outer_set, inner_set))
            .map(|e| (e.ec, arena.intern(&[e.ec])))
            .collect();
        let qual_ops = ecs.len() as u32;
        let inner_width = info.joinrel_width(inner_set);
        let lists = &self.lists;
        let ids = |set: RelSet| lists[set.0 as usize].as_ref().expect("planned").ids();
        let (outers, inners) = (ids(outer_set), ids(inner_set));
        let set = outer_set.union(inner_set);
        let rows = info.joinrel_rows(set);
        let mut offers = Offers {
            list,
            arena,
            stats: &mut self.stats,
            mode: self.options.prune_mode,
            set,
            rows,
        };
        let input = |outer: &Path, inner: &Path, qual_ops: u32| JoinInput {
            outer_cost: outer.cost,
            outer_rows: outer.rows,
            inner_cost: inner.cost,
            inner_rows: inner.rows,
            output_rows: rows,
            qual_ops,
        };

        // Once per inner path: its header, its sorted variant per edge (in
        // `inner_sorted`, `ecs.len()` apiece) and its nested-loop forms.
        let mut inner_sides: Vec<InnerSide> = Vec::with_capacity(inners.len());
        let mut inner_sorted: Vec<Node> = Vec::with_capacity(inners.len() * ecs.len());
        for &id in inners {
            let wrappers = &mut self.wrappers;
            inner_sorted.extend(
                (ecs.iter()).map(|&on| wrappers.ensure_sorted(offers.arena, info, params, id, on)),
            );
            let loops = if nestloop {
                wrappers.nestloop_inners(offers.arena, info, params, id)
            } else {
                [None, None]
            };
            inner_sides.push(InnerSide {
                node: (id, *offers.arena.get(id)),
                loops,
            });
        }
        // Once per (outer set, inner relation): parameterized inner index
        // scans (PostgreSQL 8.3 creates these at join time when the inner
        // is a single base relation), probed once per outer row — and the
        // outer rows are the outer *set's*.
        let outer_rows = offers.arena.get(outers[0]).rows;
        let probes = if nestloop && inner_set.len() == 1 {
            param_scans(
                info,
                params,
                offers.arena,
                inner_set.first(),
                outer_set,
                outer_rows,
            )
        } else {
            Vec::new()
        };

        let mut outer_sorted: Vec<Node> = Vec::with_capacity(ecs.len());
        for &outer_id in outers {
            let outer = *offers.arena.get(outer_id);
            assert!(
                outer.rows == outer_rows,
                "paths of {outer_set} disagree on its rows: {} vs {outer_rows}",
                outer.rows
            );
            outer_sorted.clear();
            for &on in &ecs {
                let wrappers = &mut self.wrappers;
                outer_sorted.push(wrappers.ensure_sorted(offers.arena, info, params, outer_id, on));
            }
            for (side, inner_sorted) in inner_sides.iter().zip(inner_sorted.chunks(ecs.len())) {
                let (inner_id, inner) = &side.node;
                // Every candidate of the pair has this leaf IOC: one lookup.
                let ioc = outer.leaf_ioc.union(inner.leaf_ioc);
                let mut chain = offers.list.chain(ioc.expect("disjoint rels"));
                offers.offer(
                    &mut chain,
                    PathKind::HashJoin {
                        outer: outer_id,
                        inner: *inner_id,
                    },
                    cost_hashjoin(params, &input(&outer, inner, qual_ops), inner_width),
                    &outer,
                    inner,
                );
                // Sort either side when it does not already deliver the
                // key order.
                for ((o_id, o), (i_id, i)) in outer_sorted.iter().zip(inner_sorted) {
                    offers.offer(
                        &mut chain,
                        PathKind::MergeJoin {
                            outer: *o_id,
                            inner: *i_id,
                        },
                        cost_mergejoin(params, &input(o, i, qual_ops)),
                        o,
                        i,
                    );
                }
                for (i_id, i) in side.loops.iter().flatten() {
                    offers.offer(
                        &mut chain,
                        PathKind::NestLoop {
                            outer: outer_id,
                            inner: *i_id,
                        },
                        cost_nestloop(params, &input(&outer, i, qual_ops), i.rescan),
                        &outer,
                        i,
                    );
                }
            }
            for (probe_id, probe) in &probes {
                let ioc = outer.leaf_ioc.union(probe.leaf_ioc);
                let mut chain = offers.list.chain(ioc.expect("disjoint rels"));
                // The probe enforces one join qual via the index.
                let j = input(&outer, probe, qual_ops.saturating_sub(1));
                offers.offer(
                    &mut chain,
                    PathKind::NestLoop {
                        outer: outer_id,
                        inner: *probe_id,
                    },
                    cost_nestloop(params, &j, probe.rescan),
                    &outer,
                    probe,
                );
            }
        }
    }
}

/// The parameterized index scans of `inner_rel` probed with the join keys of
/// `outer_set`: one arena node per (join column, matching index), priced at
/// `outer_rows` loops.
fn param_scans(
    info: &PlannerInfo<'_>,
    params: &CostParams,
    arena: &mut PathArena,
    inner_rel: u16,
    outer_set: RelSet,
    outer_rows: f64,
) -> Vec<Node> {
    let inner_table = info.base[inner_rel as usize].table;
    let mut scans = Vec::new();
    for (col, ec, sel) in info.inner_join_columns(inner_rel, outer_set) {
        let catalog_ixs = info
            .catalog
            .table_indexes(inner_table)
            .iter()
            .map(|id| (IndexRef::Catalog(*id), info.catalog.index(*id)));
        let config_ixs = info
            .config
            .indexes()
            .iter()
            .enumerate()
            .filter(|(_, ix)| ix.table() == inner_table)
            .map(|(i, ix)| (IndexRef::Config(i), ix));
        for (ixref, index) in catalog_ixs.chain(config_ixs) {
            let scan = param_index_scan(
                info, params, arena, inner_rel, ixref, index, col, ec, sel, outer_rows,
            );
            scans.extend(scan.map(|path| (arena.add(path), path)));
        }
    }
    scans
}

/// One inner path as every pair of a `make_joins` call sees it.
struct InnerSide {
    node: Node,
    /// Its forms as a nested-loop inner, see `Wrappers::nestloop_inners`.
    loops: [Option<Node>; 2],
}

/// Where the candidates of one `make_joins` call go, and what they share.
struct Offers<'x> {
    list: &'x mut PathList,
    arena: &'x mut PathArena,
    stats: &'x mut AddPathStats,
    mode: PruneMode,
    /// The joined relation set and its estimated rows.
    set: RelSet,
    rows: f64,
}

impl Offers<'_> {
    /// Offers the join `kind` of `outer` and `inner`, costed at `cost`, to
    /// the list: a header on the stack unless the list takes it.
    fn offer(
        &mut self,
        chain: &mut IocChain,
        kind: PathKind,
        cost: Cost,
        outer: &Path,
        inner: &Path,
    ) {
        let (scale, pathkeys) = match kind {
            PathKind::NestLoop { .. } => (nestloop_scale(outer.rows, &inner.kind), outer.pathkeys),
            PathKind::MergeJoin { .. } => (1.0, outer.pathkeys), // both preserve outer order
            _ => (1.0, KeysId::NONE), // hash: conservative, as in PostgreSQL (multi-batch)
        };
        // The join's own work is constant; the children's totals carry
        // their leaves' access costs, the inner's `scale` times over.
        let extra = cost.total - outer.cost.total - scale * inner.cost.total;
        let candidate = Path {
            kind,
            rels: self.set,
            rows: self.rows,
            cost,
            rescan: cost,
            pathkeys,
            leaf_ioc: chain.ioc(),
            c0: outer.c0 + scale * inner.c0 + extra.max(0.0),
        };
        self.list
            .add_path_in(self.arena, chain, candidate, self.mode, self.stats);
    }
}

/// Memoized sort and materialize nodes: the same input is wrapped the same
/// way in every `make_joins` call it takes part in.
#[derive(Default)]
struct Wrappers {
    /// (input, sort keys) → sort node.
    sorts: HashMap<(PathId, KeysId), PathId>,
    /// input → materialize node.
    materials: HashMap<PathId, PathId>,
}

impl Wrappers {
    /// `input` if already ordered on `ec`, else an explicit sort above it
    /// (`keys` is the interned `[ec]`).
    fn ensure_sorted(
        &mut self,
        arena: &mut PathArena,
        info: &PlannerInfo<'_>,
        params: &CostParams,
        input: PathId,
        (ec, keys): (EcId, KeysId),
    ) -> Node {
        let path = arena.get(input);
        if path.provides_order(arena, &[ec]) {
            return (input, *path);
        }
        let id = *(self.sorts.entry((input, keys)))
            .or_insert_with(|| make_sort_path(arena, info, params, input, keys));
        (id, *arena.get(id))
    }

    /// A materialize node above `input`.
    fn materialize(
        &mut self,
        arena: &mut PathArena,
        info: &PlannerInfo<'_>,
        params: &CostParams,
        input: PathId,
    ) -> Node {
        let id = *(self.materials.entry(input))
            .or_insert_with(|| make_material_path(arena, info, params, input));
        (id, *arena.get(id))
    }

    /// The forms `input` takes as a nested-loop inner: leaves rescan as is
    /// (re-accessing the leaf per outer row) or materialized; sorts and
    /// materials rescan cheaply; composite plans must be materialized.
    fn nestloop_inners(
        &mut self,
        arena: &mut PathArena,
        info: &PlannerInfo<'_>,
        params: &CostParams,
        input: PathId,
    ) -> [Option<Node>; 2] {
        let path = *arena.get(input);
        match path.kind {
            PathKind::SeqScan { .. } | PathKind::IndexScan { .. } | PathKind::BitmapScan { .. } => {
                [
                    Some((input, path)),
                    Some(self.materialize(arena, info, params, input)),
                ]
            }
            PathKind::Sort { .. } | PathKind::Material { .. } => [Some((input, path)), None],
            _ => [Some(self.materialize(arena, info, params, input)), None],
        }
    }
}

/// Standalone sort-wrapper construction (shared with the grouping planner).
pub fn make_sort_path(
    arena: &mut PathArena,
    info: &PlannerInfo<'_>,
    params: &CostParams,
    input: PathId,
    keys: KeysId,
) -> PathId {
    let inp = *arena.get(input);
    let width = info.joinrel_width(inp.rels);
    let sort = cost_sort(params, inp.rows, width);
    arena.add(Path {
        kind: PathKind::Sort { input },
        cost: Cost::new(inp.cost.total + sort.startup, inp.cost.total + sort.total),
        // Rescanning a finished sort replays the stored result.
        rescan: Cost::run_only(sort.run()),
        pathkeys: keys,
        c0: inp.c0 + sort.total,
        ..inp
    })
}

/// Standalone materialize-wrapper construction.
pub fn make_material_path(
    arena: &mut PathArena,
    info: &PlannerInfo<'_>,
    params: &CostParams,
    input: PathId,
) -> PathId {
    let inp = *arena.get(input);
    let width = info.joinrel_width(inp.rels);
    let mat = cost_material(params, inp.rows, width);
    arena.add(Path {
        kind: PathKind::Material { input },
        cost: Cost::new(inp.cost.startup, inp.cost.total + mat.total),
        rescan: cost_rescan_material(params, inp.rows, width),
        c0: inp.c0 + mat.total,
        ..inp
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::collect_access_paths;
    use pinum_catalog::{Catalog, Column, ColumnType, Configuration, ConfigurationBuilder, Table};
    use pinum_query::{Query, QueryBuilder};

    fn setup() -> (Catalog, Query) {
        let mut cat = Catalog::new();
        cat.add_table(Table::new(
            "f",
            1_000_000,
            vec![
                Column::new("fk1", ColumnType::Int8).with_ndv(10_000),
                Column::new("fk2", ColumnType::Int8).with_ndv(1_000),
                Column::new("v", ColumnType::Int4).with_ndv(100),
            ],
        ));
        cat.add_table(Table::new(
            "d1",
            10_000,
            vec![
                Column::new("k", ColumnType::Int8).with_ndv(10_000),
                Column::new("a", ColumnType::Int4).with_ndv(50),
            ],
        ));
        cat.add_table(Table::new(
            "d2",
            1_000,
            vec![Column::new("k", ColumnType::Int8).with_ndv(1_000)],
        ));
        let q = QueryBuilder::new("q", &cat)
            .table("f")
            .table("d1")
            .table("d2")
            .join(("f", "fk1"), ("d1", "k"))
            .join(("f", "fk2"), ("d2", "k"))
            .filter_range(("f", "v"), 0.0, 1.0)
            .select(("d1", "a"))
            .build();
        (cat, q)
    }

    fn run_search(
        cat: &Catalog,
        q: &Query,
        cfg: &Configuration,
        options: JoinSearchOptions,
    ) -> (PathArena, PathList) {
        let info = PlannerInfo::new(cat, q, cfg);
        let params = CostParams::default();
        let mut arena = PathArena::new();
        let keep_all = false;
        let mut base_lists = Vec::new();
        let mut stats = AddPathStats::default();
        for r in 0..info.relation_count() as u16 {
            let acc = collect_access_paths(&info, &params, &mut arena, r, keep_all, None);
            let mut list = PathList::new();
            for p in acc.paths {
                list.add_path(&mut arena, p, options.prune_mode, &mut stats);
            }
            base_lists.push(list);
        }
        let search = JoinSearch::new(&info, &params, options);
        let (top, _, _) = search.run(&mut arena, base_lists);
        (arena, top)
    }

    fn default_opts(mode: PruneMode) -> JoinSearchOptions {
        JoinSearchOptions {
            enable_nestloop: true,
            prune_mode: mode,
            subset_pruning: true,
        }
    }

    #[test]
    fn three_way_join_produces_plans() {
        let (cat, q) = setup();
        let cfg = Configuration::empty();
        let (arena, top) = run_search(&cat, &q, &cfg, default_opts(PruneMode::Standard));
        assert!(!top.is_empty());
        let best = top.cheapest_total(&arena).unwrap();
        let path = arena.get(best);
        assert_eq!(path.rels, RelSet::all(3));
        assert!(path.cost.total > 0.0);
    }

    #[test]
    fn linear_decomposition_survives_joins() {
        let (cat, q) = setup();
        let t = cat.table_id("f").unwrap();
        let d1 = cat.table_id("d1").unwrap();
        let cfg = ConfigurationBuilder::new()
            .whatif_index(&cat, t, vec![0])
            .whatif_index(&cat, d1, vec![0])
            .build();
        let (arena, top) = run_search(&cat, &q, &cfg, default_opts(PruneMode::KeepIoc));
        assert!(!top.is_empty());
        for &id in top.ids() {
            let p = arena.get(id);
            let (access, probes) = arena.leaf_access(id, 3);
            let eval = arena.linear(id, 3).eval(&access, &probes);
            assert!(
                (eval - p.cost.total).abs() / p.cost.total.max(1.0) < 1e-6,
                "decomposition mismatch for {}: {eval} vs {}",
                arena.describe(id),
                p.cost.total
            );
        }
    }

    #[test]
    fn disabling_nestloop_removes_nl_plans() {
        let (cat, q) = setup();
        let cfg = Configuration::empty();
        let mut opts = default_opts(PruneMode::KeepIoc);
        opts.enable_nestloop = false;
        let (arena, top) = run_search(&cat, &q, &cfg, opts);
        for &id in top.ids() {
            assert!(
                !arena.get(id).uses_nestloop(&arena),
                "NL plan survived with enable_nestloop=off: {}",
                arena.describe(id)
            );
        }
    }

    #[test]
    fn keepioc_top_list_is_not_smaller_than_standard() {
        let (cat, q) = setup();
        let t = cat.table_id("f").unwrap();
        let d1 = cat.table_id("d1").unwrap();
        let d2 = cat.table_id("d2").unwrap();
        // Covering indexes for all interesting orders, as the PINUM call
        // does.
        let cfg = ConfigurationBuilder::new()
            .whatif_index(&cat, t, vec![0])
            .whatif_index(&cat, t, vec![1])
            .whatif_index(&cat, d1, vec![0])
            .whatif_index(&cat, d2, vec![0])
            .build();
        let (arena_s, std_top) = run_search(&cat, &q, &cfg, default_opts(PruneMode::Standard));
        let (arena_k, ioc_top) = run_search(&cat, &q, &cfg, default_opts(PruneMode::KeepIoc));
        let distinct_iocs = |arena: &PathArena, list: &PathList| {
            let mut iocs: Vec<_> = list.ids().iter().map(|&i| arena.get(i).leaf_ioc).collect();
            iocs.sort_unstable();
            iocs.dedup();
            iocs.len()
        };
        // KeepIoc retains plans for at least as many distinct IOCs as the
        // standard mode, and more than one.
        assert!(distinct_iocs(&arena_k, &ioc_top) >= distinct_iocs(&arena_s, &std_top));
        assert!(
            distinct_iocs(&arena_k, &ioc_top) > 1,
            "KeepIoc should retain multiple IOC plans"
        );
    }

    #[test]
    fn best_plans_match_across_modes() {
        // The PINUM pruning must never lose the overall cheapest plan.
        let (cat, q) = setup();
        let t = cat.table_id("f").unwrap();
        let cfg = ConfigurationBuilder::new()
            .whatif_index(&cat, t, vec![0])
            .build();
        let (arena_s, top_s) = run_search(&cat, &q, &cfg, default_opts(PruneMode::Standard));
        let (arena_k, top_k) = run_search(&cat, &q, &cfg, default_opts(PruneMode::KeepIoc));
        let best_s = arena_s
            .get(top_s.cheapest_total(&arena_s).unwrap())
            .cost
            .total;
        let best_k = arena_k
            .get(top_k.cheapest_total(&arena_k).unwrap())
            .cost
            .total;
        assert!(
            (best_s - best_k).abs() / best_s < 1e-9,
            "best plans diverge: {best_s} vs {best_k}"
        );
    }

    #[test]
    fn bushy_joins_are_enumerated() {
        // A chain a–b–c–d: {a,b} ⋈ {c,d} is the one bushy split of the
        // full set. Accepted candidates become arena nodes, so a join node
        // whose two inputs each span two relations shows the search
        // offered that split.
        let mut cat = Catalog::new();
        for name in ["a", "b", "c", "d"] {
            cat.add_table(Table::new(
                name,
                100_000,
                vec![
                    Column::new("l", ColumnType::Int8).with_ndv(100_000),
                    Column::new("r", ColumnType::Int8).with_ndv(100_000),
                ],
            ));
        }
        let q = QueryBuilder::new("chain", &cat)
            .table("a")
            .table("b")
            .table("c")
            .table("d")
            .join(("a", "r"), ("b", "l"))
            .join(("b", "r"), ("c", "l"))
            .join(("c", "r"), ("d", "l"))
            .select(("a", "l"))
            .build();
        let cfg = Configuration::empty();
        let (arena, top) = run_search(&cat, &q, &cfg, default_opts(PruneMode::KeepIoc));
        assert!(!top.is_empty());
        let spans_two = |id: PathId| arena.get(id).rels.len() == 2;
        let bushy = (0..arena.len() as u32).filter(|&i| match arena.get(PathId(i)).kind {
            PathKind::NestLoop { outer, inner }
            | PathKind::MergeJoin { outer, inner }
            | PathKind::HashJoin { outer, inner } => spans_two(outer) && spans_two(inner),
            _ => false,
        });
        assert!(bushy.count() > 0, "no bushy join was offered");
    }
}
