//! Access and join paths: the DP's partial plans.
//!
//! A [`Path`] is a plain `Copy` header — operator, relations, rows, costs,
//! and what `add_path` keys on — and owns nothing on the heap, so a join
//! candidate is a stack value until a path list accepts it. Everything
//! shared lives in the [`PathArena`] of the optimize call: the accepted
//! nodes (children are referenced by [`PathId`]) and the interned output
//! orderings ([`KeysId`]; equal orderings have equal ids, so the KeepIoc key
//! is the pair `(leaf_ioc.raw(), pathkeys)` of integers).
//!
//! Every path carries, besides the usual cost/rows/pathkeys:
//!
//! * its **leaf interesting-order combination** ([`Ioc`]): which interesting
//!   order each base relation's leaf access uses — the plan's *requirement*
//!   on a configuration in INUM terms;
//! * the constant `c0` of its **linear cost decomposition**
//!   `total = c0 + Σ coef_r · access_r`, where `access_r` is the build-time
//!   standalone access cost of the leaf on relation `r`. Hash/merge joins
//!   keep `coef = 1` (INUM observation 1); an unmaterialized nested-loop
//!   inner multiplies its subtree's coefficients by the outer cardinality
//!   ([`nestloop_scale`]); parameterized inner index scans are priced per
//!   probe (`probe_coefs`; the INUM approximation the paper quantifies in
//!   §VI-C).
//!
//! The coefficients are a function of the tree alone, so no path stores
//! them: [`PathArena::linear`] rebuilds them by a walk for the few plans
//! that are exported. The `linear.eval` consistency tests recover the other
//! half of the equation the same way — `PathArena::leaf_access` (test-only)
//! walks to the leaves and reads each one's build-time cost.

use crate::preprocess::EcId;
use crate::relset::RelSet;
use pinum_catalog::IndexId;
use pinum_cost::Cost;
use pinum_query::{Ioc, RelIdx};

/// Identifies a path inside one [`PathArena`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PathId(pub u32);

/// An output ordering (equivalence classes, prefix semantics) interned in
/// the call's [`PathArena`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct KeysId(u32);

impl KeysId {
    /// No ordering.
    pub const NONE: KeysId = KeysId(0);

    /// Its slot in the arena's table of orderings: dense from 0.
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

/// Which index a scan uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IndexRef {
    /// A materialized index of the catalog.
    Catalog(IndexId),
    /// The `i`-th index of the what-if configuration.
    Config(usize),
}

/// Aggregation strategy tag (mirrors `pinum_cost::agg::AggStrategy` but kept
/// here to avoid leaking cost-model types into plan trees).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggKind {
    Sorted,
    Hashed,
    Plain,
}

/// The operator of a path node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PathKind {
    SeqScan {
        rel: RelIdx,
    },
    IndexScan {
        rel: RelIdx,
        index: IndexRef,
        index_only: bool,
        /// `Some(ec)` when this is a parameterized inner scan probing the
        /// join key of equivalence class `ec` (constructed only as a
        /// nested-loop inner, never enters path lists).
        param: Option<EcId>,
    },
    /// Bitmap index + heap scan: order-destroying medium-selectivity
    /// access (PostgreSQL 8.3's bitmap scans).
    BitmapScan {
        rel: RelIdx,
        index: IndexRef,
    },
    Sort {
        input: PathId,
    },
    Material {
        input: PathId,
    },
    NestLoop {
        outer: PathId,
        inner: PathId,
    },
    MergeJoin {
        outer: PathId,
        inner: PathId,
    },
    HashJoin {
        outer: PathId,
        inner: PathId,
    },
    Agg {
        input: PathId,
        kind: AggKind,
    },
}

/// Linear decomposition of a path's total cost over its leaf access costs.
///
/// Two families of terms: *standalone* access (`coefs`, multiplied by the
/// cost of scanning the relation once under the required order) and
/// *probe* access (`probe_coefs`, multiplied by the per-probe cost of a
/// parameterized index lookup — INUM's treatment of nested-loop inners,
/// whose access cost is one probe times the outer cardinality).
#[derive(Debug, Clone, PartialEq)]
pub struct LinearCost {
    /// Constant ("internal") part.
    pub c0: f64,
    /// Per-relation coefficient on the build-time leaf access cost.
    pub coefs: Vec<f64>,
    /// Per-relation coefficient on the per-probe access cost.
    pub probe_coefs: Vec<f64>,
}

impl LinearCost {
    pub fn zero(n_rels: usize) -> Self {
        Self {
            c0: 0.0,
            coefs: vec![0.0; n_rels],
            probe_coefs: vec![0.0; n_rels],
        }
    }

    /// The decomposition of a plain leaf: `1 · access_rel`.
    pub fn leaf(n_rels: usize, rel: RelIdx) -> Self {
        let mut l = Self::zero(n_rels);
        l.coefs[rel as usize] = 1.0;
        l
    }

    /// A fully-constant cost.
    pub fn constant(n_rels: usize, c0: f64) -> Self {
        let mut l = Self::zero(n_rels);
        l.c0 = c0;
        l
    }

    /// The decomposition of a parameterized probe leaf: `1 · probe_rel`
    /// plus a residual constant (the difference between the charged
    /// per-execution cost and the reference probe cost).
    pub fn probe_leaf(n_rels: usize, rel: RelIdx, residual: f64) -> Self {
        let mut l = Self::zero(n_rels);
        l.probe_coefs[rel as usize] = 1.0;
        l.c0 = residual;
        l
    }

    /// `self + other`, plus an extra constant.
    pub fn combine(&self, other: &LinearCost, extra_c0: f64) -> Self {
        self.combine_scaled(other, 1.0, extra_c0)
    }

    /// `self + scale · other + extra_c0` — the nested-loop composition where
    /// the inner subtree is re-executed `scale` times.
    pub fn combine_scaled(&self, other: &LinearCost, scale: f64, extra_c0: f64) -> Self {
        debug_assert_eq!(self.coefs.len(), other.coefs.len());
        Self {
            c0: self.c0 + scale * other.c0 + extra_c0,
            coefs: self
                .coefs
                .iter()
                .zip(&other.coefs)
                .map(|(a, b)| a + scale * b)
                .collect(),
            probe_coefs: self
                .probe_coefs
                .iter()
                .zip(&other.probe_coefs)
                .map(|(a, b)| a + scale * b)
                .collect(),
        }
    }

    /// Evaluates against per-relation standalone and per-probe access
    /// costs.
    pub fn eval(&self, access: &[f64], probes: &[f64]) -> f64 {
        debug_assert_eq!(access.len(), self.coefs.len());
        debug_assert_eq!(probes.len(), self.probe_coefs.len());
        self.c0
            + self
                .coefs
                .iter()
                .zip(access)
                .map(|(c, a)| c * a)
                .sum::<f64>()
            + self
                .probe_coefs
                .iter()
                .zip(probes)
                .map(|(c, a)| c * a)
                .sum::<f64>()
    }
}

/// How many times a nested loop over `outer_rows` rows re-runs the leaf
/// accesses beneath `inner`: once per outer row when the inner is a bare
/// scan (plain or parameterized), once in total when a materialize or sort
/// node stores its result. The join planner charges by this factor and
/// [`PathArena::linear`] scales the inner's coefficients by it.
pub fn nestloop_scale(outer_rows: f64, inner: &PathKind) -> f64 {
    match inner {
        PathKind::SeqScan { .. } | PathKind::IndexScan { .. } | PathKind::BitmapScan { .. } => {
            outer_rows.max(1.0)
        }
        _ => 1.0,
    }
}

/// A partial plan.
#[derive(Debug, Clone, Copy)]
pub struct Path {
    pub kind: PathKind,
    /// Relations joined so far.
    pub rels: RelSet,
    /// Estimated output rows.
    pub rows: f64,
    /// Startup/total cost.
    pub cost: Cost,
    /// Cost to re-execute after the first run (used when this path is a
    /// nested-loop inner). For most nodes this equals `cost`, for
    /// materialize it is the cheap tuplestore re-read.
    pub rescan: Cost,
    /// Output ordering, prefix semantics.
    pub pathkeys: KeysId,
    /// Leaf interesting-order requirements (INUM's `S_plan`).
    pub leaf_ioc: Ioc,
    /// Constant ("internal") part of the linear decomposition of
    /// `cost.total`; see [`PathArena::linear`] for the coefficients.
    pub c0: f64,
}

impl Path {
    /// `true` if this plan (sub)tree contains a nested-loop join — the flag
    /// INUM uses to segregate cached plans (§V-D).
    pub fn uses_nestloop(&self, arena: &PathArena) -> bool {
        match &self.kind {
            PathKind::NestLoop { .. } => true,
            PathKind::SeqScan { .. } | PathKind::IndexScan { .. } | PathKind::BitmapScan { .. } => {
                false
            }
            PathKind::Sort { input }
            | PathKind::Material { input }
            | PathKind::Agg { input, .. } => arena.get(*input).uses_nestloop(arena),
            PathKind::MergeJoin { outer, inner } | PathKind::HashJoin { outer, inner } => {
                arena.get(*outer).uses_nestloop(arena) || arena.get(*inner).uses_nestloop(arena)
            }
        }
    }

    /// True if `self`'s output ordering satisfies `required` (required keys
    /// are a prefix of the provided keys).
    pub fn provides_order(&self, arena: &PathArena, required: &[EcId]) -> bool {
        arena.keys(self.pathkeys).starts_with(required)
    }
}

/// Arena holding every accepted path of one optimize call, plus the
/// orderings they share; paths reference children by [`PathId`], so the DP
/// never drops a child that a surviving parent needs.
pub struct PathArena {
    paths: Vec<Path>,
    /// Interned orderings; slot 0 is [`KeysId::NONE`].
    keys: Vec<Vec<EcId>>,
}

impl Default for PathArena {
    fn default() -> Self {
        Self {
            paths: Vec::new(),
            keys: vec![Vec::new()],
        }
    }
}

impl PathArena {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn add(&mut self, path: Path) -> PathId {
        let id = PathId(self.paths.len() as u32);
        self.paths.push(path);
        id
    }

    pub fn get(&self, id: PathId) -> &Path {
        &self.paths[id.0 as usize]
    }

    pub fn len(&self) -> usize {
        self.paths.len()
    }

    pub fn is_empty(&self) -> bool {
        self.paths.is_empty()
    }

    /// The id of `keys`, interning it on first sight. A call sees a handful
    /// of distinct orderings and interns only at leaves and sort nodes (joins
    /// inherit an input's id), so a scan beats hashing.
    pub fn intern(&mut self, keys: &[EcId]) -> KeysId {
        let slot = self.keys.iter().position(|k| k == keys).unwrap_or_else(|| {
            self.keys.push(keys.to_vec());
            self.keys.len() - 1
        });
        KeysId(slot as u32)
    }

    /// The ordering behind an id.
    pub fn keys(&self, id: KeysId) -> &[EcId] {
        &self.keys[id.0 as usize]
    }

    /// `a` subsumes `b`: `b`'s keys are a prefix of `a`'s.
    pub fn keys_subsume(&self, a: KeysId, b: KeysId) -> bool {
        a == b || self.keys(a).starts_with(self.keys(b))
    }

    /// The linear decomposition of `id`'s total cost over the access costs
    /// of its leaves (`n_rels` = relations of the query): the stored `c0`
    /// plus coefficients rebuilt bottom-up — a leaf contributes 1 on its
    /// relation, wrappers pass their input's through, joins add their
    /// children's, nested loops scaling the inner by [`nestloop_scale`].
    pub fn linear(&self, id: PathId, n_rels: usize) -> LinearCost {
        let p = self.get(id);
        let mut linear = match p.kind {
            PathKind::IndexScan {
                rel,
                param: Some(_),
                ..
            } => LinearCost::probe_leaf(n_rels, rel, 0.0),
            PathKind::SeqScan { rel }
            | PathKind::IndexScan { rel, .. }
            | PathKind::BitmapScan { rel, .. } => LinearCost::leaf(n_rels, rel),
            PathKind::Sort { input }
            | PathKind::Material { input }
            | PathKind::Agg { input, .. } => self.linear(input, n_rels),
            PathKind::NestLoop { outer, inner } => {
                let scale = nestloop_scale(self.get(outer).rows, &self.get(inner).kind);
                self.linear(outer, n_rels)
                    .combine_scaled(&self.linear(inner, n_rels), scale, 0.0)
            }
            PathKind::MergeJoin { outer, inner } | PathKind::HashJoin { outer, inner } => self
                .linear(outer, n_rels)
                .combine(&self.linear(inner, n_rels), 0.0),
        };
        linear.c0 = p.c0;
        linear
    }

    /// Build-time access cost per relation of the leaves under `id`:
    /// standalone scans and parameterized probes — what [`Self::linear`]'s
    /// coefficients multiply, so `linear.eval(..)` must give `cost.total`.
    #[cfg(test)]
    pub(crate) fn leaf_access(&self, id: PathId, n_rels: usize) -> (Vec<f64>, Vec<f64>) {
        let mut access = (vec![0.0; n_rels], vec![0.0; n_rels]);
        let mut pending = vec![id];
        while let Some(id) = pending.pop() {
            let p = self.get(id);
            match p.kind {
                PathKind::IndexScan {
                    rel,
                    param: Some(_),
                    ..
                } => access.1[rel as usize] = p.cost.total,
                PathKind::SeqScan { rel }
                | PathKind::IndexScan { rel, .. }
                | PathKind::BitmapScan { rel, .. } => access.0[rel as usize] = p.cost.total,
                PathKind::Sort { input }
                | PathKind::Material { input }
                | PathKind::Agg { input, .. } => pending.push(input),
                PathKind::NestLoop { outer, inner }
                | PathKind::MergeJoin { outer, inner }
                | PathKind::HashJoin { outer, inner } => pending.extend([outer, inner]),
            }
        }
        access
    }

    /// Compact one-line rendering of a plan, for explain output and cache
    /// diagnostics, e.g. `HJ(MJ(ix(0),ix(1)),seq(2))`.
    pub fn describe(&self, id: PathId) -> String {
        let p = self.get(id);
        match &p.kind {
            PathKind::SeqScan { rel } => format!("seq({rel})"),
            PathKind::IndexScan {
                rel,
                index_only,
                param,
                ..
            } => {
                let tag = if *index_only { "ixo" } else { "ix" };
                if param.is_some() {
                    format!("{tag}*({rel})")
                } else {
                    format!("{tag}({rel})")
                }
            }
            PathKind::BitmapScan { rel, .. } => format!("bmp({rel})"),
            PathKind::Sort { input } => format!("sort({})", self.describe(*input)),
            PathKind::Material { input } => format!("mat({})", self.describe(*input)),
            PathKind::NestLoop { outer, inner } => {
                format!("NL({},{})", self.describe(*outer), self.describe(*inner))
            }
            PathKind::MergeJoin { outer, inner } => {
                format!("MJ({},{})", self.describe(*outer), self.describe(*inner))
            }
            PathKind::HashJoin { outer, inner } => {
                format!("HJ({},{})", self.describe(*outer), self.describe(*inner))
            }
            PathKind::Agg { input, kind } => {
                let tag = match kind {
                    AggKind::Sorted => "gagg",
                    AggKind::Hashed => "hagg",
                    AggKind::Plain => "agg",
                };
                format!("{tag}({})", self.describe(*input))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_cost_composition() {
        let leaf_a = LinearCost::leaf(2, 0);
        let leaf_b = LinearCost::leaf(2, 1);
        // Hash join: coefficients add, join work goes to c0.
        let hj = leaf_a.combine(&leaf_b, 5.0);
        assert_eq!(hj.c0, 5.0);
        assert_eq!(hj.coefs, vec![1.0, 1.0]);
        // NLJ with 10 outer rows re-executing the inner.
        let nlj = leaf_a.combine_scaled(&leaf_b, 10.0, 2.0);
        assert_eq!(nlj.coefs, vec![1.0, 10.0]);
        assert_eq!(nlj.c0, 2.0);
        // Evaluation.
        assert_eq!(nlj.eval(&[3.0, 1.0], &[0.0, 0.0]), 2.0 + 3.0 + 10.0);
    }

    #[test]
    fn probe_leaf_composition() {
        let probe = LinearCost::probe_leaf(2, 1, 0.5);
        let outer = LinearCost::leaf(2, 0);
        // NLJ over 100 outer rows: probe coefficient scales.
        let nlj = outer.combine_scaled(&probe, 100.0, 3.0);
        assert_eq!(nlj.probe_coefs, vec![0.0, 100.0]);
        assert_eq!(nlj.coefs, vec![1.0, 0.0]);
        assert!((nlj.eval(&[7.0, 0.0], &[0.0, 0.02]) - (50.0 + 3.0 + 7.0 + 2.0)).abs() < 1e-9);
    }

    #[test]
    fn constant_linear_cost() {
        let c = LinearCost::constant(3, 7.5);
        assert_eq!(c.eval(&[100.0; 3], &[100.0; 3]), 7.5);
    }

    #[test]
    fn provides_order_prefix_semantics() {
        let mut arena = PathArena::new();
        let p = Path {
            kind: PathKind::SeqScan { rel: 0 },
            rels: RelSet::single(0),
            rows: 1.0,
            cost: Cost::ZERO,
            rescan: Cost::ZERO,
            pathkeys: arena.intern(&[EcId(0), EcId(1)]),
            leaf_ioc: Ioc::NONE,
            c0: 0.0,
        };
        assert!(p.provides_order(&arena, &[]));
        assert!(p.provides_order(&arena, &[EcId(0)]));
        assert!(p.provides_order(&arena, &[EcId(0), EcId(1)]));
        assert!(!p.provides_order(&arena, &[EcId(1)]));
        assert!(!p.provides_order(&arena, &[EcId(0), EcId(1), EcId(2)]));
    }

    #[test]
    fn interned_orderings_compare_by_id() {
        let mut arena = PathArena::new();
        assert_eq!(arena.intern(&[]), KeysId::NONE);
        let a = arena.intern(&[EcId(3)]);
        let ab = arena.intern(&[EcId(3), EcId(1)]);
        assert_eq!(arena.intern(&[EcId(3)]), a);
        assert_ne!(a, ab);
        assert_eq!(arena.keys(ab), &[EcId(3), EcId(1)]);
        assert!(arena.keys_subsume(ab, a) && arena.keys_subsume(a, KeysId::NONE));
        assert!(!arena.keys_subsume(a, ab));
    }

    fn leaf(rel: RelIdx, total: f64) -> Path {
        Path {
            kind: PathKind::SeqScan { rel },
            rels: RelSet::single(rel),
            rows: 10.0,
            cost: Cost::run_only(total),
            rescan: Cost::run_only(total),
            pathkeys: KeysId::NONE,
            leaf_ioc: Ioc::NONE,
            c0: 0.0,
        }
    }

    #[test]
    fn describe_renders_nested_plans() {
        let mut arena = PathArena::new();
        let a = arena.add(leaf(0, 0.0));
        let b = arena.add(leaf(1, 0.0));
        let join = arena.add(Path {
            kind: PathKind::HashJoin { outer: a, inner: b },
            rels: RelSet::all(2),
            ..leaf(0, 0.0)
        });
        assert_eq!(arena.describe(join), "HJ(seq(0),seq(1))");
        assert!(!arena.get(join).uses_nestloop(&arena));
    }

    #[test]
    fn linear_is_rebuilt_from_the_tree() {
        // NL(seq(0), seq(1)) over 10 outer rows re-scans the inner leaf per
        // row; materializing it scans once.
        let mut arena = PathArena::new();
        let a = arena.add(leaf(0, 3.0));
        let b = arena.add(leaf(1, 2.0));
        let mat = arena.add(Path {
            kind: PathKind::Material { input: b },
            c0: 0.5,
            ..leaf(1, 2.5)
        });
        let join = |inner| Path {
            kind: PathKind::NestLoop { outer: a, inner },
            rels: RelSet::all(2),
            c0: 4.0,
            ..leaf(0, 0.0)
        };
        let (rescanned, stored) = (arena.add(join(b)), arena.add(join(mat)));
        let l = arena.linear(rescanned, 2);
        assert_eq!((l.c0, &l.coefs[..]), (4.0, &[1.0, 10.0][..]));
        let l = arena.linear(stored, 2);
        assert_eq!((l.c0, &l.coefs[..]), (4.0, &[1.0, 1.0][..]));
        assert_eq!(arena.leaf_access(stored, 2).0, vec![3.0, 2.0]);
    }
}
