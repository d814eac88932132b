//! The INUM plan cache: internal plans keyed by interesting-order
//! combination, each stored as a linear function of per-table access costs.

use pinum_optimizer::ExportedPlan;
use pinum_query::{InterestingOrders, Ioc};

/// One cached internal plan.
///
/// "INUM separates the total cost of the query into 'internal'
/// join-aggregation costs, and the 'leaf' data access costs. … In a given
/// cached plan, the internal cost remains constant, and the variations in
/// the query cost come from the variation of the data access costs." (§II)
#[derive(Debug, Clone, PartialEq)]
pub struct CachedPlan {
    /// The interesting orders the plan's leaves require (Φ slots impose no
    /// requirement).
    pub ioc: Ioc,
    /// The constant internal cost.
    pub internal: f64,
    /// Per-relation coefficient on the standalone access cost: 1 for
    /// hash/merge inputs, the outer cardinality for re-scanned nested-loop
    /// inners.
    pub coefs: Vec<f64>,
    /// Per-relation coefficient on the *per-probe* access cost (the outer
    /// cardinality for parameterized nested-loop inner index probes).
    pub probe_coefs: Vec<f64>,
    /// Whether the plan contains nested-loop joins — INUM caches these
    /// separately and they are only trustworthy near the access costs they
    /// were built at (§V-D).
    pub uses_nlj: bool,
    /// Estimated output rows.
    pub rows: f64,
    /// Compact operator summary (diagnostics and dedup).
    pub description: String,
}

impl From<ExportedPlan> for CachedPlan {
    fn from(e: ExportedPlan) -> Self {
        Self {
            ioc: e.ioc,
            internal: e.internal,
            coefs: e.coefs,
            probe_coefs: e.probe_coefs,
            uses_nlj: e.uses_nlj,
            rows: e.rows,
            description: e.description,
        }
    }
}

/// The per-query plan cache.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanCache {
    /// Query name (diagnostics).
    pub query_name: String,
    /// Number of relations in the query (length of every `coefs`).
    pub n_rels: usize,
    /// The query's interesting orders — needed to interpret the [`Ioc`]s.
    pub orders: InterestingOrders,
    plans: Vec<CachedPlan>,
}

impl PlanCache {
    pub fn new(query_name: impl Into<String>, n_rels: usize, orders: InterestingOrders) -> Self {
        Self {
            query_name: query_name.into(),
            n_rels,
            orders,
            plans: Vec::new(),
        }
    }

    pub fn plans(&self) -> &[CachedPlan] {
        &self.plans
    }

    pub fn len(&self) -> usize {
        self.plans.len()
    }

    pub fn is_empty(&self) -> bool {
        self.plans.is_empty()
    }

    /// Inserts a plan, deduplicating: an existing entry with the same IOC
    /// and operator structure keeps only the cheaper internal cost; an
    /// identical or strictly worse duplicate is dropped. Returns whether
    /// the cache changed.
    pub fn insert(&mut self, plan: CachedPlan) -> bool {
        assert_eq!(plan.coefs.len(), self.n_rels, "coefficient arity mismatch");
        for existing in &mut self.plans {
            if existing.ioc == plan.ioc && existing.description == plan.description {
                if plan.internal < existing.internal {
                    *existing = plan;
                    return true;
                }
                return false;
            }
        }
        self.plans.push(plan);
        true
    }

    /// Number of *distinct* plan structures (the paper's "unique plans":
    /// 64 of 648 for TPC-H Q5, §IV).
    pub fn unique_plan_structures(&self) -> usize {
        let mut descs: Vec<&str> = self.plans.iter().map(|p| p.description.as_str()).collect();
        descs.sort_unstable();
        descs.dedup();
        descs.len()
    }

    /// Plans usable without nested-loop joins / with them.
    pub fn partition_by_nlj(&self) -> (usize, usize) {
        let nlj = self.plans.iter().filter(|p| p.uses_nlj).count();
        (self.plans.len() - nlj, nlj)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn orders() -> InterestingOrders {
        InterestingOrders::new(vec![vec![0], vec![1, 2]])
    }

    fn plan(ioc: Ioc, internal: f64, desc: &str) -> CachedPlan {
        CachedPlan {
            ioc,
            internal,
            coefs: vec![1.0, 1.0],
            probe_coefs: vec![0.0, 0.0],
            uses_nlj: false,
            rows: 10.0,
            description: desc.to_string(),
        }
    }

    #[test]
    fn insert_dedupes_same_structure() {
        let mut cache = PlanCache::new("q", 2, orders());
        let ioc = Ioc::NONE.with_order(0, 0);
        assert!(cache.insert(plan(ioc, 100.0, "HJ(ix(0),seq(1))")));
        // Identical structure, worse internal: dropped.
        assert!(!cache.insert(plan(ioc, 120.0, "HJ(ix(0),seq(1))")));
        // Identical structure, better internal: replaces.
        assert!(cache.insert(plan(ioc, 80.0, "HJ(ix(0),seq(1))")));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.plans()[0].internal, 80.0);
        // Different structure, same IOC: coexists.
        assert!(cache.insert(plan(ioc, 90.0, "MJ(ix(0),ix(1))")));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn unique_structures_and_covered_iocs() {
        let mut cache = PlanCache::new("q", 2, orders());
        let a = Ioc::NONE.with_order(0, 0);
        let b = Ioc::NONE.with_order(1, 0);
        cache.insert(plan(a, 1.0, "P1"));
        cache.insert(plan(b, 1.0, "P1"));
        cache.insert(plan(b, 1.0, "P2"));
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.unique_plan_structures(), 2);
        assert_eq!(crate::builder::tests::covered_iocs(&cache), 2);
    }

    #[test]
    fn nlj_partition() {
        let mut cache = PlanCache::new("q", 2, orders());
        cache.insert(plan(Ioc::NONE, 1.0, "HJ"));
        let mut nl = plan(Ioc::NONE, 2.0, "NL");
        nl.uses_nlj = true;
        cache.insert(nl);
        assert_eq!(cache.partition_by_nlj(), (1, 1));
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn wrong_arity_panics() {
        let mut cache = PlanCache::new("q", 3, orders());
        cache.insert(plan(Ioc::NONE, 1.0, "X"));
    }
}
