//! # Template-scoped drift attribution
//!
//! The mean-based drift detector answers *whether* the live window's
//! priced cost regressed — not *where*. This module adds the "where":
//! every admission can carry the query's [`TemplateKey`]s (the
//! `(table, filter shape)` signatures of `pinum_query::RelTemplate` that
//! batched collection already groups by), and the attribution tracks how
//! each template's share of the priced cost moved **since the last
//! re-advise**.
//!
//! When drift fires, [`DriftAttribution::regressed_queries`] compares the
//! current per-template cost sums (read off the session's exact
//! [`PricedWorkload`] — no re-pricing) against the sums captured right
//! after the last re-advise. Templates whose sum regressed past the
//! threshold — including templates *unseen* at the baseline, whose
//! baseline is 0 — mark their member queries as regressed; the online
//! advisor then intersects each candidate's affected queries (the model's
//! arm index) with that query set to build a [`pinum_core::Selection`]
//! mask, and the search only probes candidates that can matter
//! ([`StrategyKind::search_scoped`](pinum_advisor::search::StrategyKind::search_scoped)).
//!
//! Attribution is conservative by construction:
//!
//! * a query admitted **without** template info cannot be ruled out, so
//!   it counts as regressed in every localized scope the attribution
//!   builds;
//! * when **no** live query carries template info, or no template
//!   regressed past the threshold (diffuse drift the per-template lens
//!   cannot localize — possibly caused by the very queries it cannot
//!   see), `regressed_queries` returns `None` and the caller falls back
//!   to the full-scope search — bit-identical to the unscoped daemon.
//!
//! A query's priced cost is split evenly across its *distinct* templates
//! (cost ÷ template count), so a wide join does not inflate every
//! template it touches by its full cost and a genuinely hot template
//! stands out sooner.
//!
//! The sums are plain reads over the session's per-query costs, computed
//! only when a re-advise actually fires, so steady-state admissions pay
//! one `Vec` push here and nothing else.

use pinum_core::PricedWorkload;
use pinum_query::TemplateKey;
use std::collections::HashMap;

/// The attribution books exploded into plain data — the serialization
/// surface of [`DriftAttribution::to_parts`] /
/// [`DriftAttribution::from_parts`]. The intern map travels as the key
/// list in dense id order (index = id), which also fixes a
/// serialization order for a structure whose in-memory iteration order
/// is nondeterministic. Liveness is not stored here: it is the model's.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DriftAttributionParts {
    /// Interned template keys, index = dense template id.
    pub templates: Vec<TemplateKey>,
    /// Query slot → template ids (empty for dead/unattributed slots).
    pub per_query: Vec<Vec<u32>>,
    /// Per-template baseline sums (may be shorter than `templates` —
    /// templates interned after the capture baseline at 0.0).
    pub baseline: Vec<f64>,
    pub baseline_captured: bool,
}

/// Per-template priced-cost tracking across re-advises. See module docs.
#[derive(Debug, Default)]
pub struct DriftAttribution {
    /// Template key → dense template id.
    intern: HashMap<TemplateKey, u32>,
    /// Query slot → template ids it carries (deduplicated; empty for
    /// dead or unattributed slots — the model's liveness tells them
    /// apart).
    per_query: Vec<Vec<u32>>,
    /// Per-template cost sums captured right after the last re-advise;
    /// templates interned later implicitly baseline at 0.0.
    baseline: Vec<f64>,
    baseline_captured: bool,
}

impl DriftAttribution {
    pub fn new() -> Self {
        Self::default()
    }

    /// Live queries that carried template info at admission (a dead slot
    /// carries none).
    pub fn attributed_live(&self) -> usize {
        self.per_query.iter().filter(|ids| !ids.is_empty()).count()
    }

    /// Records one admission. `qid` must be the next query slot (the
    /// streaming model issues them densely); `templates` may be empty,
    /// which marks the query unattributed (conservatively regressed).
    /// Relations carrying the same template count as one.
    pub fn admit(&mut self, qid: usize, templates: &[TemplateKey]) {
        assert_eq!(
            qid,
            self.per_query.len(),
            "attribution fell out of step with the model's query ids"
        );
        let mut ids: Vec<u32> = templates
            .iter()
            .map(|key| match self.intern.get(key) {
                Some(&id) => id,
                None => {
                    let id = self.intern.len() as u32;
                    self.intern.insert(key.clone(), id);
                    id
                }
            })
            .collect();
        ids.sort_unstable();
        ids.dedup();
        self.per_query.push(ids);
    }

    /// Records an eviction; the slot stops contributing to template sums
    /// (its priced cost is 0.0 from here on anyway).
    pub fn evict(&mut self, qid: usize) {
        self.per_query[qid] = Vec::new();
    }

    /// Applies a model compaction's old→new id mapping (`u32::MAX` for
    /// dropped slots).
    pub fn remap(&mut self, remap: &[u32]) {
        assert_eq!(remap.len(), self.per_query.len(), "stale compaction remap");
        let live = remap.iter().filter(|&&n| n != u32::MAX).count();
        let mut per_query = vec![Vec::new(); live];
        for (old, &new) in remap.iter().enumerate() {
            if new != u32::MAX {
                per_query[new as usize] = std::mem::take(&mut self.per_query[old]);
            }
        }
        self.per_query = per_query;
    }

    /// Exports the books as plain data (see [`DriftAttributionParts`]).
    /// Round-tripping through [`Self::from_parts`] reproduces the books
    /// exactly — including the intern ids, so scoped-re-advise masks
    /// computed after a restore are bit-identical.
    pub fn to_parts(&self) -> DriftAttributionParts {
        // Ids are interned densely (0..len), so sorting by id linearizes
        // the map deterministically regardless of its iteration order.
        let mut pairs: Vec<(&TemplateKey, u32)> =
            self.intern.iter().map(|(k, &id)| (k, id)).collect();
        pairs.sort_unstable_by_key(|&(_, id)| id);
        let templates: Vec<TemplateKey> = pairs.into_iter().map(|(k, _)| k.clone()).collect();
        DriftAttributionParts {
            templates,
            per_query: self.per_query.clone(),
            baseline: self.baseline.clone(),
            baseline_captured: self.baseline_captured,
        }
    }

    /// Rebuilds the books from exported parts, validating shape (template
    /// keys distinct, template-id bounds, per-query ids sorted distinct,
    /// a baseline no longer than the template table). Typed errors, never
    /// panics — parts arrive from disk. Whether dead slots carry no ids
    /// is the caller's to check: liveness is the model's.
    pub fn from_parts(parts: DriftAttributionParts) -> Result<Self, &'static str> {
        let DriftAttributionParts {
            templates,
            per_query,
            baseline,
            baseline_captured,
        } = parts;
        let mut intern = HashMap::with_capacity(templates.len());
        for (id, key) in templates.iter().enumerate() {
            if intern.insert(key.clone(), id as u32).is_some() {
                return Err("duplicate interned template key");
            }
        }
        if baseline.len() > templates.len() {
            return Err("baseline longer than the template table");
        }
        for ids in &per_query {
            if ids.iter().any(|&t| t as usize >= templates.len()) {
                return Err("template id outside the interned table");
            }
            if ids.windows(2).any(|w| w[0] >= w[1]) {
                return Err("per-query template ids not sorted distinct");
            }
        }
        Ok(Self {
            intern,
            per_query,
            baseline,
            baseline_captured,
        })
    }

    /// Per-template cost sums under the given priced state: each query's
    /// cost divided evenly across its distinct templates.
    fn template_sums(&self, state: &PricedWorkload) -> Vec<f64> {
        let mut sums = vec![0.0; self.intern.len()];
        for (qid, ids) in self.per_query.iter().enumerate() {
            if ids.is_empty() {
                continue;
            }
            let share = state.per_query()[qid] / ids.len() as f64;
            for &t in ids {
                sums[t as usize] += share;
            }
        }
        sums
    }

    /// Captures the post-re-advise baseline from the session's exact
    /// priced state.
    pub fn capture_baseline(&mut self, state: &PricedWorkload) {
        self.baseline = self.template_sums(state);
        self.baseline_captured = true;
    }

    /// The live queries a fired drift can be pinned on: members of
    /// templates whose cost sum regressed more than `threshold`
    /// (relative) since the baseline, plus — whenever some template did
    /// regress — every live unattributed query (they cannot be ruled
    /// out, so they ride along in any localized scope). `is_live` is the
    /// model's liveness: it tells a live unattributed slot from a dead
    /// one, since neither carries template ids.
    ///
    /// Returns `None` — "search everything" — when the per-template lens
    /// has nothing to say: no baseline yet, no attributed queries live,
    /// or **no template regressed past the threshold** (diffuse drift
    /// spread under the per-template bar, or drift coming entirely from
    /// queries the lens cannot see — either way the full scope is the
    /// only honest answer).
    pub fn regressed_queries(
        &self,
        state: &PricedWorkload,
        threshold: f64,
        is_live: impl Fn(usize) -> bool,
    ) -> Option<Vec<u32>> {
        if !self.baseline_captured || self.attributed_live() == 0 {
            return None;
        }
        let current = self.template_sums(state);
        let regressed_template: Vec<bool> = current
            .iter()
            .enumerate()
            .map(|(t, &now)| {
                let base = self.baseline.get(t).copied().unwrap_or(0.0);
                // Strict `>` keeps inf-vs-inf (an unpriceable template
                // both then and now) out of the regressed set; a template
                // newly priced at inf regresses past any finite baseline.
                now > base * (1.0 + threshold)
            })
            .collect();
        if !regressed_template.iter().any(|&r| r) {
            return None;
        }
        let regressed: Vec<u32> = self
            .per_query
            .iter()
            .enumerate()
            .filter(|(qid, ids)| {
                if ids.is_empty() {
                    is_live(*qid)
                } else {
                    ids.iter().any(|&t| regressed_template[t as usize])
                }
            })
            .map(|(qid, _)| qid as u32)
            .collect();
        if regressed.is_empty() {
            return None;
        }
        Some(regressed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pinum_catalog::{Catalog, Column, ColumnType, Table};
    use pinum_query::{QueryBuilder, RelIdx, RelTemplate};

    fn keys() -> Vec<TemplateKey> {
        let mut cat = Catalog::new();
        for name in ["a", "b", "c"] {
            cat.add_table(Table::new(
                name,
                10_000,
                vec![
                    Column::new("k", ColumnType::Int8).with_ndv(10_000),
                    Column::new("v", ColumnType::Int4).with_ndv(100),
                ],
            ));
        }
        let q = QueryBuilder::new("q", &cat)
            .table("a")
            .table("b")
            .table("c")
            .join(("a", "k"), ("b", "k"))
            .join(("a", "k"), ("c", "k"))
            .filter_range(("a", "v"), 0.0, 10.0)
            .build();
        (0..q.relation_count() as RelIdx)
            .map(|rel| RelTemplate::of(&q, rel).key())
            .collect()
    }

    fn state(costs: &[f64]) -> PricedWorkload {
        PricedWorkload::from_costs(costs.to_vec())
    }

    #[test]
    fn regression_is_pinned_on_the_hot_template() {
        let k = keys();
        let mut attr = DriftAttribution::new();
        attr.admit(0, &[k[0].clone()]);
        attr.admit(1, &[k[1].clone()]);
        attr.admit(2, &[k[0].clone(), k[2].clone()]);
        assert_eq!(attr.to_parts().templates.len(), 3);
        attr.capture_baseline(&state(&[10.0, 10.0, 10.0]));
        // Template k[1]'s only member doubled; the rest held still.
        let regressed = attr
            .regressed_queries(&state(&[10.0, 25.0, 10.0]), 0.2, |_| true)
            .expect("a template regressed");
        assert_eq!(regressed, vec![1]);
    }

    #[test]
    fn unseen_templates_regress_from_a_zero_baseline() {
        let k = keys();
        let mut attr = DriftAttribution::new();
        attr.admit(0, &[k[0].clone()]);
        attr.capture_baseline(&state(&[10.0]));
        // A new phase's template arrives after the baseline.
        attr.admit(1, &[k[1].clone()]);
        let regressed = attr
            .regressed_queries(&state(&[10.0, 5.0]), 0.2, |_| true)
            .expect("new template must be in scope");
        assert_eq!(regressed, vec![1]);
    }

    #[test]
    fn unattributed_admissions_ride_along_in_every_localized_scope() {
        let k = keys();
        let mut attr = DriftAttribution::new();
        attr.admit(0, &[k[0].clone()]);
        attr.admit(1, &[]);
        attr.capture_baseline(&state(&[10.0, 10.0]));
        // Template k[0] regressed: the scope must hold its member *and*
        // the unattributed query, which can never be ruled out.
        let regressed = attr
            .regressed_queries(&state(&[25.0, 10.0]), 0.2, |_| true)
            .expect("a template regressed");
        assert_eq!(regressed, vec![0, 1]);
    }

    #[test]
    fn diffuse_or_absent_regression_falls_back_to_full_scope() {
        let k = keys();
        let mut attr = DriftAttribution::new();
        // No baseline yet.
        attr.admit(0, &[k[0].clone()]);
        assert!(attr
            .regressed_queries(&state(&[10.0]), 0.2, |_| true)
            .is_none());
        // Baseline captured, nothing regressed.
        attr.capture_baseline(&state(&[10.0]));
        assert!(attr
            .regressed_queries(&state(&[10.0]), 0.2, |_| true)
            .is_none());
        // No template regressed but an unattributed query is live: the
        // drift may well come from the query the lens cannot see — full
        // scope, not a mask around the blind spot.
        let mut mixed = DriftAttribution::new();
        mixed.admit(0, &[k[0].clone()]);
        mixed.admit(1, &[]);
        mixed.capture_baseline(&state(&[10.0, 10.0]));
        assert!(mixed
            .regressed_queries(&state(&[10.0, 99.0]), 0.2, |_| true)
            .is_none());
        // No attributed queries at all.
        let mut blind = DriftAttribution::new();
        blind.admit(0, &[]);
        blind.capture_baseline(&state(&[10.0]));
        assert!(blind
            .regressed_queries(&state(&[99.0]), 0.2, |_| true)
            .is_none());
    }

    #[test]
    fn share_splitting_only_shrinks_the_mask() {
        let k = keys();
        // Query 0 carries T1 alone and holds still; query 1 carries
        // T1 + T2 and regresses. Only half of its rise lands on T1 —
        // below the threshold — so the mask pins exactly the regressing
        // query instead of dragging the stable one in with it.
        let mut attr = DriftAttribution::new();
        attr.admit(0, &[k[0].clone()]);
        attr.admit(1, &[k[0].clone(), k[1].clone()]);
        attr.capture_baseline(&state(&[10.0, 10.0]));
        let split = attr
            .regressed_queries(&state(&[10.0, 16.0]), 0.2, |_| true)
            .expect("a template regressed");
        assert_eq!(split, vec![1], "the split pins the mask on the mover");
    }

    #[test]
    fn shares_pool_when_relations_repeat_a_template_and_survive_remap() {
        let k = keys();
        let mut attr = DriftAttribution::new();
        // Self-join shape: two relations carry the same template, which
        // counts once — q0's cost splits in halves over {T0, T1}.
        attr.admit(0, &[k[0].clone(), k[0].clone(), k[1].clone()]);
        attr.admit(1, &[k[1].clone()]);
        assert_eq!(attr.to_parts().per_query[0], vec![0, 1]);
        attr.capture_baseline(&state(&[10.0, 10.0]));
        // q0 rises 10 → 14: T0 5 → 7 (+40%), T1 15 → 17 (+13%) — the
        // mask holds q0 alone.
        let regressed = attr
            .regressed_queries(&state(&[14.0, 10.0]), 0.2, |_| true)
            .expect("T0 regressed");
        assert_eq!(regressed, vec![0]);
        // Compaction: q0 dies, q1 slides to slot 0 and keeps working.
        attr.evict(0);
        attr.remap(&[u32::MAX, 0]);
        attr.capture_baseline(&state(&[10.0]));
        let regressed = attr
            .regressed_queries(&state(&[30.0]), 0.2, |_| true)
            .expect("T1 regressed after remap");
        assert_eq!(regressed, vec![0]);
    }

    #[test]
    fn eviction_and_remap_keep_the_books() {
        let k = keys();
        let mut attr = DriftAttribution::new();
        attr.admit(0, &[k[0].clone()]);
        attr.admit(1, &[k[1].clone()]);
        attr.admit(2, &[k[1].clone()]);
        attr.evict(0);
        assert_eq!(attr.attributed_live(), 2);
        attr.capture_baseline(&state(&[0.0, 10.0, 10.0]));
        // Compact: slot 0 dies, 1→0, 2→1.
        attr.remap(&[u32::MAX, 0, 1]);
        attr.capture_baseline(&state(&[10.0, 10.0]));
        let regressed = attr
            .regressed_queries(&state(&[10.0, 30.0]), 0.2, |_| true)
            .expect("regression after remap");
        // Both survivors carry k[1], whose sum regressed.
        assert_eq!(regressed, vec![0, 1]);
    }

    #[test]
    fn dead_slots_never_ride_along() {
        let k = keys();
        let mut attr = DriftAttribution::new();
        attr.admit(0, &[k[0].clone()]);
        attr.admit(1, &[]);
        attr.admit(2, &[]);
        attr.capture_baseline(&state(&[10.0, 10.0, 10.0]));
        // Slot 1 was evicted: with no template ids, only the model's
        // liveness tells it from the live unattributed slot 2.
        attr.evict(1);
        let regressed = attr
            .regressed_queries(&state(&[25.0, 0.0, 10.0]), 0.2, |q| q != 1)
            .expect("a template regressed");
        assert_eq!(regressed, vec![0, 2]);
    }
}
