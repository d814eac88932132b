//! Drifting query streams over the star schema — the workload as a
//! moving target.
//!
//! The paper's workload is a fixed batch of ten queries; an online tuner
//! needs the opposite: a stream whose *generating distribution shifts*
//! while it runs. [`DriftStream`] produces that stream in phases, with
//! three drift mechanisms layered on the [`crate::star`] query shape:
//!
//! * **template mix shift** — each phase concentrates its joins on a
//!   sliding window of the fact table's level-1 foreign-key edges and its
//!   predicates on a rotating window of fact measures, so the candidate
//!   indexes that pay off change from phase to phase;
//! * **table-growth reweighting** — one dimension per phase is designated
//!   as "growing": queries that join it carry a workload weight that
//!   compounds by `growth_per_phase` each phase, modelling a table whose
//!   traffic share swells over time (consumed via
//!   `WorkloadModel::admit_batch` / `reweight_query`);
//! * **query churn** — with probability `churn`, a query ignores the
//!   phase bias entirely and samples a one-off template from the whole
//!   schema, the long tail no window ever fully covers.
//!
//! The stream is a pure function of `(schema, seed, profile)`: replays
//! are bit-identical, which is what lets the `online_drift` acceptance
//! test compare an online advisor against a periodic-rebuild baseline on
//! the exact same history.
//!
//! [`DriftEventStream`] layers a fourth mechanism on top: **in-place
//! reweights**. Real workloads do not only shift by *new* queries
//! arriving — a resident query gets hotter (its execution frequency
//! climbs) without changing shape. The event stream interleaves
//! [`DriftEvent::Reweight`] events (a recent admission's weight
//! compounds by `ReweightProfile::factor`) with the base stream's
//! admissions, addressed by **admission ordinal** so consumers like
//! `pinum_online::OnlineAdvisor::reweight` can apply them without
//! tracking model query ids.

use crate::star::{FkEdge, StarSchema};
use pinum_query::{Query, QueryBuilder};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Shape of the drift: how many phases, how fast the mix moves, how much
/// churn rides on top.
#[derive(Debug, Clone, Copy)]
pub struct DriftProfile {
    /// Number of distribution phases.
    pub phases: usize,
    /// Queries emitted per phase.
    pub phase_length: usize,
    /// How many level-1 fact edges a phase's template mix concentrates
    /// on (the window slides by `edge_window / 2` each phase).
    pub edge_window: usize,
    /// Probability that a query is a one-off template sampled from the
    /// whole schema instead of the phase mix.
    pub churn: f64,
    /// Weight multiplier compounded per phase for queries that join the
    /// phase's designated growing dimension (1.0 = no growth drift).
    pub growth_per_phase: f64,
}

impl Default for DriftProfile {
    fn default() -> Self {
        Self {
            phases: 3,
            phase_length: 100,
            edge_window: 4,
            churn: 0.05,
            growth_per_phase: 1.0,
        }
    }
}

/// One emitted stream element: the query plus its drift metadata.
#[derive(Debug, Clone)]
pub struct DriftedQuery {
    pub query: Query,
    /// Workload weight (growth drift; 1.0 when untouched by growth).
    pub weight: f64,
    /// Phase the query was drawn in.
    pub phase: usize,
    /// True when the query came from the churn tail, not the phase mix.
    pub churned: bool,
}

/// Deterministic drifting query stream; see the module docs.
pub struct DriftStream<'a> {
    schema: &'a StarSchema,
    profile: DriftProfile,
    rng: StdRng,
    emitted: usize,
}

impl<'a> DriftStream<'a> {
    pub fn new(schema: &'a StarSchema, seed: u64, profile: DriftProfile) -> Self {
        assert!(profile.phases >= 1, "need at least one phase");
        assert!(
            profile.phase_length >= 1,
            "need at least one query per phase"
        );
        assert!(
            profile.edge_window >= 1,
            "phase mix needs at least one edge"
        );
        assert!(
            (0.0..=1.0).contains(&profile.churn),
            "churn is a probability"
        );
        assert!(
            profile.growth_per_phase >= 1.0 && profile.growth_per_phase.is_finite(),
            "growth factor must be finite and ≥ 1"
        );
        Self {
            schema,
            profile,
            rng: StdRng::seed_from_u64(seed ^ 0x00D5_D51F_7A11_u64),
            emitted: 0,
        }
    }

    /// Total queries the stream will emit.
    pub fn len(&self) -> usize {
        self.profile.phases * self.profile.phase_length
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Phase of the `index`-th emitted query.
    pub fn phase_of(&self, index: usize) -> usize {
        (index / self.profile.phase_length).min(self.profile.phases - 1)
    }

    /// The level-1 fact edges the given phase's template mix draws from
    /// (a sliding window over all level-1 edges, half-overlapping so
    /// consecutive phases share some templates).
    fn phase_edges(&self, phase: usize) -> Vec<FkEdge> {
        let all = self.schema.children_of(self.schema.fact);
        let stride = (self.profile.edge_window / 2).max(1);
        let start = (phase * stride) % all.len();
        (0..self.profile.edge_window.min(all.len()))
            .map(|i| all[(start + i) % all.len()])
            .collect()
    }

    /// Ordinals of the fact measures the phase's predicates rotate over.
    fn phase_measures(&self, phase: usize, measures: &[u16]) -> Vec<u16> {
        let start = (phase * 2) % measures.len();
        (0..3.min(measures.len()))
            .map(|i| measures[(start + i) % measures.len()])
            .collect()
    }
}

impl Iterator for DriftStream<'_> {
    type Item = DriftedQuery;

    fn next(&mut self) -> Option<DriftedQuery> {
        if self.emitted >= self.len() {
            return None;
        }
        let index = self.emitted;
        self.emitted += 1;
        let phase = self.phase_of(index);
        let catalog = &self.schema.catalog;
        let fact = catalog.table(self.schema.fact);

        // Fact measure ordinals ("m*" columns, as laid out by star.rs).
        let measures: Vec<u16> = (0..fact.columns().len() as u16)
            .filter(|&c| fact.column(c).name().starts_with('m'))
            .collect();

        let churned = self.rng.gen_bool(self.profile.churn);
        let (edges, preds) = if churned {
            // Long tail: anywhere in the schema, any measure.
            (self.schema.children_of(self.schema.fact), measures.clone())
        } else {
            (
                self.phase_edges(phase),
                self.phase_measures(phase, &measures),
            )
        };

        let width = 2 + self.rng.gen_range(0..4usize); // 2..=5 tables
        let query = generate_phase_query(
            self.schema,
            &mut self.rng,
            &format!("D{phase}_{index}"),
            width,
            &edges,
            &preds,
        );

        // Growth drift: the phase's designated growing dimension makes
        // the queries that join it progressively heavier.
        let growing = self.phase_edges(phase).first().map(|e| e.parent);
        let weight = match growing {
            Some(dim) if self.profile.growth_per_phase > 1.0 && query.relations.contains(&dim) => {
                self.profile.growth_per_phase.powi(phase as i32 + 1)
            }
            _ => 1.0,
        };

        Some(DriftedQuery {
            query,
            weight,
            phase,
            churned,
        })
    }
}

/// Builds one query joining the fact table with a connected sub-tree of
/// dimensions grown along `edges` (the phase's template mix), with a
/// ~1 %-selectivity predicate on one of `pred_measures`. Mirrors the
/// batch generator in [`crate::star`], parameterized by the phase bias.
fn generate_phase_query(
    schema: &StarSchema,
    rng: &mut StdRng,
    name: &str,
    width: usize,
    edges: &[FkEdge],
    pred_measures: &[u16],
) -> Query {
    let catalog = &schema.catalog;
    let mut tables = vec![schema.fact];
    let mut frontier: Vec<FkEdge> = edges.to_vec();
    let mut joins = Vec::new();
    while tables.len() < width && !frontier.is_empty() {
        let pick = rng.gen_range(0..frontier.len());
        let edge = frontier.swap_remove(pick);
        if tables.contains(&edge.parent) {
            continue;
        }
        tables.push(edge.parent);
        joins.push((edge.child, edge.child_column, edge.parent));
        frontier.extend(schema.children_of(edge.parent));
    }

    let mut qb = QueryBuilder::new(name, catalog);
    let names: Vec<String> = tables
        .iter()
        .map(|t| catalog.table(*t).name().to_string())
        .collect();
    for n in &names {
        qb = qb.table(n);
    }
    for (child, col, parent) in &joins {
        let child_name = catalog.table(*child).name().to_string();
        let col_name = catalog.table(*child).column(*col).name().to_string();
        let parent_name = catalog.table(*parent).name().to_string();
        qb = qb.join((&child_name, &col_name), (&parent_name, "k"));
    }

    // ~1 %-selectivity range predicate on a phase-biased fact measure.
    let fact = catalog.table(schema.fact);
    let measure = pred_measures[rng.gen_range(0..pred_measures.len())];
    let mcol = fact.column(measure);
    let hi = (mcol.stats().max * 0.01).max(1.0);
    qb = qb.filter_range(("fact", mcol.name()), 0.0, hi);

    // Select one fact measure plus one attribute per joined dimension.
    let select_measure = pred_measures[rng.gen_range(0..pred_measures.len())];
    qb = qb.select(("fact", fact.column(select_measure).name()));
    for &t in tables.iter().skip(1) {
        let dt = catalog.table(t);
        let attrs: Vec<u16> = (0..dt.columns().len() as u16)
            .filter(|&c| dt.column(c).name().starts_with('a'))
            .collect();
        if let Some(&c) = attrs.choose(rng) {
            let dt_name = dt.name().to_string();
            let c_name = dt.column(c).name().to_string();
            qb = qb.select((&dt_name, &c_name));
        }
    }

    // ORDER BY a dimension attribute (or a fact measure when alone).
    if tables.len() > 1 && rng.gen_bool(0.8) {
        let t = tables[rng.gen_range(1..tables.len())];
        let dt = catalog.table(t);
        let attrs: Vec<u16> = (0..dt.columns().len() as u16)
            .filter(|&c| dt.column(c).name().starts_with('a'))
            .collect();
        let attr = attrs[rng.gen_range(0..attrs.len())];
        let dt_name = dt.name().to_string();
        let a_name = dt.column(attr).name().to_string();
        qb = qb.order_by((&dt_name, &a_name));
    } else {
        let m = pred_measures[rng.gen_range(0..pred_measures.len())];
        qb = qb.order_by(("fact", fact.column(m).name()));
    }

    qb.build()
}

/// One element of a reweight-bearing drift stream.
#[derive(Debug, Clone)]
pub enum DriftEvent {
    /// A fresh query arrives (an admission).
    Admit(DriftedQuery),
    /// The query admitted as ordinal `admission` (0-based count of
    /// [`DriftEvent::Admit`] events so far) now runs at `weight` — the
    /// same query getting hotter in place.
    Reweight { admission: usize, weight: f64 },
}

/// Shape of the in-place reweight drift riding on a [`DriftStream`].
#[derive(Debug, Clone, Copy)]
pub struct ReweightProfile {
    /// Probability that the next event is a reweight instead of an
    /// admission (given at least one admission happened; admissions
    /// always resume once the coin lands tails, so the stream ends).
    pub rate: f64,
    /// Weight multiplier compounded per reweight event (> 1 = hotter).
    pub factor: f64,
    /// Reweights target one of the most recent `lookback` admissions
    /// (uniformly), modelling heat on the working set.
    pub lookback: usize,
}

impl Default for ReweightProfile {
    fn default() -> Self {
        Self {
            rate: 0.2,
            factor: 1.5,
            lookback: 32,
        }
    }
}

/// [`DriftStream`] with interleaved in-place [`DriftEvent::Reweight`]
/// events. Deterministic: a pure function of
/// `(schema, seed, base profile, reweight profile)`.
pub struct DriftEventStream<'a> {
    inner: DriftStream<'a>,
    profile: ReweightProfile,
    rng: StdRng,
    /// Current weight of each admission (reweights compound onto the
    /// admitted weight).
    weights: Vec<f64>,
    admits_remaining: usize,
}

impl<'a> DriftEventStream<'a> {
    pub fn new(
        schema: &'a StarSchema,
        seed: u64,
        base: DriftProfile,
        reweights: ReweightProfile,
    ) -> Self {
        assert!(
            (0.0..1.0).contains(&reweights.rate),
            "reweight rate must be in [0, 1)"
        );
        assert!(
            reweights.factor >= 1.0 && reweights.factor.is_finite(),
            "reweight factor must be finite and ≥ 1"
        );
        assert!(reweights.lookback >= 1, "lookback must cover an admission");
        let inner = DriftStream::new(schema, seed, base);
        let admits_remaining = inner.len();
        Self {
            inner,
            profile: reweights,
            rng: StdRng::seed_from_u64(seed ^ 0x0000_073B_3471_1EA7_u64),
            weights: Vec::new(),
            admits_remaining,
        }
    }

    /// Admissions the stream will emit (reweight events ride on top).
    pub fn admissions(&self) -> usize {
        self.inner.len()
    }
}

impl Iterator for DriftEventStream<'_> {
    type Item = DriftEvent;

    fn next(&mut self) -> Option<DriftEvent> {
        if self.admits_remaining > 0
            && !self.weights.is_empty()
            && self.rng.gen_bool(self.profile.rate)
        {
            let span = self.profile.lookback.min(self.weights.len());
            let admission = self.weights.len() - 1 - self.rng.gen_range(0..span);
            let weight = self.weights[admission] * self.profile.factor;
            self.weights[admission] = weight;
            return Some(DriftEvent::Reweight { admission, weight });
        }
        let dq = self.inner.next()?;
        self.admits_remaining -= 1;
        self.weights.push(dq.weight);
        Some(DriftEvent::Admit(dq))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> StarSchema {
        StarSchema::generate(42, 0.001)
    }

    fn profile() -> DriftProfile {
        DriftProfile {
            phases: 3,
            phase_length: 20,
            edge_window: 4,
            churn: 0.1,
            growth_per_phase: 1.5,
        }
    }

    #[test]
    fn stream_is_deterministic_and_sized() {
        let s = schema();
        let a: Vec<_> = DriftStream::new(&s, 9, profile()).collect();
        let b: Vec<_> = DriftStream::new(&s, 9, profile()).collect();
        assert_eq!(a.len(), 60);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.query.relations, y.query.relations);
            assert_eq!(x.query.joins, y.query.joins);
            assert_eq!(x.weight, y.weight);
            assert_eq!(x.phase, y.phase);
            assert_eq!(x.churned, y.churned);
        }
    }

    #[test]
    fn queries_are_valid_and_connected() {
        let s = schema();
        for dq in DriftStream::new(&s, 3, profile()) {
            dq.query.validate(&s.catalog);
            assert!(
                dq.query.join_graph_connected(),
                "{} disconnected",
                dq.query.name
            );
            assert!(!dq.query.filters.is_empty());
            assert!(!dq.query.order_by.is_empty());
            assert!(dq.weight >= 1.0 && dq.weight.is_finite());
        }
    }

    #[test]
    fn template_mix_actually_shifts_between_phases() {
        let s = schema();
        let stream = DriftStream::new(&s, 7, profile());
        let all: Vec<_> = stream.collect();
        // Dimension histogram per phase (excluding churned queries).
        let dims_of = |phase: usize| -> std::collections::BTreeSet<_> {
            all.iter()
                .filter(|d| d.phase == phase && !d.churned)
                .flat_map(|d| d.query.relations.iter().copied())
                .filter(|&t| t != s.fact)
                .collect()
        };
        let (p0, p2) = (dims_of(0), dims_of(2));
        assert!(!p0.is_empty() && !p2.is_empty());
        assert_ne!(p0, p2, "phases 0 and 2 drew the same dimension mix");
    }

    #[test]
    fn growth_drift_weights_compound_by_phase() {
        let s = schema();
        let all: Vec<_> = DriftStream::new(&s, 11, profile()).collect();
        let grown: Vec<&DriftedQuery> = all.iter().filter(|d| d.weight > 1.0).collect();
        assert!(!grown.is_empty(), "no query hit the growing dimension");
        for d in &grown {
            let expect = 1.5f64.powi(d.phase as i32 + 1);
            assert_eq!(d.weight, expect, "phase {} weight", d.phase);
        }
    }

    #[test]
    fn churn_emits_one_off_templates() {
        let s = schema();
        let high_churn = DriftProfile {
            churn: 0.5,
            ..profile()
        };
        let all: Vec<_> = DriftStream::new(&s, 5, high_churn).collect();
        let churned = all.iter().filter(|d| d.churned).count();
        assert!(churned > 5, "churn rate 0.5 produced only {churned} of 60");
        assert!(churned < 55);
    }

    fn reweights() -> ReweightProfile {
        ReweightProfile {
            rate: 0.3,
            factor: 1.5,
            lookback: 8,
        }
    }

    #[test]
    fn event_stream_is_deterministic_and_complete() {
        let s = schema();
        let collect = || -> Vec<DriftEvent> {
            DriftEventStream::new(&s, 9, profile(), reweights()).collect()
        };
        let (a, b) = (collect(), collect());
        assert_eq!(a.len(), b.len());
        let admits = a
            .iter()
            .filter(|e| matches!(e, DriftEvent::Admit(_)))
            .count();
        assert_eq!(admits, 60, "every base admission must come through");
        let rws = a.len() - admits;
        assert!(rws > 5, "rate 0.3 produced only {rws} reweights");
        for (x, y) in a.iter().zip(&b) {
            match (x, y) {
                (DriftEvent::Admit(p), DriftEvent::Admit(q)) => {
                    assert_eq!(p.query.relations, q.query.relations);
                    assert_eq!(p.weight, q.weight);
                }
                (
                    DriftEvent::Reweight {
                        admission: pa,
                        weight: pw,
                    },
                    DriftEvent::Reweight {
                        admission: qa,
                        weight: qw,
                    },
                ) => {
                    assert_eq!(pa, qa);
                    assert_eq!(pw, qw);
                }
                _ => panic!("event kinds diverged between replays"),
            }
        }
    }

    #[test]
    fn reweights_target_recent_admissions_and_compound() {
        let s = schema();
        let mut admitted = 0usize;
        let mut current: Vec<f64> = Vec::new();
        for event in DriftEventStream::new(&s, 5, profile(), reweights()) {
            match event {
                DriftEvent::Admit(dq) => {
                    admitted += 1;
                    current.push(dq.weight);
                }
                DriftEvent::Reweight { admission, weight } => {
                    assert!(admission < admitted, "reweight before its admission");
                    assert!(
                        admitted - admission <= 8,
                        "reweight outside the lookback window"
                    );
                    let expect = current[admission] * 1.5;
                    assert_eq!(weight, expect, "weights must compound by the factor");
                    assert!(weight.is_finite() && weight > 0.0);
                    current[admission] = weight;
                }
            }
        }
        assert_eq!(admitted, 60);
    }

    #[test]
    fn zero_rate_reduces_to_the_base_stream() {
        let s = schema();
        let base: Vec<_> = DriftStream::new(&s, 9, profile()).collect();
        let events: Vec<_> = DriftEventStream::new(
            &s,
            9,
            profile(),
            ReweightProfile {
                rate: 0.0,
                ..reweights()
            },
        )
        .collect();
        assert_eq!(events.len(), base.len());
        for (e, d) in events.iter().zip(&base) {
            match e {
                DriftEvent::Admit(dq) => {
                    assert_eq!(dq.query.relations, d.query.relations);
                    assert_eq!(dq.weight, d.weight);
                }
                DriftEvent::Reweight { .. } => panic!("rate 0 emitted a reweight"),
            }
        }
    }

    #[test]
    fn phase_of_matches_emission_order() {
        let s = schema();
        let stream = DriftStream::new(&s, 1, profile());
        assert_eq!(stream.phase_of(0), 0);
        assert_eq!(stream.phase_of(19), 0);
        assert_eq!(stream.phase_of(20), 1);
        assert_eq!(stream.phase_of(59), 2);
        assert_eq!(stream.phase_of(1000), 2, "clamps to the last phase");
    }
}
