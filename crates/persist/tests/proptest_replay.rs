//! Property test for the contract PR 9 rests on: snapshot → restore →
//! replay at **every** prefix point of a random mutation sequence lands
//! bit-identically on the uninterrupted session — the warm-restart
//! determinism contract, with the snapshot cut placed adversarially
//! instead of every K admissions.

mod common;

use common::{fingerprint, fixture, opts, Fixture, ScratchDir};
use pinum_online::{AdmissionSpec, OnlineAdvisor};
use pinum_persist::PersistentAdvisor;
use proptest::prelude::*;
use std::sync::OnceLock;

/// The fixture costs real optimizer calls; price it once per process.
fn fx() -> &'static Fixture {
    static FX: OnceLock<Fixture> = OnceLock::new();
    FX.get_or_init(|| fixture(3, 10))
}

/// One materialized mutation, derived deterministically from a sampled
/// word so every driver sees the identical sequence.
#[derive(Debug, Clone)]
enum Op {
    Admit {
        weight: f64,
        attributed: bool,
        deferred: bool,
    },
    Reweight {
        pick: u64,
        weight: f64,
        deferred: bool,
    },
    Evict {
        pick: u64,
    },
    Compact,
    Readvise,
}

fn positive_weight(x: u64) -> f64 {
    0.25 + (x % 1000) as f64 / 250.0
}

fn materialize(raw: &[u64]) -> Vec<Op> {
    raw.iter()
        .map(|&x| match x % 10 {
            0..=4 => Op::Admit {
                weight: positive_weight(x >> 4),
                attributed: x & (1 << 40) != 0,
                deferred: x & (1 << 42) != 0,
            },
            5 | 6 => Op::Reweight {
                pick: x >> 4,
                weight: positive_weight(x >> 14),
                deferred: x & (1 << 40) != 0,
            },
            7 => Op::Evict { pick: x >> 4 },
            8 => Op::Compact,
            _ => Op::Readvise,
        })
        .collect()
}

/// Applies `op` through the spec API on a plain advisor. Returns the new
/// admission count.
fn apply_spec(advisor: &mut OnlineAdvisor, fx: &Fixture, admits: usize, op: &Op) -> usize {
    match op {
        Op::Admit {
            weight,
            attributed,
            deferred,
        } => {
            let i = admits % fx.models.len();
            let (cache, access) = &fx.models[i];
            let mut spec = AdmissionSpec::new(cache, access)
                .weight(*weight)
                .deferred(*deferred);
            if *attributed {
                spec = spec.templates(&fx.templates[i]);
            }
            let adm = advisor.apply(spec);
            if let Some(t) = adm.pending {
                advisor.readvise_triggered(t);
            }
            admits + 1
        }
        Op::Reweight {
            pick,
            weight,
            deferred,
        } if admits > 0 => {
            let outcome = advisor.reweight((*pick % admits as u64) as usize, *weight, *deferred);
            if let Some(t) = outcome.pending {
                advisor.readvise_triggered(t);
            }
            admits
        }
        Op::Evict { pick } if admits > 0 => {
            advisor.evict_admission((*pick % admits as u64) as usize);
            admits
        }
        Op::Compact => {
            advisor.compact();
            admits
        }
        Op::Readvise => {
            advisor.readvise();
            admits
        }
        // Reweight/evict with nothing admitted yet: no-ops by construction
        // (the ordinal space is empty; the advisor would panic).
        _ => admits,
    }
}

/// `op` journaled through the persistent wrapper.
fn apply_durable(advisor: &mut PersistentAdvisor, fx: &Fixture, admits: usize, op: &Op) -> usize {
    match op {
        Op::Admit {
            weight,
            attributed,
            deferred,
        } => {
            let i = admits % fx.models.len();
            let (cache, access) = &fx.models[i];
            let mut spec = AdmissionSpec::new(cache, access)
                .weight(*weight)
                .deferred(*deferred);
            if *attributed {
                spec = spec.templates(&fx.templates[i]);
            }
            let adm = advisor.apply(spec).expect("journaled apply");
            if let Some(t) = adm.pending {
                advisor.readvise_triggered(t).expect("journaled readvise");
            }
            admits + 1
        }
        Op::Reweight {
            pick,
            weight,
            deferred,
        } if admits > 0 => {
            let ordinal = (*pick % admits as u64) as usize;
            let outcome = advisor
                .reweight(ordinal, *weight, *deferred)
                .expect("journaled reweight");
            if let Some(t) = outcome.pending {
                advisor.readvise_triggered(t).expect("journaled readvise");
            }
            admits
        }
        Op::Evict { pick } if admits > 0 => {
            advisor
                .evict_admission((*pick % admits as u64) as usize)
                .expect("journaled evict");
            admits
        }
        Op::Compact => {
            advisor.compact().expect("journaled compact");
            admits
        }
        Op::Readvise => {
            advisor.readvise().expect("journaled readvise");
            admits
        }
        _ => admits,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// For a random mutation sequence, place the snapshot cut at every
    /// prefix point in turn: restore-plus-replay must land exactly on
    /// the uninterrupted session each time, with zero full re-pricings
    /// spent on the restore itself.
    #[test]
    fn restore_at_every_prefix_equals_the_uninterrupted_session(
        raw in prop::collection::vec(0u64..u64::MAX, 8..=12),
    ) {
        let fx = fx();
        let ops = materialize(&raw);

        let mut baseline = OnlineAdvisor::new(fx.pool.clone(), opts(12, 5));
        let mut admits = 0;
        for op in &ops {
            admits = apply_spec(&mut baseline, fx, admits, op);
        }
        let want = fingerprint(&baseline);

        for cut in 0..=ops.len() {
            let scratch = ScratchDir::new(&format!("prefix-{cut}"));
            let mut durable =
                PersistentAdvisor::create(&scratch.0, fx.pool.clone(), opts(12, 5), 0)
                    .expect("create");
            let mut admits = 0;
            for (i, op) in ops.iter().enumerate() {
                if i == cut {
                    durable.snapshot_now().expect("snapshot at the cut");
                }
                admits = apply_durable(&mut durable, fx, admits, op);
            }
            if cut == ops.len() {
                durable.snapshot_now().expect("snapshot at the end");
            }
            let full_repricings_before = durable.advisor().stats().full_repricings;
            drop(durable);

            let (restored, report) =
                PersistentAdvisor::open(&scratch.0, 0).expect("restore");
            prop_assert!(report.snapshot_seq.is_some(), "cut {cut} must restore from its snapshot");
            prop_assert_eq!(report.log_discarded_bytes, 0);
            prop_assert_eq!(fingerprint(restored.advisor()), want.clone(), "cut {}", cut);
            // The restore adopts serialized per-query costs; replaying the
            // tail re-derives everything else. No full re-pricing beyond
            // what the uninterrupted session itself spent.
            prop_assert_eq!(
                restored.advisor().stats().full_repricings,
                full_repricings_before
            );
        }
    }
}
