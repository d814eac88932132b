//! Property tests for the batched admission pipeline: any chunking of a
//! random admission stream through the batch entry points must be
//! bit-identical — per-spec results, final state fingerprint, journal
//! sequence — to one-at-a-time admission, and must replay identically
//! after a restart. The group-commit optimization is allowed to change
//! how many fsyncs happen, never what state they protect.

mod common;

use common::{fingerprint, fixture, opts, Fixture, ScratchDir};
use pinum_online::{AdmissionSpec, OnlineAdvisor};
use pinum_persist::{GroupCommitPolicy, PersistentAdvisor, LOG_FILE};
use proptest::prelude::*;
use std::sync::OnceLock;

/// The fixture costs real optimizer calls; price it once per process.
fn fx() -> &'static Fixture {
    static FX: OnceLock<Fixture> = OnceLock::new();
    FX.get_or_init(|| fixture(3, 10))
}

/// One sampled admission, derived deterministically from a word.
#[derive(Debug, Clone, Copy)]
struct AdmitSample {
    weight: f64,
    attributed: bool,
}

fn materialize(raw: &[u64]) -> Vec<AdmitSample> {
    raw.iter()
        .map(|&x| AdmitSample {
            weight: 0.25 + (x % 1000) as f64 / 250.0,
            attributed: x & (1 << 40) != 0,
        })
        .collect()
}

/// The inline spec for stream position `i` (fixture models cycle).
fn spec_at(fx: &Fixture, i: usize, s: AdmitSample) -> AdmissionSpec<'_> {
    let slot = i % fx.models.len();
    let (cache, access) = &fx.models[slot];
    let mut spec = AdmissionSpec::new(cache, access).weight(s.weight);
    if s.attributed {
        spec = spec.templates(&fx.templates[slot]);
    }
    spec
}

/// Splits `n` stream positions into chunk lengths 1..=5 driven by the
/// sampled words, so every case exercises a different batching.
fn chunk_lens(n: usize, raw: &[u64]) -> Vec<usize> {
    let mut lens = Vec::new();
    let mut left = n;
    let mut k = 0usize;
    while left > 0 {
        let take = ((raw[k % raw.len()] >> 7) as usize % 5 + 1).min(left);
        lens.push(take);
        left -= take;
        k += 1;
    }
    lens
}

/// Journals and applies `specs` through [`PersistentAdvisor::apply_batch`]
/// in consecutive chunks of the given lengths.
fn apply_chunked(
    advisor: &mut PersistentAdvisor,
    specs: &[AdmissionSpec<'_>],
    lens: &[usize],
    policy: GroupCommitPolicy,
) {
    let mut base = 0usize;
    for &len in lens {
        advisor
            .apply_batch(&specs[base..base + len], policy, |_| ())
            .expect("batched apply");
        base += len;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random admission streams chunked into arbitrary batch sizes
    /// (width 1 included) give bit-identical per-spec results and final
    /// state to N serial inline `apply` calls.
    #[test]
    fn apply_batch_chunks_are_bit_identical_to_serial_apply(
        raw in prop::collection::vec(0u64..u64::MAX, 10..=24),
        chunks in prop::collection::vec(0u64..u64::MAX, 4),
    ) {
        let fx = fx();
        let samples = materialize(&raw);

        let mut serial = OnlineAdvisor::new(fx.pool.clone(), opts(12, 5));
        let serial_adm: Vec<_> = samples
            .iter()
            .enumerate()
            .map(|(i, &s)| serial.apply(spec_at(fx, i, s)))
            .collect();

        let mut batched = OnlineAdvisor::new(fx.pool.clone(), opts(12, 5));
        let mut batched_adm = Vec::new();
        let mut base = 0usize;
        for len in chunk_lens(samples.len(), &chunks) {
            let specs: Vec<_> = (base..base + len)
                .map(|i| spec_at(fx, i, samples[i]))
                .collect();
            batched_adm.extend(batched.apply_batch_gated(&specs, |_| ()));
            base += len;
        }

        prop_assert_eq!(fingerprint(&serial), fingerprint(&batched));
        prop_assert_eq!(serial_adm.len(), batched_adm.len());
        for (i, (s, b)) in serial_adm.iter().zip(&batched_adm).enumerate() {
            prop_assert_eq!(s.qid, b.qid, "qid diverged at {}", i);
            prop_assert_eq!(s.ordinal, b.ordinal, "ordinal diverged at {}", i);
            prop_assert_eq!(s.evicted, b.evicted, "evicted diverged at {}", i);
            prop_assert_eq!(s.pending, b.pending, "pending trigger diverged at {}", i);
            prop_assert_eq!(
                s.readvise.is_some(),
                b.readvise.is_some(),
                "inline re-advise presence diverged at {}", i
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// The durable pipeline: arbitrary chunkings through
    /// [`PersistentAdvisor::apply_batch`] (with a small group-commit
    /// policy, so chunks split across several commits) land on the same
    /// state as the serial gated admission loop the server used before
    /// coalescing, journal exactly one record per admission regardless
    /// of chunking, and replay bit-identically after a restart.
    #[test]
    fn durable_chunkings_agree_with_serial_gated_and_replay(
        raw in prop::collection::vec(0u64..u64::MAX, 8..=16),
        chunks in prop::collection::vec(0u64..u64::MAX, 4),
    ) {
        let fx = fx();
        let samples = materialize(&raw);
        let policy = GroupCommitPolicy { max_records: 3, max_bytes: 1 << 20 };

        // Serial gated reference: deferred spec, then the pending
        // trigger executes immediately — one admission per journal
        // record plus a record per executed re-advise.
        let scratch_serial = ScratchDir::new("batch-serial");
        let mut serial =
            PersistentAdvisor::create(&scratch_serial.0, fx.pool.clone(), opts(12, 5), 0)
                .expect("create serial");
        for (i, &s) in samples.iter().enumerate() {
            let adm = serial
                .apply(spec_at(fx, i, s).deferred(true))
                .expect("serial apply");
            if let Some(t) = adm.pending {
                serial.readvise_triggered(t).expect("serial readvise");
            }
        }
        let want = fingerprint(serial.advisor());

        let scratch = ScratchDir::new("batch-chunked");
        let mut batched =
            PersistentAdvisor::create(&scratch.0, fx.pool.clone(), opts(12, 5), 0)
                .expect("create batched");
        let specs: Vec<_> = samples
            .iter()
            .enumerate()
            .map(|(i, &s)| spec_at(fx, i, s).deferred(true))
            .collect();
        apply_chunked(&mut batched, &specs, &chunk_lens(specs.len(), &chunks), policy);
        prop_assert_eq!(fingerprint(batched.advisor()), want.clone());
        // One Admit record per admission, whatever the chunking. (The
        // serial run's log is longer: it also journals its re-advises.)
        prop_assert_eq!(batched.log_seq(), 1 + samples.len() as u64);
        let stats = batched.persist_stats();
        prop_assert_eq!(stats.appends, samples.len() as u64 + 1);
        prop_assert!(stats.max_batch_records <= policy.max_records as u64);
        drop(batched);

        let (restored, report) = PersistentAdvisor::open(&scratch.0, 0).expect("restore");
        prop_assert_eq!(report.log_discarded_bytes, 0);
        prop_assert_eq!(fingerprint(restored.advisor()), want.clone());
    }

    /// The byte contract: group commit changes how many fsyncs protect
    /// the journal, never its bytes. N serial
    /// [`PersistentAdvisor::apply`] calls, one `apply_batch` of the same
    /// N inline specs, and arbitrary chunkings under a 3-record policy
    /// all leave the same `events.log`.
    #[test]
    fn journal_bytes_do_not_depend_on_how_admissions_are_grouped(
        raw in prop::collection::vec(0u64..u64::MAX, 8..=16),
        chunks in prop::collection::vec(0u64..u64::MAX, 4),
    ) {
        let fx = fx();
        let specs: Vec<_> = materialize(&raw)
            .into_iter()
            .enumerate()
            .map(|(i, s)| spec_at(fx, i, s))
            .collect();

        let scratch = ScratchDir::new("bytes-serial");
        let mut serial =
            PersistentAdvisor::create(&scratch.0, fx.pool.clone(), opts(12, 5), 0)
                .expect("create serial");
        for &spec in &specs {
            serial.apply(spec).expect("serial apply");
        }
        drop(serial);
        let want = std::fs::read(scratch.0.join(LOG_FILE)).expect("read serial log");

        let small = GroupCommitPolicy { max_records: 3, max_bytes: 1 << 20 };
        for (tag, lens, policy) in [
            ("bytes-whole", vec![specs.len()], GroupCommitPolicy::default()),
            ("bytes-chunked", chunk_lens(specs.len(), &chunks), small),
        ] {
            let scratch = ScratchDir::new(tag);
            let mut batched =
                PersistentAdvisor::create(&scratch.0, fx.pool.clone(), opts(12, 5), 0)
                    .expect("create batched");
            apply_chunked(&mut batched, &specs, &lens, policy);
            drop(batched);
            let got = std::fs::read(scratch.0.join(LOG_FILE)).expect("read batched log");
            prop_assert!(got == want, "{} journal differs from the serial one", tag);
        }
    }
}
