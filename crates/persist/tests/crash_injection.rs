//! Crash injection: every way a predecessor process can die mid-write
//! must leave a directory the next process either recovers from
//! bit-identically (reporting what it discarded) or rejects with a typed
//! error — mirroring the protocol crate's recoverable-vs-fatal split.
//! Never a panic.

mod common;

use common::{fingerprint, fixture, opts, Fixture, ScratchDir};
use pinum_online::{AdmissionSpec, OnlineAdvisor};
use pinum_persist::codec::fnv1a;
use pinum_persist::log::LOG_VERSION;
use pinum_persist::snapshot::{read_snapshot, SNAPSHOT_VERSION};
use pinum_persist::{GroupCommitPolicy, PersistError, PersistentAdvisor, LOG_FILE};
use std::path::Path;

/// One stream position's spec: the fixture's weight and templates.
fn spec_at(fx: &Fixture, i: usize) -> AdmissionSpec<'_> {
    let (cache, access) = &fx.models[i];
    AdmissionSpec::new(cache, access)
        .weight(fx.weights[i])
        .templates(&fx.templates[i])
}

/// Drives admissions `range` — plus a deterministic sprinkle of
/// reweights — through the journaled advisor.
fn drive_durable(advisor: &mut PersistentAdvisor, fx: &Fixture, range: std::ops::Range<usize>) {
    for i in range {
        advisor.apply(spec_at(fx, i)).expect("apply");
        if i % 4 == 3 {
            advisor
                .reweight(i, fx.weights[i] * 1.5, false)
                .expect("reweight");
        }
    }
}

/// The identical stream through a plain in-memory advisor.
fn drive_volatile(advisor: &mut OnlineAdvisor, fx: &Fixture, range: std::ops::Range<usize>) {
    for i in range {
        advisor.apply(spec_at(fx, i));
        if i % 4 == 3 {
            advisor.reweight(i, fx.weights[i] * 1.5, false);
        }
    }
}

fn flip_byte(path: &Path, offset_from_end: usize) {
    let mut bytes = std::fs::read(path).expect("read file");
    let len = bytes.len();
    assert!(offset_from_end < len);
    bytes[len - 1 - offset_from_end] ^= 0xFF;
    std::fs::write(path, bytes).expect("write file");
}

fn truncate_by(path: &Path, bytes: u64) {
    let len = std::fs::metadata(path).expect("stat").len();
    let f = std::fs::OpenOptions::new()
        .write(true)
        .open(path)
        .expect("open");
    f.set_len(len - bytes).expect("truncate");
}

fn newest_snapshot(dir: &Path) -> std::path::PathBuf {
    let mut snaps: Vec<_> = std::fs::read_dir(dir)
        .expect("read dir")
        .map(|e| e.expect("entry").path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("snap-") && n.ends_with(".bin"))
        })
        .collect();
    snaps.sort();
    snaps.pop().expect("at least one snapshot")
}

#[test]
fn torn_log_tail_is_truncated_and_reported() {
    let fx = fixture(2, 10);
    let scratch = ScratchDir::new("torn-tail");
    let n = fx.models.len();

    let mut durable =
        PersistentAdvisor::create(&scratch.0, fx.pool.clone(), opts(12, 5), 0).expect("create");
    drive_durable(&mut durable, &fx, 0..n);
    let full_log_seq = durable.log_seq();
    drop(durable);

    // Tear the final record: strip a few bytes, as a crash mid-append
    // would. The final admission lands on seq `full_log_seq`; recovery
    // must keep everything before it and report the discarded bytes.
    truncate_by(&scratch.0.join(LOG_FILE), 5);
    let (restored, report) = PersistentAdvisor::open(&scratch.0, 0).expect("open");
    assert!(
        report.log_discarded_bytes > 0,
        "torn bytes must be reported"
    );
    assert_eq!(report.snapshot_seq, None, "no snapshot was ever cut");
    assert_eq!(restored.log_seq(), full_log_seq - 1);

    // Bit-identical to a session that simply never saw the torn record.
    // The stream's last position (i = 19) admits and then reweights, so
    // the torn final record is that reweight: the prefix baseline is the
    // whole stream minus it.
    let mut prefix = OnlineAdvisor::new(fx.pool.clone(), opts(12, 5));
    drive_volatile(&mut prefix, &fx, 0..n - 1);
    prefix.apply(spec_at(&fx, n - 1));
    assert_eq!(fingerprint(restored.advisor()), fingerprint(&prefix));
}

#[test]
fn corrupt_final_snapshot_falls_back_to_its_predecessor() {
    let fx = fixture(2, 10);
    let scratch = ScratchDir::new("bad-snap");
    let n = fx.models.len();

    let mut durable =
        PersistentAdvisor::create(&scratch.0, fx.pool.clone(), opts(12, 5), 4).expect("create");
    drive_durable(&mut durable, &fx, 0..n);
    assert!(
        durable.last_snapshot_seq().is_some(),
        "snapshot_every=4 over {n} admissions must have cut snapshots"
    );
    drop(durable);

    // Corrupt the newest snapshot's payload; the kept predecessor must
    // take over, with a longer log replay making up the difference.
    flip_byte(&newest_snapshot(&scratch.0), 20);
    let (restored, report) = PersistentAdvisor::open(&scratch.0, 4).expect("open");
    assert_eq!(report.snapshots_discarded, 1);
    assert!(
        report.replayed > 0,
        "the fallback snapshot is older, so some log tail must replay"
    );

    let mut baseline = OnlineAdvisor::new(fx.pool.clone(), opts(12, 5));
    drive_volatile(&mut baseline, &fx, 0..n);
    assert_eq!(fingerprint(restored.advisor()), fingerprint(&baseline));
}

#[test]
fn torn_snapshot_write_and_torn_log_tail_together_still_recover() {
    let fx = fixture(2, 10);
    let scratch = ScratchDir::new("double-fault");
    let n = fx.models.len();

    let mut durable =
        PersistentAdvisor::create(&scratch.0, fx.pool.clone(), opts(12, 5), 4).expect("create");
    drive_durable(&mut durable, &fx, 0..n);
    drop(durable);

    // A crash that interrupted the final snapshot AND tore the log tail:
    // truncate the newest snapshot (a torn rename-source write) and
    // clip the log's last record.
    truncate_by(&newest_snapshot(&scratch.0), 40);
    truncate_by(&scratch.0.join(LOG_FILE), 3);
    let (restored, report) = PersistentAdvisor::open(&scratch.0, 4).expect("open");
    assert_eq!(report.snapshots_discarded, 1);
    assert!(report.log_discarded_bytes > 0);

    let mut prefix = OnlineAdvisor::new(fx.pool.clone(), opts(12, 5));
    drive_volatile(&mut prefix, &fx, 0..n - 1);
    prefix.apply(spec_at(&fx, n - 1));
    assert_eq!(fingerprint(restored.advisor()), fingerprint(&prefix));

    // And the survivor keeps journaling: re-apply the lost reweight (the
    // torn final record) and land exactly on the uninterrupted run.
    let mut restored = restored;
    restored
        .reweight(n - 1, fx.weights[n - 1] * 1.5, false)
        .expect("reweight");
    let mut baseline = OnlineAdvisor::new(fx.pool.clone(), opts(12, 5));
    drive_volatile(&mut baseline, &fx, 0..n);
    assert_eq!(fingerprint(restored.advisor()), fingerprint(&baseline));
}

#[test]
fn mid_log_corruption_before_the_snapshot_cut_is_a_typed_error() {
    let fx = fixture(2, 10);
    let scratch = ScratchDir::new("mid-log");
    let n = fx.models.len();

    let mut durable =
        PersistentAdvisor::create(&scratch.0, fx.pool.clone(), opts(12, 5), 4).expect("create");
    drive_durable(&mut durable, &fx, 0..n);
    durable.snapshot_now().expect("snapshot at the very end");
    drop(durable);

    // Corrupt the log deep before the snapshot cut (inside the large
    // `Create` record). The reader must truncate from the first bad
    // record, leaving an intact log that ends before the snapshot —
    // appending there would create an untrustworthy sequence gap, so
    // recovery refuses with a typed error instead of panicking or
    // silently rewriting history.
    let log = scratch.0.join(LOG_FILE);
    flip_byte(
        &log,
        std::fs::metadata(&log).expect("stat").len() as usize - 100,
    );
    match PersistentAdvisor::open(&scratch.0, 4) {
        Err(PersistError::State(msg)) => {
            assert!(msg.contains("snapshot cut"), "unexpected message: {msg}")
        }
        Err(other) => panic!("expected a typed state error, got {other:?}"),
        Ok(_) => panic!("recovery must refuse a log corrupted before the snapshot cut"),
    }
}

/// The on-disk tags of `Admit` and `Reweight` records.
const TAG_ADMIT: u8 = 2;
const TAG_REWEIGHT: u8 = 3;

/// Rewrites, in place, the payload (`seq tag body`) of the first record
/// tagged `tag` whose seq `pick` accepts, then fixes up its checksum: the
/// frame stays intact and only what it holds changes. Returns the
/// record's seq and the byte offset its frame starts at.
fn rewrite_record(
    log: &Path,
    tag: u8,
    pick: impl Fn(u64) -> bool,
    edit: impl FnOnce(&mut [u8]),
) -> (u64, usize) {
    let mut bytes = std::fs::read(log).expect("read log");
    let mut off = 8usize;
    while off < bytes.len() {
        let len = u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap()) as usize;
        let payload = off + 4..off + 4 + len;
        let seq = u64::from_le_bytes(bytes[payload.start..payload.start + 8].try_into().unwrap());
        if bytes[payload.start + 8] == tag && pick(seq) {
            edit(&mut bytes[payload.clone()]);
            let sum = fnv1a(&bytes[payload.clone()]);
            bytes[payload.end..payload.end + 8].copy_from_slice(&sum.to_le_bytes());
            std::fs::write(log, bytes).expect("rewrite log");
            return (seq, off);
        }
        off = payload.end + 8;
    }
    panic!("no record tagged {tag} matched");
}

/// A body that cannot decode: the `deferred` flag right after the weight
/// becomes 0xFF, which is not a bool.
fn garble_body(payload: &mut [u8]) {
    payload[9..].fill(0xFF);
}

/// `result` must be a `PersistError::State` whose message contains `want`.
fn expect_state_error<T>(result: Result<T, PersistError>, want: &str) {
    match result {
        Err(PersistError::State(msg)) => {
            assert!(msg.contains(want), "expected {want:?}, got {msg:?}")
        }
        Err(other) => panic!("expected a typed state error ({want}), got {other:?}"),
        Ok(_) => panic!("the call must refuse ({want})"),
    }
}

#[test]
fn records_before_the_snapshot_cut_are_verified_not_decoded() {
    let fx = fixture(2, 10);
    let scratch = ScratchDir::new("verify-not-decode");
    let n = fx.models.len();

    // Cuts after the 8th and 16th admissions; the 16th is followed by a
    // reweight, so the tail after the newest cut is a reweight and then
    // admissions 16..20.
    let mut durable =
        PersistentAdvisor::create(&scratch.0, fx.pool.clone(), opts(12, 5), 8).expect("create");
    drive_durable(&mut durable, &fx, 0..n);
    let cut = durable.last_snapshot_seq().expect("snapshots were cut");
    let log_seq = durable.log_seq();
    drop(durable);
    let log = scratch.0.join(LOG_FILE);
    let pristine = std::fs::read(&log).expect("read log");
    let mut baseline = OnlineAdvisor::new(fx.pool.clone(), opts(12, 5));
    drive_volatile(&mut baseline, &fx, 0..n);

    // (a) A pre-cut body that does not decode, under a valid checksum: the
    // snapshot already holds its effect, so recovery never reads it.
    rewrite_record(&log, TAG_ADMIT, |seq| seq <= cut, garble_body);
    let (restored, report) = PersistentAdvisor::open(&scratch.0, 8).expect("open (a)");
    assert_eq!(report.snapshot_seq, Some(cut));
    assert_eq!(report.replayed as u64, log_seq - cut);
    assert_eq!(report.log_discarded_bytes, 0);
    assert_eq!(fingerprint(restored.advisor()), fingerprint(&baseline));
    drop(restored);

    // (b) An unknown tag before the cut still ends the intact log there.
    std::fs::write(&log, &pristine).expect("restore log");
    rewrite_record(&log, TAG_ADMIT, |seq| seq <= cut, |p| p[8] = 0xEE);
    expect_state_error(PersistentAdvisor::open(&scratch.0, 8), "snapshot cut");

    // (c) A second `Create` before the cut is a typed refusal.
    std::fs::write(&log, &pristine).expect("restore log");
    rewrite_record(&log, TAG_ADMIT, |seq| seq <= cut, |p| p[8] = 1);
    expect_state_error(PersistentAdvisor::open(&scratch.0, 8), "duplicate create");

    // (d) After the cut, (a)'s corruption ends the log, as a torn tail does.
    std::fs::write(&log, &pristine).expect("restore log");
    let (bad_seq, bad_off) = rewrite_record(&log, TAG_ADMIT, |seq| seq > cut, garble_body);
    let (restored, report) = PersistentAdvisor::open(&scratch.0, 8).expect("open (d)");
    assert_eq!(restored.log_seq(), bad_seq - 1);
    assert_eq!(report.replayed as u64, bad_seq - 1 - cut);
    assert_eq!(
        report.log_discarded_bytes,
        (pristine.len() - bad_off) as u64
    );
    let admitted = restored.advisor().stats().admits;
    let mut prefix = OnlineAdvisor::new(fx.pool.clone(), opts(12, 5));
    drive_volatile(&mut prefix, &fx, 0..admitted);
    assert_eq!(fingerprint(restored.advisor()), fingerprint(&prefix));
}

#[test]
fn create_refuses_a_directory_that_holds_a_tenant() {
    let fx = fixture(1, 4);
    let scratch = ScratchDir::new("create-over");
    let mut durable =
        PersistentAdvisor::create(&scratch.0, fx.pool.clone(), opts(8, 4), 2).expect("create");
    drive_durable(&mut durable, &fx, 0..4);
    assert!(durable.last_snapshot_seq().is_some());
    drop(durable);

    let contents = |dir: &Path| {
        let mut files: Vec<_> = std::fs::read_dir(dir)
            .expect("read dir")
            .map(|e| {
                let path = e.expect("entry").path();
                let bytes = std::fs::read(&path).expect("read file");
                (path, bytes)
            })
            .collect();
        files.sort();
        files
    };
    // A log with snapshots, then snapshots alone (the log lost): either
    // way a fresh tenant would restore the old one's snapshot.
    for lose_log in [false, true] {
        if lose_log {
            std::fs::remove_file(scratch.0.join(LOG_FILE)).expect("remove log");
        }
        let before = contents(&scratch.0);
        expect_state_error(
            PersistentAdvisor::create(&scratch.0, fx.pool.clone(), opts(8, 4), 2),
            "already holds",
        );
        assert!(
            contents(&scratch.0) == before,
            "the refused create changed the directory"
        );
    }
}

#[test]
fn torn_group_committed_batch_tail_replays_the_longest_valid_prefix() {
    // Small on purpose: the sweep below runs one full recovery per byte
    // of the group-committed batch's span.
    let fx = fixture(1, 4);
    let scratch = ScratchDir::new("torn-batch");
    let n = fx.models.len();

    let mut durable =
        PersistentAdvisor::create(&scratch.0, fx.pool.clone(), opts(8, 4), 0).expect("create");
    let specs: Vec<AdmissionSpec<'_>> = (0..n).map(|i| spec_at(&fx, i)).collect();
    durable
        .apply_batch(&specs, GroupCommitPolicy::default(), |_| ())
        .expect("apply batch");
    assert_eq!(durable.log_seq(), 1 + n as u64);
    drop(durable);

    // Expected advisor state after each possible surviving prefix.
    let baselines: Vec<_> = (0..=n)
        .map(|k| {
            let mut adv = OnlineAdvisor::new(fx.pool.clone(), opts(8, 4));
            for i in 0..k {
                adv.apply(spec_at(&fx, i));
            }
            fingerprint(&adv)
        })
        .collect();

    // Frame boundaries from the on-disk layout: an 8-byte header, then
    // per record `[len u32][payload][checksum u64]`. `boundaries[m]` is
    // the byte just past record m+1; `boundaries[0]` ends `Create`.
    let log = scratch.0.join(LOG_FILE);
    let bytes = std::fs::read(&log).expect("read log");
    let mut boundaries = Vec::new();
    let mut off = 8usize;
    while off < bytes.len() {
        let len = u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap()) as usize;
        off += 4 + len + 8;
        boundaries.push(off);
    }
    assert_eq!(off, bytes.len(), "log parses cleanly frame by frame");
    assert_eq!(
        boundaries.len(),
        1 + n,
        "Create plus one frame per admission"
    );

    // The batch went down in one buffered write; a crash can cut it at
    // ANY byte. Every cut must recover the longest valid record prefix,
    // report exactly the torn remainder, and land bit-identical to a
    // serial run that stopped at the same prefix — never panic.
    for cut in boundaries[0]..=bytes.len() {
        std::fs::write(&log, &bytes[..cut]).expect("rewrite truncated log");
        let (restored, report) = PersistentAdvisor::open(&scratch.0, 0).expect("open at torn cut");
        let valid_records = boundaries.iter().filter(|&&b| b <= cut).count();
        let admits = valid_records - 1; // minus the Create record
        assert_eq!(
            restored.log_seq(),
            valid_records as u64,
            "cut at byte {cut}"
        );
        assert_eq!(
            report.log_discarded_bytes,
            (cut - boundaries[valid_records - 1]) as u64,
            "cut at byte {cut}"
        );
        assert_eq!(
            fingerprint(restored.advisor()),
            baselines[admits],
            "cut at byte {cut} diverged from the {admits}-admission prefix"
        );
    }
}

#[test]
fn a_tenant_crashing_short_of_the_snapshot_cadence_still_cuts_one() {
    let fx = fixture(1, 4);
    let scratch = ScratchDir::new("crash-loop");

    let mut durable =
        PersistentAdvisor::create(&scratch.0, fx.pool.clone(), opts(8, 4), 4).expect("create");
    for i in 0..3 {
        durable.apply(spec_at(&fx, i)).expect("apply");
    }
    assert_eq!(durable.last_snapshot_seq(), None, "3 < snapshot_every");
    drop(durable);

    // The replayed tail counts toward the cadence: the fourth admission
    // since the (absent) snapshot is due a cut even though this process
    // journaled only one. Otherwise a crash loop shorter than
    // `snapshot_every` grows the replayed tail without bound.
    let (mut restored, report) = PersistentAdvisor::open(&scratch.0, 4).expect("open");
    assert_eq!(report.replayed, 3);
    assert_eq!(
        restored.last_snapshot_seq(),
        None,
        "open itself cuts nothing"
    );
    restored.apply(spec_at(&fx, 3)).expect("apply");
    assert_eq!(
        restored.last_snapshot_seq(),
        Some(restored.log_seq()),
        "the snapshot must cover all four admissions"
    );
    assert_eq!(restored.log_seq(), 5, "Create plus four admissions");
}

#[test]
fn snapshot_failures_propagate_instead_of_being_swallowed() {
    let fx = fixture(1, 4);
    let scratch = ScratchDir::new("snap-error");
    let dir = scratch.0.join("tenant");

    let mut durable =
        PersistentAdvisor::create(&dir, fx.pool.clone(), opts(8, 4), 0).expect("create");
    drive_durable(&mut durable, &fx, 0..2);
    assert!(durable.snapshot_now().expect("healthy snapshot").is_some());

    // Pull the tenant directory out from under the advisor. Every step
    // of the snapshot write — temp file, rename, and the directory fsync
    // that makes the rename itself durable — must now surface as a typed
    // I/O error. The directory fsync in particular used to be swallowed;
    // this pins the choice that it propagates like the rest.
    std::fs::remove_dir_all(&dir).expect("remove tenant dir");
    assert!(matches!(durable.snapshot_now(), Err(PersistError::Io(_))));
}

#[test]
fn create_then_open_round_trips_and_missing_dirs_are_io_errors() {
    let fx = fixture(2, 4);
    let scratch = ScratchDir::new("create-then-open");
    let missing = scratch.0.join("never-created");
    assert!(matches!(
        PersistentAdvisor::open(&missing, 0),
        Err(PersistError::Io(_))
    ));

    // `create` makes the missing directory; `open` recovers from it.
    let dir = scratch.0.join("tenant");
    let mut advisor =
        PersistentAdvisor::create(&dir, fx.pool.clone(), opts(8, 4), 0).expect("create");
    drive_durable(&mut advisor, &fx, 0..4);
    let before = fingerprint(advisor.advisor());
    drop(advisor);

    let (reopened, report) = PersistentAdvisor::open(&dir, 0).expect("reopen");
    assert_eq!(report.replayed, 5, "4 admissions + 1 reweight");
    assert_eq!(fingerprint(reopened.advisor()), before);
}

/// An admission whose nested-loop plan probes an index with finite,
/// in-domain inputs that overflow the index-scan formula to +∞ at the
/// plan's loop count (`probe_coefs` 1000, `heap_rows = index_rows =
/// 1e308`, `heap_pages = 2^40`). The workload model drops that arm, so
/// the snapshot the tenant cuts holds only finite arms and its own
/// restore accepts it.
#[test]
fn an_admission_with_an_overflowing_probe_survives_snapshot_and_reopen() {
    use pinum_core::{AccessCostCatalog, CachedPlan, CandidateAccess, PlanCache};
    use pinum_cost::scan::IndexScanInput;
    use pinum_cost::CostParams;
    use pinum_query::{InterestingOrders, Ioc};

    const ORDER: u16 = 7;
    let mut cache = PlanCache::new("nlj", 1, InterestingOrders::new(vec![vec![ORDER]]));
    for (description, ordered, internal, coef, pcoef) in [
        ("scan", false, 1000.0, 1.0, 0.0),
        ("probe", true, 10.0, 0.0, 1000.0),
    ] {
        cache.insert(CachedPlan {
            ioc: if ordered {
                Ioc::NONE.with_order(0, 0)
            } else {
                Ioc::NONE
            },
            internal,
            coefs: vec![coef],
            probe_coefs: vec![pcoef],
            uses_nlj: ordered,
            rows: 1.0,
            description: description.into(),
        });
    }
    let huge = IndexScanInput {
        index_rows: 1e308,
        heap_rows: 1e308,
        heap_pages: 1 << 40,
        ..IndexScanInput::default()
    };
    let entry = |candidate, order, cost, probe| CandidateAccess {
        candidate,
        order,
        cost,
        probe,
    };
    let access = AccessCostCatalog::from_parts(
        vec![vec![
            entry(Some(0), Some(ORDER), 10.0, Some(IndexScanInput::default())),
            entry(Some(1), Some(ORDER), 20.0, Some(huge)),
            entry(None, None, 50.0, None),
        ]],
        CostParams::default(),
    );

    let fx = fixture(1, 4);
    let scratch = ScratchDir::new("overflowing-probe");
    let mut advisor =
        PersistentAdvisor::create(&scratch.0, fx.pool.clone(), opts(8, 4), 0).expect("create");
    drive_durable(&mut advisor, &fx, 0..2);
    advisor
        .apply(AdmissionSpec::new(&cache, &access))
        .expect("apply");
    drive_durable(&mut advisor, &fx, 2..4);
    advisor.snapshot_now().expect("snapshot");
    let before = fingerprint(advisor.advisor());
    drop(advisor);

    let (reopened, report) = PersistentAdvisor::open(&scratch.0, 0).expect("reopen");
    assert_eq!(report.replayed, 0, "everything is in the snapshot");
    assert_eq!(fingerprint(reopened.advisor()), before);
}

#[test]
fn refused_arguments_write_nothing_and_the_log_still_opens() {
    let fx = fixture(1, 4);
    let scratch = ScratchDir::new("refused-args");
    let log = scratch.0.join(LOG_FILE);
    let mut durable =
        PersistentAdvisor::create(&scratch.0, fx.pool.clone(), opts(8, 4), 0).expect("create");
    drive_durable(&mut durable, &fx, 0..4);
    let pristine = std::fs::read(&log).expect("read log");
    let before = fingerprint(durable.advisor());

    // Each argument the advisor would panic on is refused before it is
    // journaled: the call errors, the log keeps its bytes, the advisor
    // its state. A batch holding one bad spec is refused whole.
    let check = |what: &str, err: Option<PersistError>, durable: &PersistentAdvisor| {
        assert!(
            matches!(err, Some(PersistError::Convert(_))),
            "{what}: expected a refusal, got {err:?}"
        );
        assert!(
            std::fs::read(&log).expect("read log") == pristine,
            "{what} wrote to the log"
        );
        assert_eq!(fingerprint(durable.advisor()), before, "{what}");
    };
    let nan = spec_at(&fx, 0).weight(f64::NAN);
    let err = durable.reweight(999, 1.0, false).err();
    check("never-issued reweight", err, &durable);
    let err = durable.reweight(0, f64::NAN, false).err();
    check("NaN reweight", err, &durable);
    let err = durable.evict_admission(999).err();
    check("never-issued evict", err, &durable);
    let err = durable.apply(nan).err();
    check("NaN apply", err, &durable);
    let err = durable
        .apply_batch(
            &[spec_at(&fx, 1), nan],
            GroupCommitPolicy::default(),
            |_| (),
        )
        .err();
    check("batch with a NaN spec", err, &durable);
    drop(durable);
    let (restored, report) = PersistentAdvisor::open(&scratch.0, 0).expect("open");
    assert_eq!(report.log_discarded_bytes, 0);
    assert_eq!(fingerprint(restored.advisor()), before);
    drop(restored);

    // A record the live call would have refused, should one reach the
    // log anyway, is a typed error on replay.
    rewrite_record(
        &log,
        TAG_ADMIT,
        |_| true,
        |p| p[9..17].copy_from_slice(&f64::NAN.to_le_bytes()),
    );
    expect_state_error(PersistentAdvisor::open(&scratch.0, 0), "weight");
    std::fs::write(&log, &pristine).expect("restore log");
    rewrite_record(
        &log,
        TAG_REWEIGHT,
        |_| true,
        |p| p[9..17].copy_from_slice(&999u64.to_le_bytes()),
    );
    expect_state_error(PersistentAdvisor::open(&scratch.0, 0), "never issued");
}

#[test]
fn an_old_format_tenant_is_refused_typed() {
    let fx = fixture(1, 4);
    let scratch = ScratchDir::new("old-format");
    let mut durable =
        PersistentAdvisor::create(&scratch.0, fx.pool.clone(), opts(8, 4), 2).expect("create");
    drive_durable(&mut durable, &fx, 0..4);
    assert!(durable.last_snapshot_seq().is_some());
    drop(durable);

    // Rewrite the version word after each file's magic to the previous
    // format's: both readers refuse at the header, before any body.
    let set_version = |path: &Path, version: u32| {
        let mut bytes = std::fs::read(path).expect("read file");
        bytes[4..8].copy_from_slice(&version.to_le_bytes());
        std::fs::write(path, bytes).expect("write file");
    };
    let snap = newest_snapshot(&scratch.0);
    set_version(&snap, SNAPSHOT_VERSION - 1);
    expect_state_error(read_snapshot(&snap), "unsupported version");
    set_version(&scratch.0.join(LOG_FILE), LOG_VERSION - 1);
    expect_state_error(
        PersistentAdvisor::open(&scratch.0, 2),
        "unsupported version",
    );
}
