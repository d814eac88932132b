//! # pinum-persist: durable advisor state
//!
//! The online daemon's value is the state it accumulates: a streaming
//! [`pinum_core::WorkloadModel`] whose priced totals are *spliced, never
//! rebuilt*, across thousands of admissions. Losing that state to a
//! restart means re-paying every optimizer call the paper's one-call
//! construction saved. This crate makes the state survive:
//!
//! - [`snapshot`] — a versioned binary image of the complete daemon
//!   (model SoA arrays, selection bitset, spliced per-query costs,
//!   attribution books, ordinal bookkeeping, counters), framed like the
//!   wire protocol: magic, format version, length checked against a cap
//!   *before* allocation, FNV-1a 64 checksum verified before decoding.
//! - [`log`] — an append-only record of every mutation the daemon
//!   accepted ([`pinum_online::AdmissionSpec`] payloads, reweights,
//!   evictions, executed deferred triggers, compactions), fsynced
//!   record by record.
//! - [`PersistentAdvisor`] — the write-ahead pairing of the two: log
//!   first, apply second, snapshot every K admissions. Recovery loads
//!   the newest snapshot that validates (falling back to its
//!   predecessor if the final write was torn) and replays the log tail
//!   through the very same [`pinum_online::OnlineAdvisor::apply`] entry
//!   point the live daemon used.
//!
//! The contract is the repo-wide determinism discipline extended across
//! process death: a restored daemon is **bit-identical** to one that
//! never stopped — same selection words, same priced-cost bits, same
//! counters, same future decisions — and the restore itself performs
//! **zero** full re-pricings, because
//! [`pinum_core::PricingSession::restore`] adopts the serialized
//! per-query costs and re-derives the pairwise total tree as the pure
//! function of them that it is. `pinum-bench`'s `warm_restart` test
//! gates this end to end: kill mid-stream, restore, finish the stream,
//! compare every bit against an uninterrupted baseline.
//!
//! [`convert`] (re-exported to `pinum-server`) hosts the validated
//! wire ↔ domain conversions both the TCP daemon and the on-disk
//! formats share.

pub mod codec;
pub mod convert;
pub mod log;
pub mod snapshot;

use pinum_online::{
    Admission, AdmissionSpec, OnlineAdvisor, OnlineAdvisorOptions, ReadviseReport, ReadviseTrigger,
    ReweightOutcome,
};
use pinum_protocol::WireError;
use std::fs;
use std::path::{Path, PathBuf};

use crate::convert::ConvertError;
use crate::log::{encode_admit, encode_record, LogRecord, LogScan, LogWriter};
use crate::snapshot::{list_snapshots, load_latest, write_snapshot};
use pinum_core::CandidatePool;

pub use crate::log::{GroupCommitPolicy, PersistStats};

/// Anything that can go wrong persisting or recovering advisor state.
#[derive(Debug)]
pub enum PersistError {
    /// Filesystem trouble.
    Io(std::io::Error),
    /// Structurally malformed bytes (shares the protocol's error type).
    Wire(WireError),
    /// Structurally valid bytes, or a caller's argument, that violate a
    /// domain invariant (a refused argument is never journaled).
    Convert(ConvertError),
    /// A cross-file or cross-array consistency violation.
    State(&'static str),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "persistence I/O error: {e}"),
            Self::Wire(e) => write!(f, "malformed persisted bytes: {e}"),
            Self::Convert(e) => write!(f, "invalid persisted payload: {e}"),
            Self::State(msg) => write!(f, "inconsistent persisted state: {msg}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

impl From<WireError> for PersistError {
    fn from(e: WireError) -> Self {
        Self::Wire(e)
    }
}

impl From<ConvertError> for PersistError {
    fn from(e: ConvertError) -> Self {
        Self::Convert(e)
    }
}

impl From<&'static str> for PersistError {
    fn from(msg: &'static str) -> Self {
        Self::State(msg)
    }
}

/// What recovery found and did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Log position of the snapshot the daemon was rebuilt from
    /// (`None` ⇒ rebuilt from the log alone, starting at `Create`).
    pub snapshot_seq: Option<u64>,
    /// Newer snapshot files that failed validation and were skipped.
    pub snapshots_discarded: usize,
    /// Log records replayed on top of the snapshot.
    pub replayed: usize,
    /// Bytes discarded behind the first torn or corrupt log record.
    pub log_discarded_bytes: u64,
}

struct Store {
    dir: PathBuf,
    writer: LogWriter,
    /// Sequence number of the last record written (or replayed).
    seq: u64,
    /// Admissions between automatic snapshots (0 = only on request).
    snapshot_every: usize,
    admits_since_snapshot: usize,
    last_snapshot_seq: Option<u64>,
}

/// A write-ahead persistent wrapper around [`OnlineAdvisor`].
///
/// Every mutation is appended to the log *before* it touches the
/// advisor, so a crash between the two replays the mutation on restart
/// rather than losing it. Read accessors pass through via
/// [`Self::advisor`]; mutations **must** go through this wrapper (there
/// is deliberately no `advisor_mut`).
///
/// Construct with [`Self::volatile`] (no disk, zero overhead — the
/// server's default), [`Self::create`] (fresh durable tenant), or
/// [`Self::open`] (recover an existing one).
pub struct PersistentAdvisor {
    advisor: OnlineAdvisor,
    store: Option<Store>,
}

/// The log file name inside a tenant's persistence directory.
pub const LOG_FILE: &str = "events.log";

/// The argument checks [`OnlineAdvisor`] asserts, as values: a mutation
/// they refuse would panic the advisor. The live calls run them before
/// journaling (so a refused call writes nothing); replay runs them on
/// every recovered record (so a poisoned log is a typed error).
fn check_weight(weight: f64) -> Result<(), &'static str> {
    if weight.is_finite() && weight > 0.0 {
        Ok(())
    } else {
        Err("weight must be finite and positive")
    }
}

fn check_ordinal(advisor: &OnlineAdvisor, ordinal: usize) -> Result<(), &'static str> {
    if ordinal < advisor.admission_book_span().1 {
        Ok(())
    } else {
        Err("admission ordinal was never issued")
    }
}

impl PersistentAdvisor {
    /// A purely in-memory advisor — identical behaviour, no disk I/O.
    pub fn volatile(pool: CandidatePool, opts: OnlineAdvisorOptions) -> Self {
        Self {
            advisor: OnlineAdvisor::new(pool, opts),
            store: None,
        }
    }

    /// Creates a fresh durable tenant in `dir` (created if missing). The
    /// `Create` record — pool + options — is on disk when this returns.
    ///
    /// A directory that already holds a log or any snapshot is refused
    /// with [`PersistError::State`] and left untouched: a fresh log
    /// beside an old tenant's snapshots would make the next [`Self::open`]
    /// restore the old state and replay the new log onto it.
    pub fn create(
        dir: &Path,
        pool: CandidatePool,
        opts: OnlineAdvisorOptions,
        snapshot_every: usize,
    ) -> Result<Self, PersistError> {
        opts.validate()?;
        fs::create_dir_all(dir)?;
        if dir.join(LOG_FILE).try_exists()? || !list_snapshots(dir)?.is_empty() {
            return Err(PersistError::State(
                "tenant directory already holds a log or snapshots",
            ));
        }
        let mut writer = LogWriter::create(&dir.join(LOG_FILE))?;
        let create = LogRecord::Create {
            pool: pool.clone(),
            opts,
        };
        writer.append(1, |out| encode_record(out, &create))?;
        Ok(Self {
            advisor: OnlineAdvisor::new(pool, opts),
            store: Some(Store {
                dir: dir.to_path_buf(),
                writer,
                seq: 1,
                snapshot_every,
                admits_since_snapshot: 0,
                last_snapshot_seq: None,
            }),
        })
    }

    /// Recovers a durable tenant from `dir`: newest valid snapshot (a
    /// corrupt final snapshot falls back to its predecessor) plus the
    /// log tail after it, replayed through the same `apply` path the
    /// live daemon used. A torn log tail is truncated and reported —
    /// recovery never panics on a crashed predecessor's leftovers.
    ///
    /// The snapshot is loaded first, so its cut is known before the log
    /// is read. The log is then streamed one record at a time: each
    /// record after the cut is decoded, replayed and dropped, and each
    /// record at or before it is only verified (see [`log`]). Memory is
    /// therefore one snapshot plus one record, whatever the length of
    /// the tenant's history.
    pub fn open(dir: &Path, snapshot_every: usize) -> Result<(Self, RecoveryReport), PersistError> {
        let log_path = dir.join(LOG_FILE);
        let (snap, snapshots_discarded) = load_latest(dir)?;
        let snapshot_seq = snap.as_ref().map(|s| s.log_seq);
        let base_seq = snapshot_seq.unwrap_or(1);
        let mut log = LogScan::open(&log_path, base_seq)?;
        let mut advisor = match snap {
            // `from_parts` validates the options like every other part.
            Some(s) => OnlineAdvisor::from_parts(s.pool, s.opts, s.parts)?,
            None => {
                let Some((_, Some(LogRecord::Create { pool, opts }))) = log.next_record()? else {
                    return Err(PersistError::State(
                        "no valid snapshot and no create record to recover from",
                    ));
                };
                opts.validate()?;
                OnlineAdvisor::new(pool, opts)
            }
        };
        let mut replayed = 0usize;
        let mut admits_replayed = 0usize;
        while let Some((record_seq, record)) = log.next_record()? {
            let Some(record) = record.filter(|_| record_seq > base_seq) else {
                continue;
            };
            replay(&mut advisor, &record)?;
            replayed += 1;
            admits_replayed += usize::from(matches!(record, LogRecord::Admit { .. }));
        }
        // The writer appends and fsyncs before applying, and snapshots
        // cut at the last applied record — so an intact log can only end
        // *at or after* the newest snapshot's cut. Ending before it
        // means the log was damaged mid-file (the reader truncates from
        // the first bad record; nothing was replayed); appending past
        // the snapshot would then leave a sequence gap no future
        // recovery could trust.
        let seq = log.last_seq();
        if seq < base_seq {
            return Err(PersistError::State(
                "log is corrupt before the snapshot cut",
            ));
        }
        let writer = LogWriter::reopen(&log_path, log.valid_len())?;
        let report = RecoveryReport {
            snapshot_seq,
            snapshots_discarded,
            replayed,
            log_discarded_bytes: log.discarded_bytes(),
        };
        Ok((
            Self {
                advisor,
                store: Some(Store {
                    dir: dir.to_path_buf(),
                    writer,
                    seq,
                    snapshot_every,
                    // The replayed tail is already that far from its
                    // snapshot: a tenant that keeps crashing short of
                    // `snapshot_every` must still reach a cut.
                    admits_since_snapshot: admits_replayed,
                    last_snapshot_seq: snapshot_seq,
                }),
            },
            report,
        ))
    }

    /// Read-only view of the wrapped daemon.
    pub fn advisor(&self) -> &OnlineAdvisor {
        &self.advisor
    }

    /// Whether mutations are being journaled to disk.
    pub fn is_durable(&self) -> bool {
        self.store.is_some()
    }

    /// Sequence number of the last logged mutation (0 when volatile).
    pub fn log_seq(&self) -> u64 {
        self.store.as_ref().map_or(0, |s| s.seq)
    }

    /// Log position of the newest snapshot written or recovered from.
    pub fn last_snapshot_seq(&self) -> Option<u64> {
        self.store.as_ref().and_then(|s| s.last_snapshot_seq)
    }

    /// Journals one record write-ahead (no-op when volatile); `body`
    /// writes its tag and body.
    fn journal(&mut self, body: impl FnOnce(&mut Vec<u8>)) -> Result<(), PersistError> {
        if let Some(store) = &mut self.store {
            store.writer.append(store.seq + 1, body)?;
            store.seq += 1;
        }
        Ok(())
    }

    fn append(&mut self, record: &LogRecord) -> Result<(), PersistError> {
        self.journal(|out| encode_record(out, record))
    }

    /// Counts `admitted` admissions toward the next automatic snapshot
    /// and cuts it once `snapshot_every` of them are due (0 = only on
    /// request).
    fn note_admitted(&mut self, admitted: usize) -> Result<(), PersistError> {
        let snapshot_due = self.store.as_mut().is_some_and(|store| {
            store.admits_since_snapshot += admitted;
            store.snapshot_every > 0 && store.admits_since_snapshot >= store.snapshot_every
        });
        if snapshot_due {
            self.snapshot_now()?;
        }
        Ok(())
    }

    /// Journals and applies one admission. On the durable path the spec
    /// payload — encoded straight from the borrowed artifacts — is on
    /// disk before the splice runs (write-ahead), and every
    /// `snapshot_every` admissions a snapshot is cut afterwards. A weight
    /// that is not finite and positive is refused with
    /// [`PersistError::Convert`] and nothing journaled.
    pub fn apply(&mut self, spec: AdmissionSpec<'_>) -> Result<Admission, PersistError> {
        check_weight(spec.weight).map_err(ConvertError)?;
        self.journal(|out| encode_admit(out, &spec))?;
        let admission = self.advisor.apply(spec);
        self.note_admitted(1)?;
        Ok(admission)
    }

    /// Journals and applies a batch of admissions with group-committed
    /// durability: all N specs are encoded as ordinary `Admit` records
    /// and made durable by the log writer's group commit — one buffered
    /// write and **one** fsync per `policy` chunk — *before* any of them
    /// touches the advisor. A crash after the fsync replays the whole
    /// batch (redo semantics: the recovered state equals the
    /// uninterrupted run); a crash mid-write tears between records, so
    /// recovery keeps a valid record prefix and the un-fsynced rest was
    /// never applied.
    ///
    /// Execution goes through
    /// [`OnlineAdvisor::apply_batch_gated`]: triggered re-advises run
    /// inline under a guard from `acquire` (the server's budget permit).
    /// Because they execute at their exact trigger positions, the batch
    /// journals plain inline admissions (`deferred: false`) and no
    /// `Readvise` records — replay re-derives every round, exactly like
    /// the inline serial path. Snapshot accounting advances once per
    /// batch. A batch holding any spec [`Self::apply`] would refuse is
    /// refused whole, with nothing journaled.
    pub fn apply_batch<G>(
        &mut self,
        specs: &[AdmissionSpec<'_>],
        policy: GroupCommitPolicy,
        acquire: impl FnMut(ReadviseTrigger) -> G,
    ) -> Result<Vec<Admission>, PersistError> {
        for spec in specs {
            check_weight(spec.weight).map_err(ConvertError)?;
        }
        if let Some(store) = &mut self.store {
            let inline = specs.iter().map(|spec| spec.deferred(false));
            store.writer.append_batch(store.seq + 1, inline, policy)?;
            store.seq += specs.len() as u64;
        }
        let admissions = self.advisor.apply_batch_gated(specs, acquire);
        self.note_admitted(specs.len())?;
        Ok(admissions)
    }

    /// Durability counters of the underlying log writer (appends,
    /// fsyncs, group-commit batches, largest batch), accumulated since
    /// this process created or reopened the log. Zeroes when volatile.
    /// Snapshot-file fsyncs are not counted — these are write-ahead-log
    /// counters, the denominator of the fsyncs-per-admission gate.
    pub fn persist_stats(&self) -> PersistStats {
        self.store
            .as_ref()
            .map_or_else(PersistStats::default, |s| s.writer.stats())
    }

    /// Journals and applies one reweight event. An ordinal that was never
    /// issued, or a weight that is not finite and positive, is refused
    /// with [`PersistError::Convert`] and nothing journaled.
    pub fn reweight(
        &mut self,
        admission: usize,
        weight: f64,
        deferred: bool,
    ) -> Result<ReweightOutcome, PersistError> {
        check_ordinal(&self.advisor, admission)
            .and(check_weight(weight))
            .map_err(ConvertError)?;
        self.append(&LogRecord::Reweight {
            ordinal: admission as u64,
            weight,
            deferred,
        })?;
        Ok(self.advisor.reweight(admission, weight, deferred))
    }

    /// Journals and applies one explicit eviction. An ordinal that was
    /// never issued is refused like [`Self::reweight`]'s.
    pub fn evict_admission(&mut self, admission: usize) -> Result<bool, PersistError> {
        check_ordinal(&self.advisor, admission).map_err(ConvertError)?;
        self.append(&LogRecord::Evict {
            ordinal: admission as u64,
        })?;
        Ok(self.advisor.evict_admission(admission))
    }

    /// Journals and executes a forced re-advise.
    pub fn readvise(&mut self) -> Result<ReadviseReport, PersistError> {
        self.readvise_triggered(ReadviseTrigger::Forced)
    }

    /// Journals and executes a re-advise under `trigger` — the deferred
    /// counterpart of the inline rounds [`Self::apply`] runs itself.
    /// Inline rounds are deterministic consequences of the admission
    /// stream and are never journaled; this one is, because *when* the
    /// caller releases a deferred trigger is outside the advisor's
    /// control.
    pub fn readvise_triggered(
        &mut self,
        trigger: ReadviseTrigger,
    ) -> Result<ReadviseReport, PersistError> {
        self.append(&LogRecord::Readvise { trigger })?;
        Ok(self.advisor.readvise_triggered(trigger))
    }

    /// Journals and applies an explicit compaction.
    pub fn compact(&mut self) -> Result<(), PersistError> {
        self.append(&LogRecord::Compact)?;
        self.advisor.compact();
        Ok(())
    }

    /// Cuts a snapshot right now. Returns the log position it covers,
    /// or `None` when the advisor is volatile.
    pub fn snapshot_now(&mut self) -> Result<Option<u64>, PersistError> {
        let Some(store) = &mut self.store else {
            return Ok(None);
        };
        write_snapshot(
            &store.dir,
            store.seq,
            self.advisor.pool(),
            self.advisor.options(),
            &self.advisor.to_parts(),
        )?;
        store.admits_since_snapshot = 0;
        store.last_snapshot_seq = Some(store.seq);
        Ok(Some(store.seq))
    }
}

/// Replays one recovered record through the same advisor entry points
/// the live daemon used. Pending triggers returned by deferred specs are
/// dropped here: their *execution* shows up as its own
/// [`LogRecord::Readvise`] record at the position the caller actually
/// released it. A record the live call would have refused is a
/// [`PersistError::State`], never a panic.
fn replay(advisor: &mut OnlineAdvisor, record: &LogRecord) -> Result<(), PersistError> {
    match record {
        LogRecord::Create { .. } => {
            return Err(PersistError::State("duplicate create record in log"))
        }
        LogRecord::Admit {
            cache,
            access,
            weight,
            templates,
            deferred,
        } => {
            check_weight(*weight)?;
            advisor.apply(
                AdmissionSpec::new(cache, access)
                    .weight(*weight)
                    .templates(templates)
                    .deferred(*deferred),
            );
        }
        LogRecord::Reweight {
            ordinal,
            weight,
            deferred,
        } => {
            let ordinal = *ordinal as usize;
            check_ordinal(advisor, ordinal)?;
            check_weight(*weight)?;
            advisor.reweight(ordinal, *weight, *deferred);
        }
        LogRecord::Evict { ordinal } => {
            let ordinal = *ordinal as usize;
            check_ordinal(advisor, ordinal)?;
            advisor.evict_admission(ordinal);
        }
        LogRecord::Readvise { trigger } => {
            advisor.readvise_triggered(*trigger);
        }
        LogRecord::Compact => advisor.compact(),
    }
    Ok(())
}
