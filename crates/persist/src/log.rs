//! The append-only mutation log.
//!
//! Every state-changing call a [`crate::PersistentAdvisor`] accepts is
//! written here *before* it is applied, as one self-checking record:
//!
//! ```text
//! file   := magic:u32 version:u32 record*
//! record := len:u32 payload checksum:u64      (checksum = FNV-1a 64 of payload)
//! payload:= seq:u64 tag:u8 body
//! ```
//!
//! Replaying the records in order through the same advisor code paths
//! reproduces the daemon **bit-identically** — the advisor is
//! deterministic, so the log only needs to capture its *inputs*. That is
//! also why epoch- and drift-triggered re-advises that execute inline
//! never appear in the log: they are consequences of the recorded
//! admissions, and replay re-derives them. Deferred triggers *do* get a
//! [`LogRecord::Readvise`] record at the moment the caller actually
//! executes them, because the budget gate that defers them lives outside
//! the advisor and is free to reorder across admissions.
//!
//! A torn tail (the record being written when the process died) is
//! detected by the length/checksum pair and *truncated*: recovery keeps
//! every record before it and reports the discarded byte count. A
//! corrupt record mid-file poisons everything after it — the reader
//! cannot resynchronize reliably — so the tail from the first bad record
//! onward is discarded the same way.
//!
//! Recovery reads the log as a stream (`LogScan`): one frame at a time
//! through a `BufReader` into one reused buffer, so its memory does not
//! grow with the tenant's history. Only the records after the snapshot
//! cut (plus the seq-1 `Create`, which bounds candidate ids) are
//! *decoded*. A record at or before the cut is *verified*: length cap,
//! checksum, contiguous seq, a known tag, and no `Create` past seq 1.
//! Those checks alone decide where the intact log ends, so a torn tail,
//! a sequence gap or a duplicate create ends or fails recovery whether
//! or not the body is decoded. The body itself is never needed: the
//! snapshot already holds its effect.

use pinum_core::access_costs::AccessCostCatalog;
use pinum_core::cache::PlanCache;
use pinum_core::CandidatePool;
use pinum_online::{AdmissionSpec, OnlineAdvisorOptions, ReadviseTrigger};
use pinum_protocol::wire::{put_bool, put_f64, put_u32, put_u64, put_u8, put_vec, Cursor};
use pinum_protocol::{WireAccessCatalog, WireError, WireIndex, WirePlanCache, WireTemplate};
use std::fs::{File, OpenOptions};
use std::io::{BufReader, Read, Write};
use std::path::Path;

use crate::codec::{self, fnv1a};
use crate::convert::{
    access_from_wire, access_to_wire, cache_from_wire, cache_to_wire, pool_from_wire, pool_to_wire,
    template_from_wire, template_to_wire,
};
use crate::PersistError;

/// Log file magic: `PLOG`.
pub const LOG_MAGIC: u32 = 0x504C_4F47;
/// Bumped on every incompatible layout change.
pub const LOG_VERSION: u32 = 3;
/// Per-record payload cap, checked before allocating (a log record is at
/// most one admission's artifacts — far below this).
pub const MAX_RECORD_LEN: usize = 64 * 1024 * 1024;

/// One logged mutation, in domain terms.
#[derive(Debug, Clone)]
pub enum LogRecord {
    /// The tenant's birth certificate: candidate pool + advisor options.
    /// Always the first record (seq 1); never appears again.
    Create {
        pool: CandidatePool,
        opts: OnlineAdvisorOptions,
    },
    /// One admission — the full [`pinum_online::AdmissionSpec`] payload.
    Admit {
        cache: PlanCache,
        access: AccessCostCatalog,
        weight: f64,
        templates: Vec<TemplateKeyOwned>,
        deferred: bool,
    },
    /// One reweight event against a stable admission ordinal.
    Reweight {
        ordinal: u64,
        weight: f64,
        deferred: bool,
    },
    /// One explicit eviction.
    Evict { ordinal: u64 },
    /// A re-advise executed *by the caller*: a forced round, or a
    /// deferred epoch/drift trigger the budget gate released.
    Readvise { trigger: ReadviseTrigger },
    /// An explicit compaction (re-advise-time auto-compactions are
    /// consequences and are not logged).
    Compact,
}

/// Alias kept for readability in [`LogRecord::Admit`].
pub type TemplateKeyOwned = pinum_query::TemplateKey;

const TAG_CREATE: u8 = 1;
const TAG_ADMIT: u8 = 2;
const TAG_REWEIGHT: u8 = 3;
const TAG_EVICT: u8 = 4;
const TAG_READVISE: u8 = 5;
const TAG_COMPACT: u8 = 6;

fn encode_trigger(out: &mut Vec<u8>, t: ReadviseTrigger) {
    put_u8(
        out,
        match t {
            ReadviseTrigger::Epoch => 0,
            ReadviseTrigger::Drift => 1,
            ReadviseTrigger::Forced => 2,
        },
    );
}

fn decode_trigger(c: &mut Cursor<'_>) -> Result<ReadviseTrigger, WireError> {
    Ok(match c.u8()? {
        0 => ReadviseTrigger::Epoch,
        1 => ReadviseTrigger::Drift,
        2 => ReadviseTrigger::Forced,
        _ => return Err(WireError::Malformed("unknown readvise trigger tag")),
    })
}

/// The `Admit` tag and body, straight from the borrowed artifacts — the
/// one definition of the record's layout. The write path calls it on
/// the caller's spec, so journaling an admission never builds an owned
/// copy of its plan cache.
pub(crate) fn encode_admit(out: &mut Vec<u8>, spec: &AdmissionSpec<'_>) {
    put_u8(out, TAG_ADMIT);
    put_f64(out, spec.weight);
    put_bool(out, spec.deferred);
    cache_to_wire(spec.cache).encode(out);
    access_to_wire(spec.access).encode(out);
    put_vec(out, spec.templates, |o, t| template_to_wire(t).encode(o));
}

/// One record's tag and body (the sequence number is the frame's).
pub(crate) fn encode_record(out: &mut Vec<u8>, record: &LogRecord) {
    match record {
        LogRecord::Create { pool, opts } => {
            put_u8(out, TAG_CREATE);
            put_vec(out, &pool_to_wire(pool), |o, ix| ix.encode(o));
            codec::encode_options(out, opts);
        }
        LogRecord::Admit {
            cache,
            access,
            weight,
            templates,
            deferred,
        } => encode_admit(
            out,
            &AdmissionSpec {
                cache,
                access,
                weight: *weight,
                templates,
                deferred: *deferred,
            },
        ),
        LogRecord::Reweight {
            ordinal,
            weight,
            deferred,
        } => {
            put_u8(out, TAG_REWEIGHT);
            put_u64(out, *ordinal);
            put_f64(out, *weight);
            put_bool(out, *deferred);
        }
        LogRecord::Evict { ordinal } => {
            put_u8(out, TAG_EVICT);
            put_u64(out, *ordinal);
        }
        LogRecord::Readvise { trigger } => {
            put_u8(out, TAG_READVISE);
            encode_trigger(out, *trigger);
        }
        LogRecord::Compact => put_u8(out, TAG_COMPACT),
    }
}

/// One record's body after its `tag`. `pool_len` scopes candidate-id
/// validation for admission payloads; it is `None` only until the
/// `Create` record has been decoded.
fn decode_body(
    tag: u8,
    c: &mut Cursor<'_>,
    pool_len: Option<usize>,
) -> Result<LogRecord, PersistError> {
    let record = match tag {
        TAG_CREATE => {
            let pool = pool_from_wire(&c.vec(4, WireIndex::decode)?)?;
            let opts = codec::decode_options(c)?;
            LogRecord::Create { pool, opts }
        }
        TAG_ADMIT => {
            let pool_len =
                pool_len.ok_or(PersistError::State("admission before the create record"))?;
            let weight = c.f64()?;
            let deferred = c.bool()?;
            let cache = cache_from_wire(&WirePlanCache::decode(c)?)?;
            let access = access_from_wire(&WireAccessCatalog::decode(c)?, pool_len)?;
            let templates = c
                .vec(4, WireTemplate::decode)?
                .iter()
                .map(template_from_wire)
                .collect();
            LogRecord::Admit {
                cache,
                access,
                weight,
                templates,
                deferred,
            }
        }
        TAG_REWEIGHT => LogRecord::Reweight {
            ordinal: c.u64()?,
            weight: c.f64()?,
            deferred: c.bool()?,
        },
        TAG_EVICT => LogRecord::Evict { ordinal: c.u64()? },
        TAG_READVISE => LogRecord::Readvise {
            trigger: decode_trigger(c)?,
        },
        TAG_COMPACT => LogRecord::Compact,
        _ => return Err(WireError::Malformed("unknown log record tag").into()),
    };
    if !c.exhausted() {
        return Err(WireError::Malformed("log record has trailing bytes").into());
    }
    Ok(record)
}

/// Caps on how many records one group commit may fold into a single
/// fsync. A batch that exceeds either cap is split into multiple
/// write+fsync chunks; every chunk still holds at least one record, so
/// an oversized single record passes through rather than wedging.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupCommitPolicy {
    /// Most records folded into one fsync.
    pub max_records: usize,
    /// Most framed bytes (length + payload + checksum) per fsync.
    pub max_bytes: usize,
}

impl Default for GroupCommitPolicy {
    fn default() -> Self {
        Self {
            max_records: 64,
            max_bytes: 8 * 1024 * 1024,
        }
    }
}

impl GroupCommitPolicy {
    /// Normalized caps — zero means "no batching", i.e. one record per
    /// fsync, never "reject everything".
    fn caps(&self) -> (usize, usize) {
        (self.max_records.max(1), self.max_bytes.max(1))
    }
}

/// Durability-side counters for one log writer's lifetime. Group commit
/// is a *count*-based win — fewer fsyncs than appends — so the counters
/// are what the acceptance gate and the wire-level stats report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PersistStats {
    /// Records appended (singly or inside batches).
    pub appends: u64,
    /// `fdatasync` calls issued, including the header sync at create.
    pub fsyncs: u64,
    /// Group-committed chunks written (each cost exactly one fsync).
    pub batches: u64,
    /// Largest record count folded into one fsync.
    pub max_batch_records: u64,
}

/// Append handle over the tenant's `events.log`.
pub struct LogWriter {
    file: File,
    stats: PersistStats,
}

impl LogWriter {
    /// Creates a fresh log (truncating any existing file) and writes the
    /// header.
    pub fn create(path: &Path) -> Result<Self, PersistError> {
        let mut file = File::create(path)?;
        let mut header = Vec::with_capacity(8);
        put_u32(&mut header, LOG_MAGIC);
        put_u32(&mut header, LOG_VERSION);
        file.write_all(&header)?;
        file.sync_data()?;
        Ok(Self {
            file,
            stats: PersistStats {
                fsyncs: 1,
                ..PersistStats::default()
            },
        })
    }

    /// Reopens an existing log for appending. `valid_len` is the byte
    /// length of the intact prefix as found by recovery's scan; anything
    /// beyond it (a torn tail) is truncated away first so new records
    /// never land after garbage.
    pub fn reopen(path: &Path, valid_len: u64) -> Result<Self, PersistError> {
        let file = OpenOptions::new().write(true).open(path)?;
        file.set_len(valid_len)?;
        let mut file = OpenOptions::new().append(true).open(path)?;
        file.flush()?;
        Ok(Self {
            file,
            stats: PersistStats::default(),
        })
    }

    /// Counters accumulated since this writer was created or reopened.
    pub fn stats(&self) -> PersistStats {
        self.stats
    }

    /// One commit: a single write of `framed` (`records` whole frames)
    /// made durable by one `fdatasync`. When this returns, a crash at
    /// any later point replays every record in it; if the process dies
    /// mid-write, recovery keeps the longest valid record *prefix* (each
    /// record carries its own length + checksum frame, so a torn tail
    /// tears between records, never across the reader's framing).
    fn commit(&mut self, framed: &[u8], records: usize) -> Result<(), PersistError> {
        self.file.write_all(framed)?;
        self.file.sync_data()?;
        self.stats.appends += records as u64;
        self.stats.fsyncs += 1;
        Ok(())
    }

    /// Appends one record durably — its own commit, not counted as a
    /// group commit. `body` writes the record's tag and body
    /// ([`encode_record`] or [`encode_admit`]).
    pub(crate) fn append(
        &mut self,
        seq: u64,
        body: impl FnOnce(&mut Vec<u8>),
    ) -> Result<(), PersistError> {
        let mut framed = Vec::new();
        frame(&mut framed, seq, body);
        self.commit(&framed, 1)
    }

    /// Group commit: frames every admission into one contiguous buffer
    /// and makes them durable with **one** [`Self::commit`], splitting
    /// only where `policy` caps are exceeded. Records take consecutive
    /// sequence numbers starting at `first_seq`; the bytes on disk are
    /// those of the same records appended one at a time.
    pub(crate) fn append_batch<'a>(
        &mut self,
        first_seq: u64,
        specs: impl ExactSizeIterator<Item = AdmissionSpec<'a>>,
        policy: GroupCommitPolicy,
    ) -> Result<(), PersistError> {
        let (max_records, max_bytes) = policy.caps();
        let total = specs.len();
        let mut buf = Vec::new();
        let mut in_chunk = 0usize;
        for (i, spec) in specs.enumerate() {
            frame(&mut buf, first_seq + i as u64, |out| {
                encode_admit(out, &spec)
            });
            in_chunk += 1;
            if i + 1 == total || in_chunk >= max_records || buf.len() >= max_bytes {
                self.commit(&buf, in_chunk)?;
                self.stats.batches += 1;
                self.stats.max_batch_records = self.stats.max_batch_records.max(in_chunk as u64);
                buf.clear();
                in_chunk = 0;
            }
        }
        Ok(())
    }
}

/// Appends one framed record to `buf` — `len | seq tag body | checksum`
/// per the module docs — with `body` writing the tag and body.
fn frame(buf: &mut Vec<u8>, seq: u64, body: impl FnOnce(&mut Vec<u8>)) {
    let start = buf.len();
    put_u32(buf, 0); // frame length, patched below
    put_u64(buf, seq);
    body(buf);
    let payload_len = buf.len() - start - 4;
    buf[start..start + 4].copy_from_slice(&(payload_len as u32).to_le_bytes());
    let sum = fnv1a(&buf[start + 4..]);
    put_u64(buf, sum);
}

/// One streaming pass over a log file, stopping cleanly at the first torn
/// or corrupt record. Structural corruption *of the tail* is expected
/// after a crash and is reported, not an error; a bad header, a
/// non-contiguous sequence or a second `Create` is real corruption and
/// fails the whole recovery. Records after `cut` (and the seq-1
/// `Create`) are decoded; the rest are verified only (module docs).
pub(crate) struct LogScan {
    reader: BufReader<File>,
    /// The current record's payload and checksum, reused for every frame.
    frame: Vec<u8>,
    file_len: u64,
    /// Byte length of the intact prefix (header + whole records) so far.
    valid_len: u64,
    /// Sequence number of the last intact record (0 before the first).
    last_seq: u64,
    cut: u64,
    pool_len: Option<usize>,
}

impl LogScan {
    /// Opens `path` and checks its header.
    pub(crate) fn open(path: &Path, cut: u64) -> Result<Self, PersistError> {
        let file = File::open(path)?;
        let file_len = file.metadata()?.len();
        if file_len < 8 {
            return Err(PersistError::State("log file shorter than its header"));
        }
        let mut reader = BufReader::new(file);
        let mut header = [0u8; 8];
        reader.read_exact(&mut header)?;
        let mut c = Cursor::new(&header);
        if c.u32()? != LOG_MAGIC {
            return Err(PersistError::State("log file has the wrong magic"));
        }
        if c.u32()? != LOG_VERSION {
            return Err(PersistError::State("log file has an unsupported version"));
        }
        Ok(Self {
            reader,
            frame: Vec::new(),
            file_len,
            valid_len: 8,
            last_seq: 0,
            cut,
            pool_len: None,
        })
    }

    /// The next intact record — `Some(record)` if decoded, `None` if only
    /// verified — or `Ok(None)` where the intact log ends.
    pub(crate) fn next_record(&mut self) -> Result<Option<(u64, Option<LogRecord>)>, PersistError> {
        // Frame: len u32 + payload + checksum u64. Anything that does
        // not parse from here on is a torn tail. The length is checked
        // against the cap and the bytes left before anything is read.
        let rest = self.file_len - self.valid_len;
        if rest < 12 {
            return Ok(None);
        }
        let mut len = [0u8; 4];
        self.reader.read_exact(&mut len)?;
        let len = u32::from_le_bytes(len) as usize;
        if len > MAX_RECORD_LEN || rest < 12 + len as u64 {
            return Ok(None);
        }
        self.frame.resize(len + 8, 0);
        self.reader.read_exact(&mut self.frame)?;
        let (payload, stored) = self.frame.split_at(len);
        if fnv1a(payload) != u64::from_le_bytes(stored.try_into().expect("8-byte checksum")) {
            return Ok(None);
        }
        let mut c = Cursor::new(payload);
        let (Ok(seq), Ok(tag)) = (c.u64(), c.u8()) else {
            return Ok(None);
        };
        let record = if seq == 1 || seq > self.cut {
            match decode_body(tag, &mut c, self.pool_len) {
                Ok(record) => Some(record),
                Err(_) => return Ok(None),
            }
        } else if (TAG_CREATE..=TAG_COMPACT).contains(&tag) {
            None
        } else {
            return Ok(None);
        };
        if seq != self.last_seq + 1 {
            return Err(PersistError::State("log sequence numbers not contiguous"));
        }
        if tag == TAG_CREATE && seq != 1 {
            return Err(PersistError::State("duplicate create record in log"));
        }
        if let Some(LogRecord::Create { pool, .. }) = &record {
            self.pool_len = Some(pool.len());
        }
        self.last_seq = seq;
        self.valid_len += 12 + len as u64;
        Ok(Some((seq, record)))
    }

    /// Sequence number of the last intact record read so far.
    pub(crate) fn last_seq(&self) -> u64 {
        self.last_seq
    }

    /// Byte length of the intact prefix read so far.
    pub(crate) fn valid_len(&self) -> u64 {
        self.valid_len
    }

    /// Bytes behind the intact prefix (once the scan has ended: the torn
    /// or corrupt tail).
    pub(crate) fn discarded_bytes(&self) -> u64 {
        self.file_len - self.valid_len
    }
}
