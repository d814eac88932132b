//! Versioned binary snapshots of the full daemon state.
//!
//! ```text
//! file    := magic:u32 version:u32 payload_len:u64 payload checksum:u64
//! payload := log_seq:u64 pool options advisor-parts
//! ```
//!
//! A snapshot is a *cut* through the mutation log: `log_seq` names the
//! last log record already folded into the serialized state, so recovery
//! loads the snapshot and replays only the records after it. Snapshots
//! are written to `snap-<log_seq>.bin` via a temp file + atomic rename
//! (a torn write leaves the previous snapshot untouched), and the two
//! newest files are kept so a corrupt final snapshot falls back to its
//! predecessor — with a longer replay, never with data loss.
//!
//! The payload length is capped and checked **before** allocating, and
//! the trailing FNV-1a 64 checksum is verified before any decoding, so a
//! truncated, padded, or bit-flipped file is rejected with a typed error.

use pinum_core::CandidatePool;
use pinum_online::{OnlineAdvisorOptions, OnlineAdvisorParts};
use pinum_protocol::wire::{put_u32, put_u64, put_vec, Cursor};
use pinum_protocol::{WireError, WireIndex};
use std::fs::{self, File};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

use crate::codec::{self, fnv1a};
use crate::convert::{pool_from_wire, pool_to_wire};
use crate::PersistError;

/// Snapshot file magic: `PSNP`.
pub const SNAPSHOT_MAGIC: u32 = 0x5053_4E50;
/// Bumped on every incompatible layout change.
pub const SNAPSHOT_VERSION: u32 = 3;
/// Payload cap, checked against the actual file size before allocating.
pub const MAX_SNAPSHOT_LEN: usize = 256 * 1024 * 1024;
/// How many snapshot generations to keep on disk.
pub const SNAPSHOTS_KEPT: usize = 2;

/// One decoded snapshot: everything needed to rebuild the daemon plus
/// the log position it was cut at.
pub struct Snapshot {
    /// Sequence number of the last log record folded into `parts`.
    pub log_seq: u64,
    pub pool: CandidatePool,
    pub opts: OnlineAdvisorOptions,
    pub parts: OnlineAdvisorParts,
}

fn snapshot_path(dir: &Path, log_seq: u64) -> PathBuf {
    // Zero-padded so lexicographic order equals numeric order.
    dir.join(format!("snap-{log_seq:020}.bin"))
}

/// Writes one snapshot durably and prunes old generations down to
/// [`SNAPSHOTS_KEPT`]. Returns the final path.
pub fn write_snapshot(
    dir: &Path,
    log_seq: u64,
    pool: &CandidatePool,
    opts: &OnlineAdvisorOptions,
    parts: &OnlineAdvisorParts,
) -> Result<PathBuf, PersistError> {
    let mut payload = Vec::new();
    put_u64(&mut payload, log_seq);
    put_vec(&mut payload, &pool_to_wire(pool), |o, ix| ix.encode(o));
    codec::encode_options(&mut payload, opts);
    codec::encode_advisor_parts(&mut payload, parts);

    let mut file_bytes = Vec::with_capacity(payload.len() + 24);
    put_u32(&mut file_bytes, SNAPSHOT_MAGIC);
    put_u32(&mut file_bytes, SNAPSHOT_VERSION);
    put_u64(&mut file_bytes, payload.len() as u64);
    file_bytes.extend_from_slice(&payload);
    put_u64(&mut file_bytes, fnv1a(&payload));

    let path = snapshot_path(dir, log_seq);
    let tmp = path.with_extension("bin.tmp");
    {
        let mut f = File::create(&tmp)?;
        f.write_all(&file_bytes)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, &path)?;
    // Make the rename itself durable. A failure here means the snapshot
    // may silently vanish on power loss (the data blocks are synced but
    // the directory entry is not), so it propagates like any other
    // persistence error instead of being swallowed — the caller still
    // holds the log, which replays past the missing snapshot.
    let d = File::open(dir)?;
    d.sync_all()?;
    prune(dir)?;
    Ok(path)
}

/// Deletes all but the newest [`SNAPSHOTS_KEPT`] snapshot files (and any
/// stale temp files from interrupted writes).
fn prune(dir: &Path) -> Result<(), PersistError> {
    let mut snaps = list_snapshots(dir)?;
    while snaps.len() > SNAPSHOTS_KEPT {
        let (_, oldest) = snaps.remove(0);
        let _ = fs::remove_file(oldest);
    }
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.extension().is_some_and(|e| e == "tmp") {
            let _ = fs::remove_file(path);
        }
    }
    Ok(())
}

/// All snapshot files in the directory, oldest first.
pub fn list_snapshots(dir: &Path) -> Result<Vec<(u64, PathBuf)>, PersistError> {
    let mut snaps = Vec::new();
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if let Some(seq) = name
            .strip_prefix("snap-")
            .and_then(|r| r.strip_suffix(".bin"))
            .and_then(|digits| digits.parse::<u64>().ok())
        {
            snaps.push((seq, path));
        }
    }
    snaps.sort_by_key(|&(seq, _)| seq);
    Ok(snaps)
}

/// Reads and fully validates one snapshot file.
pub fn read_snapshot(path: &Path) -> Result<Snapshot, PersistError> {
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    let mut c = Cursor::new(&bytes);
    if c.u32()? != SNAPSHOT_MAGIC {
        return Err(PersistError::State("snapshot has the wrong magic"));
    }
    if c.u32()? != SNAPSHOT_VERSION {
        return Err(PersistError::State("snapshot has an unsupported version"));
    }
    let payload_len = c.u64()? as usize;
    if payload_len > MAX_SNAPSHOT_LEN || payload_len + 24 != bytes.len() {
        return Err(PersistError::State("snapshot length does not match file"));
    }
    let payload = &bytes[16..16 + payload_len];
    let stored = u64::from_le_bytes(bytes[16 + payload_len..].try_into().unwrap());
    if fnv1a(payload) != stored {
        return Err(PersistError::State("snapshot checksum mismatch"));
    }
    let mut c = Cursor::new(payload);
    let log_seq = c.u64()?;
    let pool = pool_from_wire(&c.vec(4, WireIndex::decode)?)?;
    let opts = codec::decode_options(&mut c)?;
    let parts = codec::decode_advisor_parts(&mut c)?;
    if !c.exhausted() {
        return Err(WireError::Malformed("snapshot has trailing bytes").into());
    }
    Ok(Snapshot {
        log_seq,
        pool,
        opts,
        parts,
    })
}

/// Loads the newest snapshot that validates, newest-first. Returns the
/// snapshot (if any survived) and how many newer files were discarded as
/// corrupt.
pub fn load_latest(dir: &Path) -> Result<(Option<Snapshot>, usize), PersistError> {
    let mut discarded = 0usize;
    for (_, path) in list_snapshots(dir)?.into_iter().rev() {
        match read_snapshot(&path) {
            Ok(snap) => return Ok((Some(snap), discarded)),
            Err(_) => discarded += 1,
        }
    }
    Ok((None, discarded))
}
