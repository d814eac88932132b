//! What the benchmark reads from the operating system: CPU time and peak
//! memory from `/proc`, the core count, the git commit of the checkout, the
//! calibration loop, and the self-removing journal directory.

use std::path::{Path, PathBuf};
use std::time::Instant;

/// Linux reports process times in clock ticks of 1/100 s on every
/// architecture Rust targets (`getconf CLK_TCK`).
const MS_PER_TICK: f64 = 10.0;

/// user + system CPU time of a `/proc/.../stat` line, in milliseconds.
/// The command name may hold spaces and parentheses, so fields are counted
/// from the last `)`: state is field 3, utime 14, stime 15.
fn stat_cpu_ms(path: &str) -> f64 {
    let Ok(stat) = std::fs::read_to_string(path) else {
        return 0.0;
    };
    let after_comm = stat.rfind(')').map_or("", |i| &stat[i + 1..]);
    let mut fields = after_comm.split_whitespace().skip(11);
    let mut tick = || {
        fields
            .next()
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (tick() + tick()) * MS_PER_TICK
}

/// CPU time of the whole process (all threads), in milliseconds.
pub fn process_cpu_ms() -> f64 {
    stat_cpu_ms("/proc/self/stat")
}

/// CPU time of the calling thread, in milliseconds.
pub fn thread_cpu_ms() -> f64 {
    stat_cpu_ms("/proc/thread-self/stat")
}

/// Peak resident set size of the process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit the checkout is at, read from `.git` without starting a
/// process; `unknown` outside a git repository (the driver's checkout).
pub fn git_commit() -> String {
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let git = crate_dir().join("../.git");
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&git.join(reference))
        .or_else(|| {
            read(&git.join("packed-refs"))?
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|c| c.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The benchmark's own directory in the checkout it was built in.
fn crate_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// A fixed integer-hash loop, a few milliseconds of pure register work, run
/// before each round and reported as `bench.calib_ms`: a reading of how fast
/// the core was, for whoever looks at a run afterwards. No other number is
/// ever rescaled by it.
pub fn calibration_ms() -> f64 {
    let start = Instant::now();
    let mut x = 1u64;
    for i in 0..4_000_000u64 {
        x = (x ^ i).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(29);
    }
    std::hint::black_box(x);
    start.elapsed().as_secs_f64() * 1e3
}

/// Whether the journals of durable rounds land on a tmpfs: they lie under
/// the crate's directory, wherever the checkout was put, so this looks up the
/// longest mount point of `/proc/self/mountinfo` that is a prefix of it. A
/// journal on tmpfs pays nothing for `fdatasync`, so `--compare` keeps such
/// runs apart from runs on a device.
pub fn journal_on_tmpfs() -> bool {
    let Ok(path) = crate_dir().canonicalize() else {
        return false;
    };
    let Ok(mounts) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return false;
    };
    mounts
        .lines()
        .filter_map(|line| {
            // `... <mount point> <options> [tags] - <fs type> <source> ...`
            let (before, after) = line.split_once(" - ")?;
            let mount_point = Path::new(before.split(' ').nth(4)?);
            path.starts_with(mount_point)
                .then(|| (mount_point.as_os_str().len(), after.starts_with("tmpfs ")))
        })
        .max_by_key(|&(len, _)| len)
        .is_some_and(|(_, tmpfs)| tmpfs)
}

/// Where the output files (traces) go: beside the crate's own build
/// output, which `perfbench/.gitignore` already covers.
pub fn out_dir() -> PathBuf {
    crate_dir().join("target/perfbench-out")
}

/// A directory for one round's journals, removed when dropped — after the
/// round, and on the way out of a panic. It lies inside the checkout, beside
/// the crate's build output: the benchmark writes nowhere else.
pub struct JournalDir {
    path: PathBuf,
}

impl JournalDir {
    pub fn create(round: usize) -> std::io::Result<Self> {
        let path = out_dir().join(format!("journal-{}/round-{round}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(Self { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for JournalDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        // The per-process parent, once its last round is gone.
        if let Some(parent) = self.path.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Total size of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .filter_map(Result::ok)
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}
