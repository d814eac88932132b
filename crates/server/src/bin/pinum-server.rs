//! CLI entry point for the multi-tenant advisor daemon.
//!
//! ```text
//! pinum-server [--port N] [--shards N] [--budget N]
//!              [--snapshot-dir PATH] [--snapshot-every N]
//! ```
//!
//! - `--port` (default 0): TCP port to bind on 127.0.0.1; 0 picks an
//!   ephemeral port; values above 65535 are refused. The bound address
//!   is printed as `listening on <addr>` so harnesses can parse it.
//! - `--shards` (default 4): shard worker threads; tenants are assigned
//!   by tenant-id hash.
//! - `--budget` (default 2): re-advises allowed to run concurrently.
//! - `--snapshot-dir` (default: none, volatile): root directory for
//!   tenant journals and snapshots. Tenants found under it are recovered
//!   at start-up, bit-identical to the daemon that wrote them.
//! - `--snapshot-every` (default 32): admissions between automatic
//!   snapshots per tenant; 0 cuts snapshots only on `SnapshotNow`.
//!
//! Every tenant is priced and re-advised on its shard's thread, so
//! `--shards` bounds the threads that price at once and `--budget` the
//! re-advises among them.
//!
//! The process exits after a wire `Shutdown` request.

use pinum_server::{Server, ServerConfig};

fn parse_flag(args: &[String], flag: &str) -> Option<u64> {
    let pos = args.iter().position(|a| a == flag)?;
    let value = args.get(pos + 1).unwrap_or_else(|| {
        eprintln!("error: {flag} needs a value");
        std::process::exit(2);
    });
    match value.parse() {
        Ok(v) => Some(v),
        Err(_) => {
            eprintln!("error: {flag} wants an unsigned integer, got {value:?}");
            std::process::exit(2);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!(
            "usage: pinum-server [--port N] [--shards N] [--budget N] \
             [--snapshot-dir PATH] [--snapshot-every N]"
        );
        return;
    }
    let port = parse_flag(&args, "--port").map_or(0, |port| {
        u16::try_from(port).unwrap_or_else(|_| {
            eprintln!("error: --port wants a port in 0..=65535, got {port}");
            std::process::exit(2);
        })
    });
    let snapshot_dir =
        args.iter()
            .position(|a| a == "--snapshot-dir")
            .map(|pos| match args.get(pos + 1) {
                Some(value) => std::path::PathBuf::from(value),
                None => {
                    eprintln!("error: --snapshot-dir needs a value");
                    std::process::exit(2);
                }
            });
    let defaults = ServerConfig::default();
    let config = ServerConfig {
        shards: parse_flag(&args, "--shards").unwrap_or(defaults.shards as u64) as usize,
        budget: parse_flag(&args, "--budget").unwrap_or(defaults.budget as u64) as usize,
        snapshot_every: parse_flag(&args, "--snapshot-every")
            .unwrap_or(defaults.snapshot_every as u64) as usize,
        snapshot_dir,
    };

    let handle = match Server::start(("127.0.0.1", port), config) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("error: failed to start: {e}");
            std::process::exit(1);
        }
    };
    println!("listening on {}", handle.addr());
    // Make sure the harness sees the address even through a pipe.
    use std::io::Write as _;
    let _ = std::io::stdout().flush();

    handle.wait_for_shutdown();
    handle.shutdown();
    println!("shutdown complete");
}
