//! The one list of workloads and metrics. `BENCHMARK.json`,
//! `--print benchmark-json`, `--print metric-table` and the names a run
//! emits are all read off these tables, and a test keeps the file on disk
//! equal to what they render.

use std::collections::BTreeMap;

/// How the driver starts the benchmark from the root of a checkout.
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "perfbench/Cargo.toml",
    "--",
];

/// Directories that hold the benchmark and nothing else.
pub const PATHS: [&str; 1] = ["perfbench"];

/// Seconds one run measures for; rounds are added until they are used up,
/// never fewer than [`MIN_ROUNDS`].
pub const RUN_SECONDS: u64 = 30;

/// A run reports medians over its rounds, so it needs enough of them for a
/// median to shrug off one or two disturbed rounds.
pub const MIN_ROUNDS: usize = 5;

pub struct Workload {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`.
    pub why: &'static str,
    /// One op and one round, for the README table.
    pub shape: &'static str,
    /// The layers it exercises and the ones it bypasses, for the README.
    pub layers: &'static str,
}

pub const OFFLINE_ADVISE: &str = "offline_advise";
pub const SEARCH_SWEEP: &str = "search_sweep";
pub const SERVE_DURABLE: &str = "serve_durable";
pub const SERVE_MIXED: &str = "serve_mixed";

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: OFFLINE_ADVISE,
        why: "The paper's path: advise() on 24-query star sets; optimizer and plan-cache building do ~97 % of the work, search ~3 %, the daemon layers none.",
        shape: "op = `pinum_advisor::tool::advise(catalog, 24 star queries of widths 2-6, AdvisorOptions::default())`; 12 distinct query sets in an order `--seed` shuffles; warm-up = 4 further sets once, timed = the 12 twice (24 ops); closed loop, 1 caller",
        layers: "`optimizer` + `core::builder`/`collector` do ~97 % of the work, `advisor::search` ~3 %; `online`/`persist`/`protocol`/`server` do none",
    },
    Workload {
        name: SEARCH_SWEEP,
        why: "Four search strategies run cold on prebuilt 120-query models at three budgets: pricing kernel and search do all timed work, the optimizer none (it shows only in setup_s).",
        shape: "set-up builds 2 models of 120 queries x <= 400 candidates (`build_workload_models` + `WorkloadModel::build`); op = the four `StrategyKind`s (`LazyGreedy`, `EagerGreedy`, `SwapHillClimb`, `Anneal` with a fixed seed) run cold on one model at one budget (2.5 / 5 / 10 GiB): 6 distinct ops in an order `--seed` shuffles; warm-up = one op per model, timed = the 6 four times (24 ops); closed loop, 1 caller",
        layers: "`core::workload_model` pricing kernel + `advisor::search` do all timed work; the optimizer does none (its cost shows only in `setup_s`): the bypass for any optimizer change, the target for any kernel or search change",
    },
    Workload {
        name: SERVE_DURABLE,
        why: "Write path at full depth: 4 tenants send ~50 KB AdmitBatch frames, 4 in flight, to a durable daemon (WAL, group commit, snapshots, eviction, re-advise), then it restarts.",
        shape: "durable daemon (`shards: 2, budget: 2, snapshot_every: 64`), 4 tenants (window 64, epoch 32, `SwapHillClimb`, scoped re-advise) replaying one 168-query `DriftStream` fixture cyclically from offsets `--seed` turns; op = one `Request::AdmitBatch` of 8; closed loop on one connection: a run of 4 requests to the same tenant is written, flushed once and all 4 answers awaited (so the shard can coalesce), tenants round-robin; 21 distinct prebuilt batches per tenant cycled by reference; warm-up = 160 ops, timed = 2000 ops (16 k admissions); after verification the daemon is stopped without `SnapshotNow` and restarted on the same directory",
        layers: "`protocol` encode/decode of ~50 KB frames, `persist::convert`, WAL append + group commit + snapshots in `persist`, `online::apply_batch` with eviction and periodic re-advise, shard coalescing in `server`; the restart leg reads the log back (`persist` recovery); the optimizer only in set-up",
    },
    Workload {
        name: SERVE_MIXED,
        why: "Same daemon layers used differently: volatile, lockstep, tiny frames, reads beside single admissions, reweights, evictions and forced re-advises; socket and thread hand-off dominate.",
        shape: "volatile daemon, same 4 tenants; lockstep `Client::call` (1 in flight); exactly this mix, each kind dealt round the tenants, in an order `--seed` shuffles: 40 % `GetSelection`, 10 % `GetStats`, 10 % `TenantEpoch`, 25 % single `AdmitQuery`, 8 % `ReweightAdmission`, 5 % `EvictQuery`, 2 % `ForceReadvise`; warm-up = 80 admissions per tenant, timed = 6000 ops",
        layers: "sockets, reader/writer threads and shard dispatch in `server`, small-frame `protocol`, single-admission `online` paths, reweight/evict; the `persist` journal is bypassed (only `convert` runs), no pipelining so no coalescing",
    },
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    /// Whether runs of one seed repeat it exactly. The bound of such a
    /// metric only has to cover how far seeds differ; `--compare`, which
    /// pairs runs by seed, takes any worsening of it as a regression.
    pub exact: bool,
    pub definition: &'static str,
}

pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        exact: false,
        definition: "median over rounds of round start -> first timed op: fixture generation, plan-cache building through the optimizer, daemon start + `CreateTenant`s, and the warm-up pass.",
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        exact: false,
        definition: "median over rounds of timed ops / timed wall.",
    },
    EndToEnd {
        name: "op_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        exact: false,
        definition: "median over rounds of the round's median op latency (send -> matching response on `serve_*`; call -> return otherwise).",
    },
    EndToEnd {
        name: "op_tail_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        exact: false,
        definition: "over all rounds' ops pooled: the highest of p99 / p90 / p50 with at least 10 samples beyond it (p99 on `serve_*`, p90 on `offline_advise` / `search_sweep`); the percentile and sample count are written next to the value. A failed op counts as +inf.",
    },
    EndToEnd {
        name: "cpu_ms_per_op",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        exact: false,
        definition: "median over rounds of process CPU time (user + sys, all threads, `/proc/self/stat`) across the timed phase / ops: cost to serve, insensitive to being descheduled.",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.10,
        exact: false,
        definition: "`VmHWM` at exit (program + generator + verifier; the last two are constant across commits).",
    },
    EndToEnd {
        name: "optimizer_calls_per_query",
        unit: "count",
        better: Better::Lower,
        bound: 0.01,
        exact: true,
        definition: "optimizer calls spent / queries modelled over the run (inside timed `advise` on `offline_advise`, inside set-up elsewhere). The paper's headline; exact for a seed.",
    },
    EndToEnd {
        name: "advice_cost_ratio",
        unit: "ratio",
        better: Better::Lower,
        bound: 0.01,
        exact: true,
        definition: "priced cost of the final selection / priced cost of the empty selection, mean over searches (offline) or, on `serve_*`, mean over tenants and over the re-advises of the timed phase of the verification twin's selection priced over the whole stream. Exact for a seed; stops a speed-up from being bought with worse advice.",
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// What is timed or counted, from outside.
    pub what: &'static str,
    /// The end-to-end metric it should move, written down beforehand.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    what: &'static str,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        what,
        moves,
    }
}

use Better::{Higher, Lower};

pub const PER_LAYER: [PerLayer; 62] = [
    layer("optimizer.call_ms", "ms", Lower, "median `Optimizer::optimize(q, cfg, standard())`", "`offline_advise/op_p50_ms`; `*/setup_s`"),
    layer("optimizer.export_call_ms", "ms", Lower, "median `optimize` with `OptimizerOptions::pinum_export()` on the covering configuration", "`offline_advise/op_p50_ms`, `cpu_ms_per_op`; `search_sweep/setup_s`"),
    layer("optimizer.exported_plans_per_call", "count", Lower, "plans one exporting call returns", "`offline_advise/optimizer_calls_per_query`"),
    layer("core.cache_build_ms_per_query", "ms", Lower, "mean `build_cache_pinum`", "`offline_advise/op_p50_ms`; `serve_*/setup_s`"),
    layer("core.collect_ms_per_query", "ms", Lower, "(`WorkloadCollector::prime_templates` + `collect`) / queries", "`offline_advise/op_p50_ms`"),
    layer("core.template_hit_rate", "ratio", Higher, "`template_hits()` / relation collections", "`offline_advise/optimizer_calls_per_query`"),
    layer("core.plans_per_cache", "count", Lower, "mean plans in a built `PlanCache`", "`serve_durable/op_p50_ms` (frame size)"),
    layer("core.model_build_ms", "ms", Lower, "median `WorkloadModel::build`", "`search_sweep/setup_s`"),
    layer("core.arms_per_query", "count", Lower, "flattened access arms / queries", "`search_sweep/ops_per_s`"),
    layer("core.price_full_us", "us", Lower, "median `price_full(empty)`", "`search_sweep/ops_per_s`"),
    layer("core.price_delta_ns", "ns", Lower, "mean `price_delta` per candidate against the empty selection", "`search_sweep/ops_per_s`, `cpu_ms_per_op`"),
    layer("advisor.candidate_gen_ms", "ms", Lower, "`generate_candidates` + `merge_prefix_subsumed`", "`offline_advise/op_p50_ms` (small)"),
    layer("advisor.candidates", "count", Lower, "pool size after merging", "`offline_advise/op_p50_ms`"),
    layer("advisor.candidates_merged", "count", Higher, "candidates dropped by merging", "`offline_advise/op_p50_ms`"),
    layer("advisor.search.lazy_ms", "ms", Lower, "median cold `LazyGreedy` search", "`search_sweep/ops_per_s`"),
    layer("advisor.search.eager_ms", "ms", Lower, "median cold `EagerGreedy` search", "`search_sweep/ops_per_s`"),
    layer("advisor.search.swap_ms", "ms", Lower, "median cold `SwapHillClimb` search", "`search_sweep/ops_per_s`; `serve_*/op_tail_ms` via re-advise"),
    layer("advisor.search.anneal_ms", "ms", Lower, "median cold `Anneal` search", "`search_sweep/ops_per_s`, `op_tail_ms`"),
    layer("advisor.evaluations_per_search", "count", Lower, "mean `GreedyResult::evaluations`", "`search_sweep/ops_per_s`"),
    layer("advisor.lazy_probe_fraction", "ratio", Lower, "lazy evaluations / eager evaluations", "`search_sweep/ops_per_s`"),
    layer("advisor.search_share_of_advise", "ratio", Lower, "search span / `advise` replay span", "prediction: about 0.03, so search changes do **not** move `offline_advise/*`"),
    layer("online.apply_batch_us_per_admission", "us", Lower, "volatile `OnlineAdvisor::apply_batch` on the replayed stream", "`serve_durable/ops_per_s`; `serve_mixed/op_tail_ms`"),
    layer("online.readvise_ms", "ms", Lower, "mean `ReadviseReport::wall`", "`serve_*/op_tail_ms`"),
    layer("online.readvises_per_1k_admissions", "count", Lower, "re-advises / 1000 admissions on the verification twin; exact for a seed", "`serve_*/op_tail_ms`"),
    layer("online.full_repricings", "count", Lower, "full re-pricings in the timed phase (steady state), must stay 0", "`serve_*/op_tail_ms`"),
    layer("online.reweight_us", "us", Lower, "median `reweight` on the twin", "`serve_mixed/op_p50_ms`"),
    layer("online.evict_us", "us", Lower, "median `evict_admission` on the twin", "`serve_mixed/op_p50_ms`"),
    layer("persist.convert_from_wire_us_per_admission", "us", Lower, "`cache_from_wire` + `access_from_wire` + `template_from_wire`", "`serve_durable/ops_per_s`; the only `persist` cost on `serve_mixed`"),
    layer("persist.apply_batch_us_per_admission", "us", Lower, "durable `PersistentAdvisor::apply_batch` on a twin directory", "`serve_durable/ops_per_s`, `op_p50_ms`"),
    layer("persist.journal_us_per_admission", "us", Lower, "durable minus volatile twin: record encode, write, fsync call, snapshot", "`serve_durable/ops_per_s`; no move on `serve_mixed`"),
    layer("persist.fsyncs_per_admission", "count", Lower, "`persist_stats()` on the twin (policy-exact)", "`serve_durable/ops_per_s` on a real device"),
    layer("persist.log_bytes_per_admission", "bytes", Lower, "journal bytes / admissions on the twin", "`serve_durable/cpu_ms_per_op`"),
    layer("persist.snapshot_ms", "ms", Lower, "median `snapshot_now` on the twin", "`serve_durable/op_tail_ms`"),
    layer("persist.snapshot_bytes", "bytes", Lower, "newest snapshot size", "`serve_durable/op_tail_ms`"),
    layer("persist.open_ms", "ms", Lower, "median `PersistentAdvisor::open` on the round's tenant directories", "`server.restart_ms`"),
    layer("persist.replayed_records", "count", Lower, "mean log records replayed by that `open`", "`server.restart_ms`"),
    layer("protocol.encode_request_us", "us", Lower, "median `write_request` of an `AdmitBatch` into a memory buffer", "`serve_durable/cpu_ms_per_op`; `serve_mixed/op_p50_ms`"),
    layer("protocol.decode_request_us", "us", Lower, "median `read_request` from a memory buffer", "`serve_durable/cpu_ms_per_op`; `serve_mixed/op_p50_ms`"),
    layer("protocol.encode_response_us", "us", Lower, "median `write_response` into a memory buffer", "`serve_durable/cpu_ms_per_op`; `serve_mixed/op_p50_ms`"),
    layer("protocol.decode_response_us", "us", Lower, "median `read_response` from a memory buffer", "`serve_durable/cpu_ms_per_op`; `serve_mixed/op_p50_ms`"),
    layer("protocol.request_bytes", "bytes", Lower, "mean `AdmitBatch` frame size", "`serve_durable/cpu_ms_per_op`"),
    layer("protocol.response_bytes", "bytes", Lower, "mean `Admitted` frame size", "`serve_durable/cpu_ms_per_op`"),
    layer("server.transport_us_per_op", "us", Lower, "TCP op p50 minus replayed-chain p50 on `serve_mixed`: sockets, reader/writer threads, shard queue", "`serve_mixed/op_p50_ms`, `ops_per_s`"),
    layer("server.read_p50_us", "us", Lower, "client-observed p50 of `GetSelection` / `GetStats` / `TenantEpoch`", "`serve_mixed/op_p50_ms`"),
    layer("server.write_p50_us", "us", Lower, "client-observed p50 of admit / reweight / evict / forced re-advise", "`serve_mixed/op_tail_ms`"),
    layer("server.admissions_per_s", "1/s", Higher, "admissions / timed wall on `serve_durable`", "`serve_durable/ops_per_s` x 8"),
    layer("server.fsyncs_per_admission", "count", Lower, "`TenantEpoch` counters over TCP: what coalescing achieved (timing-dependent)", "`serve_durable/ops_per_s`"),
    layer("server.max_batch_records", "count", Higher, "largest group commit, from `TenantEpoch` (timing-dependent)", "`serve_durable/ops_per_s`"),
    layer("server.start_ms", "ms", Lower, "`Server::start` + connect", "`serve_*/setup_s`"),
    layer("server.restart_ms", "ms", Lower, "restart on the round's directory until every tenant answers `GetSelection`", "O(log length) today; per-layer until the WAL-lifecycle change promotes it"),
    layer("server.disk_bytes_per_admission", "bytes", Lower, "bytes under the snapshot root at round end / admissions (not exact: snapshot cuts fall on coalesced batch edges)", "user-visible on `serve_durable`"),
    layer("server.budget_wait_events_max", "count", Lower, "`max_readvise_wait_events()`", "`serve_*/op_tail_ms`"),
    layer("bench.closure_ratio", "ratio", Higher, "sum of child spans / replayed-chain span, expected 0.95-1.05", "-"),
    layer("bench.trace_overhead_ratio", "ratio", Higher, "traced rounds' `ops_per_s` / an untraced round's in the same process", "-"),
    layer("bench.round_spread", "ratio", Lower, "(Q3 - Q1) / median of the rounds' `ops_per_s`: how unsteady the box was", "-"),
    layer("bench.intra_round_drift", "ratio", Higher, "second-half / first-half `ops_per_s` inside a round (a quadratic shows as < 1)", "-"),
    layer("bench.generator_cpu_share", "ratio", Lower, "generator-thread CPU / process CPU in the timed phase", "-"),
    layer("bench.calib_ms", "ms", Lower, "median of a fixed integer-hash loop run before each round (never used to rescale)", "-"),
    layer("bench.rounds", "count", Higher, "rounds the run measured", "-"),
    layer("bench.spans", "count", Higher, "spans recorded", "-"),
    layer("bench.journal_on_tmpfs", "count", Lower, "1 when the checkout, and so the journals of durable rounds, lie on a tmpfs, where `fdatasync` is free", "-"),
    layer("bench.nproc", "count", Higher, "`available_parallelism()`", "-"),
];

/// Metric values of one run, by registry name.
pub type Values = BTreeMap<&'static str, f64>;

/// `BENCHMARK.json`, byte for byte.
pub fn benchmark_json() -> String {
    let list = |items: Vec<String>, indent: &str| {
        format!(
            "[\n{indent}  {}\n{indent}]",
            items.join(&format!(",\n{indent}  "))
        )
    };
    let command = COMMAND.iter().map(|c| quote(c)).collect::<Vec<_>>();
    let paths = PATHS.iter().map(|p| quote(p)).collect::<Vec<_>>();
    let workloads = WORKLOADS
        .iter()
        .map(|w| format!("{{\"name\": {}, \"why\": {}}}", quote(w.name), quote(w.why)))
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "{{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                quote(m.name),
                quote(m.unit),
                quote(m.better.as_str()),
                m.bound
            )
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "{{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                quote(m.name),
                quote(m.unit),
                quote(m.better.as_str())
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [{}],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        command.join(", "),
        paths.join(", "),
        list(workloads, "  "),
        list(end_to_end, "  "),
        list(per_layer, "  "),
    )
}

/// The three README tables, as markdown.
pub fn metric_table() -> String {
    let mut out = String::from("### Workloads\n\n| name | what one op is, and the round | layers it exercises and bypasses |\n|---|---|---|\n");
    for w in &WORKLOADS {
        out.push_str(&format!("| `{}` | {} | {} |\n", w.name, w.shape, w.layers));
    }
    out.push_str("\n### End-to-end metrics (every one is reported on every workload)\n\n| name | unit | better | bound | definition |\n|---|---|---|---|---|\n");
    for m in &END_TO_END {
        out.push_str(&format!(
            "| `{}` | {} | {} | {} | {} |\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound,
            m.definition
        ));
    }
    out.push_str("\n### Per-layer metrics (`--trace 1`) and the end-to-end metric each should move\n\n| name | unit | what is timed or counted, from outside | should move |\n|---|---|---|---|\n");
    for m in &PER_LAYER {
        out.push_str(&format!(
            "| `{}` | {} | {} | {} |\n",
            m.name, m.unit, m.what, m.moves
        ));
    }
    out
}

/// The `metrics` object of the last output line: every registry entry of
/// the kind asked for, in registry order. A value the run did not produce,
/// or one it produced under a name the registry does not know, is a bug in
/// the benchmark and stops it.
pub fn metrics_json(values: &Values, per_layer: bool) -> String {
    let entries: Vec<(&str, &str)> = if per_layer {
        PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    };
    for name in values.keys() {
        assert!(
            entries.iter().any(|(n, _)| n == name),
            "run emitted `{name}`, which the registry does not list"
        );
    }
    let body: Vec<String> = entries
        .iter()
        .map(|(name, unit)| {
            let value = values
                .get(name)
                .unwrap_or_else(|| panic!("run produced no value for `{name}`"));
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(name),
                json_number(*value),
                quote(unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// `s` as a JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with all the digits measured. JSON has no infinity, so a
/// tail made infinite by a failed op prints as the largest finite number.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else if v.is_nan() {
        "0".into()
    } else {
        format!("{}", f64::MAX.copysign(v))
    }
}

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[cfg(test)]
pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn registry_stays_inside_the_contract_limits() {
        let mut names: Vec<&str> = Vec::new();
        for w in &WORKLOADS {
            assert!(name_ok(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            names.push(w.name);
        }
        for m in &END_TO_END {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            names.push(m.name);
        }
        for m in &PER_LAYER {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            names.push(m.name);
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        let setup = end_to_end("setup_s").expect("setup_s is required");
        assert!(setup.unit == "s" && setup.better == Better::Lower);
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(COMMAND.len() <= 32 && benchmark_json().len() <= 64 * 1024);
    }

    #[test]
    fn metrics_json_lists_every_entry_in_order() {
        let values: Values = END_TO_END.iter().map(|m| (m.name, 1.5)).collect();
        let json = metrics_json(&values, false);
        assert!(json.starts_with("{\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        assert_eq!(json.matches("\"value\"").count(), END_TO_END.len());
    }

    #[test]
    #[should_panic(expected = "does not list")]
    fn metrics_json_refuses_a_name_outside_the_registry() {
        let mut values: Values = END_TO_END.iter().map(|m| (m.name, 1.0)).collect();
        values.insert("made_up", 1.0);
        metrics_json(&values, false);
    }

    #[test]
    fn infinite_tail_prints_as_a_finite_json_number() {
        assert_eq!(json_number(f64::INFINITY), format!("{}", f64::MAX));
        assert_eq!(json_number(1.25), "1.25");
    }
}
