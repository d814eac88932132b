//! One run of one workload: identical rounds in one process, medians over
//! them, and the two lines a run prints.

use crate::fixtures::Size;
use crate::registry::{
    self, quote, Values, MIN_ROUNDS, OFFLINE_ADVISE, SEARCH_SWEEP, SERVE_DURABLE, SERVE_MIXED,
};
use crate::round::{RoundCtx, RoundOutcome};
use crate::stats;
use crate::sys;
use crate::trace::Trace;
use crate::workloads::{offline_advise, search_sweep, serve};
use std::collections::BTreeMap;
use std::time::Instant;

/// Rounds of a traced run that record spans; one more runs plain before
/// them, as the untraced reference of `bench.trace_overhead_ratio`.
const TRACED_ROUNDS: usize = 2;

pub struct RunArgs {
    pub workload: &'static str,
    pub seed: u64,
    /// Rounds are added until this many seconds are used up.
    pub seconds: f64,
    pub trace: bool,
    /// Size of the workload's own rounds.
    pub size: Size,
    /// Size of the rounds a traced run adds for the other workloads.
    pub probe_size: Size,
}

pub struct Report {
    pub attempted: usize,
    pub failed: usize,
    /// The end-to-end metrics, or with `--trace 1` the per-layer ones.
    pub values: Values,
    pub per_layer: bool,
    /// Everything else worth keeping about the run, as one JSON line.
    pub detail: String,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The last line of a run: exactly the keys the contract names.
    pub fn contract_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            registry::metrics_json(&self.values, self.per_layer)
        )
    }
}

fn one_round(workload: &str, ctx: &mut RoundCtx<'_>) -> RoundOutcome {
    match workload {
        OFFLINE_ADVISE => offline_advise::round(ctx),
        SEARCH_SWEEP => search_sweep::round(ctx),
        SERVE_DURABLE => serve::round(serve::Mode::Durable, ctx),
        SERVE_MIXED => serve::round(serve::Mode::Mixed, ctx),
        other => unreachable!("`{other}` is not in the registry"),
    }
}

/// The replayed-chain span of each workload.
fn chain_span(workload: &str) -> &'static str {
    match workload {
        OFFLINE_ADVISE => "advise.chain",
        SEARCH_SWEEP => "sweep.chain",
        _ => "serve.chain",
    }
}

fn numbers(values: impl IntoIterator<Item = f64>) -> String {
    let items: Vec<String> = values.into_iter().map(registry::json_number).collect();
    format!("[{}]", items.join(", "))
}

pub fn run(args: &RunArgs) -> Report {
    let started = Instant::now();
    let mut rounds: Vec<RoundOutcome> = Vec::new();
    let mut traces: BTreeMap<&'static str, Trace> = registry::WORKLOADS
        .iter()
        .map(|w| (w.name, Trace::new()))
        .collect();

    let mut calib_ms: Vec<f64> = Vec::new();
    let mut play = |workload: &'static str, size: &Size, traced: bool, index: usize| {
        calib_ms.push(sys::calibration_ms());
        let mut ctx = RoundCtx {
            seed: args.seed,
            size,
            index,
            trace: if traced {
                traces.get_mut(workload)
            } else {
                None
            },
        };
        one_round(workload, &mut ctx)
    };

    let mut probes: Vec<(&'static str, RoundOutcome)> = Vec::new();
    if args.trace {
        for index in 0..=TRACED_ROUNDS {
            rounds.push(play(args.workload, &args.size, index > 0, index));
        }
        // The per-layer metrics of the other workloads' layers are due on
        // every traced run: one small traced round of each.
        for (i, w) in registry::WORKLOADS.iter().enumerate() {
            if w.name != args.workload {
                probes.push((
                    w.name,
                    play(w.name, &args.probe_size, true, TRACED_ROUNDS + 1 + i),
                ));
            }
        }
    } else {
        loop {
            let round_started = Instant::now();
            rounds.push(play(args.workload, &args.size, false, rounds.len()));
            let next_would_end = started.elapsed() + round_started.elapsed();
            if rounds.len() >= MIN_ROUNDS && next_would_end.as_secs_f64() > args.seconds {
                break;
            }
        }
    }

    // --- Failures: every round's own, plus rounds that differ. ---
    let mut notes: Vec<String> = Vec::new();
    let mut failed = 0;
    let mut attempted = 0;
    for (i, r) in rounds.iter().enumerate() {
        attempted += r.attempted;
        failed += r.failures.count;
        notes.extend(r.failures.notes.iter().map(|n| format!("round {i}: {n}")));
        if r.fingerprint != rounds[0].fingerprint {
            failed += 1;
            notes.push(format!("round {i} computed different results from round 0"));
        }
    }
    for (name, r) in &probes {
        attempted += r.attempted;
        failed += r.failures.count;
        notes.extend(
            r.failures
                .notes
                .iter()
                .map(|n| format!("{name} probe: {n}")),
        );
    }

    // --- End-to-end metrics: medians over rounds. ---
    let measured = if args.trace {
        &rounds[1..]
    } else {
        &rounds[..]
    };
    let per_round =
        |f: &dyn Fn(&RoundOutcome) -> f64| -> Vec<f64> { measured.iter().map(f).collect() };
    let setup_s = per_round(&|r| r.setup_s);
    let ops_per_s = per_round(&|r| r.timed.ops_per_s());
    let p50_ms = per_round(&|r| r.timed.p50_ms());
    let cpu_ms_per_op = per_round(&|r| r.timed.cpu_ms_per_op());
    let pooled: Vec<f64> = measured
        .iter()
        .flat_map(|r| r.timed.latencies_ms.iter().copied())
        .collect();
    let (tail_percentile, tail_ms) = stats::tail_percentile(&pooled);
    let calls: usize = measured.iter().map(|r| r.optimizer_calls).sum();
    let modelled: usize = measured.iter().map(|r| r.queries_modelled).sum();
    let mut end_to_end = Values::new();
    end_to_end.insert("setup_s", stats::median(&setup_s));
    end_to_end.insert("ops_per_s", stats::median(&ops_per_s));
    end_to_end.insert("op_p50_ms", stats::median(&p50_ms));
    end_to_end.insert("op_tail_ms", tail_ms);
    end_to_end.insert("cpu_ms_per_op", stats::median(&cpu_ms_per_op));
    end_to_end.insert("peak_rss_mb", sys::peak_rss_mib());
    end_to_end.insert(
        "optimizer_calls_per_query",
        calls as f64 / modelled.max(1) as f64,
    );
    // Rounds that agree in fingerprint agree in this too.
    end_to_end.insert("advice_cost_ratio", measured[0].advice_cost_ratio);

    // --- How the run itself went. ---
    let spans: usize = traces.values().map(|t| t.spans().len()).sum();
    let mut bench = Values::new();
    bench.insert("bench.round_spread", stats::relative_iqr(&ops_per_s));
    bench.insert(
        "bench.intra_round_drift",
        stats::median(&per_round(&|r| r.timed.drift())),
    );
    bench.insert(
        "bench.generator_cpu_share",
        stats::median(&per_round(&|r| {
            r.timed.generator_cpu_ms / r.timed.cpu_ms.max(1.0)
        })),
    );
    bench.insert("bench.calib_ms", stats::median(&calib_ms));
    bench.insert("bench.rounds", rounds.len() as f64);
    bench.insert("bench.spans", spans as f64);
    bench.insert(
        "bench.journal_on_tmpfs",
        f64::from(u8::from(sys::journal_on_tmpfs())),
    );
    bench.insert("bench.nproc", sys::nproc() as f64);

    // --- Per-layer metrics, from the spans. ---
    let mut values = end_to_end.clone();
    if args.trace {
        let own = &traces[args.workload];
        bench.insert(
            "bench.closure_ratio",
            own.closure_ratio(chain_span(args.workload)),
        );
        bench.insert(
            "bench.trace_overhead_ratio",
            stats::median(&ops_per_s) / rounds[0].timed.ops_per_s(),
        );
        values = bench.clone();
        offline_advise::layer_metrics(&traces[OFFLINE_ADVISE], &mut values);
        search_sweep::layer_metrics(&traces[SEARCH_SWEEP], &mut values);
        serve::durable_layer_metrics(&traces[SERVE_DURABLE], &mut values);
        serve::mixed_layer_metrics(&traces[SERVE_MIXED], &mut values);
        let path = sys::out_dir().join(format!("trace-{}.json", args.workload));
        let written = std::fs::create_dir_all(sys::out_dir())
            .and_then(|()| std::fs::write(&path, own.to_json()));
        if let Err(e) = written {
            eprintln!("perfbench: could not write {}: {e}", path.display());
        }
    }

    let object = |values: &Values| {
        let fields: Vec<String> = values
            .iter()
            .map(|(k, v)| format!("{}: {}", quote(k), registry::json_number(*v)))
            .collect();
        format!("{{{}}}", fields.join(", "))
    };
    let detail = format!(
        "{{\"perfbench\": 1, \"workload\": {}, \"seed\": {}, \"trace\": {}, \"commit\": {}, \"rustc\": {}, \
         \"nproc\": {}, \"journal_on_tmpfs\": {}, \"rounds\": {}, \"wall_s\": {}, \"tail_percentile\": {}, \
         \"tail_samples\": {}, \"ops_per_round\": {}, \"ops_attempted\": {}, \"ops_failed\": {}, \
         \"metrics\": {}, \"bench\": {}, \"per_round\": {{\"setup_s\": {}, \"ops_per_s\": {}, \
         \"op_p50_ms\": {}, \"cpu_ms_per_op\": {}, \"calib_ms\": {}}}, \"failures\": [{}]}}",
        quote(args.workload),
        args.seed,
        u8::from(args.trace),
        quote(&sys::git_commit()),
        quote(env!("PERFBENCH_RUSTC")),
        sys::nproc(),
        u8::from(sys::journal_on_tmpfs()),
        rounds.len(),
        registry::json_number(started.elapsed().as_secs_f64()),
        tail_percentile,
        pooled.len(),
        measured.first().map_or(0, |r| r.timed.ops()),
        attempted,
        failed,
        object(&end_to_end),
        object(&bench),
        numbers(setup_s),
        numbers(ops_per_s),
        numbers(p50_ms),
        numbers(cpu_ms_per_op),
        numbers(calib_ms.iter().copied()),
        notes.iter().take(8).map(|n| quote(n)).collect::<Vec<_>>().join(", "),
    );

    Report {
        attempted,
        failed,
        values,
        per_layer: args.trace,
        detail,
    }
}
