//! What every workload's round hands back, and the stopwatch that times
//! it. A round is set-up -> untimed warm-up -> timed phase of a fixed
//! operation count -> verification; the runner repeats identical rounds and
//! reports medians over them.

use crate::fixtures::Size;
use crate::stats;
use crate::sys;
use crate::trace::Trace;
use std::time::Instant;

/// Inputs of one round. `trace` is `Some` in a traced round: the round
/// then records an `op` span per timed op and, after its timed phase,
/// replays each op's chain of public calls under child spans.
pub struct RoundCtx<'a> {
    pub seed: u64,
    pub size: &'a Size,
    /// Position of the round in its run; names the journal directory.
    pub index: usize,
    pub trace: Option<&'a mut Trace>,
}

/// Mismatches found by a round, with the first few spelled out.
#[derive(Debug, Default)]
pub struct Failures {
    pub count: usize,
    pub notes: Vec<String>,
}

impl Failures {
    pub fn note(&mut self, what: impl FnOnce() -> String) {
        self.add(1, what);
    }

    /// Counts `n` failures of one kind, described once.
    pub fn add(&mut self, n: usize, what: impl FnOnce() -> String) {
        self.count += n;
        if n > 0 && self.notes.len() < 5 {
            self.notes.push(format!("{n} x {}", what()));
        }
    }

    /// Counts a failure unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.note(what);
        }
    }
}

pub struct RoundOutcome {
    /// Round start -> first timed op.
    pub setup_s: f64,
    pub timed: TimedPhase,
    /// Ops issued, warm-up included.
    pub attempted: usize,
    pub failures: Failures,
    /// Optimizer calls spent, and the queries they modelled.
    pub optimizer_calls: usize,
    pub queries_modelled: usize,
    /// Priced cost of the final selections / of the empty ones.
    pub advice_cost_ratio: f64,
    /// Hash of every result the round computed; equal across rounds of a
    /// run or the rounds did not do the same work.
    pub fingerprint: u64,
}

/// The measurements of one timed phase, as the monotonic clock read them.
pub struct TimedPhase {
    pub wall_s: f64,
    /// Latency of each op in ms, in issue order; +inf for a failed op.
    pub latencies_ms: Vec<f64>,
    /// Completion time of each op in seconds since the phase began.
    ends_s: Vec<f64>,
    pub cpu_ms: f64,
    pub generator_cpu_ms: f64,
}

impl TimedPhase {
    pub fn ops(&self) -> usize {
        self.latencies_ms.len()
    }

    pub fn ops_per_s(&self) -> f64 {
        self.ops() as f64 / self.wall_s
    }

    pub fn p50_ms(&self) -> f64 {
        stats::median(&self.latencies_ms)
    }

    pub fn cpu_ms_per_op(&self) -> f64 {
        self.cpu_ms / self.ops().max(1) as f64
    }

    /// Throughput of the second half of the ops over that of the first:
    /// below 1 when ops get slower as the round goes on.
    pub fn drift(&self) -> f64 {
        let mut ends = self.ends_s.clone();
        ends.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
        let half = ends.len() / 2;
        if half == 0 {
            return 1.0;
        }
        let first = ends[half - 1];
        let second = ends[ends.len() - 1] - first;
        if second <= 0.0 {
            return 1.0;
        }
        ((ends.len() - half) as f64 / second) / (half as f64 / first)
    }
}

/// Stopwatch of a round: started with the round, it reads the set-up time at
/// [`Self::begin_timed`] and from then on takes one `(start, end)` pair per
/// op.
pub struct Stopwatch {
    round_from: Instant,
    setup_s: f64,
    timed_from: Instant,
    cpu0: f64,
    generator_cpu0: f64,
    latencies_ms: Vec<f64>,
    ends_s: Vec<f64>,
}

impl Stopwatch {
    /// Starts with the round, in its set-up.
    pub fn start() -> Self {
        let now = Instant::now();
        Self {
            round_from: now,
            setup_s: 0.0,
            timed_from: now,
            cpu0: 0.0,
            generator_cpu0: 0.0,
            latencies_ms: Vec::new(),
            ends_s: Vec::new(),
        }
    }

    /// Ends the set-up and starts the timed phase.
    pub fn begin_timed(&mut self) {
        self.cpu0 = sys::process_cpu_ms();
        self.generator_cpu0 = sys::thread_cpu_ms();
        self.timed_from = Instant::now();
        self.setup_s = self
            .timed_from
            .duration_since(self.round_from)
            .as_secs_f64();
    }

    pub fn setup_s(&self) -> f64 {
        self.setup_s
    }

    /// Records the op issued next in order.
    pub fn op(&mut self, start: Instant, end: Instant, ok: bool) {
        let ms = end.duration_since(start).as_secs_f64() * 1e3;
        self.latencies_ms.push(if ok { ms } else { f64::INFINITY });
        self.ends_s
            .push(end.duration_since(self.timed_from).as_secs_f64());
    }

    /// Ends the timed phase.
    pub fn finish(self) -> TimedPhase {
        let wall_s = self.timed_from.elapsed().as_secs_f64();
        TimedPhase {
            wall_s,
            latencies_ms: self.latencies_ms,
            ends_s: self.ends_s,
            cpu_ms: sys::process_cpu_ms() - self.cpu0,
            generator_cpu_ms: sys::thread_cpu_ms() - self.generator_cpu0,
        }
    }
}

/// FNV-1a over 64-bit words: the fingerprint rounds are compared by.
#[derive(Clone, Copy)]
pub struct Fingerprint(pub u64);

impl Fingerprint {
    pub fn new() -> Self {
        Self(0xCBF2_9CE4_8422_2325)
    }

    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
        }
    }

    pub fn words(&mut self, ws: impl IntoIterator<Item = u64>) {
        for w in ws {
            self.word(w);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn drift_compares_the_halves() {
        let phase = |ends: Vec<f64>| TimedPhase {
            wall_s: *ends.last().unwrap(),
            latencies_ms: vec![1.0; ends.len()],
            ends_s: ends,
            cpu_ms: 0.0,
            generator_cpu_ms: 0.0,
        };
        assert!((phase(vec![1.0, 2.0, 3.0, 4.0]).drift() - 1.0).abs() < 1e-12);
        // Second half takes twice as long: half the throughput.
        assert!((phase(vec![1.0, 2.0, 4.0, 6.0]).drift() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn the_stopwatch_reads_set_up_then_one_latency_per_op() {
        let mut watch = Stopwatch::start();
        std::thread::sleep(Duration::from_millis(2));
        watch.begin_timed();
        assert!(watch.setup_s() >= 0.002);
        let t = Instant::now();
        watch.op(t, t + Duration::from_millis(10), true);
        watch.op(t, t + Duration::from_millis(10), false);
        let phase = watch.finish();
        assert_eq!(phase.ops(), 2);
        assert!((phase.latencies_ms[0] - 10.0).abs() < 1e-9);
        assert_eq!(phase.latencies_ms[1], f64::INFINITY);
        assert!(phase.wall_s > 0.0 && phase.ops_per_s() > 0.0);
    }

    #[test]
    fn fingerprint_depends_on_every_word() {
        let mut a = Fingerprint::new();
        a.words([1, 2, 3]);
        let mut b = Fingerprint::new();
        b.words([1, 2, 4]);
        assert_ne!(a.0, b.0);
    }
}
