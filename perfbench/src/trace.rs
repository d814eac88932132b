//! Spans recorded from the benchmark's own files, around the calls into
//! each layer. They stay in memory and are written out once, at exit.

use std::collections::BTreeMap;
use std::time::Instant;

/// Index of a span in its [`Trace`]; [`NO_PARENT`] for a root.
pub type SpanId = u32;
pub const NO_PARENT: SpanId = u32::MAX;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// The operation the span belongs to; spans of one op share it.
    pub op_id: u32,
    /// The span that caused this one.
    pub parent: SpanId,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// The spans of one workload in one run.
pub struct Trace {
    epoch: Instant,
    spans: Vec<Span>,
    /// Counts taken at the same boundaries as the spans: name -> (sum, n).
    counts: BTreeMap<&'static str, (f64, u64)>,
}

impl Trace {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    /// Adds one observation of a count (plans returned, bytes framed, ...).
    pub fn add(&mut self, name: &'static str, value: f64) {
        let entry = self.counts.entry(name).or_insert((0.0, 0));
        entry.0 += value;
        entry.1 += 1;
    }

    /// Sum of the observations of a count; 0 when there were none.
    pub fn sum(&self, name: &str) -> f64 {
        self.counts.get(name).map_or(0.0, |c| c.0)
    }

    /// Mean of the observations of a count; 0 when there were none.
    pub fn mean(&self, name: &str) -> f64 {
        self.counts
            .get(name)
            .map_or(0.0, |c| if c.1 == 0 { 0.0 } else { c.0 / c.1 as f64 })
    }

    fn ns(&self, at: Instant) -> u64 {
        at.duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span now; close it with [`Self::end`].
    pub fn begin(&mut self, name: &'static str, op_id: u32, parent: SpanId) -> SpanId {
        let now = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            op_id,
            parent,
            start_ns: now,
            end_ns: now,
        });
        (self.spans.len() - 1) as SpanId
    }

    pub fn end(&mut self, id: SpanId) {
        self.spans[id as usize].end_ns = self.ns(Instant::now());
    }

    /// Times `f` under a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        op_id: u32,
        parent: SpanId,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, op_id, parent);
        let out = f();
        self.end(id);
        out
    }

    /// Records a span whose ends were taken elsewhere (a timed op).
    pub fn record(
        &mut self,
        name: &'static str,
        op_id: u32,
        parent: SpanId,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            op_id,
            parent,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
        (self.spans.len() - 1) as SpanId
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in ms of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Summed duration in ms of every span called `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.durations_ms(name).iter().sum()
    }

    pub fn span_count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Σ direct children / Σ parents over every span called `parent_name`
    /// that has children: how much of the replayed chain its child spans
    /// account for. The rest is the chain's self time.
    pub fn closure_ratio(&self, parent_name: &str) -> f64 {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let (mut parents, mut children) = (0u64, 0u64);
        for (i, s) in self.spans.iter().enumerate() {
            if s.name == parent_name && child_ns[i] > 0 {
                parents += s.end_ns - s.start_ns;
                children += child_ns[i];
            }
        }
        if parents == 0 {
            0.0
        } else {
            children as f64 / parents as f64
        }
    }

    /// The spans as a JSON array, one object per span.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"op_id\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.op_id, s.start_ns, s.end_ns
            ));
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push(']');
        out
    }
}

/// Times `f` under a root span when tracing, and just runs it when not.
pub fn time_if<T>(trace: &mut Option<&mut Trace>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match trace.as_deref_mut() {
        Some(trace) => trace.time(name, 0, NO_PARENT, f),
        None => f(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closure_is_children_over_parent() {
        let mut t = Trace::new();
        let base = t.epoch;
        let at = |ms: u64| base + std::time::Duration::from_millis(ms);
        let chain = t.record("chain", 0, NO_PARENT, at(0), at(100));
        t.record("a", 0, chain, at(0), at(40));
        t.record("b", 0, chain, at(40), at(95));
        // A chain without children is left out, not counted as 0.
        t.record("chain", 1, NO_PARENT, at(100), at(150));
        assert!((t.closure_ratio("chain") - 0.95).abs() < 1e-9);
        assert_eq!(t.span_count("chain"), 2);
        t.add("plans", 3.0);
        t.add("plans", 5.0);
        assert_eq!(
            (t.sum("plans"), t.mean("plans"), t.mean("none")),
            (8.0, 4.0, 0.0)
        );
        assert!((t.total_ms("a") - 40.0).abs() < 1e-9);
    }
}
