//! Binary codecs for the advisor's exported state.
//!
//! Everything rides on the `pinum-protocol` wire primitives (fixed-width
//! little-endian fields, length-prefixed sequences with pre-allocation
//! caps), so snapshots and log records inherit the protocol's hostile
//! input discipline: every length is bounded by the remaining bytes
//! before a single element is allocated, and every malformed byte
//! surfaces as a typed [`WireError`] — never a panic.
//!
//! The codecs here are *structural*: they reproduce the exported parts
//! arrays bit-for-bit (floats travel as raw IEEE-754 bits). Cross-array
//! semantic invariants are re-validated by the domain `from_parts`
//! constructors on restore, so a snapshot that decodes cleanly can still
//! be rejected — as a typed error — if its arrays do not describe a
//! consistent daemon.

use pinum_advisor::search::StrategyKind;
use pinum_core::WorkloadModelParts;
use pinum_online::{DriftAttributionParts, OnlineAdvisorOptions, OnlineAdvisorParts, OnlineStats};
use pinum_protocol::wire::{put_bool, put_f64, put_u32, put_u64, put_u8, put_vec, Cursor};
use pinum_protocol::{WireError, WireTemplate};
use std::time::Duration;

use crate::convert::{template_from_wire, template_to_wire};

// --- Tiny helpers over the protocol primitives. ---

fn put_f64s(out: &mut Vec<u8>, v: &[f64]) {
    put_vec(out, v, |o, &x| put_f64(o, x));
}

fn put_u32s(out: &mut Vec<u8>, v: &[u32]) {
    put_vec(out, v, |o, &x| put_u32(o, x));
}

fn put_u64s(out: &mut Vec<u8>, v: &[u64]) {
    put_vec(out, v, |o, &x| put_u64(o, x));
}

fn put_bools(out: &mut Vec<u8>, v: &[bool]) {
    put_vec(out, v, |o, &x| put_bool(o, x));
}

fn f64s(c: &mut Cursor<'_>) -> Result<Vec<f64>, WireError> {
    c.vec(8, |c| c.f64())
}

fn u32s(c: &mut Cursor<'_>) -> Result<Vec<u32>, WireError> {
    c.vec(4, |c| c.u32())
}

fn u64s(c: &mut Cursor<'_>) -> Result<Vec<u64>, WireError> {
    c.vec(8, |c| c.u64())
}

fn bools(c: &mut Cursor<'_>) -> Result<Vec<bool>, WireError> {
    c.vec(1, |c| c.bool())
}

fn duration(c: &mut Cursor<'_>) -> Result<Duration, WireError> {
    Ok(Duration::from_nanos(c.u64()?))
}

fn put_duration(out: &mut Vec<u8>, d: Duration) {
    // Saturating: 2^64 ns ≈ 584 years of wall clock.
    put_u64(out, u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
}

// --- Advisor options (superset of the wire's WireOptions: snapshots
// must round-trip *every* strategy, including the annealer the TCP
// protocol deliberately does not expose). ---

pub fn encode_options(out: &mut Vec<u8>, o: &OnlineAdvisorOptions) {
    put_u64(out, o.window_capacity as u64);
    put_u64(out, o.epoch_length as u64);
    put_f64(out, o.drift_threshold);
    match o.strategy {
        StrategyKind::LazyGreedy => put_u8(out, 0),
        StrategyKind::EagerGreedy => put_u8(out, 1),
        StrategyKind::SwapHillClimb => put_u8(out, 2),
        StrategyKind::Anneal { seed } => {
            put_u8(out, 3);
            put_u64(out, seed);
        }
    }
    put_u64(out, o.budget_bytes);
    put_bool(out, o.scoped_readvise);
}

pub fn decode_options(c: &mut Cursor<'_>) -> Result<OnlineAdvisorOptions, WireError> {
    let window_capacity = c.u64()? as usize;
    let epoch_length = c.u64()? as usize;
    let drift_threshold = c.f64()?;
    let strategy = match c.u8()? {
        0 => StrategyKind::LazyGreedy,
        1 => StrategyKind::EagerGreedy,
        2 => StrategyKind::SwapHillClimb,
        3 => StrategyKind::Anneal { seed: c.u64()? },
        _ => return Err(WireError::Malformed("unknown strategy tag")),
    };
    Ok(OnlineAdvisorOptions {
        window_capacity,
        epoch_length,
        drift_threshold,
        strategy,
        budget_bytes: c.u64()?,
        scoped_readvise: c.bool()?,
    })
}

// --- The streaming model's SoA arrays, serialized flat. ---

pub fn encode_model_parts(out: &mut Vec<u8>, p: &WorkloadModelParts) {
    put_u64(out, p.pool_size);
    put_f64s(out, &p.arm_costs);
    put_u32s(out, &p.arm_cands);
    put_f64s(out, &p.slot_coef);
    put_f64s(out, &p.slot_pcoef);
    put_f64s(out, &p.slot_s_always);
    put_f64s(out, &p.slot_p_always);
    put_u32s(out, &p.slot_s_start);
    put_u32s(out, &p.slot_s_end);
    put_u32s(out, &p.slot_p_start);
    put_u32s(out, &p.slot_p_end);
    put_bools(out, &p.slot_required);
    put_f64s(out, &p.plan_internal);
    put_u32s(out, &p.plan_slot_start);
    put_u32s(out, &p.plan_slot_end);
    put_u32s(out, &p.query_plan_start);
    put_u32s(out, &p.query_plan_end);
    put_u32s(out, &p.query_touched_start);
    put_u32s(out, &p.query_touched_end);
    put_u64s(out, &p.query_bloom);
    put_u32s(out, &p.query_arm_count);
    put_u32s(out, &p.touched);
    put_f64s(out, &p.weights);
    put_bools(out, &p.live);
}

pub fn decode_model_parts(c: &mut Cursor<'_>) -> Result<WorkloadModelParts, WireError> {
    Ok(WorkloadModelParts {
        pool_size: c.u64()?,
        arm_costs: f64s(c)?,
        arm_cands: u32s(c)?,
        slot_coef: f64s(c)?,
        slot_pcoef: f64s(c)?,
        slot_s_always: f64s(c)?,
        slot_p_always: f64s(c)?,
        slot_s_start: u32s(c)?,
        slot_s_end: u32s(c)?,
        slot_p_start: u32s(c)?,
        slot_p_end: u32s(c)?,
        slot_required: bools(c)?,
        plan_internal: f64s(c)?,
        plan_slot_start: u32s(c)?,
        plan_slot_end: u32s(c)?,
        query_plan_start: u32s(c)?,
        query_plan_end: u32s(c)?,
        query_touched_start: u32s(c)?,
        query_touched_end: u32s(c)?,
        query_bloom: u64s(c)?,
        query_arm_count: u32s(c)?,
        touched: u32s(c)?,
        weights: f64s(c)?,
        live: bools(c)?,
    })
}

// --- Attribution books (templates travel in dense id order). ---

pub fn encode_attribution_parts(out: &mut Vec<u8>, p: &DriftAttributionParts) {
    put_vec(out, &p.templates, |o, t| template_to_wire(t).encode(o));
    put_vec(out, &p.per_query, |o, ids| put_u32s(o, ids));
    put_vec(out, &p.status, |o, &s| put_u8(o, s));
    put_f64s(out, &p.baseline);
    put_bool(out, p.baseline_captured);
}

pub fn decode_attribution_parts(c: &mut Cursor<'_>) -> Result<DriftAttributionParts, WireError> {
    Ok(DriftAttributionParts {
        templates: c
            .vec(4, WireTemplate::decode)?
            .iter()
            .map(template_from_wire)
            .collect(),
        per_query: c.vec(4, u32s)?,
        status: c.vec(1, |c| c.u8())?,
        baseline: f64s(c)?,
        baseline_captured: c.bool()?,
    })
}

// --- Lifetime counters (wall clocks as nanoseconds). ---

pub fn encode_stats(out: &mut Vec<u8>, s: &OnlineStats) {
    put_u64(out, s.admits as u64);
    put_u64(out, s.evictions as u64);
    put_u64(out, s.reweights as u64);
    put_u64(out, s.reweight_misses as u64);
    put_u64(out, s.readvises as u64);
    put_u64(out, s.epoch_readvises as u64);
    put_u64(out, s.drift_readvises as u64);
    put_u64(out, s.forced_readvises as u64);
    put_u64(out, s.scoped_readvises as u64);
    put_u64(out, s.full_repricings as u64);
    put_u64(out, s.compactions as u64);
    put_u64(out, s.admit_arms_total as u64);
    put_u64(out, s.admit_arms_max as u64);
    put_u64(out, s.collect_calls as u64);
    put_u64(out, s.collect_template_hits as u64);
    put_duration(out, s.model_admit_wall);
    put_duration(out, s.readvise_wall);
    put_duration(out, s.last_readvise_wall);
}

pub fn decode_stats(c: &mut Cursor<'_>) -> Result<OnlineStats, WireError> {
    Ok(OnlineStats {
        admits: c.u64()? as usize,
        evictions: c.u64()? as usize,
        reweights: c.u64()? as usize,
        reweight_misses: c.u64()? as usize,
        readvises: c.u64()? as usize,
        epoch_readvises: c.u64()? as usize,
        drift_readvises: c.u64()? as usize,
        forced_readvises: c.u64()? as usize,
        scoped_readvises: c.u64()? as usize,
        full_repricings: c.u64()? as usize,
        compactions: c.u64()? as usize,
        admit_arms_total: c.u64()? as usize,
        admit_arms_max: c.u64()? as usize,
        collect_calls: c.u64()? as usize,
        collect_template_hits: c.u64()? as usize,
        model_admit_wall: duration(c)?,
        readvise_wall: duration(c)?,
        last_readvise_wall: duration(c)?,
    })
}

// --- The full daemon export. ---

pub fn encode_advisor_parts(out: &mut Vec<u8>, p: &OnlineAdvisorParts) {
    encode_model_parts(out, &p.model);
    put_u64s(out, &p.selection_words);
    put_f64s(out, &p.per_query);
    put_u64(out, p.full_repricings as u64);
    encode_attribution_parts(out, &p.attribution);
    put_u32s(out, &p.window);
    put_u64(out, p.admission_base as u64);
    put_u32s(out, &p.admission_qid);
    put_u32s(out, &p.qid_ordinal);
    put_f64(out, p.baseline_mean);
    put_u64(out, p.admits_since_advise as u64);
    encode_stats(out, &p.stats);
}

pub fn decode_advisor_parts(c: &mut Cursor<'_>) -> Result<OnlineAdvisorParts, WireError> {
    Ok(OnlineAdvisorParts {
        model: decode_model_parts(c)?,
        selection_words: u64s(c)?,
        per_query: f64s(c)?,
        full_repricings: c.u64()? as usize,
        attribution: decode_attribution_parts(c)?,
        window: u32s(c)?,
        admission_base: c.u64()? as usize,
        admission_qid: u32s(c)?,
        qid_ordinal: u32s(c)?,
        baseline_mean: c.f64()?,
        admits_since_advise: c.u64()? as usize,
        stats: decode_stats(c)?,
    })
}

/// FNV-1a 64 over a byte slice — the integrity check every snapshot and
/// log record carries (the TCP protocol trusts its transport; files do
/// not get that luxury).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn options_roundtrip_all_strategies() {
        for strategy in [
            StrategyKind::LazyGreedy,
            StrategyKind::EagerGreedy,
            StrategyKind::SwapHillClimb,
            StrategyKind::Anneal { seed: 0xDEAD_BEEF },
        ] {
            let opts = OnlineAdvisorOptions {
                strategy,
                drift_threshold: 0.75,
                ..OnlineAdvisorOptions::defaults(1 << 28)
            };
            let mut buf = Vec::new();
            encode_options(&mut buf, &opts);
            let mut c = Cursor::new(&buf);
            let back = decode_options(&mut c).unwrap();
            assert!(c.exhausted());
            assert_eq!(back.strategy, opts.strategy);
            assert_eq!(back.window_capacity, opts.window_capacity);
            assert_eq!(
                back.drift_threshold.to_bits(),
                opts.drift_threshold.to_bits()
            );
        }
    }

    #[test]
    fn stats_roundtrip_preserves_wall_clocks() {
        let stats = OnlineStats {
            admits: 17,
            readvises: 3,
            model_admit_wall: Duration::from_nanos(123_456_789),
            last_readvise_wall: Duration::from_micros(42),
            ..OnlineStats::default()
        };
        let mut buf = Vec::new();
        encode_stats(&mut buf, &stats);
        let back = decode_stats(&mut Cursor::new(&buf)).unwrap();
        assert_eq!(back.admits, 17);
        assert_eq!(back.readvises, 3);
        assert_eq!(back.model_admit_wall, stats.model_admit_wall);
        assert_eq!(back.last_readvise_wall, stats.last_readvise_wall);
    }

    #[test]
    fn fnv_is_the_reference_function() {
        // Reference vectors for FNV-1a 64.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn truncated_parts_are_typed_errors() {
        let parts = WorkloadModelParts {
            pool_size: 4,
            arm_costs: vec![1.0, 2.0],
            arm_cands: vec![0, 1],
            ..WorkloadModelParts::default()
        };
        let mut buf = Vec::new();
        encode_model_parts(&mut buf, &parts);
        for cut in [1, buf.len() / 2, buf.len() - 1] {
            assert!(decode_model_parts(&mut Cursor::new(&buf[..cut])).is_err());
        }
        let back = decode_model_parts(&mut Cursor::new(&buf)).unwrap();
        assert_eq!(back, parts);
    }
}
