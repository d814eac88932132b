//! The global re-advise budget: at most K re-advises run concurrently
//! across all tenants, with an aging queue so a noisy tenant cannot
//! monopolize the permits.
//!
//! ## Why a budget
//!
//! Re-advises are the daemon's expensive operation. Each runs on its
//! tenant's shard thread and holds up that shard's other tenants until it
//! finishes; letting every shard re-advise whenever its tenants drift
//! would put every core into re-advises at once and stall admissions
//! behind them. The budget caps the
//! concurrency at a configured K and decides *who goes next* when a
//! permit frees.
//!
//! ## Aging discipline
//!
//! Time is counted in **grant events** (a monotone counter bumped every
//! time a permit is granted) — a deterministic unit, unlike wall clock.
//! Each waiter's effective priority is
//!
//! ```text
//! score(tenant) = lifetime_grants(tenant) − events_waited
//! ```
//!
//! and the waiter with the *lowest* score wins (ties broken by arrival
//! order). Fresh tenants (few grants) win immediately; a tenant that has
//! been granted often starts behind, but every grant that passes while
//! it waits discounts one grant from its history — so its wait is
//! bounded by its grant surplus plus the queue length, never unbounded.
//! Per-tenant wait statistics (in grant events) are recorded for
//! `GetStats` and gated by the multi-tenant experiment.

use std::collections::HashMap;
use std::sync::{Condvar, Mutex};

/// Per-tenant budget accounting, reported via `GetStats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantBudgetStats {
    /// Permits granted to this tenant.
    pub grants: u64,
    /// Grants that had to queue (no permit free on arrival).
    pub waits: u64,
    /// Longest single wait, in grant events elapsed while queued.
    pub max_wait_events: u64,
    /// Sum of waits in grant events.
    pub total_wait_events: u64,
}

#[derive(Debug)]
struct Waiter {
    tenant: u64,
    /// Grant-event clock when the waiter queued.
    enqueued_at: u64,
    /// Arrival tie-breaker.
    seq: u64,
    /// Set by the granter; the waiter consumes it and leaves the queue.
    granted: bool,
}

#[derive(Debug, Default)]
struct State {
    available: usize,
    queue: Vec<Waiter>,
    /// Monotone grant-event clock.
    grant_events: u64,
    /// Arrival sequence for FIFO tie-breaks.
    arrivals: u64,
    grants_by_tenant: HashMap<u64, u64>,
    stats: HashMap<u64, TenantBudgetStats>,
}

impl State {
    /// Grants one free permit to the best waiter, if any. Returns the
    /// arrival seq of the granted waiter.
    fn grant_next(&mut self) -> Option<u64> {
        if self.available == 0 || self.queue.is_empty() {
            return None;
        }
        let best = self
            .queue
            .iter()
            .enumerate()
            .filter(|(_, w)| !w.granted)
            .min_by_key(|(_, w)| {
                let grants = *self.grants_by_tenant.get(&w.tenant).unwrap_or(&0) as i64;
                let age = (self.grant_events - w.enqueued_at) as i64;
                (grants - age, w.seq)
            })?
            .0;
        self.available -= 1;
        let (tenant, waited, seq) = {
            let w = &mut self.queue[best];
            w.granted = true;
            (w.tenant, self.grant_events - w.enqueued_at, w.seq)
        };
        self.record_grant(tenant, waited, true);
        Some(seq)
    }

    fn record_grant(&mut self, tenant: u64, waited_events: u64, queued: bool) {
        self.grant_events += 1;
        *self.grants_by_tenant.entry(tenant).or_insert(0) += 1;
        let s = self.stats.entry(tenant).or_default();
        s.grants += 1;
        if queued {
            s.waits += 1;
            s.max_wait_events = s.max_wait_events.max(waited_events);
            s.total_wait_events += waited_events;
        }
    }
}

/// Counting semaphore with the aging grant discipline described in the
/// module docs. `acquire` blocks the calling shard thread; dropping the
/// returned [`BudgetPermit`] releases the permit and wakes the queue.
#[derive(Debug)]
pub struct ReadviseBudget {
    state: Mutex<State>,
    cv: Condvar,
}

impl ReadviseBudget {
    /// A budget of `permits` concurrent re-advises (floored at 1 — a
    /// zero budget would deadlock every re-advise forever).
    pub fn new(permits: usize) -> Self {
        Self {
            state: Mutex::new(State {
                available: permits.max(1),
                ..State::default()
            }),
            cv: Condvar::new(),
        }
    }

    /// Blocks until `tenant` is granted a permit.
    pub fn acquire(&self, tenant: u64) -> BudgetPermit<'_> {
        let mut st = self.state.lock().expect("budget mutex");
        if st.available > 0 && st.queue.iter().all(|w| w.granted) {
            // Fast path: a permit is free and nobody ungranted is ahead.
            st.available -= 1;
            st.record_grant(tenant, 0, false);
            return BudgetPermit { budget: self };
        }
        let seq = st.arrivals;
        st.arrivals += 1;
        let enqueued_at = st.grant_events;
        st.queue.push(Waiter {
            tenant,
            enqueued_at,
            seq,
            granted: false,
        });
        loop {
            // A release may have freed a permit for this waiter (or for a
            // better-scored one — the granter decides).
            if let Some(granted_seq) = st.grant_next() {
                if granted_seq != seq {
                    self.cv.notify_all();
                }
            }
            if let Some(pos) = st.queue.iter().position(|w| w.seq == seq && w.granted) {
                st.queue.remove(pos);
                return BudgetPermit { budget: self };
            }
            st = self.cv.wait(st).expect("budget mutex");
        }
    }

    /// This tenant's accounting so far (zeroes when it never re-advised).
    pub fn stats(&self, tenant: u64) -> TenantBudgetStats {
        let st = self.state.lock().expect("budget mutex");
        st.stats.get(&tenant).copied().unwrap_or_default()
    }

    /// Max `max_wait_events` across all tenants — the headline the
    /// multi-tenant experiment bounds.
    pub fn max_wait_events(&self) -> u64 {
        let st = self.state.lock().expect("budget mutex");
        st.stats
            .values()
            .map(|s| s.max_wait_events)
            .max()
            .unwrap_or(0)
    }

    fn release(&self) {
        let mut st = self.state.lock().expect("budget mutex");
        st.available += 1;
        if st.grant_next().is_some() {
            self.cv.notify_all();
        }
    }
}

/// RAII permit: the re-advise runs while this is alive.
#[derive(Debug)]
pub struct BudgetPermit<'a> {
    budget: &'a ReadviseBudget,
}

impl Drop for BudgetPermit<'_> {
    fn drop(&mut self) {
        self.budget.release();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn budget_caps_concurrency() {
        let budget = Arc::new(ReadviseBudget::new(2));
        let running = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let (b, r, p) = (budget.clone(), running.clone(), peak.clone());
            handles.push(std::thread::spawn(move || {
                for _ in 0..20 {
                    let _permit = b.acquire(t);
                    let now = r.fetch_add(1, Ordering::SeqCst) + 1;
                    p.fetch_max(now, Ordering::SeqCst);
                    std::thread::yield_now();
                    r.fetch_sub(1, Ordering::SeqCst);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(peak.load(Ordering::SeqCst) <= 2, "budget exceeded");
        // Every grant was recorded.
        let total: u64 = (0..8).map(|t| budget.stats(t).grants).sum();
        assert_eq!(total, 160);
    }

    #[test]
    fn aging_bounds_a_starved_tenants_wait() {
        // Single permit. Tenant 0 grabs it many times first (a noisy
        // tenant); then tenants 0 and 1 contend. Tenant 1 must be
        // preferred until the age discount catches tenant 0 up, and its
        // max wait must stay far below tenant 0's grant surplus.
        let budget = ReadviseBudget::new(1);
        for _ in 0..50 {
            drop(budget.acquire(0));
        }
        let budget = Arc::new(budget);
        let order = Arc::new(Mutex::new(Vec::new()));
        let mut handles = Vec::new();
        for t in [0u64, 1] {
            let (b, o) = (budget.clone(), order.clone());
            handles.push(std::thread::spawn(move || {
                for _ in 0..10 {
                    let permit = b.acquire(t);
                    o.lock().unwrap().push(t);
                    std::thread::sleep(std::time::Duration::from_millis(1));
                    drop(permit);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // The starved tenant was never pushed behind the whole noisy
        // history: its longest wait is bounded by the queue dynamics
        // (one competitor), not by tenant 0's 50-grant surplus.
        assert!(
            budget.stats(1).max_wait_events <= 4,
            "starved tenant waited {} grant events",
            budget.stats(1).max_wait_events
        );
        assert_eq!(order.lock().unwrap().len(), 20);
    }

    #[test]
    fn zero_budget_is_floored_to_one() {
        let budget = ReadviseBudget::new(0);
        drop(budget.acquire(7));
        assert_eq!(budget.stats(7).grants, 1);
        assert_eq!(budget.max_wait_events(), 0);
    }
}
