//! # pinum-cost
//!
//! A PostgreSQL-style cost model for the PINUM reproduction: the formulas
//! follow `optimizer/path/costsize.c` (v8.3 lineage, with index-only scans
//! modeled as in later versions).
//!
//! Costs are expressed in the usual abstract units where one sequential page
//! fetch costs `seq_page_cost = 1.0`. Every function here is **pure**: it
//! maps statistics to a [`Cost`], which is what lets the INUM cache replay
//! plans as linear functions of leaf access costs.

pub mod agg;
pub mod join;
pub mod params;
pub mod scan;
pub mod sort;

pub use params::CostParams;

use std::ops::{Add, AddAssign};

/// A PostgreSQL-style cost pair.
///
/// `startup` is the cost before the first tuple can be produced; `total` is
/// the cost to produce all tuples. `run = total - startup`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Cost {
    pub startup: f64,
    pub total: f64,
}

impl Cost {
    pub const ZERO: Cost = Cost {
        startup: 0.0,
        total: 0.0,
    };

    pub fn new(startup: f64, total: f64) -> Self {
        debug_assert!(startup.is_finite() && total.is_finite());
        debug_assert!(total + 1e-9 >= startup, "total {total} < startup {startup}");
        Self { startup, total }
    }

    /// Cost with no startup component.
    pub fn run_only(total: f64) -> Self {
        Self::new(0.0, total)
    }

    /// The post-startup (per-run) portion.
    pub fn run(&self) -> f64 {
        (self.total - self.startup).max(0.0)
    }

    /// Adds a pure run cost.
    pub fn plus_run(self, run: f64) -> Self {
        Self::new(self.startup, self.total + run)
    }

    /// Adds a startup cost (which also delays total).
    pub fn plus_startup(self, startup: f64) -> Self {
        Self::new(self.startup + startup, self.total + startup)
    }
}

impl Add for Cost {
    type Output = Cost;
    fn add(self, rhs: Cost) -> Cost {
        Cost::new(self.startup + rhs.startup, self.total + rhs.total)
    }
}

impl AddAssign for Cost {
    fn add_assign(&mut self, rhs: Cost) {
        *self = *self + rhs;
    }
}

/// PostgreSQL's `clamp_row_est`: row estimates are at least one and rounded.
pub fn clamp_row_est(rows: f64) -> f64 {
    if rows <= 1.0 {
        1.0
    } else {
        rows.round()
    }
}

/// `ceil(log2(n))` guarded for small inputs, used by sort and B-tree descent
/// costs.
pub fn log2_ceil(n: f64) -> f64 {
    if n <= 2.0 {
        1.0
    } else {
        n.log2().ceil()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_algebra() {
        let a = Cost::new(1.0, 5.0);
        let b = Cost::new(0.5, 2.0);
        let c = a + b;
        assert_eq!(c, Cost::new(1.5, 7.0));
        assert!((a.run() - 4.0).abs() < 1e-12);
        assert_eq!(a.plus_run(1.0), Cost::new(1.0, 6.0));
        assert_eq!(a.plus_startup(1.0), Cost::new(2.0, 6.0));
    }

    #[test]
    #[should_panic]
    #[cfg(debug_assertions)]
    fn total_below_startup_asserts() {
        let _ = Cost::new(5.0, 1.0);
    }

    #[test]
    fn clamp_rows() {
        assert_eq!(clamp_row_est(-3.0), 1.0);
        assert_eq!(clamp_row_est(0.2), 1.0);
        assert_eq!(clamp_row_est(10.4), 10.0);
    }

    #[test]
    fn log2_ceil_small_values() {
        assert_eq!(log2_ceil(0.0), 1.0);
        assert_eq!(log2_ceil(2.0), 1.0);
        assert_eq!(log2_ceil(8.0), 3.0);
        assert_eq!(log2_ceil(9.0), 4.0);
    }
}
