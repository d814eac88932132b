//! Minimal, dependency-free stand-in for the `proptest` crate (the build
//! environment has no access to crates.io).
//!
//! Supported surface — exactly what the workspace's property tests use:
//!
//! * the [`proptest!`] macro with `fn name(arg in strategy, ...) { body }`
//!   test cases and an optional leading `#![proptest_config(...)]`;
//! * [`Strategy`] implemented for integer/float ranges and
//!   `prop::collection::vec`;
//! * [`prop_assert!`] / [`prop_assert_eq!`];
//! * [`ProptestConfig::with_cases`], overridden for every test by a
//!   `PROPTEST_CASES` environment variable when one is set (so a CI leg
//!   can run a target deeper than its in-source case counts).
//!
//! Unlike real proptest there is no shrinking: a failing case panics with
//! the sampled inputs printed, which is enough to reproduce (generation is
//! deterministic per test name and case index).

/// Deterministic generator handed to strategies (SplitMix64).
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Seed derived from the test's name so every test has its own stream but
/// reruns reproduce it exactly.
pub fn seed_for(name: &str) -> u64 {
    // FNV-1a.
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// A value generator (vastly simplified `proptest::strategy::Strategy`).
pub trait Strategy {
    type Value;
    fn sample(&self, rng: &mut TestRng) -> Self::Value;
}

macro_rules! impl_int_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for core::ops::Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty strategy range");
                let span = (self.end as u128).wrapping_sub(self.start as u128);
                self.start.wrapping_add((rng.next_u64() as u128 % span) as $t)
            }
        }
        impl Strategy for core::ops::RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "empty strategy range");
                let span = (end as u128).wrapping_sub(start as u128) + 1;
                start.wrapping_add((rng.next_u64() as u128 % span) as $t)
            }
        }
    )*};
}

impl_int_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for core::ops::Range<f64> {
    type Value = f64;
    fn sample(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty strategy range");
        self.start + rng.unit_f64() * (self.end - self.start)
    }
}

/// `prop::collection::vec` etc.
pub mod prop {
    pub mod collection {
        use crate::{Strategy, TestRng};

        /// Length specifiers `vec` accepts: exact, `a..b`, `a..=b`.
        pub trait SizeRange {
            fn sample_len(&self, rng: &mut TestRng) -> usize;
        }

        impl SizeRange for usize {
            fn sample_len(&self, _rng: &mut TestRng) -> usize {
                *self
            }
        }

        impl SizeRange for core::ops::Range<usize> {
            fn sample_len(&self, rng: &mut TestRng) -> usize {
                Strategy::sample(self, rng)
            }
        }

        impl SizeRange for core::ops::RangeInclusive<usize> {
            fn sample_len(&self, rng: &mut TestRng) -> usize {
                Strategy::sample(self, rng)
            }
        }

        pub struct VecStrategy<S, L> {
            element: S,
            len: L,
        }

        pub fn vec<S: Strategy, L: SizeRange>(element: S, len: L) -> VecStrategy<S, L> {
            VecStrategy { element, len }
        }

        impl<S: Strategy, L: SizeRange> Strategy for VecStrategy<S, L> {
            type Value = Vec<S::Value>;
            fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
                let n = self.len.sample_len(rng);
                (0..n).map(|_| self.element.sample(rng)).collect()
            }
        }
    }
}

/// Per-test configuration (only `cases` is honored).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    pub cases: u32,
}

/// The cases a test runs: `PROPTEST_CASES` when it is set to a number,
/// else the configured count.
pub fn case_count(config: &ProptestConfig) -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(config.cases)
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self { cases: 64 }
    }
}

impl ProptestConfig {
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

pub mod prelude {
    pub use crate::{
        prop, prop_assert, prop_assert_eq, prop_assert_ne, proptest, ProptestConfig, Strategy,
    };
}

#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

/// Expands each `fn name(arg in strategy, ...) { body }` into a `#[test]`
/// that samples the strategies `config.cases` times and runs the body.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!($config; $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!($crate::ProptestConfig::default(); $($rest)*);
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ($config:expr;) => {};
    ($config:expr;
     $(#[$meta:meta])*
     fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $config;
            let mut rng = $crate::TestRng::new($crate::seed_for(stringify!($name)));
            $(let $arg = $strat;)+
            for case in 0..$crate::case_count(&config) {
                $(let $arg = $crate::Strategy::sample(&$arg, &mut rng);)+
                let run = || {
                    $(let $arg = ::core::clone::Clone::clone(&$arg);)+
                    $body
                };
                if ::std::panic::catch_unwind(::std::panic::AssertUnwindSafe(run)).is_err() {
                    panic!(
                        "proptest case {case} failed for {}: inputs {:?}",
                        stringify!($name),
                        ($(&$arg,)+)
                    );
                }
            }
        }
        $crate::__proptest_impl!($config; $($rest)*);
    };
}
