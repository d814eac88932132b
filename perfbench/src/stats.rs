//! The few statistics the benchmark reports and compares with: medians,
//! quartiles as Python's `statistics.quantiles(values, n=4)` gives them,
//! the highest percentile that still has ten samples beyond it, and the
//! verdict rule of `--compare`.

/// Ascending copy of `values`; NaN sorts last so it shows up in a tail.
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Greater));
    v
}

/// Median (mean of the two middle values for an even count); 0 for none.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Arithmetic mean; 0 for none.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` computes them (the exclusive
/// method: positions `(n + 1)·k/4`, extrapolating at the edges of a tiny
/// sample), because that is what the driver judges spreads with. A single
/// value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len() as i64;
    if n == 0 {
        return (0.0, 0.0);
    }
    if n == 1 {
        return (v[0], v[0]);
    }
    let at = |k: i64| {
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = k * (n + 1) - j * 4;
        (v[j as usize - 1] * (4 - delta) as f64 + v[j as usize] * delta as f64) / 4.0
    };
    (at(1), at(3))
}

/// `(Q3 − Q1) / median`: the spread the driver bounds. 0 when the median
/// is 0.
pub fn relative_iqr(values: &[f64]) -> f64 {
    let m = median(values);
    if m == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1) / m.abs()
}

/// The tail percentiles the benchmark chooses among. 99.9 is left out on
/// purpose: with time-sized runs the sample count moves, and a tail that
/// switches percentile between runs is not one metric.
const TAIL_PERCENTILES: [f64; 3] = [99.0, 90.0, 50.0];

/// The highest of p99 / p90 / p50 that has at least ten samples beyond it,
/// with its value by the nearest-rank rule. Fewer than twenty samples
/// support no tail at all and report the median as p50.
pub fn tail_percentile(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len();
    if n == 0 {
        return (50.0, 0.0);
    }
    for p in TAIL_PERCENTILES {
        // Nearest rank: the smallest value with at least p % at or below.
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        let rank = rank.clamp(1, n);
        if n - rank >= 10 || p == 50.0 {
            return (p, v[rank - 1]);
        }
    }
    unreachable!("p50 always qualifies")
}

/// What `--compare` says about one workload × metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Regressed,
    Unchanged,
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Regressed => "regressed",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The choosing-metrics rule (§6 and §8), `a` the parent's runs and `b`
/// the change's, paired by position:
///
/// * **improved** — `b` wins at least nine tenths of the pairs (ties count
///   for neither) and the medians differ by more than the distance between
///   the parent's own quartiles;
/// * **regressed** — `b`'s median is worse than `a`'s by more than `bound`
///   (a share of `a`'s median);
/// * **unresolved** — neither, but a side's own run-to-run spread is wider
///   than `bound`, so "no change" cannot be told from a hidden one — unless
///   every run of `b` reads better than every run of `a`;
/// * **unchanged** — otherwise.
pub fn verdict(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    let better = |x: f64, y: f64| if lower_is_better { x < y } else { x > y };
    let (med_a, med_b) = (median(a), median(b));
    let pairs = a.len().min(b.len());
    let wins = a.iter().zip(b).filter(|(x, y)| better(**y, **x)).count();
    let (q1, q3) = quartiles(a);
    if pairs > 0
        && wins * 10 >= pairs * 9
        && better(med_b, med_a)
        && (med_b - med_a).abs() > q3 - q1
    {
        return Verdict::Improved;
    }
    let worse_by = if lower_is_better {
        med_b - med_a
    } else {
        med_a - med_b
    };
    if med_a != 0.0 && worse_by / med_a.abs() > bound {
        return Verdict::Regressed;
    }
    let all_better = !a.is_empty() && b.iter().all(|y| a.iter().all(|x| better(*y, *x)));
    if relative_iqr(a).max(relative_iqr(b)) > bound && !all_better {
        return Verdict::Unresolved;
    }
    Verdict::Unchanged
}

/// The verdict on a metric that runs of one seed repeat exactly, `a` and
/// `b` paired by seed: every pair speaks for itself, so one pair that got
/// worse is a regression however the others fell.
pub fn exact_verdict(a: &[f64], b: &[f64], lower_is_better: bool) -> Verdict {
    let better = |x: f64, y: f64| if lower_is_better { x < y } else { x > y };
    if a.iter().zip(b).any(|(x, y)| better(*x, *y)) {
        Verdict::Regressed
    } else if a.iter().zip(b).any(|(x, y)| better(*y, *x)) {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]: the
        // exclusive method extrapolates on a tiny sample, and so do we.
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 22.5));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }

    #[test]
    fn relative_iqr_is_a_share_of_the_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((relative_iqr(&v) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(relative_iqr(&[0.0, 0.0, 0.0]), 0.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        // 120 samples: p99 leaves 1 beyond, p90 leaves 12.
        let v: Vec<f64> = (1..=120).map(f64::from).collect();
        assert_eq!(tail_percentile(&v), (90.0, 108.0));
        // 1000 samples: p99 leaves exactly 10 beyond.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&v), (99.0, 990.0));
        // 999 samples: p99 leaves 9 beyond, so p90.
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(tail_percentile(&v).0, 90.0);
        // Too few for any tail: the median, said to be p50.
        let v: Vec<f64> = (1..=15).map(f64::from).collect();
        assert_eq!(tail_percentile(&v), (50.0, 8.0));
        // A failed op is +inf and lands in the tail.
        let mut v: Vec<f64> = (1..=120).map(f64::from).collect();
        for x in v.iter_mut().take(13) {
            *x = f64::INFINITY;
        }
        assert_eq!(tail_percentile(&v).1, f64::INFINITY);
    }

    fn around(center: f64, step: f64) -> Vec<f64> {
        (0..10).map(|i| center + step * (i as f64 - 4.5)).collect()
    }

    #[test]
    fn verdict_improved_needs_nine_wins_and_a_gap_over_the_parents_iqr() {
        let a = around(100.0, 0.2);
        let b = around(90.0, 0.2);
        assert_eq!(verdict(&a, &b, true, 0.1), Verdict::Improved);
        // Higher-is-better flips the direction.
        assert_eq!(verdict(&b, &a, false, 0.1), Verdict::Improved);
        // Eight wins of ten are not enough.
        let mut c = b.clone();
        c[0] = 200.0;
        c[1] = 200.0;
        assert_ne!(verdict(&a, &c, true, 0.1), Verdict::Improved);
        // A gap inside the parent's own quartile distance is not a gain.
        let wide = around(100.0, 4.0);
        let close: Vec<f64> = wide.iter().map(|x| x - 1.0).collect();
        assert_ne!(verdict(&wide, &close, true, 0.25), Verdict::Improved);
    }

    #[test]
    fn verdict_regressed_beyond_the_bound_unchanged_within_it() {
        let a = around(100.0, 0.2);
        assert_eq!(
            verdict(&a, &around(112.0, 0.2), true, 0.1),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&a, &around(104.0, 0.2), true, 0.1),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(&a, &around(88.0, 0.2), false, 0.1),
            Verdict::Regressed
        );
    }

    #[test]
    fn exact_verdict_takes_every_pair_at_its_word() {
        let a = [0.5, 0.7, 0.9];
        assert_eq!(exact_verdict(&a, &a, true), Verdict::Unchanged);
        assert_eq!(
            exact_verdict(&a, &[0.5, 0.7001, 0.8], true),
            Verdict::Regressed
        );
        assert_eq!(exact_verdict(&a, &[0.5, 0.6, 0.9], true), Verdict::Improved);
        assert_eq!(
            exact_verdict(&a, &[0.5, 0.6, 0.9], false),
            Verdict::Regressed
        );
    }

    #[test]
    fn verdict_unresolved_when_the_spread_hides_the_bound() {
        let a = around(100.0, 5.0); // IQR ≈ 27 % of the median
        let b = around(101.0, 5.0);
        assert_eq!(verdict(&a, &b, true, 0.1), Verdict::Unresolved);
        // ... unless every run of the change beats every run of the parent.
        let b = around(40.0, 5.0);
        assert_eq!(verdict(&a, &b, true, 0.1), Verdict::Improved);
    }
}
