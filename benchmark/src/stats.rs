//! Order statistics and the comparison verdict.
//!
//! Percentiles are exact (nearest-rank over the sorted samples, no
//! histogram buckets); quartiles follow Python's
//! `statistics.quantiles(values, n=4)` so the spread this package prints
//! is the spread the driver computes.

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `p` percent of the samples at or below it. `NaN` when empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Arithmetic mean; `NaN` when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle samples for an even count).
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile, Python's default ("exclusive") method.
/// `None` below two samples, where Python raises.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let m = v.len();
    if m < 2 {
        return None;
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile distance as a share of the median — the run-to-run
/// spread. `None` when it cannot be computed (fewer than two samples or a
/// zero median).
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let m = median(values);
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Outcome of comparing a candidate's runs with a baseline's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Medians differ by no more than the bound.
    Same,
    /// The candidate's median is worse by more than the bound.
    Worse,
    /// The candidate's median is better by more than the bound.
    Better,
    /// The run-to-run spread on either side exceeds the bound, so the
    /// medians cannot resolve a difference of that size.
    Unresolved,
    /// An exact counter whose values differ (no tolerance applies).
    Differs,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Better => "better",
            Verdict::Unresolved => "unresolved",
            Verdict::Differs => "differs",
        }
    }
}

/// How far `candidate` is on the *worse* side of `base`, as a share of
/// `base` (negative when it is better). This is the quantity the bound
/// limits.
pub fn worsening(base: f64, candidate: f64, better: Better) -> f64 {
    let change = (candidate - base) / base.abs();
    match better {
        Better::Lower => change,
        Better::Higher => -change,
    }
}

/// The verdict for a bounded metric: `unresolved` when either side's
/// spread is wider than the bound, else by the medians' relative
/// distance.
pub fn verdict(base: &[f64], candidate: &[f64], better: Better, bound: f64) -> Verdict {
    let too_wide = |v: &[f64]| spread(v).is_some_and(|s| s > bound);
    if too_wide(base) || too_wide(candidate) {
        return Verdict::Unresolved;
    }
    let w = worsening(median(base), median(candidate), better);
    if w > bound {
        Verdict::Worse
    } else if w < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// The verdict for an exact counter: every run on both sides must have
/// produced the same value.
pub fn verdict_exact(base: &[f64], candidate: &[f64]) -> Verdict {
    let mut all = base.iter().chain(candidate);
    match all.next() {
        Some(first) if all.all(|v| v == first) => Verdict::Same,
        _ => Verdict::Differs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 50.0), 2.0);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!((spread(&v).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn bound_applies_in_the_metric_direction() {
        // Latency (lower is better) rising 8% is inside a 10% bound.
        assert_eq!(
            verdict(&[100.0; 3], &[108.0; 3], Better::Lower, 0.10),
            Verdict::Same
        );
        assert_eq!(
            verdict(&[100.0; 3], &[112.0; 3], Better::Lower, 0.10),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&[100.0; 3], &[85.0; 3], Better::Lower, 0.10),
            Verdict::Better
        );
        // Throughput (higher is better): the same numbers flip.
        assert_eq!(
            verdict(&[100.0; 3], &[85.0; 3], Better::Higher, 0.10),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&[100.0; 3], &[112.0; 3], Better::Higher, 0.10),
            Verdict::Better
        );
        assert!((worsening(200.0, 150.0, Better::Higher) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn wide_spread_is_unresolved_not_unchanged() {
        let noisy = [80.0, 100.0, 120.0, 90.0, 110.0];
        assert!(spread(&noisy).unwrap() > 0.10);
        assert_eq!(
            verdict(&noisy, &[100.0; 5], Better::Lower, 0.10),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&[100.0; 5], &noisy, Better::Lower, 0.10),
            Verdict::Unresolved
        );
        // A single run has no spread to judge: the medians decide.
        assert_eq!(
            verdict(&[100.0], &[101.0], Better::Lower, 0.10),
            Verdict::Same
        );
    }

    #[test]
    fn exact_counters_compare_by_equality() {
        assert_eq!(verdict_exact(&[5.0, 5.0], &[5.0]), Verdict::Same);
        assert_eq!(verdict_exact(&[5.0, 5.0], &[5.0, 6.0]), Verdict::Differs);
        assert_eq!(verdict_exact(&[], &[]), Verdict::Differs);
    }
}
