//! Sample statistics behind the reported metrics: medians, nearest-rank
//! percentiles, the tail-percentile rule, and the per-action arithmetic.

/// The percentile ladder the tail rule climbs, lowest first.
const TAIL_LADDER: [f64; 4] = [90.0, 95.0, 99.0, 99.9];

/// The fewest samples that must lie beyond a percentile before it is
/// reported as the tail.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The median of `values` (mean of the two middle values for an even
/// count); `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// The nearest-rank `p`-th percentile of `values`: the smallest sample
/// with at least `p`% of all samples at or below it. `None` when empty.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let sorted = sorted(values);
    (!sorted.is_empty()).then(|| sorted[rank(sorted.len(), p) - 1])
}

/// The 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    // The epsilon keeps exact products such as 99.9% of 10,000 from
    // rounding up past their rank.
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n)
}

/// How many of `n` samples lie strictly beyond the nearest-rank `p`-th
/// percentile.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// The tail a timing reports next to its median.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, e.g. `95.0`.
    pub pct: f64,
    /// Its nearest-rank value.
    pub value: f64,
    /// Samples strictly beyond it.
    pub beyond: usize,
}

/// The highest percentile on the ladder (p90, p95, p99, p99.9) with at
/// least [`TAIL_MIN_BEYOND`] samples beyond it; `None` when even p90 has
/// fewer.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let n = values.len();
    TAIL_LADDER
        .iter()
        .rev()
        .find(|&&p| beyond(n, p) >= TAIL_MIN_BEYOND)
        .map(|&p| Tail {
            pct: p,
            value: percentile(values, p).expect("a qualifying percentile has samples"),
            beyond: beyond(n, p),
        })
}

/// Host nanoseconds per charged device-action (one send or one listen).
pub fn ns_per_action(total_ns: f64, actions: u64) -> Option<f64> {
    (actions > 0).then(|| total_ns / actions as f64)
}

/// The algorithm side of a run's cost: its ns/action minus what the slot
/// engine alone spends per action on the same graph and model.
pub fn algo_ns_per_action(run_ns_per_action: f64, drive_ns_per_action: f64) -> f64 {
    run_ns_per_action - drive_ns_per_action
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled on purpose: every statistic must sort first.
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v = ramp(10);
        assert_eq!(percentile(&v, 90.0), Some(9.0));
        assert_eq!(percentile(&v, 100.0), Some(10.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(beyond(10, 90.0), 1);
        assert_eq!(beyond(100, 90.0), 10);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        // 99 samples: p90 has rank 90 and 9 beyond, so no tail yet.
        assert_eq!(tail(&ramp(99)), None);
        // 100 samples: p90 qualifies with exactly 10 beyond; p95 has 5.
        let t = tail(&ramp(100)).unwrap();
        assert_eq!((t.pct, t.value, t.beyond), (90.0, 90.0, 10));
        // 942 samples (the sweep's cell count): p99 leaves 9 beyond, so
        // the tail is p95 with 47 beyond.
        let t = tail(&ramp(942)).unwrap();
        assert_eq!((t.pct, t.value, t.beyond), (95.0, 895.0, 47));
        // 10,000 samples reach p99.9 with exactly 10 beyond.
        let t = tail(&ramp(10_000)).unwrap();
        assert_eq!((t.pct, t.beyond), (99.9, 10));
        // Nine single-broadcast ops never qualify.
        assert_eq!(tail(&ramp(9)), None);
    }

    #[test]
    fn per_action_arithmetic() {
        // 2.5 s over 50M actions is 50 ns/action.
        let run = ns_per_action(2.5e9, 50_000_000).unwrap();
        assert_eq!(run, 50.0);
        assert_eq!(ns_per_action(1.0, 0), None);
        // An engine-only cost of 12 ns/action leaves 38 ns to the
        // algorithm side; a dearer engine can drive it below zero.
        assert_eq!(algo_ns_per_action(run, 12.0), 38.0);
        assert_eq!(algo_ns_per_action(10.0, 12.5), -2.5);
    }
}
