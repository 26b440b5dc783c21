//! Order statistics and means over latency samples.

/// Arithmetic mean of `xs`. Panics on an empty slice.
///
/// The timed metrics are means rather than medians: the shared host this
/// benchmark was sized on alternates, every few seconds, between a fast
/// phase and one about 1.4x slower. A median of such samples jumps
/// between the two modes with the share of time the run spent in each,
/// while a mean moves only in proportion to it.
pub fn mean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "mean of no samples");
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// The timed end-to-end metrics of a run, from each pass's wall time in
/// seconds and the latencies in milliseconds of the operations in it:
/// `pass_s` is the mean pass, `op_ms_mean` the mean over every operation,
/// and `op_ms_tail` each pass's [`tail`] averaged over the passes, so
/// that the tail of every pass counts alike wherever the host's slow
/// phases fell.
pub fn timed_metrics(passes: &[(f64, &[f64])]) -> [(&'static str, f64, &'static str); 3] {
    let ops: Vec<f64> = passes.iter().flat_map(|(_, ops)| ops.iter().copied()).collect();
    let walls: Vec<f64> = passes.iter().map(|(s, _)| *s).collect();
    let tails: Vec<f64> = passes.iter().map(|(_, ops)| tail(ops).value).collect();
    [
        ("pass_s", mean(&walls), "s"),
        ("op_ms_mean", mean(&ops), "ms"),
        ("op_ms_tail", mean(&tails), "ms"),
    ]
}

/// Median of `xs` (mean of the two middle values for an even count).
/// Panics on an empty slice: every caller times at least one operation.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// A tail latency: the percentile it was taken at, its value, and the
/// number of samples it was taken from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Percentile (nearest-rank); 100 means the maximum.
    pub pct: u32,
    pub value: f64,
    pub samples: usize,
}

/// Samples that must lie strictly above a reported percentile for it to
/// mean anything.
pub const TAIL_SUPPORT: usize = 10;

/// The highest percentile up to p99 that has at least [`TAIL_SUPPORT`]
/// samples above it (nearest-rank definition). When even the median has
/// fewer than that above it, the maximum is reported as p100.
pub fn tail(xs: &[f64]) -> Tail {
    assert!(!xs.is_empty(), "tail of no samples");
    let s = sorted(xs);
    let n = s.len();
    for pct in (50..=99u32).rev() {
        // Nearest rank: the smallest value with at least pct% of the
        // samples at or below it.
        let rank = (pct as usize * n).div_ceil(100).max(1);
        if n - rank >= TAIL_SUPPORT {
            return Tail { pct, value: s[rank - 1], samples: n };
        }
    }
    Tail { pct: 100, value: s[n - 1], samples: n }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled order must not matter.
        (0..n).rev().map(|i| i as f64 + 1.0).collect()
    }

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn mean_follows_the_share_of_slow_samples() {
        assert_eq!(mean(&[3.0, 1.0, 2.0]), 2.0);
        // A bimodal sample: the median sits in whichever mode holds more
        // than half the samples, the mean moves with the share.
        let mix = |slow: usize| -> Vec<f64> {
            (0..100).map(|i| if i < slow { 14.0 } else { 10.0 }).collect()
        };
        assert_eq!((median(&mix(49)), median(&mix(51))), (10.0, 14.0));
        assert!((mean(&mix(51)) - mean(&mix(49)) - 0.08).abs() < 1e-9);
    }

    #[test]
    fn p99_needs_ten_samples_above_it() {
        // 1000 samples: p99 is the 990th value, with exactly 10 above.
        let t = tail(&ramp(1000));
        assert_eq!(t, Tail { pct: 99, value: 990.0, samples: 1000 });
        // 1100 samples: p99 is the 1089th value, 11 above.
        assert_eq!(tail(&ramp(1100)).pct, 99);
    }

    #[test]
    fn falls_back_to_the_highest_supported_percentile() {
        // 100 samples: p99 has 1 above, p90 has exactly 10 above.
        let t = tail(&ramp(100));
        assert_eq!((t.pct, t.value, t.samples), (90, 90.0, 100));
        // 40 samples: p75 has 10 above (rank 30).
        let t = tail(&ramp(40));
        assert_eq!((t.pct, t.value), (75, 30.0));
        for n in [20, 21, 57, 333, 999] {
            let t = tail(&ramp(n));
            let above = ramp(n).iter().filter(|&&x| x > t.value).count();
            assert!(above >= TAIL_SUPPORT, "n={n} {t:?}");
            // One percentile higher would lose the support.
            if t.pct < 99 {
                let rank = ((t.pct as usize + 1) * n).div_ceil(100);
                assert!(n - rank < TAIL_SUPPORT, "n={n} {t:?}");
            }
        }
    }

    #[test]
    fn timed_metrics_average_passes_and_pool_operations() {
        let a: Vec<f64> = (1..=20).map(f64::from).collect();
        let b = vec![100.0; 5];
        let m = timed_metrics(&[(2.0, &a), (4.0, &b)]);
        assert_eq!(m[0], ("pass_s", 3.0, "s"));
        assert_eq!(m[1], ("op_ms_mean", (210.0 + 500.0) / 25.0, "ms"));
        // a: 20 samples, p50 = 10 has 10 above; b: 5 samples, the maximum.
        assert_eq!(m[2], ("op_ms_tail", (10.0 + 100.0) / 2.0, "ms"));
    }

    #[test]
    fn too_few_samples_report_the_maximum() {
        let t = tail(&[5.0, 9.0, 1.0, 7.0]);
        assert_eq!(t, Tail { pct: 100, value: 9.0, samples: 4 });
        assert_eq!(tail(&ramp(19)).pct, 100);
    }
}
