//! Application-level aggregation of rank metrics (paper Sec. IV-C, Eq. 3).
//!
//! Each rank-phase contributes an interval `[ts_{i,j}, te_{i,j})` carrying a
//! value (its required bandwidth `B_{i,j}`, its limit, or its throughput).
//! The application-level metric `B_r` in region `r` is the sum of the values
//! whose interval contains the region start — found with a sweep line over
//! the sorted start/end times, exactly as Fig. 4 illustrates.

use simcore::{SimTime, StepSeries};

/// One rank-phase interval with its metric value.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Interval {
    /// Start of the I/O window (first submit), seconds.
    pub ts: f64,
    /// End of the window (matching wait reached / queue drained), seconds.
    pub te: f64,
    /// The metric value held over `[ts, te)` (e.g. `B_{i,j}` in bytes/s).
    pub value: f64,
}

/// Maps a non-NaN `f64` to a `u64` with the same order (`-0.0 < 0.0`).
fn ordered_bits(x: f64) -> u64 {
    let b = x.to_bits();
    if b >> 63 == 1 {
        !b
    } else {
        b | 1 << 63
    }
}

/// The inverse of [`ordered_bits`].
fn from_ordered_bits(k: u64) -> f64 {
    f64::from_bits(if k >> 63 == 1 { k & !(1 << 63) } else { !k })
}

/// The sort key of one sweep edge: its time, then its signed delta, as
/// order-preserving bit patterns. Sorting by this one integer orders edges
/// by time and, at equal times, applies removals before additions, so that
/// a region never double-counts an interval that ends exactly where
/// another starts (intervals are right-open). Equal keys carry equal
/// deltas, so the order among them cannot change a sum. The time is
/// `time + 0.0`, which folds `-0.0` into `0.0` and leaves every other
/// time's bits as they are.
fn edge_key(time: f64, delta: f64) -> u128 {
    u128::from(ordered_bits(time + 0.0)) << 64 | u128::from(ordered_bits(delta))
}

/// Sweep-line aggregation (Eq. 3): returns the step series of
/// `Σ value` over the overlap regions. Zero-length intervals are ignored
/// (they would contribute to a region of measure zero), and so are
/// zero-valued ones (they add nothing to any region). Panics on a NaN
/// value.
pub fn sweep(intervals: &[Interval]) -> StepSeries {
    // Each interval opens with `+value` at `ts` and closes with `-value`
    // at `te`. The two kinds are sorted apart and merged: the tracer
    // records phases and windows as they close, so the closing edges
    // usually arrive sorted, which the sort finds in one linear pass.
    let mut opens: Vec<u128> = Vec::with_capacity(intervals.len());
    let mut closes: Vec<u128> = Vec::with_capacity(intervals.len());
    // The point at time zero takes the sign of the first edge, in input
    // order, among the zero-time edges of least delta — the edge a stable
    // sort by `(time, delta)` would put first, as `-0.0 == 0.0` there.
    let mut zero_first: Option<(f64, f64)> = None;
    let mut zero = |time: f64, delta: f64| {
        if time == 0.0 && zero_first.is_none_or(|(d, _)| delta < d) {
            zero_first = Some((delta, time));
        }
    };
    for iv in intervals {
        debug_assert!(iv.te >= iv.ts, "interval must not be reversed");
        if iv.te > iv.ts && iv.value != 0.0 {
            assert!(!iv.value.is_nan(), "sweep: NaN interval value");
            zero(iv.ts, iv.value);
            zero(iv.te, -iv.value);
            opens.push(edge_key(iv.ts, iv.value));
            closes.push(edge_key(iv.te, -iv.value));
        }
    }
    opens.sort_unstable();
    closes.sort_unstable();
    // The next edge in key order, and whether it opens an interval.
    let next = |i: usize, j: usize| match (opens.get(i), closes.get(j)) {
        (Some(&a), Some(&b)) if a <= b => Some((a, true)),
        (_, Some(&b)) => Some((b, false)),
        (Some(&a), None) => Some((a, true)),
        (None, None) => None,
    };
    let mut series = StepSeries::new();
    let mut sum = 0.0;
    // Edges taken so far from each side: `i - j` intervals are open.
    let (mut i, mut j) = (0, 0);
    let mut edge = next(i, j);
    while let Some((key, opening)) = edge {
        sum += from_ordered_bits(key as u64);
        if opening {
            i += 1;
        } else {
            j += 1;
        }
        edge = next(i, j);
        if edge.is_some_and(|(k, _)| k >> 64 == key >> 64) {
            continue;
        }
        // With no interval open the true sum is exactly zero: drop the
        // cancellation residue so it never leaks into a later region. A
        // magnitude cutoff instead would also zero small values that are
        // open alongside much larger ones.
        if i == j {
            sum = 0.0;
        }
        let t = from_ordered_bits((key >> 64) as u64);
        let t = match zero_first {
            Some((_, zero)) if t == 0.0 => zero,
            _ => t,
        };
        series.push(SimTime::from_secs(t), sum);
    }
    series
}

/// The application-level scalar from a sweep: `max_r B_r` — "the minimal
/// required bandwidth at the application level such that … no time is spent
/// waiting" (Sec. IV-C).
pub fn max_region(intervals: &[Interval]) -> f64 {
    sweep(intervals).max_value()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    /// The Fig. 4 worked example: three ranks, five regions.
    ///
    /// Windows (chosen to match the figure's ordering):
    ///   B_{1,0}: [0, 4)  value 1
    ///   B_{2,0}: [1, 6)  value 2
    ///   B_{0,0}: [2, 8)  value 4
    /// Regions: [0,1) → 1; [1,2) → 3 (B1+B2); [2,4) → 7 (all);
    ///          [4,6) → 6 (B0+B2); [6,8) → 4 (B0); after 8 → 0.
    #[test]
    fn figure4_worked_example() {
        let intervals = [
            Interval {
                ts: 0.0,
                te: 4.0,
                value: 1.0,
            },
            Interval {
                ts: 1.0,
                te: 6.0,
                value: 2.0,
            },
            Interval {
                ts: 2.0,
                te: 8.0,
                value: 4.0,
            },
        ];
        let s = sweep(&intervals);
        assert_eq!(s.value_at(t(0.5)), 1.0);
        assert_eq!(s.value_at(t(1.5)), 3.0);
        assert_eq!(s.value_at(t(3.0)), 7.0);
        assert_eq!(s.value_at(t(5.0)), 6.0);
        assert_eq!(s.value_at(t(7.0)), 4.0);
        assert_eq!(s.value_at(t(9.0)), 0.0);
        // Five change points before the trailing zero, plus the close.
        assert_eq!(s.len(), 6);
        assert_eq!(max_region(&intervals), 7.0);
    }

    #[test]
    fn empty_input_is_zero() {
        let s = sweep(&[]);
        assert!(s.is_empty());
        assert_eq!(max_region(&[]), 0.0);
    }

    #[test]
    fn disjoint_intervals_do_not_sum() {
        let intervals = [
            Interval {
                ts: 0.0,
                te: 1.0,
                value: 5.0,
            },
            Interval {
                ts: 2.0,
                te: 3.0,
                value: 7.0,
            },
        ];
        let s = sweep(&intervals);
        assert_eq!(s.value_at(t(0.5)), 5.0);
        assert_eq!(s.value_at(t(1.5)), 0.0);
        assert_eq!(s.value_at(t(2.5)), 7.0);
        assert_eq!(max_region(&intervals), 7.0);
    }

    #[test]
    fn touching_intervals_do_not_overlap() {
        // Right-open: [0,2) and [2,4) never coexist.
        let intervals = [
            Interval {
                ts: 0.0,
                te: 2.0,
                value: 3.0,
            },
            Interval {
                ts: 2.0,
                te: 4.0,
                value: 4.0,
            },
        ];
        let s = sweep(&intervals);
        assert_eq!(s.value_at(t(2.0)), 4.0);
        assert_eq!(max_region(&intervals), 4.0);
    }

    #[test]
    fn identical_intervals_stack() {
        let intervals = [
            Interval {
                ts: 1.0,
                te: 2.0,
                value: 2.5,
            },
            Interval {
                ts: 1.0,
                te: 2.0,
                value: 2.5,
            },
        ];
        assert_eq!(max_region(&intervals), 5.0);
    }

    #[test]
    fn zero_length_interval_ignored() {
        let intervals = [Interval {
            ts: 1.0,
            te: 1.0,
            value: 100.0,
        }];
        let s = sweep(&intervals);
        assert_eq!(s.max_value(), 0.0);
    }

    #[test]
    fn tiny_magnitudes_survive_the_residue_guard() {
        // Values far below any absolute cutoff (e.g. normalized or per-byte
        // metrics) must not be zeroed.
        let intervals = [
            Interval {
                ts: 0.0,
                te: 2.0,
                value: 1e-12,
            },
            Interval {
                ts: 1.0,
                te: 3.0,
                value: 3e-12,
            },
        ];
        let s = sweep(&intervals);
        assert_eq!(s.value_at(t(0.5)), 1e-12);
        assert_eq!(s.value_at(t(1.5)), 4e-12);
        assert_eq!(s.value_at(t(2.5)), 3e-12);
        assert_eq!(s.value_at(t(4.0)), 0.0);
        assert_eq!(max_region(&intervals), 4e-12);
    }

    #[test]
    fn residue_guard_scales_with_magnitude() {
        // Large stacked values cancel with FP residue well above 1e-9
        // absolute; the tail is still exactly zero once every interval has
        // closed.
        let mut intervals = Vec::new();
        for i in 0..10 {
            intervals.push(Interval {
                ts: i as f64 * 0.1,
                te: 10.0 + i as f64 * 0.7,
                value: 1e10 + (i as f64) * 0.3 + 0.1,
            });
        }
        let s = sweep(&intervals);
        assert_eq!(s.value_at(t(20.0)), 0.0, "tail must be exactly zero");
    }

    #[test]
    fn small_value_beside_large_ones_survives() {
        // A value below 1e-9 of the largest one stays in the sum after the
        // large interval closes, and the tail returns to exactly zero. A
        // zero-length interval's value does not scale anything.
        let intervals = [
            Interval {
                ts: 0.0,
                te: 2.0,
                value: 1e10,
            },
            Interval {
                ts: 1.0,
                te: 3.0,
                value: 5.0,
            },
            Interval {
                ts: 4.0,
                te: 4.0,
                value: 1e18,
            },
            Interval {
                ts: 5.0,
                te: 6.0,
                value: 7.5,
            },
        ];
        let s = sweep(&intervals);
        assert_eq!(s.value_at(t(2.5)), 5.0);
        assert_eq!(s.value_at(t(3.5)), 0.0);
        assert_eq!(s.value_at(t(5.5)), 7.5);
        assert_eq!(s.value_at(t(7.0)), 0.0);
    }

    #[test]
    fn sweep_integral_equals_sum_of_areas() {
        let intervals = [
            Interval {
                ts: 0.0,
                te: 3.0,
                value: 2.0,
            },
            Interval {
                ts: 1.0,
                te: 2.0,
                value: 10.0,
            },
            Interval {
                ts: 2.5,
                te: 4.0,
                value: 4.0,
            },
        ];
        let s = sweep(&intervals);
        let expected: f64 = intervals.iter().map(|iv| (iv.te - iv.ts) * iv.value).sum();
        let got = s.integral(t(0.0), t(10.0));
        assert!((got - expected).abs() < 1e-9);
    }
}
