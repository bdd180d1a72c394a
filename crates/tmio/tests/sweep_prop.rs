//! Property tests of the Eq. 3 region sweep ([`tmio::sweep`]) against a
//! direct evaluation of the equation, and against a stable float-comparator
//! sort of the sweep's edges, bit for bit.
//!
//! Eq. 3 defines the application-level metric at time `t` as the sum of
//! `value` over the intervals with `ts ≤ t < te`. The oracle here evaluates
//! that sum interval by interval at every edge time and at every midpoint
//! between consecutive edges, which covers each region of the step series
//! and each boundary between regions. Interval sets include the degenerate
//! shapes real runs produce: zero-length phases (a request waited on at its
//! own submit time), zero-value phases (fault-degraded requests that moved
//! no bytes), tiny normalized magnitudes, and heavy same-timestamp stacking.

use proptest::prelude::*;
use simcore::{SimTime, StepSeries};
use tmio::{sweep, Interval};

/// The sweep with its edges in a stable sort by `(time, delta)` under
/// `f64::partial_cmp` (so `-0.0 == 0.0`): the definition [`sweep`]'s
/// integer-keyed sort must reproduce bit for bit.
fn comparator_sweep(intervals: &[Interval]) -> StepSeries {
    let mut events: Vec<(f64, f64, bool)> = Vec::with_capacity(intervals.len() * 2);
    for iv in intervals {
        if iv.te > iv.ts && iv.value != 0.0 {
            events.push((iv.ts, iv.value, true));
            events.push((iv.te, -iv.value, false));
        }
    }
    events.sort_by(|a, b| {
        a.0.partial_cmp(&b.0)
            .unwrap()
            .then(a.1.partial_cmp(&b.1).unwrap())
    });
    let mut series = StepSeries::new();
    let mut sum = 0.0;
    let mut open = 0usize;
    let mut i = 0;
    while i < events.len() {
        let t = events[i].0;
        while i < events.len() && events[i].0 == t {
            let (_, delta, opens) = events[i];
            sum += delta;
            if opens {
                open += 1;
            } else {
                open -= 1;
            }
            i += 1;
        }
        if open == 0 {
            sum = 0.0;
        }
        series.push(SimTime::from_secs(t), sum);
    }
    series
}

/// Bitwise form of a step series.
fn bits(s: &StepSeries) -> Vec<(u64, u64)> {
    s.points()
        .iter()
        .map(|&(t, v)| (t.to_bits(), v.to_bits()))
        .collect()
}

/// Eq. 3 evaluated directly at `t`.
fn eq3_at(ivs: &[Interval], t: f64) -> f64 {
    ivs.iter()
        .filter(|iv| iv.ts <= t && t < iv.te)
        .map(|iv| iv.value)
        .sum()
}

/// Every edge time and every midpoint between consecutive distinct edges.
fn probe_times(ivs: &[Interval]) -> Vec<f64> {
    let mut edges: Vec<f64> = ivs.iter().flat_map(|iv| [iv.ts, iv.te]).collect();
    edges.sort_by(f64::total_cmp);
    edges.dedup();
    let mids: Vec<f64> = edges.windows(2).map(|w| 0.5 * (w[0] + w[1])).collect();
    edges.extend(mids);
    edges
}

/// Checks `sweep(ivs)` against [`eq3_at`] at every probe time, within
/// `1e-9 · max|value|` (the two sum in different orders).
fn check_against_eq3(ivs: &[Interval]) {
    let series = sweep(ivs);
    let max_abs = ivs.iter().map(|iv| iv.value.abs()).fold(0.0, f64::max);
    let tol = 1e-9 * max_abs;
    for t in probe_times(ivs) {
        let got = series.value_at(SimTime::from_secs(t));
        let want = eq3_at(ivs, t);
        prop_assert!(
            (got - want).abs() <= tol,
            "t={t}: sweep {got} vs Eq. 3 {want} (tol {tol})"
        );
    }
}

/// A deterministic permutation of `ivs` drawn from `seed` (splitmix64 keys).
fn shuffled(ivs: &[Interval], seed: u64) -> Vec<Interval> {
    let key = |i: usize| {
        let mut z = seed.wrapping_add((i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut keyed: Vec<(u64, Interval)> = ivs
        .iter()
        .enumerate()
        .map(|(i, iv)| (key(i), *iv))
        .collect();
    keyed.sort_by_key(|&(k, _)| k);
    keyed.into_iter().map(|(_, iv)| iv).collect()
}

fn arb_interval() -> impl Strategy<Value = Interval> {
    (
        0.0f64..50.0,
        // Durations: zero-length phases must flow through unharmed.
        prop_oneof![Just(0.0f64), 0.0f64..5.0, Just(1.0f64)],
        // Values: fault-degraded zeros, tiny normalized magnitudes, and
        // bandwidth-scale numbers whose cancellation leaves FP residue.
        prop_oneof![Just(0.0f64), 1e-12f64..1e-9, 0.5f64..100.0, 1e8f64..1e10],
    )
        .prop_map(|(ts, dur, value)| Interval {
            ts,
            te: ts + dur,
            value,
        })
}

/// Edge times on a coarse grid, so that many edges share a time, with
/// both signed zeros, negative times and a few off-grid values.
fn arb_time() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(0.0f64),
        Just(-0.0f64),
        (-4i32..5).prop_map(f64::from),
        (-8i32..9).prop_map(|k| f64::from(k) * 0.25),
        -10.0f64..10.0,
    ]
}

/// Values from a small set of both signs, so that equal deltas meet at
/// one time, plus arbitrary magnitudes.
fn arb_value() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(0.0f64),
        Just(1.0f64),
        Just(-1.0f64),
        Just(2.5f64),
        Just(-2.5f64),
        Just(1e10f64),
        -1e3f64..1e3,
        any::<f64>(),
    ]
}

/// An interval between two grid times (in either order; equal times give
/// a zero-length interval).
fn arb_grid_interval() -> impl Strategy<Value = Interval> {
    (arb_time(), arb_time(), arb_value()).prop_map(|(a, b, value)| {
        let (ts, te) = if a <= b { (a, b) } else { (b, a) };
        Interval { ts, te, value }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The integer-keyed sort gives the comparator sort's series bit for
    /// bit: signed zeros, negative times and values, same-time stacks.
    #[test]
    fn matches_comparator_sort(ivs in prop::collection::vec(arb_grid_interval(), 0..80)) {
        prop_assert_eq!(bits(&sweep(&ivs)), bits(&comparator_sweep(&ivs)));
    }

    /// Heavy same-time stacking: many intervals over a handful of edge
    /// times and values.
    #[test]
    fn stacked_edges_match_comparator_sort(
        picks in prop::collection::vec((0usize..3, 1usize..4, 0usize..4), 1..200),
    ) {
        let times = [-0.0, 0.0, 1.0, 2.0];
        let values = [3.0, -3.0, 0.5, 1e9];
        let ivs: Vec<Interval> = picks
            .iter()
            .map(|&(a, b, v)| Interval {
                ts: times[a],
                te: times[b.max(a + 1)],
                value: values[v],
            })
            .collect();
        prop_assert_eq!(bits(&sweep(&ivs)), bits(&comparator_sweep(&ivs)));
    }

    /// The sweep equals Eq. 3 at every edge and every region midpoint.
    #[test]
    fn sweep_matches_direct_eq3(ivs in prop::collection::vec(arb_interval(), 0..60)) {
        check_against_eq3(&ivs);
    }

    /// Input order is irrelevant: reversed and shuffled inputs give the
    /// same series, bit for bit.
    #[test]
    fn input_order_is_irrelevant(
        ivs in prop::collection::vec(arb_interval(), 0..60),
        seed in any::<u64>(),
    ) {
        let want = bits(&sweep(&ivs));
        let reversed: Vec<Interval> = ivs.iter().rev().copied().collect();
        prop_assert_eq!(bits(&sweep(&reversed)), want.clone());
        prop_assert_eq!(bits(&sweep(&shuffled(&ivs, seed))), want);
    }

    /// Same-timestamp stacking (many identical phases, the collective-I/O
    /// shape) collapses to one change point per boundary.
    #[test]
    fn identical_stacked_intervals(n in 1usize..40, value in 0.5f64..1e6) {
        let ivs = vec![Interval { ts: 1.0, te: 2.0, value }; n];
        check_against_eq3(&ivs);
        prop_assert_eq!(sweep(&ivs).len(), 2);
    }
}

/// Zero-length and zero-value phases contribute nothing to the series,
/// and a huge zero-length value does not wipe out a small open one.
#[test]
fn degenerate_phases_match_eq3() {
    let ivs = [
        Interval {
            ts: 1.0,
            te: 1.0,
            value: 1e12,
        },
        Interval {
            ts: 0.0,
            te: 4.0,
            value: 0.0,
        },
        Interval {
            ts: 2.0,
            te: 3.0,
            value: 7.5,
        },
    ];
    check_against_eq3(&ivs);
    assert_eq!(sweep(&ivs).points(), &[(2.0, 7.5), (3.0, 0.0)]);
}

/// A point at time zero keeps the sign of the edge the comparator sort puts
/// first: the least delta, then the earliest in input order.
#[test]
fn zero_time_point_keeps_the_comparator_sign() {
    let neg = Interval {
        ts: -0.0,
        te: 1.0,
        value: 5.0,
    };
    let pos = Interval {
        ts: 0.0,
        te: 2.0,
        value: 5.0,
    };
    let smaller = Interval {
        ts: 0.0,
        te: 3.0,
        value: -1.0,
    };
    for ivs in [
        vec![neg, pos],
        vec![pos, neg],
        vec![neg, pos, smaller],
        vec![pos, smaller, neg],
    ] {
        let got = sweep(&ivs);
        assert_eq!(bits(&got), bits(&comparator_sweep(&ivs)), "{ivs:?}");
    }
    assert!(sweep(&[neg, pos]).points()[0].0.is_sign_negative());
    assert!(sweep(&[pos, neg]).points()[0].0.is_sign_positive());
}

#[test]
#[should_panic(expected = "NaN")]
fn nan_value_is_rejected() {
    sweep(&[Interval {
        ts: 0.0,
        te: 1.0,
        value: f64::NAN,
    }]);
}
