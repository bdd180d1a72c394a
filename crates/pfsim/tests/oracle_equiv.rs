//! Equivalence of the virtual-time engine (`pfsim::Pfs`) with the
//! group-vector engine it replaced (`oracle::OraclePfs`).
//!
//! The two compute the same fluid schedule with different float operations,
//! so they are compared up to rounding: over random programs of submits
//! (meters, weights 1/2/4, repeated sizes at the same and at different
//! instants), cap changes, capacity changes, fault factors including 0, and
//! advances, both must complete the same flows in the same order, with
//! reordering allowed only inside a batch that completes at one instant,
//! and at times within 1e-12 relative. Recorded rates must integrate to the
//! same bytes.

mod oracle;

use oracle::OraclePfs;
use pfsim::{Channel, FlowId, FlowSpec, MeterId, Pfs, PfsConfig};
use proptest::prelude::*;
use simcore::SimTime;

/// Relative tolerance on completion times.
const REL: f64 = 1e-12;

fn t(s: f64) -> SimTime {
    SimTime::from_secs(s)
}

fn same_instant(a: f64, b: f64) -> bool {
    (a - b).abs() <= REL * a.abs().max(b.abs())
}

/// One step of the random engine-driving program.
#[derive(Clone, Debug)]
enum Op {
    /// Submit a flow at the current time.
    Submit {
        read: bool,
        bytes: f64,
        weight: f64,
        cap: Option<f64>,
        meter: Option<usize>,
    },
    /// Submit a copy of the previous submit's flow at the current time.
    Repeat,
    /// Re-cap a live flow (selected by index modulo the live set).
    SetCap { pick: usize, cap: Option<f64> },
    /// Rescale a channel's capacity.
    SetCapacity { read: bool, capacity: f64 },
    /// Apply a fault-plan factor (0 = outage).
    SetFault { read: bool, factor: f64 },
    /// Advance virtual time, harvesting completions.
    Advance { dt: f64 },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (
            any::<bool>(),
            prop_oneof![Just(100.0f64), Just(250.0), 1.0f64..2000.0],
            prop_oneof![Just(1.0f64), Just(2.0), Just(4.0)],
            prop::option::of(5.0f64..150.0),
            prop::option::of(0usize..2),
        )
            .prop_map(|(read, bytes, weight, cap, meter)| Op::Submit {
                read,
                bytes,
                weight,
                cap,
                meter
            }),
        Just(Op::Repeat),
        (0usize..64, prop::option::of(5.0f64..150.0))
            .prop_map(|(pick, cap)| Op::SetCap { pick, cap }),
        (any::<bool>(), 20.0f64..300.0)
            .prop_map(|(read, capacity)| Op::SetCapacity { read, capacity }),
        (
            any::<bool>(),
            prop_oneof![Just(0.0f64), Just(0.5), Just(1.0)]
        )
            .prop_map(|(read, factor)| Op::SetFault { read, factor }),
        (0.01f64..3.0).prop_map(|dt| Op::Advance { dt }),
        (0.01f64..3.0).prop_map(|dt| Op::Advance { dt }),
    ]
}

fn channel(read: bool) -> Channel {
    if read {
        Channel::Read
    } else {
        Channel::Write
    }
}

/// Both engines, driven in lockstep.
struct Pair {
    new: Pfs,
    old: OraclePfs,
    meters: Vec<MeterId>,
    done_new: Vec<(SimTime, FlowId)>,
    done_old: Vec<(SimTime, FlowId)>,
}

impl Pair {
    fn new(capacity: f64) -> Self {
        let mut new = Pfs::new(PfsConfig {
            write_capacity: capacity,
            read_capacity: capacity,
        });
        let mut old = OraclePfs::new(capacity, capacity);
        let meters: Vec<MeterId> = (0..2).map(|_| new.meter()).collect();
        for &m in &meters {
            old.register_meter(m);
        }
        Pair {
            new,
            old,
            meters,
            done_new: Vec::new(),
            done_old: Vec::new(),
        }
    }

    fn advance(&mut self, now: f64) {
        self.done_new.extend(self.new.advance_to(t(now)));
        self.done_old.extend(self.old.advance_to(t(now)));
    }

    fn is_live(&self, id: FlowId) -> bool {
        !self.done_new.iter().any(|&(_, d)| d == id)
    }
}

/// Checks that `new` completes the flows of `old`, in the same order up to
/// reordering within one instant, at times within `REL`.
fn assert_same_completions(old: &[(SimTime, FlowId)], new: &[(SimTime, FlowId)]) {
    assert_eq!(old.len(), new.len(), "completion counts differ");
    assert!(
        new.windows(2).all(|w| w[0].0 <= w[1].0),
        "completions out of time order"
    );
    for (i, (o, n)) in old.iter().zip(new).enumerate() {
        let (a, b) = (o.0.as_secs(), n.0.as_secs());
        assert!(
            same_instant(a, b),
            "completion {i}: oracle at {a}, engine at {b}"
        );
    }
    // Batches: maximal runs of the oracle's sequence at one instant.
    let mut start = 0;
    while start < old.len() {
        let mut end = start + 1;
        while end < old.len() && same_instant(old[end - 1].0.as_secs(), old[end].0.as_secs()) {
            end += 1;
        }
        let mut a: Vec<FlowId> = old[start..end].iter().map(|d| d.1).collect();
        let mut b: Vec<FlowId> = new[start..end].iter().map(|d| d.1).collect();
        a.sort();
        b.sort();
        assert_eq!(
            a, b,
            "batch at {:?} completes different flows",
            old[start].0
        );
        start = end;
    }
}

fn assert_close(what: &str, a: f64, b: f64) {
    assert!(
        (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0),
        "{what}: oracle {a} vs engine {b}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn engine_matches_replaced_engine(ops in prop::collection::vec(arb_op(), 1..60)) {
        let mut p = Pair::new(100.0);
        let mut now = 0.0f64;
        let mut ids: Vec<FlowId> = Vec::new();
        let mut last: Option<(Channel, FlowSpec)> = None;
        for op in &ops {
            // Every mutation needs the completions up to `now` harvested.
            p.advance(now);
            match *op {
                Op::Submit { read, bytes, weight, cap, meter } => {
                    let spec = FlowSpec { bytes, weight, cap, meter: meter.map(|m| p.meters[m]) };
                    last = Some((channel(read), spec));
                }
                Op::Repeat => {}
                Op::SetCap { pick, cap } => {
                    let live: Vec<FlowId> = ids.iter().copied().filter(|&id| p.is_live(id)).collect();
                    if let Some(&id) = live.get(pick % live.len().max(1)) {
                        p.new.set_cap(t(now), id, cap);
                        p.old.set_cap(t(now), id, cap);
                    }
                }
                Op::SetCapacity { read, capacity } => {
                    p.new.set_capacity(t(now), channel(read), capacity);
                    p.old.set_capacity(t(now), channel(read), capacity);
                }
                Op::SetFault { read, factor } => {
                    p.new.set_fault_factor(t(now), channel(read), factor);
                    p.old.set_fault_factor(t(now), channel(read), factor);
                }
                Op::Advance { dt } => now += dt,
            }
            if matches!(op, Op::Submit { .. } | Op::Repeat) {
                if let Some((ch, spec)) = last {
                    let a = p.new.submit(t(now), ch, spec);
                    let b = p.old.submit(t(now), ch, spec);
                    prop_assert_eq!(a, b);
                    ids.push(a);
                }
            }
            p.new.validate_invariants();
        }
        // Drain: restore healthy channels and run the clock out.
        p.advance(now);
        for ch in [Channel::Write, Channel::Read] {
            p.new.set_fault_factor(t(now), ch, 1.0);
            p.old.set_fault_factor(t(now), ch, 1.0);
            p.new.set_capacity(t(now), ch, 100.0);
            p.old.set_capacity(t(now), ch, 100.0);
        }
        let end = now + 1e6;
        p.advance(end);
        p.new.validate_invariants();

        prop_assert_eq!(p.done_new.len(), ids.len(), "every flow completes exactly once");
        assert_same_completions(&p.done_old, &p.done_new);
        for ch in [Channel::Write, Channel::Read] {
            prop_assert_eq!(p.new.active_flows(ch), 0);
            assert_close(
                "channel bytes",
                p.old.total_series(ch).integral(t(0.0), t(end)),
                p.new.total_series(ch).integral(t(0.0), t(end)),
            );
        }
        for &m in &p.meters {
            assert_close(
                "meter bytes",
                p.old.meter_series(m).integral(t(0.0), t(end)),
                p.new.meter_series(m).integral(t(0.0), t(end)),
            );
        }
        prop_assert!(p.new.next_completion().is_none());
    }
}

/// Same-size flows submitted at one instant merge and complete as one
/// batch; the same size submitted later does not join them.
#[test]
fn same_size_batches_match_the_oracle() {
    let mut p = Pair::new(100.0);
    let spec = FlowSpec::simple(100.0);
    let mut ids = Vec::new();
    for &at in &[0.0, 0.0, 0.0, 0.5, 0.5, 1.0] {
        p.advance(at);
        ids.push(p.new.submit(t(at), Channel::Write, spec));
        p.old.submit(t(at), Channel::Write, spec);
    }
    p.advance(100.0);
    assert_same_completions(&p.done_old, &p.done_new);
    assert_eq!(p.done_new.len(), ids.len());
    // The three flows of t = 0 finish together, before the others.
    let first: Vec<FlowId> = p.done_new[..3].iter().map(|d| d.1).collect();
    assert!(first.iter().all(|id| ids[..3].contains(id)));
    assert!(p.done_new[..3].iter().all(|d| d.0 == p.done_new[0].0));
    assert!(p.done_new[3].0 > p.done_new[2].0);
}
