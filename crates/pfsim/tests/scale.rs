//! Machine-independent scaling check of the PFS engine: with thousands of
//! live, desynchronised flow groups, each event must visit O(log g) group
//! entries (counted by `Pfs::stats`), not O(g). A return to per-event full
//! passes over the groups shows up here as thousands of entries per event.

use pfsim::{Channel, FlowSpec, Pfs, PfsConfig, PfsStats};
use simcore::SimTime;

const FLOWS: usize = 8192;

/// Entries an event may touch with `groups` live: a heap push or pop is at
/// most two visits per level, plus constant work around it.
fn budget(groups: u64) -> u64 {
    4 * (64 - groups.max(2).leading_zeros() as u64) + 8
}

#[test]
fn staggered_single_flows_cost_logarithmic_work_per_event() {
    let mut p = Pfs::new(PfsConfig {
        write_capacity: 1e9,
        read_capacity: 1e9,
    });
    p.set_recording(false);
    let mut done = Vec::new();
    let mut events = 0u64;
    let check = |before: PfsStats, after: PfsStats, events_in_call: u64, live: u64| {
        let touched = after.touched - before.touched;
        assert!(
            touched <= events_in_call.max(1) * budget(live),
            "{touched} entries touched for {events_in_call} event(s) with {live} live groups"
        );
    };
    // Staggered arrivals: one flow per millisecond, each of a different
    // size, so no two ever share a group. All stay live until the last
    // arrives (each needs far more than the 8 s of the arrival phase).
    for i in 0..FLOWS {
        let at = SimTime::from_secs(i as f64 * 1e-3);
        let before = p.stats();
        p.advance_into(at, &mut done);
        let spec = FlowSpec::simple(1e10 + i as f64 * 1e3);
        p.submit(at, Channel::Write, spec);
        events += 1;
        let after = p.stats();
        check(before, after, 1, after.peak_groups);
    }
    assert!(
        done.is_empty(),
        "no flow may finish during the arrival phase"
    );
    assert_eq!(p.stats().peak_groups, FLOWS as u64, "flows must not merge");
    // Drain one completion at a time.
    while let Some(at) = p.next_completion() {
        let before = p.stats();
        let n = done.len();
        p.advance_into(at, &mut done);
        let k = (done.len() - n) as u64;
        events += k;
        check(before, p.stats(), k, (FLOWS - n) as u64);
    }
    assert_eq!(done.len(), FLOWS);
    let s = p.stats();
    assert_eq!((s.submits, s.completions), (FLOWS as u64, FLOWS as u64));
    assert!(
        s.touched <= events * budget(FLOWS as u64),
        "{} entries touched over {events} events",
        s.touched
    );
    p.validate_invariants();
}
