//! Property tests of the event queue: total order, FIFO ties, and the
//! alarm against a reference model.

use proptest::prelude::*;
use simcore::{EventQueue, SimTime};

/// One step of a queue script. Times are `now + 0.5 * n`, so same-instant
/// ties are common.
#[derive(Clone, Copy, Debug)]
enum Op {
    Schedule(u8),
    ScheduleIn(u8),
    SetAlarm(u8),
    ClearAlarm,
    Pop,
    Peek,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..4).prop_map(Op::Schedule),
        (0u8..4).prop_map(Op::ScheduleIn),
        (0u8..4).prop_map(Op::SetAlarm),
        Just(Op::ClearAlarm),
        Just(Op::Pop),
        Just(Op::Peek),
    ]
}

/// The reference: every pending event, the alarm included, as a
/// `(time, seq, payload)` row; the next event is the row with the least
/// `(time, seq)`. Setting the alarm removes its previous row, then inserts
/// one with a fresh seq.
#[derive(Default)]
struct Model {
    rows: Vec<(f64, u64, usize)>,
    alarm_seq: Option<u64>,
    next_seq: u64,
    now: f64,
}

impl Model {
    fn insert(&mut self, time: f64, payload: usize) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.rows.push((time, seq, payload));
        seq
    }

    fn clear_alarm(&mut self) {
        if let Some(seq) = self.alarm_seq.take() {
            self.rows.retain(|r| r.1 != seq);
        }
    }

    fn next(&self) -> Option<usize> {
        (0..self.rows.len()).min_by(|&a, &b| {
            let (ta, sa, _) = self.rows[a];
            let (tb, sb, _) = self.rows[b];
            ta.partial_cmp(&tb).unwrap().then(sa.cmp(&sb))
        })
    }

    fn peek(&self) -> Option<(SimTime, usize)> {
        self.next().map(|i| {
            let (t, _, p) = self.rows[i];
            (SimTime::from_secs(t), p)
        })
    }

    fn pop(&mut self) -> Option<(SimTime, usize)> {
        let (t, seq, p) = self.rows.remove(self.next()?);
        if self.alarm_seq == Some(seq) {
            self.alarm_seq = None;
        }
        self.now = t;
        Some((SimTime::from_secs(t), p))
    }
}

/// Absolute time `n` half-steps after `now`. Signed zeros are the same
/// instant, so they are mixed in: time zero is written `-0.0` here while
/// `schedule_in` produces `0.0`.
fn at(now: f64, n: u8) -> f64 {
    let t = now + 0.5 * n as f64;
    if t == 0.0 {
        -0.0
    } else {
        t
    }
}

proptest! {
    /// Pops are globally ordered by (time, insertion sequence).
    #[test]
    fn pops_sorted_with_fifo_ties(times in prop::collection::vec(0u32..50, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_secs(t as f64), i);
        }
        let mut popped = Vec::new();
        while let Some((t, id)) = q.pop() {
            popped.push((t, id));
        }
        prop_assert_eq!(popped.len(), times.len());
        for w in popped.windows(2) {
            prop_assert!(w[0].0 <= w[1].0, "time order");
            if w[0].0 == w[1].0 {
                prop_assert!(w[0].1 < w[1].1, "FIFO on ties");
            }
        }
    }

    /// Any script of schedules, alarm changes, pops and peeks delivers the
    /// same events, in the same order, as the reference model, and agrees
    /// with it on `peek`, `len` and the clock after every step.
    #[test]
    fn matches_reference_model(script in prop::collection::vec(arb_op(), 1..300)) {
        let mut q = EventQueue::new();
        let mut m = Model::default();
        for (id, op) in script.into_iter().enumerate() {
            match op {
                Op::Schedule(n) => {
                    let t = at(m.now, n);
                    q.schedule(SimTime::from_secs(t), id);
                    m.insert(t, id);
                }
                Op::ScheduleIn(n) => {
                    q.schedule_in(0.5 * n as f64, id);
                    m.insert(m.now + 0.5 * n as f64, id);
                }
                Op::SetAlarm(n) => {
                    let t = at(m.now, n);
                    q.set_alarm(SimTime::from_secs(t), id);
                    m.clear_alarm();
                    m.alarm_seq = Some(m.insert(t, id));
                }
                Op::ClearAlarm => {
                    q.clear_alarm();
                    m.clear_alarm();
                }
                Op::Pop => prop_assert_eq!(q.pop(), m.pop()),
                // `peek` is compared after every step, below.
                Op::Peek => {}
            }
            prop_assert_eq!(q.peek().map(|(t, &p)| (t, p)), m.peek());
            prop_assert_eq!(q.len(), m.rows.len());
            prop_assert_eq!(q.is_empty(), m.rows.is_empty());
            prop_assert_eq!(q.now(), SimTime::from_secs(m.now));
        }
        while let Some(e) = m.pop() {
            prop_assert_eq!(q.pop(), Some(e));
        }
        prop_assert!(q.pop().is_none());
    }
}
