//! Event queue for discrete-event engines.
//!
//! [`EventQueue`] is a time-ordered priority queue with FIFO tie-breaking:
//! events scheduled for the same instant pop in the order they were pushed,
//! which keeps simulations deterministic regardless of heap internals.
//!
//! Besides the heap, the queue holds at most one **alarm**: an event that
//! the engine re-times far more often than it delivers (the PFS wake, moved
//! on every bandwidth change). [`EventQueue::set_alarm`] replaces it in
//! place instead of leaving a dead heap entry behind, and takes the next
//! sequence number exactly as [`EventQueue::schedule`] would, so the alarm
//! pops in the same `(time, seq)` order as a scheduled event.
//!
//! Each heap entry carries one precomputed integer key, the bits of its
//! time above its sequence number. Times are never negative (the clock
//! starts at zero and only moves forward), and for non-negative `f64`s the
//! bit pattern orders like the value once `-0.0` is folded into `0.0`, so
//! a sift compares integers only.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

struct Entry<E> {
    /// `time.to_bits() << 64 | seq`: earliest time first, then FIFO.
    key: u128,
    payload: E,
}

impl<E> Entry<E> {
    fn time(&self) -> SimTime {
        SimTime::from_secs(f64::from_bits((self.key >> 64) as u64))
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the smallest key pops first.
        other.key.cmp(&self.key)
    }
}

/// A deterministic time-ordered event queue.
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    /// The one re-armable event, kept out of the heap.
    alarm: Option<Entry<E>>,
    next_seq: u64,
    now: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at zero.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty queue pre-sized for `capacity` concurrently pending
    /// events, avoiding reallocation in the scheduling hot path.
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(capacity),
            alarm: None,
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// Current virtual time: the timestamp of the last popped event.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The entry for an event at `time`, keyed with the next sequence number.
    fn entry(&mut self, time: SimTime, payload: E) -> Entry<E> {
        assert!(
            time >= self.now,
            "cannot schedule event in the past: {:?} < {:?}",
            time,
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        // `+ 0.0` folds -0.0 into 0.0; every other time is positive here.
        let bits = (time.as_secs() + 0.0).to_bits();
        Entry {
            key: ((bits as u128) << 64) | seq as u128,
            payload,
        }
    }

    /// Schedules `payload` at absolute time `time`.
    ///
    /// Panics if `time` is in the past (before the last popped event): a DES
    /// must never travel backwards.
    pub fn schedule(&mut self, time: SimTime, payload: E) {
        let entry = self.entry(time, payload);
        self.heap.push(entry);
    }

    /// Schedules `payload` after `delay` seconds from now.
    pub fn schedule_in(&mut self, delay: f64, payload: E) {
        let t = self.now.after(delay);
        self.schedule(t, payload)
    }

    /// Arms the alarm at `time`, replacing any pending alarm. The alarm
    /// takes the next sequence number, so it orders among same-instant
    /// events exactly as a fresh [`EventQueue::schedule`] would.
    ///
    /// Panics if `time` is in the past, like `schedule`.
    pub fn set_alarm(&mut self, time: SimTime, payload: E) {
        self.alarm = Some(self.entry(time, payload));
    }

    /// Drops the pending alarm, if any.
    pub fn clear_alarm(&mut self) {
        self.alarm = None;
    }

    /// True if the alarm is pending and precedes every heap entry.
    fn alarm_is_next(&self) -> bool {
        match (&self.alarm, self.heap.peek()) {
            (Some(a), Some(top)) => a.key < top.key,
            (alarm, _) => alarm.is_some(),
        }
    }

    /// Pops the next event (the alarm or the heap top), advancing the clock
    /// to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let entry = if self.alarm_is_next() {
            self.alarm.take()
        } else {
            self.heap.pop()
        }?;
        let time = entry.time();
        debug_assert!(time >= self.now);
        self.now = time;
        Some((time, entry.payload))
    }

    /// The next event — timestamp and payload — without popping it.
    pub fn peek(&self) -> Option<(SimTime, &E)> {
        let entry = if self.alarm_is_next() {
            self.alarm.as_ref()
        } else {
            self.heap.peek()
        }?;
        Some((entry.time(), &entry.payload))
    }

    /// Number of pending events, the alarm included.
    pub fn len(&self) -> usize {
        self.heap.len() + usize::from(self.alarm.is_some())
    }

    /// True if no events remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(t(3.0), "c");
        q.schedule(t(1.0), "a");
        q.schedule(t(2.0), "b");
        assert_eq!(q.pop().unwrap().1, "a");
        assert_eq!(q.pop().unwrap().1, "b");
        assert_eq!(q.pop().unwrap().1, "c");
        assert!(q.pop().is_none());
    }

    #[test]
    fn fifo_on_ties() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(t(5.0), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn clock_advances_on_pop() {
        let mut q = EventQueue::new();
        q.schedule(t(2.5), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), t(2.5));
    }

    #[test]
    fn schedule_in_is_relative() {
        let mut q = EventQueue::new();
        q.schedule(t(1.0), "first");
        q.pop();
        q.schedule_in(0.5, "second");
        let (time, _) = q.pop().unwrap();
        assert!((time.as_secs() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn second_alarm_replaces_the_first() {
        let mut q = EventQueue::new();
        q.set_alarm(t(1.0), "old");
        q.set_alarm(t(3.0), "new");
        q.schedule(t(2.0), "event");
        assert_eq!(q.pop().unwrap().1, "event");
        assert_eq!(q.pop(), Some((t(3.0), "new")));
        assert!(q.pop().is_none());
    }

    #[test]
    fn clear_alarm_empties_it() {
        let mut q = EventQueue::new();
        q.set_alarm(t(1.0), "alarm");
        q.clear_alarm();
        assert!(q.is_empty());
        assert!(q.peek().is_none());
        assert!(q.pop().is_none());
        q.clear_alarm();
        assert!(q.is_empty(), "clearing no alarm is a no-op");
    }

    /// The alarm's sequence number is taken when it is set, so it sorts
    /// among same-instant events by when it was armed.
    #[test]
    fn same_instant_alarm_orders_by_when_it_was_set() {
        let mut q = EventQueue::new();
        q.schedule(t(1.0), "before");
        q.set_alarm(t(1.0), "alarm");
        q.schedule(t(1.0), "after");
        assert_eq!(q.peek(), Some((t(1.0), &"before")));
        assert_eq!(q.pop().unwrap().1, "before");
        assert_eq!(q.peek(), Some((t(1.0), &"alarm")));
        assert_eq!(q.pop().unwrap().1, "alarm");
        assert_eq!(q.pop().unwrap().1, "after");
    }

    #[test]
    fn len_counts_the_alarm() {
        let mut q = EventQueue::new();
        q.schedule(t(1.0), 0);
        q.set_alarm(t(2.0), 1);
        assert_eq!(q.len(), 2);
        q.set_alarm(t(0.5), 2);
        assert_eq!(q.len(), 2, "re-arming does not add an event");
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.len(), 1);
        q.clear_alarm();
        assert_eq!(q.len(), 1, "the popped alarm is already gone");
    }

    /// `-0.0` and `0.0` are the same instant: they order by sequence
    /// number alone, alarm or not.
    #[test]
    fn signed_zeros_order_by_seq_alone() {
        let mut q = EventQueue::new();
        q.schedule(t(0.0), "a");
        q.schedule(t(-0.0), "b");
        q.set_alarm(t(-0.0), "c");
        q.schedule(t(0.0), "d");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, ["a", "b", "c", "d"]);
        assert_eq!(q.now(), SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "in the past")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(t(2.0), ());
        q.pop();
        q.schedule(t(1.0), ());
    }

    #[test]
    #[should_panic(expected = "in the past")]
    fn alarm_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(t(2.0), ());
        q.pop();
        q.set_alarm(t(1.0), ());
    }
}
