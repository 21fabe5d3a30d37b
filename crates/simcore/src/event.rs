//! The simulator's event queue: a stable binary heap.
//!
//! A simulation is a loop that pops the earliest scheduled event, advances
//! the clock to its timestamp, and handles it (possibly scheduling more
//! events). Correctness of the reproduction demands *stable* ordering:
//! events scheduled for the same instant must pop in the order they were
//! scheduled, otherwise runs would not be reproducible. [`EventQueue`]
//! guarantees this by ordering on `(at, seq)`, where `seq` is a
//! monotonically increasing insertion counter, so the pop order is a
//! unique total order: obviously correct, one comparison path, no tuning
//! knobs.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::{SimDuration, SimTime};

/// An event of user-defined payload type `E` scheduled at a point in
/// simulated time.
#[derive(Debug, Clone)]
pub struct ScheduledEvent<E> {
    /// When the event fires.
    pub at: SimTime,
    /// Insertion order, used to break ties deterministically.
    pub seq: u64,
    /// The payload.
    pub event: E,
}

impl<E> PartialEq for ScheduledEvent<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for ScheduledEvent<E> {}

impl<E> Ord for ScheduledEvent<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (and, on ties,
        // first-scheduled) event is popped first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}
impl<E> PartialOrd for ScheduledEvent<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A deterministic priority queue of future events.
///
/// The queue also tracks the simulation clock: [`EventQueue::pop`] advances
/// `now` to the popped event's timestamp, and scheduling an event in the
/// past is rejected (it would make the simulation non-causal).
///
/// # Examples
///
/// ```
/// use e3_simcore::{EventQueue, SimDuration, SimTime};
///
/// let mut q: EventQueue<&str> = EventQueue::new();
/// q.schedule(SimTime::from_millis(5), "late");
/// q.schedule(SimTime::from_millis(1), "early");
/// q.schedule_after(SimDuration::from_millis(1), "also-early");
///
/// assert_eq!(q.pop().unwrap().event, "early");
/// assert_eq!(q.pop().unwrap().event, "also-early");
/// assert_eq!(q.now(), SimTime::from_millis(1));
/// assert_eq!(q.pop().unwrap().event, "late");
/// assert!(q.pop().is_none());
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<ScheduledEvent<E>>,
    now: SimTime,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at time zero.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            now: SimTime::ZERO,
            next_seq: 0,
        }
    }

    /// Current simulated time (the timestamp of the last popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current clock — scheduling into
    /// the past is always a simulation bug.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "event scheduled in the past: at={at} now={}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(ScheduledEvent { at, seq, event });
    }

    /// Schedules `event` at `now + delay`.
    pub fn schedule_after(&mut self, delay: SimDuration, event: E) {
        let at = self.now + delay;
        self.schedule(at, event);
    }

    /// Pops the earliest event and advances the clock to its timestamp.
    /// Returns `None` when the queue is drained.
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        let ev = self.heap.pop()?;
        debug_assert!(ev.at >= self.now, "event queue went back in time");
        self.now = ev.at;
        Some(ev)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(3), 3u32);
        q.schedule(SimTime::from_millis(1), 1u32);
        q.schedule(SimTime::from_millis(2), 2u32);
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|e| e.event)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(1);
        for i in 0..100u32 {
            q.schedule(t, i);
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|e| e.event)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn duplicate_timestamps_interleaved_with_pops_stay_fifo() {
        // FIFO-within-timestamp must hold across bursts at repeated
        // instants, not just a single burst: schedule growing bursts at
        // a series of instants and check global (at, seq) order.
        let mut q = EventQueue::new();
        let mut expect: Vec<(u64, u32)> = Vec::new();
        let mut tag = 0u32;
        for wave in 0..20u64 {
            let t = SimTime::from_micros(wave * 7);
            for _ in 0..wave + 1 {
                q.schedule(t, tag);
                expect.push((t.as_nanos(), tag));
                tag += 1;
            }
        }
        let mut got: Vec<(u64, u32)> = Vec::new();
        while let Some(ev) = q.pop() {
            got.push((ev.at.as_nanos(), ev.event));
        }
        assert_eq!(got, expect);
    }

    #[test]
    fn far_future_sentinels_coexist_with_dense_traffic() {
        // A handful of timers seconds out (plus a MAX sentinel) amid dense
        // sub-microsecond events: the far events pop last, in time order.
        let mut q = EventQueue::new();
        q.schedule(SimTime::MAX, u32::MAX);
        q.schedule(SimTime::from_secs_f64(30.0), 1_000_001);
        for i in 0..500u32 {
            q.schedule(SimTime::from_nanos(u64::from(i) * 800), i);
        }
        for i in 0..500u32 {
            assert_eq!(q.pop().unwrap().event, i);
        }
        assert_eq!(q.pop().unwrap().event, 1_000_001);
        assert_eq!(q.pop().unwrap().event, u32::MAX);
        assert!(q.pop().is_none());
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(5), ());
        q.schedule(SimTime::from_millis(7), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_millis(5));
        q.pop();
        assert_eq!(q.now(), SimTime::from_millis(7));
        assert!(q.pop().is_none());
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(5), ());
        q.pop();
        q.schedule(SimTime::from_millis(1), ());
    }

    #[test]
    fn schedule_after_uses_current_clock() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(10), "a");
        q.pop();
        q.schedule_after(SimDuration::from_millis(5), "b");
        let ev = q.pop().unwrap();
        assert_eq!(ev.at, SimTime::from_millis(15));
        assert_eq!(ev.event, "b");
    }

    /// One pop as `(at, seq, payload)`; the model's payload is its seq.
    type Popped = Option<(SimTime, u64, u64)>;

    /// Pops `q` and the model, which takes the minimum `(at, seq)` by a
    /// linear scan.
    fn pop_both(q: &mut EventQueue<u64>, model: &mut Vec<(SimTime, u64)>) -> (Popped, Popped) {
        let want = (0..model.len())
            .min_by_key(|&i| model[i])
            .map(|i| model.swap_remove(i))
            .map(|(at, seq)| (at, seq, seq));
        let got = q.pop().map(|ev| (ev.at, ev.seq, ev.event));
        (got, want)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random interleavings of `schedule`, `schedule_after` and `pop`
        /// match a trivially correct model: a `Vec` scanned for the
        /// minimum `(at, seq)`. Timestamps sit on a coarse 8-point grid,
        /// so many pending events share one.
        #[test]
        fn pops_match_min_scan_model(ops in proptest::collection::vec(0u32..24, 1..300)) {
            let grid = SimDuration::from_micros(10);
            let mut q = EventQueue::new();
            let mut model: Vec<(SimTime, u64)> = Vec::new();
            let mut next_seq = 0u64;
            for op in ops {
                let step = grid * u64::from(op / 3);
                match op % 3 {
                    0 => {
                        let at = (SimTime::ZERO + step).max(q.now());
                        q.schedule(at, next_seq);
                        model.push((at, next_seq));
                        next_seq += 1;
                    }
                    1 => {
                        model.push((q.now() + step, next_seq));
                        q.schedule_after(step, next_seq);
                        next_seq += 1;
                    }
                    _ => {
                        let (got, want) = pop_both(&mut q, &mut model);
                        prop_assert_eq!(got, want);
                        if let Some((at, _, _)) = want {
                            prop_assert_eq!(q.now(), at);
                        }
                    }
                }
            }
            while !model.is_empty() {
                let (got, want) = pop_both(&mut q, &mut model);
                prop_assert_eq!(got, want);
            }
            prop_assert!(q.pop().is_none());
        }
    }
}
