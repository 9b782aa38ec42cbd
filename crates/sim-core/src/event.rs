//! Deterministic discrete-event queue.
//!
//! Events are ordered by `(time, sequence)`. [`EventQueue::push_at`]
//! numbers pushes in insertion order, so ties at the same simulated
//! cycle pop FIFO; the machine's store supplies canonical keys through
//! [`EventQueue::push_at_seq`] instead. Either way every simulation run
//! with a fixed seed is bit-for-bit reproducible.
//!
//! The one backing store is the hierarchical timing wheel of the
//! crate-private `wheel` module: O(1) amortized push/pop, built for the
//! far-future horizon that lease timeouts keep resident.
//!
//! In debug builds (so in every `cargo test`) the queue also mirrors
//! every pending `(time, seq)` key in a key-only `BinaryHeap` and
//! asserts that each pop returns that reference's minimum, so every pop
//! of a test run is checked against an independent implementation of
//! the order. Release builds carry no reference.

use crate::wheel::Wheel;
use crate::Cycle;
#[cfg(debug_assertions)]
use std::cmp::Reverse;
#[cfg(debug_assertions)]
use std::collections::BinaryHeap;

/// The event queue's backing store. The timing wheel is the only one;
/// the type remains because the host-performance benchmark
/// (`perfbench/`) names it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventQueueKind {
    /// Hierarchical timing wheel: O(1) amortized.
    Wheel,
}

impl EventQueueKind {
    /// The store [`EventQueue::new`] uses: always the wheel. Kept for the
    /// benchmark's calls; it reads no environment.
    pub fn from_env() -> Self {
        EventQueueKind::Wheel
    }
}

/// A time-ordered event queue with deterministic tie-breaking.
#[derive(Debug)]
pub struct EventQueue<E> {
    wheel: Wheel<E>,
    seq: u64,
    now: Cycle,
    processed: u64,
    /// Reference order: every pending `(time, seq)`, min first. It
    /// keeps its capacity across pops, so a warmed-up run allocates no
    /// more than the wheel's own slab does.
    #[cfg(debug_assertions)]
    reference: BinaryHeap<Reverse<(Cycle, u64)>>,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue at time 0.
    pub fn new() -> Self {
        EventQueue {
            wheel: Wheel::new(),
            seq: 0,
            now: 0,
            processed: 0,
            #[cfg(debug_assertions)]
            reference: BinaryHeap::new(),
        }
    }

    /// [`EventQueue::new`]; `kind` has one value. Kept for the
    /// benchmark's calls.
    pub fn with_kind(_kind: EventQueueKind) -> Self {
        Self::new()
    }

    /// Current simulated time: the timestamp of the last popped event.
    #[inline]
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Total number of events popped so far.
    #[inline]
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Number of pending events.
    #[inline]
    pub fn len(&self) -> usize {
        self.wheel.len()
    }

    /// True if no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Schedule `payload` at absolute time `time`.
    ///
    /// Scheduling in the past is a logic error and panics: the engine
    /// never travels backwards.
    pub fn push_at(&mut self, time: Cycle, payload: E) {
        let seq = self.seq;
        self.seq += 1;
        self.push_at_seq(time, seq, payload);
    }

    /// Schedule `payload` at `time` under a caller-supplied sequence
    /// key instead of the internal counter. The engine's store
    /// ([`crate::shard::ShardedQueue`]) passes *canonical* keys
    /// (`src-tile` ∥ per-src-tile push counter), so that ordering by
    /// `(time, seq)` is a pure function of per-tile causality. Keys
    /// must be unique per `(time, seq)` pair but need *not* arrive in
    /// ascending order, and a key may land at the current cycle below
    /// the last popped one: the wheel orders same-time entries by key
    /// (an ordered insert into its one-cycle level-0 slots).
    pub fn push_at_seq(&mut self, time: Cycle, seq: u64, payload: E) {
        assert!(
            time >= self.now,
            "event scheduled in the past: t={} < now={}",
            time,
            self.now
        );
        #[cfg(debug_assertions)]
        self.reference.push(Reverse((time, seq)));
        self.wheel.push(time, seq, payload);
    }

    /// Schedule `payload` `delay` cycles after the current time.
    ///
    /// A delay that overflows the 64-bit cycle counter is a logic error
    /// and panics — wrapping would silently schedule the event in the
    /// past (caught only probabilistically by the `push_at` check).
    pub fn push_after(&mut self, delay: Cycle, payload: E) {
        let time = self.now.checked_add(delay).unwrap_or_else(|| {
            panic!(
                "event delay overflows the simulated clock: now={} + delay={}",
                self.now, delay
            )
        });
        self.push_at(time, payload);
    }

    /// Pop the earliest event, advancing the simulated clock to it.
    pub fn pop(&mut self) -> Option<(Cycle, E)> {
        let (time, seq, payload) = self.wheel.pop()?;
        // Always-on (one branch per event): simulated time never moves
        // backwards, in release builds too — a queue-ordering bug here
        // would silently corrupt every downstream statistic.
        assert!(
            time >= self.now,
            "event queue time went backwards: popped t={} behind now={}",
            time,
            self.now
        );
        // Reference check: the wheel must pop the `(time, seq)` minimum
        // of everything pending.
        #[cfg(debug_assertions)]
        {
            let Reverse(want) = self
                .reference
                .pop()
                .expect("reference holds every pending key");
            assert_eq!(
                (time, seq),
                want,
                "event order violated: popped (t, seq) = {:?}, pending minimum is {want:?}",
                (time, seq)
            );
        }
        #[cfg(not(debug_assertions))]
        let _ = seq;
        self.now = time;
        self.processed += 1;
        Some((time, payload))
    }

    /// Peek at the timestamp of the earliest pending event.
    pub fn peek_time(&self) -> Option<Cycle> {
        self.wheel.peek_time()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push_at(5, "b");
        q.push_at(3, "a");
        q.push_at(9, "c");
        assert_eq!(q.pop(), Some((3, "a")));
        assert_eq!(q.pop(), Some((5, "b")));
        assert_eq!(q.now(), 5);
        assert_eq!(q.pop(), Some((9, "c")));
        assert_eq!(q.pop(), None);
        assert_eq!(q.processed(), 3);
    }

    #[test]
    fn ties_broken_by_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push_at(7, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((7, i)));
        }
    }

    #[test]
    fn push_after_uses_current_time() {
        let mut q = EventQueue::new();
        q.push_at(10, 0);
        q.pop();
        q.push_after(5, 1);
        assert_eq!(q.pop(), Some((15, 1)));
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.push_at(10, 0);
        q.pop();
        q.push_at(9, 1);
    }

    #[test]
    #[should_panic(expected = "overflows the simulated clock")]
    fn overflowing_delay_panics() {
        let mut q = EventQueue::new();
        q.push_at(10, 0);
        q.pop();
        // Pre-fix this wrapped to t=9 in release builds and scheduled
        // the event in the past.
        q.push_after(u64::MAX, 1);
    }

    #[test]
    fn max_time_is_schedulable() {
        let mut q = EventQueue::new();
        q.push_at(u64::MAX, 0);
        q.push_at(0, 1);
        assert_eq!(q.pop(), Some((0, 1)));
        assert_eq!(q.pop(), Some((u64::MAX, 0)));
    }

    #[test]
    fn len_and_empty() {
        let mut q: EventQueue<u8> = EventQueue::new();
        assert!(q.is_empty());
        q.push_at(1, 1);
        q.push_at(2, 2);
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn peek_time() {
        let mut q: EventQueue<u8> = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.push_at(4, 0);
        q.push_at(2, 1);
        assert_eq!(q.peek_time(), Some(2));
    }
}
