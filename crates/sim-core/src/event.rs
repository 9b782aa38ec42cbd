//! Deterministic discrete-event queue.
//!
//! Events are ordered by `(time, sequence)`. [`EventQueue::push_at`]
//! numbers pushes in insertion order, so ties at the same simulated
//! cycle pop FIFO; the machine's store supplies canonical keys through
//! [`EventQueue::push_at_seq`] instead. Either way every simulation run
//! with a fixed seed is bit-for-bit reproducible.
//!
//! Two interchangeable backing stores implement that contract:
//!
//! * [`EventQueueKind::Wheel`] (default) — the hierarchical timing
//!   wheel of [`crate::wheel`]: O(1) amortized push/pop, built for the
//!   far-future horizon that lease timeouts keep resident;
//! * [`EventQueueKind::Heap`] — the original `BinaryHeap`, kept as the
//!   reference implementation and the CI A/B baseline.
//!
//! The `LR_EVENTQ=heap|wheel` environment variable (read once per
//! process) selects the store used by [`EventQueue::new`]; both must
//! produce byte-identical simulations, which `ci.sh` enforces by
//! diffing full smoke sweeps.

use crate::wheel::Wheel;
use crate::Cycle;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::OnceLock;

/// Which backing store an [`EventQueue`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventQueueKind {
    /// `BinaryHeap` reference implementation: O(log n) per operation.
    Heap,
    /// Hierarchical timing wheel: O(1) amortized (the default).
    Wheel,
}

static KIND_FROM_ENV: OnceLock<EventQueueKind> = OnceLock::new();

impl EventQueueKind {
    /// The process-wide default, from `LR_EVENTQ` (`heap` | `wheel`,
    /// default `wheel`). Parsed once; a bad value aborts rather than
    /// silently benchmarking the wrong engine.
    pub fn from_env() -> Self {
        *KIND_FROM_ENV.get_or_init(|| match std::env::var("LR_EVENTQ") {
            Err(_) => EventQueueKind::Wheel,
            Ok(v) if v == "wheel" => EventQueueKind::Wheel,
            Ok(v) if v == "heap" => EventQueueKind::Heap,
            Ok(v) => {
                panic!("LR_EVENTQ={v:?} is not a known event queue (use \"heap\" or \"wheel\")")
            }
        })
    }
}

/// A time-ordered event queue with deterministic tie-breaking.
#[derive(Debug)]
pub struct EventQueue<E> {
    store: Store<E>,
    seq: u64,
    now: Cycle,
    processed: u64,
    /// Last popped `(time, seq)`, for the full-ordering audit.
    #[cfg(feature = "strict-invariants")]
    last: Option<(Cycle, u64)>,
}

#[derive(Debug)]
enum Store<E> {
    Heap(BinaryHeap<Reverse<Entry<E>>>),
    Wheel(Wheel<E>),
}

#[derive(Debug)]
struct Entry<E> {
    time: Cycle,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue at time 0, backed by the process-wide default
    /// store ([`EventQueueKind::from_env`]).
    pub fn new() -> Self {
        Self::with_kind(EventQueueKind::from_env())
    }

    /// An empty queue at time 0 with an explicitly chosen backing store
    /// (tests and A/B comparisons; production callers use
    /// [`EventQueue::new`]).
    pub fn with_kind(kind: EventQueueKind) -> Self {
        EventQueue {
            store: match kind {
                EventQueueKind::Heap => Store::Heap(BinaryHeap::new()),
                EventQueueKind::Wheel => Store::Wheel(Wheel::new()),
            },
            seq: 0,
            now: 0,
            processed: 0,
            #[cfg(feature = "strict-invariants")]
            last: None,
        }
    }

    /// Which backing store this queue uses.
    pub fn kind(&self) -> EventQueueKind {
        match self.store {
            Store::Heap(_) => EventQueueKind::Heap,
            Store::Wheel(_) => EventQueueKind::Wheel,
        }
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
        match &self.store {
            Store::Heap(h) => h.len(),
            Store::Wheel(w) => w.len(),
        }
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
    /// ascending order; both stores order same-time entries by key (the
    /// wheel by an ordered insert into its one-cycle level-0 slots).
    pub fn push_at_seq(&mut self, time: Cycle, seq: u64, payload: E) {
        assert!(
            time >= self.now,
            "event scheduled in the past: t={} < now={}",
            time,
            self.now
        );
        // A caller-supplied canonical key may legitimately land at the
        // current cycle *below* the last popped key (same cycle, lower
        // source tile, pushed after that pop) — pops before this push
        // are no longer comparable, so restart the ordering audit here.
        #[cfg(feature = "strict-invariants")]
        if self.last.is_some_and(|last| (time, seq) <= last) {
            self.last = None;
        }
        match &mut self.store {
            Store::Heap(h) => h.push(Reverse(Entry { time, seq, payload })),
            Store::Wheel(w) => w.push(time, seq, payload),
        }
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
        let (time, seq, payload) = match &mut self.store {
            Store::Heap(h) => h.pop().map(|Reverse(e)| (e.time, e.seq, e.payload)),
            Store::Wheel(w) => w.pop(),
        }?;
        // Always-on (one branch per event): simulated time never moves
        // backwards, in release builds too — a queue-ordering bug here
        // would silently corrupt every downstream statistic.
        assert!(
            time >= self.now,
            "event queue time went backwards: popped t={} behind now={}",
            time,
            self.now
        );
        // Full-ordering audit: pops are strictly increasing in
        // (time, seq) — an exact stable FIFO per cycle — except across
        // a keyed push at-or-below the last pop, which resets `last`
        // (see `push_at_seq`).
        #[cfg(feature = "strict-invariants")]
        {
            if let Some((lt, ls)) = self.last {
                assert!(
                    (time, seq) > (lt, ls),
                    "event order violated: popped (t={time}, seq={seq}) after (t={lt}, seq={ls})"
                );
            }
            self.last = Some((time, seq));
        }
        #[cfg(not(feature = "strict-invariants"))]
        let _ = seq;
        self.now = time;
        self.processed += 1;
        Some((time, payload))
    }

    /// Peek at the timestamp of the earliest pending event.
    pub fn peek_time(&self) -> Option<Cycle> {
        match &self.store {
            Store::Heap(h) => h.peek().map(|Reverse(e)| e.time),
            Store::Wheel(w) => w.peek_time(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds() -> [EventQueueKind; 2] {
        [EventQueueKind::Heap, EventQueueKind::Wheel]
    }

    #[test]
    fn pops_in_time_order() {
        for kind in kinds() {
            let mut q = EventQueue::with_kind(kind);
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
    }

    #[test]
    fn ties_broken_by_insertion_order() {
        for kind in kinds() {
            let mut q = EventQueue::with_kind(kind);
            for i in 0..100 {
                q.push_at(7, i);
            }
            for i in 0..100 {
                assert_eq!(q.pop(), Some((7, i)));
            }
        }
    }

    #[test]
    fn push_after_uses_current_time() {
        for kind in kinds() {
            let mut q = EventQueue::with_kind(kind);
            q.push_at(10, 0);
            q.pop();
            q.push_after(5, 1);
            assert_eq!(q.pop(), Some((15, 1)));
        }
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
        for kind in kinds() {
            let mut q = EventQueue::with_kind(kind);
            q.push_at(u64::MAX, 0);
            q.push_at(0, 1);
            assert_eq!(q.pop(), Some((0, 1)));
            assert_eq!(q.pop(), Some((u64::MAX, 0)));
        }
    }

    #[test]
    fn len_and_empty() {
        for kind in kinds() {
            let mut q: EventQueue<u8> = EventQueue::with_kind(kind);
            assert!(q.is_empty());
            q.push_at(1, 1);
            q.push_at(2, 2);
            assert_eq!(q.len(), 2);
            q.pop();
            assert_eq!(q.len(), 1);
            assert!(!q.is_empty());
        }
    }

    #[test]
    fn peek_time() {
        for kind in kinds() {
            let mut q: EventQueue<u8> = EventQueue::with_kind(kind);
            assert_eq!(q.peek_time(), None);
            q.push_at(4, 0);
            q.push_at(2, 1);
            assert_eq!(q.peek_time(), Some(2));
        }
    }

    #[test]
    fn default_kind_is_wheel_unless_overridden() {
        // CI sets LR_EVENTQ explicitly for the A/B gate; in a plain
        // test environment the wheel must be the default.
        if std::env::var("LR_EVENTQ").is_err() {
            let q: EventQueue<u8> = EventQueue::new();
            assert_eq!(q.kind(), EventQueueKind::Wheel);
        }
    }
}
