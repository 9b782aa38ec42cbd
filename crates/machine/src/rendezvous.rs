//! Spin-then-park SPSC rendezvous slots — the worker ⇄ engine handoff.
//!
//! The lockstep runtime has a very particular communication pattern:
//! exactly one entity (the engine or one worker) is runnable at any
//! moment, and every simulated instruction is one request/reply round
//! trip. A general MPMC channel (`std::sync::mpsc`) pays a heap
//! allocation per message and an OS futex sleep/wake per round trip for
//! flexibility this pattern never uses. A [`slot`] is the minimal
//! mechanism instead: a single-value cell, one fixed producer, one
//! fixed consumer, with the consumer spinning briefly before parking —
//! under lockstep the peer is usually mid-handoff, so the value almost
//! always arrives within the spin window and both OS context switches
//! are elided.
//!
//! ## Contract
//!
//! * **Rendezvous**: at most one value is in flight. The sender must
//!   not send again until the receiver has taken the previous value.
//!   The machine's request/reply alternation guarantees this
//!   structurally; a violation panics.
//! * **Pinned consumer**: the receiver registers its thread handle on
//!   first park and must keep receiving from that thread (the machine
//!   never migrates an endpoint; debug builds assert it).
//! * **Hangup**: dropping either endpoint closes the slot. A pending
//!   value survives the close (the worker's `Exit` message is sent
//!   immediately before its sender drops); subsequent operations
//!   return [`Closed`], and a parked receiver is woken so nobody hangs
//!   on a slot that can never be filled again.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::Arc;
use std::thread::Thread;

/// The peer endpoint was dropped (and no value remains to drain).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Closed;

const EMPTY: u8 = 0;
const FULL: u8 = 1;
/// The consumer is parked (or about to park) waiting for a value.
const WAITING: u8 = 2;

/// Pure-spin iterations before yielding. Only useful on multicore
/// hosts (the peer must be able to run *while* we spin); covers the
/// peer's handoff work when it is already on another core.
///
/// Tuning data (`lr-bench --scenario engine_throughput --threads 8
/// --ops 4000` on a single-hardware-thread container, with the spin
/// phase forced on by an override this module no longer has): spinning
/// where the peer cannot run is pure loss, and the loss scales linearly
/// with the round count — contended-faa retires 440k sim-ops/s at 0
/// rounds, 296k at 32, 145k at 128, 51k at 512, 14k at 2048 (private-rw
/// and events-resident degrade in the same ratios). The default path
/// measures within noise of the 0-round row, i.e. the
/// `available_parallelism` probe that disables the spin phase on
/// single-threaded hosts is doing exactly its job — which is why 128 is
/// safe as the multicore setting: it is never reached on hosts where it
/// measures as harmful, and on multicore hosts it covers the peer's
/// ~100-cycle handoff window without approaching the yield phase's
/// cost. A multicore host should re-measure before changing it.
const SPIN_ROUNDS: u32 = 128;

/// Bounds for the adaptive `yield_now` budget before parking. A
/// yielding waiter stays *runnable* — when the value lands it resumes
/// on the next scheduling slot with no futex wake (the sender pays no
/// syscall at all, since the state never reads `WAITING`). This is the
/// phase that does the work on oversubscribed or single-core hosts,
/// where every handoff inherently needs a context switch and
/// `sched_yield` is several times cheaper than a park/unpark pair.
///
/// The budget adapts per receiver: catching a value while yielding
/// doubles it (the engine, and workers in a hot handoff pair, converge
/// to the cap), falling through to park halves it (workers whose
/// replies are many engine events away converge to one token yield and
/// stop polluting the scheduler's rotation with wasted slices).
const YIELD_MIN: u32 = 1;
const YIELD_MAX: u32 = 256;
const YIELD_INIT: u32 = 64;

/// Cached `available_parallelism` (0 = not yet probed): pure spinning
/// is pointless on a single hardware thread, so `recv` skips it there.
static HOST_CORES: std::sync::atomic::AtomicU32 = std::sync::atomic::AtomicU32::new(0);

/// The pure-spin round count for this host: [`SPIN_ROUNDS`] when it
/// has more than one hardware thread, 0 otherwise.
fn spin_rounds() -> u32 {
    let mut n = HOST_CORES.load(Ordering::Relaxed);
    if n == 0 {
        n = std::thread::available_parallelism()
            .map(|p| p.get() as u32)
            .unwrap_or(1);
        HOST_CORES.store(n, Ordering::Relaxed);
    }
    if n > 1 {
        SPIN_ROUNDS
    } else {
        0
    }
}

struct Inner<T> {
    state: AtomicU8,
    closed: AtomicBool,
    value: UnsafeCell<MaybeUninit<T>>,
    /// Consumer thread handle, written once by the receiver before its
    /// first transition to `WAITING`; read by the sender only after
    /// observing `WAITING` (the CAS/swap pair orders the accesses).
    waiter: UnsafeCell<Option<Thread>>,
}

// The value cell is accessed under the `state` protocol (single
// producer, single consumer, handoff ordered by the atomic); the waiter
// cell is written before `WAITING` is ever published and read only
// after observing it.
unsafe impl<T: Send> Send for Inner<T> {}
unsafe impl<T: Send> Sync for Inner<T> {}

impl<T> Drop for Inner<T> {
    fn drop(&mut self) {
        if *self.state.get_mut() == FULL {
            // A value was sent but never taken (e.g. the receiver side
            // unwound): drop it with the cell.
            unsafe { (*self.value.get()).assume_init_drop() };
        }
    }
}

/// Producer endpoint of a rendezvous [`slot`].
pub struct SlotSender<T> {
    inner: Arc<Inner<T>>,
}

/// Consumer endpoint of a rendezvous [`slot`].
pub struct SlotReceiver<T> {
    inner: Arc<Inner<T>>,
    registered: bool,
    /// Adaptive yield budget (see [`YIELD_MAX`]).
    budget: u32,
    /// Upper bound for `budget` (see [`SlotReceiver::with_yield_cap`]).
    cap: u32,
    #[cfg(debug_assertions)]
    home: Option<std::thread::ThreadId>,
}

/// A new rendezvous slot: one producer, one consumer, one value.
pub fn slot<T: Send>() -> (SlotSender<T>, SlotReceiver<T>) {
    let inner = Arc::new(Inner {
        state: AtomicU8::new(EMPTY),
        closed: AtomicBool::new(false),
        value: UnsafeCell::new(MaybeUninit::uninit()),
        waiter: UnsafeCell::new(None),
    });
    (
        SlotSender {
            inner: inner.clone(),
        },
        SlotReceiver {
            inner,
            registered: false,
            budget: YIELD_INIT,
            cap: YIELD_MAX,
            #[cfg(debug_assertions)]
            home: None,
        },
    )
}

impl<T: Send> SlotSender<T> {
    /// Hand one value to the consumer, waking it if it parked.
    ///
    /// Never blocks: the rendezvous contract guarantees the slot is
    /// empty whenever the protocol allows a send.
    pub fn send(&self, v: T) -> Result<(), Closed> {
        let inner = &*self.inner;
        if inner.closed.load(Ordering::Acquire) {
            return Err(Closed);
        }
        unsafe { (*inner.value.get()).write(v) };
        match inner.state.swap(FULL, Ordering::SeqCst) {
            EMPTY => Ok(()),
            WAITING => {
                // The write of `waiter` happened before the consumer
                // published WAITING; our swap observed WAITING, so the
                // handle is visible.
                let t = unsafe { (*inner.waiter.get()).clone() }
                    .expect("WAITING state without a registered consumer");
                t.unpark();
                Ok(())
            }
            _ => panic!("rendezvous violation: send into a full slot"),
        }
    }
}

impl<T> Drop for SlotSender<T> {
    fn drop(&mut self) {
        let inner = &*self.inner;
        inner.closed.store(true, Ordering::SeqCst);
        if inner.state.load(Ordering::SeqCst) == WAITING {
            if let Some(t) = unsafe { (*inner.waiter.get()).clone() } {
                t.unpark();
            }
        }
    }
}

impl<T: Send> SlotReceiver<T> {
    /// Take the next value, spinning briefly and then parking until the
    /// producer fills the slot. Returns [`Closed`] once the producer
    /// has dropped and any final value has been drained.
    pub fn recv(&mut self) -> Result<T, Closed> {
        // Phase 1: pure spin (multicore only) — catches a peer that is
        // mid-handoff on another core without any syscall.
        for _ in 0..spin_rounds() {
            if self.inner.state.load(Ordering::Acquire) == FULL {
                return Ok(self.take());
            }
            std::hint::spin_loop();
        }
        // Phase 2: yielding spin — stay runnable (the sender never pays
        // an unpark) while letting whoever produces the value run.
        for _ in 0..self.budget {
            if self.inner.state.load(Ordering::Acquire) == FULL {
                self.budget = (self.budget * 2).min(self.cap);
                return Ok(self.take());
            }
            if self.inner.closed.load(Ordering::SeqCst) {
                break;
            }
            std::thread::yield_now();
        }
        // Phase 3: park until the sender (or a close) wakes us.
        self.budget = (self.budget / 2).max(YIELD_MIN);
        loop {
            if self.inner.state.load(Ordering::Acquire) == FULL {
                return Ok(self.take());
            }
            if self.inner.closed.load(Ordering::SeqCst) {
                // Drain a value that raced ahead of the close.
                if self.inner.state.load(Ordering::SeqCst) == FULL {
                    return Ok(self.take());
                }
                return Err(Closed);
            }
            self.register();
            if self
                .inner
                .state
                .compare_exchange(EMPTY, WAITING, Ordering::SeqCst, Ordering::SeqCst)
                .is_err()
            {
                // A value (or close) arrived between the spin and the
                // CAS; re-run the fast path.
                continue;
            }
            loop {
                if self.inner.closed.load(Ordering::SeqCst) {
                    // Roll WAITING back unless a send raced the close.
                    if self
                        .inner
                        .state
                        .compare_exchange(WAITING, EMPTY, Ordering::SeqCst, Ordering::SeqCst)
                        .is_ok()
                    {
                        return Err(Closed);
                    }
                    return Ok(self.take());
                }
                std::thread::park();
                if self.inner.state.load(Ordering::SeqCst) == FULL {
                    return Ok(self.take());
                }
                // Spurious wakeup or a close-unpark: loop re-checks.
            }
        }
    }

    /// Cap the adaptive yield budget. A waiter whose values routinely
    /// take many scheduling slots to arrive (a worker whose reply is
    /// several engine events away) should park early rather than keep
    /// itself in the scheduler's rotation, slowing the pair that is
    /// actually making progress; a waiter whose values are always the
    /// very next thing (the engine awaiting the request of the worker
    /// it just woke) should keep yielding.
    pub fn with_yield_cap(mut self, cap: u32) -> Self {
        self.cap = cap.max(YIELD_MIN);
        self.budget = self.budget.min(self.cap);
        self
    }

    /// Register the consumer thread handle (once; see module contract).
    fn register(&mut self) {
        #[cfg(debug_assertions)]
        {
            let me = std::thread::current().id();
            match self.home {
                None => self.home = Some(me),
                Some(h) => {
                    debug_assert_eq!(h, me, "SlotReceiver migrated threads between recv() calls")
                }
            }
        }
        if !self.registered {
            unsafe { *self.inner.waiter.get() = Some(std::thread::current()) };
            self.registered = true;
        }
    }

    fn take(&self) -> T {
        // state == FULL: the producer's value write happens-before the
        // Acquire/SeqCst load that observed it.
        let v = unsafe { (*self.inner.value.get()).assume_init_read() };
        self.inner.state.store(EMPTY, Ordering::Release);
        v
    }
}

impl<T> Drop for SlotReceiver<T> {
    fn drop(&mut self) {
        // The producer never parks, so closing is just the flag; its
        // next send observes it and errors instead of writing.
        self.inner.closed.store(true, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_handoff() {
        let (tx, mut rx) = slot::<u64>();
        tx.send(7).unwrap();
        assert_eq!(rx.recv(), Ok(7));
    }

    #[test]
    fn ping_pong_across_threads() {
        let (req_tx, mut req_rx) = slot::<u64>();
        let (rep_tx, mut rep_rx) = slot::<u64>();
        let n = 10_000u64;
        let worker = std::thread::spawn(move || {
            let mut acc = 0;
            for i in 0..n {
                req_tx.send(i).unwrap();
                acc += rep_rx.recv().unwrap();
            }
            acc
        });
        for _ in 0..n {
            let v = req_rx.recv().unwrap();
            rep_tx.send(v * 2).unwrap();
        }
        assert_eq!(worker.join().unwrap(), (0..n).map(|i| i * 2).sum());
    }

    #[test]
    fn parked_receiver_is_woken_by_send() {
        let (tx, mut rx) = slot::<u64>();
        let h = std::thread::spawn(move || rx.recv());
        // Give the receiver time to spin out and park.
        std::thread::sleep(std::time::Duration::from_millis(20));
        tx.send(42).unwrap();
        assert_eq!(h.join().unwrap(), Ok(42));
    }

    #[test]
    fn sender_drop_wakes_and_closes() {
        let (tx, mut rx) = slot::<u64>();
        let h = std::thread::spawn(move || rx.recv());
        std::thread::sleep(std::time::Duration::from_millis(20));
        drop(tx);
        assert_eq!(h.join().unwrap(), Err(Closed));
    }

    #[test]
    fn value_sent_before_close_is_drained() {
        let (tx, mut rx) = slot::<String>();
        tx.send("exit".to_string()).unwrap();
        drop(tx);
        assert_eq!(rx.recv(), Ok("exit".to_string()));
        assert_eq!(rx.recv(), Err(Closed));
    }

    #[test]
    fn send_after_receiver_drop_errors() {
        let (tx, rx) = slot::<u64>();
        drop(rx);
        assert_eq!(tx.send(1), Err(Closed));
    }

    #[test]
    fn unreceived_value_is_dropped_with_slot() {
        let v = std::sync::Arc::new(());
        let (tx, rx) = slot::<std::sync::Arc<()>>();
        tx.send(v.clone()).unwrap();
        drop(tx);
        drop(rx);
        assert_eq!(std::sync::Arc::strong_count(&v), 1, "value leaked");
    }

    /// The pure-spin phase runs only where the peer can run while the
    /// receiver spins: on hosts with more than one hardware thread.
    #[test]
    fn force_spin_off_defers_to_core_count() {
        let expected = if std::thread::available_parallelism().map_or(1, |p| p.get()) > 1 {
            SPIN_ROUNDS
        } else {
            0
        };
        assert_eq!(spin_rounds(), expected);
    }
}
