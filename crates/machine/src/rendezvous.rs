//! Yield-then-park SPSC rendezvous slots — the worker ⇄ engine handoff.
//!
//! The lockstep runtime has a very particular communication pattern:
//! exactly one entity (the engine or one worker) is runnable at any
//! moment, and every simulated instruction is one request/reply round
//! trip. A general MPMC channel (`std::sync::mpsc`) pays a heap
//! allocation per message and an OS futex sleep/wake per round trip for
//! flexibility this pattern never uses. A [`slot`] is the minimal
//! mechanism instead: a single-value cell, one fixed producer, one
//! fixed consumer. The consumer waits in two phases: it yields up to a
//! fixed *patience*, staying runnable so that a value landing meanwhile
//! costs the sender no futex wake, and then parks.
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
//!
//! The slot is safe code. The value sits in a `Mutex<Option<T>>` that
//! the state byte keeps uncontended: the sender fills it before it
//! publishes `FULL`, and the receiver empties it before it publishes
//! `EMPTY`. The waiter's thread handle sits in a `OnceLock`.

use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::Thread;

/// The peer endpoint was dropped (and no value remains to drain).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Closed;

const EMPTY: u8 = 0;
const FULL: u8 = 1;
/// The consumer is parked (or about to park) waiting for a value.
const WAITING: u8 = 2;

/// Why locking the value cell cannot fail: nothing that holds it can
/// panic (it only moves a value in or out).
const UNPOISONED: &str = "the slot's value cell is never held across a panic";

struct Inner<T> {
    state: AtomicU8,
    closed: AtomicBool,
    /// The value in flight: filled before `FULL` is published, emptied
    /// before `EMPTY` is.
    value: Mutex<Option<T>>,
    /// Consumer thread handle, set by the receiver before its first
    /// transition to `WAITING`; read by the sender only after observing
    /// `WAITING` (the CAS/swap pair orders the accesses).
    waiter: OnceLock<Thread>,
}

/// Producer endpoint of a rendezvous [`slot`].
pub struct SlotSender<T> {
    inner: Arc<Inner<T>>,
}

/// Consumer endpoint of a rendezvous [`slot`].
pub struct SlotReceiver<T> {
    inner: Arc<Inner<T>>,
    /// `yield_now` rounds before `recv` parks.
    patience: u32,
}

/// A new rendezvous slot: one producer, one consumer, one value. The
/// receiver yields up to `patience` times before it parks.
pub fn slot<T: Send>(patience: u32) -> (SlotSender<T>, SlotReceiver<T>) {
    let inner = Arc::new(Inner {
        state: AtomicU8::new(EMPTY),
        closed: AtomicBool::new(false),
        value: Mutex::new(None),
        waiter: OnceLock::new(),
    });
    (
        SlotSender {
            inner: inner.clone(),
        },
        SlotReceiver { inner, patience },
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
        // The guard drops at the end of the statement, before FULL is
        // published, so the receiver never waits for the lock.
        *inner.value.lock().expect(UNPOISONED) = Some(v);
        match inner.state.swap(FULL, Ordering::SeqCst) {
            EMPTY => Ok(()),
            WAITING => {
                // The consumer set `waiter` before it published WAITING;
                // our swap observed WAITING, so the handle is visible.
                inner
                    .waiter
                    .get()
                    .expect("WAITING state without a registered consumer")
                    .unpark();
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
            if let Some(t) = inner.waiter.get() {
                t.unpark();
            }
        }
    }
}

impl<T: Send> SlotReceiver<T> {
    /// Take the next value, yielding up to the slot's patience and then
    /// parking until the producer fills the slot. Returns [`Closed`]
    /// once the producer has dropped and any final value has been
    /// drained.
    pub fn recv(&mut self) -> Result<T, Closed> {
        // Phase 1: yield — stay runnable (the sender never pays an
        // unpark) while letting whoever produces the value run.
        for _ in 0..self.patience {
            if self.inner.state.load(Ordering::Acquire) == FULL {
                return Ok(self.take());
            }
            if self.inner.closed.load(Ordering::SeqCst) {
                break;
            }
            std::thread::yield_now();
        }
        // Phase 2: park until the sender (or a close) wakes us.
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
                // A value (or close) arrived between the check and the
                // CAS; re-run it.
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

    /// Register the consumer thread handle (once; see module contract).
    fn register(&self) {
        let waiter = self.inner.waiter.get_or_init(std::thread::current);
        debug_assert_eq!(
            waiter.id(),
            std::thread::current().id(),
            "SlotReceiver migrated threads between recv() calls"
        );
    }

    fn take(&self) -> T {
        // state == FULL: the producer filled the cell before the
        // Acquire/SeqCst load that observed it. The guard drops before
        // EMPTY is published, so the next send never waits for it.
        let v = self.inner.value.lock().expect(UNPOISONED).take();
        self.inner.state.store(EMPTY, Ordering::Release);
        v.expect("a FULL slot holds a value")
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
        let (tx, mut rx) = slot::<u64>(4);
        tx.send(7).unwrap();
        assert_eq!(rx.recv(), Ok(7));
    }

    #[test]
    fn ping_pong_across_threads() {
        let (req_tx, mut req_rx) = slot::<u64>(4);
        let (rep_tx, mut rep_rx) = slot::<u64>(4);
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
        let (tx, mut rx) = slot::<u64>(4);
        let h = std::thread::spawn(move || rx.recv());
        // Give the receiver time to yield out and park.
        std::thread::sleep(std::time::Duration::from_millis(20));
        tx.send(42).unwrap();
        assert_eq!(h.join().unwrap(), Ok(42));
    }

    #[test]
    fn sender_drop_wakes_and_closes() {
        let (tx, mut rx) = slot::<u64>(4);
        let h = std::thread::spawn(move || rx.recv());
        std::thread::sleep(std::time::Duration::from_millis(20));
        drop(tx);
        assert_eq!(h.join().unwrap(), Err(Closed));
    }

    #[test]
    fn value_sent_before_close_is_drained() {
        let (tx, mut rx) = slot::<String>(4);
        tx.send("exit".to_string()).unwrap();
        drop(tx);
        assert_eq!(rx.recv(), Ok("exit".to_string()));
        assert_eq!(rx.recv(), Err(Closed));
    }

    #[test]
    fn send_after_receiver_drop_errors() {
        let (tx, rx) = slot::<u64>(4);
        drop(rx);
        assert_eq!(tx.send(1), Err(Closed));
    }

    #[test]
    fn unreceived_value_is_dropped_with_slot() {
        let v = std::sync::Arc::new(());
        let (tx, rx) = slot::<std::sync::Arc<()>>(4);
        tx.send(v.clone()).unwrap();
        drop(tx);
        drop(rx);
        assert_eq!(std::sync::Arc::strong_count(&v), 1, "value leaked");
    }
}
