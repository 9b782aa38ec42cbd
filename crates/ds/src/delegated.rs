//! A delegation-guarded data structure: a sequential array stack whose
//! every operation runs under a [`Dlock`] critical section, published as
//! an `(op, arg)` pair so a combiner (flat combining / CCSynch) can
//! execute it on the owner's behalf.
//!
//! The stack is deliberately *sequential* under the lock, because that
//! is the regime delegation is built for: one thread with the
//! structure's lines hot in its cache applies a whole batch of
//! operations, versus every thread dragging the lines across the NoC
//! for a single operation. The `lock_showdown` scenario sweeps it
//! against the paper's TTS and leased locks.
//!
//! Everything (lock pools and the structure's storage) is pre-allocated
//! at machine setup, so steady-state operation performs **zero**
//! simulated allocator messages — see the `dlock` module docs for why
//! that matters in this simulator.

use lr_machine::ThreadCtx;
use lr_sim_core::Addr;
use lr_sim_mem::SimMemory;
use lr_sync::{CsApply, Dlock, DlockAlgo, DlockHandle};

/// Stack operation codes published through the lock.
pub const STACK_PUSH: u64 = 0;
pub const STACK_POP: u64 = 1;

/// `pop` response when the stack was empty (no slot value is ever this).
pub const STACK_EMPTY: u64 = u64::MAX;

/// The sequential array stack a [`DelegatedStack`]'s critical sections
/// interpret: a top-of-stack counter plus a fixed slot array. `Copy` so
/// any combiner can apply any thread's published operation.
#[derive(Debug, Clone, Copy)]
pub struct StackApply {
    top: Addr,
    slots: Addr,
    cap: u64,
}

impl StackApply {
    /// Allocate the bare sequential stack (top word + slot array)
    /// without any lock — for callers pairing it with their own
    /// [`lr_sync::TryLock`] baseline (the `lock_showdown` TTS series).
    pub fn init(mem: &mut SimMemory, cap: u64) -> Self {
        let top = mem.alloc_line_aligned(8);
        let slots = mem.alloc_line_aligned(cap.max(1) * 8);
        StackApply { top, slots, cap }
    }

    /// Host-side read of the current depth.
    pub fn depth(&self, mem: &SimMemory) -> u64 {
        mem.read_word(self.top)
    }
}

impl CsApply for StackApply {
    fn apply(&self, ctx: &mut ThreadCtx, op: u64, arg: u64) -> u64 {
        if op == STACK_PUSH {
            let t = ctx.read(self.top);
            if t >= self.cap {
                return 0; // full — rejected
            }
            ctx.write(self.slots.offset(t * 8), arg);
            ctx.write(self.top, t + 1);
            1
        } else {
            let t = ctx.read(self.top);
            if t == 0 {
                return STACK_EMPTY;
            }
            let v = ctx.read(self.slots.offset((t - 1) * 8));
            ctx.write(self.top, t - 1);
            v
        }
    }
}

/// An array stack guarded by one delegation lock.
#[derive(Debug, Clone)]
pub struct DelegatedStack {
    pub lock: Dlock,
    apply: StackApply,
}

impl DelegatedStack {
    /// Allocate the stack storage and the lock's full per-thread pool at
    /// setup time. `cap` bounds the stack depth (push returns `false`
    /// beyond it); `max_threads` bounds the worker tids.
    pub fn init(mem: &mut SimMemory, algo: DlockAlgo, max_threads: usize, cap: u64) -> Self {
        DelegatedStack {
            lock: Dlock::init(mem, algo, max_threads),
            apply: StackApply::init(mem, cap),
        }
    }

    /// Per-thread handle (host-side; no simulated traffic).
    pub fn handle(&self, tid: usize) -> DlockHandle {
        self.lock.handle(tid)
    }

    /// The interpreter, for callers that drive [`Dlock::run`] directly.
    pub fn apply(&self) -> StackApply {
        self.apply
    }

    /// Push under the lock; `false` if the stack was at capacity.
    pub fn push(&self, ctx: &mut ThreadCtx, h: &mut DlockHandle, v: u64) -> bool {
        self.lock.run(ctx, h, &self.apply, STACK_PUSH, v) == 1
    }

    /// Pop under the lock; `None` when empty.
    pub fn pop(&self, ctx: &mut ThreadCtx, h: &mut DlockHandle) -> Option<u64> {
        match self.lock.run(ctx, h, &self.apply, STACK_POP, 0) {
            STACK_EMPTY => None,
            v => Some(v),
        }
    }

    /// Host-side read of the final depth (post-run consistency checks).
    pub fn depth(&self, mem: &SimMemory) -> u64 {
        mem.read_word(self.apply.top)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lr_machine::{Machine, SystemConfig, ThreadFn};
    use lr_sync::DLOCK_ALGOS;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    #[test]
    fn delegated_stack_conserves_elements() {
        // push;pop pairs: the final depth must equal exactly the number
        // of pops that observed the stack empty, and no push may ever
        // hit capacity (each thread has at most one unpopped element).
        let (threads, per) = (4, 12u64);
        for algo in DLOCK_ALGOS {
            let mut m = Machine::new(SystemConfig::with_cores(threads));
            let s = m.setup(|mem| DelegatedStack::init(mem, algo, threads, threads as u64));
            let empties = Arc::new(AtomicU64::new(0));
            let rejected = Arc::new(AtomicU64::new(0));
            let progs: Vec<ThreadFn> = (0..threads)
                .map(|tid| {
                    let s = s.clone();
                    let (empties, rejected) = (empties.clone(), rejected.clone());
                    Box::new(move |ctx: &mut ThreadCtx| {
                        let mut h = s.handle(tid);
                        let (mut e, mut r) = (0u64, 0u64);
                        for i in 0..per {
                            if !s.push(ctx, &mut h, i + 1) {
                                r += 1;
                            }
                            if s.pop(ctx, &mut h).is_none() {
                                e += 1;
                            }
                        }
                        empties.fetch_add(e, Ordering::Relaxed);
                        rejected.fetch_add(r, Ordering::Relaxed);
                    }) as ThreadFn
                })
                .collect();
            let (_, mem) = m.run_with_memory(progs);
            assert_eq!(
                rejected.load(Ordering::Relaxed),
                0,
                "{}: capacity {threads} must never reject",
                algo.name()
            );
            assert_eq!(
                s.depth(&mem),
                empties.load(Ordering::Relaxed),
                "{}: depth != empty pops",
                algo.name()
            );
        }
    }
}
