//! A sense-reversing barrier on simulated memory.
//!
//! Used by iterative applications (Pagerank) exactly like a pthread
//! barrier would be in the paper's CRONO workloads. Spin-waiters hold the
//! sense word in Shared state and burn no coherence traffic until the
//! last arriver's store invalidates them.

use crate::ctx::ThreadCtx;
use lr_sim_core::Addr;
use lr_sim_mem::SimMemory;

/// Per-thread handle to a shared barrier.
///
/// Each participating thread gets its own copy (it tracks the thread's
/// local sense), all created from the same [`SimBarrier::init`] result.
#[derive(Debug, Clone, Copy)]
pub struct SimBarrier {
    count: Addr,
    sense: Addr,
    n: u64,
    local_sense: bool,
}

impl SimBarrier {
    /// Allocate a barrier for `n` threads in simulated memory. The two
    /// words live on distinct cache lines (false-sharing safety).
    pub fn init(mem: &mut SimMemory, n: usize) -> Self {
        assert!(n >= 1);
        let count = mem.alloc_line_aligned(8);
        let sense = mem.alloc_line_aligned(8);
        SimBarrier {
            count,
            sense,
            n: n as u64,
            local_sense: false,
        }
    }

    /// Block (in simulated time) until all `n` threads have arrived.
    pub fn wait(&mut self, ctx: &mut ThreadCtx) {
        ctx.note_barrier();
        let my = !self.local_sense;
        self.local_sense = my;
        let arrived = ctx.faa(self.count, 1);
        if arrived == self.n - 1 {
            ctx.write(self.count, 0);
            ctx.write(self.sense, my as u64);
        } else {
            while ctx.read(self.sense) != my as u64 {
                // Spin locally on the Shared copy; re-probe after a pause.
                ctx.work(20);
            }
        }
    }
}
