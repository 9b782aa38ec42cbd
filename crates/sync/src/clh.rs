//! CLH queue lock (Craig; Magnusson–Landin–Hagersten), the classic
//! queue-lock baseline of the paper's counter benchmark. Each waiter
//! spins on its predecessor's node, so waiting costs no global traffic.

use crate::SPIN_WORK;
use lr_machine::ThreadCtx;
use lr_sim_core::Addr;
use lr_sim_mem::SimMemory;

/// The shared part of a CLH lock: the tail pointer.
#[derive(Debug, Clone, Copy)]
pub struct ClhLock {
    tail: Addr,
}

/// Per-thread CLH state (the thread's queue node, recycled across
/// acquisitions in the standard CLH fashion).
#[derive(Debug, Clone, Copy)]
pub struct ClhHandle {
    node: Addr,
    pred: Addr,
}

impl ClhHandle {
    /// A handle that enqueues with `node`, a word on a line this thread
    /// owns — for callers that pre-allocate their queue nodes.
    pub fn with_node(node: Addr) -> Self {
        ClhHandle {
            node,
            pred: Addr::NULL,
        }
    }

    /// The node the next acquisition enqueues with: after an unlock,
    /// the predecessor's node, recycled.
    pub fn node(&self) -> Addr {
        self.node
    }
}

impl ClhLock {
    /// Allocate the lock with an initial unlocked dummy node.
    pub fn init(mem: &mut SimMemory) -> Self {
        let dummy = mem.alloc_line_aligned(8); // locked = 0
        let tail = mem.alloc_line_aligned(8);
        mem.write_word(tail, dummy.0);
        ClhLock { tail }
    }

    /// Wrap an existing tail word, which must point at an unlocked
    /// (zero) node.
    pub fn at(tail: Addr) -> Self {
        ClhLock { tail }
    }

    /// Create this thread's handle (allocates its queue node).
    pub fn handle(&self, ctx: &mut ThreadCtx) -> ClhHandle {
        ClhHandle::with_node(ctx.malloc_line(8))
    }

    /// Acquire the lock.
    pub fn lock(&self, ctx: &mut ThreadCtx, h: &mut ClhHandle) {
        ctx.write(h.node, 1);
        let pred = Addr(ctx.xchg(self.tail, h.node.0));
        h.pred = pred;
        while ctx.read(pred) != 0 {
            ctx.work(SPIN_WORK);
        }
    }

    /// Release the lock; the handle recycles its predecessor's node.
    pub fn unlock(&self, ctx: &mut ThreadCtx, h: &mut ClhHandle) {
        ctx.write(h.node, 0);
        h.node = h.pred;
        h.pred = Addr::NULL;
    }
}
