//! The worker-side simulated-instruction API.

use crate::proto::{AddrVec, Op, Reply, Request};
use crate::rendezvous::{SlotReceiver, SlotSender};
use lr_lease::LeaseOps;
use lr_sim_core::{Addr, Cycle, LeaseConfig, SplitMix64};

/// Per-thread handle to the simulated machine.
///
/// Every method is a *simulated instruction*: it advances this thread's
/// simulated clock and may block (in simulated time) on the coherence
/// protocol. Workload code calls these instead of real loads/stores.
pub struct ThreadCtx {
    tid: usize,
    time: Cycle,
    inst_cost: Cycle,
    lease_cfg: LeaseConfig,
    req: SlotSender<Request>,
    reply: SlotReceiver<Reply>,
    rng: SplitMix64,
    instructions: u64,
    ops: u64,
    /// The run records a trace, so barrier crossings send a marker.
    marks_barriers: bool,
}

impl ThreadCtx {
    pub(crate) fn new(
        tid: usize,
        inst_cost: Cycle,
        lease_cfg: LeaseConfig,
        seed: u64,
        req: SlotSender<Request>,
        reply: SlotReceiver<Reply>,
        marks_barriers: bool,
    ) -> Self {
        ThreadCtx {
            tid,
            time: 0,
            inst_cost,
            lease_cfg,
            req,
            reply,
            rng: SplitMix64::new(seed ^ (tid as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)),
            instructions: 0,
            ops: 0,
            marks_barriers,
        }
    }

    /// This thread's id (== its core id).
    pub fn tid(&self) -> usize {
        self.tid
    }

    /// Current simulated time at this core, cycles.
    pub fn now(&self) -> Cycle {
        self.time
    }

    /// The system-wide `MAX_LEASE_TIME` bound.
    pub fn max_lease_time(&self) -> Cycle {
        self.lease_cfg.max_lease_time
    }

    /// Deterministic per-thread RNG for workload decisions.
    pub fn rng(&mut self) -> &mut SplitMix64 {
        &mut self.rng
    }

    /// Report one completed application-level operation (throughput unit).
    pub fn count_op(&mut self) {
        self.ops += 1;
    }

    /// Local computation for `cycles` cycles (no memory traffic).
    pub fn work(&mut self, cycles: Cycle) {
        self.time += cycles;
        self.instructions += cycles;
    }

    /// One request/reply round trip with the engine.
    fn round_trip(&mut self, at: Cycle, op: Op) -> Reply {
        let tid = self.tid;
        self.req
            .send(Request { at, op })
            .unwrap_or_else(|_| panic!("core {tid}: engine terminated before accepting an op"));
        self.reply
            .recv()
            .unwrap_or_else(|_| panic!("core {tid}: engine terminated without completing an op"))
    }

    fn issue(&mut self, op: Op) -> Reply {
        self.time += self.inst_cost;
        self.instructions += 1;
        let r = self.round_trip(self.time, op);
        debug_assert!(r.time >= self.time);
        self.time = r.time;
        r
    }

    /// Mark a barrier crossing in the trace of a recorded run: the
    /// recorder at the engine's input appends a `Barrier` record and
    /// acknowledges at once. The marker schedules no event, counts no
    /// instruction and moves no clock; unrecorded runs send nothing. The replayer skips markers;
    /// tools use them to delimit phases.
    pub(crate) fn note_barrier(&mut self) {
        if self.marks_barriers {
            self.round_trip(self.time, Op::Barrier);
        }
    }

    /// 64-bit load.
    pub fn read(&mut self, addr: Addr) -> u64 {
        self.issue(Op::Read(addr)).value
    }

    /// 64-bit store.
    pub fn write(&mut self, addr: Addr, value: u64) {
        self.issue(Op::Write(addr, value));
    }

    /// Compare-and-swap; true on success.
    pub fn cas(&mut self, addr: Addr, expected: u64, new: u64) -> bool {
        self.issue(Op::Cas {
            addr,
            expected,
            new,
        })
        .flag
    }

    /// Compare-and-swap returning `(success, observed old value)`.
    pub fn cas_val(&mut self, addr: Addr, expected: u64, new: u64) -> (bool, u64) {
        let r = self.issue(Op::Cas {
            addr,
            expected,
            new,
        });
        (r.flag, r.value)
    }

    /// Fetch-and-add, returning the old value.
    pub fn faa(&mut self, addr: Addr, delta: u64) -> u64 {
        self.issue(Op::Faa { addr, delta }).value
    }

    /// Atomic exchange, returning the old value.
    pub fn xchg(&mut self, addr: Addr, value: u64) -> u64 {
        self.issue(Op::Xchg { addr, value }).value
    }

    /// `Lease(addr, time)` — lease the cache line containing `addr` for
    /// `min(time, MAX_LEASE_TIME)` cycles (Algorithm 1). Blocks until the
    /// line is owned exclusively.
    pub fn lease(&mut self, addr: Addr, time: Cycle) {
        self.issue(Op::Lease { addr, time });
    }

    /// Lease for the maximum allowed interval.
    pub fn lease_max(&mut self, addr: Addr) {
        self.lease(addr, self.lease_cfg.max_lease_time);
    }

    /// `Release(addr)`; returns true iff the release was voluntary.
    pub fn release(&mut self, addr: Addr) -> bool {
        self.issue(Op::Release { addr }).flag
    }

    /// Hardware `MultiLease` (Algorithm 2): jointly lease the lines of
    /// `addrs`, acquiring them in the fixed global order. Returns false
    /// if the group was rejected (`MAX_NUM_LEASES` exceeded).
    pub fn multi_lease(&mut self, addrs: &[Addr], time: Cycle) -> bool {
        self.issue(Op::MultiLease {
            addrs: AddrVec::from_slice(addrs),
            time,
        })
        .flag
    }

    /// `ReleaseAll()`: drop every lease this core holds.
    pub fn release_all(&mut self) {
        self.issue(Op::ReleaseAll);
    }

    /// *Software* MultiLease emulation (Section 4): single-location
    /// leases taken in sorted order with staggered timeouts
    /// `time + j·X`. Joint holding is *not* guaranteed.
    pub fn software_multi_lease(&mut self, addrs: &[Addr], time: Cycle) {
        let x = self.lease_cfg.software_multilease_x;
        for (a, dur) in lr_lease::software_multilease_schedule(addrs, time, x) {
            self.lease(a, dur);
        }
    }

    /// Release the software-MultiLease group (every address individually).
    pub fn software_release_all(&mut self, addrs: &[Addr]) {
        for &a in addrs {
            self.release(a);
        }
    }

    /// Allocate simulated heap memory.
    pub fn malloc(&mut self, size: u64, align: u64) -> Addr {
        Addr(self.issue(Op::Malloc { size, align }).value)
    }

    /// Allocate cache-line-aligned memory (lease-safe: never shares a
    /// line with another allocation).
    pub fn malloc_line(&mut self, size: u64) -> Addr {
        self.malloc(size, lr_sim_core::LINE_SIZE)
    }

    /// Free simulated heap memory.
    pub fn free(&mut self, addr: Addr) {
        self.issue(Op::Free(addr));
    }

    /// Lease-based snapshot (Section 5): returns a consistent view of
    /// `addrs` or `None` if any lease expired involuntarily.
    pub fn snapshot(&mut self, addrs: &[Addr], time: Cycle) -> Option<Vec<u64>> {
        lr_lease::snapshot(self, addrs, time)
    }

    /// Tell the engine the closure finished. A closure that panics
    /// never gets here: its slots drop as it unwinds, and the engine
    /// reports the hang-up.
    pub(crate) fn send_exit(&mut self) {
        let _ = self.req.send(Request {
            at: self.time,
            op: Op::Exit {
                instructions: self.instructions,
                ops: self.ops,
            },
        });
    }
}

impl LeaseOps for ThreadCtx {
    fn lease(&mut self, addr: Addr, time: Cycle) {
        ThreadCtx::lease(self, addr, time);
    }
    fn release(&mut self, addr: Addr) -> bool {
        ThreadCtx::release(self, addr)
    }
    fn read(&mut self, addr: Addr) -> u64 {
        ThreadCtx::read(self, addr)
    }
}
