//! Worker ⇄ engine lockstep protocol types.

use lr_sim_core::tracefmt::TraceOp;
use lr_sim_core::{Addr, Cycle};

/// Inline capacity of [`AddrVec`]: covers the default
/// `MAX_NUM_LEASES = 8` group size without touching the heap.
pub const ADDRVEC_INLINE: usize = 8;

/// Small-vector of addresses carried by value through the worker ⇄
/// engine rendezvous. MultiLease groups up to `ADDRVEC_INLINE` lines
/// travel inline (no heap allocation per call); larger groups — only
/// possible with a raised `max_num_leases` — fall back to a `Vec`.
#[derive(Debug, Clone)]
pub enum AddrVec {
    Inline {
        len: u8,
        buf: [Addr; ADDRVEC_INLINE],
    },
    Heap(Vec<Addr>),
}

impl AddrVec {
    pub fn from_slice(addrs: &[Addr]) -> Self {
        if addrs.len() <= ADDRVEC_INLINE {
            let mut buf = [Addr(0); ADDRVEC_INLINE];
            buf[..addrs.len()].copy_from_slice(addrs);
            AddrVec::Inline {
                len: addrs.len() as u8,
                buf,
            }
        } else {
            AddrVec::Heap(addrs.to_vec())
        }
    }

    pub fn as_slice(&self) -> &[Addr] {
        match self {
            AddrVec::Inline { len, buf } => &buf[..*len as usize],
            AddrVec::Heap(v) => v,
        }
    }
}

impl std::ops::Deref for AddrVec {
    type Target = [Addr];
    fn deref(&self) -> &[Addr] {
        self.as_slice()
    }
}

/// Cost of a simulated `malloc`/`free` runtime call, cycles (a tuned
/// allocator fast path; Graphite would simulate the allocator's own
/// instructions).
pub const ALLOC_COST: Cycle = 30;

/// A simulated instruction issued by a worker.
#[derive(Debug, Clone)]
pub enum Op {
    /// 64-bit load.
    Read(Addr),
    /// 64-bit store.
    Write(Addr, u64),
    /// Compare-and-swap: `flag` in the reply is the success bit, `value`
    /// the observed old value.
    Cas { addr: Addr, expected: u64, new: u64 },
    /// Fetch-and-add; reply `value` is the old value.
    Faa { addr: Addr, delta: u64 },
    /// Atomic exchange; reply `value` is the old value.
    Xchg { addr: Addr, value: u64 },
    /// `Lease(addr, time)` — Algorithm 1. Blocks until Exclusive
    /// ownership is granted (see crate docs).
    Lease { addr: Addr, time: Cycle },
    /// `Release(addr)` — reply `flag` is true iff the release was
    /// voluntary (a lease was still held).
    Release { addr: Addr },
    /// `MultiLease(num, time, addrs…)` — Algorithm 2. Reply `flag` is
    /// true iff the group was admitted (not over `MAX_NUM_LEASES`).
    MultiLease { addrs: AddrVec, time: Cycle },
    /// `ReleaseAll()`.
    ReleaseAll,
    /// Heap allocation; reply `value` is the address.
    Malloc { size: u64, align: u64 },
    /// Heap free.
    Free(Addr),
    /// A barrier crossing in a recorded run
    /// ([`SimBarrier`](crate::SimBarrier)): the recorder at the
    /// engine's input appends a `Barrier` trace record and acknowledges
    /// at once, so the engine never sees it. It schedules no event,
    /// counts no instruction and moves no clock.
    Barrier,
    /// The worker's closure finished (normally or by panic).
    Exit {
        /// Simulated instructions the worker retired (API calls + work).
        instructions: u64,
        /// Application-level operations the workload reported.
        ops: u64,
        /// Local clock at exit.
        at: Cycle,
        /// True if the closure panicked.
        panicked: bool,
    },
}

impl Op {
    /// Trace-format mirror of this op, as a recording run logs it when
    /// the engine receives the op. Every variant has one; `Exit` carries
    /// its counters.
    pub fn to_trace(&self) -> TraceOp {
        match *self {
            Op::Read(a) => TraceOp::Read(a),
            Op::Write(a, v) => TraceOp::Write(a, v),
            Op::Cas {
                addr,
                expected,
                new,
            } => TraceOp::Cas {
                addr,
                expected,
                new,
            },
            Op::Faa { addr, delta } => TraceOp::Faa { addr, delta },
            Op::Xchg { addr, value } => TraceOp::Xchg { addr, value },
            Op::Lease { addr, time } => TraceOp::Lease { addr, time },
            Op::Release { addr } => TraceOp::Release { addr },
            Op::MultiLease { ref addrs, time } => TraceOp::MultiLease {
                addrs: addrs.as_slice().to_vec(),
                time,
            },
            Op::ReleaseAll => TraceOp::ReleaseAll,
            Op::Malloc { size, align } => TraceOp::Malloc { size, align },
            Op::Free(a) => TraceOp::Free(a),
            Op::Barrier => TraceOp::Barrier,
            Op::Exit {
                instructions, ops, ..
            } => TraceOp::Exit { instructions, ops },
        }
    }

    /// Reconstruct a protocol op from its trace form, for the replayer.
    /// `at` becomes the exit timestamp for `Exit` records. Returns `None`
    /// for `Barrier`: a marker has no effect on the simulation, so the
    /// replayer skips it.
    pub fn from_trace(t: &TraceOp, at: Cycle) -> Option<Op> {
        Some(match *t {
            TraceOp::Read(a) => Op::Read(a),
            TraceOp::Write(a, v) => Op::Write(a, v),
            TraceOp::Cas {
                addr,
                expected,
                new,
            } => Op::Cas {
                addr,
                expected,
                new,
            },
            TraceOp::Faa { addr, delta } => Op::Faa { addr, delta },
            TraceOp::Xchg { addr, value } => Op::Xchg { addr, value },
            TraceOp::Lease { addr, time } => Op::Lease { addr, time },
            TraceOp::Release { addr } => Op::Release { addr },
            TraceOp::MultiLease { ref addrs, time } => Op::MultiLease {
                addrs: AddrVec::from_slice(addrs),
                time,
            },
            TraceOp::ReleaseAll => Op::ReleaseAll,
            TraceOp::Malloc { size, align } => Op::Malloc { size, align },
            TraceOp::Free(a) => Op::Free(a),
            TraceOp::Exit { instructions, ops } => Op::Exit {
                instructions,
                ops,
                at,
                panicked: false,
            },
            TraceOp::Barrier => return None,
        })
    }
}

/// Worker → engine message.
#[derive(Debug)]
pub struct Request {
    /// Issuing worker (== core id).
    pub tid: usize,
    /// Worker-local simulated time at which the instruction issues.
    pub at: Cycle,
    /// The instruction.
    pub op: Op,
}

/// Engine → worker completion.
#[derive(Debug, Clone, Copy)]
pub struct Reply {
    /// Simulated completion time; becomes the worker's local clock.
    pub time: Cycle,
    /// Operation result value (load data, CAS old value, malloc address).
    pub value: u64,
    /// Operation result flag (CAS success, voluntary release, admission).
    pub flag: bool,
}
