//! Worker ⇄ engine lockstep protocol types.

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

/// A simulated instruction as a worker hands it to the engine: the one
/// instruction set ([`lr_sim_core::tracefmt::Op`]) with a MultiLease
/// group in an [`AddrVec`].
pub type Op = lr_sim_core::tracefmt::Op<AddrVec>;

// One op rides each worker → engine handoff.
const _: () = assert!(std::mem::size_of::<Op>() <= 80);

/// Worker → engine message. It names no core: the engine asked
/// [`OpSource::next`](crate::OpSource::next) for one core's request.
#[derive(Debug)]
pub struct Request {
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
