//! # lr-sim-core
//!
//! Foundation of the Lease/Release reproduction: shared identifier types,
//! the deterministic discrete-event queue, system configuration (mirroring
//! Table 1 of the paper), and the statistics/energy model.
//!
//! Everything in the simulator is measured in *core cycles* of a 1 GHz
//! in-order core ([`Cycle`]); cache lines are 64 bytes ([`LINE_SIZE`]).

pub mod config;
pub mod event;
pub mod rng;
pub mod shard;
pub mod stats;
pub mod trace;
pub mod tracefmt;
mod wheel;
pub mod zipf;

pub use config::{CoherenceProtocol, EnergyModel, LeaseConfig, SystemConfig};
pub use event::{EventQueue, EventQueueKind};
pub use rng::SplitMix64;
pub use shard::ShardedQueue;
pub use stats::{CoreStats, MachineStats};
pub use trace::{TraceAccess, TraceEvent, TraceRecord, TraceRing, TraceSink};
pub use tracefmt::{config_fingerprint, MachineTrace, MemImage, OpRecord, TraceError, TraceOp};
pub use zipf::Zipf;

/// Simulated time, in core cycles (1 GHz ⇒ 1 cycle = 1 ns).
pub type Cycle = u64;

/// Size of a cache line in bytes (Table 1: 64 B).
pub const LINE_SIZE: u64 = 64;

/// Largest simulated core count. The trace decoder, the machine, the
/// coherence engine and replay all enforce this one bound.
pub const MAX_CORES: usize = 1024;

/// Identifier of a core / tile (cores and tiles are 1:1 in the target
/// system, as in Graphite's tiled-multicore model).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CoreId(pub u16);

impl CoreId {
    /// The core id as a plain index.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for CoreId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "core{}", self.0)
    }
}

/// A simulated byte address.
///
/// Address 0 is the null pointer; the simulated allocator never returns it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Addr(pub u64);

impl Addr {
    /// The null simulated address.
    pub const NULL: Addr = Addr(0);

    /// True if this is the null address.
    #[inline]
    pub fn is_null(self) -> bool {
        self.0 == 0
    }

    /// The cache line containing this address.
    #[inline]
    pub fn line(self) -> LineAddr {
        LineAddr(self.0 / LINE_SIZE)
    }

    /// Byte offset of this address within its cache line.
    #[inline]
    pub fn line_offset(self) -> u64 {
        self.0 % LINE_SIZE
    }

    /// This address displaced by `bytes`.
    #[inline]
    pub fn offset(self, bytes: u64) -> Addr {
        Addr(self.0 + bytes)
    }
}

impl std::fmt::Display for Addr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

/// A cache-line-granular address (byte address divided by [`LINE_SIZE`]).
///
/// Coherence — and therefore leasing — operates at this granularity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LineAddr(pub u64);

impl LineAddr {
    /// Byte address of the first byte of the line.
    #[inline]
    pub fn base(self) -> Addr {
        Addr(self.0 * LINE_SIZE)
    }
}

impl std::fmt::Display for LineAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line{:#x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_line_mapping() {
        assert_eq!(Addr(0).line(), LineAddr(0));
        assert_eq!(Addr(63).line(), LineAddr(0));
        assert_eq!(Addr(64).line(), LineAddr(1));
        assert_eq!(Addr(130).line(), LineAddr(2));
        assert_eq!(Addr(130).line_offset(), 2);
        assert_eq!(LineAddr(2).base(), Addr(128));
    }

    #[test]
    fn addr_null_and_offset() {
        assert!(Addr::NULL.is_null());
        assert!(!Addr(8).is_null());
        assert_eq!(Addr(8).offset(16), Addr(24));
    }

    #[test]
    fn core_id_display() {
        assert_eq!(CoreId(3).to_string(), "core3");
        assert_eq!(CoreId(3).idx(), 3);
    }
}
