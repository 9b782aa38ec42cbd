//! # lr-machine
//!
//! The full-system simulated multicore: tiles (core + L1 + lease table +
//! L2 slice/directory), the deterministic lockstep thread runtime, and the
//! [`ThreadCtx`] simulated-instruction API that workloads program against.
//!
//! ## Execution model
//!
//! Workloads are ordinary Rust closures running on real OS threads, but in
//! strict lockstep with the discrete-event engine: exactly one entity
//! (engine or one worker) runs at any moment, so every simulation is
//! deterministic — same seed, same statistics, bit for bit.
//!
//! Each `ThreadCtx` call is a *simulated instruction*: it advances the
//! thread's local clock by the instruction cost and, for memory
//! operations, round-trips through the coherence protocol of
//! `lr-coherence`, including lease-table consultation per the paper's
//! Algorithms 1 and 2. Data values are read/written at the simulated
//! completion instant, so CAS failures, lock contention, and lease
//! expiries all emerge from simulated interleavings.
//!
//! ## Divergences from real hardware (documented in DESIGN.md)
//!
//! * `lease` blocks until Exclusive ownership is granted (the hardware
//!   proposal is prefetch-like). The canonical `Lease(a); load a` pattern
//!   has identical timing.
//! * Cores are blocking and in-order (as in the paper's Graphite setup),
//!   with one outstanding miss.

mod barrier;
mod ctx;
mod machine;
mod proto;
pub mod rendezvous;

pub use barrier::SimBarrier;
pub use ctx::ThreadCtx;
pub use machine::{EngineInfo, Machine, OpSource, RecordedRun, SourceAbort, ThreadFn, TraceOutput};
pub use proto::{AddrVec, Op, Reply, Request};

pub use lr_sim_core::{Addr, CoreId, Cycle, LineAddr, MachineStats, SystemConfig};
