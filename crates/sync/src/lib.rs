//! # lr-sync
//!
//! Locks and backoff primitives on simulated memory, with lease-guarded
//! variants (paper §6, "Leases for TryLocks") and software delegation
//! locks (MCS/CLH/flat-combining/CCSynch, [`dlock`]) — the modern
//! competitors the `lock_showdown` scenario pits against lease/release.
//! Each algorithm has one implementation: the delegation locks' CLH is
//! [`ClhLock`], and [`fc_call`] is the flat-combining call that both
//! [`Dlock`] and `lr-ds`'s node replication make, over a [`SpinLock`]
//! or [`LeasedLock`] combiner word.

#![forbid(unsafe_code)]

pub mod backoff;
pub mod clh;
pub mod dlock;
pub mod lock;
pub mod ticket;

pub use backoff::Backoff;
pub use clh::{ClhHandle, ClhLock};
pub use dlock::{
    fc_call, fc_respond, fc_scan, CsApply, Dlock, DlockAlgo, DlockHandle, DLOCK_ALGOS,
    FC_RECORD_BYTES,
};
pub use lock::{LeasedLock, SpinLock, TryLock};
pub use ticket::TicketLock;

/// Local spin cost between re-reads of a queue node, publication
/// record or log entry while waiting (cycles): the CLH baseline's
/// cadence, shared by every delegation lock and node replication.
pub const SPIN_WORK: lr_sim_core::Cycle = 48;
