//! # lr-sync
//!
//! Locks and backoff primitives on simulated memory, with lease-guarded
//! variants (paper §6, "Leases for TryLocks") and software delegation
//! locks (MCS/CLH/flat-combining/CCSynch, [`dlock`]) — the modern
//! competitors the `lock_showdown` scenario pits against lease/release.

#![forbid(unsafe_code)]

pub mod backoff;
pub mod clh;
pub mod dlock;
pub mod lock;
pub mod ticket;

pub use backoff::Backoff;
pub use clh::ClhLock;
pub use dlock::{CsApply, Dlock, DlockAlgo, DlockHandle, DLOCK_ALGOS};
pub use lock::{LeasedLock, SpinLock, TryLock};
pub use ticket::TicketLock;
