//! # lr-lease — the Lease/Release mechanism
//!
//! This crate implements the paper's primary contribution: per-core
//! *lease tables* with the exact semantics of Algorithm 1 (single-location
//! leases) and Algorithm 2 (MultiLease/MultiRelease), the software
//! MultiLease emulation of Section 4, and the lease-based *cheap snapshot*
//! primitive of Section 5.
//!
//! ## Semantics recap (Sections 3–5)
//!
//! * `Lease(addr, time)` creates a lease-table entry for `addr`'s cache
//!   line and requests the line in Exclusive state. The countdown starts
//!   only when ownership is granted, runs for
//!   `min(time, MAX_LEASE_TIME)` cycles, and a lease on an already-leased
//!   line does **not** extend it (footnote 1 of the paper).
//! * If the table already holds `MAX_NUM_LEASES` entries, the *oldest*
//!   lease (FIFO) is released automatically.
//! * Incoming coherence probes on a leased line are queued at the core —
//!   at most one per line (Proposition 1) — until `Release` (voluntary)
//!   or counter expiry (involuntary).
//! * `MultiLease(num, time, addrs...)` first releases all held leases,
//!   is ignored if it would exceed `MAX_NUM_LEASES`, and acquires the
//!   lines in a fixed global (address) order; the counters start jointly
//!   when the last line is granted. Releasing any member releases the
//!   whole group.
//!
//! The table ([`LeaseTable`]) is pure bookkeeping. The controller
//! ([`LeaseController`]) runs Algorithms 1 and 2 over one table per core:
//! it answers the coherence engine's lease hooks (`lr-coherence`), the
//! lease-counter expiries and the lease instructions, counts how every
//! lease ends, and hands back the lines it released, the lines to pin
//! and the expiries to arm. The embedder (`lr-machine`) only applies
//! those effects; the engine queues and resumes the probes.

#![forbid(unsafe_code)]

pub mod controller;
pub mod predictor;
pub mod snapshot;
pub mod software;
pub mod table;

pub use controller::LeaseController;
pub use predictor::{AdaptiveLease, LeasePredictor};
pub use snapshot::{snapshot, LeaseOps};
pub use software::software_multilease_schedule;
pub use table::{ArmedCounter, LeaseState, LeaseTable};
