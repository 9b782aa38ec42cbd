//! # Lease/Release — reproduction façade
//!
//! Re-exports the public API of every subsystem of the reproduction of
//! *"Lease/Release: Architectural Support for Scaling Contended Data
//! Structures"* (PPoPP 2016).
//!
//! Start with [`machine::Machine`] and the [`machine::ThreadCtx`]
//! simulated-instruction API; see `examples/quickstart.rs`.

#![forbid(unsafe_code)]

pub use lr_apps as apps;
pub use lr_coherence as coherence;
pub use lr_ds as ds;
pub use lr_lease as lease;
pub use lr_machine as machine;
pub use lr_sim_cache as sim_cache;
pub use lr_sim_core as sim_core;
pub use lr_sim_mem as sim_mem;
pub use lr_sim_noc as sim_noc;
pub use lr_stm as stm;
pub use lr_sync as sync;
