//! # lr-perfbench
//!
//! Host-performance benchmark of the Lease/Release simulator. Three
//! workloads stress different layers — the live worker⇄engine handoff
//! (`live_lease_churn`), the engine alone (`replay_contended_stack`)
//! and the 1024-core × 4-socket machine (`numa_serving_1024`). Each
//! run checks its outputs and reports end-to-end metrics; a separate
//! traced run times the calls the benchmark makes into each layer's
//! public API. See `README.md` in this directory.

pub mod bench;
mod layers;
pub mod span;
mod stat;
pub mod workload;

pub use bench::{run, Config, Metric, Report};
pub use workload::{Size, Workload};
