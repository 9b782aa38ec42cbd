//! # lr-apps
//!
//! Application workloads of the paper's evaluation:
//!
//! * [`counter`] — the contended lock-based counter of Figure 3, with
//!   TTS, TTS+lease, ticket-with-linear-backoff, and CLH lock variants;
//! * [`pagerank`] — the CRONO-style lock-based Pagerank of Figure 5,
//!   where the dangling ("inaccessible") pages' mass is accumulated
//!   under one contended lock;
//! * [`graph`] — the synthetic power-law web-graph generator feeding
//!   Pagerank.

#![forbid(unsafe_code)]

pub mod counter;
pub mod graph;
pub mod pagerank;

pub use counter::{CounterBench, CounterLockKind};
pub use graph::Graph;
pub use pagerank::{Pagerank, PagerankVariant, SCALE};
