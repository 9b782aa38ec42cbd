//! # lr-bench
//!
//! The experiment layer: a declarative [`Scenario`] registry covering
//! every figure/table of the paper's evaluation, an instance-based
//! [`Report`] sink (aligned table + `CSV,` lines + atomic
//! `BENCH_*.json` files), and a parallel deterministic sweep driver.
//!
//! Two ways in:
//!
//! * the `lr-bench` binary (`cargo run -p lr-bench --bin lr-bench --
//!   --list`) — filters, `--jobs N` parallelism, `--smoke`;
//! * the library API ([`build_plan`] + [`run`]) used by the tests.

#![forbid(unsafe_code)]

pub mod harness;
pub mod report;
pub mod scenario;
pub mod scenarios;
pub mod sweep;

pub use harness::{threads_sweep, BenchRow};
pub use report::{JsonPolicy, Report};
pub use scenario::{CellCtx, CellOut, RecordTo, Scenario};
pub use scenarios::{find, registry};
pub use sweep::{build_plan, clamp_jobs, default_jobs, run, Plan, PlanOpts};
