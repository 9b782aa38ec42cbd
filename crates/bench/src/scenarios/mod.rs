//! The scenario registry: every paper figure/table as a declarative
//! [`Scenario`] entry, one module per paper experiment. `lr-bench
//! --scenario <name>` runs one and writes its `BENCH_*.json`.
//!
//! Registry order is canonical output order. [`ScenarioKind::Host`]
//! entries must come last: the sweep driver dispatches sim cells to
//! parallel workers and then runs host (wall-clock) cells serially, and
//! the streaming merge emits strictly in registry order.

use crate::scenario::Scenario;

mod common;

pub mod fig2_stack;
pub mod fig3_counter;
pub mod fig3_pq;
pub mod fig3_queue;
pub mod fig4_multiqueue;
pub mod fig4_tl2;
pub mod fig5_pagerank;
pub mod fig5_tl2_swhw;
pub mod lock_showdown;
pub mod numa_serving;
pub mod tab_adaptive;
pub mod tab_backoff;
pub mod tab_lease_sensitivity;
pub mod tab_low_contention;
pub mod tab_mesi;
pub mod tab_msg_constancy;
pub mod validation_native;

/// All 17 scenarios (15 paper experiments, the delegation-lock
/// showdown and the NUMA serving comparison), in canonical (figure,
/// table, validation) order; the host-measured native validation last.
static REGISTRY: [&Scenario; 17] = [
    &fig2_stack::SCENARIO,
    &fig3_counter::SCENARIO,
    &fig3_queue::SCENARIO,
    &fig3_pq::SCENARIO,
    &fig4_multiqueue::SCENARIO,
    &fig4_tl2::SCENARIO,
    &fig5_tl2_swhw::SCENARIO,
    &fig5_pagerank::SCENARIO,
    &tab_backoff::SCENARIO,
    &tab_low_contention::SCENARIO,
    &tab_msg_constancy::SCENARIO,
    &tab_lease_sensitivity::SCENARIO,
    &tab_mesi::SCENARIO,
    &tab_adaptive::SCENARIO,
    &lock_showdown::SCENARIO,
    &numa_serving::SCENARIO,
    &validation_native::SCENARIO,
];

/// Every registered scenario, in canonical order.
pub fn registry() -> &'static [&'static Scenario] {
    &REGISTRY
}

/// Look a scenario up by its registry name (`fig2_stack`, ...).
pub fn find(name: &str) -> Option<&'static Scenario> {
    REGISTRY.iter().copied().find(|s| s.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioKind;

    #[test]
    fn registry_names_are_unique_and_lookup_works() {
        let mut names: Vec<_> = registry().iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), registry().len(), "duplicate scenario names");
        assert_eq!(find("fig2_stack").unwrap().series.len(), 2);
        assert!(find("nope").is_none());
    }

    #[test]
    fn host_scenarios_come_after_all_sim_scenarios() {
        let first_host = registry()
            .iter()
            .position(|s| s.kind != ScenarioKind::Sim)
            .unwrap_or(registry().len());
        assert!(
            registry()[first_host..]
                .iter()
                .all(|s| s.kind != ScenarioKind::Sim),
            "sim scenario after a host scenario breaks the sweep merge"
        );
    }

    #[test]
    fn every_scenario_has_series_and_ops() {
        for s in registry() {
            assert!(!s.series.is_empty(), "{} has no series", s.name);
            assert!(s.default_ops > 0, "{} has zero default ops", s.name);
        }
    }
}
