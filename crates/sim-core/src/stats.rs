//! Simulation statistics.
//!
//! The paper reports throughput (operations/second), energy per operation,
//! coherence messages per operation, and cache misses per operation.
//! [`CoreStats`] collects per-core counters; [`MachineStats`] aggregates
//! them with protocol-global counters and evaluates the energy model.

use crate::config::EnergyModel;
use crate::Cycle;

/// Per-core event counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CoreStats {
    /// Simulated instructions retired (every `ThreadCtx` call charges ≥ 1).
    pub instructions: u64,
    /// L1 accesses that hit with sufficient coherence permission.
    pub l1_hits: u64,
    /// L1 accesses that required a coherence transaction.
    pub l1_misses: u64,
    /// Lines evicted from this L1.
    pub l1_evictions: u64,
    /// Dirty evictions (writebacks) from this L1.
    pub l1_writebacks: u64,
    /// Plain loads issued.
    pub loads: u64,
    /// Plain stores issued.
    pub stores: u64,
    /// Compare-and-swap instructions issued.
    pub cas_attempts: u64,
    /// Compare-and-swap instructions whose comparison failed.
    pub cas_failures: u64,
    /// Other read-modify-write instructions (fetch-add, exchange).
    pub rmw_ops: u64,
    /// Cycles this core's thread spent stalled on memory.
    pub mem_stall_cycles: Cycle,
    /// Lease instructions that created a lease-table entry.
    pub leases_taken: u64,
    /// Leases ended by an explicit `Release` (voluntary, Section 3).
    pub releases_voluntary: u64,
    /// Leases ended by counter expiry (involuntary, Section 3).
    pub releases_involuntary: u64,
    /// Leases ended early because `MAX_NUM_LEASES` forced FIFO
    /// replacement of the oldest lease (Algorithm 1, lines 6–8).
    pub lease_overflows: u64,
    /// Leases broken early by a prioritized "regular" request (Section 5).
    pub leases_broken_by_priority: u64,
    /// Hardware MultiLease group acquisitions.
    pub multileases: u64,
    /// Coherence probes delivered to this core.
    pub probes_received: u64,
    /// Probes that found a valid lease and were queued.
    pub probes_queued: u64,
    /// Total cycles probes spent queued behind leases at this core.
    pub probe_queued_cycles: Cycle,
}

impl CoreStats {
    /// Merge another core's counters into this one.
    pub fn merge(&mut self, o: &CoreStats) {
        self.instructions += o.instructions;
        self.l1_hits += o.l1_hits;
        self.l1_misses += o.l1_misses;
        self.l1_evictions += o.l1_evictions;
        self.l1_writebacks += o.l1_writebacks;
        self.loads += o.loads;
        self.stores += o.stores;
        self.cas_attempts += o.cas_attempts;
        self.cas_failures += o.cas_failures;
        self.rmw_ops += o.rmw_ops;
        self.mem_stall_cycles += o.mem_stall_cycles;
        self.leases_taken += o.leases_taken;
        self.releases_voluntary += o.releases_voluntary;
        self.releases_involuntary += o.releases_involuntary;
        self.lease_overflows += o.lease_overflows;
        self.leases_broken_by_priority += o.leases_broken_by_priority;
        self.multileases += o.multileases;
        self.probes_received += o.probes_received;
        self.probes_queued += o.probes_queued;
        self.probe_queued_cycles += o.probe_queued_cycles;
    }
}

// Stats cross thread boundaries in the parallel sweep driver (a worker
// runs a cell's machine to completion and hands the stats to the merge
// thread); keep them Send + Sync by construction.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<MachineStats>();
    assert_send_sync::<CoreStats>();
};

/// Whole-machine statistics: per-core counters plus protocol globals.
#[derive(Debug, Clone, Default)]
pub struct MachineStats {
    /// Per-core counters, indexed by core id.
    pub cores: Vec<CoreStats>,
    /// Simulated cycle at which the workload finished.
    pub total_cycles: Cycle,
    /// Directory requests processed (GetS + GetX + upgrades).
    pub dir_requests: u64,
    /// L2 slice accesses that hit.
    pub l2_hits: u64,
    /// L2 slice accesses that missed to DRAM.
    pub l2_misses: u64,
    /// Invalidation probes sent to sharers.
    pub invalidations: u64,
    /// Downgrade/forward probes sent to exclusive owners.
    pub owner_probes: u64,
    /// Control (data-less) coherence messages.
    pub msgs_control: u64,
    /// Data-carrying coherence messages.
    pub msgs_data: u64,
    /// Total flit-hops traversed on the mesh.
    pub flit_hops: u64,
    /// Coherence messages that crossed an inter-socket link (both
    /// classes). Always 0 on a single-socket machine.
    pub cross_socket_msgs: u64,
    /// Total flits that traversed inter-socket links (the off-package
    /// energy-model quantity). Always 0 on a single-socket machine.
    pub socket_flit_hops: u64,
    /// Total cycles requests spent waiting in directory FIFO queues.
    pub dir_queue_wait_cycles: Cycle,
    /// Maximum occupancy observed in any per-line directory queue.
    pub max_dir_queue_len: usize,
    /// Application-level completed operations (set by workloads).
    pub app_ops: u64,
}

impl MachineStats {
    /// New stats block for `num_cores` cores.
    pub fn new(num_cores: usize) -> Self {
        MachineStats {
            cores: vec![CoreStats::default(); num_cores],
            ..MachineStats::default()
        }
    }

    /// Merge another machine-level stats block into this one: scalar
    /// counters add, `max_dir_queue_len` takes the max, and per-core
    /// counters merge index-wise (an empty `cores` vec on either side
    /// contributes nothing). Every counter update is commutative and
    /// associative over `u64`/`max`, so merging partial blocks in any
    /// order is byte-identical to sequential accumulation.
    pub fn merge_from(&mut self, o: &MachineStats) {
        self.total_cycles = self.total_cycles.max(o.total_cycles);
        self.dir_requests += o.dir_requests;
        self.l2_hits += o.l2_hits;
        self.l2_misses += o.l2_misses;
        self.invalidations += o.invalidations;
        self.owner_probes += o.owner_probes;
        self.msgs_control += o.msgs_control;
        self.msgs_data += o.msgs_data;
        self.flit_hops += o.flit_hops;
        self.cross_socket_msgs += o.cross_socket_msgs;
        self.socket_flit_hops += o.socket_flit_hops;
        self.dir_queue_wait_cycles += o.dir_queue_wait_cycles;
        self.max_dir_queue_len = self.max_dir_queue_len.max(o.max_dir_queue_len);
        self.app_ops += o.app_ops;
        for (mine, theirs) in self.cores.iter_mut().zip(&o.cores) {
            mine.merge(theirs);
        }
    }

    /// Sum of all per-core counters.
    pub fn core_totals(&self) -> CoreStats {
        let mut t = CoreStats::default();
        for c in &self.cores {
            t.merge(c);
        }
        t
    }

    /// Total coherence messages (control + data), the quantity the paper
    /// reports as "coherence traffic".
    pub fn coherence_messages(&self) -> u64 {
        self.msgs_control + self.msgs_data
    }

    /// Evaluate the analytic energy model, returning total nanojoules.
    pub fn energy_nj(&self, m: &EnergyModel) -> f64 {
        let t = self.core_totals();
        let l1_accesses = t.l1_hits + t.l1_misses;
        let l2_accesses = self.l2_hits + self.l2_misses;
        l1_accesses as f64 * m.l1_access_nj
            + l2_accesses as f64 * m.l2_access_nj
            + self.l2_misses as f64 * m.dram_access_nj
            + self.flit_hops as f64 * m.flit_hop_nj
            + self.socket_flit_hops as f64 * m.socket_flit_hop_nj
            + t.instructions as f64 * m.instruction_nj
            + self.cores.len() as f64 * self.total_cycles as f64 * m.static_core_nj_per_cycle
    }

    /// Throughput in operations per second, given the core frequency.
    pub fn throughput_ops_per_sec(&self, freq_ghz: f64) -> f64 {
        if self.total_cycles == 0 {
            return 0.0;
        }
        self.app_ops as f64 / (self.total_cycles as f64 / (freq_ghz * 1e9))
    }

    /// Energy per application operation, nJ.
    pub fn energy_per_op_nj(&self, m: &EnergyModel) -> f64 {
        if self.app_ops == 0 {
            return 0.0;
        }
        self.energy_nj(m) / self.app_ops as f64
    }

    /// L1 misses per application operation.
    pub fn misses_per_op(&self) -> f64 {
        if self.app_ops == 0 {
            return 0.0;
        }
        self.core_totals().l1_misses as f64 / self.app_ops as f64
    }

    /// Coherence messages per application operation.
    pub fn messages_per_op(&self) -> f64 {
        if self.app_ops == 0 {
            return 0.0;
        }
        self.coherence_messages() as f64 / self.app_ops as f64
    }

    /// Serialize the whole stats block as one JSON object (hand-rolled —
    /// the workspace is dependency-free by design). Every field is an
    /// integer, so no float-formatting subtleties arise; derived
    /// per-op metrics are recomputable from the raw counters.
    pub fn to_json(&self) -> String {
        use std::fmt::Write;
        let mut s = String::with_capacity(1024 + 512 * self.cores.len());
        s.push('{');
        let _ = write!(
            s,
            "\"total_cycles\":{},\"app_ops\":{},\"dir_requests\":{},\"l2_hits\":{},\
             \"l2_misses\":{},\"invalidations\":{},\"owner_probes\":{},\"msgs_control\":{},\
             \"msgs_data\":{},\"flit_hops\":{},\"dir_queue_wait_cycles\":{},\
             \"max_dir_queue_len\":{}",
            self.total_cycles,
            self.app_ops,
            self.dir_requests,
            self.l2_hits,
            self.l2_misses,
            self.invalidations,
            self.owner_probes,
            self.msgs_control,
            self.msgs_data,
            self.flit_hops,
            self.dir_queue_wait_cycles,
            self.max_dir_queue_len,
        );
        // NUMA counters are emitted only when nonzero so that
        // single-socket runs (where they are identically 0) serialize
        // byte-for-byte as they did before the multi-socket topology
        // existed — the corpus goldens and the byte-identical
        // `BENCH_*.json` outputs depend on that.
        if self.cross_socket_msgs != 0 || self.socket_flit_hops != 0 {
            let _ = write!(
                s,
                ",\"cross_socket_msgs\":{},\"socket_flit_hops\":{}",
                self.cross_socket_msgs, self.socket_flit_hops,
            );
        }
        s.push_str(",\"cores\":[");
        for (i, c) in self.cores.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"instructions\":{},\"l1_hits\":{},\"l1_misses\":{},\"l1_evictions\":{},\
                 \"l1_writebacks\":{},\"loads\":{},\"stores\":{},\"cas_attempts\":{},\
                 \"cas_failures\":{},\"rmw_ops\":{},\"mem_stall_cycles\":{},\"leases_taken\":{},\
                 \"releases_voluntary\":{},\"releases_involuntary\":{},\"lease_overflows\":{},\
                 \"leases_broken_by_priority\":{},\"multileases\":{},\"probes_received\":{},\
                 \"probes_queued\":{},\"probe_queued_cycles\":{}}}",
                c.instructions,
                c.l1_hits,
                c.l1_misses,
                c.l1_evictions,
                c.l1_writebacks,
                c.loads,
                c.stores,
                c.cas_attempts,
                c.cas_failures,
                c.rmw_ops,
                c.mem_stall_cycles,
                c.leases_taken,
                c.releases_voluntary,
                c.releases_involuntary,
                c.lease_overflows,
                c.leases_broken_by_priority,
                c.multileases,
                c.probes_received,
                c.probes_queued,
                c.probe_queued_cycles,
            );
        }
        s.push_str("]}");
        s
    }

    /// A compact human-readable summary.
    pub fn summary(&self) -> String {
        let t = self.core_totals();
        format!(
            "cycles={} ops={} inst={} l1_hit={} l1_miss={} l2_hit={} l2_miss={} \
             msgs={} cas_fail={}/{} leases={} vol={} invol={} probes_queued={}",
            self.total_cycles,
            self.app_ops,
            t.instructions,
            t.l1_hits,
            t.l1_misses,
            self.l2_hits,
            self.l2_misses,
            self.coherence_messages(),
            t.cas_failures,
            t.cas_attempts,
            t.leases_taken,
            t.releases_voluntary,
            t.releases_involuntary,
            t.probes_queued,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_counters() {
        let mut a = CoreStats {
            l1_hits: 3,
            cas_attempts: 2,
            cas_failures: 1,
            ..CoreStats::default()
        };
        let b = CoreStats {
            l1_hits: 5,
            cas_attempts: 4,
            ..CoreStats::default()
        };
        a.merge(&b);
        assert_eq!(a.l1_hits, 8);
        assert_eq!(a.cas_attempts, 6);
        assert_eq!(a.cas_failures, 1);
    }

    #[test]
    fn merge_from_is_order_independent_and_matches_sequential() {
        // Partial blocks (scalars only, empty cores) merged into a
        // base block, vs accumulating the same
        // updates sequentially into one block.
        let mk = |d, h, q: usize| MachineStats {
            dir_requests: d,
            l2_hits: h,
            max_dir_queue_len: q,
            ..MachineStats::default()
        };
        let parts = [mk(3, 1, 2), mk(5, 0, 7), mk(0, 4, 1)];
        let mut sequential = MachineStats::new(2);
        for p in &parts {
            sequential.dir_requests += p.dir_requests;
            sequential.l2_hits += p.l2_hits;
            sequential.max_dir_queue_len = sequential.max_dir_queue_len.max(p.max_dir_queue_len);
        }
        let mut merged = MachineStats::new(2);
        for p in &parts {
            merged.merge_from(p);
        }
        assert_eq!(merged.to_json(), sequential.to_json());
        // Empty `cores` on the partial side leaves per-core data alone.
        merged.cores[1].l1_misses = 9;
        merged.merge_from(&mk(1, 1, 1));
        assert_eq!(merged.cores[1].l1_misses, 9);
        assert_eq!(merged.dir_requests, 9);
    }

    #[test]
    fn throughput_and_energy_per_op() {
        let mut s = MachineStats::new(2);
        s.total_cycles = 1_000_000; // 1 ms at 1 GHz
        s.app_ops = 1_000;
        assert!((s.throughput_ops_per_sec(1.0) - 1e9 / 1_000.0).abs() < 1e-6);

        s.cores[0].l1_hits = 10;
        s.l2_hits = 4;
        let m = EnergyModel::default();
        let e = s.energy_nj(&m);
        assert!(e > 0.0);
        assert!((s.energy_per_op_nj(&m) - e / 1000.0).abs() < 1e-9);
    }

    #[test]
    fn zero_ops_is_safe() {
        let s = MachineStats::new(1);
        assert_eq!(s.throughput_ops_per_sec(1.0), 0.0);
        assert_eq!(s.energy_per_op_nj(&EnergyModel::default()), 0.0);
        assert_eq!(s.misses_per_op(), 0.0);
        assert_eq!(s.messages_per_op(), 0.0);
    }

    #[test]
    fn per_op_counters() {
        let mut s = MachineStats::new(1);
        s.app_ops = 10;
        s.cores[0].l1_misses = 21;
        s.msgs_control = 50;
        s.msgs_data = 45;
        assert!((s.misses_per_op() - 2.1).abs() < 1e-9);
        assert!((s.messages_per_op() - 9.5).abs() < 1e-9);
    }

    #[test]
    fn json_is_well_formed_and_complete() {
        let mut s = MachineStats::new(2);
        s.total_cycles = 42;
        s.app_ops = 7;
        s.cores[1].l1_misses = 3;
        let j = s.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"total_cycles\":42"));
        assert!(j.contains("\"app_ops\":7"));
        assert!(j.contains("\"l1_misses\":3"));
        // Two core objects, balanced braces/brackets.
        assert_eq!(j.matches("\"instructions\"").count(), 2);
        assert_eq!(
            j.matches('{').count(),
            j.matches('}').count(),
            "unbalanced braces in {j}"
        );
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }

    #[test]
    fn numa_counters_conditional_in_json_and_counted_in_energy() {
        let mut s = MachineStats::new(1);
        // Single-socket runs never set these; JSON must not mention them.
        assert!(!s.to_json().contains("cross_socket_msgs"));
        let m = EnergyModel::default();
        let base = s.energy_nj(&m);
        s.cross_socket_msgs = 4;
        s.socket_flit_hops = 36;
        let j = s.to_json();
        assert!(j.contains("\"cross_socket_msgs\":4"));
        assert!(j.contains("\"socket_flit_hops\":36"));
        assert!((s.energy_nj(&m) - base - 36.0 * m.socket_flit_hop_nj).abs() < 1e-9);
        let mut t = MachineStats::new(1);
        t.merge_from(&s);
        t.merge_from(&s);
        assert_eq!(t.cross_socket_msgs, 8);
        assert_eq!(t.socket_flit_hops, 72);
    }

    #[test]
    fn summary_contains_key_fields() {
        let mut s = MachineStats::new(1);
        s.total_cycles = 42;
        let sum = s.summary();
        assert!(sum.contains("cycles=42"));
        assert!(sum.contains("ops=0"));
    }
}
