//! Row extraction shared by every scenario.
//!
//! A [`BenchRow`] is one measured point of a figure/table series: the
//! derived per-op metrics plus the complete raw [`MachineStats`] dump
//! (as JSON) so reports can expose raw counters, not just derivatives.
//! Rendering — the aligned table, `CSV,` lines, and the `BENCH_*.json`
//! files — lives in [`crate::report`]; the sweep axes come from the
//! driver ([`crate::sweep`]).

use lr_sim_core::{MachineStats, SystemConfig};

/// One measured point of a figure/table series.
#[derive(Debug, Clone)]
pub struct BenchRow {
    /// Series name (e.g. "treiber-base", "treiber-lease").
    pub series: String,
    /// Thread count.
    pub threads: usize,
    /// Throughput, million operations per second.
    pub mops: f64,
    /// Energy per operation, nanojoules.
    pub nj_per_op: f64,
    /// L1 misses per operation.
    pub misses_per_op: f64,
    /// Coherence messages per operation.
    pub msgs_per_op: f64,
    /// CAS failure ratio (failures / attempts), if CASes were issued.
    pub cas_fail_ratio: f64,
    /// Complete `MachineStats` dump as a JSON object (see
    /// [`MachineStats::to_json`]), carried along so the JSON export can
    /// include the raw counters, not just the derived metrics.
    pub stats_json: String,
}

impl BenchRow {
    /// Extract a row from a finished run's statistics.
    pub fn from_stats(series: &str, threads: usize, cfg: &SystemConfig, s: &MachineStats) -> Self {
        let t = s.core_totals();
        let cas_fail_ratio = if t.cas_attempts > 0 {
            t.cas_failures as f64 / t.cas_attempts as f64
        } else {
            0.0
        };
        BenchRow {
            series: series.to_string(),
            threads,
            mops: s.throughput_ops_per_sec(cfg.freq_ghz) / 1e6,
            nj_per_op: s.energy_per_op_nj(&cfg.energy),
            misses_per_op: s.misses_per_op(),
            msgs_per_op: s.messages_per_op(),
            cas_fail_ratio,
            stats_json: s.to_json(),
        }
    }

    /// Render this row as a JSON object (derived metrics + raw stats).
    pub(crate) fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"series\":\"{}\",\"threads\":{},\"mops\":{:.6},",
                "\"nj_per_op\":{:.3},\"misses_per_op\":{:.4},",
                "\"msgs_per_op\":{:.4},\"cas_fail_ratio\":{:.4},\"stats\":{}}}"
            ),
            json_escape(&self.series),
            self.threads,
            self.mops,
            self.nj_per_op,
            self.misses_per_op,
            self.msgs_per_op,
            self.cas_fail_ratio,
            self.stats_json,
        )
    }
}

/// Minimal JSON string escaping (series names are plain ASCII, but don't
/// rely on it).
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Turn a bench title like "Figure 2: Treiber stack" into a file slug.
pub(crate) fn slug(title: &str) -> String {
    let mut out = String::new();
    for c in title.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c.to_ascii_lowercase());
        } else if !out.ends_with('_') && !out.is_empty() {
            out.push('_');
        }
    }
    out.trim_end_matches('_').to_string()
}

/// The paper's thread counts ("We tested for 2, 4, 8, 16, 32, 64
/// threads/cores"), capped by `max`.
pub fn threads_sweep(max: usize) -> Vec<usize> {
    [1, 2, 4, 8, 16, 32, 64]
        .into_iter()
        .filter(|&t| t <= max)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lr_sim_core::MachineStats;

    #[test]
    fn bench_row_computes_per_op_metrics() {
        let cfg = SystemConfig::default();
        let mut s = MachineStats::new(2);
        s.total_cycles = 1_000_000;
        s.app_ops = 1_000;
        s.cores[0].l1_misses = 2_100;
        s.cores[0].cas_attempts = 500;
        s.cores[0].cas_failures = 50;
        s.msgs_control = 6_000;
        s.msgs_data = 3_500;
        let r = BenchRow::from_stats("x", 2, &cfg, &s);
        assert!((r.mops - 1.0).abs() < 1e-9, "1000 ops in 1 ms = 1 Mops");
        assert!((r.misses_per_op - 2.1).abs() < 1e-9);
        assert!((r.msgs_per_op - 9.5).abs() < 1e-9);
        assert!((r.cas_fail_ratio - 0.1).abs() < 1e-9);
        assert!(r.nj_per_op > 0.0);
    }

    #[test]
    fn cas_ratio_zero_without_cas() {
        let cfg = SystemConfig::default();
        let mut s = MachineStats::new(1);
        s.total_cycles = 10;
        s.app_ops = 1;
        let r = BenchRow::from_stats("x", 1, &cfg, &s);
        assert_eq!(r.cas_fail_ratio, 0.0);
    }

    #[test]
    fn json_row_is_well_formed_and_slug_is_clean() {
        let cfg = SystemConfig::default();
        let mut s = MachineStats::new(1);
        s.total_cycles = 10;
        s.app_ops = 1;
        let r = BenchRow::from_stats("series-with-\"quote\"", 1, &cfg, &s);
        let j = r.to_json();
        assert!(j.contains("\\\""), "quote not escaped: {j}");
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert!(j.contains("\"stats\":{"), "raw stats missing");
        assert_eq!(slug("Figure 2: Treiber stack"), "figure_2_treiber_stack");
    }

    #[test]
    fn sweep_is_powers_of_two_up_to_cap() {
        assert_eq!(threads_sweep(64), vec![1, 2, 4, 8, 16, 32, 64]);
        assert_eq!(threads_sweep(8), vec![1, 2, 4, 8]);
        assert_eq!(threads_sweep(5), vec![1, 2, 4]);
        assert_eq!(threads_sweep(1), vec![1]);
        assert_eq!(threads_sweep(0), Vec::<usize>::new());
    }
}
