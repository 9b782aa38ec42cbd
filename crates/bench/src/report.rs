//! Instance-based report sink: per-run header/rows/CSV/JSON state,
//! owned by whoever runs the sweep (the `lr-bench` binary or a test).
//!
//! Replaces the old process-global `JSON_SINK` static. Each scenario's
//! output is a [`Report`]: the banner + Table 1 header, one aligned
//! human-readable line and one `CSV,` line per row, and a
//! `BENCH_<slug>.json` file containing every row with its complete raw
//! [`lr_sim_core::MachineStats`] dump, plus every `CSVX,` extras line
//! (scenario-specific columns: combiner stats, latency histograms,
//! growth factors) in an `extras` array.
//!
//! The JSON file is kept valid mid-run by flushing through a temp file
//! and an atomic rename: a reader sees either the previous complete
//! document or the new one, never a torn write. Rows are serialized
//! exactly once into a growing body buffer (the old sink re-joined the
//! full row vector on every flush, an O(rows²) rewrite-per-row).

use crate::harness::{json_escape, slug, BenchRow};
use lr_sim_core::SystemConfig;
use std::io::Write;
use std::path::PathBuf;

/// Where (and whether) `BENCH_*.json` files are written. Resolved once
/// per run — environment parsing, directory creation, and any warning
/// happen exactly once, not per flush.
#[derive(Debug, Clone)]
pub struct JsonPolicy {
    dir: Option<PathBuf>,
}

impl JsonPolicy {
    /// No JSON files at all (used by tests and `LR_NO_JSON=1`).
    pub fn disabled() -> Self {
        JsonPolicy { dir: None }
    }

    /// JSON files under `dir` (created if missing, canonicalized).
    pub fn in_dir(dir: impl Into<PathBuf>) -> Self {
        JsonPolicy {
            dir: Self::resolve(dir.into()),
        }
    }

    /// Resolve from the environment, warning (once) on an unusable
    /// target directory instead of once per flush:
    ///
    /// * `LR_NO_JSON=1` disables the export entirely;
    /// * `LR_JSON_DIR` names the output directory (created if needed);
    /// * otherwise the workspace root (via `CARGO_MANIFEST_DIR`, which
    ///   cargo sets for `cargo run` targets), else cwd.
    pub fn from_env() -> Self {
        if std::env::var("LR_NO_JSON").is_ok_and(|v| v == "1") {
            return JsonPolicy::disabled();
        }
        let dir = std::env::var("LR_JSON_DIR").unwrap_or_else(|_| {
            match std::env::var("CARGO_MANIFEST_DIR") {
                // Bin targets run with cwd = the package dir;
                // default to the workspace root instead of scattering
                // files under crates/bench/.
                Ok(m) => format!("{m}/../.."),
                Err(_) => ".".to_string(),
            }
        });
        JsonPolicy {
            dir: Self::resolve(PathBuf::from(dir)),
        }
    }

    /// Create the directory if needed and canonicalize it (the old code
    /// left `…/crates/bench/../..` paths in every message and failed
    /// silently per-row when the directory didn't exist).
    fn resolve(dir: PathBuf) -> Option<PathBuf> {
        if let Err(e) = std::fs::create_dir_all(&dir) {
            eprintln!(
                "warning: cannot create JSON dir {}: {e}; JSON export disabled",
                dir.display()
            );
            return None;
        }
        match dir.canonicalize() {
            Ok(c) => Some(c),
            Err(e) => {
                eprintln!(
                    "warning: cannot canonicalize JSON dir {}: {e}; JSON export disabled",
                    dir.display()
                );
                None
            }
        }
    }

    /// `BENCH_<name>.json` under the policy directory, if enabled.
    fn path(&self, name: &str) -> Option<PathBuf> {
        self.dir
            .as_ref()
            .map(|d| d.join(format!("BENCH_{name}.json")))
    }
}

/// One scenario's in-flight report: table/CSV rendering plus the
/// incrementally built JSON document.
pub struct Report {
    name: String,
    json_path: Option<PathBuf>,
    /// Serialized rows so far, already comma-joined — each row is
    /// serialized and appended exactly once.
    body: String,
    rows: usize,
    /// Serialized `CSVX,` extras so far (JSON string literals, already
    /// comma-joined) — the scenario-specific columns that don't fit the
    /// fixed row schema (combiner stats, latency histograms, growth
    /// factors) land in the document's `extras` array.
    extras: String,
    n_extras: usize,
    /// Warn at most once per report about JSON write failures.
    warned: bool,
}

impl Report {
    /// Print the bench banner and Table 1 configuration and start the
    /// JSON document for this scenario (`BENCH_<slug-of-title>.json`).
    pub fn begin(
        out: &mut dyn Write,
        title: &str,
        cfg: &SystemConfig,
        json: &JsonPolicy,
    ) -> Report {
        let _ = writeln!(
            out,
            "=================================================================="
        );
        let _ = writeln!(out, "{title}");
        let _ = writeln!(
            out,
            "=================================================================="
        );
        let _ = writeln!(out, "{}", cfg.table1());
        let _ = writeln!(
            out,
            "------------------------------------------------------------------"
        );
        let _ = writeln!(
            out,
            "{:<24} {:>7} {:>12} {:>12} {:>10} {:>10} {:>9}",
            "series", "threads", "Mops/s", "nJ/op", "miss/op", "msg/op", "casfail"
        );
        let name = slug(title);
        let json_path = json.path(&name);
        if let Some(p) = &json_path {
            let _ = writeln!(out, "JSON -> {}", p.display());
        }
        Report {
            name,
            json_path,
            body: String::new(),
            rows: 0,
            extras: String::new(),
            n_extras: 0,
            warned: false,
        }
    }

    /// Print one row, both human-aligned and as CSV, and append it to
    /// the scenario's JSON document (atomically re-published so the
    /// file is valid even if the run is interrupted mid-sweep).
    pub fn row(&mut self, out: &mut dyn Write, r: &BenchRow) {
        let _ = writeln!(
            out,
            "{:<24} {:>7} {:>12.3} {:>12.1} {:>10.2} {:>10.2} {:>8.1}%",
            r.series,
            r.threads,
            r.mops,
            r.nj_per_op,
            r.misses_per_op,
            r.msgs_per_op,
            r.cas_fail_ratio * 100.0
        );
        let _ = writeln!(
            out,
            "CSV,{},{},{:.6},{:.3},{:.4},{:.4},{:.4}",
            r.series,
            r.threads,
            r.mops,
            r.nj_per_op,
            r.misses_per_op,
            r.msgs_per_op,
            r.cas_fail_ratio
        );
        if self.json_path.is_some() {
            if self.rows > 0 {
                self.body.push_str(",\n");
            }
            self.body.push_str(&r.to_json());
        }
        self.rows += 1;
        self.flush_json();
    }

    /// Print an auxiliary prose line (scenario footers). Not part of
    /// the JSON document — use [`Report::extra`] for `CSVX,` data.
    pub fn line(&mut self, out: &mut dyn Write, s: &str) {
        let _ = writeln!(out, "{s}");
    }

    /// Print a `CSVX,` extras line and append it to the JSON document's
    /// `extras` array, so the scenario-specific columns (combiner
    /// stats, latency histograms, growth factors) survive into
    /// `BENCH_*.json` alongside the fixed-schema rows.
    pub fn extra(&mut self, out: &mut dyn Write, s: &str) {
        let _ = writeln!(out, "{s}");
        if self.json_path.is_some() {
            if self.n_extras > 0 {
                self.extras.push_str(",\n");
            }
            self.extras.push('"');
            self.extras.push_str(&json_escape(s));
            self.extras.push('"');
        }
        self.n_extras += 1;
        self.flush_json();
    }

    /// Final flush (the per-row flushes already published every row;
    /// this also publishes an empty-rows document for a scenario whose
    /// filters selected no cells).
    pub fn finish(&mut self, out: &mut dyn Write) {
        self.flush_json();
        let _ = out.flush();
    }

    /// Write the complete document to `<path>.tmp`, then rename over
    /// `<path>`: readers never observe a torn file.
    fn flush_json(&mut self) {
        let Some(path) = &self.json_path else {
            return;
        };
        let doc = format!(
            "{{\"bench\":\"{}\",\"rows\":[\n{}\n],\"extras\":[{}]}}\n",
            json_escape(&self.name),
            self.body,
            self.extras
        );
        let tmp = path.with_extension("json.tmp");
        let res = std::fs::write(&tmp, doc).and_then(|()| std::fs::rename(&tmp, path));
        if let Err(e) = res {
            if !self.warned {
                self.warned = true;
                eprintln!("warning: could not write {}: {e}", path.display());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_row(series: &str, threads: usize) -> BenchRow {
        BenchRow {
            series: series.to_string(),
            threads,
            mops: 1.5,
            nj_per_op: 10.0,
            misses_per_op: 2.0,
            msgs_per_op: 9.0,
            cas_fail_ratio: 0.25,
            stats_json: "{}".to_string(),
        }
    }

    #[test]
    fn report_renders_header_rows_and_csv() {
        let cfg = SystemConfig::default();
        let mut out: Vec<u8> = Vec::new();
        let mut rep = Report::begin(&mut out, "T: x", &cfg, &JsonPolicy::disabled());
        rep.row(&mut out, &sample_row("s", 2));
        rep.extra(&mut out, "CSVX,s,2,extra,1.0");
        rep.line(&mut out, "footer prose");
        rep.finish(&mut out);
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("T: x"));
        assert!(text.contains("CSV,s,2,1.500000,10.000,2.0000,9.0000,0.2500"));
        assert!(text.contains("CSVX,s,2,extra,1.0"));
        assert!(text.contains("footer prose"));
        assert!(!text.contains("JSON ->"), "JSON disabled but advertised");
    }

    #[test]
    fn json_file_is_valid_after_every_row_and_atomic() {
        let dir = std::env::temp_dir().join(format!("lr_report_test_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let policy = JsonPolicy::in_dir(&dir);
        let cfg = SystemConfig::default();
        let mut out: Vec<u8> = Vec::new();
        let mut rep = Report::begin(&mut out, "Fig X: demo", &cfg, &policy);
        let path = dir.canonicalize().unwrap().join("BENCH_fig_x_demo.json");
        rep.row(&mut out, &sample_row("a", 1));
        let mid = std::fs::read_to_string(&path).unwrap();
        assert!(mid.starts_with("{\"bench\":\"fig_x_demo\""));
        assert_eq!(mid.matches('{').count(), mid.matches('}').count());
        rep.row(&mut out, &sample_row("a", 2));
        rep.extra(&mut out, "CSVX,demo,a,2,lat_p99,\"7\"");
        rep.finish(&mut out);
        let done = std::fs::read_to_string(&path).unwrap();
        assert_eq!(done.matches("\"series\":\"a\"").count(), 2);
        assert!(
            done.contains("\"extras\":[\"CSVX,demo,a,2,lat_p99,\\\"7\\\"\"]"),
            "CSVX extras missing from JSON document: {done}"
        );
        assert!(
            !path.with_extension("json.tmp").exists(),
            "temp file left behind"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unusable_json_dir_disables_export() {
        // A path under a *file* cannot be created as a directory.
        let file = std::env::temp_dir().join(format!("lr_report_file_{}", std::process::id()));
        std::fs::write(&file, b"x").unwrap();
        let policy = JsonPolicy::in_dir(file.join("sub"));
        assert!(policy.path("x").is_none());
        let _ = std::fs::remove_file(&file);
    }
}
