//! One benchmark run: set-up, the measured phase and, for the traced
//! run, the per-layer attribution.

use crate::layers;
use crate::span::Tracer;
use crate::stat::{median, percentile, ratio};
use crate::workload::{self, Prepared, Run, Size, Workload};
use lr_machine::MachineStats;
use lr_sim_core::tracefmt;
use std::time::Instant;

/// Env knobs that select a different engine, queue store, handoff
/// policy or op count. The benchmark measures the default executor, so
/// it refuses to run under any of them.
const REFUSED_ENV: [&str; 5] = [
    "LR_EVENTQ",
    "LR_ENGINE_SHARDS",
    "LR_ENGINE_COMMIT",
    "LR_SPIN_ROUNDS",
    "LR_FORCE_SPIN",
];

/// The refused knobs set in this environment (plus any `LR_*OPS`).
pub fn refused_env() -> Vec<String> {
    std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| {
            REFUSED_ENV.contains(&k.as_str()) || (k.starts_with("LR_") && k.ends_with("OPS"))
        })
        .collect()
}

#[derive(Debug, Clone, Copy)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    /// Length of the measured phase, host seconds.
    pub seconds: f64,
    /// Traced run: report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    pub size: Size,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable context printed beside the metrics (sample counts,
    /// rep counts).
    pub notes: Vec<String>,
    pub tracer: Tracer,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// Measured reps never stop before this many, whatever `--seconds` says.
const MIN_REPS: usize = 3;

/// Set-up repetitions per untraced run; their median is `setup_s`. The
/// replay workload's set-up is a live recording, so it repeats less.
fn setup_reps(w: Workload) -> usize {
    match w {
        Workload::ReplayContendedStack => 7,
        _ => 31,
    }
}

/// One timed set-up, appended to `times`.
fn timed_setup(cfg: &Config, times: &mut Vec<f64>, tr: &mut Tracer) -> Prepared {
    let t0 = Instant::now();
    let p = workload::prepare(cfg.workload, cfg.size, cfg.seed, tr);
    times.push(t0.elapsed().as_secs_f64());
    p
}

/// `(attempted, failed)` ops of the set-up's recording, if it made one.
fn recording_ops(p: &Prepared) -> (u64, u64) {
    p.recording
        .as_ref()
        .map_or((0, 0), |r| (p.plans[0].app_ops(), r.failed))
}

pub fn run(cfg: &Config) -> Report {
    let mut tr = Tracer::new(cfg.trace);
    let mut setup_s = Vec::new();
    let p = tr.span("setup", |tr| timed_setup(cfg, &mut setup_s, tr));
    let (mut attempted, mut failed) = recording_ops(&p);
    let mut notes = Vec::new();

    if !cfg.trace {
        // The other set-ups are spread evenly over the measured phase,
        // so a short host stall shifts only a few of them.
        let n = setup_reps(cfg.workload);
        let mut setup_again = |times: &mut Vec<f64>| {
            let (a, f) = recording_ops(&timed_setup(cfg, times, &mut Tracer::new(false)));
            attempted += a;
            failed += f;
        };
        let runs = measure(&p, cfg.seconds, 0, &mut tr, |elapsed| {
            while setup_s.len() < n && elapsed * n as f64 >= cfg.seconds * setup_s.len() as f64 {
                setup_again(&mut setup_s);
            }
        });
        while setup_s.len() < n {
            setup_again(&mut setup_s);
        }
        attempted += runs.iter().map(|r| r.attempted).sum::<u64>();
        failed += runs.iter().map(|r| r.failed).sum::<u64>() + nondeterministic(&p, &runs);
        let metrics = end_to_end(&p, &runs, &setup_s, attempted, failed, &mut notes);
        return Report {
            attempted,
            failed,
            metrics,
            notes,
            tracer: tr,
        };
    }

    // Traced run: the same reps without and then with spans (their
    // throughput ratio is the tracing overhead), then the layer drives.
    tr.set_enabled(false);
    let plain = measure(&p, cfg.seconds * 0.3, 0, &mut tr, |_| {});
    tr.set_enabled(true);
    let traced = tr.span("measure", |tr| measure(&p, 0.0, plain.len(), tr, |_| {}));
    let all: Vec<Run> = plain.into_iter().chain(traced).collect();
    attempted += all.iter().map(|r| r.attempted).sum::<u64>();
    failed += all.iter().map(|r| r.failed).sum::<u64>() + nondeterministic(&p, &all);
    let (plain, traced) = all.split_at(all.len() / 2);
    let overhead = ratio(median(&ops_per_s(traced)), median(&ops_per_s(plain)));
    // Live wall of stream 0, the stream the layer drives re-run.
    let live_wall = median(
        &plain
            .iter()
            .step_by(p.plans.len())
            .map(|r| r.wall_s)
            .collect::<Vec<_>>(),
    );
    let (metrics, layer_attempted, layer_failed) = tr.span("layers", |tr| {
        per_layer(&p, &plain[0], live_wall, overhead, &mut notes, tr)
    });
    Report {
        attempted: attempted + layer_attempted,
        failed: failed + layer_failed,
        metrics,
        notes,
        tracer: tr,
    }
}

/// Run reps, cycling through the streams, until `seconds` have passed
/// and at least `MIN_REPS` (or exactly `reps`, when nonzero) are done,
/// stopping only after whole passes over the streams. `between` runs
/// before each rep with the seconds elapsed so far.
fn measure(
    p: &Prepared,
    seconds: f64,
    reps: usize,
    tr: &mut Tracer,
    mut between: impl FnMut(f64),
) -> Vec<Run> {
    let k = p.plans.len();
    let t0 = Instant::now();
    let mut runs = Vec::new();
    loop {
        let elapsed = t0.elapsed().as_secs_f64();
        let done = if reps > 0 {
            runs.len() >= reps
        } else {
            runs.len() >= MIN_REPS.max(k) && runs.len() % k == 0 && elapsed >= seconds
        };
        if done {
            return runs;
        }
        between(elapsed);
        let stream = runs.len() % k;
        runs.push(tr.span("rep", |tr| workload::run(p, stream, tr)));
    }
}

/// Ops of reps whose simulated statistics differ from the first rep of
/// the same stream: the simulator is deterministic, so they must match.
fn nondeterministic(p: &Prepared, runs: &[Run]) -> u64 {
    let k = p.plans.len();
    let want: Vec<(String, u64)> = runs[..k]
        .iter()
        .map(|r| (r.stats.to_json(), r.events))
        .collect();
    runs.iter()
        .enumerate()
        .filter(|(i, r)| (r.stats.to_json(), r.events) != want[i % k])
        .map(|(_, r)| r.attempted)
        .sum()
}

fn ops_per_s(runs: &[Run]) -> Vec<f64> {
    runs.iter()
        .map(|r| ratio(r.stats.app_ops as f64, r.wall_s))
        .collect()
}

/// End-to-end metrics. Host rates are medians over every rep; simulated
/// metrics pool the first pass, one rep per stream.
fn end_to_end(
    p: &Prepared,
    runs: &[Run],
    setup_s: &[f64],
    attempted: u64,
    failed: u64,
    notes: &mut Vec<String>,
) -> Vec<Metric> {
    let pass = &runs[..p.plans.len()];
    let sum = |f: &dyn Fn(&Run) -> f64| pass.iter().map(f).sum::<f64>();
    let ops = sum(&|r| r.stats.app_ops as f64);
    let sim_us = sum(&|r| p.cfg.cycles_to_secs(r.stats.total_cycles) * 1e6);
    let msgs = sum(&|r| r.stats.coherence_messages() as f64);
    let nj = sum(&|r| r.stats.energy_nj(&p.cfg.energy));
    let op_cycles: Vec<u64> = pass
        .iter()
        .flat_map(|r| r.op_cycles.iter().copied())
        .collect();
    let events_per_s: Vec<f64> = runs
        .iter()
        .map(|r| ratio(r.events as f64, r.wall_s))
        .collect();
    let rates = ops_per_s(runs);
    let (lo, hi) = rates
        .iter()
        .fold((f64::MAX, 0.0f64), |(lo, hi), &r| (lo.min(r), hi.max(r)));
    notes.push(format!(
        "{} measured reps over {} stream(s) ({lo:.0}..{hi:.0} sim-ops/s), {} set-up reps; \
         op_cycles over {} op samples",
        runs.len(),
        pass.len(),
        setup_s.len(),
        op_cycles.len()
    ));
    vec![
        metric("sim_ops_per_s", median(&rates), "1/s"),
        metric("sim_events_per_s", median(&events_per_s), "1/s"),
        metric("setup_s", median(setup_s), "s"),
        metric("peak_rss_mb", peak_rss_mib(), "MiB"),
        metric("sim_mops", ratio(ops, sim_us), "ops/us"),
        metric(
            "op_cycles_p50",
            percentile(&op_cycles, 50.0) as f64,
            "cycles",
        ),
        metric(
            "op_cycles_p99",
            percentile(&op_cycles, 99.0) as f64,
            "cycles",
        ),
        metric("msgs_per_op", ratio(msgs, ops), "msgs/op"),
        metric("nj_per_op", ratio(nj, ops), "nJ/op"),
        metric(
            "op_pass_ratio",
            ratio((attempted - failed) as f64, attempted as f64),
            "ratio",
        ),
    ]
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Repetitions of each layer drive (the median is reported).
const LAYER_REPS: usize = 3;

/// The per-layer metrics of the traced run, plus the ops the layer
/// phase attempted and failed (its recordings and replays are gated).
fn per_layer(
    p: &Prepared,
    first: &Run,
    live_wall: f64,
    tracing_overhead: f64,
    notes: &mut Vec<String>,
    tr: &mut Tracer,
) -> (Vec<Metric>, u64, u64) {
    let s: &MachineStats = &first.stats;
    let ops = s.app_ops as f64;
    let (mut attempted, mut failed) = (0u64, 0u64);

    // The engine-only trace: a fresh recording of a live workload, or
    // the replay workload's own recording.
    let (trace, bytes) = match &p.recording {
        None => {
            let (trace, rec_stats, rec_failed) =
                tr.span("handoff", |tr| workload::record_live(p, tr));
            attempted += p.plans[0].app_ops();
            failed += rec_failed;
            if rec_stats.to_json() != s.to_json() {
                failed += p.plans[0].app_ops();
            }
            let bytes = tr.span("tracefmt.encode", |_| tracefmt::encode(&trace));
            (trace, bytes)
        }
        Some(rec) => {
            let trace = tr.span("tracefmt.decode", |_| tracefmt::decode(&rec.bytes));
            (trace.expect("the recording decodes"), rec.bytes.clone())
        }
    };

    // Engine-only replays of that trace: the engine loop alone.
    let mut replay_s = Vec::new();
    let mut events = first.events;
    for _ in 0..LAYER_REPS {
        let t0 = Instant::now();
        let out = tr.span("lr_replay.replay", |_| workload::replay_trace(&trace));
        replay_s.push(t0.elapsed().as_secs_f64());
        attempted += p.plans[0].app_ops();
        match out {
            Ok((rs, _, ev)) if rs.to_json() == s.to_json() && ev == first.events => events = ev,
            _ => failed += p.plans[0].app_ops(),
        }
    }
    let replay_s = median(&replay_s);
    // Handoff: live wall minus the engine-only wall of the same trace.
    // The replay workload's measured phase has no live run at all.
    let (wall_share, handoff_ns_per_op, round_trips) = if p.workload.is_live() {
        let handoff = (live_wall - replay_s).max(0.0);
        (
            ratio(handoff, live_wall),
            ratio(handoff * 1e9, ops),
            trace.total_ops() as f64,
        )
    } else {
        (0.0, 0.0, 0.0)
    };

    // Event queue: the run's event count and delay mix.
    let t = s.core_totals();
    let far = t.leases_taken;
    let near = layers::near_delays(&trace);
    let horizon = p.cfg.lease.max_lease_time;
    let eventq_s = median(
        &(0..LAYER_REPS)
            .map(|_| {
                tr.span("lr_sim_core.ShardedQueue", |_| {
                    layers::eventq_drive(p.cfg.num_cores, &near, events, far, horizon)
                })
            })
            .collect::<Vec<_>>(),
    );

    // Coherence handlers over the recorded line stream.
    let streams = layers::line_streams(&trace);
    let coh = tr.span("lr_coherence.CoherenceEngine", |_| {
        layers::coh_drive(&p.cfg, &streams, LAYER_REPS)
    });
    notes.push(format!(
        "coherence drive: {} access/handle calls per pass over {} recorded accesses",
        coh.calls,
        coh.routes.len()
    ));

    // Lease table cycles over the workload's leased lines.
    let lines = layers::leased_lines(&trace);
    let lease_cycles = 200_000;
    let lease_s = median(
        &(0..LAYER_REPS)
            .map(|_| {
                tr.span("lr_lease.LeaseTable", |_| {
                    layers::lease_drive(&p.cfg.lease, &lines, lease_cycles)
                })
            })
            .collect::<Vec<_>>(),
    );

    // NoC routes of the line stream.
    let noc_s = median(
        &(0..LAYER_REPS)
            .map(|_| {
                tr.span("lr_sim_noc.Mesh", |_| {
                    layers::noc_drive(&p.cfg, &coh.routes)
                })
            })
            .collect::<Vec<_>>(),
    );

    // Trace codec throughput.
    let mb = bytes.len() as f64 / 1e6;
    let mut enc_s = Vec::new();
    let mut dec_s = Vec::new();
    for _ in 0..LAYER_REPS {
        let t0 = Instant::now();
        let enc = tr.span("tracefmt.encode", |_| tracefmt::encode(&trace));
        enc_s.push(t0.elapsed().as_secs_f64());
        let t1 = Instant::now();
        let dec = tr.span("tracefmt.decode", |_| tracefmt::decode(&enc));
        dec_s.push(t1.elapsed().as_secs_f64());
        if enc != bytes || dec.as_ref().ok() != Some(&trace) {
            failed += p.plans[0].app_ops();
        }
    }

    let msgs = s.coherence_messages() as f64;
    let metrics = vec![
        metric("handoff.wall_share", wall_share, "share"),
        metric("handoff.ns_per_op", handoff_ns_per_op, "ns/op"),
        metric("handoff.round_trips", round_trips, "count"),
        metric("engine.replay_s", replay_s, "s"),
        metric(
            "engine.ns_per_event",
            ratio(replay_s * 1e9, events as f64),
            "ns/event",
        ),
        metric(
            "engine.events_per_op",
            ratio(events as f64, ops),
            "events/op",
        ),
        metric(
            "eventq.ns_per_event",
            ratio(eventq_s * 1e9, events as f64),
            "ns/event",
        ),
        metric(
            "eventq.far_share",
            ratio(far as f64, events as f64),
            "share",
        ),
        metric(
            "coh.ns_per_event",
            ratio(median(&coh.pass_s) * 1e9, coh.calls as f64),
            "ns/event",
        ),
        metric(
            "coh.dir_requests_per_op",
            ratio(s.dir_requests as f64, ops),
            "count/op",
        ),
        metric(
            "coh.invalidations_per_op",
            ratio(s.invalidations as f64, ops),
            "count/op",
        ),
        metric(
            "coh.owner_probes_per_op",
            ratio(s.owner_probes as f64, ops),
            "count/op",
        ),
        metric(
            "coh.dir_wait_cycles_per_op",
            ratio(s.dir_queue_wait_cycles as f64, ops),
            "cycles/op",
        ),
        metric(
            "coh.l1_miss_ratio",
            ratio(t.l1_misses as f64, (t.l1_hits + t.l1_misses) as f64),
            "ratio",
        ),
        metric(
            "lease.ns_per_cycle",
            ratio(lease_s * 1e9, lease_cycles as f64),
            "ns/cycle",
        ),
        metric(
            "lease.taken_per_op",
            ratio(t.leases_taken as f64, ops),
            "count/op",
        ),
        metric(
            "lease.voluntary_ratio",
            ratio(t.releases_voluntary as f64, t.leases_taken as f64),
            "ratio",
        ),
        metric(
            "lease.probe_queued_cycles_per_op",
            ratio(t.probe_queued_cycles as f64, ops),
            "cycles/op",
        ),
        metric(
            "noc.ns_per_route",
            ratio(noc_s * 1e9, coh.routes.len() as f64),
            "ns/route",
        ),
        metric(
            "noc.flit_hops_per_msg",
            ratio(s.flit_hops as f64, msgs),
            "hops/msg",
        ),
        metric(
            "noc.cross_socket_per_op",
            ratio(s.cross_socket_msgs as f64, ops),
            "msgs/op",
        ),
        metric("trace.bytes_per_op", ratio(bytes.len() as f64, ops), "B/op"),
        metric("trace.encode_mb_per_s", ratio(mb, median(&enc_s)), "MB/s"),
        metric("trace.decode_mb_per_s", ratio(mb, median(&dec_s)), "MB/s"),
        metric(
            "ds.cas_fail_ratio",
            ratio(t.cas_failures as f64, t.cas_attempts as f64),
            "ratio",
        ),
        metric(
            "ds.instructions_per_op",
            ratio(t.instructions as f64, ops),
            "count/op",
        ),
        metric("bench.tracing_overhead", tracing_overhead, "ratio"),
    ];
    (metrics, attempted, failed)
}

/// Peak resident set of this process (`VmHWM`), MiB; 0 where the
/// kernel does not report it. One process runs one workload, so the
/// peak is that workload's own.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}
