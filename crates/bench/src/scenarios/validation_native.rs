//! §7 setup validation: the paper compared base (lease-less)
//! implementations on Graphite against a real Intel machine and found
//! "the scalability trends are similar". This scenario replays that
//! check: the host-atomics Treiber stack and Michael–Scott queue are run
//! on the real CPU across thread counts, for trend comparison against
//! the simulated `treiber-base` / `msqueue-base` series (Figures 2/3).
//!
//! Only the *trend* (throughput flattening/dropping under contention) is
//! comparable — absolute numbers differ by design. This is the one
//! [`ScenarioKind::Host`] entry: rows carry wall-clock throughput only,
//! and the driver runs its cells serially after every sim cell so
//! concurrent workers don't perturb the timing.

use crate::harness::BenchRow;
use crate::scenario::{CellCtx, CellOut, Scenario, ScenarioKind};
use lr_ds::{NativeQueue, NativeStack};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

pub static SCENARIO: Scenario = Scenario {
    name: "validation_native",
    title: "Validation: native (host CPU) base stack/queue scalability trend",
    paper_ref: "§7 (validation)",
    series: &["native-stack", "native-queue"],
    // Host wall-clock timing needs far more ops than the simulated
    // benches.
    default_ops: 200_000,
    kind: ScenarioKind::Host,
    run_cell,
    annotate: None,
    footer: Some(
        "Compare the trend against the simulated treiber-base / msqueue-base\n\
         series from fig2_stack / fig3_queue: throughput should flatten or\n\
         degrade beyond a few threads in both worlds.",
    ),
};

fn run_cell(ctx: &CellCtx) -> CellOut {
    let (series, threads, ops) = (ctx.series, ctx.threads, ctx.ops);
    let mops = if series == 0 {
        bench_stack(threads, ops)
    } else {
        bench_queue(threads, ops)
    };
    CellOut::row(BenchRow::host_only(SCENARIO.series[series], threads, mops))
}

fn bench_stack(threads: usize, ops_per_thread: u64) -> f64 {
    let s = Arc::new(NativeStack::new());
    let go = Arc::new(AtomicBool::new(false));
    let handles: Vec<_> = (0..threads)
        .map(|_| {
            let s = s.clone();
            let go = go.clone();
            std::thread::spawn(move || {
                while !go.load(Ordering::Acquire) {
                    std::hint::spin_loop();
                }
                for i in 0..ops_per_thread {
                    s.push(i + 1);
                    s.pop();
                }
            })
        })
        .collect();
    let t0 = Instant::now();
    go.store(true, Ordering::Release);
    for h in handles {
        h.join().unwrap();
    }
    let secs = t0.elapsed().as_secs_f64().max(1e-9);
    (threads as u64 * ops_per_thread * 2) as f64 / secs / 1e6
}

fn bench_queue(threads: usize, ops_per_thread: u64) -> f64 {
    let q = Arc::new(NativeQueue::new());
    let go = Arc::new(AtomicBool::new(false));
    let handles: Vec<_> = (0..threads)
        .map(|_| {
            let q = q.clone();
            let go = go.clone();
            std::thread::spawn(move || {
                while !go.load(Ordering::Acquire) {
                    std::hint::spin_loop();
                }
                for i in 0..ops_per_thread {
                    q.enqueue(i + 1);
                    q.dequeue();
                }
            })
        })
        .collect();
    let t0 = Instant::now();
    go.store(true, Ordering::Release);
    for h in handles {
        h.join().unwrap();
    }
    let secs = t0.elapsed().as_secs_f64().max(1e-9);
    (threads as u64 * ops_per_thread * 2) as f64 / secs / 1e6
}
