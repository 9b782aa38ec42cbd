//! Trace capture audit: a recorded run keeps its trace on the engine
//! thread (the thread that calls `Machine::run_recorded`), so worker
//! threads allocate nothing per op. Heap bytes allocated by every other
//! thread are counted for a short and a 100x longer recording of the
//! same workload; the longer one must not allocate more off the engine
//! thread. A worker-side record vector would grow with the op count
//! (about 8,000 records of 64 B per core in the long run).
//!
//! This file holds a single test on purpose — the counting allocator is
//! global, so a concurrently running test would perturb the count.

use lr_machine::{Machine, SystemConfig, ThreadCtx, ThreadFn};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

/// Bytes allocated on threads other than the engine thread.
static OFF_ENGINE_BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static IS_ENGINE: Cell<bool> = const { Cell::new(false) };
}

fn count(bytes: usize) {
    if !IS_ENGINE.try_with(Cell::get).unwrap_or(false) {
        OFF_ENGINE_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static A: Counting = Counting;

const CORES: usize = 8;

/// Record `rounds` lease/read/write/release rounds per core, each core
/// on its own line, and return the bytes allocated off the engine
/// thread. The closures allocate nothing themselves.
fn off_engine_bytes(rounds: u64) -> u64 {
    let mut m = Machine::new(SystemConfig::with_cores(CORES));
    let lines: Vec<_> = m.setup(|mem| (0..CORES).map(|_| mem.alloc_line_aligned(8)).collect());
    let progs: Vec<ThreadFn> = lines
        .iter()
        .map(|&line| {
            Box::new(move |ctx: &mut ThreadCtx| {
                for i in 0..rounds {
                    ctx.lease_max(line);
                    let v = ctx.read(line);
                    ctx.write(line, v + i);
                    ctx.release(line);
                    ctx.count_op();
                }
            }) as ThreadFn
        })
        .collect();
    let before = OFF_ENGINE_BYTES.load(Ordering::Relaxed);
    let rec = m.run_recorded(progs);
    let bytes = OFF_ENGINE_BYTES.load(Ordering::Relaxed) - before;
    assert_eq!(rec.stats.app_ops, rounds * CORES as u64);
    let records: usize = rec.trace.cores.iter().map(Vec::len).sum();
    // Four ops per round plus one Exit record per core.
    assert_eq!(records as u64, (4 * rounds + 1) * CORES as u64);
    bytes
}

#[test]
fn recording_allocates_nothing_per_op_on_worker_threads() {
    IS_ENGINE.with(|c| c.set(true));
    let short = off_engine_bytes(20);
    let long = off_engine_bytes(2_000);
    assert!(
        long <= short,
        "worker threads allocated more for a longer recording: \
         {short} B for 20 rounds per core vs {long} B for 2,000"
    );
}
