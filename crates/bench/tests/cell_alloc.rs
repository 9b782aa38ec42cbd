//! Steady-state allocation audit for a full sweep cell: machine
//! construction, setup, a *contended* 2-thread run, and row extraction
//! (`BenchRow::from_stats`, which serializes the raw `MachineStats`).
//! The machine-level zero_alloc test covers the single-worker fast
//! path; this one adds the contention machinery — directory waiter
//! queues (pooled `LineChannel`s in the coherence engine), sharer rows
//! (recycled through each home tile's free list as the line cycles
//! Shared ↔ Modified) and paged `SimMemory` — by comparing the
//! process-wide allocation count of a short cell against one 8x longer.
//! The extra operations must add exactly zero allocations: every per-op
//! structure the directory or memory system touches has to come from a
//! pool, not the heap.
//!
//! The row is extracted exactly as every scenario extracts it.
//! `MachineStats::to_json` reserves its buffer up front, so the longer
//! run's wider counters must not cost an extra reallocation either.
//!
//! This file holds a single test on purpose — the counting allocator is
//! global, so a concurrently running test would perturb the count.

use lr_bench::BenchRow;
use lr_machine::{Machine, SystemConfig, ThreadCtx, ThreadFn};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static A: Counting = Counting;

/// One fixed-shape sweep cell: two workers hammering a single shared
/// line with read-then-FAA (maximal directory-queue churn; each read
/// turns the other core's Modified copy into a Shared pair, each FAA
/// invalidates it again), then the cell's row. Returns the allocations
/// the whole cell performed.
fn cell_allocs(ops: u64) -> u64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    let cfg = SystemConfig::with_cores(2);
    let mut m = Machine::new(cfg.clone());
    let shared = m.setup(|mem| mem.alloc_line_aligned(8));
    let progs: Vec<ThreadFn> = (0..2)
        .map(|_| {
            Box::new(move |ctx: &mut ThreadCtx| {
                for _ in 0..ops {
                    ctx.read(shared);
                    ctx.faa(shared, 1);
                    ctx.count_op();
                }
            }) as ThreadFn
        })
        .collect();
    let stats = m.run(progs);
    assert_eq!(stats.app_ops, 2 * ops);
    let row = BenchRow::from_stats("contended-faa", 2, &cfg, &stats);
    assert_eq!(row.threads, 2);
    ALLOCS.load(Ordering::Relaxed) - before
}

#[test]
fn contended_cell_makes_no_steady_state_allocations() {
    // Warm up the process (thread-spawn TLS, panic hooks). There is no
    // page pool: both measured cells allocate the same pages.
    cell_allocs(16);
    cell_allocs(16);
    let short = cell_allocs(512);
    let long = cell_allocs(512 * 8);
    assert_eq!(
        long, short,
        "a contended sweep cell allocated per-op (directory queue or \
         memory pooling regression): {short} allocs for 512 ops vs \
         {long} for 4096"
    );
}
