//! Host-memory guards for the two set-up costs that dominate a
//! kilo-core cell: the coherence engine's cache storage, which must
//! follow the sets a run fills rather than the configured capacity, and
//! the per-worker copies of a node-replicated structure, which must
//! share its tables instead of copying them.
//!
//! A counting global allocator tallies the bytes each thread requests.
//! Counting per thread keeps the test harness's own allocations, and
//! the other test in this binary, out of every figure.

use lease_release::coherence::CoherenceEngine;
use lease_release::ds::ReplicatedKv;
use lease_release::sim_core::SystemConfig;
use lease_release::sim_mem::SimMemory;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    /// (allocation calls, bytes requested) on this thread.
    static COUNT: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

fn tally(bytes: usize) {
    // `try_with`: the allocator also runs while a thread's locals are
    // being torn down.
    let _ = COUNT.try_with(|c| {
        let (calls, total) = c.get();
        c.set((calls + 1, total + bytes as u64));
    });
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tally(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static A: Counting = Counting;

/// Run `f`, returning its result and the (calls, bytes) it allocated.
fn counted<R>(f: impl FnOnce() -> R) -> (R, (u64, u64)) {
    let (c0, b0) = COUNT.with(Cell::get);
    let r = f();
    let (c1, b1) = COUNT.with(Cell::get);
    (r, (c1 - c0, b1 - b0))
}

/// The `numa_serving` kilo-core machine: 1024 cores on 4 sockets with
/// 8 KiB L1s and 32 KiB L2 slices.
fn kilo_core_cfg() -> SystemConfig {
    let mut cfg = SystemConfig::with_cores(1024);
    cfg.sockets = 4;
    cfg.l1_kib = 8;
    cfg.l2_slice_kib = 32;
    cfg
}

#[test]
fn engine_construction_allocates_no_way_storage() {
    let cfg = kilo_core_cfg();
    let (_eng, (_, bytes)) = counted(|| CoherenceEngine::new(&cfg));
    // Dense way slots for 98,304 sets (32 L1 + 64 L2 per tile) would
    // be about 20 MiB; a block index per set is under 0.4 MiB.
    assert!(
        bytes <= 2 << 20,
        "CoherenceEngine::new allocated {:.1} MiB for 1024 cores x 4 sockets \
         (limit 2 MiB): cache sets must be allocated on first fill",
        bytes as f64 / (1 << 20) as f64
    );
}

#[test]
fn replicated_kv_clones_share_their_tables() {
    let cfg = kilo_core_cfg();
    let tps = cfg.tiles_per_socket();
    let mut mem = SimMemory::new();
    let kv = ReplicatedKv::init(&mut mem, cfg.sockets, tps, cfg.num_cores, 4096, true, 128);
    // One clone per worker closure, as `numa_serving` builds them; kept
    // alive so no allocation can be optimized away.
    let mut clones = Vec::with_capacity(cfg.num_cores);
    let ((), (calls, bytes)) = counted(|| clones.extend((0..cfg.num_cores).map(|_| kv.clone())));
    assert_eq!(clones.len(), 1024);
    assert_eq!(
        (calls, bytes),
        (0, 0),
        "1024 ReplicatedKv clones allocated {bytes} bytes in {calls} calls: \
         one per worker must share the record table, not copy it"
    );
}
