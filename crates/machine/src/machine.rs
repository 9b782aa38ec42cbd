//! The engine loop: ties the coherence protocol, lease tables, simulated
//! memory, and lockstep workers together.
//!
//! ## Event routing
//!
//! Every simulated instruction becomes an `OpStart` event at the
//! worker's local issue time and an `OpComplete` event at its
//! protocol-determined completion time. Every event names the tile it
//! executes at ([`Ev::tile`]), and applying it touches only that tile's
//! slice of machine state — its pending-op slot, its lease table, its
//! partition's scratch buffers — mirroring the message-passing handler
//! discipline of `lr-coherence`. The one piece of genuinely global
//! machine state, the heap allocator, is reached by message too:
//! `Malloc`/`Free` are routed to a fixed *allocator home* tile
//! ([`ALLOC_HOME`]) and the result rides back as [`Ev::MemReply`].
//!
//! ## Commit modes
//!
//! [`CommitMode::Lockstep`] applies events strictly in global
//! `(time, key)` order, one at a time. [`CommitMode::Relaxed`] drives
//! the safe-window API of [`ShardedQueue`]: each partition commits its
//! whole window batch without per-event synchronization — concurrently
//! across host threads on live runs — and the tile-local discipline
//! above guarantees the simulated results are byte-identical anyway.
//! The shard A/B tests and the CI lockstep-vs-relaxed gate hold us to
//! that, byte for byte.

use crate::ctx::{RecordSink, Recorder, ThreadCtx};
use crate::proto::{Op, Reply, Request, ALLOC_COST};
use crate::rendezvous::{slot, SlotReceiver, SlotSender};
use lr_coherence::{AccessKind, CohContext, CohEvent, CoherenceEngine, ProbeAction};
use lr_lease::{ArmedCounter, BeginLease, LeaseTable, MultiLeaseBegin};
use lr_sim_core::trace::{TraceEvent, TraceRing, TraceSink};
use lr_sim_core::tracefmt::{self, MachineTrace, OpRecord};
use lr_sim_core::{
    CoreId, Cycle, EventQueueKind, LineAddr, MachineStats, ShardedQueue, SystemConfig,
};
use lr_sim_mem::SimMemory;
use std::panic::AssertUnwindSafe;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

static SHARDS_FROM_ENV: OnceLock<usize> = OnceLock::new();

fn parse_shards_env() -> usize {
    match std::env::var("LR_ENGINE_SHARDS") {
        Err(_) => 1,
        Ok(v) => match v.parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => panic!("LR_ENGINE_SHARDS={v:?} is not a positive shard count"),
        },
    }
}

/// The process-wide default engine-partition count, from
/// `LR_ENGINE_SHARDS` (default 1 = the classic single event loop).
/// Parsed once; a bad value aborts rather than silently running the
/// wrong engine. Each machine clamps the count to its simulated core
/// count — partitions are slices of tiles, so there can never be more
/// partitions than tiles.
///
/// The value is cached process-wide on first read: setting
/// `LR_ENGINE_SHARDS` from *inside* the process afterwards (e.g.
/// `std::env::set_var` in a test) can never take effect. Debug builds
/// assert the environment still matches the cache on every read so such
/// a stale configuration fails loudly instead of silently running the
/// wrong partition count — tests that need a specific count should use
/// [`Machine::with_engine_shards`] instead of mutating the environment.
pub fn engine_shards_from_env() -> usize {
    let cached = *SHARDS_FROM_ENV.get_or_init(parse_shards_env);
    debug_assert_eq!(
        cached,
        parse_shards_env(),
        "LR_ENGINE_SHARDS changed after its first read was cached; \
         per-machine control belongs to Machine::with_engine_shards"
    );
    cached
}

/// How a partitioned engine commits each safe window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommitMode {
    /// One event at a time, in global `(time, key)` order (the turn
    /// protocol). Required by the globally-ordered structured trace
    /// ring on live runs; otherwise a debugging/A-B reference.
    Lockstep,
    /// Whole safe-window batches per partition, with no per-event
    /// synchronization (host-parallel on live runs). Simulated results
    /// are identical to lockstep by construction.
    Relaxed,
}

impl std::fmt::Display for CommitMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommitMode::Lockstep => f.write_str("lockstep"),
            CommitMode::Relaxed => f.write_str("relaxed"),
        }
    }
}

static COMMIT_FROM_ENV: OnceLock<CommitMode> = OnceLock::new();

fn parse_commit_env() -> CommitMode {
    match std::env::var("LR_ENGINE_COMMIT") {
        Err(_) => CommitMode::Relaxed,
        Ok(v) => match v.as_str() {
            "lockstep" => CommitMode::Lockstep,
            "relaxed" => CommitMode::Relaxed,
            _ => panic!("LR_ENGINE_COMMIT={v:?} is not \"lockstep\" or \"relaxed\""),
        },
    }
}

/// The process-wide default commit mode, from `LR_ENGINE_COMMIT`
/// (`lockstep` | `relaxed`; default relaxed — the modes only differ in
/// host execution shape, never in simulated results).
///
/// Cached process-wide on first read, like [`engine_shards_from_env`]:
/// debug builds assert the environment still matches the cache on every
/// subsequent read, so an in-process `set_var` misfires loudly. Tests
/// should pin the mode per machine via [`Machine::with_commit_mode`].
pub fn engine_commit_from_env() -> CommitMode {
    let cached = *COMMIT_FROM_ENV.get_or_init(parse_commit_env);
    debug_assert_eq!(
        cached,
        parse_commit_env(),
        "LR_ENGINE_COMMIT changed after its first read was cached; \
         per-machine control belongs to Machine::with_commit_mode"
    );
    cached
}

/// The tile that owns the simulated heap allocator. `Malloc`/`Free`
/// mutate one global free list, so they execute as messages delivered
/// here — the only machine-layer state reached by routing rather than
/// by the issuing event's own tile.
const ALLOC_HOME: usize = 0;

/// A workload thread: a closure over the simulated-instruction API.
pub type ThreadFn = Box<dyn FnOnce(&mut ThreadCtx) + Send + 'static>;

/// A single-threaded supplier of requests for engine-only replay.
///
/// `next(tid)` is called exactly where the live machine would block on
/// core `tid`'s rendezvous slot; `observe(tid, reply)` is called with the
/// reply the live worker would have received, immediately before the next
/// `next(tid)`. Returning `Err` from either aborts the run with a
/// structured failure report — this is how `lr-replay` surfaces
/// divergence between a recorded trace and the engine's behaviour.
///
/// Calls for different `tid`s arrive in executor-dependent order (the
/// relaxed executor drains per-partition window batches, not global time
/// order), but each core's own `next`/`observe` alternation is always in
/// that core's program order — sources must key their state by `tid`,
/// never by global call order.
///
/// `Send` because the engine core that drives a source is shared with
/// the partitioned executor's host threads (sources themselves are only
/// ever *called* from one thread at a time — engine-only runs are
/// driven from a single host thread in every commit mode).
pub trait OpSource: Send {
    /// The next request core `tid` issues (or its `Op::Exit`).
    fn next(&mut self, tid: usize) -> Result<Request, String>;
    /// The engine's reply to core `tid`'s in-flight request.
    fn observe(&mut self, tid: usize, reply: Reply) -> Result<(), String>;
}

/// Why a [`Machine::run_source`] run stopped early.
#[derive(Debug)]
pub struct SourceAbort {
    /// One-line failure reason (divergence detail, deadlock, watchdog…).
    pub reason: String,
    /// Full rendered failure report: reason, protocol-trace window,
    /// in-flight protocol state, lease tables, pending ops.
    pub report: String,
}

/// Result of [`Machine::run_recorded`]: the usual run outputs plus the
/// captured trace, ready for [`tracefmt::encode`].
pub struct RecordedRun {
    pub stats: MachineStats,
    pub mem: SimMemory,
    /// Discrete events the engine processed.
    pub events: u64,
    pub trace: MachineTrace,
}

/// How `run_inner` is driven: live OS-thread workers (optionally
/// recording) or an engine-only [`OpSource`].
enum Mode<'a> {
    Live {
        programs: Vec<ThreadFn>,
        record: bool,
    },
    Source {
        threads: usize,
        source: &'a mut dyn OpSource,
    },
}

/// Where requests come from and replies go to: the live rendezvous slots
/// or an [`OpSource`] feeding recorded ops from the engine's own thread.
enum Transport<'a> {
    Live {
        req_rx: Vec<SlotReceiver<Request>>,
        reply_tx: Vec<SlotSender<Reply>>,
    },
    Source(&'a mut dyn OpSource),
}

impl Transport<'_> {
    fn recv(&mut self, tid: usize) -> Result<Request, String> {
        match self {
            Transport::Live { req_rx, .. } => req_rx[tid]
                .recv()
                .map_err(|_| format!("core {tid}: worker hung up without sending Exit")),
            Transport::Source(src) => src.next(tid),
        }
    }

    fn reply(&mut self, tid: usize, r: Reply) -> Result<(), String> {
        match self {
            Transport::Live { reply_tx, .. } => reply_tx[tid]
                .send(r)
                .map_err(|_| format!("core {tid}: worker hung up before receiving its reply")),
            Transport::Source(src) => src.observe(tid, r),
        }
    }
}

/// Where a live run dumps its captured trace: a directory plus a
/// caller-chosen label naming the run (e.g. `fig3_counter.lr.t8` for one
/// sweep cell). The label keeps filenames meaningful and collision-free
/// across concurrent sweep workers writing into one directory.
#[derive(Debug, Clone)]
pub struct TraceOutput {
    pub dir: PathBuf,
    pub label: String,
}

/// Keep labels filesystem-safe: anything outside `[A-Za-z0-9._-]`
/// becomes `-`, and an empty label falls back to `trace`.
fn sanitize_label(label: &str) -> String {
    let s: String = label
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-') {
                c
            } else {
                '-'
            }
        })
        .collect();
    if s.is_empty() {
        "trace".to_string()
    } else {
        s
    }
}

/// Create the first free `{label}_{fingerprint}[-k].lrt` name in `dir`,
/// atomically (`create_new`): two runs racing on the same label each get
/// their own file, never a silent overwrite.
fn create_trace_file(
    dir: &Path,
    label: &str,
    trace: &MachineTrace,
) -> std::io::Result<(std::fs::File, PathBuf)> {
    std::fs::create_dir_all(dir)?;
    let stem = format!(
        "{}_{:016x}",
        sanitize_label(label),
        tracefmt::config_fingerprint(&trace.config)
    );
    for k in 1u64.. {
        let name = if k == 1 {
            format!("{stem}.{}", tracefmt::TRACE_EXT)
        } else {
            format!("{stem}-{k}.{}", tracefmt::TRACE_EXT)
        };
        let path = dir.join(name);
        match std::fs::OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(&path)
        {
            Ok(f) => return Ok((f, path)),
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => continue,
            Err(e) => return Err(e),
        }
    }
    unreachable!("u64 sequence space exhausted")
}

/// Best-effort trace write for [`Machine::with_trace_output`]: IO failure
/// warns on stderr rather than failing an otherwise-successful simulation.
fn write_trace_file(out: &TraceOutput, trace: &MachineTrace) {
    use std::io::Write;
    let bytes = tracefmt::encode(trace);
    let res = create_trace_file(&out.dir, &out.label, trace)
        .and_then(|(mut f, path)| f.write_all(&bytes).map(|()| path));
    if let Err(e) = res {
        eprintln!(
            "lr-machine: cannot write trace {:?} into {}: {e}",
            out.label,
            out.dir.display()
        );
    }
}

/// Yield-phase budget pool for worker reply receivers, divided by the
/// worker count: the more workers are waiting, the longer each host
/// scheduling rotation, so the quicker each should fall back to parking
/// (see the comment at the `slot()` construction site in
/// [`Machine::run_with_memory`]).
const WORKER_YIELD_CAP: u32 = 16;

/// Host-level observability for one run: how the execution engine (not
/// the simulated machine) behaved. Kept out of [`MachineStats`] so the
/// published simulated metrics stay exactly the paper's — and so the
/// simulated results provably cannot depend on the executor shape.
#[derive(Debug, Clone, Copy)]
pub struct EngineInfo {
    /// Discrete events the engine processed.
    pub events: u64,
    /// Partition count the run actually used (after clamping).
    pub shards: usize,
    /// Events delivered across a partition boundary (mailbox traffic).
    pub cross_events: u64,
    /// Events whose timestamp preceded every other partition's safe
    /// horizon (head + lookahead): the events a conservative PDES
    /// executor may commit concurrently without risking causality.
    /// Maintained on the `pop_global` (lockstep) path.
    pub concurrent_events: u64,
    /// Safe-time epochs the partitioned clocks advanced through
    /// (`pop_global` path).
    pub epochs: u64,
    /// Conservative lookahead (cycles) stamped on cross-partition sends.
    pub lookahead: Cycle,
    /// Non-empty per-partition window batches the relaxed executor
    /// committed (0 under lockstep driving).
    pub commit_batches: u64,
    /// Largest single per-partition window batch committed.
    pub max_batch: u64,
    /// Heap ops (`Malloc`/`Free`) routed as messages to the allocator
    /// home tile — each one a NoC round trip charged to the issuing
    /// thread. Steady-state scenarios built on pre-allocated pools
    /// (the delegation locks) assert this stays 0, so the home-tile
    /// hotspot can never distort a lock comparison.
    pub alloc_msgs: u64,
}

/// Executor observability counters, read off the event store after a
/// run. The engine always uses [`ShardedQueue`] (shards = 1 is a single
/// partition — the classic engine with a mailbox layer that never
/// fires), so every run reports the same counter set.
fn queue_info(q: &ShardedQueue<Ev>) -> EngineInfo {
    EngineInfo {
        events: q.processed(),
        shards: q.map().partitions(),
        cross_events: q.cross_events(),
        concurrent_events: q.concurrent_events(),
        epochs: q.epochs(),
        lookahead: q.lookahead(),
        commit_batches: q.commit_batches(),
        max_batch: q.max_batch(),
        // Counted per partition while applying `Ev::MemReq`; summed in
        // by the run loop, which owns the partition contexts.
        alloc_msgs: 0,
    }
}

/// Engine events. Every variant executes at exactly one tile
/// ([`Ev::tile`]), and applying it touches only state owned by that
/// tile — the property that makes relaxed window commit sound.
#[derive(Debug)]
enum Ev {
    /// Wait for the worker's first request.
    Start(usize),
    /// A worker's instruction reaches its issue time.
    OpStart(usize),
    /// A worker's instruction completes (data moves now).
    OpComplete(usize),
    /// Coherence-protocol event, delivered at the named tile.
    Coh(u16, CohEvent),
    /// A lease counter reached zero (Algorithm 1 `ZERO-COUNTER`).
    Expiry {
        core: CoreId,
        line: LineAddr,
        generation: u64,
    },
    /// A heap request reached the allocator home tile.
    MemReq { tid: usize, op: HeapOp },
    /// The allocator's reply reached the requesting core.
    MemReply { tid: usize, value: u64 },
}

// Every queued engine event is one of these: a coherence message plus
// its delivery tile is the largest, so keep the rest within it.
const _: () = assert!(std::mem::size_of::<Ev>() <= 56);

/// A heap request carried by [`Ev::MemReq`]: only the two heap ops, so
/// the message stays a fraction of a full [`Op`].
#[derive(Debug, Clone, Copy)]
enum HeapOp {
    Malloc { size: u64, align: u64 },
    Free(lr_sim_core::Addr),
}

impl Ev {
    /// The tile this event executes at (selects the owning partition).
    fn tile(&self) -> usize {
        match self {
            Ev::Start(tid) | Ev::OpStart(tid) | Ev::OpComplete(tid) => *tid,
            Ev::Coh(dest, _) => *dest as usize,
            Ev::Expiry { core, .. } => core.idx(),
            Ev::MemReq { .. } => ALLOC_HOME,
            Ev::MemReply { tid, .. } => *tid,
        }
    }
}

/// Per-core lease statistics collected by the machine layer.
#[derive(Debug, Default, Clone)]
struct LeaseCounters {
    taken: u64,
    voluntary: u64,
    involuntary: u64,
    overflow: u64,
    broken: u64,
    multileases: u64,
}

/// In-flight instruction state per worker.
#[derive(Debug)]
enum Pending {
    /// Received from the worker, waiting for its issue time.
    Incoming(Op),
    /// A data access in the protocol; data moves at completion.
    Data { op: Op, issued: Cycle },
    /// A single-lease acquisition in the protocol.
    LeaseAcq { issued: Cycle },
    /// A MultiLease group acquisition: lines acquired one at a time in
    /// global order (Algorithm 2).
    Multi {
        lines: Vec<LineAddr>,
        idx: usize,
        issued: Cycle,
    },
    /// A heap request in flight to/from the allocator home tile.
    Alloc { issued: Cycle },
    /// Immediate completion with a precomputed result.
    Imm {
        value: u64,
        flag: bool,
        issued: Cycle,
    },
}

/// Reusable machine-loop buffers, one set per partition.
/// Deferred-effect staging ping-pongs between here and [`PartCtx`] (see
/// [`EngineCore::drain`]) so the steady-state loop performs no per-event
/// heap allocation.
#[derive(Default)]
struct Scratch {
    pins: Vec<(CoreId, LineAddr)>,
    rels: Vec<(CoreId, LineAddr)>,
    completions: Vec<(u64, Cycle)>,
    /// Release/expiry result lines for the machine-loop paths.
    lines: Vec<LineAddr>,
}

/// Machine state shared across partitions. Every access is keyed by the
/// executing event's tile — queue pushes by source partition, lease
/// tables and counters by core — so concurrent window commits touch
/// disjoint slices. The structured trace ring is the exception: it is
/// one globally-ordered window, so live runs with tracing on commit in
/// lockstep (see `run_inner`).
struct Shared {
    queue: ShardedQueue<Ev>,
    tables: Vec<LeaseTable>,
    lc: Vec<LeaseCounters>,
    prioritization: bool,
    /// Structured trace window (depth 0 = off) fed by both the engine
    /// (through the [`CohContext`] hooks) and the machine loop itself.
    trace: TraceRing,
}

/// Per-partition engine-call context: the base time/tile of the event
/// being applied (every `schedule` is relative to them, and the tile
/// both stamps the canonical push key and names the source partition)
/// plus the deferred-effect and reuse buffers that used to be global —
/// one set per partition so relaxed window commits never share them.
#[derive(Default)]
struct PartCtx {
    /// Base time of the engine call in progress (schedule() is relative).
    base: Cycle,
    /// Tile of the event being applied (push source / canonical key).
    tile: usize,
    /// Deferred effects, drained after every engine call.
    completions: Vec<(u64, Cycle)>,
    to_pin: Vec<(CoreId, LineAddr)>,
    deferred_release: Vec<(CoreId, LineAddr)>,
    /// Reusable buffer for lease-release results inside the `CohContext`
    /// hooks (the hook signatures are fixed, so the scratch lives here).
    released_scratch: Vec<LineAddr>,
    /// Reusable sorted copy of the engine's pinned-ways set for
    /// [`CohContext::pinned_victim`] membership tests.
    pinned_scratch: Vec<LineAddr>,
    /// Reusable buffer for counters armed by an exclusive grant.
    armed_scratch: Vec<ArmedCounter>,
    /// Events this partition applied — its share of the watchdog event
    /// budget (the exact global count is only read at executor
    /// synchronization points).
    applied: u64,
    /// `Ev::MemReq` events (heap ops routed to the allocator home tile)
    /// this partition applied; summed into [`EngineInfo::alloc_msgs`].
    alloc_msgs: u64,
}

/// The [`CohContext`] the engine sees: the tile-sliced shared state plus
/// the executing partition's context, borrowed disjointly from
/// [`EngineCore`] for the duration of one engine call.
struct Ctx<'a> {
    shared: &'a mut Shared,
    ps: &'a mut PartCtx,
}

impl CohContext for Ctx<'_> {
    fn schedule(&mut self, delay: Cycle, dest: CoreId, ev: CohEvent) {
        self.shared.queue.push(
            self.ps.tile,
            self.ps.base,
            dest.idx(),
            self.ps.base + delay,
            Ev::Coh(dest.0, ev),
        );
    }

    fn tracing(&self) -> bool {
        self.shared.trace.enabled()
    }

    fn trace(&mut self, now: Cycle, ev: TraceEvent) {
        self.shared.trace.record(now, ev);
    }

    fn xact_completed(&mut self, token: u64, now: Cycle) {
        self.ps.completions.push((token, now));
    }

    fn probe_action(
        &mut self,
        owner: CoreId,
        line: LineAddr,
        regular: bool,
        now: Cycle,
    ) -> ProbeAction {
        match self.shared.tables[owner.idx()].state(line, now) {
            lr_lease::LeaseState::NotLeased => ProbeAction::Proceed,
            // The entry exists but ownership has not been (re-)acquired
            // under it: the line is merely stale-owned, so the probe may
            // take it (the group's own request will fetch it back later,
            // in sorted order — this is what keeps MultiLease
            // deadlock-free, Proposition 3).
            lr_lease::LeaseState::Pending => ProbeAction::Proceed,
            lr_lease::LeaseState::Active => {
                if regular && self.shared.prioritization {
                    // §5 prioritization: a regular request breaks the lease.
                    let found = self.shared.tables[owner.idx()]
                        .release_into(line, &mut self.ps.released_scratch);
                    assert!(found, "Active lease vanished under release");
                    self.shared.lc[owner.idx()].broken += self.ps.released_scratch.len() as u64;
                    for &l in &self.ps.released_scratch {
                        if l != line {
                            self.ps.deferred_release.push((owner, l));
                        }
                    }
                    ProbeAction::ProceedBreakingLease
                } else {
                    ProbeAction::Queue
                }
            }
            // Expired but the expiry event has not fired yet (tie at the
            // same cycle): finish the involuntary release in place.
            lr_lease::LeaseState::Expired => {
                let found = self.shared.tables[owner.idx()]
                    .release_into(line, &mut self.ps.released_scratch);
                assert!(found, "Expired lease vanished under release");
                self.shared.lc[owner.idx()].involuntary += self.ps.released_scratch.len() as u64;
                for &l in &self.ps.released_scratch {
                    if l != line {
                        self.ps.deferred_release.push((owner, l));
                    }
                }
                ProbeAction::ProceedBreakingLease
            }
        }
    }

    fn exclusive_granted(&mut self, core: CoreId, line: LineAddr, now: Cycle) {
        self.shared.tables[core.idx()].on_exclusive_granted_into(
            line,
            now,
            &mut self.ps.armed_scratch,
        );
        if self.shared.tables[core.idx()].is_leased(line, now) {
            self.ps.to_pin.push((core, line));
        }
        for a in &self.ps.armed_scratch {
            // Expiries fire at the leasing core's own tile. Grants are
            // delivered at that same tile, so this is a same-tile push.
            self.shared.queue.push(
                self.ps.tile,
                self.ps.base,
                core.idx(),
                a.expires,
                Ev::Expiry {
                    core,
                    line: a.line,
                    generation: a.generation,
                },
            );
        }
    }

    fn pinned_victim(
        &mut self,
        core: CoreId,
        pinned: &[LineAddr],
        _now: Cycle,
    ) -> Option<LineAddr> {
        // Oldest lease first (FIFO), matching Algorithm 1's replacement.
        // Membership is a binary search against a sorted copy of the
        // pinned set (O(leases·log pinned)) instead of a linear
        // `contains` per lease line.
        self.ps.pinned_scratch.clear();
        self.ps.pinned_scratch.extend_from_slice(pinned);
        self.ps.pinned_scratch.sort_unstable();
        if let Some(l) = self.shared.tables[core.idx()].oldest_member(&self.ps.pinned_scratch) {
            self.shared.lc[core.idx()].overflow += 1;
            if self.shared.tables[core.idx()].release_into(l, &mut self.ps.released_scratch) {
                for &m in &self.ps.released_scratch {
                    if m != l {
                        self.ps.deferred_release.push((core, m));
                    }
                }
            }
            return Some(l);
        }
        // Stale pin (lease already gone): let the engine unpin it.
        pinned.first().copied()
    }

    fn line_invalidated(&mut self, core: CoreId, line: LineAddr, _now: Cycle) {
        if self.shared.tables[core.idx()].release_into(line, &mut self.ps.released_scratch) {
            self.shared.lc[core.idx()].involuntary += self.ps.released_scratch.len() as u64;
            for &m in &self.ps.released_scratch {
                if m != line {
                    self.ps.deferred_release.push((core, m));
                }
            }
        }
    }
}

/// The simulated machine: configure, set up shared simulated memory, then
/// run a set of workload threads to completion.
///
/// ```
/// use lr_machine::{Machine, SystemConfig, ThreadCtx, ThreadFn};
///
/// let mut machine = Machine::new(SystemConfig::with_cores(2));
/// let cell = machine.setup(|mem| mem.alloc_line_aligned(8));
/// let progs: Vec<ThreadFn> = (0..2)
///     .map(|_| {
///         Box::new(move |ctx: &mut ThreadCtx| {
///             // Lease the line for the read–CAS window (paper Fig. 1).
///             loop {
///                 ctx.lease_max(cell);
///                 let v = ctx.read(cell);
///                 let ok = ctx.cas(cell, v, v + 1);
///                 ctx.release(cell);
///                 if ok { break; }
///             }
///             ctx.count_op();
///         }) as ThreadFn
///     })
///     .collect();
/// let (stats, mem) = machine.run_with_memory(progs);
/// assert_eq!(mem.read_word(cell), 2);
/// assert_eq!(stats.app_ops, 2);
/// assert_eq!(stats.core_totals().cas_failures, 0);
/// ```
pub struct Machine {
    cfg: SystemConfig,
    mem: SimMemory,
    trace_depth: usize,
    /// Explicit event-queue store override; `None` follows the
    /// process-wide `LR_EVENTQ` default.
    eventq: Option<EventQueueKind>,
    /// Explicit engine-partition override; `None` follows the
    /// process-wide `LR_ENGINE_SHARDS` default.
    engine_shards: Option<usize>,
    /// Explicit commit-mode override; `None` follows the process-wide
    /// `LR_ENGINE_COMMIT` default.
    commit: Option<CommitMode>,
    /// When set, a live run records itself and writes the trace here.
    trace_out: Option<TraceOutput>,
    /// Skip the distance-aware per-partition-pair lookahead matrix and
    /// run the uniform scalar window (the pre-refinement behaviour).
    uniform_lookahead: bool,
}

// The `lr-bench` sweep driver constructs and runs one `Machine` per
// grid cell from parallel host worker threads. Machines (and the
// workload closures they accept) must therefore stay Send; this fails
// compilation if a non-Send field (Rc, raw-pointer cache, ...) is ever
// introduced.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Machine>();
    assert_send::<ThreadFn>();
};

impl Machine {
    /// A machine with the given configuration and an empty heap.
    pub fn new(cfg: SystemConfig) -> Self {
        assert!(
            cfg.num_cores >= 1 && cfg.num_cores <= lr_sim_core::MAX_CORES,
            "the machine supports 1 to {} cores, not {}",
            lr_sim_core::MAX_CORES,
            cfg.num_cores
        );
        Machine {
            cfg,
            mem: SimMemory::new(),
            trace_depth: 0,
            eventq: None,
            engine_shards: None,
            commit: None,
            trace_out: None,
            uniform_lookahead: false,
        }
    }

    /// Pin this machine to a specific event-queue store, bypassing the
    /// `LR_EVENTQ` process default. Simulated results are required to be
    /// byte-identical across stores; this exists for the tests that
    /// prove it (heap/wheel A/B) — production callers keep the default.
    pub fn with_event_queue(mut self, kind: EventQueueKind) -> Self {
        self.eventq = Some(kind);
        self
    }

    /// Partition the engine into `n` conservatively-synchronized PDES
    /// partitions (tile slices), bypassing the `LR_ENGINE_SHARDS`
    /// process default. `n` is clamped to `[1, num_cores]`; 1 is the
    /// classic single event loop. Simulated results are required to be
    /// byte-identical for every shard count — the shard A/B tests and
    /// the CI gate prove it; production callers keep the default.
    pub fn with_engine_shards(mut self, n: usize) -> Self {
        self.engine_shards = Some(n.max(1));
        self
    }

    /// Fall back to the uniform scalar lookahead instead of the
    /// distance-aware per-partition-pair matrix. Simulated results are
    /// byte-identical either way (the matrix only widens safe windows,
    /// it never reorders commits); this exists for the occupancy A/B
    /// in the `pdes_scaling` benchmark scenario.
    pub fn with_uniform_lookahead(mut self) -> Self {
        self.uniform_lookahead = true;
        self
    }

    /// Pin this machine to a commit mode, bypassing the
    /// `LR_ENGINE_COMMIT` process default. Simulated results are
    /// required to be byte-identical across modes — the commit A/B
    /// tests and the CI lockstep-vs-relaxed gate prove it.
    pub fn with_commit_mode(mut self, mode: CommitMode) -> Self {
        self.commit = Some(mode);
        self
    }

    /// Keep a ring of the last `depth` structured protocol/machine trace
    /// events ([`lr_sim_core::TraceEvent`]) and include the window in the
    /// failure report emitted on watchdog trips, deadlocks, or invariant
    /// violations (0 = off, the default). Events are plain `Copy` records;
    /// nothing is formatted unless a report is actually printed.
    ///
    /// The ring is one globally-ordered window, so live runs with
    /// `depth > 0` commit in lockstep regardless of the commit mode.
    pub fn with_trace(mut self, depth: usize) -> Self {
        self.trace_depth = depth;
        self
    }

    /// Record this machine's live run and write the captured trace into
    /// `dir` as `{label}_{config-fingerprint}.lrt` (a `-2`, `-3`, …
    /// suffix is appended if the name is taken — creation is atomic, so
    /// concurrent runs sharing a directory never overwrite each other).
    /// The explicit (dir, label) pair replaces the old process-global
    /// `LR_TRACE_DIR` env probe: drivers thread their record directory
    /// through here, and any env knob is resolved once at the entry
    /// point, never per-`Machine`.
    pub fn with_trace_output(mut self, dir: impl Into<PathBuf>, label: impl Into<String>) -> Self {
        self.trace_out = Some(TraceOutput {
            dir: dir.into(),
            label: label.into(),
        });
        self
    }

    /// The machine's configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// Pre-run setup: allocate and initialize shared structures directly
    /// in simulated memory (charges no simulated time).
    pub fn setup<R>(&mut self, f: impl FnOnce(&mut SimMemory) -> R) -> R {
        f(&mut self.mem)
    }

    /// Run `programs` (one per core, at most `num_cores`) to completion
    /// and return the merged statistics.
    ///
    /// Panics if any worker panics, if the watchdog limits are exceeded,
    /// or if protocol invariants are violated at quiescence.
    pub fn run(self, programs: Vec<ThreadFn>) -> MachineStats {
        self.run_with_memory(programs).0
    }

    /// Like [`Machine::run`], additionally returning the final simulated
    /// memory for post-run audits (rank sums, final counter values, ...).
    pub fn run_with_memory(self, programs: Vec<ThreadFn>) -> (MachineStats, SimMemory) {
        let (stats, mem, _events) = self.run_counted(programs);
        (stats, mem)
    }

    /// Like [`Machine::run_with_memory`], additionally returning the
    /// number of discrete events the engine processed — the denominator
    /// for host-throughput measurements (`engine_throughput` scenario).
    /// Kept out of [`MachineStats`] so the published simulated metrics
    /// stay exactly the paper's.
    pub fn run_counted(self, programs: Vec<ThreadFn>) -> (MachineStats, SimMemory, u64) {
        let (stats, mem, info) = self.run_counted_info(programs);
        (stats, mem, info.events)
    }

    /// Like [`Machine::run_counted`], returning the full [`EngineInfo`]
    /// (shard count, cross-partition traffic, concurrency headroom) for
    /// the PDES-scaling measurements instead of the bare event count.
    pub fn run_counted_info(
        self,
        programs: Vec<ThreadFn>,
    ) -> (MachineStats, SimMemory, EngineInfo) {
        match self.run_inner(Mode::Live {
            programs,
            record: false,
        }) {
            Ok((stats, mem, info, _)) => (stats, mem, info),
            // Live-mode failures panic inside run_inner; keep the
            // fallback for type completeness.
            Err(abort) => panic!("{}", abort.report),
        }
    }

    /// Like [`Machine::run_counted`], additionally capturing every
    /// worker's op stream (operands, issue times, and observed replies)
    /// plus a pre-run memory snapshot, as a [`MachineTrace`] ready for
    /// [`tracefmt::encode`] and later engine-only replay.
    pub fn run_recorded(self, programs: Vec<ThreadFn>) -> RecordedRun {
        match self.run_inner(Mode::Live {
            programs,
            record: true,
        }) {
            Ok((stats, mem, info, trace)) => RecordedRun {
                stats,
                mem,
                events: info.events,
                trace: trace.expect("recording run produces a trace"),
            },
            Err(abort) => panic!("{}", abort.report),
        }
    }

    /// Engine-only run: instead of spawning workers, pull every request
    /// from `source` on the engine's own thread — no rendezvous slots, no
    /// parked OS threads. `threads` is the simulated core count to drive
    /// (must match the recording for faithful replay). Failures —
    /// including `source` reporting divergence — return a structured
    /// [`SourceAbort`] instead of panicking.
    pub fn run_source(
        self,
        threads: usize,
        source: &mut dyn OpSource,
    ) -> Result<(MachineStats, SimMemory, u64), Box<SourceAbort>> {
        let (stats, mem, info, _) = self.run_inner(Mode::Source { threads, source })?;
        Ok((stats, mem, info.events))
    }

    #[allow(clippy::type_complexity)]
    fn run_inner(
        self,
        mode: Mode<'_>,
    ) -> Result<(MachineStats, SimMemory, EngineInfo, Option<MachineTrace>), Box<SourceAbort>> {
        let trace_depth = self.trace_depth;
        let trace_out = self.trace_out;
        let cfg = self.cfg;
        let shards = self
            .engine_shards
            .unwrap_or_else(engine_shards_from_env)
            .clamp(1, cfg.num_cores);
        let kind = self.eventq.unwrap_or_else(EventQueueKind::from_env);
        let (n, is_live) = match &mode {
            Mode::Live { programs, .. } => (programs.len(), true),
            Mode::Source { threads, .. } => (*threads, false),
        };
        assert!(n >= 1, "no workload threads");
        assert!(
            n <= cfg.num_cores,
            "{n} threads exceed {} cores",
            cfg.num_cores
        );
        // The structured trace ring is one globally-ordered window; the
        // host-parallel relaxed executor cannot feed it, so live tracing
        // runs fall back to lockstep. Engine-only source runs stay
        // single-threaded in every commit mode and may keep the ring —
        // this is what lets `lr-replay` exercise the relaxed executor.
        let mut commit = self.commit.unwrap_or_else(engine_commit_from_env);
        if trace_depth > 0 && is_live {
            commit = CommitMode::Lockstep;
        }

        // Recording is on when explicitly requested (run_recorded) or
        // when a trace output destination was configured.
        let trace_out = if is_live { trace_out } else { None };
        let record = trace_out.is_some() || matches!(mode, Mode::Live { record: true, .. });

        let engine = CoherenceEngine::new(&cfg);
        let mem = self.mem;
        // Conservative-PDES lookahead: every cross-partition event rides
        // at least one cross-tile NoC message — except a probe that
        // races an eviction, which is served from the requester's own
        // home slice (L2 tag + data + local hop); the min() covers that
        // degenerate path for configs with tiny L2 latencies.
        let lookahead = engine
            .noc_min_lookahead()
            .min(cfg.l2_tag_latency + cfg.l2_data_latency + 1);
        // The replayer restores this exact image before re-driving ops,
        // so it must be taken before any simulated execution.
        let pre_image = record.then(|| mem.snapshot());
        let sink: Option<RecordSink> =
            record.then(|| Arc::new(Mutex::new((0..n).map(|_| None).collect())));
        let mut queue = ShardedQueue::with_kind(kind, cfg.num_cores, shards, lookahead);
        // Distance-aware refinement: a pair of partitions exchanges
        // events no faster than the cheapest NoC message between their
        // tile blocks, so mesh-distant (and above all cross-socket)
        // pairs admit proportionally wider safe windows. The same
        // eviction-race cap as the scalar applies per pair, which also
        // keeps every entry ≥ the scalar.
        if queue.map().partitions() > 1 && !self.uniform_lookahead {
            let cap = cfg.l2_tag_latency + cfg.l2_data_latency + 1;
            let m: Vec<Vec<Cycle>> = engine
                .pair_lookahead(&queue.map())
                .into_iter()
                .map(|row| row.into_iter().map(|v| v.min(cap)).collect())
                .collect();
            queue.set_pair_lookahead(m);
        }
        let parts = queue.map().partitions();
        let mut shared = Shared {
            queue,
            tables: (0..cfg.num_cores)
                .map(|_| LeaseTable::new(cfg.lease.clone()))
                .collect(),
            lc: vec![LeaseCounters::default(); cfg.num_cores],
            prioritization: cfg.lease.prioritization,
            trace: TraceRing::new(trace_depth),
        };

        let (transport, handles) = match mode {
            Mode::Live { programs, .. } => {
                let mut req_rx: Vec<SlotReceiver<Request>> = Vec::with_capacity(n);
                let mut reply_tx: Vec<SlotSender<Reply>> = Vec::with_capacity(n);
                let mut handles = Vec::with_capacity(n);
                for (tid, f) in programs.into_iter().enumerate() {
                    let (rtx, rrx) = slot::<Request>();
                    let (ptx, prx) = slot::<Reply>();
                    // A worker's reply may be many engine events away (other
                    // workers' ops are simulated first), so park early instead of
                    // lingering in the host scheduler's rotation and slowing the
                    // handoffs of the pair that is making progress. The engine's
                    // request receiver keeps the default (large) cap: the worker
                    // it just woke is always the very next sender.
                    let prx = prx.with_yield_cap(WORKER_YIELD_CAP / n as u32);
                    let rec = sink.as_ref().map(|s| Recorder::new(s.clone()));
                    let mut tctx = ThreadCtx::new(
                        tid,
                        cfg.instruction_cost,
                        cfg.lease.clone(),
                        cfg.seed,
                        rtx,
                        prx,
                        rec,
                    );
                    handles.push(std::thread::spawn(move || {
                        let r = std::panic::catch_unwind(AssertUnwindSafe(|| f(&mut tctx)));
                        tctx.send_exit(r.is_err());
                    }));
                    req_rx.push(rrx);
                    reply_tx.push(ptx);
                }
                (Transport::Live { req_rx, reply_tx }, handles)
            }
            Mode::Source { source, .. } => (Transport::Source(source), Vec::new()),
        };
        // Setup pushes: same-tile sends at t = 0, before any pop — the
        // lookahead discipline never applies to them.
        for tid in 0..n {
            shared.queue.push(tid, 0, tid, 0, Ev::Start(tid));
        }

        let mut core = EngineCore {
            cfg,
            engine,
            shared,
            pctx: (0..parts).map(|_| PartCtx::default()).collect(),
            scratch: (0..parts).map(|_| Scratch::default()).collect(),
            mem,
            transport,
            pending: (0..n).map(|_| None).collect(),
            live: AtomicUsize::new(n),
            finish_time: AtomicU64::new(0),
            exit_inst: vec![0u64; n],
            exit_ops: vec![0u64; n],
            panicked: Mutex::new(Vec::new()),
        };

        // Any failure inside the event loop — watchdog trip, protocol
        // assertion (panic), divergence or deadlock (Err) — is caught
        // and rendered as one coherent report: the failure reason, the
        // trace window, the in-flight protocol state, and every core's
        // lease table. Live runs re-raise the report as a panic; source
        // runs hand it back as a structured `SourceAbort`.
        //
        // Executor choice (N = partitions after clamping):
        //  * N > 1, relaxed, live   → safe-window batches on N host
        //    threads, synchronizing only at window boundaries.
        //  * N > 1, relaxed, source → the same windowed schedule on the
        //    engine's own thread (replay's commit-mode oracle).
        //  * N > 1, lockstep, live  → one host thread per partition,
        //    conservative turn protocol (one event at a time).
        //  * otherwise              → the classic sequential loop.
        // All four run the same per-event `apply`; the first two commit
        // in per-partition window order, the rest in global `(time,
        // key)` order — and the tile-local state discipline makes the
        // simulated results byte-identical either way.
        let relaxed = parts > 1 && commit == CommitMode::Relaxed;
        if relaxed {
            // Mid-flight per-line invariant sweeps read other tiles'
            // caches — between window barriers that is both racy and
            // spuriously wrong (a grant can commit before an
            // earlier-timed invalidation settles in another partition's
            // batch). Quiescence checks still run in finish_checks.
            core.engine.set_strict_at(false);
        }
        let loop_result = if relaxed && is_live {
            run_relaxed_live(&mut core, parts).and_then(|()| {
                std::panic::catch_unwind(AssertUnwindSafe(|| core.finish_checks()))
                    .unwrap_or_else(|p| Err(panic_payload_msg(p.as_ref())))
            })
        } else if relaxed {
            let c = &mut core;
            std::panic::catch_unwind(AssertUnwindSafe(|| -> Result<(), String> {
                run_relaxed_serial(c)?;
                c.finish_checks()
            }))
            .unwrap_or_else(|p| Err(panic_payload_msg(p.as_ref())))
        } else if is_live && parts > 1 {
            run_threaded(&mut core, parts).and_then(|()| {
                std::panic::catch_unwind(AssertUnwindSafe(|| core.finish_checks()))
                    .unwrap_or_else(|p| Err(panic_payload_msg(p.as_ref())))
            })
        } else {
            let c = &mut core;
            std::panic::catch_unwind(AssertUnwindSafe(|| -> Result<(), String> {
                while let Some((t, p, ev)) = c.shared.queue.pop_global() {
                    c.apply(p, t, ev)?;
                }
                c.finish_checks()
            }))
            .unwrap_or_else(|p| Err(panic_payload_msg(p.as_ref())))
        };
        if let Err(reason) = loop_result {
            let report = render_failure_report(&reason, &core.shared, &core.engine, &core.pending);
            if is_live {
                panic!("{report}");
            }
            return Err(Box::new(SourceAbort { reason, report }));
        }
        let EngineCore {
            cfg,
            engine,
            shared,
            pctx,
            scratch: _,
            mem,
            transport,
            pending,
            live: _,
            finish_time,
            exit_inst,
            exit_ops,
            panicked,
        } = core;
        drop(transport);

        for h in handles {
            let _ = h.join();
        }
        let panicked = panicked.into_inner().unwrap_or_else(|e| e.into_inner());
        if !panicked.is_empty() {
            // Same coherent report as a loop failure: the worker panic is
            // the reason, the protocol state is the context.
            let reason = format!("workload thread(s) {panicked:?} panicked inside the simulation");
            panic!(
                "{}",
                render_failure_report(&reason, &shared, &engine, &pending)
            );
        }

        let mut info = queue_info(&shared.queue);
        info.alloc_msgs = pctx.iter().map(|c| c.alloc_msgs).sum();
        let mut stats = engine.stats();
        stats.total_cycles = finish_time.into_inner();
        stats.app_ops = exit_ops.iter().sum();
        for (tid, c) in stats.cores.iter_mut().enumerate().take(n) {
            c.instructions += exit_inst[tid];
            let lc = &shared.lc[tid];
            c.leases_taken += lc.taken;
            c.releases_voluntary += lc.voluntary;
            c.releases_involuntary += lc.involuntary;
            c.lease_overflows += lc.overflow;
            c.leases_broken_by_priority += lc.broken;
            c.multileases += lc.multileases;
        }

        let trace = match sink {
            Some(sink) => {
                // Workers deposited their streams before sending Exit,
                // and every Exit has been received, so the sink is full.
                let mut slots = sink.lock().unwrap_or_else(|e| e.into_inner());
                let cores: Vec<Vec<OpRecord>> = slots
                    .iter_mut()
                    .map(|s| s.take().unwrap_or_default())
                    .collect();
                let trace = MachineTrace {
                    config: cfg.clone(),
                    mem: pre_image.expect("snapshot taken when recording"),
                    cores,
                    stats_json: stats.to_json(),
                    live_events: info.events,
                };
                if let Some(out) = &trace_out {
                    write_trace_file(out, &trace);
                }
                Some(trace)
            }
            None => None,
        };
        Ok((stats, mem, info, trace))
    }
}

/// The engine state: protocol, lease tables, event store, simulated
/// memory, worker transport, and per-core completion bookkeeping.
///
/// Every event goes through [`EngineCore::apply`] with the partition
/// that owns it, and applying an event touches only state owned by the
/// event's tile: its queue partition (plus the source-side outbox rows
/// of the sharded queue), its tiles' engine slices, its cores' lease
/// tables/counters/pending slots/rendezvous endpoints, its partition's
/// context and scratch. The relaxed live executor relies on exactly
/// this — it applies events of *different* partitions concurrently
/// through a shared pointer, with cross-partition effects riding staged
/// messages that are only delivered at window boundaries. The few
/// fields any partition may touch (`live`, `finish_time`, `panicked`)
/// are synchronized explicitly.
struct EngineCore<'a> {
    cfg: SystemConfig,
    engine: CoherenceEngine,
    shared: Shared,
    pctx: Vec<PartCtx>,
    scratch: Vec<Scratch>,
    mem: SimMemory,
    transport: Transport<'a>,
    pending: Vec<Option<Pending>>,
    live: AtomicUsize,
    finish_time: AtomicU64,
    exit_inst: Vec<u64>,
    exit_ops: Vec<u64>,
    panicked: Mutex<Vec<usize>>,
}

impl EngineCore<'_> {
    /// Apply one popped event of partition `p` at time `t`: the single
    /// step every executor is built from.
    fn apply(&mut self, p: usize, t: Cycle, ev: Ev) -> Result<(), String> {
        debug_assert_eq!(
            self.shared.queue.map().partition_of(ev.tile()),
            p,
            "event applied by the wrong partition"
        );
        assert!(
            t <= self.cfg.watchdog_max_cycles,
            "watchdog: simulated time exceeded {} cycles (livelock?)",
            self.cfg.watchdog_max_cycles
        );
        {
            let ps = &mut self.pctx[p];
            // Per-partition share of the event budget (any partition
            // crossing the whole budget alone has certainly blown it;
            // the exact global count is checked at executor
            // synchronization points).
            ps.applied += 1;
            assert!(
                ps.applied <= self.cfg.watchdog_max_events,
                "watchdog: event budget exceeded"
            );
            ps.base = t;
            ps.tile = ev.tile();
        }
        match ev {
            Ev::Start(tid) => self.await_request(tid, t)?,
            Ev::OpStart(tid) => {
                if self.shared.trace.enabled() {
                    self.shared.trace.record(t, TraceEvent::OpStart { tid });
                }
                let Some(Pending::Incoming(op)) = self.pending[tid].take() else {
                    return Err(format!(
                        "OpStart without incoming op for core {tid} at cycle {t}"
                    ));
                };
                self.start_op(p, tid, t, op);
            }
            Ev::OpComplete(tid) => {
                if self.shared.trace.enabled() {
                    self.shared.trace.record(t, TraceEvent::OpComplete { tid });
                }
                self.complete_op(p, tid, t)?;
            }
            Ev::Coh(dest, e) => {
                let mut cx = Ctx {
                    shared: &mut self.shared,
                    ps: &mut self.pctx[p],
                };
                self.engine.handle(t, CoreId(dest), e, &mut cx);
                self.drain(p, t);
            }
            Ev::Expiry {
                core,
                line,
                generation,
            } => {
                if self.shared.tables[core.idx()].on_expiry_into(
                    line,
                    generation,
                    &mut self.scratch[p].lines,
                ) {
                    self.shared.lc[core.idx()].involuntary += self.scratch[p].lines.len() as u64;
                    for i in 0..self.scratch[p].lines.len() {
                        let l = self.scratch[p].lines[i];
                        if self.shared.trace.enabled() {
                            self.shared
                                .trace
                                .record(t, TraceEvent::LeaseExpired { core, line: l });
                        }
                        let mut cx = Ctx {
                            shared: &mut self.shared,
                            ps: &mut self.pctx[p],
                        };
                        self.engine.lease_released(t, core, l, &mut cx);
                    }
                    self.drain(p, t);
                }
            }
            Ev::MemReq { tid, op } => {
                self.pctx[p].alloc_msgs += 1;
                let value = match op {
                    HeapOp::Malloc { size, align } => self.mem.alloc(size, align).0,
                    HeapOp::Free(a) => {
                        self.mem.free(a);
                        0
                    }
                };
                let back = self
                    .engine
                    .ctrl_latency(CoreId(ALLOC_HOME as u16), CoreId(tid as u16));
                self.shared
                    .queue
                    .push(ALLOC_HOME, t, tid, t + back, Ev::MemReply { tid, value });
            }
            Ev::MemReply { tid, value } => {
                let Some(Pending::Alloc { issued }) = self.pending[tid].take() else {
                    return Err(format!(
                        "MemReply without a pending heap op for core {tid} at cycle {t}"
                    ));
                };
                self.pending[tid] = Some(Pending::Imm {
                    value,
                    flag: true,
                    issued,
                });
                self.shared
                    .queue
                    .push(tid, t, tid, t + ALLOC_COST, Ev::OpComplete(tid));
            }
        }
        Ok(())
    }

    /// End-of-run validation, shared by every executor: no thread may
    /// still be blocked, no transaction in flight, invariants hold.
    fn finish_checks(&mut self) -> Result<(), String> {
        let live = self.live.load(Ordering::Acquire);
        if live != 0 {
            return Err(format!(
                "simulation deadlock: event queue drained with {live} threads blocked"
            ));
        }
        assert_eq!(self.engine.in_flight(), 0);
        self.engine.check_invariants();
        Ok(())
    }

    /// Drain effects deferred by the `CohContext` during partition `p`'s
    /// engine calls.
    ///
    /// The deferred-effect vectors ping-pong with the partition's
    /// scratch via `mem::swap`, so at steady state this allocates
    /// nothing: both sides keep their high-water capacity.
    fn drain(&mut self, p: usize, t: Cycle) {
        loop {
            if self.pctx[p].to_pin.is_empty() && self.pctx[p].deferred_release.is_empty() {
                break;
            }
            {
                let ps = &mut self.pctx[p];
                let sc = &mut self.scratch[p];
                std::mem::swap(&mut ps.to_pin, &mut sc.pins);
                std::mem::swap(&mut ps.deferred_release, &mut sc.rels);
            }
            for i in 0..self.scratch[p].pins.len() {
                let (c, l) = self.scratch[p].pins[i];
                self.engine.pin(c, l, true);
            }
            for i in 0..self.scratch[p].rels.len() {
                let (c, l) = self.scratch[p].rels[i];
                let mut cx = Ctx {
                    shared: &mut self.shared,
                    ps: &mut self.pctx[p],
                };
                self.engine.lease_released(t, c, l, &mut cx);
            }
            self.scratch[p].pins.clear();
            self.scratch[p].rels.clear();
        }
        if !self.pctx[p].completions.is_empty() {
            {
                let ps = &mut self.pctx[p];
                let sc = &mut self.scratch[p];
                std::mem::swap(&mut ps.completions, &mut sc.completions);
            }
            let tile = self.pctx[p].tile;
            for i in 0..self.scratch[p].completions.len() {
                let (token, done) = self.scratch[p].completions[i];
                // Completions are delivered at the requesting core —
                // which is the tile the grant/hit just executed at, so
                // this is a same-tile push.
                self.shared.queue.push(
                    tile,
                    t,
                    token as usize,
                    done,
                    Ev::OpComplete(token as usize),
                );
            }
            self.scratch[p].completions.clear();
        }
    }

    /// Block until worker `tid` sends its next instruction (`tid` is the
    /// only runnable entity of its own pipeline right now). In source
    /// mode this is a plain function call into the [`OpSource`].
    ///
    /// Every executor routes `Start`/`OpComplete` events to `tid`'s own
    /// tile, so each rendezvous slot keeps a stable receiver thread for
    /// its whole life (the slot's pinned-consumer requirement): the
    /// sequential loops always receive on the engine thread, and the
    /// partitioned executors always receive on the host thread owning
    /// `tid`'s partition.
    fn await_request(&mut self, tid: usize, t: Cycle) -> Result<(), String> {
        let r = self.transport.recv(tid)?;
        debug_assert_eq!(r.tid, tid);
        match r.op {
            Op::Exit {
                instructions,
                ops,
                at,
                panicked: p,
            } => {
                self.live.fetch_sub(1, Ordering::AcqRel);
                self.exit_inst[tid] = instructions;
                self.exit_ops[tid] = ops;
                self.finish_time.fetch_max(at, Ordering::AcqRel);
                if p {
                    self.panicked
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .push(tid);
                }
            }
            op => {
                debug_assert!(self.pending[tid].is_none());
                self.pending[tid] = Some(Pending::Incoming(op));
                self.shared.queue.push(tid, t, tid, r.at, Ev::OpStart(tid));
            }
        }
        Ok(())
    }

    /// Immediate completion with a precomputed result after `delay`.
    fn imm(&mut self, tid: usize, t: Cycle, value: u64, flag: bool, delay: Cycle) {
        self.pending[tid] = Some(Pending::Imm {
            value,
            flag,
            issued: t,
        });
        self.shared
            .queue
            .push(tid, t, tid, t + delay, Ev::OpComplete(tid));
    }

    /// Begin executing one instruction at its issue time `t`.
    fn start_op(&mut self, p: usize, tid: usize, t: Cycle, op: Op) {
        let core = CoreId(tid as u16);
        let token = tid as u64;
        match op {
            Op::Read(a)
            | Op::Write(a, _)
            | Op::Cas { addr: a, .. }
            | Op::Faa { addr: a, .. }
            | Op::Xchg { addr: a, .. } => {
                let kind = match op {
                    Op::Read(_) => AccessKind::Load,
                    Op::Write(..) => AccessKind::Store,
                    _ => AccessKind::Rmw,
                };
                let hit = {
                    let mut cx = Ctx {
                        shared: &mut self.shared,
                        ps: &mut self.pctx[p],
                    };
                    self.engine
                        .access(t, token, core, a.line(), kind, false, true, &mut cx)
                };
                if let Some(done) = hit {
                    self.shared
                        .queue
                        .push(tid, t, tid, done, Ev::OpComplete(tid));
                }
                self.pending[tid] = Some(Pending::Data { op, issued: t });
                self.drain(p, t);
            }
            Op::Lease { addr, time } => {
                let line = addr.line();
                match self.shared.tables[tid].begin_lease(line, time) {
                    BeginLease::AlreadyLeased => {
                        self.imm(tid, t, 0, false, 1);
                    }
                    BeginLease::Inserted { displaced } => {
                        for d in displaced {
                            self.shared.lc[tid].overflow += 1;
                            let mut cx = Ctx {
                                shared: &mut self.shared,
                                ps: &mut self.pctx[p],
                            };
                            self.engine.lease_released(t, core, d, &mut cx);
                        }
                        self.shared.lc[tid].taken += 1;
                        let hit = {
                            let mut cx = Ctx {
                                shared: &mut self.shared,
                                ps: &mut self.pctx[p],
                            };
                            self.engine.access(
                                t,
                                token,
                                core,
                                line,
                                AccessKind::Rmw,
                                true,
                                false,
                                &mut cx,
                            )
                        };
                        if let Some(done) = hit {
                            self.shared
                                .queue
                                .push(tid, t, tid, done, Ev::OpComplete(tid));
                        }
                        self.pending[tid] = Some(Pending::LeaseAcq { issued: t });
                    }
                }
                self.drain(p, t);
            }
            Op::Release { addr } => {
                let line = addr.line();
                let flag = self.shared.tables[tid].release_into(line, &mut self.scratch[p].lines);
                self.shared.lc[tid].voluntary += self.scratch[p].lines.len() as u64;
                for i in 0..self.scratch[p].lines.len() {
                    let l = self.scratch[p].lines[i];
                    if self.shared.trace.enabled() {
                        self.shared.trace.record(
                            t,
                            TraceEvent::LeaseReleased {
                                core,
                                line: l,
                                voluntary: true,
                            },
                        );
                    }
                    let mut cx = Ctx {
                        shared: &mut self.shared,
                        ps: &mut self.pctx[p],
                    };
                    self.engine.lease_released(t, core, l, &mut cx);
                }
                self.imm(tid, t, 0, flag, 1);
                self.drain(p, t);
            }
            Op::MultiLease { addrs, time } => {
                let lines: Vec<LineAddr> = addrs.iter().map(|a| a.line()).collect();
                match self.shared.tables[tid].begin_multilease(&lines, time) {
                    MultiLeaseBegin::Rejected { released } => {
                        self.shared.lc[tid].voluntary += released.len() as u64;
                        for l in released {
                            let mut cx = Ctx {
                                shared: &mut self.shared,
                                ps: &mut self.pctx[p],
                            };
                            self.engine.lease_released(t, core, l, &mut cx);
                        }
                        self.imm(tid, t, 0, false, 1);
                    }
                    MultiLeaseBegin::Admitted {
                        released,
                        sorted_lines,
                    } => {
                        self.shared.lc[tid].voluntary += released.len() as u64;
                        for l in released {
                            let mut cx = Ctx {
                                shared: &mut self.shared,
                                ps: &mut self.pctx[p],
                            };
                            self.engine.lease_released(t, core, l, &mut cx);
                        }
                        if sorted_lines.is_empty() {
                            self.imm(tid, t, 0, true, 1);
                        } else {
                            self.shared.lc[tid].multileases += 1;
                            self.shared.lc[tid].taken += sorted_lines.len() as u64;
                            let first = sorted_lines[0];
                            let hit = {
                                let mut cx = Ctx {
                                    shared: &mut self.shared,
                                    ps: &mut self.pctx[p],
                                };
                                self.engine.access(
                                    t,
                                    token,
                                    core,
                                    first,
                                    AccessKind::Rmw,
                                    true,
                                    false,
                                    &mut cx,
                                )
                            };
                            if let Some(done) = hit {
                                self.shared
                                    .queue
                                    .push(tid, t, tid, done, Ev::OpComplete(tid));
                            }
                            self.pending[tid] = Some(Pending::Multi {
                                lines: sorted_lines,
                                idx: 0,
                                issued: t,
                            });
                        }
                    }
                }
                self.drain(p, t);
            }
            Op::ReleaseAll => {
                self.shared.tables[tid].release_all_into(&mut self.scratch[p].lines);
                self.shared.lc[tid].voluntary += self.scratch[p].lines.len() as u64;
                for i in 0..self.scratch[p].lines.len() {
                    let l = self.scratch[p].lines[i];
                    if self.shared.trace.enabled() {
                        self.shared.trace.record(
                            t,
                            TraceEvent::LeaseReleased {
                                core,
                                line: l,
                                voluntary: true,
                            },
                        );
                    }
                    let mut cx = Ctx {
                        shared: &mut self.shared,
                        ps: &mut self.pctx[p],
                    };
                    self.engine.lease_released(t, core, l, &mut cx);
                }
                self.imm(tid, t, 0, true, 1);
                self.drain(p, t);
            }
            Op::Malloc { size, align } => self.heap_request(tid, t, HeapOp::Malloc { size, align }),
            Op::Free(a) => self.heap_request(tid, t, HeapOp::Free(a)),
            Op::Exit { .. } => unreachable!("Exit handled in await_request"),
        }
    }

    /// Send a heap op to the allocator home tile. The heap allocator is
    /// global machine state, so the request travels as a message: the
    /// simulated cost model becomes ALLOC_COST plus the NoC control
    /// round trip — identical for every executor.
    fn heap_request(&mut self, tid: usize, t: Cycle, op: HeapOp) {
        self.pending[tid] = Some(Pending::Alloc { issued: t });
        let go = self
            .engine
            .ctrl_latency(CoreId(tid as u16), CoreId(ALLOC_HOME as u16));
        self.shared
            .queue
            .push(tid, t, ALLOC_HOME, t + go, Ev::MemReq { tid, op });
    }

    /// Finish one instruction at its completion time: move data, account
    /// statistics, wake the worker, and wait for its next instruction.
    fn complete_op(&mut self, p: usize, tid: usize, t: Cycle) -> Result<(), String> {
        let pd = self.pending[tid].take().ok_or_else(|| {
            format!("OpComplete for core {tid} at cycle {t} without a pending op")
        })?;
        let core = CoreId(tid as u16);
        let (value, flag, issued) = match pd {
            Pending::Data { op, issued } => {
                let mem = &mut self.mem;
                let cs = self.engine.core_stats_mut(core);
                let (value, flag) = match op {
                    Op::Read(a) => {
                        cs.loads += 1;
                        (mem.read_word(a), false)
                    }
                    Op::Write(a, v) => {
                        cs.stores += 1;
                        mem.write_word(a, v);
                        (0, false)
                    }
                    Op::Cas {
                        addr,
                        expected,
                        new,
                    } => {
                        cs.cas_attempts += 1;
                        let old = mem.read_word(addr);
                        let ok = old == expected;
                        if ok {
                            mem.write_word(addr, new);
                        } else {
                            cs.cas_failures += 1;
                        }
                        (old, ok)
                    }
                    Op::Faa { addr, delta } => {
                        cs.rmw_ops += 1;
                        let old = mem.read_word(addr);
                        mem.write_word(addr, old.wrapping_add(delta));
                        (old, true)
                    }
                    Op::Xchg { addr, value } => {
                        cs.rmw_ops += 1;
                        let old = mem.read_word(addr);
                        mem.write_word(addr, value);
                        (old, true)
                    }
                    other => unreachable!("non-data op in Data pending: {other:?}"),
                };
                (value, flag, issued)
            }
            Pending::LeaseAcq { issued } => (0, true, issued),
            Pending::Multi { lines, idx, issued } => {
                if idx + 1 < lines.len() {
                    // Acquire the next line of the group, in order.
                    let hit = {
                        let mut cx = Ctx {
                            shared: &mut self.shared,
                            ps: &mut self.pctx[p],
                        };
                        self.engine.access(
                            t,
                            tid as u64,
                            core,
                            lines[idx + 1],
                            AccessKind::Rmw,
                            true,
                            false,
                            &mut cx,
                        )
                    };
                    if let Some(done) = hit {
                        self.shared
                            .queue
                            .push(tid, t, tid, done, Ev::OpComplete(tid));
                    }
                    self.pending[tid] = Some(Pending::Multi {
                        lines,
                        idx: idx + 1,
                        issued,
                    });
                    self.drain(p, t);
                    return Ok(());
                }
                (0, true, issued)
            }
            Pending::Imm {
                value,
                flag,
                issued,
            } => (value, flag, issued),
            Pending::Alloc { .. } => unreachable!("completion before the allocator replied"),
            Pending::Incoming(_) => unreachable!("completion before start"),
        };
        self.engine.core_stats_mut(core).mem_stall_cycles += t - issued;
        self.transport.reply(
            tid,
            Reply {
                time: t,
                value,
                flag,
            },
        )?;
        self.await_request(tid, t)
    }
}

/// Drive `core` with one host thread per partition under the
/// conservative lockstep turn protocol: the thread owning the partition
/// of the globally next event applies it; everyone else waits on the
/// turn condvar. This pops the exact `(time, key)` sequence of the
/// sequential loop — one event at a time, under one mutex. It is the
/// commit-mode A/B reference for [`run_relaxed_live`], and the executor
/// live traced runs fall back to (the trace ring needs globally ordered
/// commits).
///
/// Worker rendezvous stays sound: core `tid`'s `Start`/`OpComplete`
/// events are routed to `tid`'s tile, so its request slot is always
/// received on the same host thread (the slot's receiver affinity
/// requirement), and blocking in `recv` while holding the turn mutex is
/// the lockstep invariant — the sending worker is the only runnable
/// entity, and it never takes this mutex.
fn run_threaded(core: &mut EngineCore<'_>, shards: usize) -> Result<(), String> {
    struct Turn<'c, 'a> {
        core: &'c mut EngineCore<'a>,
        fail: Option<String>,
        done: bool,
    }
    let turn = Mutex::new(Turn {
        core,
        fail: None,
        done: false,
    });
    let cv = Condvar::new();
    std::thread::scope(|s| {
        for p in 0..shards {
            let (turn, cv) = (&turn, &cv);
            s.spawn(move || {
                let mut g = turn.lock().unwrap_or_else(|e| e.into_inner());
                loop {
                    if g.done || g.fail.is_some() {
                        break;
                    }
                    match g.core.shared.queue.head_partition() {
                        None => {
                            g.done = true;
                            cv.notify_all();
                            break;
                        }
                        Some(q) if q == p => {
                            let core = &mut *g.core;
                            // The catch is *inside* the lock so an apply
                            // panic (watchdog, protocol bug) becomes a
                            // recorded failure, never a poisoned mutex.
                            let res = std::panic::catch_unwind(AssertUnwindSafe(|| {
                                let (t, part, ev) = core
                                    .shared
                                    .queue
                                    .pop_global()
                                    .expect("head_partition saw an event");
                                debug_assert_eq!(part, p);
                                core.apply(part, t, ev)
                            }));
                            match res {
                                Ok(Ok(())) => cv.notify_all(),
                                Ok(Err(reason)) => {
                                    g.fail = Some(reason);
                                    cv.notify_all();
                                    break;
                                }
                                Err(payload) => {
                                    g.fail = Some(panic_payload_msg(payload.as_ref()));
                                    cv.notify_all();
                                    break;
                                }
                            }
                        }
                        Some(_) => g = cv.wait(g).unwrap_or_else(|e| e.into_inner()),
                    }
                }
            });
        }
    });
    let t = turn.into_inner().unwrap_or_else(|e| e.into_inner());
    match t.fail {
        Some(reason) => Err(reason),
        None => Ok(()),
    }
}

/// The relaxed windowed schedule on one host thread: open a safe window
/// ([`ShardedQueue::begin_window`]), drain every partition's batch in
/// partition order, repeat. This applies events in a *different order*
/// than the sequential `pop_global` loop (per-partition batches instead
/// of global time order) while producing byte-identical simulated
/// results — the single-threaded oracle for the relaxed commit
/// discipline, and the executor engine-only (replay) runs use under
/// relaxed commit.
fn run_relaxed_serial(core: &mut EngineCore<'_>) -> Result<(), String> {
    let budget = core.cfg.watchdog_max_events;
    while let Some(bounds) = core.shared.queue.begin_window() {
        if core.shared.queue.processed() > budget {
            return Err("watchdog: event budget exceeded".to_string());
        }
        for (p, &bound) in bounds.iter().enumerate() {
            while let Some((t, ev)) = core.shared.queue.pop_bounded(p, bound) {
                core.apply(p, t, ev)?;
            }
        }
    }
    Ok(())
}

/// Raw shared handle to the engine core for the relaxed live executor.
///
/// SAFETY contract (upheld by [`run_relaxed_live`]): between window
/// barriers, the thread of partition `p` applies only partition-`p`
/// events, and [`EngineCore::apply`] on such an event touches only
/// state owned by the event's tile — its queue partition (plus the
/// source-partition outbox rows and counters of the sharded queue), its
/// tiles' engine slices, its cores' lease tables/counters/pending
/// slots/rendezvous endpoints, its partition's context and scratch —
/// or the explicitly synchronized fields (`live`, `finish_time`,
/// `panicked`, the atomic page-install path of [`SimMemory`]). The
/// coordinator touches the core only while every worker is parked at
/// the barrier; the barrier mutex orders those accesses.
#[derive(Clone, Copy)]
struct CorePtr(*mut ());

unsafe impl Send for CorePtr {}

/// Drive `core` with one persistent host thread per partition under
/// relaxed commit: the coordinator opens a safe window, publishes the
/// per-partition bounds, and every partition thread commits its whole
/// batch concurrently with no per-event synchronization — threads meet
/// only at the generation-counted window barrier. The tile-local event
/// discipline (see [`EngineCore`]) makes this produce byte-identical
/// simulated results to the lockstep executors.
fn run_relaxed_live(core: &mut EngineCore<'_>, shards: usize) -> Result<(), String> {
    struct WinState {
        generation: u64,
        bounds: Vec<Cycle>,
        remaining: usize,
        stop: bool,
        fail: Option<String>,
    }
    let budget = core.cfg.watchdog_max_events;
    let m = Mutex::new(WinState {
        generation: 0,
        bounds: Vec::new(),
        remaining: 0,
        stop: false,
        fail: None,
    });
    let start = Condvar::new();
    let done = Condvar::new();
    let ptr = CorePtr(core as *mut EngineCore<'_> as *mut ());
    let mut result = Ok(());
    std::thread::scope(|s| {
        for p in 0..shards {
            let (m, start, done) = (&m, &start, &done);
            // Partition threads persist across all windows, so each
            // core's rendezvous slot keeps one receiver thread for the
            // whole run (the slot's pinned-consumer contract). Scope
            // join is safe even on failure: a worker blocked in `recv`
            // always returns — its workload thread sends Exit even when
            // panicking — so every partition reaches the barrier.
            s.spawn(move || {
                // Capture the whole Send wrapper, not the raw field
                // (edition-2021 closures capture disjoint fields).
                let ptr = ptr;
                let mut seen = 0u64;
                loop {
                    let (bound, skip) = {
                        let mut g = m.lock().unwrap_or_else(|e| e.into_inner());
                        while g.generation == seen && !g.stop {
                            g = start.wait(g).unwrap_or_else(|e| e.into_inner());
                        }
                        if g.stop {
                            return;
                        }
                        seen = g.generation;
                        (g.bounds[p], g.fail.is_some())
                    };
                    let res = if skip {
                        // A sibling already failed: commit nothing, just
                        // keep the barrier protocol moving to shutdown.
                        Ok(())
                    } else {
                        std::panic::catch_unwind(AssertUnwindSafe(|| -> Result<(), String> {
                            // SAFETY: see [`CorePtr`] — partition-disjoint
                            // access between barriers.
                            let core = unsafe { &mut *(ptr.0 as *mut EngineCore) };
                            while let Some((t, ev)) = core.shared.queue.pop_bounded(p, bound) {
                                core.apply(p, t, ev)?;
                            }
                            Ok(())
                        }))
                        .unwrap_or_else(|pl| Err(panic_payload_msg(pl.as_ref())))
                    };
                    let mut g = m.lock().unwrap_or_else(|e| e.into_inner());
                    if let Err(reason) = res {
                        if g.fail.is_none() {
                            g.fail = Some(reason);
                        }
                    }
                    g.remaining -= 1;
                    if g.remaining == 0 {
                        done.notify_all();
                    }
                }
            });
        }
        loop {
            // Between windows every worker is parked at the barrier, so
            // the coordinator has exclusive access to the core.
            let step = std::panic::catch_unwind(AssertUnwindSafe(|| {
                // SAFETY: see [`CorePtr`] — exclusive between windows.
                let core = unsafe { &mut *(ptr.0 as *mut EngineCore) };
                (
                    core.shared.queue.begin_window(),
                    core.shared.queue.processed(),
                )
            }));
            let bounds = match step {
                Err(pl) => {
                    result = Err(panic_payload_msg(pl.as_ref()));
                    None
                }
                Ok((_, processed)) if processed > budget => {
                    result = Err("watchdog: event budget exceeded".to_string());
                    None
                }
                Ok((b, _)) => b,
            };
            match bounds {
                None => {
                    // Drained (or the coordinator itself failed): stop.
                    let mut g = m.lock().unwrap_or_else(|e| e.into_inner());
                    g.stop = true;
                    drop(g);
                    start.notify_all();
                    break;
                }
                Some(b) => {
                    let mut g = m.lock().unwrap_or_else(|e| e.into_inner());
                    g.generation += 1;
                    g.bounds = b;
                    g.remaining = shards;
                    start.notify_all();
                    while g.remaining > 0 {
                        g = done.wait(g).unwrap_or_else(|e| e.into_inner());
                    }
                    if let Some(f) = g.fail.take() {
                        result = Err(f);
                        g.stop = true;
                        drop(g);
                        start.notify_all();
                        break;
                    }
                }
            }
        }
    });
    result
}

/// Best-effort extraction of a panic payload's message.
fn panic_payload_msg(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        String::from("<non-string panic payload>")
    }
}

/// One coherent diagnosis of a failed simulation: the failure reason, the
/// structured trace window, the engine's in-flight protocol state, and
/// every core's lease table.
fn render_failure_report(
    reason: &str,
    shared: &Shared,
    engine: &CoherenceEngine,
    pending: &[Option<Pending>],
) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    let _ = writeln!(s, "==== simulation failure report ====");
    let _ = writeln!(s, "reason: {reason}");
    let _ = writeln!(s, "-- trace window --");
    if shared.trace.enabled() {
        let _ = writeln!(
            s,
            "  ({} retained of {} recorded events)",
            shared.trace.len(),
            shared.trace.recorded()
        );
        s.push_str(&shared.trace.render());
    } else {
        let _ = writeln!(
            s,
            "  (tracing off; build the machine with Machine::with_trace(depth) to capture events)"
        );
    }
    let _ = writeln!(s, "-- in-flight protocol state --");
    let dump = engine.debug_dump();
    if dump.is_empty() {
        let _ = writeln!(s, "  (quiescent)");
    } else {
        s.push_str(&dump);
    }
    let _ = writeln!(s, "-- lease tables --");
    for (i, tbl) in shared.tables.iter().enumerate() {
        let _ = writeln!(s, " core{i}:");
        s.push_str(&tbl.debug_dump());
    }
    let _ = writeln!(s, "-- pending ops --");
    let mut any = false;
    for (tid, p) in pending.iter().enumerate() {
        if let Some(p) = p {
            any = true;
            let _ = writeln!(s, "  tid{tid}: {p:?}");
        }
    }
    if !any {
        let _ = writeln!(s, "  (none)");
    }
    let _ = writeln!(s, "===================================");
    s
}
