//! The engine loop: ties the coherence protocol, lease tables, simulated
//! memory, and lockstep workers together.
//!
//! ## Event routing
//!
//! Every simulated instruction becomes an `OpStart` event at the
//! worker's local issue time and an `OpComplete` event at its
//! protocol-determined completion time. Every event names the tile it
//! executes at ([`Ev::tile`]), and applying it touches only that tile's
//! slice of machine state — its pending-op slot, its lease table —
//! mirroring the message-passing handler discipline of `lr-coherence`.
//! The one piece of genuinely global machine state, the heap allocator,
//! is reached by message too: `Malloc`/`Free` are routed to a fixed
//! *allocator home* tile ([`ALLOC_HOME`]) and the result rides back as
//! [`Ev::MemReply`].
//!
//! One engine thread pops the single event store ([`ShardedQueue`]) in
//! `(time, canonical per-tile key)` order and applies each event in
//! turn; nothing the engine touches is shared with another host thread.

use crate::ctx::ThreadCtx;
use crate::proto::{Op, Reply, Request, ALLOC_COST};
use crate::rendezvous::{slot, SlotReceiver, SlotSender};
use lr_coherence::{AccessKind, CohContext, CohEvent, CoherenceEngine, ProbeAction};
use lr_lease::{ArmedCounter, BeginLease, LeaseTable, MultiLeaseBegin};
use lr_sim_core::trace::{TraceEvent, TraceRing, TraceSink};
use lr_sim_core::tracefmt::{self, MachineTrace, OpRecord};
use lr_sim_core::{CoreId, Cycle, LineAddr, MachineStats, ShardedQueue, SystemConfig};
use lr_sim_mem::SimMemory;
use std::panic::AssertUnwindSafe;
use std::path::{Path, PathBuf};

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
/// Calls for different `tid`s interleave in the engine's event order;
/// each core's own `next`/`observe` alternation is in that core's
/// program order, so sources key their state by `tid`.
///
/// Not `Send`: the engine drives a source from the one thread that runs
/// the event loop.
pub trait OpSource {
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
/// (see the comment where `run_inner` builds each worker's slots).
const WORKER_YIELD_CAP: u32 = 16;

/// Host-level observability for one run: how the execution engine (not
/// the simulated machine) behaved. Kept out of [`MachineStats`] so the
/// published simulated metrics stay exactly the paper's.
#[derive(Debug, Clone, Copy)]
pub struct EngineInfo {
    /// Discrete events the engine processed.
    pub events: u64,
    /// Engine partitions: always 1 (one event loop on one thread).
    pub shards: usize,
    /// Heap ops (`Malloc`/`Free`) routed as messages to the allocator
    /// home tile — each one a NoC round trip charged to the issuing
    /// thread. Steady-state scenarios built on pre-allocated pools
    /// (the delegation locks) assert this stays 0, so the home-tile
    /// hotspot can never distort a lock comparison.
    pub alloc_msgs: u64,
}

/// Engine events. Every variant executes at exactly one tile
/// ([`Ev::tile`]), and applying it touches only state owned by that
/// tile.
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
    /// The tile this event executes at (the source tile of the pushes
    /// its handler makes).
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

/// Reusable machine-loop buffers. Deferred-effect staging ping-pongs
/// between here and [`MachineState`] (see [`EngineCore::drain`]) so the
/// steady-state loop performs no per-event heap allocation.
#[derive(Default)]
struct Scratch {
    pins: Vec<(CoreId, LineAddr)>,
    rels: Vec<(CoreId, LineAddr)>,
    completions: Vec<(u64, Cycle)>,
    /// Release/expiry result lines for the machine-loop paths.
    lines: Vec<LineAddr>,
}

/// Machine-layer state, and the [`CohContext`] the coherence engine
/// sees: the event store, the lease tables and counters, the trace
/// ring, the base time/tile of the event being applied (every
/// `schedule` is relative to them, and the tile stamps the canonical
/// push key) and the deferred effects of the engine call in progress.
struct MachineState {
    queue: ShardedQueue<Ev>,
    tables: Vec<LeaseTable>,
    lc: Vec<LeaseCounters>,
    prioritization: bool,
    /// Structured trace window (depth 0 = off) fed by both the engine
    /// (through the [`CohContext`] hooks) and the machine loop itself.
    trace: TraceRing,
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
}

impl CohContext for MachineState {
    fn schedule(&mut self, delay: Cycle, dest: CoreId, ev: CohEvent) {
        self.queue.push(
            self.tile,
            self.base,
            dest.idx(),
            self.base + delay,
            Ev::Coh(dest.0, ev),
        );
    }

    fn tracing(&self) -> bool {
        self.trace.enabled()
    }

    fn trace(&mut self, now: Cycle, ev: TraceEvent) {
        self.trace.record(now, ev);
    }

    fn xact_completed(&mut self, token: u64, now: Cycle) {
        self.completions.push((token, now));
    }

    fn probe_action(
        &mut self,
        owner: CoreId,
        line: LineAddr,
        regular: bool,
        now: Cycle,
    ) -> ProbeAction {
        match self.tables[owner.idx()].state(line, now) {
            lr_lease::LeaseState::NotLeased => ProbeAction::Proceed,
            // The entry exists but ownership has not been (re-)acquired
            // under it: the line is merely stale-owned, so the probe may
            // take it (the group's own request will fetch it back later,
            // in sorted order — this is what keeps MultiLease
            // deadlock-free, Proposition 3).
            lr_lease::LeaseState::Pending => ProbeAction::Proceed,
            lr_lease::LeaseState::Active => {
                if regular && self.prioritization {
                    // §5 prioritization: a regular request breaks the lease.
                    let found =
                        self.tables[owner.idx()].release_into(line, &mut self.released_scratch);
                    assert!(found, "Active lease vanished under release");
                    self.lc[owner.idx()].broken += self.released_scratch.len() as u64;
                    for &l in &self.released_scratch {
                        if l != line {
                            self.deferred_release.push((owner, l));
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
                let found = self.tables[owner.idx()].release_into(line, &mut self.released_scratch);
                assert!(found, "Expired lease vanished under release");
                self.lc[owner.idx()].involuntary += self.released_scratch.len() as u64;
                for &l in &self.released_scratch {
                    if l != line {
                        self.deferred_release.push((owner, l));
                    }
                }
                ProbeAction::ProceedBreakingLease
            }
        }
    }

    fn exclusive_granted(&mut self, core: CoreId, line: LineAddr, now: Cycle) {
        self.tables[core.idx()].on_exclusive_granted_into(line, now, &mut self.armed_scratch);
        if self.tables[core.idx()].is_leased(line, now) {
            self.to_pin.push((core, line));
        }
        for a in &self.armed_scratch {
            // Expiries fire at the leasing core's own tile. Grants are
            // delivered at that same tile, so this is a same-tile push.
            self.queue.push(
                self.tile,
                self.base,
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
        self.pinned_scratch.clear();
        self.pinned_scratch.extend_from_slice(pinned);
        self.pinned_scratch.sort_unstable();
        if let Some(l) = self.tables[core.idx()].oldest_member(&self.pinned_scratch) {
            self.lc[core.idx()].overflow += 1;
            if self.tables[core.idx()].release_into(l, &mut self.released_scratch) {
                for &m in &self.released_scratch {
                    if m != l {
                        self.deferred_release.push((core, m));
                    }
                }
            }
            return Some(l);
        }
        // Stale pin (lease already gone): let the engine unpin it.
        pinned.first().copied()
    }

    fn line_invalidated(&mut self, core: CoreId, line: LineAddr, _now: Cycle) {
        if self.tables[core.idx()].release_into(line, &mut self.released_scratch) {
            self.lc[core.idx()].involuntary += self.released_scratch.len() as u64;
            for &m in &self.released_scratch {
                if m != line {
                    self.deferred_release.push((core, m));
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
    /// When set, a live run records itself and writes the trace here.
    trace_out: Option<TraceOutput>,
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
            trace_out: None,
        }
    }

    /// Keep a ring of the last `depth` structured protocol/machine trace
    /// events ([`lr_sim_core::TraceEvent`]) and include the window in the
    /// failure report emitted on watchdog trips, deadlocks, or invariant
    /// violations (0 = off, the default). Events are plain `Copy` records;
    /// nothing is formatted unless a report is actually printed.
    pub fn with_trace(mut self, depth: usize) -> Self {
        self.trace_depth = depth;
        self
    }

    /// Record this machine's live run and write the captured trace into
    /// `dir` as `{label}_{config-fingerprint}.lrt` (a `-2`, `-3`, …
    /// suffix is appended if the name is taken — creation is atomic, so
    /// concurrent runs sharing a directory never overwrite each other).
    /// Drivers thread their record directory through here; no
    /// `Machine` reads the environment.
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
    /// (event count, allocator messages) instead of the bare event
    /// count.
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
        // Recording is on when explicitly requested (run_recorded) or
        // when a trace output destination was configured.
        let trace_out = if is_live { trace_out } else { None };
        let record = trace_out.is_some() || matches!(mode, Mode::Live { record: true, .. });

        let engine = CoherenceEngine::new(&cfg);
        let mem = self.mem;
        // The replayer restores this exact image before re-driving ops,
        // so it must be taken before any simulated execution.
        let pre_image = record.then(|| mem.snapshot());
        let mut ms = MachineState {
            queue: ShardedQueue::new(cfg.num_cores),
            tables: (0..cfg.num_cores)
                .map(|_| LeaseTable::new(cfg.lease.clone()))
                .collect(),
            lc: vec![LeaseCounters::default(); cfg.num_cores],
            prioritization: cfg.lease.prioritization,
            trace: TraceRing::new(trace_depth),
            base: 0,
            tile: 0,
            completions: Vec::new(),
            to_pin: Vec::new(),
            deferred_release: Vec::new(),
            released_scratch: Vec::new(),
            pinned_scratch: Vec::new(),
            armed_scratch: Vec::new(),
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
                    let mut tctx = ThreadCtx::new(
                        tid,
                        cfg.instruction_cost,
                        cfg.lease.clone(),
                        cfg.seed,
                        rtx,
                        prx,
                        record,
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
        // Setup pushes: same-tile sends at t = 0, before any pop.
        for tid in 0..n {
            ms.queue.push(tid, 0, tid, 0, Ev::Start(tid));
        }

        let mut core = EngineCore {
            cfg,
            engine,
            ms,
            scratch: Scratch::default(),
            mem,
            transport,
            pending: (0..n).map(|_| None).collect(),
            live: n,
            finish_time: 0,
            exit_inst: vec![0u64; n],
            exit_ops: vec![0u64; n],
            panicked: Vec::new(),
            alloc_msgs: 0,
            records: record.then(|| vec![Vec::new(); n]),
        };

        // Any failure inside the event loop — watchdog trip, protocol
        // assertion (panic), divergence or deadlock (Err) — is caught
        // and rendered as one coherent report: the failure reason, the
        // trace window, the in-flight protocol state, and every core's
        // lease table. Live runs re-raise the report as a panic; source
        // runs hand it back as a structured `SourceAbort`.
        let loop_result = std::panic::catch_unwind(AssertUnwindSafe(|| -> Result<(), String> {
            while let Some((t, _, ev)) = core.ms.queue.pop_global() {
                core.apply(t, ev)?;
            }
            core.finish_checks()
        }))
        .unwrap_or_else(|p| Err(panic_payload_msg(p.as_ref())));
        if let Err(reason) = loop_result {
            let report = render_failure_report(&reason, &core.ms, &core.engine, &core.pending);
            if is_live {
                panic!("{report}");
            }
            return Err(Box::new(SourceAbort { reason, report }));
        }
        let EngineCore {
            cfg,
            engine,
            ms,
            mem,
            transport,
            pending,
            finish_time,
            exit_inst,
            exit_ops,
            panicked,
            alloc_msgs,
            records,
            ..
        } = core;
        drop(transport);

        for h in handles {
            let _ = h.join();
        }
        if !panicked.is_empty() {
            // Same coherent report as a loop failure: the worker panic is
            // the reason, the protocol state is the context.
            let reason = format!("workload thread(s) {panicked:?} panicked inside the simulation");
            panic!("{}", render_failure_report(&reason, &ms, &engine, &pending));
        }

        let info = EngineInfo {
            events: ms.queue.processed(),
            shards: 1,
            alloc_msgs,
        };
        let mut stats = engine.stats();
        stats.total_cycles = finish_time;
        stats.app_ops = exit_ops.iter().sum();
        for (tid, c) in stats.cores.iter_mut().enumerate().take(n) {
            c.instructions += exit_inst[tid];
            let lc = &ms.lc[tid];
            c.leases_taken += lc.taken;
            c.releases_voluntary += lc.voluntary;
            c.releases_involuntary += lc.involuntary;
            c.lease_overflows += lc.overflow;
            c.leases_broken_by_priority += lc.broken;
            c.multileases += lc.multileases;
        }

        let trace = records.map(|cores| {
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
            trace
        });
        Ok((stats, mem, info, trace))
    }
}

/// The engine state: protocol, lease tables, event store, simulated
/// memory, worker transport, and per-core completion bookkeeping.
///
/// Every event goes through [`EngineCore::apply`], and applying an
/// event touches only state owned by the event's tile: its engine
/// slices, its core's lease table/counters/pending slot/rendezvous
/// endpoints. Cross-tile effects ride queued messages.
struct EngineCore<'a> {
    cfg: SystemConfig,
    engine: CoherenceEngine,
    ms: MachineState,
    scratch: Scratch,
    mem: SimMemory,
    transport: Transport<'a>,
    pending: Vec<Option<Pending>>,
    /// Workers that have not sent `Exit` yet.
    live: usize,
    finish_time: Cycle,
    exit_inst: Vec<u64>,
    exit_ops: Vec<u64>,
    panicked: Vec<usize>,
    /// `Ev::MemReq` events (heap ops routed to the allocator home tile)
    /// applied; reported as [`EngineInfo::alloc_msgs`].
    alloc_msgs: u64,
    /// The trace being captured, one op stream per core, when the run
    /// records: each received op is appended here and its reply filled
    /// in as it is sent, so workers allocate nothing for it.
    records: Option<Vec<Vec<OpRecord>>>,
}

impl EngineCore<'_> {
    /// Apply one popped event at time `t`.
    fn apply(&mut self, t: Cycle, ev: Ev) -> Result<(), String> {
        assert!(
            t <= self.cfg.watchdog_max_cycles,
            "watchdog: simulated time exceeded {} cycles (livelock?)",
            self.cfg.watchdog_max_cycles
        );
        assert!(
            self.ms.queue.processed() <= self.cfg.watchdog_max_events,
            "watchdog: event budget exceeded"
        );
        self.ms.base = t;
        self.ms.tile = ev.tile();
        match ev {
            Ev::Start(tid) => self.await_request(tid, t)?,
            Ev::OpStart(tid) => {
                if self.ms.trace.enabled() {
                    self.ms.trace.record(t, TraceEvent::OpStart { tid });
                }
                let Some(Pending::Incoming(op)) = self.pending[tid].take() else {
                    return Err(format!(
                        "OpStart without incoming op for core {tid} at cycle {t}"
                    ));
                };
                self.start_op(tid, t, op);
            }
            Ev::OpComplete(tid) => {
                if self.ms.trace.enabled() {
                    self.ms.trace.record(t, TraceEvent::OpComplete { tid });
                }
                self.complete_op(tid, t)?;
            }
            Ev::Coh(dest, e) => {
                self.engine.handle(t, CoreId(dest), e, &mut self.ms);
                self.drain(t);
            }
            Ev::Expiry {
                core,
                line,
                generation,
            } => {
                if self.ms.tables[core.idx()].on_expiry_into(
                    line,
                    generation,
                    &mut self.scratch.lines,
                ) {
                    self.ms.lc[core.idx()].involuntary += self.scratch.lines.len() as u64;
                    for &l in &self.scratch.lines {
                        if self.ms.trace.enabled() {
                            self.ms
                                .trace
                                .record(t, TraceEvent::LeaseExpired { core, line: l });
                        }
                        self.engine.lease_released(t, core, l, &mut self.ms);
                    }
                    self.drain(t);
                }
            }
            Ev::MemReq { tid, op } => {
                self.alloc_msgs += 1;
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
                self.ms
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
                self.ms
                    .queue
                    .push(tid, t, tid, t + ALLOC_COST, Ev::OpComplete(tid));
            }
        }
        Ok(())
    }

    /// End-of-run validation: no thread may still be blocked, no
    /// transaction in flight, invariants hold.
    fn finish_checks(&mut self) -> Result<(), String> {
        let live = self.live;
        if live != 0 {
            return Err(format!(
                "simulation deadlock: event queue drained with {live} threads blocked"
            ));
        }
        assert_eq!(self.engine.in_flight(), 0);
        self.engine.check_invariants();
        Ok(())
    }

    /// Drain effects deferred by the `CohContext` during the engine
    /// calls of the event being applied.
    ///
    /// The deferred-effect vectors ping-pong with the scratch buffers via
    /// `mem::swap`, so at steady state this allocates nothing: both sides
    /// keep their high-water capacity.
    fn drain(&mut self, t: Cycle) {
        while !self.ms.to_pin.is_empty() || !self.ms.deferred_release.is_empty() {
            std::mem::swap(&mut self.ms.to_pin, &mut self.scratch.pins);
            std::mem::swap(&mut self.ms.deferred_release, &mut self.scratch.rels);
            for &(c, l) in &self.scratch.pins {
                self.engine.pin(c, l, true);
            }
            for &(c, l) in &self.scratch.rels {
                self.engine.lease_released(t, c, l, &mut self.ms);
            }
            self.scratch.pins.clear();
            self.scratch.rels.clear();
        }
        if !self.ms.completions.is_empty() {
            std::mem::swap(&mut self.ms.completions, &mut self.scratch.completions);
            for &(token, done) in &self.scratch.completions {
                // Completions are delivered at the requesting core —
                // which is the tile the grant/hit just executed at, so
                // this is a same-tile push.
                self.ms.queue.push(
                    self.ms.tile,
                    t,
                    token as usize,
                    done,
                    Ev::OpComplete(token as usize),
                );
            }
            self.scratch.completions.clear();
        }
    }

    /// Block until worker `tid` sends its next instruction (`tid` is the
    /// only runnable entity of its own pipeline right now). In source
    /// mode this is a plain function call into the [`OpSource`]. Every
    /// request is received on the engine thread, so each rendezvous slot
    /// keeps one receiver thread for its whole life (the slot's
    /// pinned-consumer requirement).
    ///
    /// A recording run appends every received op to `tid`'s trace
    /// stream (all but the `Exit` of a panicked worker). A barrier
    /// marker is recorded and acknowledged here, and the wait goes on.
    fn await_request(&mut self, tid: usize, t: Cycle) -> Result<(), String> {
        loop {
            let r = self.transport.recv(tid)?;
            debug_assert_eq!(r.tid, tid);
            if let Some(records) = &mut self.records {
                if !matches!(r.op, Op::Exit { panicked: true, .. }) {
                    // Markers and Exit keep this reply; ops get theirs
                    // in complete_op.
                    records[tid].push(OpRecord {
                        at: r.at,
                        op: r.op.to_trace(),
                        reply_time: r.at,
                        reply_value: 0,
                        reply_flag: false,
                    });
                }
            }
            match r.op {
                Op::Barrier => {
                    self.transport.reply(
                        tid,
                        Reply {
                            time: r.at,
                            value: 0,
                            flag: false,
                        },
                    )?;
                    continue;
                }
                Op::Exit {
                    instructions,
                    ops,
                    at,
                    panicked: p,
                } => {
                    self.live -= 1;
                    self.exit_inst[tid] = instructions;
                    self.exit_ops[tid] = ops;
                    self.finish_time = self.finish_time.max(at);
                    if p {
                        self.panicked.push(tid);
                    }
                }
                op => {
                    debug_assert!(self.pending[tid].is_none());
                    self.pending[tid] = Some(Pending::Incoming(op));
                    self.ms.queue.push(tid, t, tid, r.at, Ev::OpStart(tid));
                }
            }
            return Ok(());
        }
    }

    /// Immediate completion with a precomputed result after `delay`.
    fn imm(&mut self, tid: usize, t: Cycle, value: u64, flag: bool, delay: Cycle) {
        self.pending[tid] = Some(Pending::Imm {
            value,
            flag,
            issued: t,
        });
        self.ms
            .queue
            .push(tid, t, tid, t + delay, Ev::OpComplete(tid));
    }

    /// Begin executing one instruction at its issue time `t`.
    fn start_op(&mut self, tid: usize, t: Cycle, op: Op) {
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
                let hit =
                    self.engine
                        .access(t, token, core, a.line(), kind, false, true, &mut self.ms);
                if let Some(done) = hit {
                    self.ms.queue.push(tid, t, tid, done, Ev::OpComplete(tid));
                }
                self.pending[tid] = Some(Pending::Data { op, issued: t });
                self.drain(t);
            }
            Op::Lease { addr, time } => {
                let line = addr.line();
                match self.ms.tables[tid].begin_lease(line, time) {
                    BeginLease::AlreadyLeased => {
                        self.imm(tid, t, 0, false, 1);
                    }
                    BeginLease::Inserted { displaced } => {
                        for d in displaced {
                            self.ms.lc[tid].overflow += 1;
                            self.engine.lease_released(t, core, d, &mut self.ms);
                        }
                        self.ms.lc[tid].taken += 1;
                        let hit = self.engine.access(
                            t,
                            token,
                            core,
                            line,
                            AccessKind::Rmw,
                            true,
                            false,
                            &mut self.ms,
                        );
                        if let Some(done) = hit {
                            self.ms.queue.push(tid, t, tid, done, Ev::OpComplete(tid));
                        }
                        self.pending[tid] = Some(Pending::LeaseAcq { issued: t });
                    }
                }
                self.drain(t);
            }
            Op::Release { addr } => {
                let line = addr.line();
                let flag = self.ms.tables[tid].release_into(line, &mut self.scratch.lines);
                self.ms.lc[tid].voluntary += self.scratch.lines.len() as u64;
                for &l in &self.scratch.lines {
                    if self.ms.trace.enabled() {
                        self.ms.trace.record(
                            t,
                            TraceEvent::LeaseReleased {
                                core,
                                line: l,
                                voluntary: true,
                            },
                        );
                    }
                    self.engine.lease_released(t, core, l, &mut self.ms);
                }
                self.imm(tid, t, 0, flag, 1);
                self.drain(t);
            }
            Op::MultiLease { addrs, time } => {
                let lines: Vec<LineAddr> = addrs.iter().map(|a| a.line()).collect();
                match self.ms.tables[tid].begin_multilease(&lines, time) {
                    MultiLeaseBegin::Rejected { released } => {
                        self.ms.lc[tid].voluntary += released.len() as u64;
                        for l in released {
                            self.engine.lease_released(t, core, l, &mut self.ms);
                        }
                        self.imm(tid, t, 0, false, 1);
                    }
                    MultiLeaseBegin::Admitted {
                        released,
                        sorted_lines,
                    } => {
                        self.ms.lc[tid].voluntary += released.len() as u64;
                        for l in released {
                            self.engine.lease_released(t, core, l, &mut self.ms);
                        }
                        if sorted_lines.is_empty() {
                            self.imm(tid, t, 0, true, 1);
                        } else {
                            self.ms.lc[tid].multileases += 1;
                            self.ms.lc[tid].taken += sorted_lines.len() as u64;
                            let first = sorted_lines[0];
                            let hit = self.engine.access(
                                t,
                                token,
                                core,
                                first,
                                AccessKind::Rmw,
                                true,
                                false,
                                &mut self.ms,
                            );
                            if let Some(done) = hit {
                                self.ms.queue.push(tid, t, tid, done, Ev::OpComplete(tid));
                            }
                            self.pending[tid] = Some(Pending::Multi {
                                lines: sorted_lines,
                                idx: 0,
                                issued: t,
                            });
                        }
                    }
                }
                self.drain(t);
            }
            Op::ReleaseAll => {
                self.ms.tables[tid].release_all_into(&mut self.scratch.lines);
                self.ms.lc[tid].voluntary += self.scratch.lines.len() as u64;
                for &l in &self.scratch.lines {
                    if self.ms.trace.enabled() {
                        self.ms.trace.record(
                            t,
                            TraceEvent::LeaseReleased {
                                core,
                                line: l,
                                voluntary: true,
                            },
                        );
                    }
                    self.engine.lease_released(t, core, l, &mut self.ms);
                }
                self.imm(tid, t, 0, true, 1);
                self.drain(t);
            }
            Op::Malloc { size, align } => self.heap_request(tid, t, HeapOp::Malloc { size, align }),
            Op::Free(a) => self.heap_request(tid, t, HeapOp::Free(a)),
            Op::Exit { .. } | Op::Barrier => unreachable!("{op:?} handled in await_request"),
        }
    }

    /// Send a heap op to the allocator home tile. The heap allocator is
    /// global machine state, so the request travels as a message: the
    /// simulated cost model becomes ALLOC_COST plus the NoC control
    /// round trip.
    fn heap_request(&mut self, tid: usize, t: Cycle, op: HeapOp) {
        self.pending[tid] = Some(Pending::Alloc { issued: t });
        let go = self
            .engine
            .ctrl_latency(CoreId(tid as u16), CoreId(ALLOC_HOME as u16));
        self.ms
            .queue
            .push(tid, t, ALLOC_HOME, t + go, Ev::MemReq { tid, op });
    }

    /// Finish one instruction at its completion time: move data, account
    /// statistics, wake the worker, and wait for its next instruction.
    fn complete_op(&mut self, tid: usize, t: Cycle) -> Result<(), String> {
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
                    let hit = self.engine.access(
                        t,
                        tid as u64,
                        core,
                        lines[idx + 1],
                        AccessKind::Rmw,
                        true,
                        false,
                        &mut self.ms,
                    );
                    if let Some(done) = hit {
                        self.ms.queue.push(tid, t, tid, done, Ev::OpComplete(tid));
                    }
                    self.pending[tid] = Some(Pending::Multi {
                        lines,
                        idx: idx + 1,
                        issued,
                    });
                    self.drain(t);
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
        if let Some(records) = &mut self.records {
            let rec = records[tid]
                .last_mut()
                .expect("a recorded op awaits its reply");
            rec.reply_time = t;
            rec.reply_value = value;
            rec.reply_flag = flag;
        }
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
    ms: &MachineState,
    engine: &CoherenceEngine,
    pending: &[Option<Pending>],
) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    let _ = writeln!(s, "==== simulation failure report ====");
    let _ = writeln!(s, "reason: {reason}");
    let _ = writeln!(s, "-- trace window --");
    if ms.trace.enabled() {
        let _ = writeln!(
            s,
            "  ({} retained of {} recorded events)",
            ms.trace.len(),
            ms.trace.recorded()
        );
        s.push_str(&ms.trace.render());
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
    for (i, tbl) in ms.tables.iter().enumerate() {
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
