//! The engine loop: ties the coherence protocol, the lease controller,
//! simulated memory, and lockstep workers together.
//!
//! The lease logic lives in [`LeaseController`] (`lr-lease`). This loop
//! translates ops into its calls and applies the effects it hands back:
//! released lines go to [`CoherenceEngine::lease_released`] in order,
//! pins to [`CoherenceEngine::pin`], expiries onto the event queue.
//!
//! ## Event routing
//!
//! Every simulated instruction becomes an `OpStart` event at the
//! worker's local issue time and an `OpComplete` event at its
//! protocol-determined completion time. Every event names the tile it
//! executes at ([`Ev::tile`]), and applying it touches only that tile's
//! slice of machine state — its pending-op slot, its leases —
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
use lr_lease::LeaseController;
use lr_sim_core::trace::{TraceEvent, TraceRing};
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

/// Where the engine's requests come from and its replies go to: the
/// live worker threads of [`Machine::run`], or a single-threaded supplier
/// such as `lr-replay`'s recorded trace in [`Machine::run_source`].
///
/// `next(tid)` is called each time the engine waits for core `tid`'s next
/// request; `observe(tid, reply)` is called with the reply to that
/// request, immediately before the next `next(tid)`. Returning `Err` from
/// either aborts the run with a structured failure report — this is how
/// `lr-replay` surfaces divergence between a recorded trace and the
/// engine's behaviour.
///
/// Calls for different `tid`s interleave in the engine's event order;
/// each core's own `next`/`observe` alternation is in that core's
/// program order, so sources key their state by `tid`.
///
/// A source never yields an [`Op::Barrier`] marker: markers live only in
/// recorded traces. A recording run logs and acknowledges them at the
/// engine's input, before the engine would see them, and the replayer
/// skips them.
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

/// What a run hands back: stats, final memory and engine info.
type RunOutput = (MachineStats, SimMemory, EngineInfo);

/// Result of [`Machine::run_recorded`]: the usual run outputs plus the
/// captured trace, ready for [`tracefmt::encode`].
pub struct RecordedRun {
    pub stats: MachineStats,
    pub mem: SimMemory,
    /// Discrete events the engine processed.
    pub events: u64,
    pub trace: MachineTrace,
}

/// The live workers: one OS thread per program, each running its
/// closure against a [`ThreadCtx`] that trades requests and replies with
/// the engine through a pair of rendezvous slots. A closure that panics
/// unwinds past its `Exit` and drops its slots. The engine waits for a
/// worker's next request right after replying to it, so it sees the
/// hang-up before any later event runs.
struct Workers {
    req_rx: Vec<SlotReceiver<Request>>,
    reply_tx: Vec<SlotSender<Reply>>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl Workers {
    /// Start one worker per program. `record` makes barrier crossings
    /// send their trace markers.
    fn spawn(programs: Vec<ThreadFn>, cfg: &SystemConfig, record: bool) -> Self {
        let n = programs.len();
        let mut w = Workers {
            req_rx: Vec::with_capacity(n),
            reply_tx: Vec::with_capacity(n),
            handles: Vec::with_capacity(n),
        };
        for (tid, f) in programs.into_iter().enumerate() {
            let (rtx, rrx) = slot::<Request>(ENGINE_PATIENCE);
            let (ptx, prx) = slot::<Reply>((WORKER_PATIENCE / n as u32).max(1));
            let mut tctx = ThreadCtx::new(
                tid,
                cfg.instruction_cost,
                cfg.lease.clone(),
                cfg.seed,
                rtx,
                prx,
                record,
            );
            w.handles.push(std::thread::spawn(move || {
                f(&mut tctx);
                tctx.send_exit();
            }));
            w.req_rx.push(rrx);
            w.reply_tx.push(ptx);
        }
        w
    }

    /// Wait for every worker to finish. The slots close first, so the
    /// workers of a failed run, still blocked on the engine, see the
    /// hang-up and exit.
    fn join(self) {
        drop(self.req_rx);
        drop(self.reply_tx);
        for h in self.handles {
            let _ = h.join();
        }
    }
}

impl OpSource for Workers {
    fn next(&mut self, tid: usize) -> Result<Request, String> {
        self.req_rx[tid]
            .recv()
            .map_err(|_| format!("workload thread(s) [{tid}] panicked inside the simulation"))
    }

    fn observe(&mut self, tid: usize, reply: Reply) -> Result<(), String> {
        self.reply_tx[tid]
            .send(reply)
            .map_err(|_| format!("core {tid}: worker hung up before receiving its reply"))
    }
}

/// Trace capture at the engine's input: the live workers as the engine
/// sees them in a recording run. It runs on the engine thread, so
/// workers allocate nothing for the trace. `next` logs each request as
/// an [`OpRecord`] and `observe` fills in the logged op's reply. A barrier
/// marker is logged and acknowledged here, and the wait goes on: the
/// engine never sees one.
struct Recorder<'a> {
    workers: &'a mut Workers,
    /// One op stream per core.
    cores: Vec<Vec<OpRecord>>,
}

impl OpSource for Recorder<'_> {
    fn next(&mut self, tid: usize) -> Result<Request, String> {
        loop {
            let r = self.workers.next(tid)?;
            // Markers and Exit keep this reply; ops get theirs in observe.
            self.cores[tid].push(OpRecord {
                at: r.at,
                op: r.op.map_addrs(|a| a.to_vec()),
                reply_time: r.at,
                reply_value: 0,
                reply_flag: false,
            });
            if !matches!(r.op, Op::Barrier) {
                return Ok(r);
            }
            let ack = Reply {
                time: r.at,
                value: 0,
                flag: false,
            };
            self.workers.observe(tid, ack)?;
        }
    }

    fn observe(&mut self, tid: usize, reply: Reply) -> Result<(), String> {
        let rec = self.cores[tid]
            .last_mut()
            .expect("a recorded op awaits its reply");
        rec.reply_time = reply.time;
        rec.reply_value = reply.value;
        rec.reply_flag = reply.flag;
        self.workers.observe(tid, reply)
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

/// Yields before the engine parks on a worker's request. Its wait is
/// always hot: the worker it just woke is always the very next sender.
const ENGINE_PATIENCE: u32 = 256;

/// Yields before a worker parks on its reply, shared among the workers
/// (`max(1, WORKER_PATIENCE / n)` each). A reply may be many engine
/// events away, since other workers' ops are simulated first, and each
/// yielding waiter lengthens every host scheduling rotation and slows
/// the pair that is making progress: the more workers wait, the sooner
/// each parks. A lone worker keeps all 16: at patience 1, 1-thread
/// cells ran about 3× slower (DESIGN §4b).
const WORKER_PATIENCE: u32 = 16;

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

/// In-flight instruction state per worker.
#[derive(Debug)]
enum Pending {
    /// Received from the worker, waiting for its issue time.
    Incoming(Op),
    /// A data access in the protocol; data moves at completion.
    Data { op: Op, issued: Cycle },
    /// A lease acquisition in the protocol: one line, or a MultiLease
    /// group's lines one at a time in global order (Algorithm 2), as
    /// [`LeaseController::next_group_line`] hands them out.
    Lease { issued: Cycle },
    /// A heap request in flight to/from the allocator home tile.
    Alloc { issued: Cycle },
    /// Immediate completion with a precomputed result.
    Imm {
        value: u64,
        flag: bool,
        issued: Cycle,
    },
}

/// Builds the trace event of one lease release.
type TraceFn = fn(CoreId, LineAddr) -> TraceEvent;

/// Reusable machine-loop buffers. Deferred-effect staging ping-pongs
/// between here and the lease controller or [`MachineState`] (see
/// [`EngineCore::drain`]) so the steady-state loop performs no per-event
/// heap allocation.
#[derive(Default)]
struct Scratch {
    pins: Vec<(CoreId, LineAddr)>,
    mates: Vec<(CoreId, LineAddr)>,
    completions: Vec<(u64, Cycle)>,
    /// Lines the lease controller released on a machine-loop path.
    lines: Vec<LineAddr>,
}

/// Machine-layer state, and the [`CohContext`] the coherence engine
/// sees: the event store, the lease controller, the trace ring, the
/// base time/tile of the event being applied (every `schedule` is
/// relative to them, and the tile stamps the canonical push key) and the
/// completions of the engine call in progress.
struct MachineState {
    queue: ShardedQueue<Ev>,
    leases: LeaseController,
    /// Structured trace window (depth 0 = off) fed by both the engine
    /// (through the [`CohContext`] hooks) and the machine loop itself.
    trace: TraceRing,
    /// Base time of the engine call in progress (schedule() is relative).
    base: Cycle,
    /// Tile of the event being applied (push source / canonical key).
    tile: usize,
    /// Completions deferred by the engine call in progress.
    completions: Vec<(u64, Cycle)>,
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
        self.leases.probe_action(owner, line, regular, now)
    }

    fn exclusive_granted(&mut self, core: CoreId, line: LineAddr, now: Cycle) {
        for a in self.leases.exclusive_granted(core, line, now) {
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
        self.leases.pinned_victim(core, pinned)
    }

    fn line_invalidated(&mut self, core: CoreId, line: LineAddr, _now: Cycle) {
        self.leases.line_invalidated(core, line);
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
        let (stats, mem, _info) = self.run_counted_info(programs);
        (stats, mem)
    }

    /// Like [`Machine::run_with_memory`], additionally returning the
    /// engine's [`EngineInfo`] (event count, allocator messages): host
    /// observability kept out of [`MachineStats`] so the published
    /// simulated metrics stay exactly the paper's.
    pub fn run_counted_info(
        self,
        programs: Vec<ThreadFn>,
    ) -> (MachineStats, SimMemory, EngineInfo) {
        self.run_live(programs, false).0
    }

    /// Like [`Machine::run_counted_info`], additionally capturing every
    /// worker's op stream (operands, issue times, and observed replies)
    /// plus a pre-run memory snapshot, as a [`MachineTrace`] ready for
    /// [`tracefmt::encode`] and later engine-only replay.
    pub fn run_recorded(self, programs: Vec<ThreadFn>) -> RecordedRun {
        let ((stats, mem, info), trace) = self.run_live(programs, true);
        RecordedRun {
            stats,
            mem,
            events: info.events,
            trace: trace.expect("recording run produces a trace"),
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
        let (stats, mem, info) = self.run_inner(threads, source)?;
        Ok((stats, mem, info.events))
    }

    /// Run `programs` on live workers and join them. The run records
    /// when `record` asks for it or a trace output is configured: a
    /// [`Recorder`] stands between the workers and the engine, and the
    /// trace is assembled, and written to the trace output, once the
    /// run ends. Panics with the failure report if the run fails.
    fn run_live(
        mut self,
        programs: Vec<ThreadFn>,
        record: bool,
    ) -> (RunOutput, Option<MachineTrace>) {
        let trace_out = self.trace_out.take();
        let record = record || trace_out.is_some();
        let n = programs.len();
        let mut workers = Workers::spawn(programs, &self.cfg, record);
        let res = if record {
            // The replayer restores this exact image before re-driving
            // ops, so it must be taken before any simulated execution.
            let (config, pre_image) = (self.cfg.clone(), self.mem.snapshot());
            let mut rec = Recorder {
                workers: &mut workers,
                cores: vec![Vec::new(); n],
            };
            self.run_inner(n, &mut rec).map(|(stats, mem, info)| {
                let trace = MachineTrace {
                    config,
                    mem: pre_image,
                    cores: rec.cores,
                    stats_json: stats.to_json(),
                    live_events: info.events,
                };
                if let Some(out) = &trace_out {
                    write_trace_file(out, &trace);
                }
                ((stats, mem, info), Some(trace))
            })
        } else {
            self.run_inner(n, &mut workers).map(|out| (out, None))
        };
        workers.join();
        res.unwrap_or_else(|abort| panic!("{}", abort.report))
    }

    /// Drive `n` cores from `source` to completion.
    fn run_inner(self, n: usize, source: &mut dyn OpSource) -> Result<RunOutput, Box<SourceAbort>> {
        let (cfg, mem) = (self.cfg, self.mem);
        assert!(n >= 1, "no workload threads");
        assert!(
            n <= cfg.num_cores,
            "{n} threads exceed {} cores",
            cfg.num_cores
        );

        let engine = CoherenceEngine::new(&cfg);
        let mut ms = MachineState {
            queue: ShardedQueue::new(cfg.num_cores),
            leases: LeaseController::new(cfg.num_cores, &cfg.lease),
            trace: TraceRing::new(self.trace_depth),
            base: 0,
            tile: 0,
            completions: Vec::new(),
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
            source,
            pending: (0..n).map(|_| None).collect(),
            live: n,
            finish_time: 0,
            exit_inst: vec![0u64; n],
            exit_ops: vec![0u64; n],
            alloc_msgs: 0,
        };

        // Any failure inside the event loop — watchdog trip, protocol
        // assertion (panic), divergence, deadlock or a worker that
        // panicked (Err from the source) — is caught and rendered as one
        // coherent report: the failure reason, the trace window, the
        // in-flight protocol state, and every core's lease table.
        let loop_result = std::panic::catch_unwind(AssertUnwindSafe(|| -> Result<(), String> {
            while let Some((t, _, ev)) = core.ms.queue.pop_global() {
                core.apply(t, ev)?;
            }
            core.finish_checks()
        }))
        .unwrap_or_else(|p| Err(panic_payload_msg(p.as_ref())));
        if let Err(reason) = loop_result {
            let report = render_failure_report(&reason, &core.ms, &core.engine, &core.pending);
            return Err(Box::new(SourceAbort { reason, report }));
        }
        let EngineCore {
            engine,
            ms,
            mem,
            finish_time,
            exit_inst,
            exit_ops,
            alloc_msgs,
            ..
        } = core;

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
            c.merge(ms.leases.counters(CoreId(tid as u16)));
        }
        Ok((stats, mem, info))
    }
}

/// The engine state: protocol, lease controller, event store, simulated
/// memory, op source, and per-core completion bookkeeping.
///
/// Every event goes through [`EngineCore::apply`], and applying an
/// event touches only state owned by the event's tile: its engine
/// slices, its core's leases and pending slot.
/// Cross-tile effects ride queued messages.
struct EngineCore<'a> {
    cfg: SystemConfig,
    engine: CoherenceEngine,
    ms: MachineState,
    scratch: Scratch,
    mem: SimMemory,
    source: &'a mut dyn OpSource,
    pending: Vec<Option<Pending>>,
    /// Workers that have not sent `Exit` yet.
    live: usize,
    finish_time: Cycle,
    exit_inst: Vec<u64>,
    exit_ops: Vec<u64>,
    /// `Ev::MemReq` events (heap ops routed to the allocator home tile)
    /// applied; reported as [`EngineInfo::alloc_msgs`].
    alloc_msgs: u64,
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
                let out = &mut self.scratch.lines;
                if self.ms.leases.expire(core, line, generation, out) {
                    let expired: TraceFn = |core, line| TraceEvent::LeaseExpired { core, line };
                    self.lease_released(t, core, Some(expired));
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
        self.ms.leases.check_quiescent()
    }

    /// Drain effects deferred by the `CohContext` during the engine
    /// calls of the event being applied: the lease controller's pins and
    /// group-mate releases, then the completions.
    ///
    /// The deferred-effect vectors ping-pong with the scratch buffers via
    /// `mem::swap`, so at steady state this allocates nothing: both sides
    /// keep their high-water capacity.
    fn drain(&mut self, t: Cycle) {
        while self
            .ms
            .leases
            .take_staged(&mut self.scratch.pins, &mut self.scratch.mates)
        {
            for &(c, l) in &self.scratch.pins {
                self.engine.pin(c, l, true);
            }
            for &(c, l) in &self.scratch.mates {
                self.engine.lease_released(t, c, l, &mut self.ms);
            }
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

    /// Take core `tid`'s next instruction from the [`OpSource`]: a live
    /// worker blocks the engine until it sends (`tid` is the only
    /// runnable entity of its own pipeline right now). Every request is
    /// received on the engine thread, so each rendezvous slot keeps one
    /// receiver thread for its whole life (the slot's pinned-consumer
    /// requirement).
    fn await_request(&mut self, tid: usize, t: Cycle) -> Result<(), String> {
        let r = self.source.next(tid)?;
        match r.op {
            Op::Exit { instructions, ops } => {
                self.live -= 1;
                self.exit_inst[tid] = instructions;
                self.exit_ops[tid] = ops;
                self.finish_time = self.finish_time.max(r.at);
            }
            op => {
                debug_assert!(self.pending[tid].is_none());
                self.pending[tid] = Some(Pending::Incoming(op));
                self.ms.queue.push(tid, t, tid, r.at, Ev::OpStart(tid));
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
        self.ms
            .queue
            .push(tid, t, tid, t + delay, Ev::OpComplete(tid));
    }

    /// Issue core `tid`'s access to `line` at `t`; an L1 hit completes
    /// it at once. A lease acquisition carries lease intent; every other
    /// access is a regular request (paper §5).
    fn access(&mut self, tid: usize, t: Cycle, line: LineAddr, kind: AccessKind, lease: bool) {
        let core = CoreId(tid as u16);
        let hit = self
            .engine
            .access(t, tid as u64, core, line, kind, lease, !lease, &mut self.ms);
        if let Some(done) = hit {
            self.ms.queue.push(tid, t, tid, done, Ev::OpComplete(tid));
        }
    }

    /// Complete, in order, the releases of the lines the lease controller
    /// just left in `scratch.lines`: unpin each and resume the probe
    /// stalled behind it. `trace` builds the event each release records
    /// first, if any.
    fn lease_released(&mut self, t: Cycle, core: CoreId, trace: Option<TraceFn>) {
        for &line in &self.scratch.lines {
            if let Some(ev) = trace.filter(|_| self.ms.trace.enabled()) {
                self.ms.trace.record(t, ev(core, line));
            }
            self.engine.lease_released(t, core, line, &mut self.ms);
        }
    }

    /// Begin executing one instruction at its issue time `t`.
    fn start_op(&mut self, tid: usize, t: Cycle, op: Op) {
        let core = CoreId(tid as u16);
        let voluntary: TraceFn = |core, line| TraceEvent::LeaseReleased {
            core,
            line,
            voluntary: true,
        };
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
                self.access(tid, t, a.line(), kind, false);
                self.pending[tid] = Some(Pending::Data { op, issued: t });
            }
            Op::Lease { addr, time } => {
                let (line, out) = (addr.line(), &mut self.scratch.lines);
                if self.ms.leases.lease(core, line, time, out) {
                    self.lease_released(t, core, None);
                    self.access(tid, t, line, AccessKind::Rmw, true);
                    self.pending[tid] = Some(Pending::Lease { issued: t });
                } else {
                    self.imm(tid, t, 0, false, 1);
                }
            }
            Op::MultiLease { addrs, time } => {
                let (lines, out) = (addrs.iter().map(|a| a.line()), &mut self.scratch.lines);
                let admitted = self.ms.leases.multi_lease(core, lines, time, out);
                self.lease_released(t, core, None);
                match self.ms.leases.next_group_line(core) {
                    Some(first) => {
                        self.access(tid, t, first, AccessKind::Rmw, true);
                        self.pending[tid] = Some(Pending::Lease { issued: t });
                    }
                    None => self.imm(tid, t, 0, admitted, 1),
                }
            }
            Op::Release { addr } => {
                let out = &mut self.scratch.lines;
                let held = self.ms.leases.release(core, addr.line(), out);
                self.lease_released(t, core, Some(voluntary));
                self.imm(tid, t, 0, held, 1);
            }
            Op::ReleaseAll => {
                self.ms.leases.release_all(core, &mut self.scratch.lines);
                self.lease_released(t, core, Some(voluntary));
                self.imm(tid, t, 0, true, 1);
            }
            Op::Malloc { size, align } => self.heap_request(tid, t, HeapOp::Malloc { size, align }),
            Op::Free(a) => self.heap_request(tid, t, HeapOp::Free(a)),
            Op::Exit { .. } => unreachable!("Exit handled in await_request"),
            Op::Barrier => unreachable!("an op source yielded a barrier marker"),
        }
        self.drain(t);
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
            Pending::Lease { issued } => {
                if let Some(next) = self.ms.leases.next_group_line(core) {
                    self.access(tid, t, next, AccessKind::Rmw, true);
                    self.pending[tid] = Some(Pending::Lease { issued });
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
        self.source.observe(
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
    s.push_str(&ms.leases.debug_dump());
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
