//! The MSI directory protocol engine.
//!
//! State machine overview (one transaction = one core's one outstanding
//! miss; cores are in-order and blocking, so there is at most one
//! transaction per core):
//!
//! ```text
//! access() ──miss──► DirArrive ──► [per-line FIFO] ──► service()
//!    service: Uncached/Shared ──► GrantArrive at requester
//!             Modified(owner) ──► ProbeArrive at owner
//!    ProbeArrive: lease valid ──► stall (resumed by lease_released())
//!                 no copy     ──► ProbeMiss bounce ──► grant from home
//!                 otherwise   ──► downgrade owner ──► GrantArrive
//!                                 (+ DirUpdate back to the home)
//!    GrantArrive: install in L1, notify completion,
//!                 ack ──► DirUnlock ──► service next queued request
//! ```
//!
//! ## Tile ownership
//!
//! Every handler runs *at* one tile — the event's delivery tile — and
//! only mutates that tile's slice of state: its L1, its L2/directory
//! slice, its channel table and stalled-probe table, its stats block.
//! Steps that used to reach across tiles synchronously (invalidating a
//! sharer's L1, updating the directory after an owner downgrade,
//! applying a victim writeback, back-invalidating on an inclusive-L2
//! eviction) are now follow-on messages ([`CohEvent::InvArrive`],
//! [`CohEvent::DirUpdate`], [`CohEvent::Writeback`],
//! [`CohEvent::SharerDrop`], [`CohEvent::BackInval`]) carrying a real
//! NoC latency, so every cross-tile effect is a message with its own
//! delivery time.
//!
//! In debug and `strict-invariants` builds, every tile-slice access
//! asserts that the touched tile equals the executing tile, so a
//! handler that silently reaches across tiles fails loudly.
//!
//! The directory is therefore *eventually consistent* with the L1s:
//! while a `DirUpdate`/`Writeback`/`SharerDrop` rides the NoC, the
//! home's view lags the owner's. Per-line FIFO channels make this
//! safe — a line's directory state is only *read* when its channel
//! starts servicing a request, and every in-flight update for the
//! previous transaction provably lands first (see `owner_downgrade`).
//! Stale victim messages are detected and dropped on arrival.

use crate::dir::{DirEntry, SharerRows};
use crate::{
    AccessKind, CohContext, CohEvent, CoreSet, DirState, Downgrade, L1State, ProbeAction, Xact,
};
use lr_sim_cache::{Inserted, SetAssocCache};
use lr_sim_core::trace::{TraceAccess, TraceEvent};
use lr_sim_core::{CoreId, CoreStats, Cycle, LineAddr, MachineStats, SystemConfig};
use lr_sim_noc::{Mesh, MsgClass};
use std::collections::{HashMap, VecDeque};

/// A protocol invariant does not hold: abort the simulation with a
/// cycle-stamped reason carrying the violating core/line/transaction.
/// Under `lr-machine` the panic unwinds into the engine loop's catch,
/// which renders the structured failure report (trace window, in-flight
/// transactions, lease tables) with this message as its reason line —
/// never a bare `unwrap()` with no protocol context.
macro_rules! protocol_bug {
    ($now:expr, $($arg:tt)*) => {
        panic!(
            "protocol invariant violated at cycle {}: {}",
            $now,
            format_args!($($arg)*)
        )
    };
}

/// Number of low bits of a transaction id holding the per-core counter
/// (the requesting core occupies the bits above).
const XACT_CTR_BITS: u32 = 48;

/// A probe queued at an owning core behind a lease (Section 3: at most one
/// per (core, line) can exist — Proposition 1).
#[derive(Debug, Clone, Copy)]
pub struct PendingProbe {
    /// The transaction whose probe is stalled.
    pub xact: Xact,
    /// When the probe arrived (for queued-cycles accounting).
    pub since: Cycle,
}

#[derive(Debug, Default)]
struct LineChannel {
    active: Option<Xact>,
    queue: VecDeque<Xact>,
}

/// Mutable state owned by one tile: its per-line directory channels,
/// its sharer rows, its stalled-probe table, and its transaction
/// bookkeeping. Handlers executing at the tile are the only code that
/// touches it.
#[derive(Debug)]
struct TileState {
    /// Per-line FIFO request channels of this tile's directory slice
    /// (Assumption 1 of the paper).
    channels: HashMap<LineAddr, LineChannel>,
    /// Slab of retired channel nodes. A line's channel is created on
    /// first directory arrival and dropped once its queue drains, so a
    /// contended line churns through channels continuously; recycling
    /// them keeps each queue's `VecDeque` buffer (the only per-node
    /// heap block) alive across that churn, making the steady-state
    /// directory path allocation-free (audited by `lr-bench`'s
    /// `cell_alloc` counting-allocator test).
    free_channels: Vec<LineChannel>,
    /// Sharer bitmaps of this tile's Shared directory entries.
    rows: SharerRows,
    /// Probes stalled behind leases held by this tile's core.
    stalled: HashMap<LineAddr, PendingProbe>,
    /// Per-core issue counter for transaction ids.
    xact_ctr: u64,
    /// Misses issued by this tile's core that have not been granted yet.
    outstanding: u64,
}

impl TileState {
    fn new(num_cores: usize) -> Self {
        TileState {
            channels: HashMap::new(),
            free_channels: Vec::new(),
            rows: SharerRows::new(num_cores),
            stalled: HashMap::new(),
            xact_ctr: 0,
            outstanding: 0,
        }
    }
}

/// The directory-based MSI coherence engine for all tiles.
pub struct CoherenceEngine {
    cfg: SystemConfig,
    mesh: Mesh,
    /// Private L1 per core: resident lines and their M/S state.
    l1: Vec<SetAssocCache<L1State>>,
    /// Shared L2 slice per tile: resident lines and their directory entry
    /// (a Shared entry names a row of the tile's `rows`). A line's L2
    /// entry is pinned while its channel is active, so the slice never
    /// evicts a line with an in-flight transaction.
    l2: Vec<SetAssocCache<DirEntry>>,
    /// Per-tile mutable protocol state.
    tiles: Vec<TileState>,
    /// Machine-level counters (`cores` left empty; filled in by
    /// [`CoherenceEngine::stats`]).
    totals: MachineStats,
    /// Per-core counters (tile i owns entry i).
    core_stats: Vec<CoreStats>,
    /// Tile executing the current entry point (access/handle/...): the
    /// tile-ownership guard's reference. Each entry point sets it
    /// before touching tile state and never calls back into another
    /// entry point, so it is stable for the extent of each call.
    #[cfg_attr(
        not(any(debug_assertions, feature = "strict-invariants")),
        allow(dead_code)
    )]
    cur: usize,
}

impl CoherenceEngine {
    /// Build the engine for `cfg.num_cores` tiles.
    pub fn new(cfg: &SystemConfig) -> Self {
        assert!(
            cfg.num_cores >= 1 && cfg.num_cores <= lr_sim_core::MAX_CORES,
            "the directory supports 1 to {} cores, not {}",
            lr_sim_core::MAX_CORES,
            cfg.num_cores
        );
        let l1 = (0..cfg.num_cores)
            .map(|_| SetAssocCache::new(cfg.l1_sets(), cfg.l1_ways))
            .collect();
        let l2 = (0..cfg.num_cores)
            .map(|_| SetAssocCache::new(cfg.l2_sets(), cfg.l2_ways))
            .collect();
        CoherenceEngine {
            mesh: Mesh::new(cfg),
            l1,
            l2,
            tiles: (0..cfg.num_cores)
                .map(|_| TileState::new(cfg.num_cores))
                .collect(),
            totals: MachineStats::new(0),
            core_stats: vec![CoreStats::default(); cfg.num_cores],
            cur: 0,
            cfg: cfg.clone(),
        }
    }

    /// Home tile (L2 slice / directory) of a line: stride interleaving
    /// within the line's *home socket*. The socket is chosen by the
    /// 1 GiB region the line lives in (`line >> 24`, i.e. byte address
    /// `>> 30`), so memory placed in a socket's arena is homed on that
    /// socket's directory slices and reached without crossing the
    /// inter-socket link. With `sockets == 1` this is exactly the old
    /// flat stride interleaving `line % num_cores`.
    #[inline]
    pub fn home_of(&self, line: LineAddr) -> CoreId {
        let sockets = self.cfg.sockets as u64;
        let tps = (self.cfg.num_cores / self.cfg.sockets) as u64;
        let s = (line.0 >> 24) % sockets;
        CoreId((s * tps + line.0 % tps) as u16)
    }

    // ---- tile-ownership guard -------------------------------------------

    /// Debug-mode guard: every tile-slice access must belong to the tile
    /// executing the current event. Compiled out in plain release builds.
    #[inline]
    fn assert_tile(&self, t: CoreId) {
        #[cfg(any(debug_assertions, feature = "strict-invariants"))]
        assert!(
            t.idx() == self.cur,
            "tile-ownership violated: handler executing at tile {} touched tile {}",
            self.cur,
            t.idx()
        );
        #[cfg(not(any(debug_assertions, feature = "strict-invariants")))]
        let _ = t;
    }

    fn l1_at(&self, c: CoreId) -> &SetAssocCache<L1State> {
        self.assert_tile(c);
        &self.l1[c.idx()]
    }

    fn l1_mut(&mut self, c: CoreId) -> &mut SetAssocCache<L1State> {
        self.assert_tile(c);
        &mut self.l1[c.idx()]
    }

    fn l2_at(&self, h: CoreId) -> &SetAssocCache<DirEntry> {
        self.assert_tile(h);
        &self.l2[h.idx()]
    }

    fn l2_mut(&mut self, h: CoreId) -> &mut SetAssocCache<DirEntry> {
        self.assert_tile(h);
        &mut self.l2[h.idx()]
    }

    fn tile_at(&self, t: CoreId) -> &TileState {
        self.assert_tile(t);
        &self.tiles[t.idx()]
    }

    fn tile_mut(&mut self, t: CoreId) -> &mut TileState {
        self.assert_tile(t);
        &mut self.tiles[t.idx()]
    }

    fn cstats(&mut self, c: CoreId) -> &mut CoreStats {
        self.assert_tile(c);
        &mut self.core_stats[c.idx()]
    }

    // ---- public surface --------------------------------------------------

    /// Protocol statistics: the machine-level counters plus the
    /// per-core counters.
    pub fn stats(&self) -> MachineStats {
        MachineStats {
            cores: self.core_stats.clone(),
            ..self.totals.clone()
        }
    }

    /// Mutable per-core counters, for the machine layer's own per-core
    /// accounting (instructions, ops, lease counters). An entry point:
    /// the machine calls it while executing an event at `c`'s tile.
    pub fn core_stats_mut(&mut self, c: CoreId) -> &mut CoreStats {
        self.cur = c.idx();
        &mut self.core_stats[c.idx()]
    }

    /// Current L1 state of `line` at `core` (None = Invalid).
    pub fn l1_state(&self, core: CoreId, line: LineAddr) -> Option<L1State> {
        self.l1[core.idx()].peek(line).copied()
    }

    /// Current directory state of `line` (None = not resident in L2).
    pub fn dir_state(&self, line: LineAddr) -> Option<DirState> {
        let home = self.home_of(line).idx();
        Some(match *self.l2[home].peek(line)? {
            DirEntry::Uncached => DirState::Uncached,
            DirEntry::Modified(o) => DirState::Modified(o),
            DirEntry::Shared(r) => DirState::Shared(
                self.tiles[home]
                    .rows
                    .members(r)
                    .fold(CoreSet::EMPTY, CoreSet::with),
            ),
        })
    }

    /// Pin or unpin `line` in `core`'s L1 (lease layer: leased lines are
    /// pinned so they cannot be picked as eviction victims). An entry
    /// point: executes at `core`'s tile.
    pub fn pin(&mut self, core: CoreId, line: LineAddr, pinned: bool) -> bool {
        self.cur = core.idx();
        self.l1[core.idx()].set_pinned(line, pinned)
    }

    /// Is a probe currently stalled behind a lease at (core, line)?
    pub fn has_stalled_probe(&self, core: CoreId, line: LineAddr) -> bool {
        self.tiles[core.idx()].stalled.contains_key(&line)
    }

    /// Number of in-flight transactions (for quiescence checks).
    pub fn in_flight(&self) -> usize {
        self.tiles.iter().map(|t| t.outstanding as usize).sum()
    }

    /// Uncharged control-message latency between two tiles (for machine
    /// -layer messages that ride the same mesh but are not coherence
    /// traffic, e.g. allocator requests).
    pub fn ctrl_latency(&self, from: CoreId, to: CoreId) -> Cycle {
        self.mesh.latency(from, to, MsgClass::Control)
    }

    /// Diagnostic dump of in-flight protocol state (for deadlock reports).
    pub fn debug_dump(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        for (i, tile) in self.tiles.iter().enumerate() {
            if tile.outstanding > 0 {
                let _ = writeln!(s, "  tile {i}: {} outstanding miss(es)", tile.outstanding);
            }
            for (l, p) in &tile.stalled {
                let _ = writeln!(
                    s,
                    "  stalled probe at core{i} for {l}: xact {} (req core{}) since {}",
                    p.xact.id,
                    p.xact.core.idx(),
                    p.since
                );
            }
            for (l, ch) in &tile.channels {
                let _ = writeln!(
                    s,
                    "  channel {l} at tile {i}: active={:?} queued={:?}",
                    ch.active.map(|x| x.id),
                    ch.queue.iter().map(|x| x.id).collect::<Vec<_>>()
                );
            }
        }
        s
    }

    fn msg(&mut self, from: CoreId, to: CoreId, class: MsgClass) -> Cycle {
        let hops = self.mesh.flit_hops(from, to, class);
        let socket_hops = self.mesh.socket_flit_hops(from, to, class);
        let lat = self.mesh.latency(from, to, class);
        let ts = &mut self.totals;
        match class {
            MsgClass::Control => ts.msgs_control += 1,
            MsgClass::Data => ts.msgs_data += 1,
        }
        ts.flit_hops += hops;
        if socket_hops > 0 {
            ts.cross_socket_msgs += 1;
            ts.socket_flit_hops += socket_hops;
        }
        lat
    }

    /// Issue a memory access. Returns `Some(completion_time)` on an L1
    /// hit; otherwise the access goes through the protocol and finishes
    /// with a `ctx.xact_completed(token, ..)` callback.
    ///
    /// `lease_intent` marks the access as a lease acquisition: exclusive
    /// ownership triggers `ctx.exclusive_granted`. `regular` marks the
    /// request as a plain (non-lease) access for the §5 prioritization
    /// option.
    #[allow(clippy::too_many_arguments)]
    pub fn access(
        &mut self,
        now: Cycle,
        token: u64,
        core: CoreId,
        line: LineAddr,
        kind: AccessKind,
        lease_intent: bool,
        regular: bool,
        ctx: &mut dyn CohContext,
    ) -> Option<Cycle> {
        self.cur = core.idx();
        if lease_intent {
            debug_assert!(kind.needs_exclusive(), "leases demand Exclusive state");
        }
        let st = self.l1_mut(core).touch(line).map(|s| *s);
        let hit = match (st, kind.needs_exclusive()) {
            (Some(s), true) => s.writable(),
            (Some(_), false) => true,
            (None, _) => false,
        };
        if hit {
            if kind.needs_exclusive() && st == Some(L1State::Exclusive) {
                // MESI silent upgrade: E → M without any message.
                *self.l1_mut(core).peek_mut(line).unwrap() = L1State::Modified;
            }
            self.cstats(core).l1_hits += 1;
            let done = now + self.cfg.l1_latency;
            if lease_intent {
                ctx.exclusive_granted(core, line, done);
            }
            return Some(done);
        }
        self.cstats(core).l1_misses += 1;
        let tile = self.tile_mut(core);
        debug_assert!(tile.xact_ctr < 1 << XACT_CTR_BITS, "xact counter overflow");
        let id = ((core.idx() as u64) << XACT_CTR_BITS) | tile.xact_ctr;
        tile.xact_ctr += 1;
        tile.outstanding += 1;
        let x = Xact {
            id,
            token,
            core,
            line,
            kind,
            lease_intent,
            regular,
            grant_exclusive: false,
            enq_time: 0,
        };
        if ctx.tracing() {
            ctx.trace(
                now,
                TraceEvent::MissIssued {
                    xact: id,
                    core,
                    line,
                    kind: if kind.needs_exclusive() {
                        TraceAccess::Exclusive
                    } else {
                        TraceAccess::Load
                    },
                    lease_intent,
                },
            );
        }
        let home = self.home_of(line);
        let lat = self.msg(core, home, MsgClass::Control);
        ctx.schedule(lat, home, CohEvent::DirArrive(x));
        None
    }

    /// Feed a previously scheduled coherence event back into the engine.
    /// `at` is the tile the event was scheduled for (the `dest` the
    /// engine passed to [`CohContext::schedule`]): the handler executes
    /// there and only mutates that tile's state.
    pub fn handle(&mut self, now: Cycle, at: CoreId, ev: CohEvent, ctx: &mut dyn CohContext) {
        self.cur = at.idx();
        match ev {
            CohEvent::DirArrive(x) => self.dir_arrive(now, x, ctx),
            CohEvent::ProbeArrive(x, o) => {
                debug_assert_eq!(o, at, "probe delivered to the wrong tile");
                self.probe_arrive(now, x, o, ctx)
            }
            CohEvent::ProbeMiss(x) => self.probe_miss(now, x, ctx),
            CohEvent::GrantArrive(x) => self.grant_arrive(now, x, ctx),
            CohEvent::DirUnlock(line) => self.dir_unlock(now, line, ctx),
            CohEvent::InvArrive { line } => self.inv_arrive(at, line),
            CohEvent::DirUpdate { line, outcome } => self.dir_update(now, line, outcome),
            CohEvent::Writeback { line, from } => self.writeback_arrive(line, from),
            CohEvent::SharerDrop { line, from } => self.sharer_drop(line, from),
            CohEvent::BackInval { line } => self.back_inval(now, at, line, ctx),
        }
    }

    /// The lease on `(core, line)` ended (voluntarily or not): unpin the
    /// line and resume any probe stalled behind the lease. An entry
    /// point: executes at `core`'s tile.
    pub fn lease_released(
        &mut self,
        now: Cycle,
        core: CoreId,
        line: LineAddr,
        ctx: &mut dyn CohContext,
    ) {
        self.cur = core.idx();
        self.l1_mut(core).set_pinned(line, false);
        if let Some(p) = self.tile_mut(core).stalled.remove(&line) {
            self.cstats(core).probe_queued_cycles += now - p.since;
            if ctx.tracing() {
                ctx.trace(
                    now,
                    TraceEvent::ProbeResumed {
                        owner: core,
                        line,
                        waited: now - p.since,
                    },
                );
            }
            self.owner_downgrade(now, p.xact, core, ctx);
        }
    }

    fn dir_arrive(&mut self, now: Cycle, mut x: Xact, ctx: &mut dyn CohContext) {
        let line = x.line;
        let home = self.home_of(line);
        let tile = self.tile_mut(home);
        let TileState {
            channels,
            free_channels,
            ..
        } = tile;
        let ch = channels
            .entry(line)
            .or_insert_with(|| free_channels.pop().unwrap_or_default());
        if ch.active.is_some() {
            x.enq_time = now;
            ch.queue.push_back(x);
            let qlen = ch.queue.len();
            let ts = &mut self.totals;
            if qlen > ts.max_dir_queue_len {
                ts.max_dir_queue_len = qlen;
            }
            if ctx.tracing() {
                ctx.trace(
                    now,
                    TraceEvent::DirQueued {
                        xact: x.id,
                        line,
                        depth: qlen,
                    },
                );
            }
        } else {
            ch.active = Some(x);
            if ctx.tracing() {
                ctx.trace(now, TraceEvent::DirArrive { xact: x.id, line });
            }
            self.service(now, x, ctx);
        }
    }

    fn dir_unlock(&mut self, now: Cycle, line: LineAddr, ctx: &mut dyn CohContext) {
        let home = self.home_of(line);
        self.l2_mut(home).set_pinned(line, false);
        if ctx.tracing() {
            ctx.trace(now, TraceEvent::DirUnlock { line });
        }
        let tile = self.tile_mut(home);
        let Some(ch) = tile.channels.get_mut(&line) else {
            protocol_bug!(now, "DirUnlock for {line} but no request channel exists");
        };
        ch.active = None;
        let next = ch.queue.pop_front();
        if next.is_none() {
            if let Some(ch) = tile.channels.remove(&line) {
                debug_assert!(ch.active.is_none() && ch.queue.is_empty());
                // Recycle the node: its queue keeps (empty) capacity.
                tile.free_channels.push(ch);
            }
        }
        // The previous transaction on `line` is fully settled here: its
        // DirUpdate (if any) provably landed first, its invalidations
        // landed before its grant. Only victim messages may still be in
        // flight, so the sweep checks the single-writer property only.
        #[cfg(feature = "strict-invariants")]
        self.check_invariants_at(line);
        if let Some(next) = next {
            self.tile_mut(home).channels.get_mut(&line).unwrap().active = Some(next);
            self.totals.dir_queue_wait_cycles += now - next.enq_time;
            if ctx.tracing() {
                ctx.trace(
                    now,
                    TraceEvent::DirArrive {
                        xact: next.id,
                        line,
                    },
                );
            }
            self.service(now, next, ctx);
        }
    }

    /// Directory services the transaction at the head of the line queue.
    /// Executes at the home tile.
    fn service(&mut self, now: Cycle, x: Xact, ctx: &mut dyn CohContext) {
        let Xact {
            core, line, kind, ..
        } = x;
        let home = self.home_of(line);
        self.totals.dir_requests += 1;
        let mut t = now + self.cfg.l2_tag_latency;

        if self.l2_mut(home).touch(line).is_some() {
            self.totals.l2_hits += 1;
        } else {
            self.totals.l2_misses += 1;
            t += self.cfg.dram_latency;
            self.l2_install(now, home, line, ctx);
        }
        // Keep the line resident while its transaction is in flight.
        self.l2_mut(home).set_pinned(line, true);

        let dir = *self.l2_at(home).peek(line).unwrap();
        match dir {
            DirEntry::Uncached => self.grant_from_home(now, t, x, ctx),
            DirEntry::Shared(_) if !kind.needs_exclusive() => self.grant_from_home(now, t, x, ctx),
            DirEntry::Shared(row) => {
                // Invalidate all other sharers, in ascending core order;
                // acks go to the requester. Each sharer drops its copy
                // when the invalidation *arrives* at its tile; every
                // arrival is strictly before the grant below, since the
                // grant waits out max(to_s + ack) ≥ to_s + 1.
                let mut inv_lat = 0;
                let mut next = 0;
                while let Some(s) = self.tile_at(home).rows.next_member(row, next) {
                    next = s.idx() + 1;
                    if s == core {
                        continue;
                    }
                    let to_s = self.msg(home, s, MsgClass::Control);
                    let ack = self.msg(s, core, MsgClass::Control);
                    inv_lat = inv_lat.max(to_s + ack);
                    ctx.schedule(to_s, s, CohEvent::InvArrive { line });
                    self.totals.invalidations += 1;
                }
                let rows = &mut self.tile_mut(home).rows;
                let upgrade = rows.contains(row, core);
                rows.free(row);
                let data_lat = if upgrade {
                    // Permission-only grant.
                    self.msg(home, core, MsgClass::Control)
                } else {
                    self.cfg.l2_data_latency + self.msg(home, core, MsgClass::Data)
                };
                *self.l2_mut(home).peek_mut(line).unwrap() = DirEntry::Modified(core);
                ctx.schedule(
                    t - now + data_lat.max(inv_lat),
                    core,
                    CohEvent::GrantArrive(x),
                );
            }
            DirEntry::Modified(o) if o == core => {
                // The requester is the directory's owner of record, yet
                // it missed in L1 — hits never reach the directory, so
                // its copy is gone: an eviction whose writeback is still
                // in flight (and will be dropped on arrival, because
                // this transaction holds the channel). Serve from the
                // home slice like any evicted-owner bounce; crucially
                // `grant_from_home` also rewrites the directory (a read
                // re-fetch must land as Shared, not stay Modified).
                self.grant_from_home(now, t, x, ctx);
            }
            DirEntry::Modified(o) => {
                let lat = self.msg(home, o, MsgClass::Control);
                ctx.schedule(t - now + lat, o, CohEvent::ProbeArrive(x, o));
            }
        }
    }

    /// Serve data (or permission) straight from the home slice.
    fn grant_from_home(
        &mut self,
        now: Cycle,
        t_ready: Cycle,
        mut x: Xact,
        ctx: &mut dyn CohContext,
    ) {
        let Xact {
            core, line, kind, ..
        } = x;
        let home = self.home_of(line);
        let mesi = self.cfg.protocol == lr_sim_core::CoherenceProtocol::Mesi;
        let Some(&dir) = self.l2_at(home).peek(line) else {
            protocol_bug!(
                now,
                "granting {line} to {core} but the line is not resident in its home slice \
                 {home} (L2 pin lost mid-transaction?)"
            );
        };
        let rows = &mut self.tile_mut(home).rows;
        let new_dir = if kind.needs_exclusive() {
            DirEntry::Modified(core)
        } else {
            match dir {
                DirEntry::Shared(r) => {
                    rows.insert(r, core);
                    dir
                }
                // MESI: a sole reader of an uncached line gets Exclusive;
                // the directory tracks it like any exclusive owner.
                _ if mesi => {
                    x.grant_exclusive = true;
                    DirEntry::Modified(core)
                }
                _ => DirEntry::Shared(rows.alloc(core)),
            }
        };
        *self.l2_mut(home).peek_mut(line).unwrap() = new_dir;
        let lat = self.cfg.l2_data_latency + self.msg(home, core, MsgClass::Data);
        ctx.schedule(t_ready - now + lat, core, CohEvent::GrantArrive(x));
    }

    /// A forwarded probe reached the owning core. Executes at the owner.
    fn probe_arrive(&mut self, now: Cycle, x: Xact, o: CoreId, ctx: &mut dyn CohContext) {
        let Xact { line, regular, .. } = x;
        if self.l1_at(o).contains(line) {
            // A probe is actually delivered to the owner only on this
            // path; the evicted-owner bounce below serves from home
            // without one, so counting in `service` would overcount.
            self.totals.owner_probes += 1;
            self.cstats(o).probes_received += 1;
            if ctx.tracing() {
                ctx.trace(
                    now,
                    TraceEvent::ProbeArrive {
                        xact: x.id,
                        owner: o,
                        line,
                    },
                );
            }
            match ctx.probe_action(o, line, regular, now) {
                ProbeAction::Queue => {
                    self.cstats(o).probes_queued += 1;
                    if ctx.tracing() {
                        ctx.trace(
                            now,
                            TraceEvent::ProbeStalled {
                                xact: x.id,
                                owner: o,
                                line,
                            },
                        );
                    }
                    let prev = self.tile_mut(o).stalled.insert(
                        line,
                        PendingProbe {
                            xact: x,
                            since: now,
                        },
                    );
                    if let Some(prev) = prev {
                        protocol_bug!(
                            now,
                            "two probes stalled at {o} for {line} (prior xact {} since \
                             cycle {}): violates Proposition 1",
                            prev.xact.id,
                            prev.since
                        );
                    }
                }
                ProbeAction::ProceedBreakingLease => {
                    self.l1_mut(o).set_pinned(line, false);
                    self.owner_downgrade(now, x, o, ctx);
                }
                ProbeAction::Proceed => self.owner_downgrade(now, x, o, ctx),
            }
        } else {
            // The owner evicted the line (its writeback raced the probe):
            // the data is headed home; bounce there so the home serves
            // from its slice once the tag lookup completes.
            let home = self.home_of(line);
            let lat = self.msg(o, home, MsgClass::Control);
            ctx.schedule(lat, home, CohEvent::ProbeMiss(x));
        }
    }

    /// A probe bounced off an owner that no longer holds the line.
    /// Executes at the home tile, which serves from its slice.
    fn probe_miss(&mut self, now: Cycle, x: Xact, ctx: &mut dyn CohContext) {
        // The owner's writeback either already landed (directory now
        // Uncached) or is still in flight (it will be dropped on arrival
        // because this transaction holds the channel). Either way the
        // home's data is authoritative.
        let t = now + self.cfg.l2_tag_latency;
        self.grant_from_home(now, t, x, ctx);
    }

    /// The owning core downgrades/invalidates its copy and forwards data
    /// cache-to-cache to the requester. Executes at the owner; the home
    /// directory learns the outcome via a `DirUpdate` message.
    fn owner_downgrade(&mut self, now: Cycle, x: Xact, o: CoreId, ctx: &mut dyn CohContext) {
        let Xact {
            core: req,
            line,
            kind,
            ..
        } = x;
        let home = self.home_of(line);
        let t = now + self.cfg.l1_latency;
        if self.l1_at(o).is_pinned(line) {
            protocol_bug!(
                now,
                "downgrading {line} at {o} while it is pinned (leased) — probes must stall \
                 behind a valid lease, never break it silently"
            );
        }
        let Some(&owner_state) = self.l1_at(o).peek(line) else {
            protocol_bug!(
                now,
                "downgrading {line} at {o} for xact {}, but the owner holds no copy \
                 (directory/L1 disagree)",
                x.id
            );
        };
        let outcome = if kind.needs_exclusive() {
            self.l1_mut(o).remove(line);
            Downgrade::Owner(req)
        } else {
            *self.l1_mut(o).peek_mut(line).unwrap() = L1State::Shared;
            Downgrade::Sharers {
                owner: o,
                requester: req,
            }
        };
        if owner_state == L1State::Modified {
            // Only dirty copies write back; an Exclusive (clean) copy is
            // downgraded without one (MESI).
            self.cstats(o).l1_writebacks += 1;
        }
        // The home learns the downgrade via an explicit update message.
        // It always lands strictly before this transaction's DirUnlock:
        // the unlock path takes l1_latency + data(o→req) + ctrl(req→home)
        // ≥ 1 + ctrl(o→home) by the mesh triangle inequality and
        // Data ≥ Control, so the directory is current when the line's
        // channel reopens.
        let upd = self.msg(o, home, MsgClass::Control);
        ctx.schedule(upd, home, CohEvent::DirUpdate { line, outcome });
        let data = self.msg(o, req, MsgClass::Data);
        ctx.schedule(t - now + data, req, CohEvent::GrantArrive(x));
    }

    /// An owner's downgrade result reached the home directory.
    fn dir_update(&mut self, now: Cycle, line: LineAddr, outcome: Downgrade) {
        let home = self.home_of(line);
        if self.l2_at(home).peek(line).is_none() {
            protocol_bug!(
                now,
                "DirUpdate for {line} but no home L2 entry (pin lost mid-transaction?)"
            );
        }
        // The entry being replaced still names the downgraded owner
        // (this transaction holds the line's channel), so no row is
        // released here.
        let new_dir = match outcome {
            Downgrade::Owner(c) => DirEntry::Modified(c),
            Downgrade::Sharers { owner, requester } => {
                let rows = &mut self.tile_mut(home).rows;
                let r = rows.alloc(owner);
                rows.insert(r, requester);
                DirEntry::Shared(r)
            }
        };
        *self.l2_mut(home).peek_mut(line).unwrap() = new_dir;
    }

    /// An invalidation reached a Shared-state holder: drop the copy.
    /// Idempotent — the holder may have evicted it on its own while the
    /// invalidation was in flight.
    fn inv_arrive(&mut self, at: CoreId, line: LineAddr) {
        self.l1_mut(at).remove(line);
    }

    /// A victim writeback reached the home. Applied only if the
    /// directory still names `from` as owner and no transaction is
    /// active on the line; a stale writeback (the protocol has already
    /// re-granted the line) is dropped.
    fn writeback_arrive(&mut self, line: LineAddr, from: CoreId) {
        let home = self.home_of(line);
        if self.tile_at(home).channels.contains_key(&line) {
            // An active transaction rewrites the directory itself (the
            // requester re-fetches through the home or a probe-miss
            // bounce); applying the stale writeback under it would
            // corrupt that.
            return;
        }
        if let Some(dir) = self.l2_mut(home).peek_mut(line) {
            if *dir == DirEntry::Modified(from) {
                *dir = DirEntry::Uncached;
            }
        }
    }

    /// A Shared-state victim notice reached the home: clear the sharer
    /// bit. Dropped if the directory has moved on (e.g. the line was
    /// re-granted exclusively while the notice was in flight).
    fn sharer_drop(&mut self, line: LineAddr, from: CoreId) {
        let home = self.home_of(line);
        if let Some(&DirEntry::Shared(r)) = self.l2_at(home).peek(line) {
            let rows = &mut self.tile_mut(home).rows;
            if rows.remove(r, from) {
                rows.free(r);
                *self.l2_mut(home).peek_mut(line).unwrap() = DirEntry::Uncached;
            }
        }
    }

    /// An inclusive-L2 back-invalidation reached a copy holder: drop the
    /// copy and any lease on it. Idempotent.
    fn back_inval(&mut self, now: Cycle, at: CoreId, line: LineAddr, ctx: &mut dyn CohContext) {
        if self.l1_at(at).contains(line) {
            ctx.line_invalidated(at, line, now);
            self.l1_mut(at).set_pinned(line, false);
            self.l1_mut(at).remove(line);
        }
    }

    fn grant_arrive(&mut self, now: Cycle, x: Xact, ctx: &mut dyn CohContext) {
        let Xact {
            id,
            token,
            core,
            line,
            kind,
            lease_intent,
            grant_exclusive,
            ..
        } = x;
        let tile = self.tile_mut(core);
        if tile.outstanding == 0 {
            protocol_bug!(
                now,
                "GrantArrive at {core} for xact {id} but the core has no outstanding miss"
            );
        }
        tile.outstanding -= 1;

        if let Some(st) = self.l1_mut(core).touch(line) {
            // Upgrade path: the S copy is still resident.
            if kind.needs_exclusive() {
                *st = L1State::Modified;
            }
        } else {
            let new_state = if kind.needs_exclusive() {
                L1State::Modified
            } else if grant_exclusive {
                L1State::Exclusive
            } else {
                L1State::Shared
            };
            loop {
                match self.l1_mut(core).insert(line, new_state) {
                    Inserted::NoVictim => break,
                    Inserted::Evicted(vline, vstate) => {
                        self.evict_l1(now, core, vline, vstate, ctx);
                        break;
                    }
                    Inserted::AllPinned => {
                        let pinned = self.l1_at(core).pinned_in_set(line);
                        let Some(victim) = ctx.pinned_victim(core, &pinned, now) else {
                            protocol_bug!(
                                now,
                                "lease layer freed none of {} pinned ways at {core} for a fill \
                                 of {line} (MAX_NUM_LEASES must bound pinned lines per set)",
                                pinned.len()
                            );
                        };
                        if !pinned.contains(&victim) {
                            protocol_bug!(
                                now,
                                "lease layer chose victim {victim} outside the pinned set \
                                 {pinned:?} at {core}"
                            );
                        }
                        // Force-releasing the lease also resumes any
                        // stalled probe on that line.
                        self.lease_released(now, core, victim, ctx);
                    }
                }
            }
        }

        if ctx.tracing() {
            ctx.trace(
                now,
                TraceEvent::GrantArrive {
                    xact: id,
                    core,
                    line,
                    exclusive: kind.needs_exclusive() || grant_exclusive,
                },
            );
        }
        // The grant installed the line: from here on at most one core
        // may hold it writable (the full directory/L1 agreement is
        // checked at this transaction's DirUnlock, once the in-flight
        // DirUpdate has landed).
        #[cfg(feature = "strict-invariants")]
        self.check_invariants_at(line);
        let done = now + self.cfg.l1_latency;
        if lease_intent {
            ctx.exclusive_granted(core, line, done);
        }
        let home = self.home_of(line);
        let ack = self.msg(core, home, MsgClass::Control);
        ctx.schedule(ack, home, CohEvent::DirUnlock(line));
        ctx.xact_completed(token, done);
    }

    /// Bookkeeping for an L1 eviction (silent from the thread's view).
    /// Executes at the evicting core; the home learns via a `Writeback`
    /// (E/M victims) or `SharerDrop` (S victims) message.
    fn evict_l1(
        &mut self,
        now: Cycle,
        core: CoreId,
        vline: LineAddr,
        vstate: L1State,
        ctx: &mut dyn CohContext,
    ) {
        if ctx.tracing() {
            ctx.trace(
                now,
                TraceEvent::L1Evict {
                    core,
                    line: vline,
                    dirty: vstate == L1State::Modified,
                },
            );
        }
        self.cstats(core).l1_evictions += 1;
        let home_v = self.home_of(vline);
        match vstate {
            L1State::Modified => {
                self.cstats(core).l1_writebacks += 1;
                let lat = self.msg(core, home_v, MsgClass::Data);
                ctx.schedule(
                    lat,
                    home_v,
                    CohEvent::Writeback {
                        line: vline,
                        from: core,
                    },
                );
            }
            L1State::Exclusive => {
                // Clean exclusive copy: a control-only PutE.
                let lat = self.msg(core, home_v, MsgClass::Control);
                ctx.schedule(
                    lat,
                    home_v,
                    CohEvent::Writeback {
                        line: vline,
                        from: core,
                    },
                );
            }
            L1State::Shared => {
                let lat = self.msg(core, home_v, MsgClass::Control);
                ctx.schedule(
                    lat,
                    home_v,
                    CohEvent::SharerDrop {
                        line: vline,
                        from: core,
                    },
                );
            }
        }
    }

    /// Install `line` in its home L2 slice (DRAM fill), back-invalidating
    /// the victim's L1 copies to preserve inclusivity. The invalidations
    /// are messages: each copy holder drops its copy (and lease) when the
    /// `BackInval` arrives at its tile.
    fn l2_install(&mut self, now: Cycle, home: CoreId, line: LineAddr, ctx: &mut dyn CohContext) {
        match self.l2_mut(home).insert(line, DirEntry::Uncached) {
            Inserted::NoVictim => {}
            Inserted::Evicted(vline, vdir) => match vdir {
                DirEntry::Uncached => {}
                DirEntry::Shared(row) => {
                    let mut next = 0;
                    while let Some(s) = self.tile_at(home).rows.next_member(row, next) {
                        next = s.idx() + 1;
                        let lat = self.msg(home, s, MsgClass::Control);
                        ctx.schedule(lat, s, CohEvent::BackInval { line: vline });
                        self.totals.invalidations += 1;
                    }
                    self.tile_mut(home).rows.free(row);
                }
                DirEntry::Modified(o) => {
                    let lat = self.msg(home, o, MsgClass::Control);
                    ctx.schedule(lat, o, CohEvent::BackInval { line: vline });
                    // The victim's dirty data heads home alongside.
                    let _ = self.msg(o, home, MsgClass::Data);
                    self.totals.invalidations += 1;
                }
            },
            Inserted::AllPinned => {
                protocol_bug!(
                    now,
                    "installing {line} at {home}: every way of its L2 set is pinned by an \
                     active transaction; enlarge L2 or the set associativity"
                )
            }
        }
    }

    /// Mid-flight invariant narrowed to one line: the *single-writer*
    /// property — at most one E/M copy, and an E/M copy excludes all
    /// other copies.
    ///
    /// Unlike [`CoherenceEngine::check_invariants`], this is safe to run
    /// mid-simulation at this line's `DirUnlock`/`GrantArrive`. The
    /// directory-agreement checks of the quiescence sweep can *not* run
    /// here: directory updates, writebacks and sharer drops ride NoC
    /// messages now, so the home's view lags its tiles' L1s by design
    /// while those messages are in flight.
    pub fn check_invariants_at(&self, line: LineAddr) {
        let mut exclusive: Option<CoreId> = None;
        let mut copies = 0usize;
        for (c, l1) in self.l1.iter().enumerate() {
            let Some(&st) = l1.peek(line) else { continue };
            copies += 1;
            if matches!(st, L1State::Modified | L1State::Exclusive) {
                if let Some(prev) = exclusive {
                    panic!("two E/M copies of {line}: {prev} and {}", CoreId(c as u16));
                }
                exclusive = Some(CoreId(c as u16));
            }
        }
        if let Some(o) = exclusive {
            assert!(
                copies == 1,
                "E/M copy of {line} at {o} coexists with {} other copies",
                copies - 1
            );
        }
    }

    /// Protocol invariants, checked at quiescence (no in-flight
    /// transactions *and* a drained event queue, so every victim message
    /// has been applied): single-writer, sharer-row consistency,
    /// inclusivity, and no leaked sharer rows.
    pub fn check_invariants(&self) {
        assert_eq!(self.in_flight(), 0, "invariant check requires quiescence");
        assert!(self.tiles.iter().all(|t| t.stalled.is_empty()));
        for (c, l1) in self.l1.iter().enumerate() {
            let c = CoreId(c as u16);
            for (line, st) in l1.iter() {
                let home = self.home_of(line).idx();
                let dir = *self.l2[home]
                    .peek(line)
                    .unwrap_or_else(|| panic!("inclusivity violated: {line} at {c} not in L2"));
                match st {
                    L1State::Modified | L1State::Exclusive => {
                        assert_eq!(
                            dir,
                            DirEntry::Modified(c),
                            "dir disagrees with E/M copy at {c} for {line}"
                        );
                        for (o, other) in self.l1.iter().enumerate() {
                            if o != c.idx() {
                                assert!(!other.contains(line), "two copies of modified {line}");
                            }
                        }
                    }
                    L1State::Shared => match dir {
                        DirEntry::Shared(r) => assert!(
                            self.tiles[home].rows.contains(r, c),
                            "sharer bit missing for {c} {line}"
                        ),
                        _ => panic!(
                            "S copy at {c} for {line} but dir={:?}",
                            self.dir_state(line)
                        ),
                    },
                }
            }
        }
        // Directory entries must be backed by actual copies, and each
        // tile's live sharer rows must be exactly its Shared entries: a
        // row left behind is a leak no simulated statistic would show.
        for (h, l2) in self.l2.iter().enumerate() {
            let rows = &self.tiles[h].rows;
            let mut shared = 0;
            for (line, dir) in l2.iter() {
                match *dir {
                    DirEntry::Uncached => {}
                    DirEntry::Modified(o) => {
                        let st = self.l1[o.idx()].peek(line);
                        assert!(
                            matches!(st, Some(L1State::Modified | L1State::Exclusive)),
                            "dir=M({o}) but no E/M copy for {line} (found {st:?})"
                        );
                    }
                    DirEntry::Shared(r) => {
                        shared += 1;
                        assert!(!rows.is_empty(r), "empty sharer row for {line}");
                        for s in rows.members(r) {
                            assert_eq!(
                                self.l1[s.idx()].peek(line),
                                Some(&L1State::Shared),
                                "dir sharer {s} lacks S copy of {line}"
                            );
                        }
                    }
                }
            }
            assert_eq!(
                rows.live(),
                shared,
                "tile {h} holds {} live sharer rows for {shared} Shared entries (leaked row)",
                rows.live()
            );
        }
    }
}
