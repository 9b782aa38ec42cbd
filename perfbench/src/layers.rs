//! Per-layer drives for the traced run. Each one times calls into a
//! single simulator layer's public API, fed with the workload's own
//! recorded trace, so a layer's host cost is measured from outside
//! without touching the simulator's code.

use lr_coherence::{AccessKind, CohContext, CohEvent, CoherenceEngine, ProbeAction};
use lr_lease::LeaseTable;
use lr_sim_core::tracefmt::{MachineTrace, TraceOp};
use lr_sim_core::{
    CoreId, Cycle, EventQueue, EventQueueKind, LeaseConfig, LineAddr, ShardedQueue, SystemConfig,
};
use lr_sim_noc::{Mesh, MsgClass};
use std::hint::black_box;
use std::time::Instant;

/// One recorded memory access: the line and the permission it needs.
/// Lease acquisitions are exclusive requests; releases, heap calls and
/// exits carry no coherence access.
#[derive(Debug, Clone, Copy)]
pub struct Access {
    pub line: LineAddr,
    pub kind: AccessKind,
}

/// Per-core recorded line streams of `trace`.
pub fn line_streams(trace: &MachineTrace) -> Vec<Vec<Access>> {
    let access = |addr: lr_sim_core::Addr, kind| Access {
        line: addr.line(),
        kind,
    };
    trace
        .cores
        .iter()
        .map(|stream| {
            stream
                .iter()
                .flat_map(|rec| -> Vec<Access> {
                    match &rec.op {
                        TraceOp::Read(a) => vec![access(*a, AccessKind::Load)],
                        TraceOp::Write(a, _) => vec![access(*a, AccessKind::Store)],
                        TraceOp::Cas { addr, .. }
                        | TraceOp::Faa { addr, .. }
                        | TraceOp::Xchg { addr, .. } => vec![access(*addr, AccessKind::Rmw)],
                        TraceOp::Lease { addr, .. } => vec![access(*addr, AccessKind::Store)],
                        TraceOp::MultiLease { addrs, .. } => addrs
                            .iter()
                            .map(|&a| access(a, AccessKind::Store))
                            .collect(),
                        _ => Vec::new(),
                    }
                })
                .collect()
        })
        .collect()
}

/// Lines the trace leases, in issue order (all accessed lines when the
/// workload takes no lease).
pub fn leased_lines(trace: &MachineTrace) -> Vec<LineAddr> {
    let leased: Vec<LineAddr> = trace
        .cores
        .iter()
        .flatten()
        .filter_map(|r| match &r.op {
            TraceOp::Lease { addr, .. } => Some(addr.line()),
            _ => None,
        })
        .collect();
    if leased.is_empty() {
        line_streams(trace)
            .into_iter()
            .flatten()
            .map(|a| a.line)
            .collect()
    } else {
        leased
    }
}

/// Near-horizon delay mix of the trace: per op, the gap from the
/// previous reply to its issue and its own latency.
pub fn near_delays(trace: &MachineTrace) -> Vec<Cycle> {
    let mut out = Vec::new();
    for stream in &trace.cores {
        let mut prev = 0;
        for r in stream {
            out.push(r.at.saturating_sub(prev));
            out.push(r.reply_time.saturating_sub(r.at));
            prev = r.reply_time;
        }
    }
    if out.is_empty() {
        out.push(1);
    }
    out
}

/// Seconds to push and pop `events` events through a one-partition
/// [`ShardedQueue`]: one closed chain per tile draws its delays from
/// `near`, and `far` of the events are lease expiries `horizon` cycles
/// out that stay resident until they fire.
pub fn eventq_drive(tiles: usize, near: &[Cycle], events: u64, far: u64, horizon: Cycle) -> f64 {
    const FAR: usize = usize::MAX;
    let far = far.min(events / 2);
    let near_total = events - far;
    let mut q: ShardedQueue<usize> =
        ShardedQueue::with_kind(EventQueueKind::from_env(), tiles, 1, 1);
    let (mut pushed_near, mut pushed_far, mut k, mut popped) = (0u64, 0u64, 0usize, 0u64);
    let t0 = Instant::now();
    for tile in 0..tiles.min(near_total as usize) {
        q.push(tile, 0, tile, near[k % near.len()], tile);
        k += 1;
        pushed_near += 1;
    }
    while let Some((now, _, tile)) = q.pop_global() {
        popped += 1;
        if tile == FAR {
            continue;
        }
        if pushed_near < near_total {
            q.push(tile, now, tile, now + near[k % near.len()], tile);
            k += 1;
            pushed_near += 1;
        }
        while pushed_far * near_total < far * pushed_near {
            q.push(tile, now, tile, now + horizon, FAR);
            pushed_far += 1;
        }
    }
    let wall = t0.elapsed().as_secs_f64();
    assert_eq!(popped, events, "event-queue drive lost events");
    wall
}

/// One engine entry-point call of the coherence drive.
enum Call {
    Access {
        now: Cycle,
        core: CoreId,
        access: Access,
    },
    Handle {
        now: Cycle,
        at: CoreId,
        ev: CohEvent,
    },
}

enum Item {
    Issue(usize),
    Coh(CoreId, CohEvent),
}

/// The minimal embedder: an event queue for scheduled protocol events,
/// completion notices, and no lease layer (every probe proceeds).
struct DriveCtx {
    q: EventQueue<Item>,
    done: Vec<(usize, Cycle)>,
}

impl CohContext for DriveCtx {
    fn schedule(&mut self, delay: Cycle, dest: CoreId, ev: CohEvent) {
        self.q.push_after(delay, Item::Coh(dest, ev));
    }
    fn xact_completed(&mut self, token: u64, now: Cycle) {
        self.done.push((token as usize, now));
    }
    fn probe_action(&mut self, _: CoreId, _: LineAddr, _: bool, _: Cycle) -> ProbeAction {
        ProbeAction::Proceed
    }
    fn exclusive_granted(&mut self, _: CoreId, _: LineAddr, _: Cycle) {}
    fn pinned_victim(&mut self, _: CoreId, _: &[LineAddr], _: Cycle) -> Option<LineAddr> {
        None
    }
    fn line_invalidated(&mut self, _: CoreId, _: LineAddr, _: Cycle) {}
}

/// Replays a recorded call list: schedules and completions are
/// discarded, probes proceed exactly as when the list was recorded.
struct NullCtx;

impl CohContext for NullCtx {
    fn schedule(&mut self, _: Cycle, _: CoreId, ev: CohEvent) {
        black_box(ev);
    }
    fn xact_completed(&mut self, _: u64, _: Cycle) {}
    fn probe_action(&mut self, _: CoreId, _: LineAddr, _: bool, _: Cycle) -> ProbeAction {
        ProbeAction::Proceed
    }
    fn exclusive_granted(&mut self, _: CoreId, _: LineAddr, _: Cycle) {}
    fn pinned_victim(&mut self, _: CoreId, _: &[LineAddr], _: Cycle) -> Option<LineAddr> {
        None
    }
    fn line_invalidated(&mut self, _: CoreId, _: LineAddr, _: Cycle) {}
}

/// Result of the coherence drive.
pub struct CohDrive {
    /// Engine entry-point calls (`access` + `handle`) per pass.
    pub calls: u64,
    /// Host seconds of each timed pass.
    pub pass_s: Vec<f64>,
    /// Every `(core, home tile)` pair of the line stream.
    pub routes: Vec<(CoreId, CoreId)>,
}

/// Drive [`CoherenceEngine::access`]/[`CoherenceEngine::handle`] over
/// the recorded line streams as a closed loop (each core issues its
/// next access when the previous one completes). The first pass runs
/// with an event queue and records the engine calls it makes; the
/// timed passes re-issue exactly those calls on fresh engines, so they
/// time the handlers alone.
pub fn coh_drive(cfg: &SystemConfig, streams: &[Vec<Access>], passes: usize) -> CohDrive {
    let mut eng = CoherenceEngine::new(cfg);
    let routes = streams
        .iter()
        .enumerate()
        .flat_map(|(c, s)| s.iter().map(move |a| (c, a.line)))
        .map(|(c, line)| (CoreId(c as u16), eng.home_of(line)))
        .collect();
    let mut ctx = DriveCtx {
        q: EventQueue::with_kind(EventQueueKind::from_env()),
        done: Vec::new(),
    };
    let mut cursor = vec![0usize; streams.len()];
    for (c, s) in streams.iter().enumerate() {
        if !s.is_empty() {
            ctx.q.push_at(0, Item::Issue(c));
        }
    }
    let mut calls = Vec::new();
    while let Some((now, item)) = ctx.q.pop() {
        match item {
            Item::Issue(c) => {
                let access = streams[c][cursor[c]];
                cursor[c] += 1;
                let core = CoreId(c as u16);
                calls.push(Call::Access { now, core, access });
                let (line, kind) = (access.line, access.kind);
                if let Some(done) =
                    eng.access(now, c as u64, core, line, kind, false, false, &mut ctx)
                {
                    ctx.done.push((c, done));
                }
            }
            Item::Coh(at, ev) => {
                calls.push(Call::Handle { now, at, ev });
                eng.handle(now, at, ev, &mut ctx);
            }
        }
        for (c, t) in std::mem::take(&mut ctx.done) {
            if cursor[c] < streams[c].len() {
                ctx.q.push_at(t.max(now) + 1, Item::Issue(c));
            }
        }
    }
    assert_eq!(
        eng.in_flight(),
        0,
        "coherence drive left transactions in flight"
    );
    drop(eng);
    let pass_s = (0..passes)
        .map(|_| {
            let mut eng = CoherenceEngine::new(cfg);
            let t0 = Instant::now();
            for call in &calls {
                match *call {
                    Call::Access { now, core, access } => {
                        black_box(eng.access(
                            now,
                            core.idx() as u64,
                            core,
                            access.line,
                            access.kind,
                            false,
                            false,
                            &mut NullCtx,
                        ));
                    }
                    Call::Handle { now, at, ev } => eng.handle(now, at, ev, &mut NullCtx),
                }
            }
            t0.elapsed().as_secs_f64()
        })
        .collect();
    CohDrive {
        calls: calls.len() as u64,
        pass_s,
        routes,
    }
}

/// Seconds for `cycles` begin → grant → release cycles on one
/// [`LeaseTable`], cycling through `lines`.
pub fn lease_drive(cfg: &LeaseConfig, lines: &[LineAddr], cycles: usize) -> f64 {
    let mut table = LeaseTable::new(cfg.clone());
    let (mut armed, mut released) = (Vec::new(), Vec::new());
    let t0 = Instant::now();
    for i in 0..cycles {
        let line = lines[i % lines.len()];
        let now = 4 * i as Cycle;
        black_box(table.begin_lease(line, cfg.max_lease_time));
        table.on_exclusive_granted_into(line, now, &mut armed);
        black_box(table.release_into(line, &mut released));
    }
    let wall = t0.elapsed().as_secs_f64();
    assert!(table.is_empty(), "lease drive left leases behind");
    wall
}

/// Seconds to route every `(core, home)` pair through [`Mesh::latency`]
/// and [`Mesh::flit_hops`]: the request as a control message there and
/// the reply as a data message back.
pub fn noc_drive(cfg: &SystemConfig, routes: &[(CoreId, CoreId)]) -> f64 {
    let mesh = Mesh::new(cfg);
    let t0 = Instant::now();
    let mut acc = 0u64;
    for &(core, home) in routes {
        let (core, home) = (black_box(core), black_box(home));
        acc = acc
            .wrapping_add(mesh.latency(core, home, MsgClass::Control))
            .wrapping_add(mesh.flit_hops(core, home, MsgClass::Control))
            .wrapping_add(mesh.latency(home, core, MsgClass::Data))
            .wrapping_add(mesh.flit_hops(home, core, MsgClass::Data));
    }
    black_box(acc);
    t0.elapsed().as_secs_f64()
}
