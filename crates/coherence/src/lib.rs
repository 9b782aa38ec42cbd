//! # lr-coherence
//!
//! Directory-based MSI cache-coherence protocol engine for the simulated
//! tiled multicore (private L1, shared sliced inclusive L2, in-cache
//! directory), following the protocol assumptions of the Lease/Release
//! paper:
//!
//! * **Per-line FIFO request queues at the directory** (the paper's
//!   Assumption 1): requests for one line are serviced strictly in arrival
//!   order, and a request for line A is never queued behind a request for
//!   a different line B.
//! * **At most one request queued at a core** (Proposition 1): only the
//!   request currently being serviced by the directory can be forwarded to
//!   — and therefore delayed at — an owning core.
//! * **Probe interception hook**: when a forwarded probe reaches the
//!   exclusive owner, the engine consults [`CohContext::probe_action`];
//!   the `lr-lease` crate implements the lease-table logic behind it.
//!
//! The engine is event-driven: callers feed it [`CohEvent`]s popped from
//! their own time-ordered queue and provide a [`CohContext`] for scheduling
//! follow-up events, completion notification, and lease hooks.
//!
//! ## Message-passing handlers
//!
//! Every handler executes at exactly one tile (the event's delivery
//! tile, passed to [`CoherenceEngine::handle`]) and mutates only that
//! tile's slice of engine state — its L1, its L2/directory slice, its
//! channel table. Any protocol step that needs to touch a *different*
//! tile is split off as a follow-on [`CohEvent`] scheduled with a real
//! NoC latency: there is no hidden shared state between handlers, only
//! messages, so every cross-tile ordering the protocol relies on is
//! visible as message timing. In debug (and `strict-invariants`) builds
//! every tile-slice access is checked against the executing tile and
//! panics on a violation.

mod dir;
mod engine;
#[cfg(test)]
mod tests_engine;

pub use engine::{CoherenceEngine, PendingProbe};

use lr_sim_core::{CoreId, Cycle, LineAddr, TraceEvent};

/// Permission a memory access needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// Needs the line in at least Shared state.
    Load,
    /// Needs the line in Modified state (stores and read-modify-writes).
    Store,
    /// Read-modify-write; also needs Modified. Distinguished from `Store`
    /// only for statistics.
    Rmw,
}

impl AccessKind {
    /// Does this access require exclusive (M) permission?
    #[inline]
    pub fn needs_exclusive(self) -> bool {
        !matches!(self, AccessKind::Load)
    }
}

/// L1 line coherence state (absence from the cache = Invalid).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum L1State {
    /// Shared, read-only.
    Shared,
    /// Exclusive and clean (MESI mode only): the sole copy; the first
    /// write promotes it to Modified silently.
    Exclusive,
    /// Modified, exclusive and dirty.
    Modified,
}

impl L1State {
    /// May this copy be written without a coherence transaction?
    #[inline]
    pub fn writable(self) -> bool {
        matches!(self, L1State::Exclusive | L1State::Modified)
    }
}

/// A set of cores, as [`DirState::Shared`] reports a line's sharers: a
/// fixed bitset wide enough for [`lr_sim_core::MAX_CORES`] (`Copy`,
/// 128 bytes). The engine never stores one; it keeps sharers in
/// compact per-tile rows sized to the machine and builds a `CoreSet`
/// only when [`CoherenceEngine::dir_state`] is asked.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct CoreSet([u64; CoreSet::WORDS]);

impl CoreSet {
    const WORDS: usize = lr_sim_core::MAX_CORES.div_ceil(64);
    /// The empty set.
    pub const EMPTY: CoreSet = CoreSet([0; Self::WORDS]);

    /// The singleton set `{c}`.
    #[inline]
    pub fn only(c: CoreId) -> CoreSet {
        Self::EMPTY.with(c)
    }

    /// The set whose low 64 members are given by `mask` (bit `i` ⇒ core
    /// `i`); used by tests that spell sharer sets as literals.
    pub fn from_mask(mask: u64) -> CoreSet {
        let mut s = Self::EMPTY;
        s.0[0] = mask;
        s
    }

    /// This set with `c` added.
    #[inline]
    #[must_use]
    pub fn with(mut self, c: CoreId) -> CoreSet {
        self.0[c.idx() / 64] |= 1 << (c.idx() % 64);
        self
    }

    /// This set with `c` removed.
    #[inline]
    #[must_use]
    pub fn without(mut self, c: CoreId) -> CoreSet {
        self.0[c.idx() / 64] &= !(1 << (c.idx() % 64));
        self
    }

    /// Is `c` a member?
    #[inline]
    pub fn contains(&self, c: CoreId) -> bool {
        self.0[c.idx() / 64] & (1 << (c.idx() % 64)) != 0
    }

    /// Is the set empty?
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.0.iter().all(|&w| w == 0)
    }

    /// Members in ascending core order (word-skipping, so iteration cost
    /// scales with membership, not capacity).
    pub fn iter(self) -> impl Iterator<Item = CoreId> {
        (0..Self::WORDS).flat_map(move |w| {
            let mut bits = self.0[w];
            std::iter::from_fn(move || {
                if bits == 0 {
                    None
                } else {
                    let b = bits.trailing_zeros();
                    bits &= bits - 1;
                    Some(CoreId((w * 64 + b as usize) as u16))
                }
            })
        })
    }
}

impl std::fmt::Debug for CoreSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("{")?;
        for (i, c) in self.iter().enumerate() {
            if i > 0 {
                f.write_str(",")?;
            }
            write!(f, "{}", c.idx())?;
        }
        f.write_str("}")
    }
}

/// Directory knowledge about one line, as [`CoherenceEngine::dir_state`]
/// reports it for tests and failure reports. The home L2 slice stores a
/// compact equivalent of at most 8 bytes per way.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DirState {
    /// No L1 holds the line; L2/DRAM data is current.
    Uncached,
    /// The set of cores holding the line in Shared state.
    Shared(CoreSet),
    /// One core holds the line in Modified state.
    Modified(CoreId),
}

/// An in-flight coherence transaction, carried *inside* the protocol
/// messages instead of living in a shared table: each tile only ever
/// sees the transactions whose messages are delivered to it, so no
/// cross-tile lookup structure is needed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Xact {
    /// Unique id: `(requesting core << 48) | per-core issue counter`.
    /// Stamped at the requesting tile, so an id depends only on that
    /// tile's own history.
    pub id: u64,
    /// Caller token handed back via [`CohContext::xact_completed`].
    pub token: u64,
    /// Requesting core.
    pub core: CoreId,
    /// Target line.
    pub line: LineAddr,
    /// Requested permission.
    pub kind: AccessKind,
    /// Was the access issued with lease intent (`exclusive_granted` fires
    /// on completion)?
    pub lease_intent: bool,
    /// Is this a "regular" (non-lease) request for §5 prioritization?
    pub regular: bool,
    /// MESI: the home granted E (sole clean copy) rather than S.
    pub grant_exclusive: bool,
    /// Cycle the request was enqueued in a directory channel (0 until
    /// it queues; used for `dir_queue_wait_cycles`).
    pub enq_time: Cycle,
}

/// Events the engine schedules on the caller's queue and expects back.
///
/// The `CoreId` returned alongside each variant via
/// [`CohContext::schedule`]'s `dest` parameter names the tile the event
/// is *delivered* to; [`CoherenceEngine::handle`] must be called with
/// that same tile. Requester/owner/home tiles are recoverable from the
/// payload, so the variants carry no redundant destination field except
/// where noted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CohEvent {
    /// A request message reached its home directory.
    DirArrive(Xact),
    /// A forwarded probe reached the exclusive owner (second field).
    ProbeArrive(Xact, CoreId),
    /// A forwarded probe found the owner without a copy (eviction raced
    /// the probe): bounced back to the home, which serves from its L2
    /// slice.
    ProbeMiss(Xact),
    /// Data/permission grant reached the requester.
    GrantArrive(Xact),
    /// The requester's completion ack reached the directory: the line's
    /// FIFO queue may start servicing its next request.
    DirUnlock(LineAddr),
    /// An invalidation reached a Shared-state holder (the delivery
    /// tile): drop the copy. Idempotent — the copy may already be gone.
    InvArrive { line: LineAddr },
    /// The owner's downgrade result reached the home directory: install
    /// the new directory state. Always arrives strictly before the same
    /// transaction's `DirUnlock` (see `engine.rs` for the latency
    /// argument), so the directory is current when the channel reopens.
    DirUpdate { line: LineAddr, outcome: Downgrade },
    /// A victim writeback (M: data, E: clean-exclusive notice) reached
    /// the home. Applied only if the directory still names `from` as
    /// owner and no transaction is active on the line; otherwise the
    /// protocol has already moved on and the message is dropped.
    Writeback { line: LineAddr, from: CoreId },
    /// A Shared-state victim notice reached the home: clear `from`'s
    /// sharer bit (dropped if the directory no longer says Shared).
    SharerDrop { line: LineAddr, from: CoreId },
    /// An inclusive-L2 back-invalidation reached a copy holder (the
    /// delivery tile): drop the copy and any lease on it. Idempotent.
    BackInval { line: LineAddr },
}

// Every scheduled protocol message is one of these, copied into the
// embedder's event queue: keep a new variant from inflating them all.
const _: () = assert!(std::mem::size_of::<CohEvent>() <= 48);

/// How an exclusive owner gave up a line, carried home by
/// [`CohEvent::DirUpdate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Downgrade {
    /// The owner invalidated its copy: this core (the requester) is the
    /// new exclusive owner.
    Owner(CoreId),
    /// The owner kept a Shared copy and the requester received one:
    /// both are now the line's sharers.
    Sharers { owner: CoreId, requester: CoreId },
}

/// What the lease layer tells the engine to do with a probe that reached
/// an exclusive owner (see `lr-lease`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeAction {
    /// No valid lease: service the probe immediately.
    Proceed,
    /// A lease was broken by a prioritized "regular" request (paper §5):
    /// service the probe immediately and unpin the line.
    ProceedBreakingLease,
    /// A valid lease holds: queue the probe at the owning core until the
    /// lease is released or expires.
    Queue,
}

/// Callbacks the engine needs from its embedder (the machine crate).
pub trait CohContext {
    /// Schedule `ev` to be handed back to the engine after `delay` cycles.
    ///
    /// `dest` is the tile where the event is *delivered*: the home tile
    /// for directory events, the owning core for probes, the requesting
    /// core for grants, the copy holder for invalidations. The embedder
    /// must hand the event back via [`CoherenceEngine::handle`] with the
    /// same tile.
    fn schedule(&mut self, delay: Cycle, dest: CoreId, ev: CohEvent);

    /// A memory transaction issued with token `token` finished at `now`.
    fn xact_completed(&mut self, token: u64, now: Cycle);

    /// A probe reached exclusive owner `owner` for `line`: should it be
    /// serviced, serviced breaking the lease, or queued? `regular` is true
    /// for non-lease requests when prioritization is enabled (paper §5).
    fn probe_action(
        &mut self,
        owner: CoreId,
        line: LineAddr,
        regular: bool,
        now: Cycle,
    ) -> ProbeAction;

    /// Exclusive ownership of `line` was granted to `core` at `now` for a
    /// request that carried lease intent: the lease layer starts the
    /// countdown (and pins the line via [`CoherenceEngine::pin`]).
    fn exclusive_granted(&mut self, core: CoreId, line: LineAddr, now: Cycle);

    /// Every way of an L1 set is pinned (leased) and a fill needs room:
    /// the lease layer must force-release one of `pinned` and return it.
    /// Returning `None` aborts the simulation (it indicates a lease-table
    /// bug, since `MAX_NUM_LEASES` bounds pinned lines per core).
    fn pinned_victim(&mut self, core: CoreId, pinned: &[LineAddr], now: Cycle) -> Option<LineAddr>;

    /// `line` was forcibly removed from `core`'s L1 (inclusive-L2
    /// back-invalidation). The lease layer drops any lease state for it.
    fn line_invalidated(&mut self, core: CoreId, line: LineAddr, now: Cycle);

    /// Is structured tracing enabled? The engine checks this before
    /// constructing any [`TraceEvent`], so tracing is zero-cost when off.
    /// Defaults to `false` (standalone/test embedders need not care).
    fn tracing(&self) -> bool {
        false
    }

    /// Record a structured protocol event at simulated time `now`. Called
    /// only when [`CohContext::tracing`] returns `true`.
    fn trace(&mut self, now: Cycle, ev: TraceEvent) {
        let _ = (now, ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn access_kind_permissions() {
        assert!(!AccessKind::Load.needs_exclusive());
        assert!(AccessKind::Store.needs_exclusive());
        assert!(AccessKind::Rmw.needs_exclusive());
    }
}
