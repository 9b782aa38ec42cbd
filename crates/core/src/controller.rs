//! The per-core L1 lease controller of Algorithms 1 and 2.
//!
//! [`LeaseController`] owns every core's [`LeaseTable`], its lease
//! counters and its MultiLease acquisition cursor. It answers the four
//! lease hooks of [`lr_coherence::CohContext`], lease expiries and the
//! lease instructions, and hands the effects back to its embedder: the
//! lines it released (to pass, in order, to
//! `CoherenceEngine::lease_released`), the lines to pin and the expiries
//! to arm. Every lease ends in `CoreLeases::end`, which counts each
//! released line once, under one reason.

use crate::table::{ArmedCounter, LeaseState, LeaseTable};
use lr_coherence::ProbeAction;
use lr_sim_core::{CoreId, CoreStats, Cycle, LeaseConfig, LineAddr};

/// Why a lease ended: the [`CoreStats`] counter its lines count under.
#[derive(Debug, Clone, Copy)]
enum End {
    Voluntary,
    Involuntary,
    Overflow,
    Broken,
}

/// What a lease end releases: a line's lease with its MultiLease group,
/// the same if the expiry of that generation is still current, or every
/// lease.
#[derive(Debug, Clone, Copy)]
enum Scope {
    Line(LineAddr),
    Expiry(LineAddr, u64),
    All,
}

/// One core's leases: its table, its six lease counters (the other
/// [`CoreStats`] fields stay zero), and the lines of the admitted
/// MultiLease group still to acquire, the next one last.
#[derive(Debug)]
struct CoreLeases {
    table: LeaseTable,
    stats: CoreStats,
    group: Vec<LineAddr>,
}

impl CoreLeases {
    /// The one way a lease ends: release `scope` into `out` and count
    /// each released line once under `why`. Returns whether a lease was
    /// found.
    fn end(&mut self, scope: Scope, why: End, out: &mut Vec<LineAddr>) -> bool {
        let found = match scope {
            Scope::Line(line) => self.table.release_into(line, out),
            Scope::Expiry(line, generation) => self.table.on_expiry_into(line, generation, out),
            Scope::All => {
                self.table.release_all_into(out);
                true
            }
        };
        let s = &mut self.stats;
        *match why {
            End::Voluntary => &mut s.releases_voluntary,
            End::Involuntary => &mut s.releases_involuntary,
            End::Overflow => &mut s.lease_overflows,
            End::Broken => &mut s.leases_broken_by_priority,
        } += out.len() as u64;
        found
    }
}

/// Every core's L1 lease controller (see the module docs). The methods
/// that end leases leave the released lines in `out`.
#[derive(Debug)]
pub struct LeaseController {
    cores: Vec<CoreLeases>,
    /// §5: a regular request breaks an active lease.
    prioritization: bool,
    /// Staged by the hooks for [`LeaseController::take_staged`]: lines to
    /// pin, and the group-mates of leases a hook ended.
    pins: Vec<(CoreId, LineAddr)>,
    mates: Vec<(CoreId, LineAddr)>,
    /// Reusable buffers: lines a hook released, a sorted pinned set, the
    /// counters a grant armed.
    released: Vec<LineAddr>,
    pinned: Vec<LineAddr>,
    armed: Vec<ArmedCounter>,
}

impl LeaseController {
    /// Empty lease tables for `cores` cores.
    pub fn new(cores: usize, cfg: &LeaseConfig) -> Self {
        let core = |_| CoreLeases {
            table: LeaseTable::new(cfg.clone()),
            stats: CoreStats::default(),
            group: Vec::new(),
        };
        LeaseController {
            cores: (0..cores).map(core).collect(),
            prioritization: cfg.prioritization,
            pins: Vec::new(),
            mates: Vec::new(),
            released: Vec::new(),
            pinned: Vec::new(),
            armed: Vec::new(),
        }
    }

    /// Algorithm 1 `LEASE`. A full table first ends its oldest lease,
    /// with its group. Returns false if `line` is leased already
    /// (footnote 1: no extension); otherwise the caller requests `line`
    /// with lease intent.
    pub fn lease(
        &mut self,
        core: CoreId,
        line: LineAddr,
        time: Cycle,
        out: &mut Vec<LineAddr>,
    ) -> bool {
        let c = &mut self.cores[core.idx()];
        out.clear();
        if let Some(oldest) = c.table.displaced_by(line) {
            c.end(Scope::Line(oldest), End::Overflow, out);
        }
        let inserted = c.table.begin_lease(line, time);
        if inserted {
            c.stats.leases_taken += 1;
        }
        inserted
    }

    /// Algorithm 2 `MULTILEASE`: every held lease ends, then the group is
    /// admitted unless it exceeds `MAX_NUM_LEASES`. Returns whether it
    /// was; the caller then acquires each line
    /// [`LeaseController::next_group_line`] hands out, with lease intent.
    pub fn multi_lease(
        &mut self,
        core: CoreId,
        lines: impl IntoIterator<Item = LineAddr>,
        time: Cycle,
        out: &mut Vec<LineAddr>,
    ) -> bool {
        let c = &mut self.cores[core.idx()];
        c.end(Scope::All, End::Voluntary, out);
        c.group.clear();
        c.group.extend(lines);
        if !c.table.begin_multilease(&mut c.group, time) {
            c.group.clear();
            return false;
        }
        if !c.group.is_empty() {
            c.stats.multileases += 1;
            c.stats.leases_taken += c.group.len() as u64;
        }
        c.group.reverse();
        true
    }

    /// The next line of the admitted MultiLease group to acquire, in
    /// global order; None once all are handed out, and for a single lease.
    #[inline]
    pub fn next_group_line(&mut self, core: CoreId) -> Option<LineAddr> {
        self.cores[core.idx()].group.pop()
    }

    /// `RELEASE` of `line`'s lease, with its group (`MULTIRELEASE`).
    /// Returns whether a lease was held.
    pub fn release(&mut self, core: CoreId, line: LineAddr, out: &mut Vec<LineAddr>) -> bool {
        self.cores[core.idx()].end(Scope::Line(line), End::Voluntary, out)
    }

    /// `RELEASEALL`.
    pub fn release_all(&mut self, core: CoreId, out: &mut Vec<LineAddr>) {
        self.cores[core.idx()].end(Scope::All, End::Voluntary, out);
    }

    /// The expiry armed for `(line, generation)` fired (Algorithm 1
    /// `ZERO-COUNTER`). Returns false if it is stale.
    pub fn expire(
        &mut self,
        core: CoreId,
        line: LineAddr,
        generation: u64,
        out: &mut Vec<LineAddr>,
    ) -> bool {
        self.cores[core.idx()].end(Scope::Expiry(line, generation), End::Involuntary, out)
    }

    /// The `probe_action` hook: a probe for `line` reached its owner.
    pub fn probe_action(
        &mut self,
        owner: CoreId,
        line: LineAddr,
        regular: bool,
        now: Cycle,
    ) -> ProbeAction {
        let why = match self.cores[owner.idx()].table.state(line, now) {
            // A line not (re-)acquired under its entry is only stale-owned,
            // so the probe takes it; the group fetches it back later, in
            // sorted order, which keeps MultiLease deadlock-free
            // (Proposition 3).
            LeaseState::NotLeased | LeaseState::Pending => return ProbeAction::Proceed,
            LeaseState::Active if regular && self.prioritization => End::Broken,
            LeaseState::Active => return ProbeAction::Queue,
            // The counter ran out but its expiry event has not fired yet
            // (a tie at this cycle): release here.
            LeaseState::Expired => End::Involuntary,
        };
        let found = self.end_in_hook(owner, line, why);
        assert!(found, "lease on {line} vanished at {owner}");
        ProbeAction::ProceedBreakingLease
    }

    /// The `exclusive_granted` hook: start the counter (a group's, jointly,
    /// at its last grant) and stage the pin. Returns the expiries to arm.
    pub fn exclusive_granted(
        &mut self,
        core: CoreId,
        line: LineAddr,
        now: Cycle,
    ) -> &[ArmedCounter] {
        let table = &mut self.cores[core.idx()].table;
        table.on_exclusive_granted_into(line, now, &mut self.armed);
        if table.is_leased(line, now) {
            self.pins.push((core, line));
        }
        &self.armed
    }

    /// The `pinned_victim` hook: end the oldest lease among `pinned`
    /// (FIFO, as Algorithm 1 replaces) and return its line.
    pub fn pinned_victim(&mut self, core: CoreId, pinned: &[LineAddr]) -> Option<LineAddr> {
        self.pinned.clear();
        self.pinned.extend_from_slice(pinned);
        self.pinned.sort_unstable();
        let Some(victim) = self.cores[core.idx()].table.oldest_member(&self.pinned) else {
            // Stale pin (lease already gone): let the engine unpin it.
            return pinned.first().copied();
        };
        self.end_in_hook(core, victim, End::Overflow);
        Some(victim)
    }

    /// The `line_invalidated` hook: `line` left the L1.
    pub fn line_invalidated(&mut self, core: CoreId, line: LineAddr) {
        self.end_in_hook(core, line, End::Involuntary);
    }

    /// End `line`'s lease inside a hook. The engine completes the release
    /// of `line` itself; its group-mates are staged.
    fn end_in_hook(&mut self, core: CoreId, line: LineAddr, why: End) -> bool {
        let found = self.cores[core.idx()].end(Scope::Line(line), why, &mut self.released);
        let mates = self.released.iter().filter(|&&l| l != line);
        self.mates.extend(mates.map(|&l| (core, l)));
        found
    }

    /// Swap what the hooks staged into the cleared `pins` and `mates`:
    /// the lines to pin, and the group-mates whose release the embedder
    /// completes. Returns whether anything was staged, and touches
    /// nothing if not; completing a release can stage more.
    #[inline]
    pub fn take_staged(
        &mut self,
        pins: &mut Vec<(CoreId, LineAddr)>,
        mates: &mut Vec<(CoreId, LineAddr)>,
    ) -> bool {
        if self.pins.is_empty() && self.mates.is_empty() {
            return false;
        }
        pins.clear();
        mates.clear();
        std::mem::swap(&mut self.pins, pins);
        std::mem::swap(&mut self.mates, mates);
        true
    }

    /// `core`'s lease counters, for [`CoreStats::merge`].
    pub fn counters(&self, core: CoreId) -> &CoreStats {
        &self.cores[core.idx()].stats
    }

    /// At quiescence every lease has ended exactly once: each table is
    /// empty, and `leases_taken` equals the four kinds of release.
    pub fn check_quiescent(&self) -> Result<(), String> {
        for (i, c) in self.cores.iter().enumerate() {
            let s = &c.stats;
            let ended = s.releases_voluntary
                + s.releases_involuntary
                + s.lease_overflows
                + s.leases_broken_by_priority;
            if !c.table.is_empty() || s.leases_taken != ended {
                let held = c.table.len();
                let taken = s.leases_taken;
                return Err(format!(
                    "core{i} at quiescence: {held} leases held, {taken} taken, {ended} ended"
                ));
            }
        }
        Ok(())
    }

    /// Every core's lease table, for failure reports.
    pub fn debug_dump(&self) -> String {
        let dump = |(i, c): (usize, &CoreLeases)| format!(" core{i}:\n{}", c.table.debug_dump());
        self.cores.iter().enumerate().map(dump).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CORE: CoreId = CoreId(0);
    const A: LineAddr = LineAddr(1);
    const B: LineAddr = LineAddr(2);
    const C: LineAddr = LineAddr(3);

    fn controller(max_num_leases: usize, prioritization: bool) -> LeaseController {
        let cfg = LeaseConfig {
            max_num_leases,
            prioritization,
            ..LeaseConfig::default()
        };
        LeaseController::new(1, &cfg)
    }

    /// Take a granted single lease on `line`.
    fn hold(lc: &mut LeaseController, line: LineAddr, out: &mut Vec<LineAddr>) {
        assert!(lc.lease(CORE, line, 100, out));
        lc.exclusive_granted(CORE, line, 0);
    }

    #[test]
    fn multi_lease_ends_held_leases_then_hands_out_sorted_lines() {
        let mut lc = controller(2, false);
        let mut released = Vec::new();
        hold(&mut lc, A, &mut released);
        assert!(lc.multi_lease(CORE, [C, B, C], 100, &mut released));
        assert_eq!(released, vec![A], "RELEASEALL first");
        assert_eq!(lc.next_group_line(CORE), Some(B));
        assert_eq!(lc.next_group_line(CORE), Some(C));
        assert_eq!(lc.next_group_line(CORE), None);
        assert!(lc.release(CORE, C, &mut released));
        assert_eq!(released, vec![B, C], "the whole group");
        hold(&mut lc, A, &mut released);
        assert!(!lc.multi_lease(CORE, [A, B, C], 100, &mut released));
        assert_eq!(released, vec![A], "a rejected group still ends held leases");
        assert_eq!(
            lc.next_group_line(CORE),
            None,
            "a rejected group acquires nothing"
        );
        let s = lc.counters(CORE);
        assert_eq!((s.leases_taken, s.multileases), (4, 1));
        assert_eq!(s.releases_voluntary, 4);
        lc.check_quiescent().unwrap();
    }

    #[test]
    fn every_line_a_hook_ends_is_counted_and_its_mates_staged() {
        let mut lc = controller(4, false);
        let (mut pins, mut mates) = (Vec::new(), Vec::new());
        let mut released = Vec::new();
        assert!(lc.multi_lease(CORE, [A, B], 100, &mut released));
        lc.exclusive_granted(CORE, A, 10);
        // The fill of B finds A pinned in the only way of its set.
        assert_eq!(lc.pinned_victim(CORE, &[A]), Some(A));
        assert!(lc.take_staged(&mut pins, &mut mates));
        assert_eq!(pins, vec![(CORE, A)]);
        assert_eq!(mates, vec![(CORE, B)], "the engine releases A itself");
        assert!(!lc.take_staged(&mut pins, &mut mates));
        assert!(lc.exclusive_granted(CORE, B, 20).is_empty());
        assert_eq!(lc.counters(CORE).lease_overflows, 2);
        lc.check_quiescent().unwrap();
    }

    #[test]
    fn probes_queue_behind_active_leases_and_finish_expired_ones() {
        let mut lc = controller(4, true);
        let mut released = Vec::new();
        assert!(lc.lease(CORE, A, 100, &mut released));
        assert_eq!(lc.probe_action(CORE, A, true, 0), ProbeAction::Proceed);
        let expires = lc.exclusive_granted(CORE, A, 0)[0].expires;
        assert_eq!(lc.probe_action(CORE, A, false, 50), ProbeAction::Queue);
        assert_eq!(
            lc.probe_action(CORE, A, false, expires),
            ProbeAction::ProceedBreakingLease
        );
        hold(&mut lc, B, &mut released);
        assert!(lc.check_quiescent().is_err(), "B is still held");
        assert_eq!(
            lc.probe_action(CORE, B, true, 1),
            ProbeAction::ProceedBreakingLease
        );
        let s = lc.counters(CORE);
        assert_eq!(
            (s.releases_involuntary, s.leases_broken_by_priority),
            (1, 1)
        );
        lc.check_quiescent().unwrap();
    }

    #[test]
    fn a_full_table_displaces_its_oldest_lease_as_an_overflow() {
        let mut lc = controller(2, false);
        let mut released = Vec::new();
        hold(&mut lc, A, &mut released);
        hold(&mut lc, B, &mut released);
        assert!(!lc.lease(CORE, B, 100, &mut released), "footnote 1");
        assert!(released.is_empty());
        assert!(lc.lease(CORE, C, 100, &mut released));
        assert_eq!(released, vec![A]);
        lc.release_all(CORE, &mut released);
        let s = lc.counters(CORE);
        assert_eq!((s.leases_taken, s.lease_overflows), (3, 1));
        lc.check_quiescent().unwrap();
    }
}
