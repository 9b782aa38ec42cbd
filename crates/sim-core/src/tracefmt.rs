//! The on-disk memory-op trace format behind the record/replay
//! subsystem (`lr-replay`).
//!
//! A [`MachineTrace`] is a *self-contained* capture of one simulation:
//! the full [`SystemConfig`] it ran under, the pre-run memory image
//! (heap contents + allocator state), one [`OpRecord`] stream per core
//! taken at the worker⇄engine rendezvous boundary, and the live run's
//! final `MachineStats` JSON for byte-for-byte verification. Feeding
//! the recorded streams back into the engine from a single thread
//! reproduces the exact event sequence of the live run — no worker
//! threads, no rendezvous handoffs — because the lockstep runtime's
//! only inputs are (per-core) the issue time and operands of each
//! instruction, all of which are recorded.
//!
//! ## Encoding
//!
//! Binary, little-endian, versioned:
//!
//! ```text
//! magic "LRTRACE\0" | version u32 | FNV-1a checksum u64 over the body
//! body := config | nthreads | mem image | per-core record streams
//!         | stats JSON | live event count
//! ```
//!
//! Integers are LEB128 varints; `f64` config fields travel as raw
//! `to_bits()` words (exact round-trip). Per-record times are delta
//! encoded (`at` against the previous record of the same core,
//! `reply_time` against `at` — both monotone by construction), so a
//! record is typically 4–8 bytes. All body bytes are covered by the
//! header checksum: any single-byte corruption or truncation is
//! detected before parsing begins.

use crate::config::{CoherenceProtocol, EnergyModel, LeaseConfig, SystemConfig};
use crate::{Addr, Cycle};

/// File magic: identifies an `lr-replay` trace.
pub const TRACE_MAGIC: [u8; 8] = *b"LRTRACE\0";
/// Current format version; bumped on any incompatible layout change.
/// v2 added the multi-socket topology fields (`sockets`,
/// `socket_link_latency`, `socket_flit_hop_nj`) to the config block and
/// widened the core-count bound to 1024.
pub const TRACE_VERSION: u32 = 2;
/// Conventional file extension for trace files on disk.
pub const TRACE_EXT: &str = "lrt";

/// Why a trace failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// The buffer does not start with [`TRACE_MAGIC`].
    BadMagic,
    /// Unsupported format version.
    BadVersion(u32),
    /// The body checksum does not match (corruption or truncation).
    ChecksumMismatch,
    /// The buffer ended inside the named field.
    Truncated(&'static str),
    /// A field decoded to an impossible value.
    Malformed(&'static str),
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::BadMagic => write!(f, "not an lr-replay trace (bad magic)"),
            TraceError::BadVersion(v) => {
                write!(
                    f,
                    "unsupported trace version {v} (expected {TRACE_VERSION})"
                )
            }
            TraceError::ChecksumMismatch => {
                write!(
                    f,
                    "trace body checksum mismatch (corrupt or truncated file)"
                )
            }
            TraceError::Truncated(what) => write!(f, "trace truncated inside {what}"),
            TraceError::Malformed(what) => write!(f, "malformed trace field: {what}"),
        }
    }
}

impl std::error::Error for TraceError {}

/// One simulated instruction with its operands: the instruction set a
/// worker issues, the engine executes and a trace records. It is defined
/// once; `L` holds a MultiLease group's addresses. A trace keeps them in
/// a `Vec` ([`TraceOp`], 32 B, so an [`OpRecord`] stays 64 B), and the
/// live handoff (`lr_machine::Op`) keeps up to eight inline, so that an
/// issued op allocates nothing. [`Op::map_addrs`] converts between the
/// two.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op<L> {
    /// 64-bit load.
    Read(Addr),
    /// 64-bit store.
    Write(Addr, u64),
    /// Compare-and-swap: `flag` in the reply is the success bit, `value`
    /// the observed old value.
    Cas { addr: Addr, expected: u64, new: u64 },
    /// Fetch-and-add; reply `value` is the old value.
    Faa { addr: Addr, delta: u64 },
    /// Atomic exchange; reply `value` is the old value.
    Xchg { addr: Addr, value: u64 },
    /// `Lease(addr, time)` — Algorithm 1. Blocks until Exclusive
    /// ownership is granted.
    Lease { addr: Addr, time: Cycle },
    /// `Release(addr)` — reply `flag` is true iff the release was
    /// voluntary (a lease was still held).
    Release { addr: Addr },
    /// `MultiLease(num, time, addrs…)` — Algorithm 2. Reply `flag` is
    /// true iff the group was admitted (not over `MAX_NUM_LEASES`).
    MultiLease { addrs: L, time: Cycle },
    /// `ReleaseAll()`.
    ReleaseAll,
    /// Heap allocation; reply `value` is the address.
    Malloc { size: u64, align: u64 },
    /// Heap free.
    Free(Addr),
    /// The worker's closure finished; carries its final counters. No
    /// reply follows.
    Exit {
        /// Simulated instructions the worker retired (API calls + work).
        instructions: u64,
        /// Application-level operations the workload reported.
        ops: u64,
    },
    /// Annotation only: the worker crossed a [`SimBarrier`] here, in a
    /// recorded run. The recorder at the engine's input logs and
    /// acknowledges it, so the engine never sees one, and the replayer
    /// skips it: it schedules no event, counts no instruction and moves
    /// no clock. The barrier's own FAA/load/store instructions are
    /// recorded as ordinary ops.
    ///
    /// [`SimBarrier`]: ../../lr_machine/struct.SimBarrier.html
    Barrier,
}

/// An op as a trace records it.
pub type TraceOp = Op<Vec<Addr>>;

// A trace holds one `OpRecord` per simulated instruction, so the
// decoded record keeps to one cache line.
const _: () = assert!(std::mem::size_of::<TraceOp>() <= 32);
const _: () = assert!(std::mem::size_of::<OpRecord>() <= 64);

impl<L: std::ops::Deref<Target = [Addr]>> Op<L> {
    /// The cache-line-bearing address of this op, if it has one
    /// (divergence reports lead with it).
    pub fn addr(&self) -> Option<Addr> {
        match *self {
            Op::Read(a)
            | Op::Write(a, _)
            | Op::Cas { addr: a, .. }
            | Op::Faa { addr: a, .. }
            | Op::Xchg { addr: a, .. }
            | Op::Lease { addr: a, .. }
            | Op::Release { addr: a }
            | Op::Free(a) => Some(a),
            Op::MultiLease { ref addrs, .. } => addrs.first().copied(),
            _ => None,
        }
    }
}

impl<L> Op<L> {
    /// The same op with a MultiLease group's addresses converted by `f`:
    /// how an op crosses between the live handoff and a trace.
    pub fn map_addrs<M>(&self, f: impl FnOnce(&L) -> M) -> Op<M> {
        match *self {
            Op::Read(a) => Op::Read(a),
            Op::Write(a, v) => Op::Write(a, v),
            Op::Cas {
                addr,
                expected,
                new,
            } => Op::Cas {
                addr,
                expected,
                new,
            },
            Op::Faa { addr, delta } => Op::Faa { addr, delta },
            Op::Xchg { addr, value } => Op::Xchg { addr, value },
            Op::Lease { addr, time } => Op::Lease { addr, time },
            Op::Release { addr } => Op::Release { addr },
            Op::MultiLease { ref addrs, time } => Op::MultiLease {
                addrs: f(addrs),
                time,
            },
            Op::ReleaseAll => Op::ReleaseAll,
            Op::Malloc { size, align } => Op::Malloc { size, align },
            Op::Free(a) => Op::Free(a),
            Op::Exit { instructions, ops } => Op::Exit { instructions, ops },
            Op::Barrier => Op::Barrier,
        }
    }
}

/// One element of a core's recorded instruction stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpRecord {
    /// Worker-local issue time (the `Request::at` of the live run).
    pub at: Cycle,
    /// The instruction and its operands.
    pub op: TraceOp,
    /// Simulated completion time of the live reply.
    pub reply_time: Cycle,
    /// Result value of the live reply.
    pub reply_value: u64,
    /// Result flag of the live reply.
    pub reply_flag: bool,
}

/// Pre-run snapshot of the simulated memory: resident pages (trailing
/// zeros trimmed) plus the allocator's exact state, so a restored
/// memory behaves identically — including the addresses future
/// `malloc` calls will return (free lists preserve stack order).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MemImage {
    /// `(page index, words)` for every resident page, ascending index.
    pub pages: Vec<(u64, Vec<u64>)>,
    /// Allocator bump pointer.
    pub brk: u64,
    /// Live blocks `(address, class-rounded size)`, ascending address.
    pub live: Vec<(u64, u64)>,
    /// Free lists `(size class, addresses in stack order)`, ascending
    /// class. Stack order matters: the allocator pops from the end.
    pub free: Vec<(u64, Vec<u64>)>,
    /// Total live bytes (redundant with `live`; kept for cheap audit).
    pub live_bytes: u64,
}

/// A complete recorded simulation, ready to re-drive engine-only.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineTrace {
    /// The configuration the live run executed under.
    pub config: SystemConfig,
    /// Pre-run simulated memory (heap contents + allocator).
    pub mem: MemImage,
    /// Per-core recorded instruction streams, index == core id.
    pub cores: Vec<Vec<OpRecord>>,
    /// The live run's final `MachineStats::to_json()` — the replay
    /// verification target (byte-for-byte).
    pub stats_json: String,
    /// Events the live engine processed (replay must match).
    pub live_events: u64,
}

impl MachineTrace {
    /// Total recorded instructions across all cores (excluding the
    /// per-core `Exit` sentinel and `Barrier` annotations).
    pub fn total_ops(&self) -> u64 {
        self.cores
            .iter()
            .flatten()
            .filter(|r| !matches!(r.op, TraceOp::Exit { .. } | TraceOp::Barrier))
            .count() as u64
    }
}

// ---------------------------------------------------------------------
// Primitive encoding
// ---------------------------------------------------------------------

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            return;
        }
        out.push(b | 0x80);
    }
}

fn put_u64_le(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64_le(out, v.to_bits());
}

fn put_bool(out: &mut Vec<u8>, v: bool) {
    out.push(v as u8);
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn bytes(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], TraceError> {
        if self.pos + n > self.buf.len() {
            return Err(TraceError::Truncated(what));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self, what: &'static str) -> Result<u8, TraceError> {
        Ok(self.bytes(1, what)?[0])
    }

    fn u64_le(&mut self, what: &'static str) -> Result<u64, TraceError> {
        let b = self.bytes(8, what)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    fn f64(&mut self, what: &'static str) -> Result<f64, TraceError> {
        Ok(f64::from_bits(self.u64_le(what)?))
    }

    fn bool(&mut self, what: &'static str) -> Result<bool, TraceError> {
        match self.u8(what)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(TraceError::Malformed(what)),
        }
    }

    fn varint(&mut self, what: &'static str) -> Result<u64, TraceError> {
        let mut v: u64 = 0;
        let mut shift = 0u32;
        loop {
            let b = self.u8(what)?;
            if shift == 63 && b > 1 {
                return Err(TraceError::Malformed(what));
            }
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
            if shift > 63 {
                return Err(TraceError::Malformed(what));
            }
        }
    }

    /// A varint that must fit a `u32` field. A wider value is a
    /// [`TraceError::Malformed`], never a silent truncating cast —
    /// crafted trace bytes (the differential fuzzer mutates exactly
    /// these) must not wrap into a plausible-looking config.
    fn varint_u32(&mut self, what: &'static str) -> Result<u32, TraceError> {
        u32::try_from(self.varint(what)?).map_err(|_| TraceError::Malformed(what))
    }

    /// A varint that must fit a `usize` field (checked even on 32-bit
    /// hosts, where `as usize` would truncate).
    fn varint_usize(&mut self, what: &'static str) -> Result<usize, TraceError> {
        usize::try_from(self.varint(what)?).map_err(|_| TraceError::Malformed(what))
    }

    fn len(&mut self, what: &'static str) -> Result<usize, TraceError> {
        let v = self.varint(what)?;
        // No legitimate count exceeds the remaining buffer size (every
        // element is at least one byte); reject early so corrupt counts
        // can't drive huge allocations.
        if v > (self.buf.len() - self.pos) as u64 {
            return Err(TraceError::Malformed(what));
        }
        Ok(v as usize)
    }

    fn str(&mut self, what: &'static str) -> Result<String, TraceError> {
        let n = self.len(what)?;
        let b = self.bytes(n, what)?;
        String::from_utf8(b.to_vec()).map_err(|_| TraceError::Malformed(what))
    }
}

/// FNV-1a over `bytes` — the body checksum (and the config
/// fingerprint used in trace file names).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

// ---------------------------------------------------------------------
// Config
// ---------------------------------------------------------------------

fn encode_config(out: &mut Vec<u8>, c: &SystemConfig) {
    put_varint(out, c.num_cores as u64);
    put_f64(out, c.freq_ghz);
    put_varint(out, c.l1_kib as u64);
    put_varint(out, c.l1_ways as u64);
    put_varint(out, c.l1_latency);
    put_varint(out, c.l2_slice_kib as u64);
    put_varint(out, c.l2_ways as u64);
    put_varint(out, c.l2_tag_latency);
    put_varint(out, c.l2_data_latency);
    put_varint(out, c.dram_latency);
    out.push(match c.protocol {
        CoherenceProtocol::Msi => 0,
        CoherenceProtocol::Mesi => 1,
    });
    put_varint(out, c.mesh_hop_latency);
    put_varint(out, c.sockets as u64);
    put_varint(out, c.socket_link_latency);
    put_varint(out, u64::from(c.control_flits));
    put_varint(out, u64::from(c.data_flits));
    put_varint(out, c.instruction_cost);
    put_varint(out, c.lease.max_lease_time);
    put_varint(out, c.lease.max_num_leases as u64);
    put_bool(out, c.lease.prioritization);
    put_varint(out, c.lease.software_multilease_x);
    put_f64(out, c.energy.l1_access_nj);
    put_f64(out, c.energy.l2_access_nj);
    put_f64(out, c.energy.dram_access_nj);
    put_f64(out, c.energy.flit_hop_nj);
    put_f64(out, c.energy.socket_flit_hop_nj);
    put_f64(out, c.energy.instruction_nj);
    put_f64(out, c.energy.static_core_nj_per_cycle);
    put_u64_le(out, c.seed);
    put_varint(out, c.watchdog_max_cycles);
    put_varint(out, c.watchdog_max_events);
}

fn decode_config(cur: &mut Cursor<'_>) -> Result<SystemConfig, TraceError> {
    let cfg = SystemConfig {
        num_cores: cur.varint_usize("num_cores")?,
        freq_ghz: cur.f64("freq_ghz")?,
        l1_kib: cur.varint_usize("l1_kib")?,
        l1_ways: cur.varint_usize("l1_ways")?,
        l1_latency: cur.varint("l1_latency")?,
        l2_slice_kib: cur.varint_usize("l2_slice_kib")?,
        l2_ways: cur.varint_usize("l2_ways")?,
        l2_tag_latency: cur.varint("l2_tag_latency")?,
        l2_data_latency: cur.varint("l2_data_latency")?,
        dram_latency: cur.varint("dram_latency")?,
        protocol: match cur.u8("protocol")? {
            0 => CoherenceProtocol::Msi,
            1 => CoherenceProtocol::Mesi,
            _ => return Err(TraceError::Malformed("protocol")),
        },
        mesh_hop_latency: cur.varint("mesh_hop_latency")?,
        sockets: cur.varint_usize("sockets")?,
        socket_link_latency: cur.varint("socket_link_latency")?,
        control_flits: cur.varint_u32("control_flits")?,
        data_flits: cur.varint_u32("data_flits")?,
        instruction_cost: cur.varint("instruction_cost")?,
        lease: LeaseConfig {
            max_lease_time: cur.varint("max_lease_time")?,
            max_num_leases: cur.varint_usize("max_num_leases")?,
            prioritization: cur.bool("prioritization")?,
            software_multilease_x: cur.varint("software_multilease_x")?,
        },
        energy: EnergyModel {
            l1_access_nj: cur.f64("l1_access_nj")?,
            l2_access_nj: cur.f64("l2_access_nj")?,
            dram_access_nj: cur.f64("dram_access_nj")?,
            flit_hop_nj: cur.f64("flit_hop_nj")?,
            socket_flit_hop_nj: cur.f64("socket_flit_hop_nj")?,
            instruction_nj: cur.f64("instruction_nj")?,
            static_core_nj_per_cycle: cur.f64("static_core_nj_per_cycle")?,
        },
        seed: cur.u64_le("seed")?,
        watchdog_max_cycles: cur.varint("watchdog_max_cycles")?,
        watchdog_max_events: cur.varint("watchdog_max_events")?,
    };
    // Semantic bounds a decoded config must satisfy before any consumer
    // does arithmetic with it: the machine layer supports 1 to
    // `MAX_CORES` cores, the socket layout must be well-formed (at
    // least one socket, evenly dividing the cores — `tiles_per_socket`
    // would panic otherwise), and the cache geometry must yield at
    // least one set per level (zero ways or a sub-line capacity would
    // divide by zero in the set-index math; an absurd capacity would
    // overflow it). The checksum only guards against *corruption*;
    // these guard against *crafted* inputs.
    if cfg.num_cores < 1 || cfg.num_cores > crate::MAX_CORES {
        return Err(TraceError::Malformed("num_cores"));
    }
    if cfg.sockets < 1 || cfg.sockets > 64 || !cfg.num_cores.is_multiple_of(cfg.sockets) {
        return Err(TraceError::Malformed("sockets"));
    }
    let sets = |kib: usize, ways: usize| -> Option<usize> {
        let lines = kib.checked_mul(1024)? / crate::LINE_SIZE as usize;
        lines.checked_div(ways).filter(|&s| s >= 1)
    };
    if sets(cfg.l1_kib, cfg.l1_ways).is_none() {
        return Err(TraceError::Malformed("l1 geometry"));
    }
    if sets(cfg.l2_slice_kib, cfg.l2_ways).is_none() {
        return Err(TraceError::Malformed("l2 geometry"));
    }
    Ok(cfg)
}

/// Stable 64-bit fingerprint of a configuration (FNV-1a over its exact
/// encoding). Used to group trace files by machine configuration.
pub fn config_fingerprint(c: &SystemConfig) -> u64 {
    let mut buf = Vec::with_capacity(128);
    encode_config(&mut buf, c);
    fnv1a(&buf)
}

// ---------------------------------------------------------------------
// Records
// ---------------------------------------------------------------------

const TAG_READ: u8 = 0;
const TAG_WRITE: u8 = 1;
const TAG_CAS: u8 = 2;
const TAG_FAA: u8 = 3;
const TAG_XCHG: u8 = 4;
const TAG_LEASE: u8 = 5;
const TAG_RELEASE: u8 = 6;
const TAG_MULTILEASE: u8 = 7;
const TAG_RELEASE_ALL: u8 = 8;
const TAG_MALLOC: u8 = 9;
const TAG_FREE: u8 = 10;
const TAG_EXIT: u8 = 11;
const TAG_BARRIER: u8 = 12;

/// True if records of this op carry an engine reply (everything except
/// the `Exit` sentinel and `Barrier` annotations).
fn has_reply(op: &TraceOp) -> bool {
    !matches!(op, TraceOp::Exit { .. } | TraceOp::Barrier)
}

fn encode_record(out: &mut Vec<u8>, prev_at: Cycle, r: &OpRecord) {
    debug_assert!(r.at >= prev_at, "per-core issue times are monotone");
    match &r.op {
        TraceOp::Read(a) => {
            out.push(TAG_READ);
            put_varint(out, r.at - prev_at);
            put_varint(out, a.0);
        }
        TraceOp::Write(a, v) => {
            out.push(TAG_WRITE);
            put_varint(out, r.at - prev_at);
            put_varint(out, a.0);
            put_varint(out, *v);
        }
        TraceOp::Cas {
            addr,
            expected,
            new,
        } => {
            out.push(TAG_CAS);
            put_varint(out, r.at - prev_at);
            put_varint(out, addr.0);
            put_varint(out, *expected);
            put_varint(out, *new);
        }
        TraceOp::Faa { addr, delta } => {
            out.push(TAG_FAA);
            put_varint(out, r.at - prev_at);
            put_varint(out, addr.0);
            put_varint(out, *delta);
        }
        TraceOp::Xchg { addr, value } => {
            out.push(TAG_XCHG);
            put_varint(out, r.at - prev_at);
            put_varint(out, addr.0);
            put_varint(out, *value);
        }
        TraceOp::Lease { addr, time } => {
            out.push(TAG_LEASE);
            put_varint(out, r.at - prev_at);
            put_varint(out, addr.0);
            put_varint(out, *time);
        }
        TraceOp::Release { addr } => {
            out.push(TAG_RELEASE);
            put_varint(out, r.at - prev_at);
            put_varint(out, addr.0);
        }
        TraceOp::MultiLease { addrs, time } => {
            out.push(TAG_MULTILEASE);
            put_varint(out, r.at - prev_at);
            put_varint(out, addrs.len() as u64);
            for a in addrs {
                put_varint(out, a.0);
            }
            put_varint(out, *time);
        }
        TraceOp::ReleaseAll => {
            out.push(TAG_RELEASE_ALL);
            put_varint(out, r.at - prev_at);
        }
        TraceOp::Malloc { size, align } => {
            out.push(TAG_MALLOC);
            put_varint(out, r.at - prev_at);
            put_varint(out, *size);
            put_varint(out, *align);
        }
        TraceOp::Free(a) => {
            out.push(TAG_FREE);
            put_varint(out, r.at - prev_at);
            put_varint(out, a.0);
        }
        TraceOp::Exit { instructions, ops } => {
            out.push(TAG_EXIT);
            put_varint(out, r.at - prev_at);
            put_varint(out, *instructions);
            put_varint(out, *ops);
        }
        TraceOp::Barrier => {
            out.push(TAG_BARRIER);
            put_varint(out, r.at - prev_at);
        }
    }
    if has_reply(&r.op) {
        debug_assert!(r.reply_time >= r.at, "completion at or after issue");
        put_varint(out, r.reply_time - r.at);
        put_varint(out, r.reply_value);
        put_bool(out, r.reply_flag);
    }
}

fn decode_record(cur: &mut Cursor<'_>, prev_at: Cycle) -> Result<OpRecord, TraceError> {
    let tag = cur.u8("record tag")?;
    let at = prev_at
        .checked_add(cur.varint("record at-delta")?)
        .ok_or(TraceError::Malformed("record at-delta overflows"))?;
    let op = match tag {
        TAG_READ => TraceOp::Read(Addr(cur.varint("read addr")?)),
        TAG_WRITE => TraceOp::Write(Addr(cur.varint("write addr")?), cur.varint("write value")?),
        TAG_CAS => TraceOp::Cas {
            addr: Addr(cur.varint("cas addr")?),
            expected: cur.varint("cas expected")?,
            new: cur.varint("cas new")?,
        },
        TAG_FAA => TraceOp::Faa {
            addr: Addr(cur.varint("faa addr")?),
            delta: cur.varint("faa delta")?,
        },
        TAG_XCHG => TraceOp::Xchg {
            addr: Addr(cur.varint("xchg addr")?),
            value: cur.varint("xchg value")?,
        },
        TAG_LEASE => TraceOp::Lease {
            addr: Addr(cur.varint("lease addr")?),
            time: cur.varint("lease time")?,
        },
        TAG_RELEASE => TraceOp::Release {
            addr: Addr(cur.varint("release addr")?),
        },
        TAG_MULTILEASE => {
            let n = cur.len("multilease addr count")?;
            let mut addrs = Vec::with_capacity(n);
            for _ in 0..n {
                addrs.push(Addr(cur.varint("multilease addr")?));
            }
            TraceOp::MultiLease {
                addrs,
                time: cur.varint("multilease time")?,
            }
        }
        TAG_RELEASE_ALL => TraceOp::ReleaseAll,
        TAG_MALLOC => TraceOp::Malloc {
            size: cur.varint("malloc size")?,
            align: cur.varint("malloc align")?,
        },
        TAG_FREE => TraceOp::Free(Addr(cur.varint("free addr")?)),
        TAG_EXIT => TraceOp::Exit {
            instructions: cur.varint("exit instructions")?,
            ops: cur.varint("exit ops")?,
        },
        TAG_BARRIER => TraceOp::Barrier,
        _ => return Err(TraceError::Malformed("record tag")),
    };
    let (reply_time, reply_value, reply_flag) = if has_reply(&op) {
        let d = cur.varint("reply time-delta")?;
        (
            at.checked_add(d)
                .ok_or(TraceError::Malformed("reply time-delta overflows"))?,
            cur.varint("reply value")?,
            cur.bool("reply flag")?,
        )
    } else {
        (at, 0, false)
    };
    Ok(OpRecord {
        at,
        op,
        reply_time,
        reply_value,
        reply_flag,
    })
}

// ---------------------------------------------------------------------
// Memory image
// ---------------------------------------------------------------------

fn encode_mem(out: &mut Vec<u8>, m: &MemImage) {
    put_varint(out, m.brk);
    put_varint(out, m.live_bytes);
    put_varint(out, m.live.len() as u64);
    for &(addr, size) in &m.live {
        put_varint(out, addr);
        put_varint(out, size);
    }
    put_varint(out, m.free.len() as u64);
    for (class, addrs) in &m.free {
        put_varint(out, *class);
        put_varint(out, addrs.len() as u64);
        for &a in addrs {
            put_varint(out, a);
        }
    }
    put_varint(out, m.pages.len() as u64);
    for (idx, words) in &m.pages {
        put_varint(out, *idx);
        put_varint(out, words.len() as u64);
        for &w in words {
            put_varint(out, w);
        }
    }
}

fn decode_mem(cur: &mut Cursor<'_>) -> Result<MemImage, TraceError> {
    let brk = cur.varint("mem brk")?;
    let live_bytes = cur.varint("mem live_bytes")?;
    let nlive = cur.len("mem live count")?;
    let mut live = Vec::with_capacity(nlive);
    for _ in 0..nlive {
        live.push((cur.varint("live addr")?, cur.varint("live size")?));
    }
    let nfree = cur.len("mem free-class count")?;
    let mut free = Vec::with_capacity(nfree);
    for _ in 0..nfree {
        let class = cur.varint("free class")?;
        let n = cur.len("free list length")?;
        let mut addrs = Vec::with_capacity(n);
        for _ in 0..n {
            addrs.push(cur.varint("free addr")?);
        }
        free.push((class, addrs));
    }
    let npages = cur.len("mem page count")?;
    let mut pages = Vec::with_capacity(npages);
    for _ in 0..npages {
        let idx = cur.varint("page index")?;
        let n = cur.len("page word count")?;
        let mut words = Vec::with_capacity(n);
        for _ in 0..n {
            words.push(cur.varint("page word")?);
        }
        pages.push((idx, words));
    }
    Ok(MemImage {
        pages,
        brk,
        live,
        free,
        live_bytes,
    })
}

// ---------------------------------------------------------------------
// Whole-trace encode/decode
// ---------------------------------------------------------------------

/// Serialize a trace to its on-disk byte form.
pub fn encode(t: &MachineTrace) -> Vec<u8> {
    let mut body = Vec::with_capacity(4096);
    encode_config(&mut body, &t.config);
    put_varint(&mut body, t.cores.len() as u64);
    encode_mem(&mut body, &t.mem);
    for core in &t.cores {
        put_varint(&mut body, core.len() as u64);
        let mut prev_at = 0;
        for r in core {
            encode_record(&mut body, prev_at, r);
            prev_at = r.at;
        }
    }
    put_str(&mut body, &t.stats_json);
    put_varint(&mut body, t.live_events);

    let mut out = Vec::with_capacity(body.len() + 20);
    out.extend_from_slice(&TRACE_MAGIC);
    out.extend_from_slice(&TRACE_VERSION.to_le_bytes());
    put_u64_le(&mut out, fnv1a(&body));
    out.extend_from_slice(&body);
    out
}

/// Parse a trace from its on-disk byte form. The body checksum is
/// verified *before* any field parsing, so corrupt files fail with
/// [`TraceError::ChecksumMismatch`] rather than a confusing field
/// error.
pub fn decode(bytes: &[u8]) -> Result<MachineTrace, TraceError> {
    if bytes.len() < 20 {
        return Err(TraceError::Truncated("header"));
    }
    if bytes[..8] != TRACE_MAGIC {
        return Err(TraceError::BadMagic);
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if version != TRACE_VERSION {
        return Err(TraceError::BadVersion(version));
    }
    let checksum = u64::from_le_bytes(bytes[12..20].try_into().expect("8 bytes"));
    let body = &bytes[20..];
    if fnv1a(body) != checksum {
        return Err(TraceError::ChecksumMismatch);
    }

    let mut cur = Cursor::new(body);
    let config = decode_config(&mut cur)?;
    let nthreads = cur.len("thread count")?;
    let mem = decode_mem(&mut cur)?;
    let mut cores = Vec::with_capacity(nthreads);
    for _ in 0..nthreads {
        let n = cur.len("core record count")?;
        let mut records = Vec::with_capacity(n);
        let mut prev_at = 0;
        for _ in 0..n {
            let r = decode_record(&mut cur, prev_at)?;
            prev_at = r.at;
            records.push(r);
        }
        cores.push(records);
    }
    let stats_json = cur.str("stats json")?;
    let live_events = cur.varint("live event count")?;
    if cur.pos != body.len() {
        return Err(TraceError::Malformed("trailing bytes after trace body"));
    }
    Ok(MachineTrace {
        config,
        mem,
        cores,
        stats_json,
        live_events,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> MachineTrace {
        let mut cfg = SystemConfig::with_cores(3);
        cfg.lease.prioritization = true;
        cfg.freq_ghz = 2.5;
        MachineTrace {
            config: cfg,
            mem: MemImage {
                pages: vec![(0, vec![1, 2, 3]), (7, vec![0xdead_beef, 0, 42])],
                brk: 0x2040,
                live: vec![(0x1000, 64), (0x1040, 8)],
                free: vec![(8, vec![0x1048, 0x1050]), (64, vec![0x1080])],
                live_bytes: 72,
            },
            cores: vec![
                vec![
                    OpRecord {
                        at: 1,
                        op: TraceOp::Faa {
                            addr: Addr(0x1000),
                            delta: 1,
                        },
                        reply_time: 43,
                        reply_value: 0,
                        reply_flag: true,
                    },
                    OpRecord {
                        at: 44,
                        op: TraceOp::MultiLease {
                            addrs: vec![Addr(0x1000), Addr(0x1040)],
                            time: 500,
                        },
                        reply_time: 90,
                        reply_value: 0,
                        reply_flag: true,
                    },
                    OpRecord {
                        at: 91,
                        op: TraceOp::Barrier,
                        reply_time: 91,
                        reply_value: 0,
                        reply_flag: false,
                    },
                    OpRecord {
                        at: 120,
                        op: TraceOp::Exit {
                            instructions: 3,
                            ops: 1,
                        },
                        reply_time: 120,
                        reply_value: 0,
                        reply_flag: false,
                    },
                ],
                vec![OpRecord {
                    at: 1,
                    op: TraceOp::Exit {
                        instructions: 0,
                        ops: 0,
                    },
                    reply_time: 1,
                    reply_value: 0,
                    reply_flag: false,
                }],
                vec![],
            ],
            stats_json: "{\"total_cycles\":120}".to_string(),
            live_events: 17,
        }
    }

    #[test]
    fn roundtrip_is_identity() {
        let t = sample_trace();
        let bytes = encode(&t);
        let back = decode(&bytes).expect("decodes");
        assert_eq!(back, t);
    }

    #[test]
    fn config_fingerprint_is_stable_and_config_sensitive() {
        let a = SystemConfig::with_cores(4);
        let mut b = SystemConfig::with_cores(4);
        assert_eq!(config_fingerprint(&a), config_fingerprint(&b));
        b.dram_latency += 1;
        assert_ne!(config_fingerprint(&a), config_fingerprint(&b));
        let mut c = SystemConfig::with_cores(4);
        c.energy.dram_access_nj += 0.25;
        assert_ne!(config_fingerprint(&a), config_fingerprint(&c));
    }

    #[test]
    fn bad_magic_and_version_are_rejected() {
        let t = sample_trace();
        let mut bytes = encode(&t);
        assert_eq!(decode(&bytes[..10]), Err(TraceError::Truncated("header")));
        bytes[0] ^= 0xff;
        assert_eq!(decode(&bytes), Err(TraceError::BadMagic));
        bytes[0] ^= 0xff;
        bytes[8] = 99;
        assert_eq!(decode(&bytes), Err(TraceError::BadVersion(99)));
    }

    #[test]
    fn any_single_byte_corruption_is_detected() {
        let t = sample_trace();
        let clean = encode(&t);
        // Flip every body byte (and the checksum itself) one at a time:
        // FNV-1a's per-byte mixing is injective, so each flip must land
        // as a checksum mismatch, never as a silent wrong decode.
        for i in 12..clean.len() {
            let mut corrupt = clean.clone();
            corrupt[i] ^= 0x40;
            assert_eq!(
                decode(&corrupt),
                Err(TraceError::ChecksumMismatch),
                "flip at byte {i} went undetected"
            );
        }
    }

    #[test]
    fn truncated_body_is_detected() {
        let bytes = encode(&sample_trace());
        for cut in [21, bytes.len() / 2, bytes.len() - 1] {
            assert_eq!(decode(&bytes[..cut]), Err(TraceError::ChecksumMismatch));
        }
    }

    #[test]
    fn f64_fields_roundtrip_exactly() {
        let mut cfg = SystemConfig {
            freq_ghz: 1.0 / 3.0,
            ..SystemConfig::default()
        };
        cfg.energy.flit_hop_nj = f64::MIN_POSITIVE;
        let t = MachineTrace {
            config: cfg.clone(),
            mem: MemImage::default(),
            cores: vec![],
            stats_json: String::new(),
            live_events: 0,
        };
        let back = decode(&encode(&t)).expect("decodes");
        assert_eq!(back.config.freq_ghz.to_bits(), cfg.freq_ghz.to_bits());
        assert_eq!(
            back.config.energy.flit_hop_nj.to_bits(),
            cfg.energy.flit_hop_nj.to_bits()
        );
    }

    #[test]
    fn total_ops_skips_sentinels() {
        assert_eq!(sample_trace().total_ops(), 2);
    }

    /// Encode a config with raw (possibly out-of-range) values for the
    /// fields the decoder must range-check — the byte layout mirrors
    /// `encode_config` exactly, so a well-formed call round-trips.
    struct RawConfig {
        num_cores: u64,
        l1_kib: u64,
        l1_ways: u64,
        l2_ways: u64,
        sockets: u64,
        control_flits: u64,
        data_flits: u64,
        max_num_leases: u64,
    }

    impl Default for RawConfig {
        fn default() -> Self {
            let c = SystemConfig::default();
            RawConfig {
                num_cores: c.num_cores as u64,
                l1_kib: c.l1_kib as u64,
                l1_ways: c.l1_ways as u64,
                l2_ways: c.l2_ways as u64,
                sockets: c.sockets as u64,
                control_flits: u64::from(c.control_flits),
                data_flits: u64::from(c.data_flits),
                max_num_leases: c.lease.max_num_leases as u64,
            }
        }
    }

    fn raw_config_bytes(raw: &RawConfig) -> Vec<u8> {
        let c = SystemConfig::default();
        let mut out = Vec::new();
        put_varint(&mut out, raw.num_cores);
        put_f64(&mut out, c.freq_ghz);
        put_varint(&mut out, raw.l1_kib);
        put_varint(&mut out, raw.l1_ways);
        put_varint(&mut out, c.l1_latency);
        put_varint(&mut out, c.l2_slice_kib as u64);
        put_varint(&mut out, raw.l2_ways);
        put_varint(&mut out, c.l2_tag_latency);
        put_varint(&mut out, c.l2_data_latency);
        put_varint(&mut out, c.dram_latency);
        out.push(0);
        put_varint(&mut out, c.mesh_hop_latency);
        put_varint(&mut out, raw.sockets);
        put_varint(&mut out, c.socket_link_latency);
        put_varint(&mut out, raw.control_flits);
        put_varint(&mut out, raw.data_flits);
        put_varint(&mut out, c.instruction_cost);
        put_varint(&mut out, c.lease.max_lease_time);
        put_varint(&mut out, raw.max_num_leases);
        put_bool(&mut out, c.lease.prioritization);
        put_varint(&mut out, c.lease.software_multilease_x);
        put_f64(&mut out, c.energy.l1_access_nj);
        put_f64(&mut out, c.energy.l2_access_nj);
        put_f64(&mut out, c.energy.dram_access_nj);
        put_f64(&mut out, c.energy.flit_hop_nj);
        put_f64(&mut out, c.energy.socket_flit_hop_nj);
        put_f64(&mut out, c.energy.instruction_nj);
        put_f64(&mut out, c.energy.static_core_nj_per_cycle);
        put_u64_le(&mut out, c.seed);
        put_varint(&mut out, c.watchdog_max_cycles);
        put_varint(&mut out, c.watchdog_max_events);
        out
    }

    fn decode_raw_config(raw: &RawConfig) -> Result<SystemConfig, TraceError> {
        let bytes = raw_config_bytes(raw);
        let mut cur = Cursor::new(&bytes);
        let cfg = decode_config(&mut cur)?;
        assert_eq!(cur.pos, bytes.len(), "decoder consumed the whole config");
        Ok(cfg)
    }

    #[test]
    fn raw_config_layout_matches_encoder() {
        // Self-check of the test rig: default raw values reproduce the
        // production encoding byte for byte and decode cleanly.
        let mut expect = Vec::new();
        encode_config(&mut expect, &SystemConfig::default());
        assert_eq!(raw_config_bytes(&RawConfig::default()), expect);
        let cfg = decode_raw_config(&RawConfig::default()).expect("decodes");
        assert_eq!(cfg, SystemConfig::default());
    }

    #[test]
    fn oversized_u32_fields_are_malformed_not_wrapped() {
        // 2^32 wraps to 0 under `as u32`; the decoder must reject it.
        for (field, raw) in [
            (
                "control_flits",
                RawConfig {
                    control_flits: 1 << 32,
                    ..RawConfig::default()
                },
            ),
            (
                "data_flits",
                RawConfig {
                    data_flits: (1 << 32) + 9,
                    ..RawConfig::default()
                },
            ),
        ] {
            assert_eq!(
                decode_raw_config(&raw),
                Err(TraceError::Malformed(field)),
                "{field} must fail closed"
            );
        }
    }

    #[test]
    fn out_of_range_core_count_is_malformed() {
        for num_cores in [0, crate::MAX_CORES as u64 + 1, 1 << 33] {
            assert_eq!(
                decode_raw_config(&RawConfig {
                    num_cores,
                    ..RawConfig::default()
                }),
                Err(TraceError::Malformed("num_cores"))
            );
        }
        for num_cores in [64, crate::MAX_CORES as u64] {
            assert!(decode_raw_config(&RawConfig {
                num_cores,
                ..RawConfig::default()
            })
            .is_ok());
        }
    }

    #[test]
    fn bad_socket_layout_is_malformed() {
        // Zero sockets, absurd socket counts, and a socket count that
        // does not divide the cores (tiles_per_socket would panic
        // downstream) must all fail closed.
        for (num_cores, sockets) in [(64, 0), (64, 65), (64, 3), (4, 8)] {
            assert_eq!(
                decode_raw_config(&RawConfig {
                    num_cores,
                    sockets,
                    ..RawConfig::default()
                }),
                Err(TraceError::Malformed("sockets")),
                "cores={num_cores} sockets={sockets}"
            );
        }
        assert!(decode_raw_config(&RawConfig {
            num_cores: 64,
            sockets: 4,
            ..RawConfig::default()
        })
        .is_ok());
    }

    #[test]
    fn degenerate_cache_geometry_is_malformed() {
        // Zero ways would divide by zero in the set-index math; a
        // sub-line capacity yields zero sets; an absurd capacity would
        // overflow `kib * 1024`. All must fail closed.
        let l1 = |l1_kib, l1_ways| RawConfig {
            l1_kib,
            l1_ways,
            ..RawConfig::default()
        };
        for raw in [l1(32, 0), l1(0, 4), l1(u64::MAX / 4, 4)] {
            assert_eq!(
                decode_raw_config(&raw),
                Err(TraceError::Malformed("l1 geometry"))
            );
        }
        assert_eq!(
            decode_raw_config(&RawConfig {
                l2_ways: 0,
                ..RawConfig::default()
            }),
            Err(TraceError::Malformed("l2 geometry"))
        );
    }

    #[test]
    fn malformed_config_surfaces_through_full_decode() {
        // End to end: a fully framed trace whose (checksum-valid) body
        // carries an out-of-range field decodes to a structured error,
        // never a panic or a wrapped value.
        let mut body = raw_config_bytes(&RawConfig {
            control_flits: 1 << 40,
            ..RawConfig::default()
        });
        put_varint(&mut body, 0); // no cores
        encode_mem(&mut body, &MemImage::default());
        put_str(&mut body, "{}");
        put_varint(&mut body, 0); // live events
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&TRACE_MAGIC);
        bytes.extend_from_slice(&TRACE_VERSION.to_le_bytes());
        put_u64_le(&mut bytes, fnv1a(&body));
        bytes.extend_from_slice(&body);
        assert_eq!(decode(&bytes), Err(TraceError::Malformed("control_flits")));
    }
}
