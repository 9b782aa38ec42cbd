//! # lr-sim-noc
//!
//! Network-on-chip model for the simulated tiled multicore: one 2-D mesh
//! per socket, sockets joined by slow inter-socket links.
//!
//! The model is analytic (no per-flit contention): a message from tile A to
//! tile B within a socket takes `hops(A,B) · hop_latency + serialization`
//! cycles, where serialization is one cycle per additional flit, matching
//! Graphite's default network model at the fidelity the paper's results
//! depend on (distance-dependent latency, message-count-dependent energy).
//!
//! A cross-socket message rides the source mesh to its socket's gateway
//! tile (local tile 0, where the off-package link attaches), pays one
//! `socket_link_latency` traversal, then rides the destination mesh from
//! that socket's gateway to the target tile. With `sockets == 1` every
//! formula degenerates exactly to the flat single-mesh model the paper
//! evaluates — bit-for-bit, which the degeneracy tests below pin down.
//!
//! Energy accounting is flit-hops per link class: each flit traversing
//! each mesh hop costs `flit_hop_nj`, and each flit crossing an
//! inter-socket link costs `socket_flit_hop_nj` (see
//! `lr_sim_core::EnergyModel`).

use lr_sim_core::{CoreId, Cycle, SystemConfig};

/// Coherence message class, which determines the flit count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MsgClass {
    /// Data-less message: requests, invalidations, acks (1 flit).
    Control,
    /// Data-carrying message: line fills, writebacks (header + 64 B).
    Data,
}

/// A multi-socket topology: one 2-D XY-routed mesh per socket, sockets
/// connected by point-to-point links between gateway tiles.
#[derive(Debug, Clone)]
pub struct Mesh {
    /// Per-socket mesh width.
    width: usize,
    tiles: usize,
    sockets: usize,
    /// Tiles per socket.
    tps: usize,
    hop_latency: Cycle,
    socket_link_latency: Cycle,
    control_flits: u32,
    data_flits: u32,
}

impl Mesh {
    /// Build the topology for `config.num_cores` tiles spread over
    /// `config.sockets` sockets. Each socket's mesh is as close to square
    /// as possible (64 tiles/socket ⇒ 8×8).
    pub fn new(config: &SystemConfig) -> Self {
        let tiles = config.num_cores;
        assert!(tiles > 0);
        let sockets = config.sockets;
        let tps = config.tiles_per_socket();
        let width = (tps as f64).sqrt().ceil() as usize;
        Mesh {
            width,
            tiles,
            sockets,
            tps,
            hop_latency: config.mesh_hop_latency,
            socket_link_latency: config.socket_link_latency,
            control_flits: config.control_flits,
            data_flits: config.data_flits,
        }
    }

    /// Number of sockets.
    pub fn sockets(&self) -> usize {
        self.sockets
    }

    /// Tiles per socket.
    pub fn tiles_per_socket(&self) -> usize {
        self.tps
    }

    /// Socket housing a tile (socket-major numbering).
    pub fn socket_of(&self, t: CoreId) -> usize {
        let i = t.idx();
        assert!(i < self.tiles, "tile {t} out of range");
        i / self.tps
    }

    /// Whether a message between two tiles crosses an inter-socket link.
    pub fn cross_socket(&self, a: CoreId, b: CoreId) -> bool {
        self.socket_of(a) != self.socket_of(b)
    }

    /// Local `(x, y)` coordinates of a tile within its socket's mesh.
    fn coords(&self, t: CoreId) -> (usize, usize) {
        let i = t.idx();
        assert!(i < self.tiles, "tile {t} out of range");
        let local = i % self.tps;
        (local % self.width, local / self.width)
    }

    /// Local Manhattan distance between two tiles of the *same* socket.
    fn local_dist(&self, a: CoreId, b: CoreId) -> u64 {
        let (ax, ay) = self.coords(a);
        let (bx, by) = self.coords(b);
        (ax.abs_diff(bx) + ay.abs_diff(by)) as u64
    }

    /// Gateway tile of a socket: local tile 0, where the inter-socket
    /// link attaches.
    fn gateway(&self, socket: usize) -> CoreId {
        CoreId((socket * self.tps) as u16)
    }

    /// Mesh hop count traversed by a message (0 when equal). For a
    /// cross-socket message this counts the mesh hops at both ends —
    /// source tile to source gateway plus destination gateway to
    /// destination tile; the link traversal itself is not a mesh hop.
    pub fn hops(&self, a: CoreId, b: CoreId) -> u64 {
        let (sa, sb) = (self.socket_of(a), self.socket_of(b));
        if sa == sb {
            self.local_dist(a, b)
        } else {
            self.local_dist(a, self.gateway(sa)) + self.local_dist(self.gateway(sb), b)
        }
    }

    /// Inter-socket link traversals of one message: 0 within a socket,
    /// 1 across (gateway links are point-to-point between all pairs).
    pub fn socket_crossings(&self, a: CoreId, b: CoreId) -> u64 {
        if self.cross_socket(a, b) {
            1
        } else {
            0
        }
    }

    fn flits(&self, class: MsgClass) -> u32 {
        match class {
            MsgClass::Control => self.control_flits,
            MsgClass::Data => self.data_flits,
        }
    }

    /// Latency of one message. Same-tile messages (core to its local L2
    /// slice) cost a single cycle.
    pub fn latency(&self, from: CoreId, to: CoreId, class: MsgClass) -> Cycle {
        if from == to {
            return 1;
        }
        let link = self.socket_crossings(from, to) * self.socket_link_latency;
        self.hops(from, to) * self.hop_latency + link + (self.flits(class) as Cycle - 1)
    }

    /// Mesh flit-hops consumed by one message (the on-die energy-model
    /// quantity; inter-socket link flits are counted separately by
    /// [`socket_flit_hops`](Self::socket_flit_hops)).
    pub fn flit_hops(&self, from: CoreId, to: CoreId, class: MsgClass) -> u64 {
        self.hops(from, to) * self.flits(class) as u64
    }

    /// Inter-socket link flits consumed by one message (the off-package
    /// energy-model quantity): `flits` per link crossing.
    pub fn socket_flit_hops(&self, from: CoreId, to: CoreId, class: MsgClass) -> u64 {
        self.socket_crossings(from, to) * self.flits(class) as u64
    }

    /// Worst-case message latency across the machine (used for the
    /// Proposition 2 delay-bound checks in tests).
    pub fn max_latency(&self, class: MsgClass) -> Cycle {
        let height = self.tps.div_ceil(self.width);
        let max_local = (self.width - 1 + height - 1) as u64;
        let max_hops = if self.sockets > 1 {
            2 * max_local
        } else {
            max_local
        };
        let link = if self.sockets > 1 {
            self.socket_link_latency
        } else {
            0
        };
        max_hops * self.hop_latency + link + (self.flits(class) as Cycle - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mesh(n: usize) -> Mesh {
        Mesh::new(&SystemConfig::with_cores(n))
    }

    fn numa(n: usize, sockets: usize) -> Mesh {
        let mut cfg = SystemConfig::with_cores(n);
        cfg.sockets = sockets;
        Mesh::new(&cfg)
    }

    #[test]
    fn square_mesh_dimensions() {
        let m = mesh(64);
        assert_eq!(m.width, 8);
        // Opposite corners of an 8x8 mesh: 14 hops.
        assert_eq!(m.hops(CoreId(0), CoreId(63)), 14);
    }

    #[test]
    fn hops_are_symmetric_and_zero_on_self() {
        let m = mesh(16);
        for a in 0..16u16 {
            assert_eq!(m.hops(CoreId(a), CoreId(a)), 0);
            for b in 0..16u16 {
                assert_eq!(m.hops(CoreId(a), CoreId(b)), m.hops(CoreId(b), CoreId(a)));
            }
        }
    }

    #[test]
    fn neighbours_are_one_hop() {
        let m = mesh(16); // 4x4
        assert_eq!(m.hops(CoreId(0), CoreId(1)), 1);
        assert_eq!(m.hops(CoreId(0), CoreId(4)), 1);
        assert_eq!(m.hops(CoreId(5), CoreId(6)), 1);
    }

    #[test]
    fn latency_model() {
        let m = mesh(64);
        // Same tile: 1 cycle regardless of class.
        assert_eq!(m.latency(CoreId(3), CoreId(3), MsgClass::Data), 1);
        // One hop control: hop latency (2) + 0 serialization.
        assert_eq!(m.latency(CoreId(0), CoreId(1), MsgClass::Control), 2);
        // One hop data: 2 + (9 - 1) = 10.
        assert_eq!(m.latency(CoreId(0), CoreId(1), MsgClass::Data), 10);
    }

    #[test]
    fn flit_hops_scale_with_distance_and_size() {
        let m = mesh(64);
        assert_eq!(m.flit_hops(CoreId(0), CoreId(1), MsgClass::Control), 1);
        assert_eq!(m.flit_hops(CoreId(0), CoreId(1), MsgClass::Data), 9);
        assert_eq!(m.flit_hops(CoreId(0), CoreId(63), MsgClass::Data), 14 * 9);
        assert_eq!(m.flit_hops(CoreId(5), CoreId(5), MsgClass::Data), 0);
    }

    #[test]
    fn max_latency_bounds_all_pairs() {
        for n in [2usize, 4, 8, 16, 32, 64] {
            let m = mesh(n);
            let bound = m.max_latency(MsgClass::Data);
            for a in 0..n as u16 {
                for b in 0..n as u16 {
                    assert!(m.latency(CoreId(a), CoreId(b), MsgClass::Data) <= bound);
                }
            }
        }
    }

    #[test]
    fn non_square_core_counts_work() {
        let m = mesh(2);
        assert_eq!(m.hops(CoreId(0), CoreId(1)), 1);
        let m = mesh(8); // 3-wide, 3 rows (last partial)
        assert_eq!(m.hops(CoreId(0), CoreId(7)), 3);
    }

    /// sockets=1 must be *the* flat mesh: every quantity the coherence
    /// engine reads agrees with an independently constructed flat model
    /// for every pair and class.
    #[test]
    fn single_socket_degenerates_to_flat_mesh() {
        for n in [2usize, 8, 16, 64] {
            let flat = mesh(n);
            let s1 = numa(n, 1);
            assert_eq!(s1.sockets(), 1);
            for a in 0..n as u16 {
                for b in 0..n as u16 {
                    let (a, b) = (CoreId(a), CoreId(b));
                    assert_eq!(s1.hops(a, b), flat.hops(a, b));
                    assert_eq!(s1.socket_crossings(a, b), 0);
                    for class in [MsgClass::Control, MsgClass::Data] {
                        assert_eq!(s1.latency(a, b, class), flat.latency(a, b, class));
                        assert_eq!(s1.flit_hops(a, b, class), flat.flit_hops(a, b, class));
                        assert_eq!(s1.socket_flit_hops(a, b, class), 0);
                    }
                }
            }
        }
    }

    #[test]
    fn socket_partitioning_is_socket_major() {
        let m = numa(16, 4); // 4 sockets × 2x2 mesh
        assert_eq!(m.tiles_per_socket(), 4);
        for t in 0..16u16 {
            assert_eq!(m.socket_of(CoreId(t)), (t / 4) as usize);
        }
        assert!(!m.cross_socket(CoreId(0), CoreId(3)));
        assert!(m.cross_socket(CoreId(3), CoreId(4)));
    }

    #[test]
    fn cross_socket_message_pays_link_latency_and_energy() {
        let m = numa(8, 2); // 2 sockets × 2x2 mesh; link latency 40
                            // Gateway to gateway: no mesh hops, one link.
        assert_eq!(m.hops(CoreId(0), CoreId(4)), 0);
        assert_eq!(m.latency(CoreId(0), CoreId(4), MsgClass::Control), 40);
        assert_eq!(m.latency(CoreId(0), CoreId(4), MsgClass::Data), 48);
        assert_eq!(m.socket_flit_hops(CoreId(0), CoreId(4), MsgClass::Data), 9);
        assert_eq!(m.flit_hops(CoreId(0), CoreId(4), MsgClass::Data), 0);
        // Corner to corner: 2 mesh hops out + 2 mesh hops in + link.
        assert_eq!(m.hops(CoreId(3), CoreId(7)), 4);
        assert_eq!(
            m.latency(CoreId(3), CoreId(7), MsgClass::Control),
            4 * 2 + 40
        );
        // Intra-socket messages pay no link energy.
        assert_eq!(m.socket_flit_hops(CoreId(0), CoreId(3), MsgClass::Data), 0);
    }

    /// Per-hop latency/energy accounting matches a shortest-path oracle
    /// over the explicit link graph (mesh edges weight `hop_latency`,
    /// gateway-gateway edges weight `socket_link_latency`), across socket
    /// boundaries included.
    #[test]
    fn latency_matches_shortest_path_oracle() {
        for (n, sockets) in [(8usize, 2usize), (16, 4), (18, 2), (12, 3), (64, 4)] {
            let m = numa(n, sockets);
            let tps = n / sockets;
            let width = (tps as f64).sqrt().ceil() as usize;
            // Dijkstra over the explicit weighted graph.
            let mut adj: Vec<Vec<(usize, Cycle)>> = vec![Vec::new(); n];
            for t in 0..n {
                let (s, local) = (t / tps, t % tps);
                let x = local % width;
                let mut link = |a: usize, b: usize, w: Cycle| {
                    adj[a].push((b, w));
                    adj[b].push((a, w));
                };
                if x + 1 < width && local + 1 < tps {
                    link(t, t + 1, m.hop_latency);
                }
                if local + width < tps {
                    link(t, t + width, m.hop_latency);
                }
                // Gateways: full point-to-point graph between sockets.
                if local == 0 {
                    for s2 in 0..s {
                        link(t, s2 * tps, m.socket_link_latency);
                    }
                }
            }
            for src in 0..n {
                let mut dist = vec![Cycle::MAX; n];
                dist[src] = 0;
                let mut heap = std::collections::BinaryHeap::new();
                heap.push(std::cmp::Reverse((0u64, src)));
                while let Some(std::cmp::Reverse((d, u))) = heap.pop() {
                    if d > dist[u] {
                        continue;
                    }
                    for &(v, w) in &adj[u] {
                        if d + w < dist[v] {
                            dist[v] = d + w;
                            heap.push(std::cmp::Reverse((dist[v], v)));
                        }
                    }
                }
                for (dst, &best) in dist.iter().enumerate() {
                    if src == dst {
                        continue;
                    }
                    for class in [MsgClass::Control, MsgClass::Data] {
                        let ser = match class {
                            MsgClass::Control => m.control_flits,
                            MsgClass::Data => m.data_flits,
                        } as Cycle
                            - 1;
                        assert_eq!(
                            m.latency(CoreId(src as u16), CoreId(dst as u16), class),
                            best + ser,
                            "n={n} sockets={sockets} {src}->{dst}"
                        );
                        // Energy decomposition: mesh flit-hops count every
                        // hop_latency edge, socket flit-hops every link edge.
                        let flits = match class {
                            MsgClass::Control => m.control_flits,
                            MsgClass::Data => m.data_flits,
                        } as u64;
                        let (a, b) = (CoreId(src as u16), CoreId(dst as u16));
                        assert_eq!(
                            m.flit_hops(a, b, class) + m.socket_flit_hops(a, b, class),
                            (m.hops(a, b) + m.socket_crossings(a, b)) * flits
                        );
                    }
                }
            }
        }
    }
}
