//! A functional GRAPE-6 *node*: one host port, one network-board tree, four
//! processor boards (paper §5.2, Fig 7) — with data moving as byte packets
//! over the simulated links, exactly as the host driver saw it.
//!
//! Unlike [`crate::engine::Grape6Engine`] (which shortcuts the topology for
//! speed, justified by the exactly-associative reduction), this module
//! routes every i-particle broadcast, j write-back and force readout through
//! the wire protocol and the board structure, and accounts the bytes moved.
//! Integration tests use it to prove the shortcut engine is bit-identical to
//! the fully-routed machine.

use crate::board::{BoardGeometry, ProcessorBoard};
use crate::chip::HwIParticle;
use crate::format::{FixedPointFormat, Precision};
use crate::network::{NetworkBoardGeometry, NetworkTree};
use crate::pipeline::PipelineRegisters;
use crate::predictor::JParticle;
use crate::wire;
use bytes::{Bytes, BytesMut};
use grape6_core::particle::ForceResult;

/// Byte-transfer statistics of a node (what crossed which wire).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NodeTraffic {
    /// Bytes broadcast down the NB tree (i-particles).
    pub i_bytes: u64,
    /// Bytes written back into j-memories.
    pub j_bytes: u64,
    /// Bytes read back up the reduction tree (forces).
    pub f_bytes: u64,
}

/// One node: 4 processor boards behind a network-board tree.
#[derive(Debug, Clone)]
pub struct Grape6Node {
    /// Per-board functional models.
    boards: Vec<ProcessorBoard>,
    /// The NB tree spanning them.
    pub tree: NetworkTree,
    /// j index → (board, local index) routing.
    routes: Vec<(usize, usize)>,
    /// Boards taken out of service by [`Self::fail_board`].
    failed: Vec<bool>,
    traffic: NodeTraffic,
    eps2: f64,
}

impl Grape6Node {
    /// A node with `n_boards` boards of the given geometry.
    pub fn new(
        n_boards: usize,
        board: BoardGeometry,
        format: FixedPointFormat,
        precision: Precision,
    ) -> Self {
        assert!(n_boards >= 1);
        Self {
            boards: (0..n_boards).map(|_| ProcessorBoard::new(board, format, precision)).collect(),
            tree: NetworkTree::spanning(n_boards, NetworkBoardGeometry::default()),
            routes: Vec::new(),
            failed: vec![false; n_boards],
            traffic: NodeTraffic::default(),
            eps2: 0.0,
        }
    }

    /// The production node: 4 boards × 32 chips.
    pub fn production(precision: Precision) -> Self {
        Self::new(4, BoardGeometry::default(), FixedPointFormat::default(), precision)
    }

    /// Bytes moved so far.
    pub fn traffic(&self) -> NodeTraffic {
        self.traffic
    }

    /// Number of resident j-particles.
    pub fn n_j(&self) -> usize {
        self.routes.len()
    }

    /// j-particle capacity of the boards still in service.
    pub fn capacity(&self) -> usize {
        self.boards
            .iter()
            .zip(&self.failed)
            .filter(|(_, dead)| !**dead)
            .map(|(b, _)| b.geometry.jmem_capacity())
            .sum()
    }

    /// Set the softening used by subsequent force calls.
    pub fn set_softening(&mut self, eps: f64) {
        assert!(eps > 0.0);
        self.eps2 = eps * eps;
    }

    /// Deal `particles` over the boards in service in contiguous blocks (the
    /// DMA order of the real hardware), rebuilding the routing table; boards
    /// out of service end up empty.
    fn distribute(&mut self, particles: &[JParticle]) -> Result<(), crate::chip::ChipError> {
        let capacity = self.capacity();
        if particles.len() > capacity {
            return Err(crate::chip::ChipError::MemoryOverflow {
                requested: particles.len(),
                capacity,
            });
        }
        self.routes.clear();
        let per_board = particles.len().div_ceil(self.live_boards()).max(1);
        let mut chunks = particles.chunks(per_board);
        for (b, board) in self.boards.iter_mut().enumerate() {
            let chunk = if self.failed[b] { &[] } else { chunks.next().unwrap_or(&[]) };
            board.load_j(chunk)?;
            self.routes.extend((0..chunk.len()).map(|s| (b, s)));
        }
        Ok(())
    }

    /// Load a j-particle set, distributing it over the boards. The data
    /// arrives as a wire-encoded stream, as it would over the host port.
    pub fn load_j_stream(&mut self, stream: Bytes) -> Result<(), crate::chip::ChipError> {
        self.traffic.j_bytes += stream.len() as u64;
        self.distribute(&wire::decode_j_block(stream))
    }

    /// Convenience: encode + load.
    pub fn load_j(&mut self, particles: &[JParticle]) -> Result<(), crate::chip::ChipError> {
        self.load_j_stream(wire::encode_j_block(particles))
    }

    /// Read back one j-particle by global index (diagnostic port).
    pub fn peek_j(&self, index: usize) -> Option<&JParticle> {
        let &(board, slot) = self.routes.get(index)?;
        self.boards[board].peek_j(slot)
    }

    /// Boards still in service.
    pub fn live_boards(&self) -> usize {
        self.failed.iter().filter(|f| !**f).count()
    }

    /// Kill a processor board: take it out of service and redistribute its
    /// resident j-particles over the survivors (the migrated share is
    /// re-DMA'd over the wire and charged to `j_bytes`). Returns the number
    /// of particles migrated. Refuses to kill the last live board or to
    /// overflow the survivors' capacity.
    pub fn fail_board(&mut self, board: usize) -> Result<usize, crate::chip::ChipError> {
        if board >= self.boards.len() {
            return Err(crate::chip::ChipError::BadSlot { slot: board, len: self.boards.len() });
        }
        if self.failed[board] {
            return Ok(0);
        }
        if self.live_boards() == 1 {
            // Nothing left to repartition onto.
            return Err(crate::chip::ChipError::MemoryOverflow {
                requested: self.n_j(),
                capacity: 0,
            });
        }
        let migrated = self.routes.iter().filter(|&&(b, _)| b == board).count();
        // Gather the resident set in global order (still readable — the
        // board died, its last-known memory image is the host's copy).
        let particles: Vec<JParticle> =
            (0..self.routes.len()).map(|k| *self.peek_j(k).expect("routed j missing")).collect();
        self.failed[board] = true;
        if let Err(overflow) = self.distribute(&particles) {
            self.failed[board] = false;
            return Err(overflow);
        }
        self.traffic.j_bytes += (migrated * wire::J_PACKET_BYTES) as u64;
        Ok(migrated)
    }

    /// Write back one updated j-particle by global index (over the wire).
    pub fn store_j(
        &mut self,
        index: usize,
        particle: &JParticle,
    ) -> Result<(), crate::chip::ChipError> {
        let mut buf = BytesMut::new();
        wire::encode_j_particle(&mut buf, particle);
        self.traffic.j_bytes += buf.len() as u64;
        let decoded = wire::decode_j_particle(&mut buf.freeze());
        let &(board, slot) = self
            .routes
            .get(index)
            .ok_or(crate::chip::ChipError::BadSlot { slot: index, len: self.routes.len() })?;
        self.boards[board].store_j(slot, decoded)
    }

    /// Full force call through the node: i-particles are wire-encoded,
    /// broadcast to every board, computed against each board's j-slice, and
    /// the partial registers reduced on the way back up. Handles arbitrarily
    /// large i-sets by chip-load chunks (as the host driver does).
    pub fn compute(&mut self, t: f64, ips: &[(HwIParticle, u32)]) -> Vec<ForceResult> {
        assert!(self.eps2 > 0.0, "call set_softening first");
        let chip_load = self.boards[0].geometry.chip.i_parallel();
        let mut results = Vec::with_capacity(ips.len());
        for chunk in ips.chunks(chip_load) {
            // Broadcast the i-chunk down the tree.
            let mut buf = BytesMut::new();
            for (ip, id) in chunk {
                wire::encode_i_particle(&mut buf, ip, *id);
            }
            self.traffic.i_bytes += buf.len() as u64;
            let mut stream = buf.freeze();
            let mut decoded = Vec::with_capacity(chunk.len());
            while !stream.is_empty() {
                let (ip, _) = wire::decode_i_particle(&mut stream);
                decoded.push(ip);
            }
            // Every board computes on its j-slice; the NB reduction units
            // merge the register streams.
            let mut total = vec![PipelineRegisters::new(); decoded.len()];
            for board in &mut self.boards {
                if board.n_j() == 0 {
                    continue;
                }
                let partial = board.compute(t, &decoded, self.eps2);
                for (tot, part) in total.iter_mut().zip(&partial) {
                    tot.merge(part);
                }
            }
            // Read the forces back up the tree.
            for regs in &total {
                let (acc, jerk, pot) = regs.read();
                let mut fbuf = BytesMut::new();
                let f = ForceResult { acc, jerk, pot, nn: None };
                wire::encode_force(&mut fbuf, &f);
                self.traffic.f_bytes += fbuf.len() as u64;
                results.push(wire::decode_force(&mut fbuf.freeze()));
            }
        }
        results
    }

    /// Cycles consumed by the busiest board so far.
    pub fn cycles(&self) -> u64 {
        self.boards.iter().map(|b| b.cycles()).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grape6_core::vec3::Vec3;

    fn small_node() -> Grape6Node {
        let board = BoardGeometry {
            chips: 2,
            chip: crate::chip::ChipGeometry { jmem_capacity: 16, ..Default::default() },
        };
        let mut node = Grape6Node::new(2, board, FixedPointFormat::default(), Precision::Exact);
        node.set_softening(0.01);
        node
    }

    fn j_at(x: f64, m: f64) -> JParticle {
        JParticle::encode(
            &FixedPointFormat::default(),
            Precision::Exact,
            Vec3::new(x, 0.0, 0.0),
            Vec3::zero(),
            Vec3::zero(),
            Vec3::zero(),
            m,
            0.0,
        )
    }

    #[test]
    fn node_distributes_j_over_boards() {
        let mut node = small_node();
        let js: Vec<JParticle> = (1..=10).map(|k| j_at(k as f64, 1e-6)).collect();
        node.load_j(&js).unwrap();
        assert_eq!(node.n_j(), 10);
        assert_eq!(node.traffic().j_bytes, 10 * wire::J_PACKET_BYTES as u64);
    }

    #[test]
    fn node_capacity_enforced() {
        let mut node = small_node();
        let js: Vec<JParticle> = (0..65).map(|k| j_at(k as f64, 1e-6)).collect();
        assert!(node.load_j(&js).is_err());
    }

    #[test]
    fn node_force_matches_direct_sum() {
        let mut node = small_node();
        let js: Vec<JParticle> = (1..=10).map(|k| j_at(k as f64, 1.0)).collect();
        node.load_j(&js).unwrap();
        let ip = HwIParticle::encode(
            &FixedPointFormat::default(),
            Precision::Exact,
            Vec3::zero(),
            Vec3::zero(),
        );
        let out = node.compute(0.0, &[(ip, 0)]);
        let eps2 = 0.0001;
        let expect: f64 = (1..=10)
            .map(|k| {
                let r2 = (k * k) as f64 + eps2;
                k as f64 / (r2 * r2.sqrt())
            })
            .sum();
        assert!((out[0].acc.x - expect).abs() < 1e-10, "{} vs {expect}", out[0].acc.x);
        assert_eq!(node.traffic().i_bytes, wire::I_PACKET_BYTES as u64);
        assert_eq!(node.traffic().f_bytes, wire::F_PACKET_BYTES as u64);
    }

    #[test]
    fn node_handles_multi_chunk_i_sets() {
        let mut node = small_node();
        node.load_j(&[j_at(5.0, 1.0)]).unwrap();
        let fmt = FixedPointFormat::default();
        // 100 i-particles > 48 per chip-load → 3 chunks.
        let ips: Vec<(HwIParticle, u32)> = (0..100)
            .map(|k| {
                (
                    HwIParticle::encode(
                        &fmt,
                        Precision::Exact,
                        Vec3::new(k as f64 * 0.01, 0.0, 0.0),
                        Vec3::zero(),
                    ),
                    k,
                )
            })
            .collect();
        let out = node.compute(0.0, &ips);
        assert_eq!(out.len(), 100);
        // Forces all point toward the j source at x = 5.
        for f in &out {
            assert!(f.acc.x > 0.0);
        }
    }

    #[test]
    fn node_writeback_via_wire() {
        let mut node = small_node();
        let js: Vec<JParticle> = (1..=4).map(|k| j_at(k as f64, 1.0)).collect();
        node.load_j(&js).unwrap();
        node.store_j(3, &j_at(100.0, 1.0)).unwrap();
        let ip = HwIParticle::encode(
            &FixedPointFormat::default(),
            Precision::Exact,
            Vec3::zero(),
            Vec3::zero(),
        );
        let out = node.compute(0.0, &[(ip, 0)]);
        // particle 4 moved from x=4 to x=100.
        let eps2 = 0.0001;
        let term = |x: f64| x / (x * x + eps2).powf(1.5);
        let expect = term(1.0) + term(2.0) + term(3.0) + term(100.0);
        assert!((out[0].acc.x - expect).abs() < 1e-10);
        assert!(node.store_j(4, &j_at(0.0, 1.0)).is_err());
    }

    #[test]
    fn failed_board_repartitions_without_changing_forces() {
        let mut node = small_node();
        let js: Vec<JParticle> = (1..=10).map(|k| j_at(k as f64, 1.0)).collect();
        node.load_j(&js).unwrap();
        let ip = HwIParticle::encode(
            &FixedPointFormat::default(),
            Precision::Exact,
            Vec3::zero(),
            Vec3::zero(),
        );
        let before = node.compute(0.0, &[(ip, 0)]);
        let j_bytes_before = node.traffic().j_bytes;
        // Kill board 0 (held the first 5 particles): they migrate to board 1.
        let migrated = node.fail_board(0).unwrap();
        assert_eq!(migrated, 5);
        assert_eq!(node.live_boards(), 1);
        assert_eq!(node.capacity(), 32);
        assert_eq!(node.n_j(), 10);
        assert_eq!(
            node.traffic().j_bytes,
            j_bytes_before + 5 * wire::J_PACKET_BYTES as u64,
            "the migrated share crosses the wire again"
        );
        // Same forces, bit for bit, from the surviving board.
        let after = node.compute(0.0, &[(ip, 0)]);
        assert_eq!(before[0].acc, after[0].acc);
        assert_eq!(before[0].jerk, after[0].jerk);
        assert_eq!(before[0].pot, after[0].pot);
        // Killing the same board again is a no-op; killing the last live
        // board is refused.
        assert_eq!(node.fail_board(0).unwrap(), 0);
        assert!(node.fail_board(1).is_err());
        assert!(node.fail_board(9).is_err());
        // A reload on the degraded node routes around the dead board.
        node.load_j(&js).unwrap();
        assert_eq!(node.n_j(), 10);
        let reloaded = node.compute(0.0, &[(ip, 0)]);
        assert_eq!(before[0].acc, reloaded[0].acc);
    }

    #[test]
    fn production_node_holds_a_quarter_million_particles() {
        let node = Grape6Node::production(Precision::grape6());
        assert_eq!(node.capacity(), 4 * 32 * 16384);
        assert_eq!(node.tree.levels(), 1);
    }
}
