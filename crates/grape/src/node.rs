//! A functional GRAPE-6 *node*: one host port, one network-board tree, four
//! processor boards (paper §5.2, Fig 7) — with data moving as byte packets
//! over the simulated links, exactly as the host driver saw it.
//!
//! Unlike [`crate::engine::Grape6Engine`] (which shortcuts the topology for
//! speed, justified by the exactly-associative reduction), this module
//! routes every i-particle broadcast, j write-back and force readout through
//! the wire protocol and the board structure. Integration tests use it to
//! prove the shortcut engine is bit-identical to the fully-routed machine.
//! It keeps no books: bytes are counted by `Grape6Engine::bytes_transferred`
//! and time by [`crate::timing::TimingModel`].

use crate::board::{locate, per_unit, BoardGeometry, ProcessorBoard};
use crate::chip::HwIParticle;
use crate::format::{FixedPointFormat, Precision};
use crate::pipeline::PipelineRegisters;
use crate::predictor::JParticle;
use crate::wire;
use bytes::{Bytes, BytesMut};
use grape6_core::particle::ForceResult;

/// One node: 4 processor boards behind a network-board tree.
#[derive(Debug, Clone)]
pub struct Grape6Node {
    /// Per-board functional models.
    boards: Vec<ProcessorBoard>,
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
            eps2: 0.0,
        }
    }

    /// The production node: 4 boards × 32 chips.
    pub fn production(precision: Precision) -> Self {
        Self::new(4, BoardGeometry::default(), FixedPointFormat::default(), precision)
    }

    /// Number of resident j-particles.
    pub fn n_j(&self) -> usize {
        self.boards.iter().map(ProcessorBoard::n_j).sum()
    }

    /// j-particle capacity of all boards together.
    pub fn capacity(&self) -> usize {
        self.boards.iter().map(|b| b.geometry.jmem_capacity()).sum()
    }

    /// Set the softening used by subsequent force calls.
    pub fn set_softening(&mut self, eps: f64) {
        assert!(eps > 0.0);
        self.eps2 = eps * eps;
    }

    /// Load a j-particle set, dealing it over the boards in contiguous
    /// blocks of `ceil(n / boards)` (the DMA order of the real hardware), so
    /// global index `i` sits on board `i / per`, local index `i % per`. The
    /// data arrives as a wire-encoded stream, as it would over the host
    /// port.
    pub fn load_j_stream(&mut self, stream: Bytes) -> Result<(), crate::chip::ChipError> {
        let particles = wire::decode_j_block(stream);
        let capacity = self.capacity();
        if particles.len() > capacity {
            return Err(crate::chip::ChipError::MemoryOverflow {
                requested: particles.len(),
                capacity,
            });
        }
        let mut chunks = particles.chunks(per_unit(particles.len(), self.boards.len()));
        for board in &mut self.boards {
            board.load_j(chunks.next().unwrap_or(&[]))?;
        }
        Ok(())
    }

    /// Convenience: encode + load.
    pub fn load_j(&mut self, particles: &[JParticle]) -> Result<(), crate::chip::ChipError> {
        self.load_j_stream(wire::encode_j_block(particles))
    }

    /// Write back one updated j-particle by global index; it arrives as a
    /// wire packet ([`wire::encode_j_particle`]), as over the host port or
    /// the network boards' data-in port.
    pub fn store_j(
        &mut self,
        index: usize,
        mut packet: Bytes,
    ) -> Result<(), crate::chip::ChipError> {
        let (board, local) = locate(index, self.n_j(), self.boards.len())?;
        self.boards[board].store_j(local, wire::decode_j_particle(&mut packet))
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
                results.push(wire::decode_force(&mut fbuf.freeze()));
            }
        }
        results
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
        assert_eq!([node.boards[0].n_j(), node.boards[1].n_j()], [5, 5]);
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

    fn packet(j: &JParticle) -> Bytes {
        let mut buf = BytesMut::new();
        wire::encode_j_particle(&mut buf, j);
        buf.freeze()
    }

    #[test]
    fn node_writeback_via_wire() {
        let mut node = small_node();
        let js: Vec<JParticle> = (1..=4).map(|k| j_at(k as f64, 1.0)).collect();
        node.load_j(&js).unwrap();
        node.store_j(3, packet(&j_at(100.0, 1.0))).unwrap();
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
        assert!(node.store_j(4, packet(&j_at(0.0, 1.0))).is_err());
    }

    #[test]
    fn production_node_holds_a_quarter_million_particles() {
        let node = Grape6Node::production(Precision::grape6());
        assert_eq!(node.capacity(), 4 * 32 * 16384);
    }
}
