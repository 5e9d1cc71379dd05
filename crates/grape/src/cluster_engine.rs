//! [`ClusterEngine`]: the fully-routed GRAPE-6 — one wire-fed j-memory per
//! host, swept chip slice by chip slice and summed up the reduction tree —
//! as a [`grape6_core::engine::ForceEngine`].
//!
//! A node (paper §5.2, Figs 7–9) is a host port, a network-board tree and
//! four processor boards of 32 chips. Its j-memory is dealt over the boards,
//! and each board's share over its chips, in contiguous blocks of
//! `ceil(n / children)` (the DMA order of the hardware). Each chip sweeps
//! its slice with the predictor and force pipelines; the board sums its
//! chips' partial registers and the node its boards'. Every i-particle, j
//! write-back and force readout crosses the byte-level wire protocol
//! ([`crate::wire`]).
//!
//! The hosts exchange no particle data (paper §4.3): every host's j-memory
//! is a mirror fed by the network boards. Here that holds by construction.
//! `load` wire-encodes the j-stream once and decodes it into every mirror;
//! `update_j` wire-encodes each corrected particle once and decodes that
//! packet into every mirror (the owner's host port plus the NB mirror into
//! every other node's data-in port). There is no host-to-host path. Force
//! calls partition the active i-block across the hosts in contiguous
//! chunks, each computed against its host's mirror.
//!
//! With `hosts = 1` this is the fully-routed single node (GRAPE-6A's
//! single-card unit is the degenerate member of the cluster): one i-chunk,
//! and every packet still crosses the wire protocol and the board structure
//! of one node.
//!
//! Because the j-memories are mirrored and the fixed-point reduction is
//! exactly associative, the forces are **bit-identical** to
//! [`crate::engine::Grape6Engine`] with the same format and precision — the
//! conformance harness pins this down across thousands of fuzzed scenarios,
//! and `tests/routed_vs_flat.rs` through whole integrations at 1 and 4 hosts.
//! The engine keeps no books beyond its interaction count: bytes are counted
//! by `Grape6Engine::bytes_transferred` and time by
//! [`crate::timing::TimingModel`].

use crate::board::BoardGeometry;
use crate::chip::HwIParticle;
use crate::format::{FixedPointFormat, Precision};
use crate::pipeline::PipelineRegisters;
use crate::predictor::{predict_j, JParticle};
use crate::timing::MachineGeometry;
use crate::wire;
use bytes::BytesMut;
use grape6_core::engine::ForceEngine;
use grape6_core::particle::{ForceResult, IParticle, ParticleSystem};

/// The fully-routed GRAPE-6 machine as a force engine: production nodes
/// (4 boards × 32 chips) with hardware arithmetic, one per host.
pub struct ClusterEngine {
    /// One j-memory per host, each decoded from the same wire bytes.
    mirrors: Vec<Vec<JParticle>>,
    /// Processor boards per node.
    boards: usize,
    /// Geometry of each board (chips per board, chip i-parallelism).
    board: BoardGeometry,
    format: FixedPointFormat,
    precision: Precision,
    /// Masses as resident in hardware (host-side self-potential correction).
    jmass: Vec<f64>,
    eps: f64,
    interactions: u64,
}

impl ClusterEngine {
    /// `hosts` production nodes (the softening arrives with the particle
    /// system at `load`).
    fn new(hosts: usize) -> Self {
        let node = MachineGeometry::sc2002();
        Self {
            mirrors: vec![Vec::new(); hosts],
            boards: node.boards_per_host,
            board: node.board,
            format: FixedPointFormat::default(),
            precision: Precision::grape6(),
            jmass: Vec::new(),
            eps: 0.0,
            interactions: 0,
        }
    }

    /// The production cluster: 4 hosts, each with a 4-board node (paper
    /// Fig 7).
    pub fn production() -> Self {
        Self::new(4)
    }

    /// One production node behind one host: the fully-routed data path
    /// with nothing to mirror.
    pub fn single_node() -> Self {
        Self::new(1)
    }

    /// Number of hosts in the cluster.
    pub fn hosts(&self) -> usize {
        self.mirrors.len()
    }

    /// j-particle capacity of one node: its boards' SSRAM together.
    fn capacity(&self) -> usize {
        self.boards * self.board.jmem_capacity()
    }

    /// One chip's sweep (paper Fig 9): every j-particle of its slice through
    /// the predictor pipeline, then through the force pipeline of every
    /// i-particle.
    fn chip_sweep(
        &self,
        t: f64,
        slice: &[JParticle],
        ips: &[HwIParticle],
    ) -> Vec<PipelineRegisters> {
        let eps2 = self.eps * self.eps;
        let mut regs = vec![PipelineRegisters::new(); ips.len()];
        for j in slice {
            let pj = predict_j(&self.format, self.precision, j, t);
            for (r, ip) in regs.iter_mut().zip(ips) {
                r.accumulate(
                    &self.format,
                    self.precision,
                    ip.qpos,
                    pj.qpos,
                    ip.vel,
                    pj.vel,
                    pj.mass,
                    eps2,
                );
            }
        }
        regs
    }

    /// Forces on one chip-load of i-particles against one host's j-memory:
    /// each board sums its chips' partial registers, the NB tree sums the
    /// boards'.
    fn node_compute(
        &self,
        t: f64,
        jmem: &[JParticle],
        ips: &[HwIParticle],
    ) -> Vec<PipelineRegisters> {
        let mut node = vec![PipelineRegisters::new(); ips.len()];
        for board_slice in deal(jmem, self.boards) {
            let mut board = vec![PipelineRegisters::new(); ips.len()];
            for chip_slice in deal(board_slice, self.board.chips) {
                merge(&mut board, &self.chip_sweep(t, chip_slice, ips));
            }
            merge(&mut node, &board);
        }
        node
    }
}

/// `items` dealt over `units` in contiguous blocks of `ceil(n / units)`,
/// the DMA order of the hardware: the last blocks may be short, and units
/// past the last block get nothing (and no block is empty).
fn deal<T>(items: &[T], units: usize) -> std::slice::Chunks<'_, T> {
    items.chunks(items.len().div_ceil(units).max(1))
}

/// One level of the reduction tree: add `partial` into `total`.
fn merge(total: &mut [PipelineRegisters], partial: &[PipelineRegisters]) {
    for (tot, part) in total.iter_mut().zip(partial) {
        tot.merge(part);
    }
}

impl ForceEngine for ClusterEngine {
    fn load(&mut self, sys: &ParticleSystem) {
        assert!(sys.softening > 0.0, "GRAPE-6 requires positive softening");
        assert!(sys.len() <= self.capacity(), "particle set exceeds node capacity");
        self.eps = sys.softening;
        let js: Vec<JParticle> = (0..sys.len())
            .map(|i| JParticle::from_system(&self.format, self.precision, sys, i))
            .collect();
        self.jmass = js.iter().map(|j| j.mass).collect();
        let stream = wire::encode_j_block(&js);
        for mirror in &mut self.mirrors {
            *mirror = wire::decode_j_block(stream.clone());
        }
    }

    fn update_j(&mut self, sys: &ParticleSystem, indices: &[usize]) {
        for &i in indices {
            let j = JParticle::from_system(&self.format, self.precision, sys, i);
            self.jmass[i] = j.mass;
            let mut buf = BytesMut::new();
            wire::encode_j_particle(&mut buf, &j);
            let packet = buf.freeze();
            for mirror in &mut self.mirrors {
                mirror[i] = wire::decode_j_particle(&mut packet.clone());
            }
        }
    }

    fn compute(&mut self, t: f64, ips: &[IParticle], out: &mut [ForceResult]) {
        assert_eq!(ips.len(), out.len());
        self.interactions += (ips.len() as u64) * (self.jmass.len() as u64);
        let chip_load = self.board.chip.i_parallel();
        // Contiguous partition of the i-block across hosts (the paper's
        // block-cyclic assignment reduced to one block per host per call).
        let chunk = ips.len().div_ceil(self.hosts()).max(1);
        for ((ips_h, out_h), jmem) in
            ips.chunks(chunk).zip(out.chunks_mut(chunk)).zip(&self.mirrors)
        {
            // The host driver ships chip-load chunks down the tree as
            // i-packets and reads the forces back as force packets.
            for (ips_c, out_c) in ips_h.chunks(chip_load).zip(out_h.chunks_mut(chip_load)) {
                let mut buf = BytesMut::new();
                for ip in ips_c {
                    let hw = HwIParticle::encode(&self.format, self.precision, ip.pos, ip.vel);
                    wire::encode_i_particle(&mut buf, &hw, ip.index as u32);
                }
                let mut stream = buf.freeze();
                let decoded: Vec<HwIParticle> =
                    ips_c.iter().map(|_| wire::decode_i_particle(&mut stream).0).collect();
                let regs = self.node_compute(t, jmem, &decoded);
                for ((o, r), ip) in out_c.iter_mut().zip(&regs).zip(ips_c) {
                    let (acc, jerk, pot) = r.read();
                    let mut fbuf = BytesMut::new();
                    wire::encode_force(&mut fbuf, &ForceResult { acc, jerk, pot, nn: None });
                    *o = wire::decode_force(&mut fbuf.freeze());
                    if ip.index < self.jmass.len() {
                        o.pot += self.jmass[ip.index] / self.eps;
                    }
                }
            }
        }
    }

    fn interaction_count(&self) -> u64 {
        self.interactions
    }

    fn reset_counters(&mut self) {
        self.interactions = 0;
    }

    fn name(&self) -> &'static str {
        "grape6-cluster"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Grape6Engine;
    use grape6_core::vec3::Vec3;

    fn disk(n: usize) -> ParticleSystem {
        let mut sys = ParticleSystem::new(0.008, 1.0);
        for k in 0..n {
            let th = k as f64 * 0.61803398875 * std::f64::consts::TAU;
            let r = 15.0 + 20.0 * (k as f64 / n as f64);
            let v = grape6_core::units::circular_speed(r, 1.0);
            sys.push(
                Vec3::new(r * th.cos(), r * th.sin(), 0.02 * th.sin()),
                Vec3::new(-v * th.sin(), v * th.cos(), 0.0),
                1e-9 * (1 + k % 5) as f64,
            );
        }
        sys
    }

    /// Bodies at rest on the x axis: `(x, mass)` each.
    fn on_x_axis(bodies: &[(f64, f64)], softening: f64) -> ParticleSystem {
        let mut sys = ParticleSystem::new(softening, 1.0);
        for &(x, m) in bodies {
            sys.push(Vec3::new(x, 0.0, 0.0), Vec3::zero(), m);
        }
        sys
    }

    fn ips_for(sys: &ParticleSystem, idx: &[usize]) -> Vec<IParticle> {
        idx.iter().map(|&i| IParticle { index: i, pos: sys.pos[i], vel: sys.vel[i] }).collect()
    }

    /// The force at rest point `pos` from everything `cl` holds, as a probe
    /// that is not a resident particle (no self-potential correction).
    fn force_at(cl: &mut ClusterEngine, sys: &ParticleSystem, t: f64, pos: Vec3) -> ForceResult {
        let probe = IParticle { index: sys.len(), pos, vel: Vec3::zero() };
        let mut out = [ForceResult::default()];
        cl.compute(t, &[probe], &mut out);
        out[0]
    }

    /// Within the pipeline's 24-bit words of the f64 value.
    fn assert_close(got: f64, want: f64) {
        assert!((got - want).abs() <= 1e-6 * want.abs(), "{got} vs {want}");
    }

    /// Four copies of one probe that is not a resident particle: a block
    /// the production cluster deals one copy per host.
    fn probe_block(sys: &ParticleSystem) -> Vec<IParticle> {
        let probe =
            IParticle { index: sys.len(), pos: Vec3::new(5.0, 2.0, 0.0), vel: Vec3::zero() };
        vec![probe; 4]
    }

    fn probe_forces(cl: &mut ClusterEngine, sys: &ParticleSystem) -> Vec<ForceResult> {
        let ips = probe_block(sys);
        let mut out = vec![ForceResult::default(); ips.len()];
        cl.compute(0.0, &ips, &mut out);
        out
    }

    fn assert_hosts_agree(fs: &[ForceResult]) {
        for (h, f) in fs.iter().enumerate() {
            assert_eq!(f.acc, fs[0].acc, "host {h}: mirrored memories must give identical bits");
            assert_eq!(f.jerk, fs[0].jerk, "host {h}");
            assert_eq!(f.pot.to_bits(), fs[0].pot.to_bits(), "host {h}");
        }
    }

    #[test]
    fn board_and_chip_slices_cover_every_j_once() {
        let cl = ClusterEngine::single_node();
        let chip_capacity = cl.board.chip.jmem_capacity;
        for n in [0, 1, 127, 128, 129, cl.capacity()] {
            let js: Vec<usize> = (0..n).collect();
            let mut seen = Vec::with_capacity(n);
            let mut boards = 0;
            for board in deal(&js, cl.boards) {
                boards += 1;
                let mut chips = 0;
                for chip in deal(board, cl.board.chips) {
                    chips += 1;
                    assert!(chip.len() <= chip_capacity, "n {n}: chip slice of {}", chip.len());
                    seen.extend_from_slice(chip);
                }
                assert!(chips <= cl.board.chips, "n {n}: {chips} chips on a board");
            }
            assert!(boards <= cl.boards, "n {n}: {boards} boards");
            assert_eq!(seen, js, "n {n}: the slices must cover 0..n once, in order");
        }
    }

    #[test]
    fn production_node_holds_a_quarter_million_particles() {
        for cl in [ClusterEngine::single_node(), ClusterEngine::production()] {
            assert_eq!(cl.capacity(), 4 * 32 * 16384);
        }
    }

    #[test]
    #[should_panic(expected = "particle set exceeds node capacity")]
    fn load_refuses_one_particle_past_node_capacity() {
        // A well-formed system, so only the capacity check can refuse it.
        let mut cl = ClusterEngine::single_node();
        let sys = disk(cl.capacity() + 1);
        cl.load(&sys);
    }

    #[test]
    fn chip_force_matches_analytic_pair() {
        let sys = on_x_axis(&[(1.0, 2.0)], 1e-6);
        let mut cl = ClusterEngine::single_node();
        cl.load(&sys);
        let f = force_at(&mut cl, &sys, 0.0, Vec3::zero());
        assert_close(f.acc.x, 2.0); // m/r² = 2
        assert_close(f.pot, -2.0);
    }

    #[test]
    fn chip_predicts_j_to_block_time() {
        // j-particle moving at v = 1 along x, stored at t0 = 0, at x = 10.
        let mut sys = on_x_axis(&[(10.0, 1.0)], 1e-6);
        sys.vel[0] = Vec3::new(1.0, 0.0, 0.0);
        let mut cl = ClusterEngine::single_node();
        cl.load(&sys);
        // At t = 2 the source sits at x = 12 → acc = 1/144.
        assert_close(force_at(&mut cl, &sys, 2.0, Vec3::zero()).acc.x, 1.0 / 144.0);
    }

    #[test]
    fn board_force_equals_sum_over_all_j() {
        // 1000 bodies at x = k / 100 (inside the ±512 fixed-point range):
        // every board and chip of the node holds a slice.
        let x = |k: usize| k as f64 / 100.0;
        let bodies: Vec<(f64, f64)> = (1..=1000).map(|k| (x(k), 1.0)).collect();
        let sys = on_x_axis(&bodies, 1e-6);
        let mut cl = ClusterEngine::single_node();
        cl.load(&sys);
        let expect: f64 = (1..=1000).map(|k| 1.0 / (x(k) * x(k))).sum();
        assert_close(force_at(&mut cl, &sys, 0.0, Vec3::zero()).acc.x, expect);
    }

    #[test]
    fn node_force_matches_direct_sum() {
        let bodies: Vec<(f64, f64)> = (1..=10).map(|k| (k as f64, 1.0)).collect();
        let sys = on_x_axis(&bodies, 0.01);
        let mut cl = ClusterEngine::single_node();
        cl.load(&sys);
        let eps2 = 0.0001;
        let expect: f64 = (1..=10)
            .map(|k| {
                let r2 = (k * k) as f64 + eps2;
                k as f64 / (r2 * r2.sqrt())
            })
            .sum();
        assert_close(force_at(&mut cl, &sys, 0.0, Vec3::zero()).acc.x, expect);
    }

    #[test]
    fn node_handles_multi_chunk_i_sets() {
        let sys = on_x_axis(&[(5.0, 1.0)], 0.01);
        let mut cl = ClusterEngine::single_node();
        cl.load(&sys);
        // 100 i-particles > 48 per chip-load → 3 chunks.
        let ips: Vec<IParticle> = (0..100)
            .map(|k| IParticle {
                index: 1 + k,
                pos: Vec3::new(k as f64 * 0.01, 0.0, 0.0),
                vel: Vec3::zero(),
            })
            .collect();
        let mut out = vec![ForceResult::default(); ips.len()];
        cl.compute(0.0, &ips, &mut out);
        for (ip, f) in ips.iter().zip(&out) {
            // Each force points toward the source at x = 5, with the bits
            // the particle gets in a chip-load of its own.
            assert!(f.acc.x > 0.0);
            let alone = force_at(&mut cl, &sys, 0.0, ip.pos);
            assert_eq!(
                (f.acc, f.jerk, f.pot.to_bits()),
                (alone.acc, alone.jerk, alone.pot.to_bits())
            );
        }
    }

    #[test]
    fn node_writeback_via_wire() {
        let bodies: Vec<(f64, f64)> = (1..=4).map(|k| (k as f64, 1.0)).collect();
        let mut sys = on_x_axis(&bodies, 0.01);
        let mut cl = ClusterEngine::single_node();
        cl.load(&sys);
        sys.pos[3] = Vec3::new(100.0, 0.0, 0.0);
        cl.update_j(&sys, &[3]);
        // Particle 3 moved from x = 4 to x = 100.
        let eps2 = 0.0001;
        let term = |x: f64| x / (x * x + eps2).powf(1.5);
        let expect = term(1.0) + term(2.0) + term(3.0) + term(100.0);
        assert_close(force_at(&mut cl, &sys, 0.0, Vec3::zero()).acc.x, expect);
        // A write-back past the loaded particles has no slot to land in.
        sys.push(Vec3::zero(), Vec3::zero(), 1.0);
        let refused =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| cl.update_j(&sys, &[4])))
                .is_err();
        assert!(refused, "index 4 of 4 loaded particles must be refused");
    }

    #[test]
    fn all_hosts_compute_identical_forces() {
        let sys = disk(40);
        let mut cl = ClusterEngine::production();
        cl.load(&sys);
        assert_hosts_agree(&probe_forces(&mut cl, &sys));
    }

    #[test]
    fn a_write_is_seen_by_every_node() {
        let mut sys = disk(8);
        let mut cl = ClusterEngine::production();
        cl.load(&sys);
        let before = probe_forces(&mut cl, &sys);
        sys.pos[3] = Vec3::new(500.0, 0.0, 0.0);
        cl.update_j(&sys, &[3]);
        let after = probe_forces(&mut cl, &sys);
        assert_hosts_agree(&after);
        for (h, (b, a)) in before.iter().zip(&after).enumerate() {
            assert_ne!(b.acc, a.acc, "host {h} must see the write");
        }
    }

    /// The routed single node and the four-host production cluster.
    fn topologies() -> [ClusterEngine; 2] {
        [ClusterEngine::single_node(), ClusterEngine::production()]
    }

    #[test]
    fn cluster_engine_matches_flat_engine_bitwise() {
        // 100 i-particles: three chip-loads on the single node, 25 per host
        // on the cluster.
        let sys = disk(100);
        let idx: Vec<usize> = (0..100).collect();
        let ips = ips_for(&sys, &idx);
        let mut flat = Grape6Engine::sc2002();
        flat.load(&sys);
        let mut out_f = vec![ForceResult::default(); 100];
        flat.compute(0.5, &ips, &mut out_f);
        for mut cl in topologies() {
            cl.load(&sys);
            let mut out_c = vec![ForceResult::default(); 100];
            cl.compute(0.5, &ips, &mut out_c);
            for i in 0..100 {
                assert_eq!(out_c[i].acc, out_f[i].acc, "hosts {} particle {i} acc", cl.hosts());
                assert_eq!(out_c[i].jerk, out_f[i].jerk, "hosts {} particle {i} jerk", cl.hosts());
                assert_eq!(out_c[i].pot, out_f[i].pot, "hosts {} particle {i} pot", cl.hosts());
            }
            assert_eq!(cl.interaction_count(), 100 * 100);
        }
    }

    #[test]
    fn cluster_engine_tracks_updates_bitwise() {
        for mut cl in topologies() {
            let mut sys = disk(32);
            let mut flat = Grape6Engine::sc2002();
            cl.load(&sys);
            flat.load(&sys);
            // Mutate a few particles as a block step would.
            for i in [3usize, 17, 29] {
                sys.pos[i] += Vec3::new(0.01, -0.02, 0.002);
                sys.vel[i] *= 1.001;
                sys.acc[i] = Vec3::new(1e-4, 0.0, -1e-5);
                sys.jerk[i] = Vec3::new(0.0, 1e-6, 0.0);
                sys.time[i] = 0.5;
            }
            cl.update_j(&sys, &[3, 17, 29]);
            flat.update_j(&sys, &[3, 17, 29]);
            let ips = ips_for(&sys, &[0, 5, 29]);
            let mut out_c = vec![ForceResult::default(); 3];
            let mut out_f = vec![ForceResult::default(); 3];
            cl.compute(1.0, &ips, &mut out_c);
            flat.compute(1.0, &ips, &mut out_f);
            for k in 0..3 {
                assert_eq!(out_c[k].acc, out_f[k].acc, "hosts {}", cl.hosts());
                assert_eq!(out_c[k].pot, out_f[k].pot, "hosts {}", cl.hosts());
            }
            assert_eq!(cl.interaction_count(), 3 * 32);
            // `load` on the standing cluster replaces every mirror.
            cl.load(&sys);
            cl.compute(1.0, &ips, &mut out_c);
            assert_eq!(out_c[2].acc, out_f[2].acc, "hosts {} reloaded", cl.hosts());
        }
    }
}
