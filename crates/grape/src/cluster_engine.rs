//! [`ClusterEngine`]: the fully-routed GRAPE-6 — one
//! [`crate::node::Grape6Node`] per host — as a
//! [`grape6_core::engine::ForceEngine`].
//!
//! The hosts exchange no particle data (paper §4.3): every node's
//! j-memory is a mirror fed by the network boards. Here that holds by
//! construction. `load` wire-encodes the j-stream once and loads it into
//! every node; `update_j` wire-encodes each corrected particle once and
//! stores that packet in every node (the owner's host port plus the NB
//! mirror into every other node's data-in port). There is no host-to-host
//! path. Force calls partition the active i-block across the hosts in
//! contiguous chunks, each computed against its host's mirror.
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

use crate::chip::HwIParticle;
use crate::format::{FixedPointFormat, Precision};
use crate::node::Grape6Node;
use crate::predictor::JParticle;
use crate::wire;
use bytes::BytesMut;
use grape6_core::engine::ForceEngine;
use grape6_core::particle::{ForceResult, IParticle, ParticleSystem};

/// The fully-routed GRAPE-6 machine as a force engine: production nodes
/// (4 boards × 32 chips) with hardware arithmetic, one per host.
pub struct ClusterEngine {
    /// One node per host, each holding a mirror of every j-particle.
    nodes: Vec<Grape6Node>,
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
        let precision = Precision::grape6();
        Self {
            nodes: (0..hosts).map(|_| Grape6Node::production(precision)).collect(),
            format: FixedPointFormat::default(),
            precision,
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
        self.nodes.len()
    }
}

impl ForceEngine for ClusterEngine {
    fn load(&mut self, sys: &ParticleSystem) {
        assert!(sys.softening > 0.0, "GRAPE-6 requires positive softening");
        self.eps = sys.softening;
        let js: Vec<JParticle> = (0..sys.len())
            .map(|i| JParticle::from_system(&self.format, self.precision, sys, i))
            .collect();
        self.jmass = js.iter().map(|j| j.mass).collect();
        let stream = wire::encode_j_block(&js);
        for node in &mut self.nodes {
            node.set_softening(sys.softening);
            node.load_j_stream(stream.clone()).expect("particle set exceeds node capacity");
        }
    }

    fn update_j(&mut self, sys: &ParticleSystem, indices: &[usize]) {
        for &i in indices {
            let j = JParticle::from_system(&self.format, self.precision, sys, i);
            self.jmass[i] = j.mass;
            let mut buf = BytesMut::new();
            wire::encode_j_particle(&mut buf, &j);
            let packet = buf.freeze();
            for node in &mut self.nodes {
                node.store_j(i, packet.clone()).expect("bad j index");
            }
        }
    }

    fn compute(&mut self, t: f64, ips: &[IParticle], out: &mut [ForceResult]) {
        assert_eq!(ips.len(), out.len());
        self.interactions += (ips.len() as u64) * (self.jmass.len() as u64);
        // Contiguous partition of the i-block across hosts (the paper's
        // block-cyclic assignment reduced to one block per host per call).
        let chunk = ips.len().div_ceil(self.hosts()).max(1);
        for ((ips_c, out_c), node) in
            ips.chunks(chunk).zip(out.chunks_mut(chunk)).zip(&mut self.nodes)
        {
            let hw: Vec<(HwIParticle, u32)> = ips_c
                .iter()
                .map(|ip| {
                    (
                        HwIParticle::encode(&self.format, self.precision, ip.pos, ip.vel),
                        ip.index as u32,
                    )
                })
                .collect();
            let results = node.compute(t, &hw);
            for ((o, mut r), ip) in out_c.iter_mut().zip(results).zip(ips_c) {
                if ip.index < self.jmass.len() {
                    r.pot += self.jmass[ip.index] / self.eps;
                }
                *o = r;
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

    fn ips_for(sys: &ParticleSystem, idx: &[usize]) -> Vec<IParticle> {
        idx.iter().map(|&i| IParticle { index: i, pos: sys.pos[i], vel: sys.vel[i] }).collect()
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
