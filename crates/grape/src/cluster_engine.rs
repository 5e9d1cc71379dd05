//! [`ClusterEngine`]: the functional multi-host [`Grape6Cluster`] as a
//! [`grape6_core::engine::ForceEngine`].
//!
//! Each host of the cluster owns a static slice of the particle indices
//! (`index % hosts`) and writes back only the particles it owns; the
//! inter-GRAPE exchange network mirrors those write-backs into every peer's
//! j-memory, and a barrier at the end of every `update_j` plays the role of
//! the per-blockstep synchronization of §4.3. Force calls partition the
//! active i-block across the hosts in contiguous chunks.
//!
//! Because the j-memories are mirrored and the fixed-point reduction is
//! exactly associative, the forces are **bit-identical** to
//! [`crate::engine::Grape6Engine`] with the same format and precision — the
//! conformance harness pins this down across thousands of fuzzed scenarios.

use crate::board::BoardGeometry;
use crate::chip::HwIParticle;
use crate::cluster::Grape6Cluster;
use crate::format::{FixedPointFormat, Precision};
use crate::predictor::JParticle;
use grape6_core::engine::ForceEngine;
use grape6_core::particle::{ForceResult, IParticle, ParticleSystem};

/// The functional GRAPE-6 cluster as a force engine.
///
/// The cluster itself is built lazily at [`ForceEngine::load`], because the
/// softening length travels with the particle system.
pub struct ClusterEngine {
    hosts: usize,
    boards_per_node: usize,
    board: BoardGeometry,
    format: FixedPointFormat,
    precision: Precision,
    cluster: Option<Grape6Cluster>,
    /// Masses as resident in hardware (host-side self-potential correction).
    jmass: Vec<f64>,
    eps: f64,
    interactions: u64,
}

impl ClusterEngine {
    /// Build an engine over `hosts` nodes of `boards_per_node` boards each.
    pub fn new(
        hosts: usize,
        boards_per_node: usize,
        board: BoardGeometry,
        format: FixedPointFormat,
        precision: Precision,
    ) -> Self {
        assert!(hosts >= 1);
        Self {
            hosts,
            boards_per_node,
            board,
            format,
            precision,
            cluster: None,
            jmass: Vec::new(),
            eps: 0.0,
            interactions: 0,
        }
    }

    /// The production cluster: 4 hosts × 4 boards (paper Fig 7), hardware
    /// arithmetic.
    pub fn production() -> Self {
        Self::new(4, 4, BoardGeometry::default(), FixedPointFormat::default(), Precision::grape6())
    }

    /// Number of hosts in the cluster.
    pub fn hosts(&self) -> usize {
        self.hosts
    }
}

impl ForceEngine for ClusterEngine {
    fn load(&mut self, sys: &ParticleSystem) {
        assert!(sys.softening > 0.0, "GRAPE-6 requires positive softening");
        self.eps = sys.softening;
        let mut cluster = Grape6Cluster::new(
            self.hosts,
            self.boards_per_node,
            self.board,
            self.format,
            self.precision,
            sys.softening,
        );
        let js: Vec<JParticle> = (0..sys.len())
            .map(|i| JParticle::from_system(&self.format, self.precision, sys, i))
            .collect();
        self.jmass = js.iter().map(|j| j.mass).collect();
        cluster.load_j(&js).expect("particle set exceeds cluster node capacity");
        self.cluster = Some(cluster);
    }

    fn update_j(&mut self, sys: &ParticleSystem, indices: &[usize]) {
        let mut cluster = self.cluster.take().expect("load before update_j");
        for &i in indices {
            let j = JParticle::from_system(&self.format, self.precision, sys, i);
            self.jmass[i] = j.mass;
            // Each particle has one owning host; only that host writes it
            // back, and the exchange network mirrors the packet to peers.
            let owner = i % self.hosts;
            cluster.write_back(owner, i, &j).expect("bad j index");
        }
        // Blockstep barrier: every node drains its data-in port before the
        // next force call.
        cluster.barrier();
        self.cluster = Some(cluster);
    }

    fn compute(&mut self, t: f64, ips: &[IParticle], out: &mut [ForceResult]) {
        assert_eq!(ips.len(), out.len());
        let cluster = self.cluster.as_mut().expect("load before compute");
        let n_j = cluster.n_j();
        self.interactions += (ips.len() as u64) * (n_j as u64);
        // Contiguous partition of the i-block across hosts (the paper's
        // block-cyclic assignment reduced to one block per host per call).
        let chunk = ips.len().div_ceil(self.hosts).max(1);
        for (c, (ips_c, out_c)) in ips.chunks(chunk).zip(out.chunks_mut(chunk)).enumerate() {
            let hw: Vec<(HwIParticle, u32)> = ips_c
                .iter()
                .map(|ip| {
                    (
                        HwIParticle::encode(&self.format, self.precision, ip.pos, ip.vel),
                        ip.index as u32,
                    )
                })
                .collect();
            let results = cluster.compute(c % self.hosts, t, &hw);
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

    #[test]
    fn cluster_engine_matches_flat_engine_bitwise() {
        let sys = disk(60);
        let mut cl = ClusterEngine::production();
        let mut flat = Grape6Engine::sc2002();
        cl.load(&sys);
        flat.load(&sys);
        let idx: Vec<usize> = (0..60).collect();
        let ips = ips_for(&sys, &idx);
        let mut out_c = vec![ForceResult::default(); 60];
        let mut out_f = vec![ForceResult::default(); 60];
        cl.compute(0.5, &ips, &mut out_c);
        flat.compute(0.5, &ips, &mut out_f);
        for i in 0..60 {
            assert_eq!(out_c[i].acc, out_f[i].acc, "particle {i} acc");
            assert_eq!(out_c[i].jerk, out_f[i].jerk, "particle {i} jerk");
            assert_eq!(out_c[i].pot, out_f[i].pot, "particle {i} pot");
        }
    }

    #[test]
    fn cluster_engine_tracks_updates_bitwise() {
        let mut sys = disk(24);
        let mut cl = ClusterEngine::production();
        let mut flat = Grape6Engine::sc2002();
        cl.load(&sys);
        flat.load(&sys);
        for i in [2usize, 9, 21] {
            sys.pos[i] += Vec3::new(-0.03, 0.01, 0.002);
            sys.vel[i] *= 0.999;
            sys.time[i] = 0.25;
        }
        cl.update_j(&sys, &[2, 9, 21]);
        flat.update_j(&sys, &[2, 9, 21]);
        let ips = ips_for(&sys, &[0, 5, 21]);
        let mut out_c = vec![ForceResult::default(); 3];
        let mut out_f = vec![ForceResult::default(); 3];
        cl.compute(1.0, &ips, &mut out_c);
        flat.compute(1.0, &ips, &mut out_f);
        for k in 0..3 {
            assert_eq!(out_c[k].acc, out_f[k].acc);
            assert_eq!(out_c[k].pot, out_f[k].pot);
        }
        assert_eq!(cl.interaction_count(), 3 * 24);
    }
}
