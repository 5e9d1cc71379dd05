//! [`NodeEngine`]: the fully-routed functional node as a
//! [`grape6_core::engine::ForceEngine`].
//!
//! Slower than [`crate::engine::Grape6Engine`] (every packet really crosses
//! the wire protocol and the board structure), but byte-for-byte faithful to
//! the node data path. The integration suite drives identical simulations
//! through both and asserts *bit-identical trajectories* — the strongest
//! possible statement that the fast engine's flat-memory shortcut is exact.

use crate::chip::HwIParticle;
use crate::format::{FixedPointFormat, Precision};
use crate::node::Grape6Node;
use crate::predictor::JParticle;
use grape6_core::engine::ForceEngine;
use grape6_core::particle::{ForceResult, IParticle, ParticleSystem};

/// A force engine backed by one fully-routed [`Grape6Node`].
#[derive(Debug, Clone)]
pub struct NodeEngine {
    node: Grape6Node,
    format: FixedPointFormat,
    precision: Precision,
    /// Masses as resident in hardware (for the host-side self-potential
    /// correction).
    jmass: Vec<f64>,
    eps: f64,
    interactions: u64,
}

impl NodeEngine {
    /// Wrap a node (softening is taken from the system at `load`).
    pub fn new(node: Grape6Node, format: FixedPointFormat, precision: Precision) -> Self {
        Self { node, format, precision, jmass: Vec::new(), eps: 0.0, interactions: 0 }
    }

    /// A production node (4 boards × 32 chips) with hardware arithmetic.
    pub fn production() -> Self {
        let precision = Precision::grape6();
        Self::new(Grape6Node::production(precision), FixedPointFormat::default(), precision)
    }

    /// Access the underlying node (traffic counters, cycles).
    pub fn node(&self) -> &Grape6Node {
        &self.node
    }
}

impl ForceEngine for NodeEngine {
    fn load(&mut self, sys: &ParticleSystem) {
        assert!(sys.softening > 0.0, "GRAPE-6 requires positive softening");
        self.eps = sys.softening;
        self.node.set_softening(sys.softening);
        let js: Vec<JParticle> = (0..sys.len())
            .map(|i| JParticle::from_system(&self.format, self.precision, sys, i))
            .collect();
        self.jmass = js.iter().map(|j| j.mass).collect();
        self.node.load_j(&js).expect("particle set exceeds node capacity");
    }

    fn update_j(&mut self, sys: &ParticleSystem, indices: &[usize]) {
        for &i in indices {
            let j = JParticle::from_system(&self.format, self.precision, sys, i);
            self.jmass[i] = j.mass;
            self.node.store_j(i, &j).expect("bad j index");
        }
    }

    fn compute(&mut self, t: f64, ips: &[IParticle], out: &mut [ForceResult]) {
        assert_eq!(ips.len(), out.len());
        let hw: Vec<(HwIParticle, u32)> = ips
            .iter()
            .map(|ip| {
                (HwIParticle::encode(&self.format, self.precision, ip.pos, ip.vel), ip.index as u32)
            })
            .collect();
        let results = self.node.compute(t, &hw);
        self.interactions += (ips.len() as u64) * (self.node.n_j() as u64);
        for ((o, mut r), ip) in out.iter_mut().zip(results).zip(ips) {
            // Host-side self-potential correction, as in Grape6Engine.
            if ip.index < self.jmass.len() {
                r.pot += self.jmass[ip.index] / self.eps;
            }
            *o = r;
        }
    }

    fn interaction_count(&self) -> u64 {
        self.interactions
    }

    fn reset_counters(&mut self) {
        self.interactions = 0;
    }

    fn name(&self) -> &'static str {
        "grape6-node-routed"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Grape6Config, Grape6Engine};
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

    #[test]
    fn routed_node_matches_flat_engine_bitwise() {
        let sys = disk(100);
        let mut routed = NodeEngine::production();
        let mut flat = Grape6Engine::new(Grape6Config::sc2002());
        routed.load(&sys);
        flat.load(&sys);
        let ips: Vec<IParticle> =
            (0..100).map(|i| IParticle { index: i, pos: sys.pos[i], vel: sys.vel[i] }).collect();
        let mut out_r = vec![ForceResult::default(); 100];
        let mut out_f = vec![ForceResult::default(); 100];
        routed.compute(0.25, &ips, &mut out_r);
        flat.compute(0.25, &ips, &mut out_f);
        for i in 0..100 {
            assert_eq!(out_r[i].acc, out_f[i].acc, "particle {i} acc");
            assert_eq!(out_r[i].jerk, out_f[i].jerk, "particle {i} jerk");
            assert_eq!(out_r[i].pot, out_f[i].pot, "particle {i} pot");
        }
    }

    #[test]
    fn routed_node_tracks_updates_bitwise() {
        let mut sys = disk(32);
        let mut routed = NodeEngine::production();
        let mut flat = Grape6Engine::new(Grape6Config::sc2002());
        routed.load(&sys);
        flat.load(&sys);
        // Mutate a few particles as a block step would.
        for i in [3usize, 17, 29] {
            sys.pos[i] += Vec3::new(0.01, -0.02, 0.0);
            sys.vel[i] *= 1.001;
            sys.acc[i] = Vec3::new(1e-4, 0.0, -1e-5);
            sys.jerk[i] = Vec3::new(0.0, 1e-6, 0.0);
            sys.time[i] = 0.5;
        }
        routed.update_j(&sys, &[3, 17, 29]);
        flat.update_j(&sys, &[3, 17, 29]);
        let ips = [IParticle { index: 0, pos: sys.pos[0], vel: sys.vel[0] }];
        let mut out_r = [ForceResult::default()];
        let mut out_f = [ForceResult::default()];
        routed.compute(1.0, &ips, &mut out_r);
        flat.compute(1.0, &ips, &mut out_f);
        assert_eq!(out_r[0].acc, out_f[0].acc);
        assert_eq!(out_r[0].pot, out_f[0].pot);
    }

    #[test]
    fn traffic_is_accounted() {
        let sys = disk(64);
        let mut routed = NodeEngine::production();
        routed.load(&sys);
        let t0 = routed.node().traffic();
        assert_eq!(t0.j_bytes, 64 * crate::wire::J_PACKET_BYTES as u64);
        let ips: Vec<IParticle> =
            (0..10).map(|i| IParticle { index: i, pos: sys.pos[i], vel: sys.vel[i] }).collect();
        let mut out = vec![ForceResult::default(); 10];
        routed.compute(0.0, &ips, &mut out);
        let t1 = routed.node().traffic();
        assert_eq!(t1.i_bytes, 10 * crate::wire::I_PACKET_BYTES as u64);
        assert_eq!(t1.f_bytes, 10 * crate::wire::F_PACKET_BYTES as u64);
        assert_eq!(routed.interaction_count(), 10 * 64);
    }
}
