//! An intentionally broken force kernel, used (behind the CLI's dev-only
//! `--broken-kernel` flag and in tests) to prove the harness *catches* and
//! *minimizes* real bugs rather than merely passing on correct code.
//!
//! The bug is a classic off-by-one: the j-loop runs to `n − 1`, silently
//! dropping the last j-particle from every sum. On any system with two or
//! more particles this loses an entire pair force, which overshoots the
//! oracle budget by many orders of magnitude — and the shrinker reduces any
//! failing scenario to the minimal two-particle repro.

use grape6_core::engine::ForceEngine;
use grape6_core::force::accumulate_with_nn;
use grape6_core::jmem::JMemory;
use grape6_core::particle::{ForceResult, IParticle, ParticleSystem};

/// A direct-summation engine whose j-loop drops the last particle.
#[derive(Debug, Default)]
pub struct BrokenEngine {
    jmem: JMemory,
    eps2: f64,
    interactions: u64,
}

impl BrokenEngine {
    /// Create an empty broken engine.
    pub fn new() -> Self {
        Self::default()
    }
}

impl ForceEngine for BrokenEngine {
    fn load(&mut self, sys: &ParticleSystem) {
        self.jmem.load(sys);
        self.eps2 = sys.softening * sys.softening;
    }

    fn update_j(&mut self, sys: &ParticleSystem, indices: &[usize]) {
        self.jmem.update(sys, indices);
    }

    fn compute(&mut self, t: f64, ips: &[IParticle], out: &mut [ForceResult]) {
        // BUG (intentional): `..n - 1` drops the last j-particle.
        let upper = self.jmem.len().saturating_sub(1);
        self.jmem.predict_all(t);
        let (ppos, pvel) = self.jmem.predicted_all();
        for (ip, res) in ips.iter().zip(out.iter_mut()) {
            *res = accumulate_with_nn(ip, 0..upper, ppos, pvel, self.jmem.mass(), self.eps2);
        }
        self.interactions += (ips.len() * upper) as u64;
    }

    fn interaction_count(&self) -> u64 {
        self.interactions
    }

    fn reset_counters(&mut self) {
        self.interactions = 0;
    }

    fn name(&self) -> &'static str {
        "broken-dropped-pair"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grape6_core::vec3::Vec3;

    #[test]
    fn drops_the_last_particle() {
        let mut sys = ParticleSystem::new(0.008, 0.0);
        sys.push(Vec3::new(10.0, 0.0, 0.0), Vec3::zero(), 1e-6);
        sys.push(Vec3::new(-10.0, 0.0, 0.0), Vec3::zero(), 1e-6);
        let mut engine = BrokenEngine::new();
        engine.load(&sys);
        let ips = vec![IParticle { index: 0, pos: sys.pos[0], vel: sys.vel[0] }];
        let mut out = vec![ForceResult::default()];
        engine.compute(0.0, &ips, &mut out);
        // Particle 0's only partner is the last j-particle — which the bug
        // drops, so the force comes back exactly zero.
        assert_eq!(out[0].acc.norm(), 0.0);
        assert_eq!(out[0].pot, 0.0);
    }
}
