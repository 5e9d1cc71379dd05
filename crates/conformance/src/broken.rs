//! Intentionally broken force kernels, used (behind the CLI's dev-only
//! `--broken-kernel` flag and in tests) to prove the harness *catches* and
//! *minimizes* real bugs rather than merely passing on correct code.
//!
//! [`BrokenEngine`]'s bug is a classic off-by-one: the j-loop runs to
//! `n − 1`, silently dropping the last j-particle from every sum. On any
//! system with two or more particles this loses an entire pair force, which
//! overshoots the oracle budget by many orders of magnitude — and the
//! shrinker reduces any failing scenario to the minimal two-particle repro.
//!
//! [`centre_walk_forces`]' bug is the tempting shortcut of Barnes' modified
//! algorithm: it walks the tree for a whole group from the *centre* of the
//! group's box instead of from the box. Members away from the centre then
//! get cells accepted that fail their own acceptance test and lose
//! neighbours (themselves included) to the far field — and the
//! `hybrid/group-lists-vs-scalar` comparison no longer holds.

use grape6_core::engine::ForceEngine;
use grape6_core::force::accumulate_with_nn;
use grape6_core::jmem::JMemory;
use grape6_core::particle::{ForceResult, IParticle, ParticleSystem};
use grape6_core::sweep::SMALL_BLOCK_MAX;
use grape6_tree::hybrid::scalar_list_sum;
use grape6_tree::{InteractionLists, Octree};

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

/// Forces on `ips`, taken in blocks of `block`, from a group walk over `tree`
/// that measures every distance from the centre of the group's box.
pub fn centre_walk_forces(
    tree: &Octree,
    ips: &[IParticle],
    block: usize,
    theta: f64,
    r_near: f64,
    eps2: f64,
) -> Vec<ForceResult> {
    let mut lists = InteractionLists::default();
    let mut out = Vec::with_capacity(ips.len());
    for is in ips.chunks(block) {
        for ip in is {
            // BUG (intentional): the group's lists come from a point walk
            // at the centre of its box.
            let at = tree.group_of(ip.index, ip.pos).map_or(ip.pos, |g| {
                let (lo, hi) = tree.group_box(g);
                (lo + hi) * 0.5
            });
            tree.interaction_lists(at, theta, r_near, &mut lists);
            let small = is.len() <= SMALL_BLOCK_MAX;
            out.push(scalar_list_sum(ip, &lists, tree, r_near, eps2, small));
        }
    }
    out
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

    #[test]
    fn centre_walk_loses_the_self_skip() {
        // Two bodies are one group; seen from the middle of their box both
        // lie beyond a small neighbour radius, so each becomes a far source
        // of its own sum — the softened self term −m/ε lands in the potential.
        let pos = [Vec3::new(10.0, 0.0, 0.0), Vec3::new(-10.0, 0.0, 0.0)];
        let tree = Octree::build(&pos, &[Vec3::zero(); 2], &[1e-6; 2]);
        let ips = [IParticle { index: 0, pos: pos[0], vel: Vec3::zero() }];
        let out = centre_walk_forces(&tree, &ips, 1, 0.5, 1.0, 0.008 * 0.008);
        assert!(out[0].pot < -1e-6 / 0.008);
        assert!(out[0].nn.is_none());
    }
}
