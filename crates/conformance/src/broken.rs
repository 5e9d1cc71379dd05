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
//!
//! [`tail_dropped_forces`]' bug is the one a lanes-across-j kernel invites:
//! it sweeps every j-chunk in whole groups of `J_LANES` and never comes back
//! for the ragged tail. Any j-count that is not a multiple of `J_LANES`
//! loses its last few particles from every sum, and `lanes/small-j` — which
//! also sweeps the scenario less its last particle, so one of its two
//! j-counts always has a tail — flags it.

use grape6_core::engine::ForceEngine;
use grape6_core::force::{accumulate_with_nn, scalar_small_chunk};
use grape6_core::jmem::JMemory;
use grape6_core::lanes::J_LANES;
use grape6_core::particle::{ForceResult, IParticle, ParticleSystem};
use grape6_core::sweep::j_chunk_size;
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

/// Forces on `ips` from a group walk over `tree` that measures every
/// distance from the centre of the group's box.
pub fn centre_walk_forces(
    tree: &Octree,
    ips: &[IParticle],
    theta: f64,
    r_near: f64,
    eps2: f64,
) -> Vec<ForceResult> {
    let mut lists = InteractionLists::default();
    ips.iter()
        .map(|ip| {
            // BUG (intentional): the group's lists come from a point walk
            // at the centre of its box.
            let at = tree.group_of(ip.index, ip.pos).map_or(ip.pos, |g| {
                let (lo, hi) = tree.group_box(g);
                (lo + hi) * 0.5
            });
            tree.interaction_lists(at, theta, r_near, &mut lists);
            scalar_list_sum(ip, &lists, tree, r_near, eps2)
        })
        .collect()
}

/// Small-block forces on `ips` from the particles of `sys` at time `t`, in
/// the product's summation structure except that only whole groups of
/// [`J_LANES`] j-particles are swept.
pub fn tail_dropped_forces(sys: &ParticleSystem, t: f64, ips: &[IParticle]) -> Vec<ForceResult> {
    let mut jmem = JMemory::default();
    jmem.load(sys);
    jmem.predict_all(t);
    let (ppos, pvel) = jmem.predicted_all();
    let (n, eps2) = (sys.len(), sys.softening * sys.softening);
    let chunk = j_chunk_size(n);
    ips.iter()
        .map(|ip| {
            let mut o = ForceResult::default();
            for lo in (0..n).step_by(chunk) {
                let len = chunk.min(n - lo);
                // BUG (intentional): `len % J_LANES` trailing particles of
                // the chunk are never swept.
                let js = lo..lo + len / J_LANES * J_LANES;
                o.merge(&scalar_small_chunk(ip, js, ppos, pvel, jmem.mass(), eps2));
            }
            o
        })
        .collect()
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
        let out = centre_walk_forces(&tree, &ips, 0.5, 1.0, 0.008 * 0.008);
        assert!(out[0].pot < -1e-6 / 0.008);
        assert!(out[0].nn.is_none());
    }

    #[test]
    fn tail_drop_loses_the_particles_past_the_last_whole_group() {
        // Ten bodies on a line: the sweep covers j = 0..8 and never sees
        // bodies 8 and 9, so body 0's pull comes from seven bodies, not nine.
        let mut sys = ParticleSystem::new(0.008, 0.0);
        for k in 0..10 {
            sys.push(Vec3::new(k as f64, 0.0, 0.0), Vec3::zero(), 1e-6);
        }
        let ips = [IParticle { index: 0, pos: sys.pos[0], vel: sys.vel[0] }];
        let eps2 = sys.softening * sys.softening;
        let seven = accumulate_with_nn(&ips[0], 0..8, &sys.pos, &sys.vel, &sys.mass, eps2);
        let nine = accumulate_with_nn(&ips[0], 0..10, &sys.pos, &sys.vel, &sys.mass, eps2);
        let got = tail_dropped_forces(&sys, 0.0, &ips)[0];
        assert!((got.acc.x - seven.acc.x).abs() < 1e-20 && got.acc.x < nine.acc.x);
    }
}
