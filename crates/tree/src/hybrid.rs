//! The hybrid tree + direct force engine (Fukushige & Kawai 2016's
//! production pattern for collisional N-body on GRAPE): far-field forces
//! from a Barnes-Hut walk emitted as GRAPE-style interaction lists, a
//! radius-based near-field neighbour list summed directly at full
//! precision, under the same block individual-timestep host loop as every
//! other engine.
//!
//! Determinism contract (the same one `TickScheduler` and the lane tiles
//! meet): the tree build inserts bodies in index order from predicted
//! state, the walk recurses in fixed octant order, near lists are sorted
//! ascending, and the per-i summation structure mirrors
//! [`DirectEngine`](grape6_core::force::DirectEngine) exactly — so results
//! are bit-identical for any `RAYON_NUM_THREADS`, and at `theta = 0` with a
//! disk-spanning neighbour radius the near list *is* `0..n` with the same
//! chunk boundaries, reproducing `DirectEngine` bitwise on both the
//! small-block (chunked j-partial) and large-block (continuous ascending
//! sweep) paths.

use crate::octree::{InteractionLists, Octree};
use grape6_core::engine::{ForceEngine, TreeWork};
use grape6_core::force::{accumulate_on, accumulate_with_nn};
use grape6_core::jmem::JMemory;
use grape6_core::particle::{ForceResult, IParticle, ParticleSystem};
use grape6_core::sweep::{j_chunk_size, SMALL_BLOCK_MAX};
use rayon::prelude::*;

/// Charge one walk's emitted lists to a work accumulator.
fn note(work: &mut TreeWork, lists: &InteractionLists) {
    let near = lists.near.len() as u64;
    let far = lists.far_pos.len() as u64;
    work.near_interactions += near;
    work.far_interactions += far;
    work.cells_opened += lists.cells_opened;
    work.list_len_sum += near + far;
    work.list_len_max = work.list_len_max.max(near + far);
    work.lists_emitted += 1;
}

/// Hybrid tree + direct force engine — and, at `r_near = 0`, the pure
/// Barnes-Hut baseline of the paper's §3 (bitwise the fused
/// [`Octree::force_on`] walk for θ < 1).
#[derive(Debug, Clone)]
pub struct HybridTreeEngine {
    /// Opening angle θ of the multipole acceptance criterion (0 = open
    /// everything, i.e. exact direct summation over the near list).
    pub theta: f64,
    /// Near-field neighbour radius: every body within this (unsoftened)
    /// distance of an i-particle is summed directly at full precision and
    /// is eligible for the nearest-neighbour report.
    pub r_near: f64,
    /// The tree is built over the memory's `predict_all` snapshot.
    jmem: JMemory,
    eps2: f64,
    tree: Option<Octree>,
    last_tree_time: Option<f64>,
    interactions: u64,
    force_calls: u64,
    work: TreeWork,
}

impl HybridTreeEngine {
    /// Create an engine with opening angle `theta` and near-field radius
    /// `r_near`. `theta = 0` with a radius spanning the whole system
    /// reproduces `DirectEngine` bit for bit.
    pub fn new(theta: f64, r_near: f64) -> Self {
        assert!(theta >= 0.0, "theta must be non-negative");
        assert!(r_near >= 0.0, "near-field radius must be non-negative");
        Self {
            theta,
            r_near,
            jmem: JMemory::default(),
            eps2: 0.0,
            tree: None,
            last_tree_time: None,
            interactions: 0,
            force_calls: 0,
            work: TreeWork::default(),
        }
    }

    /// A configuration equivalent to direct summation (the bitwise anchor):
    /// `theta = 0`, neighbour radius spanning any system.
    pub fn direct_equivalent() -> Self {
        Self::new(0.0, f64::INFINITY)
    }

    /// Number of `compute` calls since the last counter reset.
    pub fn force_calls(&self) -> u64 {
        self.force_calls
    }

    /// Predict every j-particle to `t` and rebuild the octree over the
    /// snapshot. Build order is body-index order: thread count never touches
    /// the tree shape.
    fn rebuild(&mut self, t: f64) {
        self.jmem.predict_all(t);
        let (ppos, pvel) = self.jmem.predicted_all();
        self.tree = Some(Octree::build(ppos, pvel, self.jmem.mass()));
        self.last_tree_time = Some(t);
        self.work.builds += 1;
    }
}

impl ForceEngine for HybridTreeEngine {
    fn load(&mut self, sys: &ParticleSystem) {
        self.jmem.load(sys);
        self.eps2 = sys.softening * sys.softening;
        self.tree = None;
        self.last_tree_time = None;
    }

    fn update_j(&mut self, sys: &ParticleSystem, indices: &[usize]) {
        self.jmem.update(sys, indices);
        // Bodies moved: the tree (and its predicted snapshot) is stale.
        self.tree = None;
        self.last_tree_time = None;
    }

    fn compute(&mut self, t: f64, ips: &[IParticle], out: &mut [ForceResult]) {
        assert_eq!(ips.len(), out.len());
        self.force_calls += 1;
        let b = ips.len();
        if b == 0 {
            return;
        }
        if self.last_tree_time != Some(t) || self.tree.is_none() {
            self.rebuild(t);
        }
        let tree = self.tree.as_ref().expect("tree built above");
        let (theta, r_near, eps2) = (self.theta, self.r_near, self.eps2);
        let (ppos, pvel) = self.jmem.predicted_all();
        let jmass = self.jmem.mass();
        // Mirror DirectEngine's path split: small blocks take the chunked
        // j-partial summation structure, large blocks the continuous per-i
        // sweep — the two structures round differently, and the theta = 0
        // anchor must match whichever one DirectEngine would have used.
        let small = b <= SMALL_BLOCK_MAX;
        // i-chunks may follow the thread count: per-i results are pure
        // functions of (i, tree), and the walk totals are associative
        // integer sums and maxima.
        let threads = rayon::current_num_threads().max(1);
        let ic = b.div_ceil(threads);
        let chunk_work: Vec<TreeWork> = out
            .par_chunks_mut(ic)
            .zip(ips.par_chunks(ic))
            .map(|(os, is)| {
                let mut lists = InteractionLists::default();
                let mut work = TreeWork::default();
                for (o, ip) in os.iter_mut().zip(is) {
                    tree.interaction_lists(ip.pos, theta, r_near, &mut lists);
                    // Near field: ascending-j partial sums per list chunk,
                    // merged in order (one chunk = one continuous sum).
                    let near = &lists.near;
                    let chunk = if small { j_chunk_size(near.len()) } else { near.len().max(1) };
                    *o = near.chunks(chunk).fold(ForceResult::default(), |mut sum, js| {
                        let js = js.iter().map(|&j| j as usize);
                        sum.merge(&accumulate_with_nn(ip, js, ppos, pvel, jmass, eps2));
                        sum
                    });
                    // Far field: one GRAPE-style j-sweep over the emitted
                    // list (cells + far leaf bodies), appended after the
                    // near sum. Empty at theta = 0, so the anchor path
                    // never perturbs a bit.
                    if !lists.far_pos.is_empty() {
                        let far = accumulate_on(
                            ip.pos,
                            ip.vel,
                            &lists.far_pos,
                            &lists.far_vel,
                            &lists.far_mass,
                            eps2,
                            usize::MAX,
                        );
                        o.acc += far.acc;
                        o.jerk += far.jerk;
                        o.pot += far.pot;
                    }
                    note(&mut work, &lists);
                }
                work
            })
            .collect();
        for work in &chunk_work {
            self.interactions += work.list_len_sum;
            self.work.merge(work);
        }
    }

    /// Actual near + far interaction-list evaluations — the whole point of
    /// the hybrid is that this is far below the hardware convention's
    /// `n_i × n_j`.
    fn interaction_count(&self) -> u64 {
        self.interactions
    }

    fn reset_counters(&mut self) {
        self.interactions = 0;
        self.force_calls = 0;
        self.work = TreeWork::default();
    }

    fn tree_work(&self) -> Option<TreeWork> {
        Some(self.work)
    }

    fn checkpoint_state(&self) -> Vec<u8> {
        let mut state = Vec::with_capacity(72);
        for v in [
            self.interactions,
            self.force_calls,
            self.work.builds,
            self.work.cells_opened,
            self.work.near_interactions,
            self.work.far_interactions,
            self.work.list_len_sum,
            self.work.list_len_max,
            self.work.lists_emitted,
        ] {
            state.extend_from_slice(&v.to_le_bytes());
        }
        state
    }

    fn restore_checkpoint_state(&mut self, state: &[u8]) -> Result<(), String> {
        if state.len() != 72 {
            return Err(format!(
                "hybrid-tree checkpoint state: expected 72 bytes, got {}",
                state.len()
            ));
        }
        let mut k = 0;
        let mut next = || {
            let v = u64::from_le_bytes(state[k..k + 8].try_into().unwrap());
            k += 8;
            v
        };
        self.interactions = next();
        self.force_calls = next();
        self.work.builds = next();
        self.work.cells_opened = next();
        self.work.near_interactions = next();
        self.work.far_interactions = next();
        self.work.list_len_sum = next();
        self.work.list_len_max = next();
        self.work.lists_emitted = next();
        Ok(())
    }

    fn name(&self) -> &'static str {
        "hybrid-tree"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grape6_core::force::DirectEngine;
    use grape6_core::vec3::Vec3;

    fn disk_like(n: usize, seed: u64) -> ParticleSystem {
        let mut sys = ParticleSystem::new(0.01, 1.0);
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut rng = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        for k in 0..n {
            let r = 15.0 + 10.0 * (k as f64 / n as f64) + rng();
            let phi = rng() * std::f64::consts::TAU;
            sys.push(
                Vec3::new(r * phi.cos(), r * phi.sin(), rng() * 0.3),
                Vec3::new(rng(), rng(), rng()) * 0.05,
                1e-7 * (1.0 + rng().abs()),
            );
        }
        sys
    }

    fn ips_for(sys: &ParticleSystem, idx: std::ops::Range<usize>) -> Vec<IParticle> {
        idx.map(|i| IParticle { index: i, pos: sys.pos[i], vel: sys.vel[i] }).collect()
    }

    fn assert_bits_equal(a: &[ForceResult], b: &[ForceResult], tag: &str) {
        for (k, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(x.acc, y.acc, "{tag}: particle {k} acc");
            assert_eq!(x.jerk, y.jerk, "{tag}: particle {k} jerk");
            assert_eq!(x.pot.to_bits(), y.pot.to_bits(), "{tag}: particle {k} pot");
            assert_eq!(
                x.nn.map(|nb| (nb.index, nb.r2.to_bits())),
                y.nn.map(|nb| (nb.index, nb.r2.to_bits())),
                "{tag}: particle {k} nn"
            );
        }
    }

    #[test]
    fn theta_zero_full_radius_is_bitwise_direct_on_both_paths() {
        let sys = disk_like(120, 1);
        let mut hybrid = HybridTreeEngine::direct_equivalent();
        let mut direct = DirectEngine::new();
        hybrid.load(&sys);
        direct.load(&sys);
        // Small block (chunked j-partial path) and large block (continuous
        // per-i path) — DirectEngine's two paths are NOT bitwise equal to
        // each other, so the hybrid must match each one on its own turf.
        for b in [1usize, 5, SMALL_BLOCK_MAX, SMALL_BLOCK_MAX + 1, 120] {
            let ips = ips_for(&sys, 0..b);
            let mut out_h = vec![ForceResult::default(); b];
            let mut out_d = vec![ForceResult::default(); b];
            hybrid.compute(0.0, &ips, &mut out_h);
            direct.compute(0.0, &ips, &mut out_d);
            assert_bits_equal(&out_h, &out_d, &format!("b={b}"));
        }
    }

    #[test]
    fn theta_zero_full_radius_matches_direct_at_predicted_times() {
        let mut sys = disk_like(64, 2);
        // Stagger the particle times so prediction is live.
        for i in 0..sys.len() {
            sys.acc[i] = Vec3::new(1e-4, -2e-4, 5e-5);
            sys.jerk[i] = Vec3::new(-1e-6, 1e-6, 0.0);
            sys.time[i] = (i % 4) as f64 * 0.125;
        }
        let t = 0.5;
        let mut hybrid = HybridTreeEngine::direct_equivalent();
        let mut direct = DirectEngine::new();
        hybrid.load(&sys);
        direct.load(&sys);
        let ips: Vec<IParticle> = (0..sys.len())
            .map(|i| {
                let (pos, vel) = sys.predict(i, t);
                IParticle { index: i, pos, vel }
            })
            .collect();
        let mut out_h = vec![ForceResult::default(); ips.len()];
        let mut out_d = vec![ForceResult::default(); ips.len()];
        hybrid.compute(t, &ips, &mut out_h);
        direct.compute(t, &ips, &mut out_d);
        assert_bits_equal(&out_h, &out_d, "predicted");
    }

    #[test]
    fn moderate_theta_approximates_direct_and_does_less_work() {
        // A real neighbour sphere, and the pure Barnes-Hut limit (the near
        // list is then just the self entry).
        let sys = disk_like(800, 3);
        let mut direct = DirectEngine::new();
        direct.load(&sys);
        let ips = ips_for(&sys, 0..sys.len());
        let mut out_d = vec![ForceResult::default(); ips.len()];
        direct.compute(0.0, &ips, &mut out_d);
        for r_near in [2.0, 0.0] {
            let mut hybrid = HybridTreeEngine::new(0.6, r_near);
            hybrid.load(&sys);
            let mut out_h = vec![ForceResult::default(); ips.len()];
            hybrid.compute(0.0, &ips, &mut out_h);
            let mut worst: f64 = 0.0;
            for k in 0..ips.len() {
                worst = worst.max((out_h[k].acc - out_d[k].acc).norm() / out_d[k].acc.norm());
            }
            assert!(worst < 0.05, "r_near {r_near}: worst rel error {worst}");
            let w = hybrid.work;
            assert!(w.far_interactions > 0, "no cells were accepted");
            assert!(w.near_interactions >= sys.len() as u64, "self entries are near");
            assert!(
                hybrid.interaction_count() < (sys.len() as u64).pow(2) / 3,
                "r_near {r_near}: hybrid did {} evaluations, not ≪ N² = {}",
                hybrid.interaction_count(),
                (sys.len() as u64).pow(2)
            );
        }
    }

    #[test]
    fn forces_and_counters_bit_identical_across_thread_counts() {
        let sys = disk_like(300, 4);
        let run = |threads: usize| {
            rayon::with_num_threads(threads, || {
                let mut e = HybridTreeEngine::new(0.5, 3.0);
                e.load(&sys);
                let ips = ips_for(&sys, 0..sys.len());
                let mut out = vec![ForceResult::default(); ips.len()];
                e.compute(0.0, &ips, &mut out);
                (out, e.interaction_count(), e.work)
            })
        };
        let (ref_out, ref_count, ref_work) = run(1);
        for threads in [2usize, 4, 8] {
            let (out, count, work) = run(threads);
            assert_bits_equal(&out, &ref_out, &format!("threads={threads}"));
            assert_eq!(count, ref_count, "threads={threads}: interaction count");
            assert_eq!(work, ref_work, "threads={threads}: walk counters");
        }
    }

    #[test]
    fn rebuilds_only_when_time_changes_and_updates_invalidate() {
        let mut sys = disk_like(100, 5);
        let mut e = HybridTreeEngine::new(0.5, 2.0);
        e.load(&sys);
        let ips = ips_for(&sys, 0..10);
        let mut out = vec![ForceResult::default(); 10];
        e.compute(0.0, &ips, &mut out);
        e.compute(0.0, &ips, &mut out);
        assert_eq!(e.work.builds, 1, "same-time calls must share the tree");
        e.compute(0.5, &ips, &mut out);
        assert_eq!(e.work.builds, 2);
        sys.pos[0] = Vec3::new(100.0, 0.0, 0.0);
        e.update_j(&sys, &[0]);
        e.compute(0.5, &ips, &mut out);
        assert_eq!(e.work.builds, 3, "update_j must force a rebuild");
        // The §3 argument in miniature: one-particle blocks at distinct
        // times each pay a full O(N log N) build.
        for k in 1..=20 {
            e.compute(0.5 + k as f64 * 1e-3, &ips[..1], &mut out[..1]);
        }
        assert_eq!(e.work.builds, 23);
    }

    #[test]
    fn checkpoint_state_round_trips() {
        let sys = disk_like(80, 6);
        let mut e = HybridTreeEngine::new(0.4, 2.0);
        e.load(&sys);
        let ips = ips_for(&sys, 0..sys.len());
        let mut out = vec![ForceResult::default(); ips.len()];
        e.compute(0.0, &ips, &mut out);
        e.compute(0.25, &ips[..3], &mut out[..3]);
        let state = e.checkpoint_state();
        assert_eq!(state.len(), 72);
        let mut fresh = HybridTreeEngine::new(0.4, 2.0);
        fresh.load(&sys);
        fresh.restore_checkpoint_state(&state).unwrap();
        assert_eq!(fresh.interaction_count(), e.interaction_count());
        assert_eq!(fresh.force_calls(), e.force_calls());
        assert_eq!(fresh.work, e.work);
        assert!(fresh.restore_checkpoint_state(&state[..10]).is_err());
    }
}
