//! Direct-summation gravity: the pairwise force/jerk kernel and a CPU
//! reference engine.
//!
//! The kernel evaluates exactly what one GRAPE-6 force pipeline evaluates per
//! clock cycle (paper §5.2): the softened pairwise acceleration, its time
//! derivative (jerk), and the softened potential. By the Gordon Bell
//! convention the paper adopts, this costs 38 + 19 = 57 floating-point
//! operations per interaction.

use crate::fields::Fields;
use crate::jmem::JMemory;
use crate::lanes::{fold_lanes, sweep_tile_lanes, JLanes, J_LANES, LANE_WIDTH};
use crate::particle::{ForceResult, IParticle, Neighbor, ParticleSystem};
use crate::sweep::{chunked_jsweep, j_chunk_size, SMALL_BLOCK_MAX};
use crate::vec3::Vec3;
use rayon::prelude::*;

/// Flops charged per pairwise interaction (38 for the force, 19 for the
/// jerk), following the convention of recent Gordon Bell prize applications
/// cited in paper §5.2.
pub const FLOPS_PER_INTERACTION: u64 = 57;

/// j-particles per cache tile of the blocked large-block kernel. 1024
/// predicted j-particles (pos + vel + mass ≈ 56 B each) stay resident in L2
/// while every i-particle of the block sweeps them — the software analogue
/// of the hardware broadcasting one j-particle to all pipelines.
const J_TILE: usize = 1024;

/// Cache-blocked sweep of all j-particles for one i-chunk through the AoSoA
/// lane kernel: j in L2-sized tiles (outer), i-particles in
/// [`LANE_WIDTH`]-wide [`LaneTile`]s (inner); a ragged tail is padded inside
/// the tile (see the remainder-lane rule in [`crate::lanes`]). Lanes only
/// span i-particles, so each sum is the ascending-j sum of the scalar oracle.
// grape6-lint: hot
fn tiled_block_sweep(
    os: &mut [ForceResult],
    ips: &[IParticle],
    ppos: &[Vec3],
    pvel: &[Vec3],
    jmass: &[f64],
    eps2: f64,
) {
    for o in os.iter_mut() {
        *o = ForceResult::default();
    }
    let n = ppos.len();
    let mut jlo = 0;
    while jlo < n {
        let jhi = (jlo + J_TILE).min(n);
        for (rs, is) in os.chunks_mut(LANE_WIDTH).zip(ips.chunks(LANE_WIDTH)) {
            sweep_tile_lanes::<LANE_WIDTH>(rs, is, jlo..jhi, ppos, pvel, jmass, eps2);
        }
        jlo = jhi;
    }
}

/// One j-chunk of the small-block sweep, lanes across j: each [`JGroup`] of
/// [`J_LANES`] consecutive j-particles is predicted once, on the fly, and
/// swept against every i-particle's [`JLanes`] registers in `row`.
#[inline]
// grape6-lint: hot
fn small_fill_lanes(
    js: std::ops::Range<usize>,
    row: &mut [JLanes],
    ips: &[IParticle],
    t: f64,
    jmem: &JMemory,
    eps2: f64,
) {
    for j0 in js.clone().step_by(J_LANES) {
        let group = jmem.predict_lanes(j0, (js.end - j0).min(J_LANES), t);
        for (lanes, ip) in row.iter_mut().zip(ips) {
            lanes.interact(ip, &group, eps2);
        }
    }
}

/// Exact forces on a small block (at most [`SMALL_BLOCK_MAX`] i-particles)
/// from every particle of `jmem` at time `t` — the one small-block path of
/// the f64 engines. Direct summation costs a few ns per pair where anything
/// that touches all N bodies first (a full prediction pass, a tree build)
/// costs tens of ns per body, so below ~16 i-particles it wins at any N.
///
/// Summation structure (what [`scalar_small_chunk`] defines the scalar way):
/// per [`j_chunk_size`] chunk, [`J_LANES`] interleaved partial sums folded
/// 0 → 7, chunks merged ascending — a function of the j-count alone, so the
/// bits are the same for any `RAYON_NUM_THREADS`. `partials` is the
/// per-chunk register scratch (capacity reused).
// grape6-lint: hot
pub fn small_block_forces(
    jmem: &JMemory,
    partials: &mut Vec<JLanes>,
    t: f64,
    ips: &[IParticle],
    eps2: f64,
    out: &mut [ForceResult],
) {
    debug_assert!(ips.len() <= SMALL_BLOCK_MAX);
    let n = jmem.len();
    chunked_jsweep(
        n,
        j_chunk_size(n),
        partials,
        out,
        |js, row| small_fill_lanes(js, row, ips, t, jmem, eps2),
        |o, lanes| o.merge(&lanes.fold()),
    );
}

/// The scalar definition of one j-chunk of the small-block sum: lane `k` is
/// one [`accumulate_with_nn`] over the chunk's j with
/// `(j − js.start) mod J_LANES = k`, ascending, and the lanes reduce through
/// [`fold_lanes`].
pub fn scalar_small_chunk(
    ip: &IParticle,
    js: std::ops::Range<usize>,
    jpos: &[Vec3],
    jvel: &[Vec3],
    jmass: &[f64],
    eps2: f64,
) -> ForceResult {
    fold_lanes(&std::array::from_fn(|k| {
        let lane = (js.start + k..js.end).step_by(J_LANES);
        accumulate_with_nn(ip, lane, jpos, jvel, jmass, eps2)
    }))
}

/// The scalar definition of [`small_block_forces`] for one i-particle over
/// already-predicted j-particles: [`scalar_small_chunk`] per
/// [`j_chunk_size`] chunk, merged in ascending order.
pub fn scalar_small_block(
    ip: &IParticle,
    jpos: &[Vec3],
    jvel: &[Vec3],
    jmass: &[f64],
    eps2: f64,
) -> ForceResult {
    let (n, chunk) = (jpos.len(), j_chunk_size(jpos.len()));
    let mut o = ForceResult::default();
    for lo in (0..n).step_by(chunk) {
        o.merge(&scalar_small_chunk(ip, lo..(lo + chunk).min(n), jpos, jvel, jmass, eps2));
    }
    o
}

/// Pairwise softened force contribution of a source of mass `mj` at relative
/// position `dx = x_j − x_i` and relative velocity `dv = v_j − v_i`.
///
/// Returns `(acc, jerk, pot)` where
/// `acc  = mj dx / (r² + ε²)^{3/2}`,
/// `jerk = mj [dv − 3 (dx·dv)/(r²+ε²) dx] / (r² + ε²)^{3/2}`,
/// `pot  = −mj / (r² + ε²)^{1/2}`.
///
/// A self-interaction (`dx = dv = 0`) with ε > 0 contributes zero force and
/// jerk but `−mj/ε` of potential; this mirrors the hardware, which does not
/// skip the self term and leaves the potential correction to the host.
#[inline(always)]
// grape6-lint: hot
pub fn pair_force_jerk(dx: Vec3, dv: Vec3, mj: f64, eps2: f64) -> (Vec3, Vec3, f64) {
    let r2 = dx.norm2() + eps2;
    let rinv = 1.0 / r2.sqrt();
    let rinv2 = rinv * rinv;
    let mr3inv = mj * rinv2 * rinv;
    let alpha = 3.0 * dx.dot(dv) * rinv2;
    let acc = dx * mr3inv;
    let jerk = (dv - dx * alpha) * mr3inv;
    (acc, jerk, -mj * rinv)
}

/// Sum the forces on one i-particle over a slice of j-particles, skipping the
/// j-particle whose slot equals `skip` (usize::MAX to disable skipping).
#[inline]
// grape6-lint: hot
pub fn accumulate_on(
    ipos: Vec3,
    ivel: Vec3,
    jpos: &[Vec3],
    jvel: &[Vec3],
    jmass: &[f64],
    eps2: f64,
    skip: usize,
) -> ForceResult {
    debug_assert_eq!(jpos.len(), jvel.len());
    debug_assert_eq!(jpos.len(), jmass.len());
    let mut acc = Vec3::zero();
    let mut jerk = Vec3::zero();
    let mut pot = 0.0;
    for j in 0..jpos.len() {
        if j == skip {
            continue;
        }
        let (a, jk, p) = pair_force_jerk(jpos[j] - ipos, jvel[j] - ivel, jmass[j], eps2);
        acc += a;
        jerk += jk;
        pot += p;
    }
    ForceResult { acc, jerk, pot, nn: None }
}

/// Sum the forces on one i-particle over the j-indices `js`, in order,
/// skipping its own slot and tracking the nearest neighbour (by unsoftened
/// distance) as the GRAPE-6 pipelines do in hardware. The scalar reference
/// loop: the lane kernels must reproduce its bits over an ascending range.
#[inline]
pub fn accumulate_with_nn(
    ip: &IParticle,
    js: impl IntoIterator<Item = usize>,
    jpos: &[Vec3],
    jvel: &[Vec3],
    jmass: &[f64],
    eps2: f64,
) -> ForceResult {
    let js = js.into_iter().map(|j| (j, jpos[j], jvel[j], jmass[j]));
    accumulate_bodies_with_nn(ip, js, eps2)
}

/// [`accumulate_with_nn`] over j-particles given by value as `(index,
/// position, velocity, mass)`, in order: the index alone names the self
/// term and the neighbour. The tree engine sums its neighbour lists, whose
/// bodies it stores in tree order, through it.
#[inline]
// grape6-lint: hot
pub fn accumulate_bodies_with_nn(
    ip: &IParticle,
    js: impl IntoIterator<Item = (usize, Vec3, Vec3, f64)>,
    eps2: f64,
) -> ForceResult {
    let mut acc = Vec3::zero();
    let mut jerk = Vec3::zero();
    let mut pot = 0.0;
    let mut nn: Option<Neighbor> = None;
    for (j, pj, vj, mj) in js {
        if j == ip.index {
            continue;
        }
        let dx = pj - ip.pos;
        let r2 = dx.norm2();
        if nn.is_none_or(|n| r2 < n.r2) {
            nn = Some(Neighbor { index: j, r2 });
        }
        let (a, jk, p) = pair_force_jerk(dx, vj - ip.vel, mj, eps2);
        acc += a;
        jerk += jk;
        pot += p;
    }
    ForceResult { acc, jerk, pot, nn }
}

/// CPU reference force engine: direct summation over a mirrored j-particle
/// store with on-the-fly Hermite prediction — the software equivalent of the
/// GRAPE memory unit + predictor pipeline + force pipelines.
#[derive(Debug, Default, Clone)]
pub struct DirectEngine {
    jmem: JMemory,
    /// Per-chunk lane registers of the small-block sweep (capacity reused).
    partials: Vec<JLanes>,
    eps2: f64,
    interactions: u64,
    force_calls: u64,
}

impl DirectEngine {
    /// Create an engine; j-memory is filled by [`crate::engine::ForceEngine::load`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of `compute` calls since the last counter reset.
    pub fn force_calls(&self) -> u64 {
        self.force_calls
    }
}

impl crate::engine::ForceEngine for DirectEngine {
    fn load(&mut self, sys: &ParticleSystem) {
        self.jmem.load(sys);
        self.eps2 = sys.softening * sys.softening;
    }

    fn update_j(&mut self, sys: &ParticleSystem, indices: &[usize]) {
        self.jmem.update(sys, indices);
    }

    // grape6-lint: hot
    fn compute(&mut self, t: f64, ips: &[IParticle], out: &mut [ForceResult]) {
        assert_eq!(ips.len(), out.len());
        let b = ips.len();
        let n = self.jmem.len();
        // Hardware convention: every i-particle interacts with every resident
        // j-particle (the self term contributes nothing to force/jerk).
        self.interactions += (b as u64) * (n as u64);
        self.force_calls += 1;
        if b == 0 {
            return;
        }
        let eps2 = self.eps2;
        if b > SMALL_BLOCK_MAX {
            // Enough i-particles to fill the pool: predict once, then sweep
            // i-chunks in parallel through the cache-blocked lane kernel.
            // Per-i results are pure functions of (i, all j), so the i-chunk
            // size may follow the thread count without affecting bits.
            self.jmem.predict_all(t);
            let (ppos, pvel) = self.jmem.predicted_all();
            let jmass = self.jmem.mass();
            let threads = rayon::current_num_threads().max(1);
            let ic = b.div_ceil(LANE_WIDTH * threads).next_multiple_of(LANE_WIDTH);
            out.par_chunks_mut(ic)
                .zip(ips.par_chunks(ic))
                .for_each(|(os, is)| tiled_block_sweep(os, is, ppos, pvel, jmass, eps2));
        } else {
            // Few i-particles (the common small-block case): lanes and the
            // pool go across j instead, partial sums reduced like the GRAPE
            // hardware reduction tree, prediction fused into the sweep.
            small_block_forces(&self.jmem, &mut self.partials, t, ips, eps2, out);
        }
    }

    fn interaction_count(&self) -> u64 {
        self.interactions
    }

    fn reset_counters(&mut self) {
        self.interactions = 0;
        self.force_calls = 0;
    }

    fn checkpoint_state(&self) -> Vec<u8> {
        let mut state = Vec::with_capacity(16);
        state.extend_from_slice(&self.interactions.to_le_bytes());
        state.extend_from_slice(&self.force_calls.to_le_bytes());
        state
    }

    fn restore_checkpoint_state(&mut self, state: &[u8]) -> Result<(), String> {
        let mut f = Fields::new(state, "direct-cpu checkpoint state");
        let (interactions, force_calls) = (f.u64()?, f.u64()?);
        f.finish()?;
        (self.interactions, self.force_calls) = (interactions, force_calls);
        Ok(())
    }

    fn name(&self) -> &'static str {
        "direct-cpu"
    }
}

/// The scalar oracle of [`DirectEngine`]: the same j-memory and path split,
/// every sum built from [`accumulate_with_nn`] — one continuous ascending
/// sweep per i-particle for large blocks, [`scalar_small_block`] for small
/// ones (the product's two summation structures round differently).
/// Tests and `grape6-conformance` pin the lane kernels against it bit for
/// bit; it is a type a test names, never an option a run can select.
#[derive(Debug, Default, Clone)]
pub struct ScalarDirectEngine(DirectEngine);

impl crate::engine::ForceEngine for ScalarDirectEngine {
    fn load(&mut self, sys: &ParticleSystem) {
        self.0.load(sys);
    }

    fn update_j(&mut self, sys: &ParticleSystem, indices: &[usize]) {
        self.0.update_j(sys, indices);
    }

    fn compute(&mut self, t: f64, ips: &[IParticle], out: &mut [ForceResult]) {
        assert_eq!(ips.len(), out.len());
        let DirectEngine { jmem, eps2, interactions, .. } = &mut self.0;
        let n = jmem.len();
        *interactions += (ips.len() as u64) * (n as u64);
        jmem.predict_all(t);
        let (ppos, pvel) = jmem.predicted_all();
        let (jmass, eps2) = (jmem.mass(), *eps2);
        for (o, ip) in out.iter_mut().zip(ips) {
            *o = if ips.len() > SMALL_BLOCK_MAX {
                accumulate_with_nn(ip, 0..n, ppos, pvel, jmass, eps2)
            } else {
                scalar_small_block(ip, ppos, pvel, jmass, eps2)
            };
        }
    }

    fn interaction_count(&self) -> u64 {
        self.0.interactions
    }

    fn name(&self) -> &'static str {
        "direct-scalar"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ForceEngine;

    #[test]
    fn pair_force_points_toward_source() {
        let (a, _, p) = pair_force_jerk(Vec3::new(2.0, 0.0, 0.0), Vec3::zero(), 1.0, 0.0);
        assert!(a.x > 0.0 && a.y == 0.0 && a.z == 0.0);
        assert!((a.x - 0.25).abs() < 1e-15); // m/r² = 1/4
        assert!((p + 0.5).abs() < 1e-15); // -m/r = -1/2
    }

    #[test]
    fn pair_force_inverse_square() {
        let (a1, _, _) = pair_force_jerk(Vec3::new(1.0, 0.0, 0.0), Vec3::zero(), 1.0, 0.0);
        let (a2, _, _) = pair_force_jerk(Vec3::new(2.0, 0.0, 0.0), Vec3::zero(), 1.0, 0.0);
        assert!((a1.x / a2.x - 4.0).abs() < 1e-12);
    }

    #[test]
    fn softening_caps_close_approach() {
        let eps2 = 0.01;
        let (a, _, _) = pair_force_jerk(Vec3::new(1e-9, 0.0, 0.0), Vec3::zero(), 1.0, eps2);
        // |a| ≈ m dx / ε³ → tiny, not divergent.
        assert!(a.norm() < 1e-5);
    }

    #[test]
    fn self_interaction_is_neutral_with_softening() {
        let (a, j, p) = pair_force_jerk(Vec3::zero(), Vec3::zero(), 2.0, 0.04);
        assert_eq!(a, Vec3::zero());
        assert_eq!(j, Vec3::zero());
        assert!((p + 2.0 / 0.2).abs() < 1e-12); // -m/ε
    }

    #[test]
    fn jerk_matches_finite_difference_of_force() {
        // Move the pair along their relative velocity and difference the force.
        let dx = Vec3::new(1.0, 0.5, -0.3);
        let dv = Vec3::new(-0.2, 0.1, 0.05);
        let m = 1.7;
        let eps2 = 0.01;
        let h = 1e-6;
        let (_, jerk, _) = pair_force_jerk(dx, dv, m, eps2);
        let (ap, _, _) = pair_force_jerk(dx + dv * h, dv, m, eps2);
        let (am, _, _) = pair_force_jerk(dx - dv * h, dv, m, eps2);
        let fd = (ap - am) / (2.0 * h);
        assert!((jerk - fd).norm() < 1e-7 * jerk.norm().max(1.0), "jerk {jerk:?} vs fd {fd:?}");
    }

    #[test]
    fn accumulate_skips_requested_slot() {
        let jp = vec![Vec3::zero(), Vec3::new(1.0, 0.0, 0.0)];
        let jv = vec![Vec3::zero(); 2];
        let jm = vec![1.0, 1.0];
        let with_skip = accumulate_on(Vec3::zero(), Vec3::zero(), &jp, &jv, &jm, 0.0, 0);
        // Only the j=1 particle contributes.
        assert!((with_skip.acc.x - 1.0).abs() < 1e-15);
        assert!((with_skip.pot + 1.0).abs() < 1e-15);
    }

    fn engine_for(sys: &ParticleSystem) -> DirectEngine {
        let mut e = DirectEngine::new();
        e.load(sys);
        e
    }

    #[test]
    fn newton_third_law_for_equal_mass_pair() {
        let mut sys = ParticleSystem::new(0.0, 0.0);
        sys.push(Vec3::new(1.0, 0.0, 0.0), Vec3::new(0.0, 1.0, 0.0), 2.0);
        sys.push(Vec3::new(-1.0, 0.0, 0.0), Vec3::new(0.0, -1.0, 0.0), 2.0);
        let mut e = engine_for(&sys);
        let ips: Vec<IParticle> =
            (0..2).map(|i| IParticle { index: i, pos: sys.pos[i], vel: sys.vel[i] }).collect();
        let mut out = vec![ForceResult::default(); 2];
        e.compute(0.0, &ips, &mut out);
        // m a_0 = -m a_1
        assert!((out[0].acc + out[1].acc).norm() < 1e-14);
        assert!((out[0].jerk + out[1].jerk).norm() < 1e-14);
    }

    #[test]
    fn interaction_counter_uses_hardware_convention() {
        let mut sys = ParticleSystem::new(0.01, 0.0);
        for k in 0..5 {
            sys.push(Vec3::new(k as f64, 0.0, 0.0), Vec3::zero(), 1.0);
        }
        let mut e = engine_for(&sys);
        let ips: Vec<IParticle> =
            (0..3).map(|i| IParticle { index: i, pos: sys.pos[i], vel: sys.vel[i] }).collect();
        let mut out = vec![ForceResult::default(); 3];
        e.compute(0.0, &ips, &mut out);
        assert_eq!(e.interaction_count(), 3 * 5);
        e.reset_counters();
        assert_eq!(e.interaction_count(), 0);
    }

    #[test]
    fn small_and_large_block_paths_agree() {
        let mut sys = ParticleSystem::new(0.001, 0.0);
        let mut seed = 12345u64;
        let mut rng = move || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (seed >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        for _ in 0..64 {
            sys.push(
                Vec3::new(rng(), rng(), rng()),
                Vec3::new(rng(), rng(), rng()),
                0.01 + rng().abs(),
            );
        }
        let mut e = engine_for(&sys);
        let make_ips = |idx: &[usize]| -> Vec<IParticle> {
            idx.iter().map(|&i| IParticle { index: i, pos: sys.pos[i], vel: sys.vel[i] }).collect()
        };
        // Large block (> SMALL_BLOCK_MAX → tiled per-i parallel path)
        let idx: Vec<usize> = (0..SMALL_BLOCK_MAX + 4).collect();
        let ips_large = make_ips(&idx);
        let mut out_large = vec![ForceResult::default(); idx.len()];
        e.compute(0.0, &ips_large, &mut out_large);
        // Small blocks (fused j-chunk path), one i-particle at a time
        for (k, &i) in idx.iter().enumerate() {
            let ips = make_ips(&[i]);
            let mut out = vec![ForceResult::default(); 1];
            e.compute(0.0, &ips, &mut out);
            // The two summation structures round differently. |jerk| reaches
            // 5e3 here, where 1e-13 is under one ulp: its bound is relative,
            // a few ulps for a 64-term sum (measured: at most 1.9).
            let large = &out_large[k];
            assert!((out[0].acc - large.acc).norm() < 1e-13);
            assert!((out[0].jerk - large.jerk).norm() < 8.0 * f64::EPSILON * large.jerk.norm());
            assert!((out[0].pot - large.pot).abs() < 1e-12);
            assert_eq!(out[0].nn.map(|nb| nb.index), out_large[k].nn.map(|nb| nb.index));
        }
    }

    #[test]
    fn lane_kernels_match_the_scalar_oracle_on_both_paths() {
        // The product engine must agree bit for bit with its scalar oracle
        // on the small-block (j-parallel) and large-block (i-parallel tiled)
        // paths, including ragged blocks not divisible by the lane width, at
        // a block time that makes the predictor live.
        let mut sys = ParticleSystem::new(0.003, 0.0);
        let mut seed = 777u64;
        let mut rng = move || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (seed >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        for i in 0..61 {
            sys.push(
                Vec3::new(rng() * 20.0, rng() * 20.0, rng()),
                Vec3::new(rng(), rng(), rng()),
                1e-8 * (1.0 + rng().abs()),
            );
            sys.acc[i] = Vec3::new(rng(), rng(), rng()) * 1e-3;
            sys.jerk[i] = Vec3::new(rng(), rng(), rng()) * 1e-5;
        }
        fn force<E: ForceEngine + Default>(sys: &ParticleSystem, b: usize) -> Vec<ForceResult> {
            let mut e = E::default();
            e.load(sys);
            let ips: Vec<IParticle> = (0..b)
                .map(|i| {
                    let (pos, vel) = sys.predict(i, 0.25);
                    IParticle { index: i, pos, vel }
                })
                .collect();
            let mut out = vec![ForceResult::default(); b];
            e.compute(0.25, &ips, &mut out);
            assert_eq!(e.interaction_count(), (b * sys.len()) as u64);
            out
        }
        for b in [1usize, 3, 4, 5, 13, 16, 17, 21, 61] {
            let reference = force::<ScalarDirectEngine>(&sys, b);
            let got = force::<DirectEngine>(&sys, b);
            for (k, (g, r)) in got.iter().zip(&reference).enumerate() {
                assert_eq!(g.acc, r.acc, "b={b} k={k} acc");
                assert_eq!(g.jerk, r.jerk, "b={b} k={k} jerk");
                assert_eq!(g.pot.to_bits(), r.pot.to_bits(), "b={b} k={k} pot");
                assert_eq!(
                    g.nn.map(|nb| (nb.index, nb.r2.to_bits())),
                    r.nn.map(|nb| (nb.index, nb.r2.to_bits())),
                    "b={b} k={k} nn"
                );
            }
        }
    }

    /// `n` bodies with live derivatives and staggered individual times.
    fn staggered(n: usize, seed: u64) -> ParticleSystem {
        let mut sys = ParticleSystem::new(0.003, 0.0);
        let mut state = seed;
        let mut rng = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        for i in 0..n {
            sys.push(
                Vec3::new(rng() * 20.0, rng() * 20.0, rng()),
                Vec3::new(rng(), rng(), rng()),
                1e-8 * (1.0 + rng().abs()),
            );
            sys.acc[i] = Vec3::new(rng(), rng(), rng()) * 1e-3;
            sys.jerk[i] = Vec3::new(rng(), rng(), rng()) * 1e-5;
            sys.time[i] = (i % 5) as f64 * 0.03125;
        }
        sys
    }

    fn bits(r: &ForceResult) -> ([u64; 7], Option<(usize, u64)>) {
        let v = [r.acc.x, r.acc.y, r.acc.z, r.jerk.x, r.jerk.y, r.jerk.z, r.pot];
        (v.map(f64::to_bits), r.nn.map(|nb| (nb.index, nb.r2.to_bits())))
    }

    #[test]
    fn small_path_is_the_scalar_definition_for_every_block_size_and_ragged_tail() {
        // j-counts that leave a ragged last group (n mod 8 != 0), a ragged
        // last chunk, and — at 4161 bodies, where the chunk size (66) is not
        // a multiple of J_LANES — a ragged tail in *every* chunk.
        let t = 0.25;
        for n in [1usize, 7, 9, 61, 64, 71, 203, 4161] {
            let sys = staggered(n, 31 + n as u64);
            for b in 1..=SMALL_BLOCK_MAX {
                // i-particles spread over the chunks (so most sweep chunks
                // that do not hold their own slot), the last body, and a
                // probe that is no body at all.
                let mut ips: Vec<IParticle> = (0..b)
                    .map(|k| {
                        let index = (k * n / b + k) % n;
                        let (pos, vel) = sys.predict(index, t);
                        IParticle { index, pos, vel }
                    })
                    .collect();
                ips[b / 2].index = n - 1;
                ips[b - 1] =
                    IParticle { index: usize::MAX, pos: Vec3::new(0.5, -0.25, 0.1), ..ips[b - 1] };
                let mut oracle = ScalarDirectEngine::default();
                oracle.load(&sys);
                let mut want = vec![ForceResult::default(); b];
                oracle.compute(t, &ips, &mut want);
                for threads in [1usize, 2, 4, 8] {
                    let got = rayon::with_num_threads(threads, || {
                        let mut e = engine_for(&sys);
                        let mut out = vec![ForceResult::default(); b];
                        e.compute(t, &ips, &mut out);
                        out
                    });
                    for (k, (g, w)) in got.iter().zip(&want).enumerate() {
                        assert_eq!(bits(g), bits(w), "n={n} b={b} slot {k} threads={threads}");
                    }
                }
            }
        }
    }

    #[test]
    fn small_path_neighbour_is_min_r2_then_lowest_j_and_massless_bodies_count() {
        // 100 bodies = two chunks of 64. Seen from a probe at the origin,
        // two bodies sit at exactly the same distance, nearer than the rest.
        let mut sys = ParticleSystem::new(0.01, 0.0);
        for k in 0..100 {
            sys.push(Vec3::new(10.0 + k as f64, 3.0, 0.0), Vec3::zero(), 1e-6);
        }
        let probe = [IParticle { index: usize::MAX, pos: Vec3::zero(), vel: Vec3::zero() }];
        let nearest = |a: usize, b: usize| {
            let mut tied = sys.clone();
            tied.pos[a] = Vec3::new(2.0, 0.0, 0.0);
            tied.pos[b] = Vec3::new(0.0, -2.0, 0.0);
            // Test particles are bodies like any other.
            tied.mass[a] = 0.0;
            tied.mass[b] = 0.0;
            let mut out = [ForceResult::default()];
            engine_for(&tied).compute(0.0, &probe, &mut out);
            let mut want = [ForceResult::default()];
            let mut oracle = ScalarDirectEngine::default();
            oracle.load(&tied);
            oracle.compute(0.0, &probe, &mut want);
            assert_eq!(bits(&out[0]), bits(&want[0]), "tie {a} / {b}");
            assert_eq!(out[0].nn.map(|nb| nb.r2), Some(4.0));
            out[0].nn.map(|nb| nb.index)
        };
        // Same lane, different lanes with the lower j in the *higher* lane
        // (j = 1 is lane 1, j = 8 lane 0), and either side of a chunk edge.
        assert_eq!(nearest(3, 11), Some(3));
        assert_eq!(nearest(8, 1), Some(1));
        assert_eq!(nearest(70, 10), Some(10));
        assert_eq!(nearest(63, 64), Some(63));
    }

    #[test]
    fn update_j_refreshes_mirror() {
        let mut sys = ParticleSystem::new(0.0, 0.0);
        sys.push(Vec3::zero(), Vec3::zero(), 1.0);
        sys.push(Vec3::new(1.0, 0.0, 0.0), Vec3::zero(), 1.0);
        let mut e = engine_for(&sys);
        sys.pos[1] = Vec3::new(2.0, 0.0, 0.0);
        e.update_j(&sys, &[1]);
        let ips = [IParticle { index: 0, pos: sys.pos[0], vel: sys.vel[0] }];
        let mut out = [ForceResult::default()];
        e.compute(0.0, &ips, &mut out);
        assert!((out[0].acc.x - 0.25).abs() < 1e-15); // 1/2²
    }
}
