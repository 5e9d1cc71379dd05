//! AoSoA SIMD-blocked force tiles — the lane layer of the hot j-sweep.
//!
//! GRAPE-6 reached its throughput by having each physical force pipeline
//! serve eight *virtual multiple pipelines*: one j-particle stream broadcast
//! to a fixed-width bank of i-particle register sets (paper §5.2). This
//! module is the host-side analogue: a [`LaneTile`] packs `W` i-particles
//! into structure-of-arrays lanes (the AoSoA tile; the engine runs
//! `W` = [`LANE_WIDTH`]), and the inner j-sweep broadcasts one j-particle to
//! all `W` lanes per iteration.
//! Every per-lane operation is a straight-line `f64` add/mul/div/sqrt or a
//! select over a fixed-width array, which the autovectorizer lowers to
//! packed SIMD on x86-64 (2 lanes on SSE2, 4 on AVX2) without any `unsafe`
//! or `core::arch` intrinsics — the crate stays `forbid(unsafe_code)`.
//!
//! # Determinism contract (why `LANE_WIDTH` cannot change bits)
//!
//! [`LaneTile`]'s lanes run over **i-particles only**; the j-loop is never
//! split or reordered by the lane structure. Each i-particle's accumulator
//! therefore sees exactly the same contributions in exactly the same
//! ascending-j order as the scalar oracle
//! ([`ScalarDirectEngine`](crate::force::ScalarDirectEngine)), and every
//! lane operation (IEEE-754 add, mul, div, sqrt — all correctly rounded on
//! every target) computes the identical expression tree. Hence the output
//! bits are identical for the oracle and any `W` — a property pinned by
//! `tests/lane_determinism.rs` and the conformance runner's `lanes/*`
//! checks. No FMA contraction is used or permitted (rustc does not contract
//! `a * b + c` across `f64` expressions).
//!
//! # Lanes across j (small blocks)
//!
//! A block of at most `SMALL_BLOCK_MAX` i-particles cannot fill i-lanes — a
//! one-particle block would compute `LANE_WIDTH` copies of one lane — so its
//! sweep turns the tile on its side, as GRAPE-6 itself splits **j** across
//! chips and boards and sums the partial forces in a reduction tree (Makino
//! et al. 2003): [`JGroup`] holds [`J_LANES`] consecutive predicted
//! j-particles and [`JLanes`] one i-particle's `J_LANES` partial sums. Here
//! the lanes *do* split the j-sum, so [`J_LANES`] is part of the small-path
//! summation structure, exactly like `j_chunk_size`: within a j-chunk lane
//! `k` sums the chunk's j with `(j − chunk start) mod J_LANES = k` in
//! ascending order and [`fold_lanes`] adds lanes 0 → `J_LANES − 1`. The
//! scalar oracle sums in that same structure
//! ([`scalar_small_chunk`](crate::force::scalar_small_chunk)), so product
//! and oracle still agree bit for bit, for any thread count.
//!
//! # Remainder-lane rule
//!
//! A block whose i-count is not a multiple of `W` ends in a ragged tile.
//! The tail tile is padded to full width by **replicating lane 0** (same
//! position, velocity and self-skip index); the padding lanes compute real,
//! finite values (no NaN/subnormal slow paths) and are simply never stored.
//! Only `LaneTile::store`'s first `out.len()` lanes are read back, so the
//! padding cannot influence any result bit.

use crate::force::pair_force_jerk;
use crate::particle::{ForceResult, IParticle, Neighbor};
use crate::vec3::Vec3;

/// i-particles per [`LaneTile`] of the direct engine's kernels. A
/// compile-time constant chosen by end-to-end measurement (README, "SIMD
/// kernels"): the output bits cannot depend on it, so it is not an option.
/// The kernels stay generic over `W`; retuning for another CPU is this one
/// constant, backed by `benchmark`'s `core.force.interactions_per_s` (`direct_16k`).
pub const LANE_WIDTH: usize = 8;

/// Sentinel for "no self-index to skip" / "no neighbour seen yet".
const NONE: u64 = u64::MAX;

/// An AoSoA tile: `W` i-particles in structure-of-arrays lanes, together
/// with their running force accumulators and nearest-neighbour registers.
///
/// The field arrays are the software equivalent of the chip's `W` virtual
/// pipeline register sets; one j-particle is broadcast to all of them per
/// [`LaneTile::interact`] call.
#[derive(Debug, Clone)]
pub struct LaneTile<const W: usize> {
    /// i-particle positions (lanes).
    px: [f64; W],
    py: [f64; W],
    pz: [f64; W],
    /// i-particle velocities (lanes).
    vx: [f64; W],
    vy: [f64; W],
    vz: [f64; W],
    /// j-index whose interaction this lane must skip (its own slot), or
    /// [`NONE`].
    skip: [u64; W],
    /// Acceleration accumulators.
    ax: [f64; W],
    ay: [f64; W],
    az: [f64; W],
    /// Jerk accumulators.
    jx: [f64; W],
    jy: [f64; W],
    jz: [f64; W],
    /// Potential accumulators.
    pot: [f64; W],
    /// Nearest-neighbour squared distance (valid only when `nn_j != NONE`).
    nn_r2: [f64; W],
    /// Nearest-neighbour j-index, [`NONE`] until the first candidate.
    nn_j: [u64; W],
}

impl<const W: usize> LaneTile<W> {
    /// Build a tile from up to `W` i-particles, seeding the accumulators
    /// from `prior` (the running [`ForceResult`]s of an outer j-tile loop).
    /// Ragged tails (`ips.len() < W`) are padded by replicating lane 0 (see
    /// the module-level remainder-lane rule).
    #[inline]
    pub fn load(ips: &[IParticle], prior: &[ForceResult]) -> Self {
        assert!(!ips.is_empty() && ips.len() <= W);
        assert_eq!(ips.len(), prior.len());
        let mut t = Self {
            px: [0.0; W],
            py: [0.0; W],
            pz: [0.0; W],
            vx: [0.0; W],
            vy: [0.0; W],
            vz: [0.0; W],
            skip: [NONE; W],
            ax: [0.0; W],
            ay: [0.0; W],
            az: [0.0; W],
            jx: [0.0; W],
            jy: [0.0; W],
            jz: [0.0; W],
            pot: [0.0; W],
            nn_r2: [f64::INFINITY; W],
            nn_j: [NONE; W],
        };
        for k in 0..W {
            // Padding lanes replicate lane 0: real, finite arithmetic whose
            // results are discarded by `store`.
            let (ip, o) = if k < ips.len() { (&ips[k], &prior[k]) } else { (&ips[0], &prior[0]) };
            t.px[k] = ip.pos.x;
            t.py[k] = ip.pos.y;
            t.pz[k] = ip.pos.z;
            t.vx[k] = ip.vel.x;
            t.vy[k] = ip.vel.y;
            t.vz[k] = ip.vel.z;
            t.skip[k] = ip.index as u64;
            t.ax[k] = o.acc.x;
            t.ay[k] = o.acc.y;
            t.az[k] = o.acc.z;
            t.jx[k] = o.jerk.x;
            t.jy[k] = o.jerk.y;
            t.jz[k] = o.jerk.z;
            t.pot[k] = o.pot;
            if let Some(nb) = o.nn {
                t.nn_r2[k] = nb.r2;
                t.nn_j[k] = nb.index as u64;
            }
        }
        t
    }

    /// Broadcast one predicted j-particle to all lanes and accumulate its
    /// force, jerk, potential and nearest-neighbour candidacy.
    ///
    /// Per lane this computes exactly the expression tree of
    /// [`crate::force::pair_force_jerk`] (same association order), with the
    /// self-interaction excluded by a select instead of a branch: masked
    /// lanes keep their previous accumulator bits untouched, which is
    /// bitwise identical to the scalar kernel's `continue`.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    // grape6-lint: hot
    pub fn interact(&mut self, j: usize, pj: Vec3, vj: Vec3, mj: f64, eps2: f64) {
        let j64 = j as u64;
        for k in 0..W {
            let dx = pj.x - self.px[k];
            let dy = pj.y - self.py[k];
            let dz = pj.z - self.pz[k];
            let dvx = vj.x - self.vx[k];
            let dvy = vj.y - self.vy[k];
            let dvz = vj.z - self.vz[k];
            // Same association order as Vec3::norm2: (x² + y²) + z².
            let r2 = dx * dx + dy * dy + dz * dz;
            let active = self.skip[k] != j64;
            // Nearest neighbour: unconditionally take the first non-skipped
            // candidate (matches `Option::is_none_or`), then strict `<`.
            let take = active & ((self.nn_j[k] == NONE) | (r2 < self.nn_r2[k]));
            self.nn_r2[k] = if take { r2 } else { self.nn_r2[k] };
            self.nn_j[k] = if take { j64 } else { self.nn_j[k] };
            // pair_force_jerk, lane-local, identical association order.
            let r2e = r2 + eps2;
            let rinv = 1.0 / r2e.sqrt();
            let rinv2 = rinv * rinv;
            let mr3inv = mj * rinv2 * rinv;
            let rv = dx * dvx + dy * dvy + dz * dvz;
            let alpha = 3.0 * rv * rinv2;
            let nax = self.ax[k] + dx * mr3inv;
            let nay = self.ay[k] + dy * mr3inv;
            let naz = self.az[k] + dz * mr3inv;
            let njx = self.jx[k] + (dvx - dx * alpha) * mr3inv;
            let njy = self.jy[k] + (dvy - dy * alpha) * mr3inv;
            let njz = self.jz[k] + (dvz - dz * alpha) * mr3inv;
            let npot = self.pot[k] + -mj * rinv;
            self.ax[k] = if active { nax } else { self.ax[k] };
            self.ay[k] = if active { nay } else { self.ay[k] };
            self.az[k] = if active { naz } else { self.az[k] };
            self.jx[k] = if active { njx } else { self.jx[k] };
            self.jy[k] = if active { njy } else { self.jy[k] };
            self.jz[k] = if active { njz } else { self.jz[k] };
            self.pot[k] = if active { npot } else { self.pot[k] };
        }
    }

    /// Broadcast one far-field source to all lanes and accumulate its
    /// force, jerk and potential: [`Self::interact`] without the self-skip
    /// and neighbour selects (a source is never an i-particle, and nobody
    /// reads its `nn`), acc, jerk and pot the same expression tree.
    #[inline(always)]
    // grape6-lint: hot
    pub fn interact_source(&mut self, pj: Vec3, vj: Vec3, mj: f64, eps2: f64) {
        for k in 0..W {
            let dx = pj.x - self.px[k];
            let dy = pj.y - self.py[k];
            let dz = pj.z - self.pz[k];
            let dvx = vj.x - self.vx[k];
            let dvy = vj.y - self.vy[k];
            let dvz = vj.z - self.vz[k];
            let r2e = dx * dx + dy * dy + dz * dz + eps2;
            let rinv = 1.0 / r2e.sqrt();
            let rinv2 = rinv * rinv;
            let mr3inv = mj * rinv2 * rinv;
            let rv = dx * dvx + dy * dvy + dz * dvz;
            let alpha = 3.0 * rv * rinv2;
            self.ax[k] += dx * mr3inv;
            self.ay[k] += dy * mr3inv;
            self.az[k] += dz * mr3inv;
            self.jx[k] += (dvx - dx * alpha) * mr3inv;
            self.jy[k] += (dvy - dy * alpha) * mr3inv;
            self.jz[k] += (dvz - dz * alpha) * mr3inv;
            self.pot[k] += -mj * rinv;
        }
    }

    /// Write the first `out.len()` lanes back; padding lanes are dropped.
    #[inline]
    pub fn store(&self, out: &mut [ForceResult]) {
        debug_assert!(out.len() <= W);
        for (k, o) in out.iter_mut().enumerate() {
            o.acc = Vec3::new(self.ax[k], self.ay[k], self.az[k]);
            o.jerk = Vec3::new(self.jx[k], self.jy[k], self.jz[k]);
            o.pot = self.pot[k];
            o.nn = if self.nn_j[k] == NONE {
                None
            } else {
                Some(Neighbor { index: self.nn_j[k] as usize, r2: self.nn_r2[k] })
            };
        }
    }
}

/// Sweep the j-range `jlo..jhi` for up to `W` i-particles through an AoSoA
/// tile, continuing the accumulation already present in `os`.
#[inline]
#[allow(clippy::too_many_arguments)]
// grape6-lint: hot
pub fn sweep_tile_lanes<const W: usize>(
    os: &mut [ForceResult],
    ips: &[IParticle],
    jlo: usize,
    jhi: usize,
    ppos: &[Vec3],
    pvel: &[Vec3],
    jmass: &[f64],
    eps2: f64,
) {
    let mut tile = LaneTile::<W>::load(ips, os);
    for j in jlo..jhi {
        tile.interact(j, ppos[j], pvel[j], jmass[j], eps2);
    }
    tile.store(os);
}

/// Sweep a list of far-field *sources* — accepted tree cells and leaf
/// bodies, which carry no j-index — for up to `W` i-particles, continuing
/// the accumulation in `os`. No lane skips a source (it is never the
/// i-particle itself) and none is a neighbour candidate, so per lane acc,
/// jerk and pot are [`crate::force::accumulate_on`] with skipping
/// disabled, bit for bit, and `nn` passes through untouched.
#[inline]
// grape6-lint: hot
pub fn sweep_sources_lanes<const W: usize>(
    os: &mut [ForceResult],
    ips: &[IParticle],
    spos: &[Vec3],
    svel: &[Vec3],
    smass: &[f64],
    eps2: f64,
) {
    debug_assert_eq!(spos.len(), svel.len());
    debug_assert_eq!(spos.len(), smass.len());
    let mut tile = LaneTile::<W>::load(ips, os);
    for ((&p, &v), &m) in spos.iter().zip(svel).zip(smass) {
        tile.interact_source(p, v, m, eps2);
    }
    tile.store(os);
}

/// j-particles per [`JGroup`] — the lanes of the small-block sweep. Unlike
/// [`LANE_WIDTH`] this is part of the small-path summation structure, like
/// `j_chunk_size`: changing it changes output bits (module docs, "Lanes
/// across j"), so it is a named constant and never an option.
pub const J_LANES: usize = 8;

/// [`J_LANES`] consecutive j-particles predicted to the block time, one per
/// lane ([`JMemory::predict_lanes`](crate::jmem::JMemory::predict_lanes)).
/// A ragged group (`w < J_LANES`, the tail of a j-chunk) replicates its last
/// j-particle into the unused lanes: real, finite arithmetic that
/// [`JLanes::interact`] masks out.
#[derive(Debug, Clone)]
pub struct JGroup {
    /// j-index of lane 0.
    pub(crate) j0: usize,
    /// Lanes that hold a j-particle of their own (`1..=J_LANES`).
    pub(crate) w: usize,
    pub(crate) px: [f64; J_LANES],
    pub(crate) py: [f64; J_LANES],
    pub(crate) pz: [f64; J_LANES],
    pub(crate) vx: [f64; J_LANES],
    pub(crate) vy: [f64; J_LANES],
    pub(crate) vz: [f64; J_LANES],
    pub(crate) mass: [f64; J_LANES],
}

/// One i-particle's register file in the small-block sweep: [`J_LANES`]
/// partial sums and nearest-neighbour registers, lane `k` fed by the `k`-th
/// j-particle of every [`JGroup`] of one j-chunk (the f64 twin of
/// `grape6_hw::lanes::GrapeJLanes`).
#[derive(Debug, Clone)]
pub struct JLanes {
    ax: [f64; J_LANES],
    ay: [f64; J_LANES],
    az: [f64; J_LANES],
    jx: [f64; J_LANES],
    jy: [f64; J_LANES],
    jz: [f64; J_LANES],
    pot: [f64; J_LANES],
    /// Nearest-neighbour squared distance (valid only when `nn_j != NONE`).
    nn_r2: [f64; J_LANES],
    /// Nearest-neighbour j-index, [`NONE`] until the first candidate.
    nn_j: [u64; J_LANES],
}

impl Default for JLanes {
    fn default() -> Self {
        Self {
            ax: [0.0; J_LANES],
            ay: [0.0; J_LANES],
            az: [0.0; J_LANES],
            jx: [0.0; J_LANES],
            jy: [0.0; J_LANES],
            jz: [0.0; J_LANES],
            pot: [0.0; J_LANES],
            nn_r2: [f64::INFINITY; J_LANES],
            nn_j: [NONE; J_LANES],
        }
    }
}

impl JLanes {
    /// Broadcast one i-particle to the lanes of `g` and accumulate each
    /// lane's force, jerk, potential and nearest-neighbour candidacy.
    ///
    /// Per lane this is [`LaneTile::interact`] with the roles swapped: one
    /// [`pair_force_jerk`], the lane of the i-particle's own slot and the
    /// unused lanes of a ragged group excluded by a select that leaves their
    /// accumulator bits untouched.
    #[inline(always)]
    // grape6-lint: hot
    pub fn interact(&mut self, ip: &IParticle, g: &JGroup, eps2: f64) {
        let skip = ip.index as u64;
        let (j0, end) = (g.j0 as u64, (g.j0 + g.w) as u64);
        for k in 0..J_LANES {
            let j64 = j0 + k as u64;
            let dx = Vec3::new(g.px[k], g.py[k], g.pz[k]) - ip.pos;
            let dv = Vec3::new(g.vx[k], g.vy[k], g.vz[k]) - ip.vel;
            let r2 = dx.norm2();
            let active = (j64 != skip) & (j64 < end);
            let take = active & ((self.nn_j[k] == NONE) | (r2 < self.nn_r2[k]));
            self.nn_r2[k] = if take { r2 } else { self.nn_r2[k] };
            self.nn_j[k] = if take { j64 } else { self.nn_j[k] };
            let (a, jk, p) = pair_force_jerk(dx, dv, g.mass[k], eps2);
            self.ax[k] = if active { self.ax[k] + a.x } else { self.ax[k] };
            self.ay[k] = if active { self.ay[k] + a.y } else { self.ay[k] };
            self.az[k] = if active { self.az[k] + a.z } else { self.az[k] };
            self.jx[k] = if active { self.jx[k] + jk.x } else { self.jx[k] };
            self.jy[k] = if active { self.jy[k] + jk.y } else { self.jy[k] };
            self.jz[k] = if active { self.jz[k] + jk.z } else { self.jz[k] };
            self.pot[k] = if active { self.pot[k] + p } else { self.pot[k] };
        }
    }

    /// Reduce the lanes to the j-chunk's partial result ([`fold_lanes`]).
    #[inline]
    pub fn fold(&self) -> ForceResult {
        fold_lanes(&std::array::from_fn(|k| ForceResult {
            acc: Vec3::new(self.ax[k], self.ay[k], self.az[k]),
            jerk: Vec3::new(self.jx[k], self.jy[k], self.jz[k]),
            pot: self.pot[k],
            nn: (self.nn_j[k] != NONE)
                .then(|| Neighbor { index: self.nn_j[k] as usize, r2: self.nn_r2[k] }),
        }))
    }
}

/// The reduction of the small-block sweep's lanes, defined once for the
/// product kernel and its scalar oracle: lane 0, then lanes 1 → `J_LANES − 1`
/// [merged](ForceResult::merge) in that order — sums add left to right, the
/// nearest neighbour is the minimum r², then the lowest j.
#[inline]
pub fn fold_lanes(lanes: &[ForceResult; J_LANES]) -> ForceResult {
    let mut o = lanes[0];
    for lane in &lanes[1..] {
        o.merge(lane);
    }
    o
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::force::accumulate_with_nn;

    fn jset(n: usize) -> (Vec<Vec3>, Vec<Vec3>, Vec<f64>) {
        let mut seed = 99u64;
        let mut rng = move || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (seed >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let mut pos = Vec::new();
        let mut vel = Vec::new();
        let mut mass = Vec::new();
        for _ in 0..n {
            pos.push(Vec3::new(rng() * 30.0, rng() * 30.0, rng()));
            vel.push(Vec3::new(rng(), rng(), rng()));
            mass.push(1e-9 * (1.0 + rng().abs()));
        }
        (pos, vel, mass)
    }

    fn assert_tile_matches_scalar<const W: usize>(b: usize) {
        let (pos, vel, mass) = jset(37);
        let eps2 = 0.008 * 0.008;
        let ips: Vec<IParticle> =
            (0..b).map(|i| IParticle { index: i, pos: pos[i], vel: vel[i] }).collect();
        let mut out = vec![ForceResult::default(); b];
        // Two j-segments to exercise accumulator reload between tiles.
        sweep_tile_lanes::<W>(&mut out, &ips, 0, 20, &pos, &vel, &mass, eps2);
        sweep_tile_lanes::<W>(&mut out, &ips, 20, 37, &pos, &vel, &mass, eps2);
        for (k, ip) in ips.iter().enumerate() {
            let want = accumulate_with_nn(ip, 0..37, &pos, &vel, &mass, eps2);
            assert_eq!(out[k].acc, want.acc, "W={W} b={b} lane {k} acc");
            assert_eq!(out[k].jerk, want.jerk, "W={W} b={b} lane {k} jerk");
            assert_eq!(out[k].pot.to_bits(), want.pot.to_bits(), "W={W} b={b} lane {k} pot");
            assert_eq!(out[k].nn.map(|n| n.index), want.nn.map(|n| n.index));
            assert_eq!(out[k].nn.map(|n| n.r2.to_bits()), want.nn.map(|n| n.r2.to_bits()));
        }
    }

    #[test]
    fn full_tiles_match_scalar_bitwise() {
        assert_tile_matches_scalar::<4>(4);
        assert_tile_matches_scalar::<8>(8);
    }

    #[test]
    fn ragged_tiles_match_scalar_bitwise() {
        // Every remainder count 1..W−1 for both widths.
        for b in 1..4 {
            assert_tile_matches_scalar::<4>(b);
        }
        for b in 1..8 {
            assert_tile_matches_scalar::<8>(b);
        }
    }

    #[test]
    fn self_interaction_is_skipped_like_scalar() {
        // i-particles that are also j-particles: the skip select must keep
        // accumulator bits untouched and exclude self from the neighbour.
        let (pos, vel, mass) = jset(9);
        let ips: Vec<IParticle> =
            (0..3).map(|i| IParticle { index: i, pos: pos[i], vel: vel[i] }).collect();
        let mut out = vec![ForceResult::default(); 3];
        sweep_tile_lanes::<4>(&mut out, &ips, 0, 9, &pos, &vel, &mass, 1e-4);
        for (k, ip) in ips.iter().enumerate() {
            assert_ne!(out[k].nn.unwrap().index, ip.index);
            let want = accumulate_with_nn(ip, 0..9, &pos, &vel, &mass, 1e-4);
            assert_eq!(out[k].acc, want.acc);
        }
    }

    #[test]
    fn source_sweep_matches_accumulate_on_and_never_skips() {
        // Sources have no j-index: an i-particle whose own index equals a
        // list position (0..3 here), or the NONE sentinel of an external
        // probe, must still take every source — and no source is ever
        // reported as a neighbour.
        let (pos, vel, mass) = jset(21);
        let eps2 = 1e-4;
        let mut ips: Vec<IParticle> =
            (0..5).map(|i| IParticle { index: i, pos: pos[i] * 3.0, vel: vel[i] }).collect();
        ips[4].index = usize::MAX;
        for w in [4usize, 8] {
            let mut out = vec![ForceResult::default(); 5];
            for (os, is) in out.chunks_mut(w).zip(ips.chunks(w)) {
                match w {
                    4 => sweep_sources_lanes::<4>(os, is, &pos, &vel, &mass, eps2),
                    _ => sweep_sources_lanes::<8>(os, is, &pos, &vel, &mass, eps2),
                }
            }
            for (k, ip) in ips.iter().enumerate() {
                let want = crate::force::accumulate_on(
                    ip.pos,
                    ip.vel,
                    &pos,
                    &vel,
                    &mass,
                    eps2,
                    usize::MAX,
                );
                assert_eq!(out[k].acc, want.acc, "W={w} lane {k} acc");
                assert_eq!(out[k].jerk, want.jerk, "W={w} lane {k} jerk");
                assert_eq!(out[k].pot.to_bits(), want.pot.to_bits(), "W={w} lane {k} pot");
                assert!(out[k].nn.is_none(), "W={w} lane {k}: a source is no neighbour");
            }
        }
    }
}
