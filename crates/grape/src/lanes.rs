//! Lane kernels for the simulated GRAPE-6 force pipelines.
//!
//! The real chip feeds one j-particle to eight *virtual multiple pipelines*
//! per physical pipeline (paper §5.2). [`GrapeLaneTile`] is the software
//! analogue for large blocks: `W` i-particle register sets in
//! structure-of-arrays lanes, one broadcast j-particle per
//! [`GrapeLaneTile::interact`]. [`GrapeJLanes`] turns the tile on its side
//! for small blocks: one i-particle, `W` consecutive j-particles predicted
//! and swept per [`GrapeJLanes::interact`], so a one-particle block fills
//! every lane with useful work.
//!
//! Both run the whole stage chain of [`crate::pipeline::pipeline_interaction`]
//! as one straight-line `for k in 0..W` loop that the autovectorizer lowers
//! to packed SIMD: exact fixed-point subtraction, decode, the 19 stage
//! roundings as the integer identity of [`ShortWord::round`], and the seven
//! wide accumulators as deferred-carry limbs ([`split_limbs`]) — `i64` digit
//! lanes that are folded into the `i128` registers every 2¹⁶ contributions
//! and at `store`.
//!
//! Determinism: every stage is exact integer arithmetic or one correctly
//! rounded IEEE f64 operation followed by the rounding the scalar path
//! applies, and the limb digits of a contribution sum to exactly the integer
//! [`FixedAccumulator::add`](crate::format::FixedAccumulator::add) would add.
//! Integer sums are associative, so neither the lane width nor which side of
//! the interaction the lanes span can change an output bit — the contract
//! pinned against [`scalar_sweep`] here and by the conformance runner's
//! `lanes/*` checks. A contribution outside the limb domain (NaN, ±∞,
//! |x| ≥ 2³⁰) is detected by one OR-reduced flag per j and rerouted through
//! the scalar accumulator, never summed differently.
//!
//! Ragged i-tiles follow the core remainder-lane rule: padded by replicating
//! lane 0, padding results never stored. Ragged j-groups never reach
//! [`GrapeJLanes`]: the caller sweeps the `< W` leftover j with
//! [`scalar_sweep`] and merges.

use crate::chip::HwIParticle;
use crate::format::{
    limbs_out_of_domain, split_limbs, FixedPointFormat, Precision, ShortWord, LIMB_FOLD_INTERVAL,
};
use crate::pipeline::PipelineRegisters;
use crate::predictor::{predict_lane, JParticle, PredictedJ};
use grape6_core::particle::{IParticle, Neighbor};
use grape6_core::vec3::Vec3;

/// Lanes per [`GrapeLaneTile`] / [`GrapeJLanes`] of the engine's kernels. A
/// compile-time constant chosen by end-to-end measurement (README, "SIMD
/// kernels": 4 beats 8 on 10 of 10 `grape6_2k` pairs — the integer limb
/// lanes fill 256-bit vectors); the output bits cannot depend on it, so it
/// is not an option. The kernels stay generic over `W`; retuning for another
/// CPU is this one constant, backed by `benchmark`'s `grape.engine.interactions_per_s`.
pub const LANE_WIDTH: usize = 4;

/// Partial pipeline state for one i-particle over one j-chunk. The
/// fixed-point accumulators merge exactly associatively (the hardware
/// reduction-tree property), so chunked partials read out bit-identically
/// to one flat sweep — for any chunking, on any thread count.
#[derive(Debug, Clone, Copy, Default)]
pub struct SweepPartial {
    /// Accumulated pipeline output registers.
    pub regs: PipelineRegisters,
    /// Running nearest-neighbour candidate.
    pub nn: Option<Neighbor>,
}

impl SweepPartial {
    /// Hardware reduction-tree merge (ascending chunk order keeps the
    /// first-minimum nearest-neighbour tie-break deterministic).
    pub fn merge(&mut self, other: &Self) {
        self.regs.merge(&other.regs);
        if let Some(nb) = other.nn {
            if self.nn.is_none_or(|t| nb.r2 < t.r2) {
                self.nn = Some(nb);
            }
        }
    }
}

/// The scalar oracle: sweep the predicted j-particles `js` (index, state)
/// for one i-particle through [`PipelineRegisters::accumulate`]. The lane
/// kernels must reproduce this bit for bit; the engine itself runs it only
/// over the `< W` leftover j of a small-block chunk.
///
/// The force accumulates *unmasked* over every j, the own slot included
/// (its self term contributes no force but −m/ε of potential, removed by
/// the host at readout) — the hardware convention. Only the
/// nearest-neighbour search masks the own slot; it uses the **unrounded**
/// fixed-point difference and keeps the first minimum.
pub fn scalar_sweep(
    fmt: &FixedPointFormat,
    precision: Precision,
    ip: &IParticle,
    js: impl IntoIterator<Item = (usize, PredictedJ)>,
    eps2: f64,
) -> SweepPartial {
    let hw = HwIParticle::encode(fmt, precision, ip.pos, ip.vel);
    let mut p = SweepPartial::default();
    for (j, pj) in js {
        p.regs.accumulate(fmt, precision, hw.qpos, pj.qpos, hw.vel, pj.vel, pj.mass, eps2);
        if j != ip.index {
            let dx = fmt.decode_vec([
                pj.qpos[0].wrapping_sub(hw.qpos[0]),
                pj.qpos[1].wrapping_sub(hw.qpos[1]),
                pj.qpos[2].wrapping_sub(hw.qpos[2]),
            ]);
            let r2 = dx.norm2();
            if p.nn.is_none_or(|n| r2 < n.r2) {
                p.nn = Some(Neighbor { index: j, r2 });
            }
        }
    }
    p
}

/// Sentinel for "no neighbour seen yet" in the lane registers.
const NONE: u64 = u64::MAX;

/// The seven rounded outputs of one pairwise interaction, in register
/// order: acc x/y/z, jerk x/y/z, pot.
type Contribution = [f64; 7];

/// One lane of the force pipeline: stages 1–3 of
/// [`crate::pipeline::pipeline_interaction`] on the exact fixed-point
/// difference `dq = q_j − q_i`. Also returns the unrounded r² the
/// nearest-neighbour unit compares (same association order as
/// `Vec3::norm2`).
#[inline(always)]
// grape6-lint: hot
fn pipeline_lane(
    word: ShortWord,
    res: f64,
    eps2: f64,
    dq: [i64; 3],
    vi: [f64; 3],
    vj: [f64; 3],
    mj: f64,
) -> (Contribution, f64) {
    // Stage 1: decode the exact difference (unrounded).
    let dxu = dq[0] as f64 * res;
    let dyu = dq[1] as f64 * res;
    let dzu = dq[2] as f64 * res;
    let r2u = dxu * dxu + dyu * dyu + dzu * dzu;
    // Stage 2: conversion to the short pipeline word.
    let dx = word.round(dxu);
    let dy = word.round(dyu);
    let dz = word.round(dzu);
    let dvx = word.round(vj[0] - vi[0]);
    let dvy = word.round(vj[1] - vi[1]);
    let dvz = word.round(vj[2] - vi[2]);
    // Stage 3: the arithmetic pipeline, one rounding per stage.
    let r2 = word.round(dx * dx + dy * dy + dz * dz + eps2);
    let rinv = word.round(1.0 / r2.sqrt());
    let rinv2 = word.round(rinv * rinv);
    let mr3inv = word.round(mj * word.round(rinv2 * rinv));
    let rv = word.round(dx * dvx + dy * dvy + dz * dvz);
    let alpha = word.round(3.0 * rv * rinv2);
    let c = [
        word.round(dx * mr3inv),
        word.round(dy * mr3inv),
        word.round(dz * mr3inv),
        word.round((dvx - dx * alpha) * mr3inv),
        word.round((dvy - dy * alpha) * mr3inv),
        word.round((dvz - dz * alpha) * mr3inv),
        word.round(-mj * rinv),
    ];
    (c, r2u)
}

/// Deferred-carry limbs of the seven wide accumulators, `W` lanes each, and
/// the protocol around them: add in the lane loop, then [`close_j`] once per
/// j — reroute if a lane flagged, fold when the interval is up.
///
/// [`close_j`]: Self::close_j
#[derive(Debug, Clone)]
struct LimbBank<const W: usize> {
    /// `d[register][digit][lane]`: running sums of [`split_limbs`] digits.
    d: [[[i64; W]; 3]; 7],
    /// Contributions per lane in `d` not yet folded into the registers.
    pending: u32,
    /// The current j's contributions, `[register][lane]`, kept for a reroute.
    last: [[f64; W]; 7],
    /// Per lane: nonzero iff the current j left the limb domain there. (A
    /// per-lane array, OR-reduced after the loop: a scalar reduction carried
    /// through the lane loop stops it vectorising.)
    bad: [u64; W],
}

impl<const W: usize> LimbBank<W> {
    fn new() -> Self {
        Self { d: [[[0; W]; 3]; 7], pending: 0, last: [[0.0; W]; 7], bad: [0; W] }
    }

    /// Stage 4 for lane `k` of the current j: wide accumulation, carries
    /// deferred.
    #[inline(always)]
    // grape6-lint: hot
    fn add(&mut self, k: usize, c: &Contribution) {
        let mut bad = 0;
        for ((d, last), &x) in self.d.iter_mut().zip(&mut self.last).zip(c) {
            let s = split_limbs(x);
            d[0][k] = d[0][k].wrapping_add(s[0]);
            d[1][k] = d[1][k].wrapping_add(s[1]);
            d[2][k] = d[2][k].wrapping_add(s[2]);
            bad |= limbs_out_of_domain(s[2]);
            last[k] = x;
        }
        self.bad[k] = bad;
    }

    /// Close the current j after every lane has [`add`](Self::add)ed its
    /// contribution. Lane `k` accumulates into `regs[k % regs.len()]`: `W`
    /// register sets for the i-lane tile, one for the j-lane sweep.
    #[inline(always)]
    // grape6-lint: hot
    fn close_j(&mut self, regs: &mut [PipelineRegisters]) {
        self.pending += 1;
        if self.bad.iter().fold(0, |a, b| a | b) != 0 {
            self.reroute(regs);
        }
        if self.pending == LIMB_FOLD_INTERVAL {
            self.fold(regs);
        }
    }

    /// Out-of-domain j: take its digits back out of every lane (wrapping
    /// `i64` arithmetic is exactly invertible, whatever the digits were) and
    /// send the contributions through the scalar accumulator instead.
    #[cold]
    #[inline(never)]
    fn reroute(&mut self, regs: &mut [PipelineRegisters]) {
        for k in 0..W {
            let c = self.last.map(|lane| lane[k]);
            for (d, x) in self.d.iter_mut().zip(c) {
                let s = split_limbs(x);
                d[0][k] = d[0][k].wrapping_sub(s[0]);
                d[1][k] = d[1][k].wrapping_sub(s[1]);
                d[2][k] = d[2][k].wrapping_sub(s[2]);
            }
            let r = &mut regs[k % regs.len()];
            r.acc.add(Vec3::new(c[0], c[1], c[2]));
            r.jerk.add(Vec3::new(c[3], c[4], c[5]));
            r.pot.add(c[6]);
        }
    }

    /// Fold every lane's digit sums into its register set and zero them.
    fn fold(&mut self, regs: &mut [PipelineRegisters]) {
        for k in 0..W {
            let sums = self.d.map(|digits| digits.map(|lanes| i128::from(lanes[k])));
            let r = &mut regs[k % regs.len()];
            r.acc.add_limbs([sums[0], sums[1], sums[2]]);
            r.jerk.add_limbs([sums[3], sums[4], sums[5]]);
            r.pot.add_limbs(sums[6]);
            r.count += u64::from(self.pending);
        }
        self.d = [[[0; W]; 3]; 7];
        self.pending = 0;
    }
}

/// Nearest-neighbour lane registers: per lane, the first minimum of the
/// candidates offered to it.
#[derive(Debug, Clone)]
struct NearestLanes<const W: usize> {
    /// r² of the candidate (valid only when `j != NONE`).
    r2: [f64; W],
    /// j-index of the candidate, [`NONE`] until the first one.
    j: [u64; W],
}

impl<const W: usize> NearestLanes<W> {
    fn new() -> Self {
        Self { r2: [f64::INFINITY; W], j: [NONE; W] }
    }

    /// Offer candidate `j` at distance² `r2` to lane `k` unless `skip`:
    /// unconditionally take the first one (matches `Option::is_none_or`),
    /// then strict `<`.
    #[inline(always)]
    // grape6-lint: hot
    fn offer(&mut self, k: usize, skip: bool, j: u64, r2: f64) {
        let take = !skip & ((self.j[k] == NONE) | (r2 < self.r2[k]));
        self.r2[k] = if take { r2 } else { self.r2[k] };
        self.j[k] = if take { j } else { self.j[k] };
    }

    fn get(&self, k: usize) -> Option<Neighbor> {
        (self.j[k] != NONE).then(|| Neighbor { index: self.j[k] as usize, r2: self.r2[k] })
    }
}

/// `W` virtual-pipeline register sets in structure-of-arrays lanes (the
/// large-block kernel: lanes span i-particles, one j broadcast per call).
#[derive(Debug, Clone)]
pub struct GrapeLaneTile<const W: usize> {
    word: ShortWord,
    res: f64,
    /// Fixed-point i-positions (lanes).
    qx: [i64; W],
    qy: [i64; W],
    qz: [i64; W],
    /// Pipeline-word i-velocities (lanes).
    vx: [f64; W],
    vy: [f64; W],
    vz: [f64; W],
    /// j-index excluded from the nearest-neighbour search per lane (the
    /// force sum runs unmasked over all j, exactly like the hardware).
    skip: [u64; W],
    limbs: LimbBank<W>,
    /// Wide fixed-point accumulators, one register set per lane.
    regs: [PipelineRegisters; W],
    nn: NearestLanes<W>,
}

impl<const W: usize> GrapeLaneTile<W> {
    /// Encode up to `W` i-particles into a tile with zeroed registers.
    /// Ragged tails are padded by replicating lane 0.
    pub fn load(fmt: &FixedPointFormat, precision: Precision, ips: &[IParticle]) -> Self {
        assert!(!ips.is_empty() && ips.len() <= W);
        let mut t = Self {
            word: ShortWord::new(precision.mantissa_bits()),
            res: fmt.resolution(),
            qx: [0; W],
            qy: [0; W],
            qz: [0; W],
            vx: [0.0; W],
            vy: [0.0; W],
            vz: [0.0; W],
            skip: [NONE; W],
            limbs: LimbBank::new(),
            regs: [PipelineRegisters::new(); W],
            nn: NearestLanes::new(),
        };
        for k in 0..W {
            let ip = if k < ips.len() { &ips[k] } else { &ips[0] };
            let hw = HwIParticle::encode(fmt, precision, ip.pos, ip.vel);
            t.qx[k] = hw.qpos[0];
            t.qy[k] = hw.qpos[1];
            t.qz[k] = hw.qpos[2];
            t.vx[k] = hw.vel.x;
            t.vy[k] = hw.vel.y;
            t.vz[k] = hw.vel.z;
            t.skip[k] = ip.index as u64;
        }
        t
    }

    /// Feed one predicted j-particle through all `W` lanes.
    #[inline(always)]
    // grape6-lint: hot
    pub fn interact(&mut self, j: usize, pj: &PredictedJ, eps2: f64) {
        let (word, res) = (self.word, self.res);
        let j64 = j as u64;
        let vj = pj.vel.to_array();
        for k in 0..W {
            let dq = [
                pj.qpos[0].wrapping_sub(self.qx[k]),
                pj.qpos[1].wrapping_sub(self.qy[k]),
                pj.qpos[2].wrapping_sub(self.qz[k]),
            ];
            let vi = [self.vx[k], self.vy[k], self.vz[k]];
            let (c, r2u) = pipeline_lane(word, res, eps2, dq, vi, vj, pj.mass);
            self.nn.offer(k, self.skip[k] == j64, j64, r2u);
            self.limbs.add(k, &c);
        }
        self.limbs.close_j(&mut self.regs);
    }

    /// Write the first `out.len()` lanes back as partials (padding dropped).
    pub fn store(mut self, out: &mut [SweepPartial]) {
        debug_assert!(out.len() <= W);
        self.limbs.fold(&mut self.regs);
        for (k, o) in out.iter_mut().enumerate() {
            *o = SweepPartial { regs: self.regs[k], nn: self.nn.get(k) };
        }
    }
}

/// One virtual pipeline swept `W` j-particles at a time (the small-block
/// kernel: lanes span *consecutive j*, the i-particle is broadcast, and the
/// predictor runs in the same lane loop). The limb lanes and the per-lane
/// nearest-neighbour registers reduce to one register set at
/// [`store`](Self::store).
#[derive(Debug, Clone)]
pub struct GrapeJLanes<const W: usize> {
    word: ShortWord,
    res: f64,
    scale: f64,
    qi: [i64; 3],
    vi: [f64; 3],
    skip: u64,
    limbs: LimbBank<W>,
    regs: PipelineRegisters,
    nn: NearestLanes<W>,
}

impl<const W: usize> GrapeJLanes<W> {
    /// Encode one i-particle with zeroed registers.
    pub fn load(fmt: &FixedPointFormat, precision: Precision, ip: &IParticle) -> Self {
        let hw = HwIParticle::encode(fmt, precision, ip.pos, ip.vel);
        Self {
            word: ShortWord::new(precision.mantissa_bits()),
            res: fmt.resolution(),
            scale: fmt.scale(),
            qi: hw.qpos,
            vi: hw.vel.to_array(),
            skip: ip.index as u64,
            limbs: LimbBank::new(),
            regs: PipelineRegisters::new(),
            nn: NearestLanes::new(),
        }
    }

    /// Predict the j-particles `j0..j0 + W` (`js`, in memory order) to block
    /// time `t` and feed each through the pipeline in its own lane.
    #[inline(always)]
    // grape6-lint: hot
    pub fn interact(&mut self, j0: usize, js: &[JParticle; W], t: f64, eps2: f64) {
        let (word, res, scale) = (self.word, self.res, self.scale);
        for (k, j) in js.iter().enumerate() {
            let (qj, vj) = predict_lane(word, scale, j, t);
            let dq = [
                qj[0].wrapping_sub(self.qi[0]),
                qj[1].wrapping_sub(self.qi[1]),
                qj[2].wrapping_sub(self.qi[2]),
            ];
            let (c, r2u) = pipeline_lane(word, res, eps2, dq, self.vi, vj, j.mass);
            let j64 = (j0 + k) as u64;
            self.nn.offer(k, self.skip == j64, j64, r2u);
            self.limbs.add(k, &c);
        }
        self.limbs.close_j(std::slice::from_mut(&mut self.regs));
    }

    /// Reduce the lanes to one partial. The nearest neighbour is the
    /// minimum r² across lanes, then the lowest j — which is the first
    /// minimum of the ascending sweep, since each lane kept its own first.
    pub fn store(mut self) -> SweepPartial {
        self.limbs.fold(std::slice::from_mut(&mut self.regs));
        let mut nn: Option<Neighbor> = None;
        for nb in (0..W).filter_map(|k| self.nn.get(k)) {
            if nn.is_none_or(|n| nb.r2 < n.r2 || (nb.r2 == n.r2 && nb.index < n.index)) {
                nn = Some(nb);
            }
        }
        SweepPartial { regs: self.regs, nn }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::predict_j;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn jmem(fmt: &FixedPointFormat, precision: Precision, n: usize) -> Vec<JParticle> {
        let mut seed = 31u64;
        let mut rng = move || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (seed >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        (0..n)
            .map(|_| {
                JParticle::encode(
                    fmt,
                    precision,
                    Vec3::new(rng() * 30.0, rng() * 30.0, rng()),
                    Vec3::new(rng(), rng(), rng()),
                    Vec3::new(rng(), rng(), rng()) * 1e-3,
                    Vec3::new(rng(), rng(), rng()) * 1e-5,
                    1e-9 * (1.0 + rng().abs()),
                    0.0,
                )
            })
            .collect()
    }

    const T: f64 = 0.125;
    const EPS2: f64 = 0.008 * 0.008;

    /// Every output bit of a partial, comparable with `assert_eq!`.
    type Bits = ([u64; 7], u64, Option<(usize, u64)>);

    fn bits(p: &SweepPartial) -> Bits {
        let (a, j, pot) = p.regs.read();
        let f = [a.x, a.y, a.z, j.x, j.y, j.z, pot].map(f64::to_bits);
        (f, p.regs.count, p.nn.map(|n| (n.index, n.r2.to_bits())))
    }

    fn oracle(precision: Precision, ip: &IParticle, mem: &[JParticle], eps2: f64) -> SweepPartial {
        let fmt = FixedPointFormat::default();
        let js = mem.iter().map(|j| predict_j(&fmt, precision, j, T)).enumerate();
        scalar_sweep(&fmt, precision, ip, js, eps2)
    }

    /// i-lane tile over all of `mem`, in two chunks merged like the engine's
    /// reduction tree.
    fn tile_sweep<const W: usize>(
        precision: Precision,
        ips: &[IParticle],
        mem: &[JParticle],
        eps2: f64,
    ) -> Vec<SweepPartial> {
        let fmt = FixedPointFormat::default();
        let cut = mem.len() * 5 / 9;
        let mut out = vec![SweepPartial::default(); ips.len()];
        for js in [0..cut, cut..mem.len()] {
            let mut part = vec![SweepPartial::default(); ips.len()];
            let mut tile = GrapeLaneTile::<W>::load(&fmt, precision, ips);
            for j in js {
                tile.interact(j, &predict_j(&fmt, precision, &mem[j], T), eps2);
            }
            tile.store(&mut part);
            for (o, p) in out.iter_mut().zip(&part) {
                o.merge(p);
            }
        }
        out
    }

    /// j-lane sweep over the full groups of `mem`, scalar tail merged after.
    fn jlane_sweep<const W: usize>(
        precision: Precision,
        ip: &IParticle,
        mem: &[JParticle],
        eps2: f64,
    ) -> SweepPartial {
        let fmt = FixedPointFormat::default();
        let (groups, tail) = mem.as_chunks::<W>();
        let mut lanes = GrapeJLanes::<W>::load(&fmt, precision, ip);
        for (g, group) in groups.iter().enumerate() {
            lanes.interact(g * W, group, T, eps2);
        }
        let mut out = lanes.store();
        let first = mem.len() - tail.len();
        let js =
            tail.iter().enumerate().map(|(k, j)| (first + k, predict_j(&fmt, precision, j, T)));
        out.merge(&scalar_sweep(&fmt, precision, ip, js, eps2));
        out
    }

    fn ips_of(mem: &[JParticle], idx: impl IntoIterator<Item = usize>) -> Vec<IParticle> {
        let fmt = FixedPointFormat::default();
        idx.into_iter()
            .map(|i| IParticle { index: i, pos: fmt.decode_vec(mem[i].qpos), vel: mem[i].vel })
            .collect()
    }

    fn assert_kernels_match_oracle<const W: usize>(precision: Precision, b: usize) {
        let mem = jmem(&FixedPointFormat::default(), precision, 41);
        let ips = ips_of(&mem, 0..b);
        let tiles = tile_sweep::<W>(precision, &ips, &mem, EPS2);
        for (k, ip) in ips.iter().enumerate() {
            let want = bits(&oracle(precision, ip, &mem, EPS2));
            assert_eq!(bits(&tiles[k]), want, "W={W} b={b} i-lane {k}");
            assert_eq!(
                bits(&jlane_sweep::<W>(precision, ip, &mem, EPS2)),
                want,
                "W={W} j-lanes i={k}"
            );
        }
    }

    #[test]
    fn grape6_precision_kernels_match_scalar_bitwise() {
        for b in [1usize, 3, 4, 5, 7, 8] {
            assert_kernels_match_oracle::<4>(Precision::grape6(), b.min(4));
            assert_kernels_match_oracle::<8>(Precision::grape6(), b);
        }
    }

    #[test]
    fn exact_precision_kernels_match_scalar_bitwise() {
        for b in [1usize, 2, 4, 6, 8] {
            assert_kernels_match_oracle::<8>(Precision::Exact, b);
        }
    }

    #[test]
    fn narrow_mantissa_kernels_match_scalar_bitwise() {
        // An aggressively short word stresses the rounding step itself.
        for b in [1usize, 3, 4] {
            assert_kernels_match_oracle::<4>(Precision::Grape6 { mantissa_bits: 10 }, b);
        }
    }

    #[test]
    fn jlanes_nearest_neighbour_keeps_the_lowest_j_across_lanes() {
        // j = 6 and j = 9 are exactly equidistant from the i-particle and
        // sit in different lanes (6 and 1 at W = 8; 2 and 1 at W = 4): a
        // lane-order reduction would report 9, the ascending sweep reports 6.
        let fmt = FixedPointFormat::default();
        let precision = Precision::grape6();
        let mut mem = jmem(&fmt, precision, 19);
        let at = |x: f64| fmt.encode_vec(Vec3::new(x, 0.0, 0.0));
        for j in &mut mem {
            j.vel = Vec3::zero();
            j.acc = Vec3::zero();
            j.jerk = Vec3::zero();
        }
        mem[6].qpos = at(20.25);
        mem[9].qpos = at(19.75);
        let ip = IParticle { index: 40, pos: Vec3::new(20.0, 0.0, 0.0), vel: Vec3::zero() };
        let want = oracle(precision, &ip, &mem, EPS2);
        assert_eq!(want.nn.map(|n| n.index), Some(6));
        assert_eq!(bits(&jlane_sweep::<8>(precision, &ip, &mem, EPS2)), bits(&want));
        assert_eq!(bits(&jlane_sweep::<4>(precision, &ip, &mem, EPS2)), bits(&want));
    }

    #[test]
    fn jlanes_own_slot_skip_lands_in_every_lane() {
        // The i-particle coincides with its own j-slot (r² = 0): only the
        // index mask keeps it out of the neighbour register, whichever lane
        // or scalar-tail position the slot falls in.
        let precision = Precision::grape6();
        let mem = jmem(&FixedPointFormat::default(), precision, 21);
        for ip in ips_of(&mem, 0..21) {
            let want = oracle(precision, &ip, &mem, EPS2);
            assert_ne!(want.nn.map(|n| n.index), Some(ip.index));
            assert_eq!(bits(&jlane_sweep::<8>(precision, &ip, &mem, EPS2)), bits(&want));
            assert_eq!(bits(&jlane_sweep::<4>(precision, &ip, &mem, EPS2)), bits(&want));
        }
    }

    #[test]
    fn limbs_fold_on_schedule_through_a_sweep_longer_than_the_interval() {
        // Same-sign contributions about as large as the accumulator's own
        // ±2³¹ range allows over this many j (|acc.x| ≈ 2¹⁰ each, 53-bit
        // mantissas, so all three digits of the seven registers are busy),
        // through more than LIMB_FOLD_INTERVAL interactions per lane.
        let fmt = FixedPointFormat::default();
        let precision = Precision::Exact;
        let heavy = JParticle::encode(
            &fmt,
            precision,
            Vec3::new(20.3, 0.7, -0.1),
            Vec3::new(0.3, -0.2, 0.1),
            Vec3::zero(),
            Vec3::zero(),
            1000.0 / 3.0,
            T,
        );
        let n = LIMB_FOLD_INTERVAL as usize + 5;
        let ip = IParticle { index: n, pos: Vec3::new(20.0, 0.4, 0.0), vel: Vec3::zero() };
        let eps2 = 0.01;
        let pj = predict_j(&fmt, precision, &heavy, T);
        let want = bits(&scalar_sweep(&fmt, precision, &ip, (0..n).map(|j| (j, pj)), eps2));

        let mut tile = GrapeLaneTile::<4>::load(&fmt, precision, std::slice::from_ref(&ip));
        for j in 0..n {
            tile.interact(j, &pj, eps2);
        }
        let mut out = [SweepPartial::default()];
        tile.store(&mut out);
        assert_eq!(bits(&out[0]), want, "i-lanes");

        // One contribution per lane per call: n calls put n in every lane.
        let mut lanes = GrapeJLanes::<4>::load(&fmt, precision, &ip);
        for g in 0..n {
            lanes.interact(g * 4, &[heavy; 4], T, eps2);
        }
        let got = lanes.store();
        let all = scalar_sweep(&fmt, precision, &ip, (0..4 * n).map(|j| (j, pj)), eps2);
        assert_eq!(bits(&got), bits(&all), "j-lanes");
    }

    #[test]
    fn out_of_contract_contributions_take_the_scalar_accumulator() {
        // NaN, ±∞ and ≥ 2²⁹ contributions are outside the accumulator
        // contract: a debug build trips `FixedAccumulator`'s assertion, a
        // release build saturates. Either way the lane kernels must do what
        // the oracle does — in the lanes the bad j hits and in its
        // neighbours — because they hand exactly those j to the same code.
        let fmt = FixedPointFormat::default();
        let precision = Precision::grape6();
        let clean = jmem(&fmt, precision, 19);
        type Corrupt = fn(&mut JParticle);
        let poison: [(&str, Corrupt); 5] = [
            ("nan velocity", |j| j.vel.y = f64::NAN),
            ("infinite mass", |j| j.mass = f64::INFINITY),
            ("negative infinite jerk", |j| j.jerk.z = f64::NEG_INFINITY),
            ("huge mass", |j| j.mass = 2.0f64.powi(40)),
            ("nan payload time", |j| j.t0 = f64::from_bits(0x7FF0_0000_0000_0001)),
        ];
        for (what, corrupt) in poison {
            for slot in [2usize, 13, 18] {
                let mut mem = clean.clone();
                corrupt(&mut mem[slot]);
                let ips = ips_of(&clean, [0, 5]);
                let run = |f: &dyn Fn() -> Vec<Bits>| catch_unwind(AssertUnwindSafe(f)).ok();
                let want = run(&|| {
                    ips.iter().map(|ip| bits(&oracle(precision, ip, &mem, EPS2))).collect()
                });
                assert_eq!(want.is_none(), cfg!(debug_assertions), "{what}: oracle");
                let tile = run(&|| {
                    tile_sweep::<8>(precision, &ips, &mem, EPS2).iter().map(bits).collect()
                });
                assert_eq!(tile, want, "{what} at j = {slot}: i-lanes");
                let jl = run(&|| {
                    ips.iter()
                        .map(|ip| bits(&jlane_sweep::<8>(precision, ip, &mem, EPS2)))
                        .collect()
                });
                assert_eq!(jl, want, "{what} at j = {slot}: j-lanes");
            }
        }
        // Zero softening on a coincident pair: 1/√0 = ∞ inside the pipeline.
        let ips = ips_of(&clean, [3]);
        let run = |f: &dyn Fn() -> Bits| catch_unwind(AssertUnwindSafe(f)).ok();
        let want = run(&|| bits(&oracle(precision, &ips[0], &clean, 0.0)));
        assert_eq!(run(&|| bits(&tile_sweep::<4>(precision, &ips, &clean, 0.0)[0])), want);
        assert_eq!(run(&|| bits(&jlane_sweep::<4>(precision, &ips[0], &clean, 0.0))), want);
    }
}
