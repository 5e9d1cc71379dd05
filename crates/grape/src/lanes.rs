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
//! roundings as the select-free [`ShortWord::round_finite`], and the seven
//! wide accumulators as deferred-carry limbs ([`split_limbs`]) — `i64` word
//! lanes that are folded into the `i128` registers every 2¹⁶ contributions
//! and at `store`. The kernels are generic over the [`PipelineWord`]: the
//! engine runs [`Precision::grape6`]'s 24-bit word as
//! [`ConstWord<24>`](crate::format::ConstWord), whose rounding shift is an
//! immediate, and every other precision through the runtime [`ShortWord`].
//!
//! Determinism: every stage is exact integer arithmetic or one correctly
//! rounded IEEE f64 operation followed by the rounding the scalar path
//! applies, and the limb digits of a contribution sum to exactly the integer
//! [`FixedAccumulator::add`](crate::format::FixedAccumulator::add) would add.
//! Integer sums are associative, so neither the lane width nor which side of
//! the interaction the lanes span can change an output bit — the contract
//! pinned against [`scalar_sweep`] here and by the conformance runner's
//! `lanes/*` checks. Two domains bound that contract:
//!
//! * **Finite inputs.** `round_finite` agrees with the oracle's rounding on
//!   finite values, ±∞ and the default NaN — everything IEEE arithmetic
//!   makes from finite operands — but not on an input NaN with another
//!   payload. A kernel's j-words, block time and ε² must therefore be
//!   finite; the engine gates on that and sends anything else through
//!   [`scalar_sweep`]. A non-finite i-velocity is flagged at `load`.
//! * **The limb domain.** A contribution that is NaN, ±∞ or |x| ≥ 2³⁰ has no
//!   limb digits. Each lane ORs its top-digit offsets into one sticky word
//!   ([`limb_domain_offset`]) and tests it once, at `store`; a flagged tile
//!   or j-lane row reports failure and the caller recomputes it whole with
//!   [`scalar_sweep`] — the same bits, since the oracle is what the lanes
//!   reproduce everywhere they are defined.
//!
//! Ragged i-tiles follow the core remainder-lane rule: padded by replicating
//! lane 0, padding results never stored. Ragged j-groups never reach
//! [`GrapeJLanes`]: the caller sweeps the `< W` leftover j with
//! [`scalar_sweep`] and merges.

use crate::chip::HwIParticle;
use crate::format::{
    limb_domain_offset, limbs_out_of_domain, split_limbs, FixedPointFormat, PipelineWord,
    Precision, ShortWord, LIMB_FOLD_INTERVAL,
};
use crate::pipeline::PipelineRegisters;
use crate::predictor::{predict_lane, JParticle, PredictedJ};
use grape6_core::particle::{IParticle, Neighbor};

/// Lanes per [`GrapeLaneTile`] / [`GrapeJLanes`] of the engine's kernels: the
/// chip's eight virtual pipelines per physical one. A compile-time constant
/// chosen by end-to-end measurement (README, "SIMD kernels": with 512-bit
/// vectors allowed, 8 `i64` limb lanes fill one zmm register and 8 beats 4
/// on `grape6_2k`); the output bits cannot depend on it, so it is not an
/// option. The kernels stay generic over `W`; retuning for another CPU is
/// this one constant, backed by `benchmark`'s `grape.engine.interactions_per_s`.
pub const LANE_WIDTH: usize = 8;

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
/// kernels must reproduce this bit for bit; the engine itself runs it over
/// the `< W` leftover j of a small-block chunk, and in place of a kernel
/// whose inputs are not finite or whose sums left the limb domain.
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
/// difference `dq = q_j − q_i`, with finite inputs (the module's first
/// domain). Also returns the unrounded r² the nearest-neighbour unit
/// compares (same association order as `Vec3::norm2`).
#[inline(always)]
// grape6-lint: hot
fn pipeline_lane(
    word: impl PipelineWord,
    res: f64,
    eps2: f64,
    dq: [i64; 3],
    vi: [f64; 3],
    vj: [f64; 3],
    mj: f64,
) -> (Contribution, f64) {
    let round = |x: f64| word.round_finite(x);
    // Stage 1: decode the exact difference (unrounded).
    let dxu = dq[0] as f64 * res;
    let dyu = dq[1] as f64 * res;
    let dzu = dq[2] as f64 * res;
    let r2u = dxu * dxu + dyu * dyu + dzu * dzu;
    // Stage 2: conversion to the short pipeline word.
    let dx = round(dxu);
    let dy = round(dyu);
    let dz = round(dzu);
    let dvx = round(vj[0] - vi[0]);
    let dvy = round(vj[1] - vi[1]);
    let dvz = round(vj[2] - vi[2]);
    // Stage 3: the arithmetic pipeline, one rounding per stage.
    let r2 = round(dx * dx + dy * dy + dz * dz + eps2);
    let rinv = round(1.0 / r2.sqrt());
    let rinv2 = round(rinv * rinv);
    let mr3inv = round(mj * round(rinv2 * rinv));
    let rv = round(dx * dvx + dy * dvy + dz * dvz);
    let alpha = round(3.0 * rv * rinv2);
    let c = [
        round(dx * mr3inv),
        round(dy * mr3inv),
        round(dz * mr3inv),
        round((dvx - dx * alpha) * mr3inv),
        round((dvy - dy * alpha) * mr3inv),
        round((dvz - dz * alpha) * mr3inv),
        round(-mj * rinv),
    ];
    (c, r2u)
}

/// Deferred-carry limbs of the seven wide accumulators, `W` lanes each, and
/// the protocol around them: [`add`](Self::add) in the lane loop,
/// [`close_j`](Self::close_j) once per j (a fold when the interval is up),
/// and one domain test at the end ([`in_domain`](Self::in_domain)).
#[derive(Debug, Clone)]
struct LimbBank<const W: usize> {
    /// `w[register][digit][lane]`: wrapping sums of [`split_limbs`] words.
    w: [[[i64; W]; 3]; 7],
    /// Contributions per lane in `w` not yet folded into the registers.
    pending: u32,
    /// Per lane: the OR of every top-digit [`limb_domain_offset`] it has
    /// added (all ones for a lane loaded with a non-finite i-velocity).
    flags: [u64; W],
}

impl<const W: usize> LimbBank<W> {
    fn new() -> Self {
        Self { w: [[[0; W]; 3]; 7], pending: 0, flags: [0; W] }
    }

    /// Stage 4 for lane `k` of the current j: wide accumulation, carries and
    /// digit offsets deferred to the fold.
    #[inline(always)]
    // grape6-lint: hot
    fn add(&mut self, k: usize, c: &Contribution) {
        let mut flags = 0;
        for (w, &x) in self.w.iter_mut().zip(c) {
            let s = split_limbs(x);
            w[0][k] = w[0][k].wrapping_add(s[0]);
            w[1][k] = w[1][k].wrapping_add(s[1]);
            w[2][k] = w[2][k].wrapping_add(s[2]);
            flags |= limb_domain_offset(s[2]);
        }
        self.flags[k] |= flags;
    }

    /// Close the current j after every lane has [`add`](Self::add)ed its
    /// contribution. Lane `k` accumulates into `regs[k % regs.len()]`: `W`
    /// register sets for the i-lane tile, one for the j-lane sweep.
    #[inline(always)]
    // grape6-lint: hot
    fn close_j(&mut self, regs: &mut [PipelineRegisters]) {
        self.pending += 1;
        if self.pending == LIMB_FOLD_INTERVAL {
            self.fold(regs);
        }
    }

    /// Fold every lane's word sums into its register set and zero them.
    fn fold(&mut self, regs: &mut [PipelineRegisters]) {
        let n = self.pending;
        for k in 0..W {
            let sums = self.w.map(|digits| digits.map(|lanes| lanes[k]));
            let r = &mut regs[k % regs.len()];
            r.acc.add_limbs([sums[0], sums[1], sums[2]], n);
            r.jerk.add_limbs([sums[3], sums[4], sums[5]], n);
            r.pot.add_limbs(sums[6], n);
            r.count += u64::from(n);
        }
        self.w = [[[0; W]; 3]; 7];
        self.pending = 0;
    }

    /// Fold what is pending and report whether every contribution of every
    /// lane had limb digits, i.e. whether the registers hold the oracle's
    /// sums.
    fn in_domain(&mut self, regs: &mut [PipelineRegisters]) -> bool {
        self.fold(regs);
        !limbs_out_of_domain(self.flags.iter().fold(0, |a, b| a | b))
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
pub struct GrapeLaneTile<const W: usize, R = ShortWord> {
    word: R,
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

impl<const W: usize, R: PipelineWord> GrapeLaneTile<W, R> {
    /// Encode up to `W` i-particles into a tile with zeroed registers.
    /// Ragged tails are padded by replicating lane 0.
    pub fn load(fmt: &FixedPointFormat, precision: Precision, ips: &[IParticle]) -> Self {
        assert!(!ips.is_empty() && ips.len() <= W);
        let mut t = Self {
            word: R::of(precision.mantissa_bits()),
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
            if !hw.vel.is_finite() {
                t.limbs.flags[k] = !0;
            }
        }
        t
    }

    /// Feed one predicted j-particle through all `W` lanes. `pj` must be a
    /// finite j-word predicted to a finite time, and `eps2` finite (the
    /// module doc's first domain).
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
    /// Returns `false`, and leaves `out` meaningless, when a lane left the
    /// limb domain or was loaded with a non-finite velocity: the caller then
    /// recomputes the tile with [`scalar_sweep`].
    #[must_use]
    pub fn store(mut self, out: &mut [SweepPartial]) -> bool {
        debug_assert!(out.len() <= W);
        let in_domain = self.limbs.in_domain(&mut self.regs);
        for (k, o) in out.iter_mut().enumerate() {
            *o = SweepPartial { regs: self.regs[k], nn: self.nn.get(k) };
        }
        in_domain
    }
}

/// One virtual pipeline swept `W` j-particles at a time (the small-block
/// kernel: lanes span *consecutive j*, the i-particle is broadcast, and the
/// predictor runs in the same lane loop). The limb lanes and the per-lane
/// nearest-neighbour registers reduce to one register set at
/// [`store`](Self::store).
#[derive(Debug, Clone)]
pub struct GrapeJLanes<const W: usize, R = ShortWord> {
    word: R,
    res: f64,
    scale: f64,
    qi: [i64; 3],
    vi: [f64; 3],
    skip: u64,
    limbs: LimbBank<W>,
    regs: PipelineRegisters,
    nn: NearestLanes<W>,
}

impl<const W: usize, R: PipelineWord> GrapeJLanes<W, R> {
    /// Encode one i-particle with zeroed registers.
    pub fn load(fmt: &FixedPointFormat, precision: Precision, ip: &IParticle) -> Self {
        let hw = HwIParticle::encode(fmt, precision, ip.pos, ip.vel);
        let mut limbs = LimbBank::new();
        if !hw.vel.is_finite() {
            limbs.flags = [!0; W];
        }
        Self {
            word: R::of(precision.mantissa_bits()),
            res: fmt.resolution(),
            scale: fmt.scale(),
            qi: hw.qpos,
            vi: hw.vel.to_array(),
            skip: ip.index as u64,
            limbs,
            regs: PipelineRegisters::new(),
            nn: NearestLanes::new(),
        }
    }

    /// Predict the j-particles `j0..j0 + W` (`js`, in memory order) to block
    /// time `t` and feed each through the pipeline in its own lane. The
    /// j-words, `t` and `eps2` must be finite (see the module doc).
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
    /// `None` when a lane left the limb domain or the i-velocity is not
    /// finite: the caller then recomputes the row with [`scalar_sweep`].
    pub fn store(mut self) -> Option<SweepPartial> {
        if !self.limbs.in_domain(std::slice::from_mut(&mut self.regs)) {
            return None;
        }
        let mut nn: Option<Neighbor> = None;
        for nb in (0..W).filter_map(|k| self.nn.get(k)) {
            if nn.is_none_or(|n| nb.r2 < n.r2 || (nb.r2 == n.r2 && nb.index < n.index)) {
                nn = Some(nb);
            }
        }
        Some(SweepPartial { regs: self.regs, nn })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::predict_j;
    use grape6_core::vec3::Vec3;
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
    /// reduction tree. A chunk whose tile reports a lane out of the limb
    /// domain is recomputed by the oracle, as the engine does; the count of
    /// such chunks comes back beside the partials.
    fn tile_sweep<const W: usize>(
        precision: Precision,
        ips: &[IParticle],
        mem: &[JParticle],
        eps2: f64,
    ) -> (Vec<SweepPartial>, usize) {
        let fmt = FixedPointFormat::default();
        let cut = mem.len() * 5 / 9;
        let mut out = vec![SweepPartial::default(); ips.len()];
        let mut redone = 0;
        for js in [0..cut, cut..mem.len()] {
            let mut part = vec![SweepPartial::default(); ips.len()];
            let mut tile = GrapeLaneTile::<W>::load(&fmt, precision, ips);
            for j in js.clone() {
                tile.interact(j, &predict_j(&fmt, precision, &mem[j], T), eps2);
            }
            if !tile.store(&mut part) {
                redone += 1;
                for (p, ip) in part.iter_mut().zip(ips) {
                    let pred = js.clone().map(|j| (j, predict_j(&fmt, precision, &mem[j], T)));
                    *p = scalar_sweep(&fmt, precision, ip, pred, eps2);
                }
            }
            for (o, p) in out.iter_mut().zip(&part) {
                o.merge(p);
            }
        }
        (out, redone)
    }

    /// j-lane sweep over the full groups of `mem`, scalar tail merged after;
    /// `None` when the lanes report the row out of the limb domain.
    fn jlane_sweep<const W: usize>(
        precision: Precision,
        ip: &IParticle,
        mem: &[JParticle],
        eps2: f64,
    ) -> Option<SweepPartial> {
        let fmt = FixedPointFormat::default();
        let (groups, tail) = mem.as_chunks::<W>();
        let mut lanes = GrapeJLanes::<W>::load(&fmt, precision, ip);
        for (g, group) in groups.iter().enumerate() {
            lanes.interact(g * W, group, T, eps2);
        }
        let mut out = lanes.store()?;
        let first = mem.len() - tail.len();
        let js =
            tail.iter().enumerate().map(|(k, j)| (first + k, predict_j(&fmt, precision, j, T)));
        out.merge(&scalar_sweep(&fmt, precision, ip, js, eps2));
        Some(out)
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
        let (tiles, redone) = tile_sweep::<W>(precision, &ips, &mem, EPS2);
        assert_eq!(redone, 0, "W={W} b={b}: in-domain tiles recomputed");
        for (k, ip) in ips.iter().enumerate() {
            let want = bits(&oracle(precision, ip, &mem, EPS2));
            assert_eq!(bits(&tiles[k]), want, "W={W} b={b} i-lane {k}");
            assert_eq!(
                bits(&jlane_sweep::<W>(precision, ip, &mem, EPS2).unwrap()),
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
        assert_eq!(bits(&jlane_sweep::<8>(precision, &ip, &mem, EPS2).unwrap()), bits(&want));
        assert_eq!(bits(&jlane_sweep::<4>(precision, &ip, &mem, EPS2).unwrap()), bits(&want));
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
            assert_eq!(bits(&jlane_sweep::<8>(precision, &ip, &mem, EPS2).unwrap()), bits(&want));
            assert_eq!(bits(&jlane_sweep::<4>(precision, &ip, &mem, EPS2).unwrap()), bits(&want));
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
        assert!(tile.store(&mut out));
        assert_eq!(bits(&out[0]), want, "i-lanes");

        // One contribution per lane per call: n calls put n in every lane.
        let mut lanes = GrapeJLanes::<4>::load(&fmt, precision, &ip);
        for g in 0..n {
            lanes.interact(g * 4, &[heavy; 4], T, eps2);
        }
        let got = lanes.store().unwrap();
        let all = scalar_sweep(&fmt, precision, &ip, (0..4 * n).map(|j| (j, pj)), eps2);
        assert_eq!(bits(&got), bits(&all), "j-lanes");
    }

    #[test]
    fn out_of_domain_lanes_are_flagged_and_recomputed_by_the_oracle() {
        // Finite inputs whose contributions leave the limb domain (a 2⁴⁰
        // mass: |pot| ≥ 2³⁴ everywhere), and a non-finite i-velocity, which
        // `load` flags. They are outside the accumulator contract: a debug
        // build trips `FixedAccumulator`'s assertion, a release build
        // saturates. Either way the kernels must flag the tile or row, and
        // the oracle's recomputation is then what the engine returns.
        // (Non-finite j-words never reach the kernels: the engine's gate,
        // pinned in `tests/lane_determinism.rs`.)
        let fmt = FixedPointFormat::default();
        let precision = Precision::grape6();
        let clean = jmem(&fmt, precision, 19);
        // The kernels never panic, so a debug-build panic on the tile path
        // is the oracle's recomputation at work.
        let run = |f: &dyn Fn() -> Vec<Bits>| catch_unwind(AssertUnwindSafe(f)).ok();
        let check = |what: &str, mem: &[JParticle], ips: &[IParticle], eps2: f64, rows: bool| {
            let want =
                run(&|| ips.iter().map(|ip| bits(&oracle(precision, ip, mem, eps2))).collect());
            assert_eq!(want.is_none(), cfg!(debug_assertions), "{what}: oracle");
            let got = run(&|| {
                let (tiles, redone) = tile_sweep::<8>(precision, ips, mem, eps2);
                assert!(redone > 0, "{what}: i-lanes not flagged");
                tiles.iter().map(bits).collect()
            });
            assert_eq!(got, want, "{what}: i-lanes");
            for ip in ips {
                // (A row that is not flagged goes on to its scalar tail.)
                let flagged = catch_unwind(|| jlane_sweep::<8>(precision, ip, mem, eps2).is_none());
                assert_eq!(flagged.unwrap_or(false), rows, "{what}: j-lanes");
            }
        };
        // Slot 18 falls in the j-lanes' scalar tail (19 = 2·8 + 3), so no row
        // flags there; the tail's oracle is the recomputation itself.
        for slot in [2usize, 13, 18] {
            let mut mem = clean.clone();
            mem[slot].mass = 2.0f64.powi(40);
            check(
                &format!("huge mass at j = {slot}"),
                &mem,
                &ips_of(&clean, [0, 5]),
                EPS2,
                slot < 16,
            );
        }
        let mut ips = ips_of(&clean, [0, 5, 7]);
        ips[1].vel.y = f64::from_bits(0x7FFF_FFFF_FFFF_FFFF);
        check("payload NaN i-velocity", &clean, &ips[1..2], EPS2, true);
        if !cfg!(debug_assertions) {
            let (tiles, _) = tile_sweep::<8>(precision, &ips, &clean, EPS2);
            for k in [0, 2] {
                let want = bits(&oracle(precision, &ips[k], &clean, EPS2));
                assert_eq!(bits(&tiles[k]), want, "tile-mate {k} of the flagged lane");
            }
        }
        // Zero softening on a coincident pair (words stored at the block
        // time, so i sits on its own predicted slot): 1/√0 = ∞ inside the
        // pipeline, then 0·∞ = NaN — the non-finite values finite inputs make.
        let mut now = clean.clone();
        for j in &mut now {
            j.t0 = T;
        }
        check("zero softening", &now, &ips_of(&now, [3]), 0.0, true);
    }
}
