//! The 4th-order Hermite predictor/corrector scheme (Makino & Aarseth 1992)
//! and the Aarseth adaptive timestep criterion.
//!
//! GRAPE-6 was designed around this integrator: the pipelines return both the
//! force and its analytic time derivative (jerk), which is what lets a
//! 4th-order scheme run with a single force evaluation per step.
//!
//! The block-step integrator corrects its active particles through
//! [`correct_tile`]: one pass over `W` block slots in `[f64; W]` lanes, each
//! lane running [`central_acc_jerk`], [`correct`] and [`aarseth_dt`] — the
//! scalar functions, which stay the oracle the tile is tested against and
//! what the shared-timestep baseline calls directly. A block step's steps are
//! powers of two, and for those the tile and the i-predictor replace every
//! divide by dt and by 6, 24 or 120 with a product of the same bits
//! (`is_exact_step` says why).

use crate::central::central_acc_jerk;
use crate::particle::{ForceResult, IParticle, ParticleSystem};
use crate::vec3::Vec3;

/// Result of one Hermite correction: the corrected state and the implied
/// higher derivatives at the *end* of the step (used for the next timestep).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Corrected {
    /// Corrected position at t + dt.
    pub pos: Vec3,
    /// Corrected velocity at t + dt.
    pub vel: Vec3,
    /// Second derivative of the acceleration (snap) at t + dt.
    pub snap: Vec3,
    /// Third derivative of the acceleration (crackle) at t + dt.
    pub crackle: Vec3,
}

/// Hermite predictor: extrapolate `(pos, vel)` over `dt` using acceleration
/// and jerk.
#[inline]
pub fn predict(pos: Vec3, vel: Vec3, acc: Vec3, jerk: Vec3, dt: f64) -> (Vec3, Vec3) {
    let dt2 = dt * dt;
    let p = pos + vel * dt + acc * (dt2 / 2.0) + jerk * (dt2 * dt / 6.0);
    let v = vel + acc * dt + jerk * (dt2 / 2.0);
    (p, v)
}

/// Hermite corrector.
///
/// Given the predicted state `(pos_p, vel_p)` at `t + dt`, the old
/// derivatives `(acc0, jerk0)` at `t`, and the new derivatives
/// `(acc1, jerk1)` evaluated at the predicted state, form the interpolating
/// polynomial's 2nd and 3rd acceleration derivatives and apply the
/// 4th/5th-order position/velocity corrections.
#[inline]
pub fn correct(
    pos_p: Vec3,
    vel_p: Vec3,
    acc0: Vec3,
    jerk0: Vec3,
    acc1: Vec3,
    jerk1: Vec3,
    dt: f64,
) -> Corrected {
    let dt2 = dt * dt;
    let dt3 = dt2 * dt;
    // Derivatives at the *start* of the interval:
    let snap0 = ((acc1 - acc0) * 6.0 - (jerk0 * 4.0 + jerk1 * 2.0) * dt) / dt2;
    let crackle0 = ((acc0 - acc1) * 12.0 + (jerk0 + jerk1) * 6.0 * dt) / dt3;
    let vel = vel_p + snap0 * (dt3 / 6.0) + crackle0 * (dt3 * dt / 24.0);
    let pos = pos_p + snap0 * (dt3 * dt / 24.0) + crackle0 * (dt3 * dt2 / 120.0);
    // Shift the derivatives to the end of the interval for the timestep
    // criterion (crackle is constant for a cubic interpolant).
    let snap1 = snap0 + crackle0 * dt;
    Corrected { pos, vel, snap: snap1, crackle: crackle0 }
}

/// The generalized Aarseth timestep criterion:
///
/// `dt = sqrt( η · (|a||a⁽²⁾| + |j|²) / (|j||a⁽³⁾| + |a⁽²⁾|²) )`.
///
/// One rule covers a vanishing denominator (e.g. an unperturbed particle),
/// whatever the numerator: `den == 0 → f64::INFINITY`, and callers clamp
/// against `dt_max`. It is a select, not a branch, so the lanes of a
/// [`correct_tile`] evaluate it without leaving straight-line code.
#[inline]
pub fn aarseth_dt(acc: Vec3, jerk: Vec3, snap: Vec3, crackle: Vec3, eta: f64) -> f64 {
    let a = acc.norm();
    let j = jerk.norm();
    let s = snap.norm();
    let c = crackle.norm();
    let num = a * s + j * j;
    let den = j * c + s * s;
    let dt = (eta * num / den).sqrt();
    if den == 0.0 {
        f64::INFINITY
    } else {
        dt
    }
}

/// Lanes of one vector quantity: component `c` of lane `k` is `[c][k]`.
type Lanes3<const W: usize> = [[f64; W]; 3];

#[inline(always)]
fn lane<const W: usize>(q: &Lanes3<W>, k: usize) -> Vec3 {
    Vec3::new(q[0][k], q[1][k], q[2][k])
}

#[inline(always)]
fn set_lane<const W: usize>(q: &mut Lanes3<W>, k: usize, v: Vec3) {
    (q[0][k], q[1][k], q[2][k]) = (v.x, v.y, v.z);
}

/// The lanes of `f(0), …, f(W − 1)`, in a loop small enough to unroll, so
/// that the lanes are built in registers rather than through the stack.
#[inline(always)]
fn gather<const W: usize>(f: impl Fn(usize) -> Vec3) -> Lanes3<W> {
    let mut q = [[0.0; W]; 3];
    for k in 0..W {
        set_lane(&mut q, k, f(k));
    }
    q
}

/// `1/6`, `1/24` and `1/120`, each rounded once.
const SIXTH: f64 = 1.0 / 6.0;
const TWENTY_FOURTH: f64 = 1.0 / 24.0;
const ONE_HUNDRED_TWENTIETH: f64 = 1.0 / 120.0;

/// Biased exponents of 2⁻²⁰⁰ and 2²⁰⁰, the ends of the steps
/// [`is_exact_step`] accepts.
const EXACT_EXP_MIN: u64 = 1023 - 200;
const EXACT_EXP_SPAN: u64 = 400;

/// Whether `dt` is a power of two in [2⁻²⁰⁰, 2²⁰⁰]: a zero fraction field
/// and a biased exponent in range (a sign bit, zero, subnormal, ∞ or NaN
/// falls outside). For such a step every power up to dt⁵ and down to dt⁻³ is
/// an exact normal number, so `x / dtᵏ` and `x · dt⁻ᵏ` round the same real
/// value once and give the same bits (subnormal, ±0, ∞ and NaN results
/// included), and `dtᵏ / 6` is `dtᵏ · fl(1/6)` (likewise 24 and 120): both
/// are `fl(1/6)` with its exponent shifted, a normal number.
#[inline(always)]
pub(crate) fn is_exact_step(dt: f64) -> bool {
    let bits = dt.to_bits();
    (bits & ((1 << 52) - 1) == 0) & ((bits >> 52).wrapping_sub(EXACT_EXP_MIN) <= EXACT_EXP_SPAN)
}

/// `1 / dt` for a step that passes [`is_exact_step`], from the exponent bits:
/// 2ᵏ has biased exponent `1023 + k`, 2⁻ᵏ has `1023 − k = 2046 − (1023 + k)`.
#[inline(always)]
fn exact_reciprocal(dt: f64) -> f64 {
    f64::from_bits((2046 << 52) - dt.to_bits())
}

/// [`predict`] for a step that passes [`is_exact_step`]: the same bits with
/// `dt³ / 6` taken as `dt³ · fl(1/6)`. The block integrator's i-predictor
/// calls it; [`predict`] itself keeps its divide, because the j-predictors
/// run it across j, where steps are rarely powers of two.
#[inline(always)]
pub(crate) fn predict_exact_step(
    pos: Vec3,
    vel: Vec3,
    acc: Vec3,
    jerk: Vec3,
    dt: f64,
) -> (Vec3, Vec3) {
    debug_assert!(is_exact_step(dt));
    let dt2 = dt * dt;
    let p = pos + vel * dt + acc * (dt2 / 2.0) + jerk * (dt2 * dt * SIXTH);
    let v = vel + acc * dt + jerk * (dt2 / 2.0);
    (p, v)
}

/// [`correct`] for a step that passes [`is_exact_step`], without a divide:
/// `/ dt²` and `/ dt³` become products with the exact `1/dt²` and `1/dt³`,
/// and `/ 6`, `/ 24`, `/ 120` products with the rounded reciprocals. Every
/// output bit is [`correct`]'s (see [`is_exact_step`]).
#[inline(always)]
fn correct_exact_step(
    pos_p: Vec3,
    vel_p: Vec3,
    acc0: Vec3,
    jerk0: Vec3,
    acc1: Vec3,
    jerk1: Vec3,
    dt: f64,
) -> Corrected {
    let dt2 = dt * dt;
    let dt3 = dt2 * dt;
    let inv_dt = exact_reciprocal(dt);
    let inv_dt2 = inv_dt * inv_dt;
    let inv_dt3 = inv_dt2 * inv_dt;
    let snap0 = ((acc1 - acc0) * 6.0 - (jerk0 * 4.0 + jerk1 * 2.0) * dt) * inv_dt2;
    let crackle0 = ((acc0 - acc1) * 12.0 + (jerk0 + jerk1) * 6.0 * dt) * inv_dt3;
    let vel = vel_p + snap0 * (dt3 * SIXTH) + crackle0 * (dt3 * dt * TWENTY_FOURTH);
    let pos =
        pos_p + snap0 * (dt3 * dt * TWENTY_FOURTH) + crackle0 * (dt3 * dt2 * ONE_HUNDRED_TWENTIETH);
    let snap1 = snap0 + crackle0 * dt;
    Corrected { pos, vel, snap: snap1, crackle: crackle0 }
}

/// Correct up to `W` slots of a block step in one pass, the host-side
/// counterpart of [`crate::lanes::LaneTile`] for the per-particle host term.
///
/// `ips[k]` and `results[k]` are slot `k`'s predicted i-particle and engine
/// result, and `sys` holds its state at its own time. The pass gathers each
/// slot's predicted state, its derivatives at the start of the step, the
/// engine's result and its step `t_block − time[i]` into `[f64; W]` lanes;
/// runs one straight-line loop over them; and scatters position, velocity,
/// acceleration, jerk, the engine's potential and `time = t_block` back into
/// `sys`. It returns every lane's Aarseth step (accuracy parameter `eta`);
/// the first `ips.len()` are the slots'.
///
/// Per lane the loop is the scalar sequence — [`central_acc_jerk`] added to
/// the engine result when `sys.central_mass` is positive, then [`correct`],
/// then [`aarseth_dt`] — on the lane's values, so every output bit is the
/// oracle's for any `W`. When every lane's step is a power of two in
/// [2⁻²⁰⁰, 2²⁰⁰] (in a block step it is the particle's step), the loop runs
/// `correct_exact_step`, which gives the same bits without a divide; any
/// other tile keeps [`correct`]'s divisions. One branch per tile.
/// A ragged tail (fewer than `W` slots) pads by replicating slot 0, the
/// `lanes` remainder rule: the padding lanes compute slot 0's values again,
/// and the scatter writes slot 0's particle again with the same bits.
#[inline]
// grape6-lint: hot
pub fn correct_tile<const W: usize>(
    ips: &[IParticle],
    results: &[ForceResult],
    sys: &mut ParticleSystem,
    t_block: f64,
    eta: f64,
) -> [f64; W] {
    let n = ips.len();
    assert!(n > 0 && n <= W && results.len() == n);
    let padded: ([IParticle; W], [ForceResult; W]);
    let (ips, results) = match (ips.try_into(), results.try_into()) {
        (Ok(ips), Ok(results)) => (ips, results),
        _ => {
            let slot = |k: usize| if k < n { k } else { 0 };
            padded =
                (std::array::from_fn(|k| ips[slot(k)]), std::array::from_fn(|k| results[slot(k)]));
            (&padded.0, &padded.1)
        }
    };
    let mut dt = [0.0; W];
    for (d, ip) in dt.iter_mut().zip(ips) {
        *d = t_block - sys.time[ip.index];
        debug_assert!(*d > 0.0, "non-positive step for particle {}", ip.index);
    }
    if dt.iter().fold(true, |all, &d| all & is_exact_step(d)) {
        correct_tile_with(correct_exact_step, ips, results, sys, t_block, dt, eta)
    } else {
        correct_tile_with(correct, ips, results, sys, t_block, dt, eta)
    }
}

/// [`correct_tile`]'s pass over `W` slots with the per-lane corrector
/// `correct`, given the lanes' steps `dt`: gather, correct, scatter.
#[inline(always)]
// grape6-lint: hot
fn correct_tile_with<const W: usize>(
    correct: impl Fn(Vec3, Vec3, Vec3, Vec3, Vec3, Vec3, f64) -> Corrected,
    ips: &[IParticle; W],
    results: &[ForceResult; W],
    sys: &mut ParticleSystem,
    t_block: f64,
    dt: [f64; W],
    eta: f64,
) -> [f64; W] {
    let mut pos: Lanes3<W> = gather(|k| ips[k].pos);
    let mut vel: Lanes3<W> = gather(|k| ips[k].vel);
    let acc0: Lanes3<W> = gather(|k| sys.acc[ips[k].index]);
    let jerk0: Lanes3<W> = gather(|k| sys.jerk[ips[k].index]);
    let mut acc1: Lanes3<W> = gather(|k| results[k].acc);
    let mut jerk1: Lanes3<W> = gather(|k| results[k].jerk);
    let gm = sys.central_mass;
    if gm > 0.0 {
        for k in 0..W {
            let (ca, cj) = central_acc_jerk(gm, lane(&pos, k), lane(&vel, k));
            let (a1, j1) = (lane(&acc1, k) + ca, lane(&jerk1, k) + cj);
            set_lane(&mut acc1, k, a1);
            set_lane(&mut jerk1, k, j1);
        }
    }
    let mut dt_des = [0.0; W];
    for k in 0..W {
        let (a1, j1) = (lane(&acc1, k), lane(&jerk1, k));
        let c =
            correct(lane(&pos, k), lane(&vel, k), lane(&acc0, k), lane(&jerk0, k), a1, j1, dt[k]);
        set_lane(&mut pos, k, c.pos);
        set_lane(&mut vel, k, c.vel);
        dt_des[k] = aarseth_dt(a1, j1, c.snap, c.crackle, eta);
    }
    for (k, (ip, r)) in ips.iter().zip(results).enumerate() {
        let i = ip.index;
        sys.pos[i] = lane(&pos, k);
        sys.vel[i] = lane(&vel, k);
        sys.acc[i] = lane(&acc1, k);
        sys.jerk[i] = lane(&jerk1, k);
        sys.pot[i] = r.pot;
        sys.time[i] = t_block;
    }
    dt_des
}

/// Startup timestep before higher derivatives are known:
/// `dt = η_s |a| / |j|`.
#[inline]
pub fn initial_dt(acc: Vec3, jerk: Vec3, eta_s: f64) -> f64 {
    let a = acc.norm();
    let j = jerk.norm();
    if j == 0.0 {
        return f64::INFINITY;
    }
    eta_s * a / j
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A particle in a quadratic force field a(t) known in closed form lets
    /// us check order of accuracy exactly.
    fn polynomial_truth(t: f64) -> (Vec3, Vec3, Vec3, Vec3) {
        // a(t) = (1 + 2t + 3t², ...), x(0)=0, v(0)=0
        let ax = 1.0 + 2.0 * t + 3.0 * t * t;
        let jx = 2.0 + 6.0 * t;
        let vx = t + t * t + t * t * t;
        let xx = t * t / 2.0 + t * t * t / 3.0 + t * t * t * t / 4.0;
        (
            Vec3::new(xx, 0.0, 0.0),
            Vec3::new(vx, 0.0, 0.0),
            Vec3::new(ax, 0.0, 0.0),
            Vec3::new(jx, 0.0, 0.0),
        )
    }

    #[test]
    fn corrector_is_exact_for_quadratic_acceleration() {
        // A cubic Hermite interpolant reproduces a quadratic a(t) exactly, so
        // position (integrated twice) is exact too.
        let dt = 0.37;
        let (x0, v0, a0, j0) = polynomial_truth(0.0);
        let (x1, v1, a1, j1) = polynomial_truth(dt);
        let (xp, vp) = predict(x0, v0, a0, j0, dt);
        let c = correct(xp, vp, a0, j0, a1, j1, dt);
        assert!((c.pos - x1).norm() < 1e-14, "pos err {}", (c.pos - x1).norm());
        assert!((c.vel - v1).norm() < 1e-14, "vel err {}", (c.vel - v1).norm());
        // snap at end = 6 + ... for our polynomial: a'' = 6 (constant)
        assert!((c.snap - Vec3::new(6.0, 0.0, 0.0)).norm() < 1e-10);
        assert!(c.crackle.norm() < 1e-9);
    }

    #[test]
    fn predictor_is_third_order_taylor() {
        let dt = 0.1;
        let (p, v) = predict(
            Vec3::new(1.0, 0.0, 0.0),
            Vec3::new(0.0, 1.0, 0.0),
            Vec3::new(0.0, 0.0, 2.0),
            Vec3::new(6.0, 0.0, 0.0),
            dt,
        );
        assert!((p.x - (1.0 + dt * dt * dt)).abs() < 1e-15);
        assert!((p.y - dt).abs() < 1e-15);
        assert!((p.z - dt * dt).abs() < 1e-15);
        assert!((v.x - 3.0 * dt * dt).abs() < 1e-15);
        assert!((v.z - 2.0 * dt).abs() < 1e-15);
    }

    #[test]
    fn corrector_converges_at_fourth_order() {
        // Integrate a Kepler-like 1/r² problem over one step at two
        // resolutions; the position error must drop by ≈ 2⁵ (local error
        // O(dt⁵)).
        fn acc_jerk(x: Vec3, v: Vec3) -> (Vec3, Vec3) {
            crate::central::central_acc_jerk(1.0, x, v)
        }
        fn one_step(x0: Vec3, v0: Vec3, dt: f64) -> (Vec3, Vec3) {
            let (a0, j0) = acc_jerk(x0, v0);
            let (xp, vp) = predict(x0, v0, a0, j0, dt);
            let (a1, j1) = acc_jerk(xp, vp);
            let c = correct(xp, vp, a0, j0, a1, j1, dt);
            (c.pos, c.vel)
        }
        // Truth by many tiny steps.
        fn reference(x0: Vec3, v0: Vec3, t: f64, n: usize) -> Vec3 {
            let mut x = x0;
            let mut v = v0;
            let h = t / n as f64;
            for _ in 0..n {
                let (nx, nv) = one_step(x, v, h);
                x = nx;
                v = nv;
            }
            x
        }
        let x0 = Vec3::new(1.0, 0.0, 0.0);
        let v0 = Vec3::new(0.0, 1.0, 0.0); // circular orbit
        let t = 0.2;
        let truth = reference(x0, v0, t, 65536);
        // Compare 4 steps vs 8 steps (inside the asymptotic regime but well
        // above roundoff).
        let e1 = (reference(x0, v0, t, 4) - truth).norm();
        let e2 = (reference(x0, v0, t, 8) - truth).norm();
        let order = (e1 / e2).log2();
        assert!(order > 3.5, "observed order {order} (e1={e1:.3e}, e2={e2:.3e})");
        assert!(order < 4.5, "observed order {order} suspiciously high");
    }

    #[test]
    fn aarseth_dt_scales_with_sqrt_eta() {
        let a = Vec3::new(1.0, 0.0, 0.0);
        let j = Vec3::new(0.0, 2.0, 0.0);
        let s = Vec3::new(0.0, 0.0, 3.0);
        let c = Vec3::new(1.0, 1.0, 1.0);
        let d1 = aarseth_dt(a, j, s, c, 0.01);
        let d2 = aarseth_dt(a, j, s, c, 0.04);
        assert!((d2 / d1 - 2.0).abs() < 1e-12);
    }

    #[test]
    fn aarseth_dt_dimensional_consistency() {
        // Scaling all derivatives as successive powers of 1/τ must return dt ∝ τ.
        let tau = 0.5;
        let base = (
            Vec3::new(1.0, 0.2, -0.3),
            Vec3::new(0.4, -1.0, 0.6),
            Vec3::new(-0.7, 0.1, 0.9),
            Vec3::new(0.3, 0.3, -0.2),
        );
        let d1 = aarseth_dt(base.0, base.1, base.2, base.3, 0.02);
        let d2 = aarseth_dt(
            base.0,
            base.1 / tau,
            base.2 / (tau * tau),
            base.3 / (tau * tau * tau),
            0.02,
        );
        assert!((d2 / d1 - tau).abs() < 1e-12);
    }

    #[test]
    fn degenerate_derivatives_give_infinite_dt() {
        assert!(
            aarseth_dt(Vec3::zero(), Vec3::zero(), Vec3::zero(), Vec3::zero(), 0.02).is_infinite()
        );
        assert!(initial_dt(Vec3::new(1.0, 0.0, 0.0), Vec3::zero(), 0.01).is_infinite());
    }

    #[test]
    fn initial_dt_is_eta_a_over_j() {
        let dt = initial_dt(Vec3::new(2.0, 0.0, 0.0), Vec3::new(0.0, 4.0, 0.0), 0.01);
        assert!((dt - 0.005).abs() < 1e-15);
    }

    /// One block slot as the integrator holds it: the predicted state, the
    /// derivatives at the start of the step, the engine's result and the step.
    #[derive(Debug, Clone, Copy)]
    struct Slot {
        pos: Vec3,
        vel: Vec3,
        acc0: Vec3,
        jerk0: Vec3,
        acc1: Vec3,
        jerk1: Vec3,
        dt: f64,
    }

    /// The block time of the tile tests. A slot with step `dt` sits at
    /// `time = −dt`, so `T_BLOCK − time` is `dt` exactly for every step, down
    /// to the smallest subnormal.
    const T_BLOCK: f64 = 0.0;

    fn bits(v: Vec3) -> [u64; 3] {
        v.to_array().map(f64::to_bits)
    }

    /// A tile pass with [`correct_tile`]'s signature.
    type TileFn<const W: usize> =
        fn(&[IParticle], &[ForceResult], &mut ParticleSystem, f64, f64) -> [f64; W];

    /// Run `slots` through `W`-lane tiles the way `BlockHermite` does, with
    /// `run` as the tile pass, and compare everything the tiles store with
    /// the scalar sequence `central_acc_jerk` + `correct` + `aarseth_dt`, bit
    /// for bit; on agreement return the Aarseth steps. Slot `k` is particle
    /// `2k + 1`; the even particles are outside the block and must come back
    /// untouched.
    fn tile_vs_oracle<const W: usize>(
        slots: &[Slot],
        gm: f64,
        eta: f64,
        run: TileFn<W>,
    ) -> Result<Vec<f64>, String> {
        let mut sys = ParticleSystem::new(0.0, gm);
        for j in 0..2 * slots.len() + 1 {
            sys.push(Vec3::new(j as f64, 2.0, 3.0), Vec3::new(0.0, 0.1, 0.0), 1e-9);
        }
        let mut ips = Vec::new();
        let mut results = Vec::new();
        for (k, s) in slots.iter().enumerate() {
            let i = 2 * k + 1;
            (sys.acc[i], sys.jerk[i], sys.time[i]) = (s.acc0, s.jerk0, T_BLOCK - s.dt);
            ips.push(IParticle { index: i, pos: s.pos, vel: s.vel });
            let pot = -0.5 - k as f64;
            results.push(ForceResult { acc: s.acc1, jerk: s.jerk1, pot, nn: None });
        }
        let before = sys.clone();
        let mut dt_des = Vec::new();
        for (ips, results) in ips.chunks(W).zip(results.chunks(W)) {
            dt_des.extend_from_slice(&run(ips, results, &mut sys, T_BLOCK, eta)[..ips.len()]);
        }
        let n = slots.len();
        for (k, s) in slots.iter().enumerate() {
            let i = 2 * k + 1;
            let (mut acc1, mut jerk1) = (s.acc1, s.jerk1);
            if gm > 0.0 {
                let (ca, cj) = central_acc_jerk(gm, s.pos, s.vel);
                acc1 += ca;
                jerk1 += cj;
            }
            let dt = T_BLOCK - before.time[i];
            let c = correct(s.pos, s.vel, s.acc0, s.jerk0, acc1, jerk1, dt);
            let want_dt = aarseth_dt(acc1, jerk1, c.snap, c.crackle, eta);
            for (what, got, want) in [
                ("pos", sys.pos[i], c.pos),
                ("vel", sys.vel[i], c.vel),
                ("acc", sys.acc[i], acc1),
                ("jerk", sys.jerk[i], jerk1),
            ] {
                if bits(got) != bits(want) {
                    return Err(format!("slot {k} of {n}: {what} {got:?}, oracle {want:?}"));
                }
            }
            if dt_des[k].to_bits() != want_dt.to_bits() {
                return Err(format!("slot {k} of {n}: dt_des {:e}, oracle {want_dt:e}", dt_des[k]));
            }
            if sys.pot[i].to_bits() != results[k].pot.to_bits() || sys.time[i] != T_BLOCK {
                return Err(format!("slot {k} of {n}: pot or time not stored"));
            }
        }
        if dt_des.len() != n {
            return Err(format!("{} Aarseth steps for {n} slots", dt_des.len()));
        }
        for i in (0..sys.len()).step_by(2) {
            let same = bits(sys.pos[i]) == bits(before.pos[i])
                && bits(sys.vel[i]) == bits(before.vel[i])
                && bits(sys.acc[i]) == bits(before.acc[i])
                && sys.time[i] == before.time[i];
            if !same {
                return Err(format!("particle {i} outside the block was written"));
            }
        }
        Ok(dt_des)
    }

    /// `n` slots of planetesimal-like magnitudes, slot `k` with step `dt(k)`.
    fn slots(n: usize, seed: u64, dt: impl Fn(usize) -> f64) -> Vec<Slot> {
        let mut state = seed;
        let mut r = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let mut v = move |scale: f64| Vec3::new(r() * scale, r() * scale, r() * scale);
        (0..n)
            .map(|k| {
                let acc0 = v(2e-3);
                let jerk0 = v(1e-4);
                Slot {
                    pos: v(60.0),
                    vel: v(0.4),
                    acc0,
                    jerk0,
                    acc1: acc0 + v(1e-5),
                    jerk1: jerk0 + v(1e-6),
                    dt: dt(k),
                }
            })
            .collect()
    }

    /// Steps of mixed scale that are not powers of two, so every rounding
    /// of the dt factors shows.
    fn mixed_dt(k: usize) -> f64 {
        0.37 * (1.0 + k as f64 / 17.0) * 2f64.powi(-((k % 9) as i32))
    }

    #[test]
    fn corrector_tile_matches_scalar_for_every_fill() {
        // Fills 1..=17 are every 8q + r with q ≤ 2: ragged tails alone, one
        // full tile, and full tiles followed by every tail.
        for n in 1..=17 {
            for gm in [0.0, 1.0] {
                let s = slots(n, 7 + n as u64, mixed_dt);
                tile_vs_oracle::<8>(&s, gm, 0.02, correct_tile)
                    .unwrap_or_else(|e| panic!("W=8 n={n} gm={gm}: {e}"));
                tile_vs_oracle::<4>(&s, gm, 0.02, correct_tile)
                    .unwrap_or_else(|e| panic!("W=4 n={n} gm={gm}: {e}"));
            }
        }
    }

    #[test]
    fn corrector_tile_matches_scalar_for_block_steps_from_2_pow_minus_40_to_8() {
        for e in -40..=3 {
            let s = slots(11, (100 + e) as u64, |_| 2f64.powi(e));
            for gm in [0.0, 1.0] {
                tile_vs_oracle::<8>(&s, gm, 0.02, correct_tile)
                    .unwrap_or_else(|err| panic!("dt=2^{e} gm={gm}: {err}"));
            }
        }
    }

    /// Exponents on both sides of each end of [`is_exact_step`]'s range
    /// [2⁻²⁰⁰, 2²⁰⁰], and the ends of the f64 range beyond them.
    const EDGE_EXPONENTS: [i32; 13] =
        [-1074, -1022, -300, -202, -201, -200, -199, 199, 200, 201, 202, 300, 1023];

    /// 2ᵉ for every exponent of a positive finite f64 (`powi` takes
    /// 2⁻¹⁰⁷⁴ as 1 / 2¹⁰⁷⁴ = 0).
    fn pow2(e: i32) -> f64 {
        2f64.powi(e / 2) * 2f64.powi(e - e / 2)
    }

    #[test]
    fn exact_steps_are_the_powers_of_two_from_2_pow_minus_200_to_2_pow_200() {
        for e in EDGE_EXPONENTS {
            let dt = pow2(e);
            assert_eq!(dt.log2(), e as f64);
            assert_eq!(is_exact_step(dt), (-200..=200).contains(&e), "dt = 2^{e}");
            if is_exact_step(dt) {
                assert_eq!(exact_reciprocal(dt), 2f64.powi(-e), "1/dt at dt = 2^{e}");
            }
        }
        let off = [0.75, 1.0 + f64::EPSILON, -1.0, -0.0, 0.0, f64::INFINITY, f64::NAN];
        assert!(off.iter().all(|&dt| !is_exact_step(dt)));
    }

    #[test]
    fn corrector_tile_matches_scalar_at_the_ends_of_the_exact_step_range() {
        for e in EDGE_EXPONENTS {
            let s = slots(11, (2000 + e) as u64, |_| pow2(e));
            for gm in [0.0, 1.0] {
                tile_vs_oracle::<8>(&s, gm, 0.02, correct_tile)
                    .unwrap_or_else(|err| panic!("dt=2^{e} gm={gm}: {err}"));
            }
        }
    }

    #[test]
    fn corrector_tile_with_one_step_that_is_not_a_power_of_two_matches_scalar() {
        // Seven power-of-two lanes and one other, in every position: the one
        // step sends the whole tile down the dividing branch.
        for odd in 0..8 {
            let dt = |k: usize| if k == odd { 0.37 } else { 2f64.powi(-(k as i32)) };
            let s = slots(8, 300 + odd as u64, dt);
            for gm in [0.0, 1.0] {
                tile_vs_oracle::<8>(&s, gm, 0.02, correct_tile)
                    .unwrap_or_else(|err| panic!("odd lane {odd} gm={gm}: {err}"));
            }
        }
    }

    #[test]
    fn corrector_tile_gives_infinite_step_for_zero_derivatives() {
        let zero = Slot {
            pos: Vec3::new(20.0, 1.0, 0.0),
            vel: Vec3::new(0.0, 0.2, 0.0),
            acc0: Vec3::zero(),
            jerk0: Vec3::zero(),
            acc1: Vec3::zero(),
            jerk1: Vec3::zero(),
            dt: 0.125,
        };
        for n in [1, 9] {
            let dt_des = tile_vs_oracle::<8>(&vec![zero; n], 0.0, 0.02, correct_tile);
            assert_eq!(dt_des, Ok(vec![f64::INFINITY; n]));
        }
    }

    /// [`correct_tile`] one slot at a time with one factor reassociated: the
    /// Aarseth step as `eta * (num / den)` in place of `eta * num / den`.
    fn tile_reassociated(
        ips: &[IParticle],
        results: &[ForceResult],
        sys: &mut ParticleSystem,
        t_block: f64,
        eta: f64,
    ) -> [f64; 8] {
        let mut dt_des = [0.0; 8];
        for (k, (ip, r)) in ips.iter().zip(results).enumerate() {
            let i = ip.index;
            let (mut acc1, mut jerk1) = (r.acc, r.jerk);
            if sys.central_mass > 0.0 {
                let (ca, cj) = central_acc_jerk(sys.central_mass, ip.pos, ip.vel);
                acc1 += ca;
                jerk1 += cj;
            }
            let dt = t_block - sys.time[i];
            let c = correct(ip.pos, ip.vel, sys.acc[i], sys.jerk[i], acc1, jerk1, dt);
            (sys.pos[i], sys.vel[i], sys.acc[i], sys.jerk[i]) = (c.pos, c.vel, acc1, jerk1);
            (sys.pot[i], sys.time[i]) = (r.pot, t_block);
            let (a, j, s, cr) = (acc1.norm(), jerk1.norm(), c.snap.norm(), c.crackle.norm());
            let (num, den) = (a * s + j * j, j * cr + s * s);
            dt_des[k] = if den == 0.0 { f64::INFINITY } else { (eta * (num / den)).sqrt() };
        }
        dt_des
    }

    #[test]
    fn corrector_tile_test_rejects_a_reassociated_tile() {
        let rejected = (1..=17).any(|n| {
            let s = slots(n, 7 + n as u64, mixed_dt);
            tile_vs_oracle::<8>(&s, 1.0, 0.02, tile_reassociated)
                .is_err_and(|e| e.contains("dt_des"))
        });
        assert!(rejected, "a reassociated Aarseth factor passed as bitwise equal");
    }

    mod tile_props {
        use super::*;
        use proptest::prelude::*;

        fn vec3(range: f64) -> impl Strategy<Value = Vec3> {
            (-range..range, -range..range, -range..range).prop_map(|(x, y, z)| Vec3::new(x, y, z))
        }

        fn slot(dt: impl Strategy<Value = f64>) -> impl Strategy<Value = Slot> {
            let state = (vec3(1e3), vec3(10.0), dt);
            (state, (vec3(1.0), vec3(1.0)), (vec3(1.0), vec3(1.0))).prop_map(
                |((pos, vel, dt), (acc0, jerk0), (acc1, jerk1))| Slot {
                    pos,
                    vel,
                    acc0,
                    jerk0,
                    acc1,
                    jerk1,
                    dt,
                },
            )
        }

        /// A block step: 2⁻⁴⁵..2⁸.
        fn power_of_two_step() -> impl Strategy<Value = f64> {
            (-45..=8i32).prop_map(|e| 2f64.powi(e))
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]
            /// Random finite block slots: the tile matches the scalar
            /// corrector bit for bit, with a central mass (`gm > 0`) and
            /// without one (`gm ≤ 0` skips the field).
            #[test]
            fn corrector_tile_matches_scalar_on_random_states(
                s in proptest::collection::vec(slot(1e-9..8.0f64), 1..=17),
                gm in -5.0..10.0f64,
                eta in 1e-4..1.0f64,
            ) {
                let agree = tile_vs_oracle::<8>(&s, gm, eta, correct_tile);
                prop_assert!(agree.is_ok(), "{:?}", agree);
            }

            /// The same with power-of-two steps, a block step's, which the
            /// tile corrects without a divide.
            #[test]
            fn corrector_tile_matches_scalar_on_power_of_two_steps(
                s in proptest::collection::vec(slot(power_of_two_step()), 1..=17),
                gm in -5.0..10.0f64,
                eta in 1e-4..1.0f64,
            ) {
                let agree = tile_vs_oracle::<8>(&s, gm, eta, correct_tile);
                prop_assert!(agree.is_ok(), "{:?}", agree);
            }
        }
    }
}
