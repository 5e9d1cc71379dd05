//! The 4th-order Hermite predictor/corrector scheme (Makino & Aarseth 1992)
//! and the Aarseth adaptive timestep criterion.
//!
//! GRAPE-6 was designed around this integrator: the pipelines return both the
//! force and its analytic time derivative (jerk), which is what lets a
//! 4th-order scheme run with a single force evaluation per step.
//!
//! The block-step integrator corrects its active particles through a
//! [`CorrectorTile`]: `W` block slots in structure-of-arrays lanes, each lane
//! running [`central_acc_jerk`], [`correct`] and [`aarseth_dt`] — the scalar
//! functions, which stay the oracle the tile is tested against and what the
//! shared-timestep baseline calls directly.

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
/// [`CorrectorTile`] evaluate it without leaving straight-line code.
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

/// `W` slots of a block step's corrector in structure-of-arrays lanes: the
/// host-side counterpart of [`crate::lanes::LaneTile`] for the per-particle
/// host term.
///
/// [`Self::load`] gathers each slot's predicted state, its derivatives at the
/// start of the step, the engine's result and its step `dt`;
/// [`Self::compute`] runs one straight-line loop over the lanes;
/// [`Self::store`] scatters the corrected state back. Per lane `compute` is
/// the scalar sequence — [`central_acc_jerk`] added to the engine result when
/// the central mass is positive, then [`correct`], then [`aarseth_dt`] —
/// called on the lane's values, so the expression tree, and every output
/// bit, is the oracle's for any `W`.
/// A ragged tail (fewer than `W` slots) pads by replicating slot 0, the
/// `lanes` remainder rule: the padding computes real, finite values that are
/// never stored.
#[derive(Debug, Clone)]
pub struct CorrectorTile<const W: usize> {
    /// Predicted position; corrected in place by `compute`.
    pos: Lanes3<W>,
    /// Predicted velocity; corrected in place by `compute`.
    vel: Lanes3<W>,
    /// Acceleration and jerk at the start of the step.
    acc0: Lanes3<W>,
    jerk0: Lanes3<W>,
    /// The engine's acceleration and jerk at the predicted state; `compute`
    /// adds the central field.
    acc1: Lanes3<W>,
    jerk1: Lanes3<W>,
    /// Step length `t_block − time[i]`.
    dt: [f64; W],
    /// Aarseth step, set by `compute`.
    dt_des: [f64; W],
}

impl<const W: usize> CorrectorTile<W> {
    /// Gather up to `W` block slots: `ips[k]` and `results[k]` are slot `k`'s
    /// predicted i-particle and engine result, and `sys` holds its state at
    /// its own time.
    #[inline]
    // grape6-lint: hot
    pub fn load(
        ips: &[IParticle],
        results: &[ForceResult],
        sys: &ParticleSystem,
        t_block: f64,
    ) -> Self {
        assert!(!ips.is_empty() && ips.len() <= W);
        assert_eq!(ips.len(), results.len());
        let z = [[0.0; W]; 3];
        let mut t = Self {
            pos: z,
            vel: z,
            acc0: z,
            jerk0: z,
            acc1: z,
            jerk1: z,
            dt: [0.0; W],
            dt_des: [0.0; W],
        };
        for k in 0..W {
            let s = if k < ips.len() { k } else { 0 };
            let i = ips[s].index;
            set_lane(&mut t.pos, k, ips[s].pos);
            set_lane(&mut t.vel, k, ips[s].vel);
            set_lane(&mut t.acc0, k, sys.acc[i]);
            set_lane(&mut t.jerk0, k, sys.jerk[i]);
            set_lane(&mut t.acc1, k, results[s].acc);
            set_lane(&mut t.jerk1, k, results[s].jerk);
            t.dt[k] = t_block - sys.time[i];
            debug_assert!(t.dt[k] > 0.0, "non-positive step for particle {i}");
        }
        t
    }

    /// Add the central field of mass `central_mass` (skipped unless it is
    /// positive, as in the scalar integrator), correct every lane and
    /// evaluate its Aarseth step with accuracy parameter `eta`.
    #[inline]
    // grape6-lint: hot
    pub fn compute(&mut self, central_mass: f64, eta: f64) {
        if central_mass > 0.0 {
            for k in 0..W {
                let (ca, cj) =
                    central_acc_jerk(central_mass, lane(&self.pos, k), lane(&self.vel, k));
                let (acc1, jerk1) = (lane(&self.acc1, k) + ca, lane(&self.jerk1, k) + cj);
                set_lane(&mut self.acc1, k, acc1);
                set_lane(&mut self.jerk1, k, jerk1);
            }
        }
        for k in 0..W {
            let (acc1, jerk1) = (lane(&self.acc1, k), lane(&self.jerk1, k));
            let c = correct(
                lane(&self.pos, k),
                lane(&self.vel, k),
                lane(&self.acc0, k),
                lane(&self.jerk0, k),
                acc1,
                jerk1,
                self.dt[k],
            );
            set_lane(&mut self.pos, k, c.pos);
            set_lane(&mut self.vel, k, c.vel);
            self.dt_des[k] = aarseth_dt(acc1, jerk1, c.snap, c.crackle, eta);
        }
    }

    /// Scatter the first `ips.len()` lanes into `sys` — position, velocity,
    /// acceleration, jerk, the engine's potential and `time = t_block` — and
    /// return their Aarseth steps. Padding lanes are dropped.
    #[inline]
    // grape6-lint: hot
    pub fn store(
        &self,
        ips: &[IParticle],
        results: &[ForceResult],
        sys: &mut ParticleSystem,
        t_block: f64,
    ) -> &[f64] {
        debug_assert!(ips.len() <= W && ips.len() == results.len());
        for (k, (ip, r)) in ips.iter().zip(results).enumerate() {
            let i = ip.index;
            sys.pos[i] = lane(&self.pos, k);
            sys.vel[i] = lane(&self.vel, k);
            sys.acc[i] = lane(&self.acc1, k);
            sys.jerk[i] = lane(&self.jerk1, k);
            sys.pot[i] = r.pot;
            sys.time[i] = t_block;
        }
        &self.dt_des[..ips.len()]
    }
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

    const T_BLOCK: f64 = 16.0;

    fn bits(v: Vec3) -> [u64; 3] {
        v.to_array().map(f64::to_bits)
    }

    /// Run `slots` through `W`-lane tiles the way `BlockHermite` does, with
    /// `run` as the compute step, and compare everything the tiles store with
    /// the scalar sequence `central_acc_jerk` + `correct` + `aarseth_dt`, bit
    /// for bit; on agreement return the Aarseth steps. Slot `k` is particle
    /// `2k + 1`; the even particles are outside the block and must come back
    /// untouched.
    fn tile_vs_oracle<const W: usize>(
        slots: &[Slot],
        gm: f64,
        eta: f64,
        run: fn(&mut CorrectorTile<W>, f64, f64),
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
            let mut tile = CorrectorTile::<W>::load(ips, results, &sys, T_BLOCK);
            run(&mut tile, gm, eta);
            dt_des.extend_from_slice(tile.store(ips, results, &mut sys, T_BLOCK));
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
                tile_vs_oracle::<8>(&s, gm, 0.02, CorrectorTile::compute)
                    .unwrap_or_else(|e| panic!("W=8 n={n} gm={gm}: {e}"));
                tile_vs_oracle::<4>(&s, gm, 0.02, CorrectorTile::compute)
                    .unwrap_or_else(|e| panic!("W=4 n={n} gm={gm}: {e}"));
            }
        }
    }

    #[test]
    fn corrector_tile_matches_scalar_for_block_steps_from_2_pow_minus_40_to_8() {
        for e in -40..=3 {
            let s = slots(11, (100 + e) as u64, |_| 2f64.powi(e));
            for gm in [0.0, 1.0] {
                tile_vs_oracle::<8>(&s, gm, 0.02, CorrectorTile::compute)
                    .unwrap_or_else(|err| panic!("dt=2^{e} gm={gm}: {err}"));
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
            let dt_des = tile_vs_oracle::<8>(&vec![zero; n], 0.0, 0.02, CorrectorTile::compute);
            assert_eq!(dt_des, Ok(vec![f64::INFINITY; n]));
        }
    }

    /// [`CorrectorTile::compute`] with one factor reassociated: the Aarseth
    /// step as `eta * (num / den)` in place of `eta * num / den`.
    fn compute_reassociated(t: &mut CorrectorTile<8>, gm: f64, eta: f64) {
        for k in 0..8 {
            let (mut acc1, mut jerk1) = (lane(&t.acc1, k), lane(&t.jerk1, k));
            if gm > 0.0 {
                let (ca, cj) = central_acc_jerk(gm, lane(&t.pos, k), lane(&t.vel, k));
                acc1 += ca;
                jerk1 += cj;
            }
            let (pos, vel, acc0, jerk0) =
                (lane(&t.pos, k), lane(&t.vel, k), lane(&t.acc0, k), lane(&t.jerk0, k));
            let c = correct(pos, vel, acc0, jerk0, acc1, jerk1, t.dt[k]);
            set_lane(&mut t.pos, k, c.pos);
            set_lane(&mut t.vel, k, c.vel);
            set_lane(&mut t.acc1, k, acc1);
            set_lane(&mut t.jerk1, k, jerk1);
            let (a, j, s, cr) = (acc1.norm(), jerk1.norm(), c.snap.norm(), c.crackle.norm());
            let (num, den) = (a * s + j * j, j * cr + s * s);
            t.dt_des[k] = if den == 0.0 { f64::INFINITY } else { (eta * (num / den)).sqrt() };
        }
    }

    #[test]
    fn corrector_tile_test_rejects_a_reassociated_tile() {
        let rejected = (1..=17).any(|n| {
            let s = slots(n, 7 + n as u64, mixed_dt);
            tile_vs_oracle::<8>(&s, 1.0, 0.02, compute_reassociated)
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

        fn slot() -> impl Strategy<Value = Slot> {
            let state = (vec3(1e3), vec3(10.0), 1e-9..8.0f64);
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

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]
            /// Random finite block slots: the tile matches the scalar
            /// corrector bit for bit, with a central mass (`gm > 0`) and
            /// without one (`gm ≤ 0` skips the field).
            #[test]
            fn corrector_tile_matches_scalar_on_random_states(
                s in proptest::collection::vec(slot(), 1..=17),
                gm in -5.0..10.0f64,
                eta in 1e-4..1.0f64,
            ) {
                let agree = tile_vs_oracle::<8>(&s, gm, eta, CorrectorTile::compute);
                prop_assert!(agree.is_ok(), "{:?}", agree);
            }
        }
    }
}
