//! The on-chip predictor pipeline (paper §4.2, Fig 9).
//!
//! Before the force pipelines sweep the j-memory, every stored j-particle is
//! extrapolated from its individual time to the current block time with the
//! Hermite predictor polynomial. GRAPE-6 dedicates one hardware pipeline per
//! chip to this. Positions are predicted in fixed point (the increment is
//! computed in short floating point and added to the fixed-point base —
//! exact, because the increment is small); velocities in short floating
//! point.

use crate::format::{round_mantissa, round_vec, FixedPointFormat, Precision, ShortWord};
use grape6_core::particle::ParticleSystem;
use grape6_core::vec3::Vec3;

/// A j-particle as held in GRAPE-6 memory (SSRAM): fixed-point position,
/// short-float dynamics, and the particle's individual time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JParticle {
    /// Fixed-point position at `t0`.
    pub qpos: [i64; 3],
    /// Velocity at `t0`.
    pub vel: Vec3,
    /// Acceleration at `t0`.
    pub acc: Vec3,
    /// Jerk at `t0`.
    pub jerk: Vec3,
    /// Mass.
    pub mass: f64,
    /// Individual time of the stored state.
    pub t0: f64,
}

impl JParticle {
    /// Encode a host-side particle state into memory format.
    #[allow(clippy::too_many_arguments)] // mirrors the memory word layout
    pub fn encode(
        fmt: &FixedPointFormat,
        precision: Precision,
        pos: Vec3,
        vel: Vec3,
        acc: Vec3,
        jerk: Vec3,
        mass: f64,
        t0: f64,
    ) -> Self {
        let bits = precision.mantissa_bits();
        Self {
            qpos: fmt.encode_vec(pos),
            vel: round_vec(vel, bits),
            acc: round_vec(acc, bits),
            jerk: round_vec(jerk, bits),
            mass: round_mantissa(mass, bits),
            t0,
        }
    }

    /// Encode particle `i` of `sys` as of its individual time — what `load`
    /// and every j write-back put in memory.
    pub fn from_system(
        fmt: &FixedPointFormat,
        precision: Precision,
        sys: &ParticleSystem,
        i: usize,
    ) -> Self {
        Self::encode(
            fmt,
            precision,
            sys.pos[i],
            sys.vel[i],
            sys.acc[i],
            sys.jerk[i],
            sys.mass[i],
            sys.time[i],
        )
    }
}

/// Predicted j-particle: fixed-point position at the block time plus
/// short-float velocity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PredictedJ {
    /// Fixed-point predicted position.
    pub qpos: [i64; 3],
    /// Predicted velocity.
    pub vel: Vec3,
    /// Mass (pass-through).
    pub mass: f64,
}

/// Run the predictor pipeline for one j-particle to block time `t`.
#[inline]
pub fn predict_j(
    fmt: &FixedPointFormat,
    precision: Precision,
    j: &JParticle,
    t: f64,
) -> PredictedJ {
    let bits = precision.mantissa_bits();
    let dt = round_mantissa(t - j.t0, bits);
    let dt2h = round_mantissa(dt * dt * 0.5, bits);
    let dt3s = round_mantissa(dt * dt * dt / 6.0, bits);
    // Position increment in short float, added exactly in fixed point.
    let dpos = round_vec(j.vel * dt + j.acc * dt2h + j.jerk * dt3s, bits);
    let qinc = fmt.encode_vec(dpos);
    let qpos = [
        j.qpos[0].wrapping_add(qinc[0]),
        j.qpos[1].wrapping_add(qinc[1]),
        j.qpos[2].wrapping_add(qinc[2]),
    ];
    let vel = round_vec(j.vel + j.acc * dt + j.jerk * dt2h, bits);
    PredictedJ { qpos, vel, mass: j.mass }
}

/// [`predict_j`] for one lane of a `for k in 0..W` loop: the same
/// expression tree with [`ShortWord::round`] for the stage roundings and the
/// precomputed grid [`scale`](FixedPointFormat::scale), so the loop body is
/// branch-free. Returns the predicted fixed-point position and velocity.
#[inline(always)]
// grape6-lint: hot
pub(crate) fn predict_lane(
    word: ShortWord,
    scale: f64,
    j: &JParticle,
    t: f64,
) -> ([i64; 3], [f64; 3]) {
    let dt = word.round(t - j.t0);
    let dt2h = word.round(dt * dt * 0.5);
    let dt3s = word.round(dt * dt * dt / 6.0);
    let (v, a, k) = (j.vel.to_array(), j.acc.to_array(), j.jerk.to_array());
    let mut qpos = [0i64; 3];
    let mut vel = [0.0f64; 3];
    for c in 0..3 {
        let dpos = word.round(v[c] * dt + a[c] * dt2h + k[c] * dt3s);
        qpos[c] = j.qpos[c].wrapping_add(FixedPointFormat::to_grid(dpos * scale));
        vel[c] = word.round(v[c] + a[c] * dt + k[c] * dt2h);
    }
    (qpos, vel)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_j(fmt: &FixedPointFormat) -> JParticle {
        JParticle::encode(
            fmt,
            Precision::Exact,
            Vec3::new(20.0, 1.0, -0.2),
            Vec3::new(0.01, 0.22, 0.001),
            Vec3::new(-1e-3, -2e-4, 0.0),
            Vec3::new(1e-5, 0.0, -1e-6),
            3e-9,
            1.0,
        )
    }

    #[test]
    fn predict_at_t0_is_identity() {
        let fmt = FixedPointFormat::default();
        let j = sample_j(&fmt);
        let p = predict_j(&fmt, Precision::Exact, &j, 1.0);
        assert_eq!(p.qpos, j.qpos);
        assert_eq!(p.vel, j.vel);
        assert_eq!(p.mass, j.mass);
    }

    #[test]
    fn exact_prediction_matches_host_polynomial() {
        let fmt = FixedPointFormat::default();
        let j = sample_j(&fmt);
        let t = 1.25;
        let p = predict_j(&fmt, Precision::Exact, &j, t);
        let dt = t - j.t0;
        let expect_pos = fmt.decode_vec(j.qpos)
            + j.vel * dt
            + j.acc * (dt * dt / 2.0)
            + j.jerk * (dt * dt * dt / 6.0);
        let got = fmt.decode_vec(p.qpos);
        // The fixed-point path differs from the all-f64 expectation by a few
        // ulps at |x| ≈ 20 (the fixed-point sum is *more* accurate).
        assert!((got - expect_pos).norm() < 1e-14, "{:e}", (got - expect_pos).norm());
        let expect_vel = j.vel + j.acc * dt + j.jerk * (dt * dt / 2.0);
        assert!((p.vel - expect_vel).norm() < 1e-15);
    }

    #[test]
    fn grape6_prediction_error_is_single_precision_class() {
        let fmt = FixedPointFormat::default();
        let j = sample_j(&fmt);
        let t = 1.5;
        let exact = predict_j(&fmt, Precision::Exact, &j, t);
        let hw = predict_j(&fmt, Precision::grape6(), &j, t);
        let dpos = (fmt.decode_vec(hw.qpos) - fmt.decode_vec(exact.qpos)).norm();
        // The *increment* (≈0.11 AU here) is rounded to 24 bits → error ≲ 1e-8 AU.
        assert!(dpos < 1e-7, "prediction error {dpos:e}");
        assert!((hw.vel - exact.vel).norm() < 1e-7);
    }

    #[test]
    fn lane_predictor_matches_predict_j_bitwise() {
        // Random states, then the same with one field made non-finite,
        // huge (position increment saturates the grid) or subnormal.
        let fmt = FixedPointFormat::default();
        let mut seed = 7u64;
        let mut rng = move || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (seed >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let odd = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e300, -1e19, 5e-324, -0.0];
        for case in 0..200 {
            let mut j = JParticle {
                qpos: fmt.encode_vec(Vec3::new(rng() * 60.0, rng() * 60.0, rng())),
                vel: Vec3::new(rng(), rng(), rng()),
                acc: Vec3::new(rng(), rng(), rng()) * 1e-3,
                jerk: Vec3::new(rng(), rng(), rng()) * 1e-5,
                mass: 1e-9,
                t0: rng(),
            };
            if case >= 100 {
                let x = odd[case % odd.len()];
                match case % 5 {
                    0 => j.vel.x = x,
                    1 => j.acc.y = x,
                    2 => j.jerk.z = x,
                    3 => j.t0 = x,
                    _ => j.vel.z = x,
                }
            }
            for precision in
                [Precision::grape6(), Precision::Exact, Precision::Grape6 { mantissa_bits: 10 }]
            {
                let t = 1.0 + rng();
                let want = predict_j(&fmt, precision, &j, t);
                let word = ShortWord::new(precision.mantissa_bits());
                let (qpos, vel) = predict_lane(word, fmt.scale(), &j, t);
                assert_eq!(qpos, want.qpos, "case {case} {precision:?}");
                // (IEEE leaves the sign and payload of a NaN *result* open.)
                let key = |x: f64| if x.is_nan() { u64::MAX } else { x.to_bits() };
                assert_eq!(vel.map(key), want.vel.to_array().map(key), "case {case}");
            }
        }
    }

    #[test]
    fn encode_rounds_dynamics_not_position() {
        let fmt = FixedPointFormat::default();
        let pos = Vec3::new(20.000_000_123_456_79, 0.0, 0.0);
        let vel = Vec3::new(1.0 / 3.0, 0.0, 0.0);
        let j = JParticle::encode(
            &fmt,
            Precision::grape6(),
            pos,
            vel,
            Vec3::zero(),
            Vec3::zero(),
            1e-9,
            0.0,
        );
        // Position survives at fixed-point resolution…
        assert!((fmt.decode_vec(j.qpos) - pos).norm() < 4.0 * fmt.resolution());
        // …velocity is rounded to the 24-bit pipeline word.
        assert_eq!(j.vel.x as f32 as f64, j.vel.x);
        assert!((j.vel.x - vel.x).abs() < 2.0f64.powi(-24));
    }
}
