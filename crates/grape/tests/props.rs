//! Property-based tests on the hardware formats and pipelines.

use grape6_core::force::pair_force_jerk;
use grape6_core::vec3::Vec3;
use grape6_hw::format::{
    limbs_out_of_domain, round_mantissa, split_limbs, FixedAccumulator, FixedPointFormat,
    Precision, ShortWord, VecAccumulator,
};
use grape6_hw::pipeline::{pipeline_interaction, PipelineRegisters};
use grape6_hw::predictor::{predict_j, JParticle};
use proptest::prelude::*;

proptest! {
    // ---------- mantissa rounding ----------

    #[test]
    fn round_mantissa_relative_error_bound(x in -1e20..1e20f64, bits in 8u32..53) {
        prop_assume!(x != 0.0);
        let r = round_mantissa(x, bits);
        prop_assert!(((r - x) / x).abs() <= 2.0f64.powi(-(bits as i32)));
    }

    #[test]
    fn round_mantissa_is_idempotent(x in -1e10..1e10f64, bits in 8u32..53) {
        let r = round_mantissa(x, bits);
        prop_assert_eq!(round_mantissa(r, bits), r);
    }

    #[test]
    fn round_mantissa_is_monotone(a in -1e6..1e6f64, b in -1e6..1e6f64, bits in 8u32..53) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(round_mantissa(lo, bits) <= round_mantissa(hi, bits));
    }

    #[test]
    fn round_mantissa_24_equals_f32_rounding(x in -1e30..1e30f64) {
        // Where f32 doesn't overflow/underflow, 24-bit rounding = f32 cast.
        prop_assume!(x.abs() > 1e-30);
        let r = round_mantissa(x, 24);
        prop_assert_eq!(r, r as f32 as f64);
    }

    // ---------- fixed-point positions ----------

    #[test]
    fn fixed_roundtrip_within_half_ulp(x in -500.0..500.0f64) {
        let f = FixedPointFormat::default();
        prop_assert!((f.decode(f.encode(x)) - x).abs() <= f.resolution() / 2.0 + 1e-300);
    }

    #[test]
    fn fixed_subtraction_exact(a in -250.0..250.0f64, b in -250.0..250.0f64) {
        // (a ⊖ b) in the integer domain equals decode(a) − decode(b) exactly
        // whenever the difference is representable (|a − b| ≤ 500 < 512 AU
        // range; beyond that the hardware wraps, as two's complement does).
        let f = FixedPointFormat::default();
        let qa = f.encode(a);
        let qb = f.encode(b);
        let diff = f.decode(qa.wrapping_sub(qb));
        prop_assert_eq!(diff, f.decode(qa) - f.decode(qb));
    }

    #[test]
    fn fixed_encode_is_monotone(a in -400.0..400.0f64, b in -400.0..400.0f64) {
        let f = FixedPointFormat::default();
        if a <= b {
            prop_assert!(f.encode(a) <= f.encode(b));
        }
    }

    // ---------- fixed-point accumulation ----------

    #[test]
    fn accumulator_permutation_invariant(xs in prop::collection::vec(-1e-3..1e-3f64, 1..200), rot in 0usize..200) {
        let mut fwd = FixedAccumulator::new();
        for &x in &xs { fwd.add(x); }
        let k = rot % xs.len();
        let mut rotated = FixedAccumulator::new();
        for &x in xs[k..].iter().chain(xs[..k].iter()) { rotated.add(x); }
        prop_assert_eq!(fwd, rotated);
    }

    #[test]
    fn accumulator_split_merge_invariant(xs in prop::collection::vec(-1.0..1.0f64, 2..128), split in 1usize..127) {
        let s = split.min(xs.len() - 1);
        let mut whole = VecAccumulator::new();
        for &x in &xs { whole.add(Vec3::splat(x)); }
        let mut a = VecAccumulator::new();
        let mut b = VecAccumulator::new();
        for &x in &xs[..s] { a.add(Vec3::splat(x)); }
        for &x in &xs[s..] { b.add(Vec3::splat(x)); }
        a.merge(b);
        prop_assert_eq!(whole.to_vec3(), a.to_vec3());
    }

    // ---------- pipeline vs reference kernel ----------

    #[test]
    fn pipeline_tracks_reference_within_word_precision(
        xi in -40.0..40.0f64, yi in -40.0..40.0f64,
        xj in -40.0..40.0f64, yj in -40.0..40.0f64,
        vx in -0.5..0.5f64, vy in -0.5..0.5f64,
        m in 1e-10..1e-4f64,
    ) {
        let f = FixedPointFormat::default();
        let pi = Vec3::new(xi, yi, 0.1);
        let pj = Vec3::new(xj, yj, -0.2);
        prop_assume!((pj - pi).norm() > 1e-2);
        let vi = Vec3::new(vx, vy, 0.0);
        let vj = Vec3::new(-vy, vx, 0.01);
        let eps2 = 0.008 * 0.008;
        let (a_hw, j_hw, p_hw) = pipeline_interaction(
            &f, Precision::grape6(), f.encode_vec(pi), f.encode_vec(pj), vi, vj, m, eps2,
        );
        let (a, j, p) = pair_force_jerk(pj - pi, vj - vi, m, eps2);
        prop_assert!((a_hw - a).norm() <= 1e-5 * a.norm().max(1e-300), "acc err");
        prop_assert!((j_hw - j).norm() <= 1e-4 * j.norm() + 1e-6 * a.norm(), "jerk err");
        prop_assert!((p_hw - p).abs() <= 1e-5 * p.abs(), "pot err");
    }

    #[test]
    fn register_reduction_bit_exact_under_any_partition(
        n in 2usize..40,
        parts in 2usize..6,
        seed in 0u64..500,
    ) {
        let f = FixedPointFormat::default();
        let prec = Precision::grape6();
        let eps2 = 1e-4;
        let mut state = seed.wrapping_mul(0x2545F4914F6CDD1D).wrapping_add(99);
        let mut rnd = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let xi = f.encode_vec(Vec3::new(20.0, 0.0, 0.0));
        let vi = Vec3::new(0.0, 0.2, 0.0);
        let js: Vec<(Vec3, Vec3, f64)> = (0..n)
            .map(|_| (
                Vec3::new(20.0 + rnd() * 5.0, rnd() * 5.0, rnd()),
                Vec3::new(rnd() * 0.1, 0.2 + rnd() * 0.1, 0.0),
                1e-9 * (1.0 + rnd().abs()),
            ))
            .collect();
        let mut whole = PipelineRegisters::new();
        for (pj, vj, mj) in &js {
            whole.accumulate(&f, prec, xi, f.encode_vec(*pj), vi, *vj, *mj, eps2);
        }
        let mut split = vec![PipelineRegisters::new(); parts];
        for (k, (pj, vj, mj)) in js.iter().enumerate() {
            split[k % parts].accumulate(&f, prec, xi, f.encode_vec(*pj), vi, *vj, *mj, eps2);
        }
        let mut merged = PipelineRegisters::new();
        for r in &split {
            merged.merge(r);
        }
        prop_assert_eq!(whole.read().0, merged.read().0);
        prop_assert_eq!(whole.read().2, merged.read().2);
    }

    // ---------- predictor ----------

    #[test]
    fn predictor_matches_host_polynomial_in_exact_mode(
        x in -40.0..40.0f64,
        v in -0.5..0.5f64,
        a in -1e-3..1e-3f64,
        jk in -1e-5..1e-5f64,
        t0 in 0.0..10.0f64,
        dt in 0.0..4.0f64,
    ) {
        let f = FixedPointFormat::default();
        let jp = JParticle::encode(
            &f, Precision::Exact,
            Vec3::new(x, 1.0, -1.0),
            Vec3::new(v, -v, 0.1),
            Vec3::new(a, a, 0.0),
            Vec3::new(jk, 0.0, jk),
            1e-9,
            t0,
        );
        let pred = predict_j(&f, Precision::Exact, &jp, t0 + dt);
        let expect = f.decode_vec(jp.qpos)
            + jp.vel * dt + jp.acc * (dt * dt / 2.0) + jp.jerk * (dt * dt * dt / 6.0);
        let got = f.decode_vec(pred.qpos);
        prop_assert!((got - expect).norm() <= 1e-12 * expect.norm().max(1.0));
    }
}

// ---------------------------------------------------------------------------
// The documented half-ulp bounds ARE the conformance oracle's constants:
// `rel_half_ulp`, `FixedPointFormat::half_ulp` and `accum_quantum` feed the
// tolerance budget in `grape6-conformance`. These properties pin the format
// implementations to exactly those exported bounds, so the oracle can never
// silently drift away from the arithmetic it models.
// ---------------------------------------------------------------------------

use grape6_hw::format::{accum_quantum, rel_half_ulp};

proptest! {
    #[test]
    fn round_mantissa_error_never_exceeds_rel_half_ulp(
        x in -1e30..1e30f64,
        bits in 8u32..54,
    ) {
        prop_assume!(x != 0.0);
        let r = round_mantissa(x, bits);
        prop_assert!(
            (r - x).abs() <= rel_half_ulp(bits) * x.abs(),
            "x = {x:e}, bits = {bits}: error {:e} > bound {:e}",
            (r - x).abs(),
            rel_half_ulp(bits) * x.abs()
        );
    }

    #[test]
    fn rel_half_ulp_is_tight_for_the_pipeline_word(x in 1.0..2.0f64) {
        // Not just an upper bound: some inputs in every binade reach at
        // least half of it (round-to-nearest achieves u/2 .. u).
        let bits = 24u32;
        let worst = (0..64)
            .map(|k| {
                let y = x + k as f64 * 2.0f64.powi(-30);
                (round_mantissa(y, bits) - y).abs() / y
            })
            .fold(0.0f64, f64::max);
        prop_assert!(worst >= rel_half_ulp(bits) / 4.0, "bound is vacuously loose: {worst:e}");
    }

    #[test]
    fn fixed_roundtrip_error_never_exceeds_half_ulp(x in -511.0..511.0f64) {
        let f = FixedPointFormat::default();
        let err = (f.decode(f.encode(x)) - x).abs();
        prop_assert!(err <= f.half_ulp(), "x = {x}: {err:e} > {:e}", f.half_ulp());
    }

    #[test]
    fn accumulator_roundtrip_error_never_exceeds_quantum(x in -1e-3..1e-3f64) {
        // One add into the wide accumulator quantizes by at most one grid
        // step (the conformance oracle charges `accum_quantum` per partial).
        let mut acc = FixedAccumulator::new();
        acc.add(x);
        prop_assert!((acc.to_f64() - x).abs() <= accum_quantum());
    }

    // ---------- the lane kernels' rounding vs the predicate-form oracle ----------

    #[test]
    fn short_word_matches_round_mantissa_on_raw_bit_patterns(
        raw in prop::collection::vec(0u64..u64::MAX, 8),
        bits in 1u32..60,
    ) {
        // Arbitrary bit patterns cover every class at once: normals,
        // subnormals, ±0, ±∞, and NaNs with arbitrary payloads. The
        // branch-free identity the lane kernels inline must reproduce the
        // predicate form bit for bit on all of them (including NaN payload
        // and −0.0 sign preservation).
        let word = ShortWord::new(bits);
        for &r in &raw {
            let x = f64::from_bits(r);
            prop_assert_eq!(
                word.round(x).to_bits(), round_mantissa(x, bits).to_bits(),
                "x = {:e} ({:#018x}), bits = {}", x, r, bits
            );
        }
    }

    #[test]
    fn short_word_matches_round_mantissa_on_subnormals(
        raw in prop::collection::vec(0u64..u64::MAX, 4),
        bits in 1u32..53,
    ) {
        // Force the biased exponent to zero: every value is a subnormal (or
        // ±0), the regime where the integer round-up can carry into the
        // exponent field and promote to the smallest normal.
        let word = ShortWord::new(bits);
        for &r in &raw {
            let x = f64::from_bits(r & 0x800F_FFFF_FFFF_FFFF);
            prop_assert_eq!(
                word.round(x).to_bits(), round_mantissa(x, bits).to_bits(),
                "subnormal x = {:e}, bits = {}", x, bits
            );
        }
    }

    // ---------- deferred-carry limbs vs the i128 accumulator ----------

    #[test]
    fn limb_digits_match_the_accumulator_on_raw_bit_patterns(
        raw in prop::collection::vec(0u64..u64::MAX, 8),
        exp in prop::collection::vec(900u64..1060, 8),
    ) {
        // All classes from the raw patterns, then the same mantissas pulled
        // into the exponent range the accumulator actually resolves
        // (2⁻¹²³ … 2³⁷ straddles both the 2⁻⁹⁷ rounding edge and the 2²⁹
        // contract edge).
        for (&r, &e) in raw.iter().zip(&exp) {
            check_limbs_against_accumulator(f64::from_bits(r))?;
            let dense = (r & 0x800F_FFFF_FFFF_FFFF) | (e << 52);
            check_limbs_against_accumulator(f64::from_bits(dense))?;
        }
    }

    #[test]
    fn exact_precision_rounds_nothing(x in -1e15..1e15f64) {
        // `Precision::Exact` is mantissa_bits ≥ 53, where the oracle's
        // relative half-ulp collapses to the f64 epsilon and rounding is
        // the identity.
        prop_assert_eq!(round_mantissa(x, Precision::Exact.mantissa_bits()), x);
        prop_assert_eq!(rel_half_ulp(Precision::Exact.mantissa_bits()), 2.0f64.powi(-53));
    }
}

/// The limb path for one value: either flagged out of domain — allowed only
/// outside the accumulator contract (finite, |x| < 2²⁹), where the kernels
/// hand the value to `FixedAccumulator::add` itself — or digits that fold to
/// exactly what `add` accumulates.
fn check_limbs_against_accumulator(x: f64) -> Result<(), proptest::TestCaseError> {
    let d = split_limbs(x);
    let in_contract = x.abs() < 2.0f64.powi(29);
    if limbs_out_of_domain(d[2]) != 0 {
        prop_assert!(!in_contract, "in-contract x = {:e} flagged out of domain", x);
        return Ok(());
    }
    prop_assert!(x.abs() <= 2.0f64.powi(30), "x = {:e} ({:#018x}) not flagged", x, x.to_bits());
    prop_assert!(d.iter().all(|d| d.abs() <= 1 << 42), "x = {:e}: digit too large {:?}", x, d);
    // `add` debug-asserts its contract; between 2²⁹ and the limb domain's
    // edge only a release build can ask it.
    if in_contract || !cfg!(debug_assertions) {
        let mut want = FixedAccumulator::new();
        want.add(x);
        let mut got = FixedAccumulator::new();
        got.add_limbs(d.map(i128::from));
        prop_assert_eq!(got, want, "x = {:e} ({:#018x})", x, x.to_bits());
    }
    Ok(())
}

#[test]
fn limb_digits_directed_edges() {
    let q = 2.0f64.powi(-96);
    let below = |x: f64| f64::from_bits(x.to_bits() - 1);
    let above = |x: f64| f64::from_bits(x.to_bits() + 1);
    let mut edges = vec![
        0.0,
        5e-324,
        f64::MIN_POSITIVE,
        below(f64::MIN_POSITIVE),
        // Ties of the final rounding, both parities of the even neighbour,
        // and their nearest non-ties.
        0.5 * q,
        1.5 * q,
        2.5 * q,
        below(0.5 * q),
        above(0.5 * q),
        below(1.5 * q),
        above(1.5 * q),
        // Ties riding on top of a higher bit.
        2.0f64.powi(-45) + 0.5 * q,
        2.0f64.powi(-45) + 1.5 * q,
        // Where x stops needing the final rounding at all.
        2.0f64.powi(-44),
        below(2.0f64.powi(-44)),
        above(2.0f64.powi(-44)),
        // Ties of the two upper digit splits.
        2.0f64.powi(-13),
        3.0 * 2.0f64.powi(-13),
        2.0f64.powi(-55),
        3.0 * 2.0f64.powi(-55),
        1.0 / 3.0,
        1e-9 / 3.0,
        12345.678,
        // The contract edge and the limb domain's own edge.
        below(2.0f64.powi(29)),
        2.0f64.powi(29),
        below(2.0f64.powi(30)),
        2.0f64.powi(30),
        2.0f64.powi(39),
        2.0f64.powi(41),
        f64::MAX,
        f64::INFINITY,
        f64::NAN,
        f64::from_bits(0x7FF0_0000_0000_0001),
        f64::from_bits(0x7FFF_FFFF_FFFF_FFFF),
    ];
    edges.extend(edges.clone().iter().map(|x| -x));
    for x in edges {
        if let Err(e) = check_limbs_against_accumulator(x) {
            panic!("{e:?}");
        }
    }
    // Non-finite and out-of-range values must be flagged, not merely allowed to be.
    for x in
        [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 2.0f64.powi(30), -2.0f64.powi(31), -f64::MAX]
    {
        assert_ne!(limbs_out_of_domain(split_limbs(x)[2]), 0, "x = {x:e} not flagged");
    }
}

#[test]
fn limb_sums_fold_like_sequential_adds() {
    // Digit sums of many contributions (mixed signs and magnitudes) fold to
    // the same register as one `add` each.
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut sums = [0i128; 3];
    let mut want = FixedAccumulator::new();
    for _ in 0..10_000 {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let mantissa = (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
        let x = mantissa * 2.0f64.powi((state % 120) as i32 - 100);
        want.add(x);
        for (s, d) in sums.iter_mut().zip(split_limbs(x)) {
            *s += i128::from(d);
        }
    }
    let mut got = FixedAccumulator::new();
    got.add_limbs(sums);
    assert_eq!(got, want);
}

#[test]
fn short_word_edge_cases_bit_exact() {
    // The values the branch-free identity has to get right without the
    // predicate form's early returns: signed zeros (sign bit must survive),
    // infinities and NaNs (selected through, payload intact), subnormals at
    // both ends, and exact round-to-even ties.
    let edges: [f64; 8] = [
        0.0,
        -0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::from_bits(0x7FF8_0000_DEAD_BEEF), // NaN with a payload
        5e-324,                                // smallest positive subnormal
        -f64::MIN_POSITIVE,                    // largest-magnitude negative normal boundary
        f64::MAX,
    ];
    let assert_same = |x: f64, bits: u32| {
        assert_eq!(
            ShortWord::new(bits).round(x).to_bits(),
            round_mantissa(x, bits).to_bits(),
            "x = {x:e}, bits = {bits}"
        );
    };
    for bits in [0u32, 1, 8, 24, 45, 52, 53, 60] {
        for x in edges {
            assert_same(x, bits);
        }
    }
    // Exact ties: mantissa fraction exactly half an ulp of the short word,
    // one with an even target mantissa (stays) and one odd (rounds up).
    for bits in [8u32, 24, 52] {
        let shift = 53 - bits;
        let even = f64::from_bits((0x3FF0_0000_0000_0000u64) | (1u64 << (shift - 1)));
        let odd =
            f64::from_bits((0x3FF0_0000_0000_0000u64 | (1u64 << shift)) | (1u64 << (shift - 1)));
        for x in [even, odd, -even, -odd] {
            assert_same(x, bits);
        }
    }
}
