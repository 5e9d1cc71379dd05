//! GRAPE-6 number formats.
//!
//! The GRAPE-6 pipeline does not compute in IEEE double precision. Following
//! the hardware (Makino & Taiji 1998; paper §5.2):
//!
//! * **positions** are stored and subtracted in 64-bit *fixed point* — the
//!   subtraction `x_j − x_i` is exact even when the two operands are close,
//!   which is the reason the format was chosen;
//! * **pipeline arithmetic** (the force/jerk evaluation proper) runs in a
//!   short floating-point format, comparable to IEEE single precision;
//! * **accumulation** of the ~N partial forces happens in wide fixed point,
//!   which makes the sum *exactly associative* — the hardware reduction tree
//!   over pipelines, chips and boards produces bit-identical results
//!   regardless of the reduction order.
//!
//! The emulation here reproduces those three properties with configurable
//! widths, so accuracy experiments (E9) can compare "exact f64" against
//! "hardware" arithmetic.

use grape6_core::vec3::Vec3;
use serde::{Deserialize, Serialize};

/// Round an `f64` to a reduced-precision binary mantissa of `bits` bits
/// (including the implicit leading bit), round-to-nearest-even. The exponent
/// range is left untouched (the hardware formats had ample exponent range for
/// this problem).
#[inline]
pub fn round_mantissa(x: f64, bits: u32) -> f64 {
    if bits >= 53 || x == 0.0 || !x.is_finite() {
        return x;
    }
    let shift = 53 - bits;
    let b = x.to_bits();
    let mask = (1u64 << shift) - 1;
    let half = 1u64 << (shift - 1);
    let frac = b & mask;
    let mut base = b & !mask;
    // Round to nearest, ties to even.
    if frac > half || (frac == half && (base >> shift) & 1 == 1) {
        base = base.wrapping_add(1u64 << shift);
    }
    f64::from_bits(base)
}

/// Round each component of a vector to `bits` of mantissa.
#[inline]
pub fn round_vec(v: Vec3, bits: u32) -> Vec3 {
    Vec3::new(round_mantissa(v.x, bits), round_mantissa(v.y, bits), round_mantissa(v.z, bits))
}

/// The short pipeline word as loop-invariant integer constants: the
/// branch-free form of [`round_mantissa`] that the lane kernels inline at
/// every pipeline stage.
///
/// With `b` the raw bits, `shift = 53 − bits`, `half = 2^(shift−1)`:
/// `(b + (half − 1) + ((b >> shift) & 1)) & !mask` carries into the kept
/// bits exactly when the dropped fraction is above half, or equal to half
/// with an odd kept mantissa — the round-to-nearest-even predicate of
/// [`round_mantissa`] as one add chain. ±0 maps to itself and a carry out
/// of the mantissa steps the exponent, as in the predicate form; only
/// non-finite inputs need a select. `bits ≥ 53` is the same expression with
/// all-pass constants, so one loop body serves every [`Precision`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShortWord {
    shift: u32,
    // half − 1 (0 when nothing is dropped).
    bias: u64,
    // 1 when rounding, 0 for the identity word.
    odd: u64,
    // !mask: the kept sign, exponent and short-mantissa bits.
    keep: u64,
}

impl ShortWord {
    /// The word of a `bits`-bit mantissa (implicit leading bit included).
    pub fn new(bits: u32) -> Self {
        if bits >= 53 {
            return Self { shift: 0, bias: 0, odd: 0, keep: !0 };
        }
        let shift = 53 - bits;
        Self { shift, bias: (1u64 << (shift - 1)) - 1, odd: 1, keep: !((1u64 << shift) - 1) }
    }

    /// Round `x` to this word, bit-identical to [`round_mantissa`].
    #[inline(always)]
    // grape6-lint: hot
    pub fn round(self, x: f64) -> f64 {
        let b = x.to_bits();
        let r = b.wrapping_add(self.bias).wrapping_add((b >> self.shift) & self.odd) & self.keep;
        if x.is_finite() {
            f64::from_bits(r)
        } else {
            x
        }
    }
}

/// Documented half-ulp *relative* error bound of [`round_mantissa`]:
/// for every finite `x`, `|round_mantissa(x, bits) − x| ≤ rel_half_ulp(bits)·|x|`.
///
/// Round-to-nearest on a `bits`-bit mantissa (implicit leading bit included)
/// perturbs a value with exponent `e` by at most half an ulp, `2^(e−bits)`;
/// since `|x| ≥ 2^e`, the relative error is at most `2^−bits`. This constant
/// is the foundation of the conformance harness's precision oracle and is
/// pinned by property tests against the actual rounding code.
#[inline]
pub fn rel_half_ulp(bits: u32) -> f64 {
    2.0f64.powi(-(bits.min(53) as i32))
}

/// Quantization step of the wide force accumulator: contributions are
/// rounded to multiples of `2^−ACCUM_FRAC_BITS`, so a sum of `n` terms can
/// drift from the exact f64 result by at most `n/2` steps (half a step per
/// [`FixedAccumulator::add`]).
#[inline]
pub fn accum_quantum() -> f64 {
    2.0f64.powi(-(ACCUM_FRAC_BITS as i32))
}

/// 64-bit fixed-point position format.
///
/// Coordinates are stored as `i64` in units of `2^-frac_bits` length units;
/// `frac_bits = 54` gives a representable range of ±512 AU with a resolution
/// of 5.6×10⁻¹⁷ AU — far below the softening length, and wide enough for any
/// planetesimal scattered by the protoplanets short of solar-system escape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FixedPointFormat {
    /// Number of fractional bits.
    pub frac_bits: u32,
}

impl Default for FixedPointFormat {
    fn default() -> Self {
        Self { frac_bits: 54 }
    }
}

impl FixedPointFormat {
    /// Create a format with the given fractional-bit count (≤ 62).
    pub fn new(frac_bits: u32) -> Self {
        assert!(frac_bits <= 62, "frac_bits {frac_bits} too large for i64");
        Self { frac_bits }
    }

    /// Smallest representable increment.
    pub fn resolution(&self) -> f64 {
        2.0f64.powi(-(self.frac_bits as i32))
    }

    /// Documented half-ulp *absolute* round-trip bound: away from
    /// saturation, `|decode(encode(x)) − x| ≤ half_ulp()` (half the grid
    /// resolution). Like [`rel_half_ulp`] this is an oracle constant of the
    /// conformance harness, pinned by property tests.
    pub fn half_ulp(&self) -> f64 {
        self.resolution() / 2.0
    }

    /// Largest representable magnitude.
    pub fn range(&self) -> f64 {
        (i64::MAX as f64) * self.resolution()
    }

    /// `2^frac_bits`: a coordinate times this is in grid units.
    pub fn scale(&self) -> f64 {
        2.0f64.powi(self.frac_bits as i32)
    }

    /// Encode, rounding to the nearest representable value. Saturates at the
    /// format's range (the hardware clamps; an escaping particle pegged at
    /// the boundary is detected by the host).
    #[inline]
    pub fn encode(&self, x: f64) -> i64 {
        Self::to_grid(x * self.scale())
    }

    /// Round a coordinate already in grid units ([`scale`](Self::scale)) to
    /// its grid integer. Branch-free for the lane kernels: the `as` cast
    /// saturates, which is the clamp at the format's range.
    #[inline(always)]
    pub(crate) fn to_grid(scaled: f64) -> i64 {
        scaled.round_ties_even() as i64
    }

    /// Decode back to `f64`.
    #[inline]
    pub fn decode(&self, q: i64) -> f64 {
        q as f64 * self.resolution()
    }

    /// Encode a vector.
    #[inline]
    pub fn encode_vec(&self, v: Vec3) -> [i64; 3] {
        [self.encode(v.x), self.encode(v.y), self.encode(v.z)]
    }

    /// Decode a vector.
    #[inline]
    pub fn decode_vec(&self, q: [i64; 3]) -> Vec3 {
        Vec3::new(self.decode(q[0]), self.decode(q[1]), self.decode(q[2]))
    }
}

/// Wide fixed-point accumulator (one per output word in the hardware).
///
/// Partial forces are converted to `i128` fixed point and summed; integer
/// addition is associative, so any reduction order — per-pipeline, per-chip,
/// per-board, host-side — yields the same bits. `frac_bits = 96` puts the
/// quantization floor (≈1.3×10⁻²⁹) ten orders below the smallest
/// planetesimal-on-planetesimal accelerations in the paper's units.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FixedAccumulator {
    value: i128,
}

/// Fractional bits of the force accumulator format.
pub const ACCUM_FRAC_BITS: u32 = 96;

impl FixedAccumulator {
    /// A zeroed accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a real-valued contribution (quantized to the accumulator grid).
    #[inline]
    pub fn add(&mut self, x: f64) {
        self.value += Self::quantize(x);
    }

    /// Merge another accumulator (the hardware reduction-tree operation).
    #[inline]
    pub fn merge(&mut self, other: Self) {
        self.value += other.value;
    }

    /// Fold deferred-carry limb sums — per-digit totals of [`split_limbs`]
    /// outputs — into the register: the same integer, modulo 2¹²⁸, as one
    /// [`add`](Self::add) per contribution.
    #[inline]
    pub fn add_limbs(&mut self, sums: [i128; 3]) {
        let folded =
            sums[0].wrapping_add(sums[1] << LIMB_BITS).wrapping_add(sums[2] << (2 * LIMB_BITS));
        self.value = self.value.wrapping_add(folded);
    }

    /// Read out as `f64`.
    #[inline]
    pub fn to_f64(&self) -> f64 {
        self.value as f64 * 2.0f64.powi(-(ACCUM_FRAC_BITS as i32))
    }

    #[inline]
    fn quantize(x: f64) -> i128 {
        let scaled = x * 2.0f64.powi(ACCUM_FRAC_BITS as i32);
        debug_assert!(scaled.abs() < i128::MAX as f64 / 4.0, "accumulator overflow risk: {x}");
        scaled.round_ties_even() as i128
    }
}

/// Bits per deferred-carry limb: a contribution on the 2⁻⁹⁶ grid is
/// `d0 + d1·2⁴² + d2·2⁸⁴` with three signed digits (see [`split_limbs`]).
const LIMB_BITS: u32 = 42;

/// Contributions a limb lane may absorb between folds into the `i128`
/// register. Every digit of an in-domain contribution has magnitude ≤ 2⁴²
/// ([`limbs_out_of_domain`]), so 2¹⁶ of them sum below 2⁵⁸ — no `i64` limb
/// can wrap, at any j-count.
pub(crate) const LIMB_FOLD_INTERVAL: u32 = 1 << 16;
const _: () = assert!((LIMB_FOLD_INTERVAL as u64) << LIMB_BITS < 1 << 62);

// `1.5·2⁵²·g` for the digit grids g = 2⁻¹², 2⁻⁵⁴, 2⁻⁹⁶. Adding one to a value
// `r` with |r| < 2⁵¹·g lands in the binade [2⁵²·g, 2⁵³·g), whose ulp is g:
// IEEE round-to-nearest-even turns the sum into `C + d·g` with `d` the
// integer nearest `r/g` (ties to even `d`, since C/g = 1.5·2⁵² is even), and
// `d` sits in the low mantissa bits, so `bits(sum) − bits(C) = d` exactly.
const SPLIT_C2: f64 = 1.5 * (1u64 << 40) as f64;
const SPLIT_C1: f64 = 1.5 / (1u64 << 2) as f64;
const SPLIT_C0: f64 = 1.5 / (1u64 << 44) as f64;

/// Split one contribution into the digits `[d0, d1, d2]` of
/// `round_ties_even(x·2⁹⁶) = d0 + d1·2⁴² + d2·2⁸⁴` — the integer
/// [`FixedAccumulator::add`] would add — using only correctly-rounded f64
/// add/sub and integer bit operations, so a lane loop over it vectorises.
///
/// Exact whenever [`limbs_out_of_domain`] of `d2` is zero — every finite `x`
/// inside the accumulator contract |x| < 2²⁹, and on up to 2³⁰ — and
/// meaningless otherwise. Range arguments, top down:
///
/// * `x + C2` stays inside [2⁴⁰, 2⁴¹) because |x| < 2³⁹, so `d2` is the
///   integer nearest x·2¹² and `h2 = d2·2⁻¹²` is exact. `r1 = x − h2` is exact:
///   if ulp(x) ≥ 2⁻¹² then h2 = x; else both are multiples of ulp(x) and
///   |r1| ≤ 2⁻¹³ ≤ |x| (or h2 = 0 and r1 = x), so r1 fits x's 53 bits.
/// * |r1| ≤ 2⁻¹³ < 2⁻³ keeps `r1 + C1` inside [2⁻², 2⁻¹): `d1` is the integer
///   nearest r1·2⁵⁴, |d1| ≤ 2⁴¹, and `r0 = r1 − h1` is exact by the same
///   argument one level down, |r0| ≤ 2⁻⁵⁵.
/// * |r0| ≤ 2⁻⁵⁵ < 2⁻⁴⁵ keeps `r0 + C0` inside [2⁻⁴⁴, 2⁻⁴³), whose ulp is the
///   accumulator quantum: this one addition *is* the quantisation, ties to
///   even `d0`. Because h2 + h1 is an even multiple of the quantum,
///   ties-to-even on `d0` is ties-to-even on the whole sum, |d0| ≤ 2⁴¹.
#[inline(always)]
// grape6-lint: hot
pub fn split_limbs(x: f64) -> [i64; 3] {
    let digit = |t: f64, c: f64| (t.to_bits() as i64).wrapping_sub(c.to_bits() as i64);
    let t2 = x + SPLIT_C2;
    let r1 = x - (t2 - SPLIT_C2);
    let t1 = r1 + SPLIT_C1;
    let r0 = r1 - (t1 - SPLIT_C1);
    let t0 = r0 + SPLIT_C0;
    [digit(t0, SPLIT_C0), digit(t1, SPLIT_C1), digit(t2, SPLIT_C2)]
}

/// Nonzero iff the top digit `d2` of [`split_limbs`] lies outside
/// [−2⁴², 2⁴²), i.e. the input was NaN, ±∞ or |x| ≥ 2³⁰ (a NaN or overflowed
/// `x + C2` leaves the binade, which moves `bits − bits(C2)` by ≥ 2⁵¹).
/// OR-reduce it over lanes and registers; any set bit sends that
/// j-particle through [`FixedAccumulator::add`] instead.
#[inline(always)]
pub fn limbs_out_of_domain(d2: i64) -> u64 {
    (d2.wrapping_add(1 << LIMB_BITS) as u64) >> (LIMB_BITS + 1)
}

/// Accumulator triple for a vector quantity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct VecAccumulator {
    x: FixedAccumulator,
    y: FixedAccumulator,
    z: FixedAccumulator,
}

impl VecAccumulator {
    /// A zeroed vector accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a vector contribution.
    #[inline]
    pub fn add(&mut self, v: Vec3) {
        self.x.add(v.x);
        self.y.add(v.y);
        self.z.add(v.z);
    }

    /// Fold per-component limb sums ([`FixedAccumulator::add_limbs`]).
    #[inline]
    pub(crate) fn add_limbs(&mut self, sums: [[i128; 3]; 3]) {
        self.x.add_limbs(sums[0]);
        self.y.add_limbs(sums[1]);
        self.z.add_limbs(sums[2]);
    }

    /// Merge another vector accumulator.
    #[inline]
    pub fn merge(&mut self, other: Self) {
        self.x.merge(other.x);
        self.y.merge(other.y);
        self.z.merge(other.z);
    }

    /// Read out as a `Vec3`.
    #[inline]
    pub fn to_vec3(&self) -> Vec3 {
        Vec3::new(self.x.to_f64(), self.y.to_f64(), self.z.to_f64())
    }
}

/// Arithmetic precision of the simulated pipelines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Precision {
    /// Full IEEE double precision end to end (a "perfect GRAPE"; useful for
    /// isolating algorithmic from arithmetic error).
    Exact,
    /// Hardware emulation: fixed-point position subtraction, short-mantissa
    /// pipeline arithmetic, fixed-point accumulation.
    Grape6 {
        /// Mantissa bits of the pipeline arithmetic (GRAPE-6 class ≈ 24).
        mantissa_bits: u32,
    },
}

impl Precision {
    /// The default hardware emulation (24-bit mantissa pipelines).
    pub fn grape6() -> Self {
        Precision::Grape6 { mantissa_bits: 24 }
    }

    /// Mantissa width used for pipeline arithmetic.
    pub fn mantissa_bits(&self) -> u32 {
        match self {
            Precision::Exact => 53,
            Precision::Grape6 { mantissa_bits } => *mantissa_bits,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_mantissa_identity_at_53_bits() {
        let x = std::f64::consts::PI;
        assert_eq!(round_mantissa(x, 53), x);
        assert_eq!(round_mantissa(x, 60), x);
    }

    #[test]
    fn round_mantissa_preserves_powers_of_two() {
        for bits in [8, 16, 24, 32] {
            assert_eq!(round_mantissa(0.5, bits), 0.5);
            assert_eq!(round_mantissa(-4.0, bits), -4.0);
        }
    }

    #[test]
    fn round_mantissa_matches_f32_at_24_bits() {
        for &x in &[std::f64::consts::PI, 1.0 / 3.0, -std::f64::consts::E, 1e-12, 123456.789] {
            let r = round_mantissa(x, 24);
            assert_eq!(r as f32 as f64, r, "{x} → {r} not exactly representable in f32");
            assert!(((r - x) / x).abs() < 2.0f64.powi(-24), "rounding error too large for {x}");
        }
    }

    #[test]
    fn round_mantissa_error_bound() {
        let x = 1.0 + 1.0 / 3.0;
        for bits in [10, 16, 24, 40] {
            let err = (round_mantissa(x, bits) - x).abs() / x;
            assert!(err <= 2.0f64.powi(-(bits as i32)), "bits={bits} err={err:e}");
        }
    }

    #[test]
    fn round_mantissa_zero_and_nonfinite() {
        assert_eq!(round_mantissa(0.0, 24), 0.0);
        assert!(round_mantissa(f64::NAN, 24).is_nan());
        assert_eq!(round_mantissa(f64::INFINITY, 24), f64::INFINITY);
    }

    #[test]
    fn fixed_point_roundtrip_error_below_resolution() {
        let f = FixedPointFormat::default();
        for &x in &[0.0, 20.0, -35.0, 17.123456789, 1e-10, 500.0] {
            let err = (f.decode(f.encode(x)) - x).abs();
            assert!(err <= f.resolution() / 2.0 + 1e-300, "x={x} err={err:e}");
        }
    }

    #[test]
    fn fixed_point_range_covers_solar_system() {
        let f = FixedPointFormat::default();
        assert!(f.range() > 500.0, "range {} AU too small", f.range());
        assert!(f.resolution() < 1e-15);
    }

    #[test]
    fn fixed_point_saturates() {
        let f = FixedPointFormat::new(54);
        assert_eq!(f.encode(1e300), i64::MAX);
        assert_eq!(f.encode(-1e300), i64::MIN);
    }

    #[test]
    fn fixed_point_subtraction_is_exact() {
        // The motivating property: nearby positions subtract without
        // catastrophic cancellation *in the fixed-point domain*.
        let f = FixedPointFormat::default();
        let a = 20.000000000000004;
        let b = 20.000000000000001;
        let qa = f.encode(a);
        let qb = f.encode(b);
        let dx = f.decode(qa - qb); // exact integer subtraction
        let expect = f.decode(qa) - f.decode(qb);
        assert_eq!(dx, expect);
    }

    #[test]
    fn fixed_vec_roundtrip() {
        let f = FixedPointFormat::default();
        let v = Vec3::new(15.5, -35.0, 0.001);
        let r = f.decode_vec(f.encode_vec(v));
        assert!((r - v).norm() < 3.0 * f.resolution());
    }

    #[test]
    fn accumulator_is_order_independent() {
        let xs: Vec<f64> =
            (0..1000).map(|i| ((i * 2654435761u64 as usize) % 997) as f64 * 1e-7 - 5e-5).collect();
        let mut fwd = FixedAccumulator::new();
        for &x in &xs {
            fwd.add(x);
        }
        let mut rev = FixedAccumulator::new();
        for &x in xs.iter().rev() {
            rev.add(x);
        }
        assert_eq!(fwd, rev);
        assert_eq!(fwd.to_f64(), rev.to_f64());
    }

    #[test]
    fn accumulator_merge_equals_sequential() {
        let xs: Vec<f64> = (0..256).map(|i| (i as f64 - 128.0) * 1e-9).collect();
        let mut whole = FixedAccumulator::new();
        for &x in &xs {
            whole.add(x);
        }
        let mut a = FixedAccumulator::new();
        let mut b = FixedAccumulator::new();
        for &x in &xs[..100] {
            a.add(x);
        }
        for &x in &xs[100..] {
            b.add(x);
        }
        a.merge(b);
        assert_eq!(a, whole);
    }

    #[test]
    fn accumulator_accuracy() {
        let mut acc = FixedAccumulator::new();
        let n = 10_000;
        for _ in 0..n {
            acc.add(1e-10);
        }
        let err = (acc.to_f64() - n as f64 * 1e-10).abs();
        assert!(err < n as f64 * 2.0f64.powi(-(ACCUM_FRAC_BITS as i32)));
    }

    #[test]
    fn vec_accumulator_matches_componentwise() {
        let mut va = VecAccumulator::new();
        va.add(Vec3::new(1e-3, -2e-3, 3e-3));
        va.add(Vec3::new(1.0, 2.0, -3.0));
        let v = va.to_vec3();
        assert!((v - Vec3::new(1.001, 1.998, -2.997)).norm() < 1e-12);
    }

    #[test]
    fn precision_presets() {
        assert_eq!(Precision::Exact.mantissa_bits(), 53);
        assert_eq!(Precision::grape6().mantissa_bits(), 24);
    }
}
