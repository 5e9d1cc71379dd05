//! Minimal 3-vector used throughout the simulation.
//!
//! The integrator works in double precision; the GRAPE-6 hardware simulator
//! converts to its own fixed-point / short-mantissa formats at the boundary
//! (see the `grape6-hw` crate). Keeping the vector type local (rather than
//! pulling in a linear-algebra crate) keeps the hot loops transparent to the
//! optimizer and the dependency set inside the sanctioned list.

use serde::{Deserialize, Serialize};
use std::iter::Sum;
use std::ops::{
    Add, AddAssign, Div, DivAssign, Index, IndexMut, Mul, MulAssign, Neg, Sub, SubAssign,
};

/// A 3-vector of `f64` components.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Vec3 {
    /// x component.
    pub x: f64,
    /// y component.
    pub y: f64,
    /// z component.
    pub z: f64,
}

/// The zero vector.
pub const ZERO: Vec3 = Vec3 { x: 0.0, y: 0.0, z: 0.0 };

impl Vec3 {
    /// Create a vector from components.
    #[inline(always)]
    pub const fn new(x: f64, y: f64, z: f64) -> Self {
        Self { x, y, z }
    }

    /// The zero vector.
    #[inline(always)]
    pub const fn zero() -> Self {
        ZERO
    }

    /// All components set to `v`.
    #[inline(always)]
    pub const fn splat(v: f64) -> Self {
        Self::new(v, v, v)
    }

    /// Dot product.
    #[inline(always)]
    pub fn dot(self, rhs: Self) -> f64 {
        self.x * rhs.x + self.y * rhs.y + self.z * rhs.z
    }

    /// Cross product.
    #[inline(always)]
    pub fn cross(self, rhs: Self) -> Self {
        Self::new(
            self.y * rhs.z - self.z * rhs.y,
            self.z * rhs.x - self.x * rhs.z,
            self.x * rhs.y - self.y * rhs.x,
        )
    }

    /// Squared Euclidean norm.
    #[inline(always)]
    pub fn norm2(self) -> f64 {
        self.dot(self)
    }

    /// Euclidean norm.
    #[inline(always)]
    pub fn norm(self) -> f64 {
        self.norm2().sqrt()
    }

    /// Component-wise minimum.
    #[inline]
    pub fn min(self, rhs: Self) -> Self {
        Self::new(self.x.min(rhs.x), self.y.min(rhs.y), self.z.min(rhs.z))
    }

    /// Component-wise maximum.
    #[inline]
    pub fn max(self, rhs: Self) -> Self {
        Self::new(self.x.max(rhs.x), self.y.max(rhs.y), self.z.max(rhs.z))
    }

    /// Component-wise absolute value.
    #[inline]
    pub fn abs(self) -> Self {
        Self::new(self.x.abs(), self.y.abs(), self.z.abs())
    }

    /// Largest component.
    #[inline]
    pub fn max_component(self) -> f64 {
        self.x.max(self.y).max(self.z)
    }

    /// True if all components are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite() && self.z.is_finite()
    }

    /// Distance to another point.
    #[inline(always)]
    pub fn distance(self, rhs: Self) -> f64 {
        (self - rhs).norm()
    }

    /// Squared distance to another point.
    #[inline(always)]
    pub fn distance2(self, rhs: Self) -> f64 {
        (self - rhs).norm2()
    }

    /// Apply a function to every component.
    #[inline]
    pub fn map(self, f: impl Fn(f64) -> f64) -> Self {
        Self::new(f(self.x), f(self.y), f(self.z))
    }

    /// Components as an array.
    #[inline]
    pub const fn to_array(self) -> [f64; 3] {
        [self.x, self.y, self.z]
    }

    /// Build from an array.
    #[inline]
    pub const fn from_array(a: [f64; 3]) -> Self {
        Self::new(a[0], a[1], a[2])
    }

    /// Cylindrical radius sqrt(x² + y²) — the disk lives in the x-y plane.
    #[inline]
    pub fn cylindrical_r(self) -> f64 {
        (self.x * self.x + self.y * self.y).sqrt()
    }

    /// Azimuthal angle in the x-y plane, in (-π, π].
    #[inline]
    pub fn azimuth(self) -> f64 {
        self.y.atan2(self.x)
    }
}

impl Add for Vec3 {
    type Output = Self;
    #[inline(always)]
    fn add(self, rhs: Self) -> Self {
        Self::new(self.x + rhs.x, self.y + rhs.y, self.z + rhs.z)
    }
}

impl AddAssign for Vec3 {
    #[inline(always)]
    fn add_assign(&mut self, rhs: Self) {
        self.x += rhs.x;
        self.y += rhs.y;
        self.z += rhs.z;
    }
}

impl Sub for Vec3 {
    type Output = Self;
    #[inline(always)]
    fn sub(self, rhs: Self) -> Self {
        Self::new(self.x - rhs.x, self.y - rhs.y, self.z - rhs.z)
    }
}

impl SubAssign for Vec3 {
    #[inline(always)]
    fn sub_assign(&mut self, rhs: Self) {
        self.x -= rhs.x;
        self.y -= rhs.y;
        self.z -= rhs.z;
    }
}

impl Mul<f64> for Vec3 {
    type Output = Self;
    #[inline(always)]
    fn mul(self, rhs: f64) -> Self {
        Self::new(self.x * rhs, self.y * rhs, self.z * rhs)
    }
}

impl Mul<Vec3> for f64 {
    type Output = Vec3;
    #[inline(always)]
    fn mul(self, rhs: Vec3) -> Vec3 {
        rhs * self
    }
}

impl MulAssign<f64> for Vec3 {
    #[inline(always)]
    fn mul_assign(&mut self, rhs: f64) {
        self.x *= rhs;
        self.y *= rhs;
        self.z *= rhs;
    }
}

impl Div<f64> for Vec3 {
    type Output = Self;
    #[inline(always)]
    fn div(self, rhs: f64) -> Self {
        Self::new(self.x / rhs, self.y / rhs, self.z / rhs)
    }
}

impl DivAssign<f64> for Vec3 {
    #[inline(always)]
    fn div_assign(&mut self, rhs: f64) {
        self.x /= rhs;
        self.y /= rhs;
        self.z /= rhs;
    }
}

impl Neg for Vec3 {
    type Output = Self;
    #[inline(always)]
    fn neg(self) -> Self {
        Self::new(-self.x, -self.y, -self.z)
    }
}

impl Index<usize> for Vec3 {
    type Output = f64;
    #[inline]
    fn index(&self, i: usize) -> &f64 {
        match i {
            0 => &self.x,
            1 => &self.y,
            2 => &self.z,
            _ => panic!("Vec3 index out of range: {i}"),
        }
    }
}

impl IndexMut<usize> for Vec3 {
    #[inline]
    fn index_mut(&mut self, i: usize) -> &mut f64 {
        match i {
            0 => &mut self.x,
            1 => &mut self.y,
            2 => &mut self.z,
            _ => panic!("Vec3 index out of range: {i}"),
        }
    }
}

impl Sum for Vec3 {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(ZERO, |acc, v| acc + v)
    }
}

impl From<[f64; 3]> for Vec3 {
    fn from(a: [f64; 3]) -> Self {
        Self::from_array(a)
    }
}

impl From<Vec3> for [f64; 3] {
    fn from(v: Vec3) -> Self {
        v.to_array()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(x: f64, y: f64, z: f64) -> Vec3 {
        Vec3::new(x, y, z)
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = v(1.0, 2.0, 3.0);
        let b = v(-4.0, 0.5, 9.0);
        assert_eq!(a + b - b, a);
    }

    #[test]
    fn dot_orthogonal_is_zero() {
        assert_eq!(v(1.0, 0.0, 0.0).dot(v(0.0, 1.0, 0.0)), 0.0);
    }

    #[test]
    fn cross_right_handed() {
        assert_eq!(v(1.0, 0.0, 0.0).cross(v(0.0, 1.0, 0.0)), v(0.0, 0.0, 1.0));
        assert_eq!(v(0.0, 1.0, 0.0).cross(v(0.0, 0.0, 1.0)), v(1.0, 0.0, 0.0));
    }

    #[test]
    fn cross_anticommutes() {
        let a = v(1.0, 2.0, 3.0);
        let b = v(4.0, 5.0, 6.0);
        assert_eq!(a.cross(b), -(b.cross(a)));
    }

    #[test]
    fn norm_pythagorean() {
        assert_eq!(v(3.0, 4.0, 0.0).norm(), 5.0);
        assert_eq!(v(3.0, 4.0, 0.0).norm2(), 25.0);
    }

    #[test]
    fn scalar_mul_commutes() {
        let a = v(1.0, 2.0, 3.0);
        assert_eq!(2.0 * a, a * 2.0);
    }

    #[test]
    fn div_by_scalar() {
        assert_eq!(v(2.0, 4.0, 6.0) / 2.0, v(1.0, 2.0, 3.0));
    }

    #[test]
    fn indexing_matches_fields() {
        let a = v(7.0, 8.0, 9.0);
        assert_eq!(a[0], 7.0);
        assert_eq!(a[1], 8.0);
        assert_eq!(a[2], 9.0);
    }

    #[test]
    #[should_panic]
    fn index_out_of_range_panics() {
        let _ = v(0.0, 0.0, 0.0)[3];
    }

    #[test]
    fn index_mut_writes_fields() {
        let mut a = ZERO;
        a[0] = 1.0;
        a[1] = 2.0;
        a[2] = 3.0;
        assert_eq!(a, v(1.0, 2.0, 3.0));
    }

    #[test]
    fn sum_of_vectors() {
        let s: Vec3 = [v(1.0, 0.0, 0.0), v(0.0, 2.0, 0.0), v(0.0, 0.0, 3.0)].into_iter().sum();
        assert_eq!(s, v(1.0, 2.0, 3.0));
    }

    #[test]
    fn min_max_componentwise() {
        let a = v(1.0, 5.0, -2.0);
        let b = v(3.0, 4.0, -1.0);
        assert_eq!(a.min(b), v(1.0, 4.0, -2.0));
        assert_eq!(a.max(b), v(3.0, 5.0, -1.0));
    }

    #[test]
    fn array_roundtrip() {
        let a = v(1.5, 2.5, 3.5);
        assert_eq!(Vec3::from_array(a.to_array()), a);
        let b: [f64; 3] = a.into();
        assert_eq!(Vec3::from(b), a);
    }

    #[test]
    fn cylindrical_r_in_plane() {
        assert!((v(3.0, 4.0, 100.0).cylindrical_r() - 5.0).abs() < 1e-15);
    }

    #[test]
    fn azimuth_quadrants() {
        assert!((v(1.0, 1.0, 0.0).azimuth() - std::f64::consts::FRAC_PI_4).abs() < 1e-15);
        assert!((v(-1.0, 0.0, 0.0).azimuth() - std::f64::consts::PI).abs() < 1e-15);
    }

    #[test]
    fn distance_is_symmetric() {
        let a = v(1.0, 2.0, 3.0);
        let b = v(-1.0, 0.0, 5.0);
        assert_eq!(a.distance(b), b.distance(a));
        assert!((a.distance2(b) - a.distance(b).powi(2)).abs() < 1e-12);
    }

    #[test]
    fn is_finite_detects_nan_and_inf() {
        assert!(v(1.0, 2.0, 3.0).is_finite());
        assert!(!v(f64::NAN, 0.0, 0.0).is_finite());
        assert!(!v(0.0, f64::INFINITY, 0.0).is_finite());
    }

    #[test]
    fn map_applies_per_component() {
        assert_eq!(v(1.0, -2.0, 3.0).map(|c| c * c), v(1.0, 4.0, 9.0));
    }

    #[test]
    fn neg_flips_all() {
        assert_eq!(-v(1.0, -2.0, 3.0), v(-1.0, 2.0, -3.0));
    }

    #[test]
    fn abs_and_max_component() {
        assert_eq!(v(-3.0, 2.0, -5.0).abs(), v(3.0, 2.0, 5.0));
        assert_eq!(v(-3.0, 2.0, -5.0).abs().max_component(), 5.0);
    }
}
