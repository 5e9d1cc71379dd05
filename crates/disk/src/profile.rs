//! The radial structure of the planetesimal ring (paper §2): surface mass
//! density `Σ(r) ∝ r^-1.5` between 15 and 35 AU, "consistent with the
//! standard Solar nebula model" (Hayashi 1981).

use crate::massfn::PowerLawCdf;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A power-law surface-density profile `Σ ∝ r^q` on an annulus.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RadialProfile {
    /// Surface-density exponent `q` (−1.5 in the paper).
    pub exponent: f64,
    /// Inner edge (AU).
    pub r_in: f64,
    /// Outer edge (AU).
    pub r_out: f64,
}

impl RadialProfile {
    /// The paper's ring: Σ ∝ r^-1.5 from 15 to 35 AU.
    pub fn paper() -> Self {
        Self {
            exponent: grape6_core::units::paper::SIGMA_EXPONENT,
            r_in: grape6_core::units::paper::RING_INNER,
            r_out: grape6_core::units::paper::RING_OUTER,
        }
    }

    /// Create a profile, validating the annulus.
    pub fn new(exponent: f64, r_in: f64, r_out: f64) -> Self {
        assert!(r_in > 0.0 && r_out > r_in, "need 0 < r_in < r_out");
        Self { exponent, r_in, r_out }
    }

    /// Draw a radius with probability ∝ 2π r Σ(r) dr (mass-weighted, which
    /// for equal-mass tracers is the right particle weighting).
    pub fn sample_radius<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.inverse_cdf().sample(rng)
    }

    /// The radius sampler with its loop-invariant terms computed once, for a
    /// caller that draws many radii. The enclosed mass grows as `r^(q+2)`.
    pub(crate) fn inverse_cdf(&self) -> PowerLawCdf {
        PowerLawCdf::new(self.exponent + 2.0, self.r_in, self.r_out)
    }

    /// Fraction of the ring's mass inside radius `r`.
    pub fn mass_fraction_within(&self, r: f64) -> f64 {
        let r = r.clamp(self.r_in, self.r_out);
        let q2 = self.exponent + 2.0;
        if q2.abs() < 1e-12 {
            (r / self.r_in).ln() / (self.r_out / self.r_in).ln()
        } else {
            (r.powf(q2) - self.r_in.powf(q2)) / (self.r_out.powf(q2) - self.r_in.powf(q2))
        }
    }

    /// Width of the annulus.
    pub fn width(&self) -> f64 {
        self.r_out - self.r_in
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn samples_stay_in_annulus() {
        let p = RadialProfile::paper();
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..10_000 {
            let r = p.sample_radius(&mut rng);
            assert!(r >= p.r_in && r <= p.r_out);
        }
    }

    #[test]
    fn median_radius_matches_analytic() {
        let p = RadialProfile::paper();
        let mut rng = StdRng::seed_from_u64(5);
        let mut rs: Vec<f64> = (0..100_001).map(|_| p.sample_radius(&mut rng)).collect();
        rs.sort_by(f64::total_cmp);
        let median = rs[rs.len() / 2];
        // Analytic median: mass_fraction_within(median) = 0.5.
        let f = p.mass_fraction_within(median);
        assert!((f - 0.5).abs() < 0.01, "median {median} has mass fraction {f}");
    }

    #[test]
    fn mass_fraction_endpoints() {
        let p = RadialProfile::paper();
        assert_eq!(p.mass_fraction_within(p.r_in), 0.0);
        assert_eq!(p.mass_fraction_within(p.r_out), 1.0);
        assert_eq!(p.mass_fraction_within(5.0), 0.0); // clamped
    }

    #[test]
    fn inner_disk_holds_more_mass_per_annulus() {
        // Σ ∝ r^-1.5 ⇒ dm/dr ∝ r^-0.5: inner half of the annulus holds more
        // than half the mass... by mass fraction at midpoint.
        let p = RadialProfile::paper();
        let mid = 0.5 * (p.r_in + p.r_out);
        assert!(p.mass_fraction_within(mid) > 0.5);
    }

    #[test]
    #[should_panic]
    fn rejects_bad_annulus() {
        RadialProfile::new(-1.5, 35.0, 15.0);
    }
}
