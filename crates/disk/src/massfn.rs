//! The planetesimal mass function (paper §2): `N(m) dm ∝ m^-2.5`, "a
//! stationary distribution found by numerical simulations and confirmed by
//! simple analytic argument", truncated between a lower and an upper cutoff.

use rand::Rng;
use serde::{Deserialize, Serialize};

/// A truncated power-law mass function `dN/dm ∝ m^p` on `[lo, hi]`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PowerLawMass {
    /// Exponent `p` (−2.5 in the paper).
    pub exponent: f64,
    /// Lower cutoff mass.
    pub lo: f64,
    /// Upper cutoff mass.
    pub hi: f64,
}

impl PowerLawMass {
    /// The paper's distribution with the DESIGN.md cutoffs.
    pub fn paper() -> Self {
        Self {
            exponent: grape6_core::units::paper::MASS_EXPONENT,
            lo: grape6_core::units::paper::M_PLANETESIMAL_LO,
            hi: grape6_core::units::paper::M_PLANETESIMAL_HI,
        }
    }

    /// Create a distribution, validating the cutoffs.
    pub fn new(exponent: f64, lo: f64, hi: f64) -> Self {
        assert!(lo > 0.0 && hi > lo, "need 0 < lo < hi, got [{lo}, {hi}]");
        Self { exponent, lo, hi }
    }

    /// Draw one mass by inverse-CDF sampling.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.inverse_cdf().sample(rng)
    }

    /// The inverse CDF with its loop-invariant terms computed once, for a
    /// caller that draws many masses.
    pub(crate) fn inverse_cdf(&self) -> PowerLawCdf {
        PowerLawCdf::new(self.exponent + 1.0, self.lo, self.hi)
    }

    /// Analytic mean of the distribution.
    pub fn mean(&self) -> f64 {
        let p = self.exponent;
        let (lo, hi) = (self.lo, self.hi);
        let moment = |k: f64| -> f64 {
            let q = p + k + 1.0;
            if q.abs() < 1e-12 {
                (hi / lo).ln()
            } else {
                (hi.powf(q) - lo.powf(q)) / q
            }
        };
        moment(1.0) / moment(0.0)
    }

    /// Analytic fraction of bodies with mass above `m`.
    pub fn fraction_above(&self, m: f64) -> f64 {
        let m = m.clamp(self.lo, self.hi);
        let p1 = self.exponent + 1.0;
        if p1.abs() < 1e-12 {
            (self.hi / m).ln() / (self.hi / self.lo).ln()
        } else {
            (self.hi.powf(p1) - m.powf(p1)) / (self.hi.powf(p1) - self.lo.powf(p1))
        }
    }
}

/// Inverse-CDF sampler of a power law whose CDF on `[lo, hi]` grows as `x^k`
/// (`k = 0`: as `ln x`), with every term that does not depend on the uniform
/// draw precomputed. The one formula behind [`PowerLawMass::sample`],
/// [`crate::RadialProfile::sample_radius`] and the disk builder.
#[derive(Debug, Clone, Copy)]
pub(crate) enum PowerLawCdf {
    /// `k = 0`: `x = exp(ln lo + u · ln(hi / lo))`.
    Log { ln_lo: f64, ln_ratio: f64 },
    /// `x = (lo^k + u · (hi^k − lo^k))^(1/k)`.
    Power { lo_k: f64, span: f64, inv_k: f64 },
}

impl PowerLawCdf {
    pub(crate) fn new(k: f64, lo: f64, hi: f64) -> Self {
        if k.abs() < 1e-12 {
            Self::Log { ln_lo: lo.ln(), ln_ratio: (hi / lo).ln() }
        } else {
            let lo_k = lo.powf(k);
            Self::Power { lo_k, span: hi.powf(k) - lo_k, inv_k: 1.0 / k }
        }
    }

    /// One draw: a uniform `u` in `[0, 1)` mapped through the inverse CDF.
    #[inline]
    pub(crate) fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let u: f64 = rng.gen();
        match *self {
            Self::Log { ln_lo, ln_ratio } => (ln_lo + u * ln_ratio).exp(),
            Self::Power { lo_k, span, inv_k } => (lo_k + u * span).powf(inv_k),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn samples_stay_in_range() {
        let d = PowerLawMass::paper();
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let m = d.sample(&mut rng);
            assert!(m >= d.lo && m <= d.hi);
        }
    }

    #[test]
    fn sample_mean_matches_analytic() {
        let d = PowerLawMass::paper();
        let mut rng = StdRng::seed_from_u64(42);
        let n = 200_000;
        let sum: f64 = (0..n).map(|_| d.sample(&mut rng)).sum();
        let emp = sum / n as f64;
        let rel = (emp - d.mean()).abs() / d.mean();
        assert!(rel < 0.02, "empirical {emp:e} vs analytic {:e}", d.mean());
    }

    #[test]
    fn paper_mean_is_a_few_lo() {
        // For p = −2.5 with hi/lo = 100 the mean is ≈ 2.7 lo.
        let d = PowerLawMass::paper();
        let ratio = d.mean() / d.lo;
        assert!(ratio > 2.0 && ratio < 3.5, "mean/lo = {ratio}");
    }

    #[test]
    fn steep_slope_favors_small_bodies() {
        let d = PowerLawMass::new(-2.5, 1.0, 100.0);
        // Half the bodies lie below ~1.6 lo for p = -2.5, hi/lo = 100.
        assert!(d.fraction_above(10.0) < 0.05);
        assert!(d.fraction_above(1.0) == 1.0);
        assert!(d.fraction_above(100.0) == 0.0);
    }

    #[test]
    fn fraction_above_is_monotone() {
        let d = PowerLawMass::paper();
        let mut last = 1.0;
        for k in 0..20 {
            let m = d.lo * (d.hi / d.lo).powf(k as f64 / 19.0);
            let f = d.fraction_above(m);
            assert!(f <= last + 1e-12);
            last = f;
        }
    }

    #[test]
    fn log_slope_recovered_from_histogram() {
        // Bin samples logarithmically and fit the slope: must be ≈ −2.5
        // (in dN/d(ln m) terms the slope is p + 1 = −1.5).
        let d = PowerLawMass::new(-2.5, 1e-10, 1e-8);
        let mut rng = StdRng::seed_from_u64(3);
        let nbins = 10;
        let mut counts = vec![0usize; nbins];
        let n = 400_000;
        for _ in 0..n {
            let m = d.sample(&mut rng);
            let x = (m / d.lo).ln() / (d.hi / d.lo).ln();
            let b = ((x * nbins as f64) as usize).min(nbins - 1);
            counts[b] += 1;
        }
        // Regress ln(count) on ln(m_center): slope should be p + 1.
        let mut sx = 0.0;
        let mut sy = 0.0;
        let mut sxx = 0.0;
        let mut sxy = 0.0;
        let used = nbins - 2; // drop the emptiest high-mass bins
        #[allow(clippy::needless_range_loop)]
        for b in 0..used {
            let lnm = d.lo.ln() + (b as f64 + 0.5) / nbins as f64 * (d.hi / d.lo).ln();
            let lnc = (counts[b] as f64).ln();
            sx += lnm;
            sy += lnc;
            sxx += lnm * lnm;
            sxy += lnm * lnc;
        }
        let nn = used as f64;
        let slope = (nn * sxy - sx * sy) / (nn * sxx - sx * sx);
        assert!((slope - (-1.5)).abs() < 0.1, "log-slope {slope}");
    }

    #[test]
    #[should_panic]
    fn rejects_inverted_cutoffs() {
        PowerLawMass::new(-2.5, 1.0, 0.5);
    }
}
