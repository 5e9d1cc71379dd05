//! Analysis of evolved disks: radial surface-density profiles, the gap
//! detection behind Fig 13 ("gap of the distribution is formed near the
//! radius of protoplanets"), excitation (e/i dispersion) profiles, and the
//! scattering census behind the paper's Oort-cloud discussion (§2).

use grape6_core::kepler::{specific_energy, state_to_elements};
use grape6_core::particle::ParticleSystem;
use grape6_core::vec3::Vec3;
use serde::{Deserialize, Serialize};

/// A radial histogram of the disk.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RadialHistogram {
    /// Inner edge of the histogram (AU).
    pub r_in: f64,
    /// Outer edge (AU).
    pub r_out: f64,
    /// Bin edges (len = bins + 1).
    pub edges: Vec<f64>,
    /// Surface density per bin (mass / annulus area).
    pub sigma: Vec<f64>,
    /// Particle count per bin.
    pub counts: Vec<usize>,
    /// RMS eccentricity per bin.
    pub rms_e: Vec<f64>,
    /// RMS inclination per bin (rad).
    pub rms_i: Vec<f64>,
}

impl RadialHistogram {
    /// Bin the given subset of particles by heliocentric semi-major axis.
    /// Unbound or out-of-range particles are skipped (counted by the
    /// [`ScatteringCensus`] instead).
    pub fn from_system(
        sys: &ParticleSystem,
        indices: &[usize],
        r_in: f64,
        r_out: f64,
        bins: usize,
    ) -> Self {
        assert!(bins > 0 && r_out > r_in);
        let edges: Vec<f64> =
            (0..=bins).map(|k| r_in + (r_out - r_in) * k as f64 / bins as f64).collect();
        let mut mass = vec![0.0; bins];
        let mut counts = vec![0usize; bins];
        let mut e2 = vec![0.0; bins];
        let mut i2 = vec![0.0; bins];
        for &i in indices {
            let el = state_to_elements(sys.pos[i], sys.vel[i], sys.central_mass.max(1e-300));
            if !el.is_bound() || el.a < r_in || el.a >= r_out {
                continue;
            }
            let b = (((el.a - r_in) / (r_out - r_in) * bins as f64) as usize).min(bins - 1);
            mass[b] += sys.mass[i];
            counts[b] += 1;
            e2[b] += el.e * el.e;
            i2[b] += el.inc * el.inc;
        }
        let mut sigma = vec![0.0; bins];
        let mut rms_e = vec![0.0; bins];
        let mut rms_i = vec![0.0; bins];
        for b in 0..bins {
            let area = std::f64::consts::PI * (edges[b + 1].powi(2) - edges[b].powi(2));
            sigma[b] = mass[b] / area;
            if counts[b] > 0 {
                rms_e[b] = (e2[b] / counts[b] as f64).sqrt();
                rms_i[b] = (i2[b] / counts[b] as f64).sqrt();
            }
        }
        Self { r_in, r_out, edges, sigma, counts, rms_e, rms_i }
    }

    /// Number of bins.
    pub fn bins(&self) -> usize {
        self.sigma.len()
    }

    /// Center of bin `b`.
    pub fn center(&self, b: usize) -> f64 {
        0.5 * (self.edges[b] + self.edges[b + 1])
    }

    /// Bin index containing radius `r` (clamped).
    pub fn bin_of(&self, r: f64) -> usize {
        let bins = self.bins();
        (((r - self.r_in) / (self.r_out - self.r_in) * bins as f64) as usize).min(bins - 1)
    }

    /// Surface-density *depletion* at radius `r`: 1 − Σ(r)/Σ_ref(r).
    ///
    /// The disk has an intrinsic power-law gradient (Σ ∝ r^`profile_exponent`
    /// initially), so raw densities at different radii are not comparable;
    /// bins are first flattened by `r^-exponent` and the reference is the
    /// median flattened density of bins at least `exclusion` AU away from
    /// `r`. A fully opened gap reads ≈ 1, an untouched disk ≈ 0.
    pub fn depletion_at(&self, r: f64, exclusion: f64, profile_exponent: f64) -> f64 {
        let bins = self.bins();
        let flat = |b: usize| self.sigma[b] * self.center(b).powf(-profile_exponent);
        let mut reference: Vec<f64> = (0..bins)
            .filter(|&b| (self.center(b) - r).abs() > exclusion && self.counts[b] > 0)
            .map(flat)
            .collect();
        if reference.is_empty() {
            return 0.0;
        }
        reference.sort_by(f64::total_cmp);
        let median = reference[reference.len() / 2];
        if median <= 0.0 {
            return 0.0;
        }
        // Average the three bins nearest r for noise robustness.
        let b0 = self.bin_of(r);
        let lo = b0.saturating_sub(1);
        let hi = (b0 + 1).min(bins - 1);
        let local: f64 = (lo..=hi).map(flat).sum::<f64>() / (hi - lo + 1) as f64;
        1.0 - local / median
    }
}

/// Fate classification of the planetesimal population (paper §2: "some
/// planetesimals are accreted and others are scattered away…").
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct ScatteringCensus {
    /// Still on a bound orbit inside the analysis annulus.
    pub retained: usize,
    /// Bound but pushed inside the inner edge.
    pub scattered_inward: usize,
    /// Bound but pushed outside the outer edge (Oort-cloud feeding zone).
    pub scattered_outward: usize,
    /// Hyperbolic (positive heliocentric energy): ejected.
    pub ejected: usize,
    /// RMS eccentricity of the retained population.
    pub rms_e_retained: f64,
}

impl ScatteringCensus {
    /// Classify the given subset by instantaneous orbital elements, using
    /// the annulus `[r_in, r_out]` as the retention region.
    pub fn classify(sys: &ParticleSystem, indices: &[usize], r_in: f64, r_out: f64) -> Self {
        let mut c = Self::default();
        let mut e2 = 0.0;
        for &i in indices {
            let eps = specific_energy(sys.pos[i], sys.vel[i], sys.central_mass.max(1e-300));
            if eps >= 0.0 {
                c.ejected += 1;
                continue;
            }
            let el = state_to_elements(sys.pos[i], sys.vel[i], sys.central_mass.max(1e-300));
            if el.a < r_in {
                c.scattered_inward += 1;
            } else if el.a > r_out {
                c.scattered_outward += 1;
            } else {
                c.retained += 1;
                e2 += el.e * el.e;
            }
        }
        if c.retained > 0 {
            c.rms_e_retained = (e2 / c.retained as f64).sqrt();
        }
        c
    }

    /// Total classified particles.
    pub fn total(&self) -> usize {
        self.retained + self.scattered_inward + self.scattered_outward + self.ejected
    }

    /// Fraction no longer retained.
    pub fn disturbed_fraction(&self) -> f64 {
        let t = self.total();
        if t == 0 {
            0.0
        } else {
            1.0 - self.retained as f64 / t as f64
        }
    }
}

/// Logarithmic mass-spectrum histogram with a power-law slope fit — the
/// observable that evolves during accretion (paper §2: the m^-2.5 law is
/// "a stationary distribution"; runaway growth bends its high-mass end).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MassSpectrum {
    /// Logarithmic bin edges (len = bins + 1).
    pub edges: Vec<f64>,
    /// Bodies per bin.
    pub counts: Vec<usize>,
    /// Fitted dN/dm slope over the populated bins (≈ −2.5 for the paper's
    /// initial spectrum).
    pub slope: f64,
}

impl MassSpectrum {
    /// Bin the positive masses of the given subset into `bins` logarithmic
    /// bins and fit the differential slope by least squares on
    /// ln(dN/dm) vs ln(m).
    pub fn from_system(sys: &ParticleSystem, indices: &[usize], bins: usize) -> Self {
        assert!(bins >= 2);
        let masses: Vec<f64> = indices.iter().map(|&i| sys.mass[i]).filter(|&m| m > 0.0).collect();
        assert!(!masses.is_empty(), "no massive bodies to bin");
        let lo = masses.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = masses.iter().cloned().fold(0.0, f64::max) * (1.0 + 1e-12);
        let edges: Vec<f64> =
            (0..=bins).map(|k| lo * (hi / lo).powf(k as f64 / bins as f64)).collect();
        let mut counts = vec![0usize; bins];
        let log_ratio = (hi / lo).ln();
        for &m in &masses {
            let x = (m / lo).ln() / log_ratio;
            let b = ((x * bins as f64) as usize).min(bins - 1);
            counts[b] += 1;
        }
        // Least squares of ln(count / Δm) on ln(m_center), populated bins only.
        let mut pts = Vec::new();
        for b in 0..bins {
            if counts[b] > 0 {
                let center = (edges[b] * edges[b + 1]).sqrt();
                let dm = edges[b + 1] - edges[b];
                pts.push((center.ln(), (counts[b] as f64 / dm).ln()));
            }
        }
        let slope = if pts.len() >= 2 {
            let n = pts.len() as f64;
            let sx: f64 = pts.iter().map(|p| p.0).sum();
            let sy: f64 = pts.iter().map(|p| p.1).sum();
            let sxx: f64 = pts.iter().map(|p| p.0 * p.0).sum();
            let sxy: f64 = pts.iter().map(|p| p.0 * p.1).sum();
            (n * sxy - sx * sy) / (n * sxx - sx * sx)
        } else {
            f64::NAN
        };
        Self { edges, counts, slope }
    }
}

/// Tisserand parameter of an orbit with respect to a perturber at
/// semi-major axis `a_p`:
///
/// `T = a_p/a + 2 √( (a/a_p)(1−e²) ) cos i`.
///
/// T is (approximately) conserved through encounters with the perturber even
/// when the orbit itself changes drastically — the standard test that a
/// scattering event in an integration is dynamics, not integration error,
/// and the basis of the paper's comet-dynamics discussion (§2: Jupiter-family
/// comets are classified by their Tisserand parameter with Neptune/Jupiter).
pub fn tisserand(el: &grape6_core::kepler::Elements, a_p: f64) -> f64 {
    assert!(a_p > 0.0 && el.a > 0.0 && el.e < 1.0, "needs a bound orbit");
    a_p / el.a + 2.0 * ((el.a / a_p) * (1.0 - el.e * el.e)).sqrt() * el.inc.cos()
}

/// A compact (time, positions) snapshot for Fig 13-style scatter plots.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DiskSnapshot {
    /// Simulation time.
    pub t: f64,
    /// Cylindrical radii of all planetesimals.
    pub r: Vec<f64>,
    /// Azimuths (rad).
    pub phi: Vec<f64>,
    /// Heights above the midplane.
    pub z: Vec<f64>,
}

impl DiskSnapshot {
    /// Capture a snapshot of the given subset at the system's current state.
    pub fn capture(sys: &ParticleSystem, indices: &[usize], t: f64) -> Self {
        let mut r = Vec::with_capacity(indices.len());
        let mut phi = Vec::with_capacity(indices.len());
        let mut z = Vec::with_capacity(indices.len());
        for &i in indices {
            let p: Vec3 = sys.pos[i];
            r.push(p.cylindrical_r());
            phi.push(p.azimuth());
            z.push(p.z);
        }
        Self { t, r, phi, z }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DiskBuilder;

    fn fresh_disk(n: usize) -> (ParticleSystem, Vec<usize>) {
        let b = DiskBuilder::paper(n);
        let sys = b.build();
        let idx: Vec<usize> = (0..n).collect();
        (sys, idx)
    }

    #[test]
    fn histogram_recovers_profile_slope() {
        let (sys, idx) = fresh_disk(20_000);
        let h = RadialHistogram::from_system(&sys, &idx, 15.0, 35.0, 10);
        assert_eq!(h.bins(), 10);
        // Σ(20)/Σ(30) ≈ (20/30)^-1.5 = 1.84 for the fresh disk.
        let s20 = h.sigma[h.bin_of(20.0)];
        let s30 = h.sigma[h.bin_of(30.0)];
        let ratio = s20 / s30;
        assert!((ratio - 1.837).abs() < 0.3, "Σ20/Σ30 = {ratio}");
    }

    #[test]
    fn histogram_counts_everything_in_range() {
        let (sys, idx) = fresh_disk(2000);
        let h = RadialHistogram::from_system(&sys, &idx, 10.0, 40.0, 30);
        let total: usize = h.counts.iter().sum();
        assert_eq!(total, 2000);
    }

    #[test]
    fn fresh_disk_has_no_gaps() {
        let (sys, idx) = fresh_disk(20_000);
        let h = RadialHistogram::from_system(&sys, &idx, 15.0, 35.0, 40);
        for r in [20.0, 25.0, 30.0] {
            let d = h.depletion_at(r, 3.0, -1.5);
            assert!(d.abs() < 0.2, "depletion {d} at {r} AU in a fresh disk");
        }
    }

    #[test]
    fn carved_gap_is_detected() {
        // Remove particles near 20 AU by hand and check the detector fires.
        let b = DiskBuilder::paper(20_000);
        let sys = b.build();
        let idx: Vec<usize> = (0..20_000)
            .filter(|&i| {
                let a = grape6_core::kepler::state_to_elements(sys.pos[i], sys.vel[i], 1.0).a;
                (a - 20.0).abs() > 1.0
            })
            .collect();
        let h = RadialHistogram::from_system(&sys, &idx, 15.0, 35.0, 40);
        let d20 = h.depletion_at(20.0, 3.0, -1.5);
        let d30 = h.depletion_at(30.0, 3.0, -1.5);
        assert!(d20 > 0.7, "gap at 20 AU not detected: {d20}");
        assert!(d30 < 0.2, "false gap at 30 AU: {d30}");
    }

    #[test]
    fn census_on_fresh_disk_is_fully_retained() {
        let (sys, idx) = fresh_disk(2000);
        let c = ScatteringCensus::classify(&sys, &idx, 14.0, 36.0);
        assert_eq!(c.total(), 2000);
        assert_eq!(c.ejected, 0);
        assert!(c.disturbed_fraction() < 0.01);
        assert!(c.rms_e_retained > 0.0 && c.rms_e_retained < 0.05);
    }

    #[test]
    fn census_classifies_hand_built_fates() {
        let mut sys = ParticleSystem::new(0.0, 1.0);
        // Retained: circular at 25.
        sys.push(Vec3::new(25.0, 0.0, 0.0), Vec3::new(0.0, (1.0f64 / 25.0).sqrt(), 0.0), 1e-9);
        // Inward: circular at 5.
        sys.push(Vec3::new(5.0, 0.0, 0.0), Vec3::new(0.0, (1.0f64 / 5.0).sqrt(), 0.0), 1e-9);
        // Outward: circular at 80.
        sys.push(Vec3::new(80.0, 0.0, 0.0), Vec3::new(0.0, (1.0f64 / 80.0).sqrt(), 0.0), 1e-9);
        // Ejected: radial at 2× escape speed.
        sys.push(
            Vec3::new(25.0, 0.0, 0.0),
            Vec3::new(2.0 * (2.0f64 / 25.0).sqrt(), 0.0, 0.0),
            1e-9,
        );
        let c = ScatteringCensus::classify(&sys, &[0, 1, 2, 3], 15.0, 35.0);
        assert_eq!(c.retained, 1);
        assert_eq!(c.scattered_inward, 1);
        assert_eq!(c.scattered_outward, 1);
        assert_eq!(c.ejected, 1);
        assert!((c.disturbed_fraction() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn mass_spectrum_recovers_the_paper_slope() {
        let b = DiskBuilder::paper(50_000);
        let sys = b.build();
        let idx: Vec<usize> = (0..50_000).collect();
        let spec = MassSpectrum::from_system(&sys, &idx, 12);
        assert!((spec.slope - (-2.5)).abs() < 0.15, "fitted slope {}", spec.slope);
        assert_eq!(spec.counts.iter().sum::<usize>(), 50_000);
    }

    #[test]
    fn mass_spectrum_ignores_ghosts() {
        let mut sys = ParticleSystem::new(0.0, 1.0);
        for k in 1..=8 {
            sys.push(Vec3::new(k as f64, 0.0, 0.0), Vec3::zero(), 1e-10 * k as f64);
        }
        sys.mass[3] = 0.0; // ghost
        let idx: Vec<usize> = (0..8).collect();
        let spec = MassSpectrum::from_system(&sys, &idx, 4);
        assert_eq!(spec.counts.iter().sum::<usize>(), 7);
    }

    #[test]
    fn tisserand_of_coplanar_circular_orbit_at_perturber_is_three() {
        let el = grape6_core::kepler::Elements::circular(20.0, 0.0);
        let t = tisserand(&el, 20.0);
        assert!((t - 3.0).abs() < 1e-12, "T = {t}");
    }

    #[test]
    fn snapshot_captures_cylindrical_coordinates() {
        let mut sys = ParticleSystem::new(0.0, 1.0);
        sys.push(Vec3::new(3.0, 4.0, 0.5), Vec3::zero(), 1e-9);
        let s = DiskSnapshot::capture(&sys, &[0], 12.5);
        assert_eq!(s.t, 12.5);
        assert!((s.r[0] - 5.0).abs() < 1e-12);
        assert!((s.z[0] - 0.5).abs() < 1e-15);
        assert!((s.phi[0] - (4.0f64).atan2(3.0)).abs() < 1e-15);
    }
}
