//! Assembly of the initial conditions of paper §2: a ring of planetesimals
//! with a power-law mass spectrum and r^-1.5 surface density, dynamically
//! cold (Rayleigh-distributed eccentricities and inclinations), plus two
//! massive protoplanets — proto-Uranus at 20 AU and proto-Neptune at 30 AU —
//! on non-inclined circular orbits.

use crate::massfn::PowerLawMass;
use crate::profile::RadialProfile;
use grape6_core::kepler::{elements_to_state, Elements};
use grape6_core::particle::ParticleSystem;
use grape6_core::units;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Draw from a Rayleigh distribution with RMS value `rms` by inverse-CDF
/// sampling: `x = σ √(−2 ln u)` with `σ = rms/√2`, so that `<x²> = rms²`.
/// (Eccentricities and inclinations of a relaxed planetesimal disk follow a
/// Rayleigh distribution.)
fn sample_rayleigh<R: Rng + ?Sized>(rng: &mut R, rms: f64) -> f64 {
    assert!(rms > 0.0, "Rayleigh rms must be positive");
    let sigma = rms / std::f64::consts::SQRT_2;
    let u: f64 = 1.0 - rng.gen::<f64>(); // in (0, 1]
    sigma * (-2.0 * u.ln()).sqrt()
}

/// A protoplanet to embed in the ring.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Protoplanet {
    /// Semi-major axis (AU).
    pub a: f64,
    /// Mass (M_sun).
    pub mass: f64,
    /// Initial mean anomaly (rad).
    pub mean_anomaly: f64,
}

/// Builder for the planetesimal-disk initial conditions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DiskBuilder {
    /// Number of planetesimals.
    pub n: usize,
    /// Radial profile of the ring.
    pub profile: RadialProfile,
    /// Mass function of the planetesimals.
    pub mass_fn: PowerLawMass,
    /// Total planetesimal mass; individual draws are rescaled to hit it
    /// exactly (0 disables rescaling).
    pub total_mass: f64,
    /// RMS eccentricity of the initial (Rayleigh) distribution.
    pub sigma_e: f64,
    /// RMS inclination (rad); the standard equilibrium ratio is σ_i = σ_e/2.
    pub sigma_i: f64,
    /// Plummer softening applied to all pairwise interactions (AU).
    pub softening: f64,
    /// Embedded protoplanets.
    pub protoplanets: Vec<Protoplanet>,
    /// RNG seed (fixed for reproducibility).
    pub seed: u64,
}

impl DiskBuilder {
    /// The paper's configuration scaled to `n` planetesimals: the ring keeps
    /// its total mass (≈29 M_earth, the Hayashi-nebula integral) and
    /// geometry; only the granularity changes.
    pub fn paper(n: usize) -> Self {
        let mass_fn = PowerLawMass::paper();
        Self {
            n,
            profile: RadialProfile::paper(),
            mass_fn,
            total_mass: mass_fn.mean() * units::paper::N_PLANETESIMALS as f64,
            sigma_e: 0.01,
            sigma_i: 0.005,
            softening: units::paper::SOFTENING,
            protoplanets: vec![
                Protoplanet {
                    a: units::paper::A_PROTO_URANUS,
                    mass: units::paper::M_PROTOPLANET,
                    mean_anomaly: 0.0,
                },
                Protoplanet {
                    a: units::paper::A_PROTO_NEPTUNE,
                    mass: units::paper::M_PROTOPLANET,
                    mean_anomaly: std::f64::consts::PI,
                },
            ],
            seed: 20021116, // SC2002 conference date
        }
    }

    /// Replace the seed (chainable).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Drop the protoplanets (pure relaxation experiments).
    pub fn without_protoplanets(mut self) -> Self {
        self.protoplanets.clear();
        self
    }

    /// Generate the particle system. Protoplanets occupy the *last* indices
    /// (ids `n`, `n+1`, …); planetesimals are `0..n`.
    pub fn build(&self) -> ParticleSystem {
        assert!(self.n > 0, "empty disk");
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut sys = ParticleSystem::new(self.softening, units::M_SUN);
        sys.reserve(self.n + self.protoplanets.len());

        let mass_cdf = self.mass_fn.inverse_cdf();
        let radius_cdf = self.profile.inverse_cdf();
        let mut masses: Vec<f64> = (0..self.n).map(|_| mass_cdf.sample(&mut rng)).collect();
        if self.total_mass > 0.0 {
            let sum: f64 = masses.iter().sum();
            let scale = self.total_mass / sum;
            for m in &mut masses {
                *m *= scale;
            }
        }

        for &m in &masses {
            let a = radius_cdf.sample(&mut rng);
            let e: f64 = sample_rayleigh(&mut rng, self.sigma_e).min(0.9);
            let inc: f64 = sample_rayleigh(&mut rng, self.sigma_i).min(0.5);
            let el = Elements {
                a,
                e,
                inc,
                node: rng.gen::<f64>() * std::f64::consts::TAU,
                peri: rng.gen::<f64>() * std::f64::consts::TAU,
                mean_anomaly: rng.gen::<f64>() * std::f64::consts::TAU,
            };
            let (pos, vel) = elements_to_state(&el, units::M_SUN);
            sys.push(pos, vel, m);
        }
        for p in &self.protoplanets {
            let el = Elements::circular(p.a, p.mean_anomaly);
            let (pos, vel) = elements_to_state(&el, units::M_SUN);
            sys.push(pos, vel, p.mass);
        }
        sys
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grape6_core::kepler::state_to_elements;

    fn small_disk() -> DiskBuilder {
        DiskBuilder::paper(500)
    }

    #[test]
    fn builds_requested_counts() {
        let b = small_disk();
        let sys = b.build();
        assert_eq!(sys.len(), 502);
        assert!(sys.validate().is_ok());
    }

    #[test]
    fn total_mass_is_paper_scale() {
        let b = small_disk();
        let sys = b.build();
        let m_ring: f64 = sys.mass[..500].iter().sum();
        let earths = m_ring / units::M_EARTH;
        assert!(earths > 15.0 && earths < 60.0, "ring mass {earths} M_earth");
        // Exact rescaling:
        assert!((m_ring - b.total_mass).abs() / b.total_mass < 1e-12);
    }

    #[test]
    fn protoplanets_on_circular_coplanar_orbits() {
        let sys = small_disk().build();
        for i in [500, 501] {
            let el = state_to_elements(sys.pos[i], sys.vel[i], 1.0);
            assert!(el.e < 1e-10, "protoplanet e = {}", el.e);
            assert!(el.inc.abs() < 1e-10);
            assert!(sys.pos[i].z.abs() < 1e-12);
        }
        let a0 = sys.pos[500].norm();
        let a1 = sys.pos[501].norm();
        assert!((a0 - 20.0).abs() < 1e-9);
        assert!((a1 - 30.0).abs() < 1e-9);
    }

    #[test]
    fn planetesimals_within_annulus() {
        let sys = small_disk().build();
        for i in 0..500 {
            let el = state_to_elements(sys.pos[i], sys.vel[i], 1.0);
            assert!(el.a >= 15.0 - 1e-9 && el.a <= 35.0 + 1e-9, "a = {}", el.a);
            assert!(el.is_bound());
        }
    }

    #[test]
    fn disk_is_dynamically_cold() {
        let b = small_disk();
        let sys = b.build();
        let mut e2 = 0.0;
        let mut i2 = 0.0;
        for i in 0..500 {
            let el = state_to_elements(sys.pos[i], sys.vel[i], 1.0);
            e2 += el.e * el.e;
            i2 += el.inc * el.inc;
        }
        let rms_e = (e2 / 500.0).sqrt();
        let rms_i = (i2 / 500.0).sqrt();
        assert!((rms_e - b.sigma_e).abs() / b.sigma_e < 0.15, "rms e {rms_e}");
        assert!((rms_i - b.sigma_i).abs() / b.sigma_i < 0.15, "rms i {rms_i}");
    }

    #[test]
    fn deterministic_given_seed() {
        let a = small_disk().build();
        let b = small_disk().build();
        assert_eq!(a.pos, b.pos);
        assert_eq!(a.vel, b.vel);
        assert_eq!(a.mass, b.mass);
        let c = small_disk().with_seed(1).build();
        assert_ne!(a.pos, c.pos);
    }

    #[test]
    fn without_protoplanets_drops_them() {
        let sys = small_disk().without_protoplanets().build();
        assert_eq!(sys.len(), 500);
        // With the ring mass held fixed, 500 bodies are individually heavier
        // than the production planetesimals, but still well below a
        // protoplanet.
        let m_max = sys.mass.iter().cloned().fold(0.0, f64::max);
        assert!(m_max < units::paper::M_PROTOPLANET, "found {m_max}");
    }

    #[test]
    fn softening_matches_paper() {
        let sys = small_disk().build();
        assert_eq!(sys.softening, 0.008);
        assert_eq!(sys.central_mass, 1.0);
    }

    #[test]
    fn hill_radius_dwarfs_softening() {
        // §2's consistency requirement on the chosen protoplanet mass.
        let b = small_disk();
        for p in &b.protoplanets {
            let rh = units::hill_radius(p.a, p.mass, 1.0);
            assert!(rh / b.softening > 50.0);
        }
    }
}
