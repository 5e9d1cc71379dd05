//! System of units used by the paper (§2).
//!
//! The Astronomical Unit, the Solar mass, and the gravitational constant are
//! all unity. In these *heliocentric units* one year is 2π time units, so the
//! orbital period of a circular orbit of radius `a` AU is `2π a^(3/2)`.

/// Gravitational constant (unity by construction).
pub const G: f64 = 1.0;

/// Solar mass in simulation units (unity by construction).
pub const M_SUN: f64 = 1.0;

/// One year expressed in simulation time units (= 2π).
pub const YEAR: f64 = std::f64::consts::TAU;

/// One Earth mass in Solar masses.
pub const M_EARTH: f64 = 3.003e-6;

/// Conversion: simulation time units → years.
#[inline]
pub fn time_to_years(t: f64) -> f64 {
    t / YEAR
}

/// Conversion: years → simulation time units.
#[inline]
pub fn years_to_time(y: f64) -> f64 {
    y * YEAR
}

/// Circular orbital period at semi-major axis `a` (AU) around mass `m_central`.
#[inline]
pub fn orbital_period(a: f64, m_central: f64) -> f64 {
    std::f64::consts::TAU * (a * a * a / (G * m_central)).sqrt()
}

/// Circular (Keplerian) orbital speed at radius `r` around mass `m_central`.
#[inline]
pub fn circular_speed(r: f64, m_central: f64) -> f64 {
    (G * m_central / r).sqrt()
}

/// Keplerian angular frequency Ω at radius `r`.
#[inline]
pub fn kepler_omega(r: f64, m_central: f64) -> f64 {
    (G * m_central / (r * r * r)).sqrt()
}

/// Hill radius of a body of mass `m` on a circular orbit of radius `a`
/// around a central mass `m_central`: `a (m / 3 m_central)^{1/3}`.
///
/// The paper softens all interactions with ε = 0.008 AU, "two orders of
/// magnitude smaller than the Hill radius of the protoplanets".
#[inline]
pub fn hill_radius(a: f64, m: f64, m_central: f64) -> f64 {
    a * (m / (3.0 * m_central)).cbrt()
}

/// Mutual Hill radius of two bodies with masses `m1`, `m2` at semi-major axes
/// `a1`, `a2`.
#[inline]
pub fn mutual_hill_radius(a1: f64, m1: f64, a2: f64, m2: f64, m_central: f64) -> f64 {
    0.5 * (a1 + a2) * ((m1 + m2) / (3.0 * m_central)).cbrt()
}

/// One AU in kilometres.
pub const AU_KM: f64 = 1.495_978_707e8;

/// The unit of velocity (AU per time unit) in km/s: the Earth's orbital
/// speed, ≈ 29.78 km/s.
pub const VELOCITY_KMS: f64 = 29.784_69;

/// Parameters of the paper's production configuration (§2, §6), used as the
/// reference workload across examples, tests and benches.
pub mod paper {
    /// Number of planetesimals in the headline run.
    pub const N_PLANETESIMALS: usize = 1_799_998;
    /// Number of protoplanets.
    pub const N_PROTOPLANETS: usize = 2;
    /// Inner edge of the planetesimal ring (AU).
    pub const RING_INNER: f64 = 15.0;
    /// Outer edge of the planetesimal ring (AU).
    pub const RING_OUTER: f64 = 35.0;
    /// Semi-major axis of proto-Uranus (AU).
    pub const A_PROTO_URANUS: f64 = 20.0;
    /// Semi-major axis of proto-Neptune (AU).
    pub const A_PROTO_NEPTUNE: f64 = 30.0;
    /// Plummer softening length (AU) applied to all interactions.
    pub const SOFTENING: f64 = 0.008;
    /// Exponent of the planetesimal mass distribution N(m) dm ∝ m^-2.5.
    pub const MASS_EXPONENT: f64 = -2.5;
    /// Exponent of the surface mass density Σ ∝ r^-1.5.
    pub const SIGMA_EXPONENT: f64 = -1.5;
    /// Protoplanet mass (M_sun). The provided paper text lost the value to
    /// OCR; 3×10⁻⁵ M_sun (≈10 M_earth icy core) satisfies every constraint
    /// the text retains (see DESIGN.md §3).
    pub const M_PROTOPLANET: f64 = 3.0e-5;
    /// Lower cutoff of the planetesimal mass function (M_sun). Chosen so the
    /// total ring mass matches the Hayashi (1981) nebula the paper cites:
    /// its icy branch, Σ = 30 (r/AU)^-3/2 g/cm², integrated over the
    /// 15–35 AU annulus is 4π Σ₁ (√35 − √15) AU² ≈ 8.7×10⁻⁵ M_sun ≈
    /// 29 M_earth, and the m^-2.5 law with hi/lo = 100 has mean ≈ 2.7·lo,
    /// so lo ≈ 1.8×10⁻¹¹ gives 1.8 M × mean ≈ 29 M_earth.
    pub const M_PLANETESIMAL_LO: f64 = 1.8e-11;
    /// Upper cutoff of the planetesimal mass function (M_sun).
    pub const M_PLANETESIMAL_HI: f64 = 1.8e-9;
    /// Gordon Bell convention: flops charged per pairwise force (38) plus its
    /// time derivative (19) = 57 (§5.2).
    pub const FLOPS_PER_INTERACTION: u64 = 57;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn year_is_two_pi() {
        assert!((YEAR - std::f64::consts::TAU).abs() < 1e-15);
        assert!((time_to_years(YEAR) - 1.0).abs() < 1e-15);
        assert!((years_to_time(1.0) - YEAR).abs() < 1e-15);
    }

    #[test]
    fn period_at_1_au_is_one_year() {
        assert!((orbital_period(1.0, 1.0) - YEAR).abs() < 1e-12);
    }

    #[test]
    fn period_scales_as_a_three_halves() {
        // Kepler's third law: P(4 AU) = 8 years.
        assert!((orbital_period(4.0, 1.0) / orbital_period(1.0, 1.0) - 8.0).abs() < 1e-12);
    }

    #[test]
    fn outer_region_period_order_100_years() {
        // §3: "the orbital period of protoplanets and planetesimals is of the
        // order of 100 years".
        let p20 = time_to_years(orbital_period(paper::A_PROTO_URANUS, 1.0));
        let p30 = time_to_years(orbital_period(paper::A_PROTO_NEPTUNE, 1.0));
        assert!(p20 > 80.0 && p20 < 100.0, "P(20 AU) = {p20} yr");
        assert!(p30 > 150.0 && p30 < 170.0, "P(30 AU) = {p30} yr");
    }

    #[test]
    fn circular_speed_at_1_au() {
        // v = 1 in these units at 1 AU (≈ 29.8 km/s physically).
        assert!((circular_speed(1.0, 1.0) - 1.0).abs() < 1e-15);
    }

    #[test]
    fn omega_consistent_with_period() {
        let r = 17.3;
        assert!((kepler_omega(r, 1.0) * orbital_period(r, 1.0) - YEAR).abs() < 1e-12);
    }

    #[test]
    fn softening_two_orders_below_hill_radius() {
        // §2's consistency claim, which pins down the protoplanet mass scale.
        let rh_u = hill_radius(paper::A_PROTO_URANUS, paper::M_PROTOPLANET, 1.0);
        let rh_n = hill_radius(paper::A_PROTO_NEPTUNE, paper::M_PROTOPLANET, 1.0);
        assert!(rh_u / paper::SOFTENING > 50.0, "r_H(U)/ε = {}", rh_u / paper::SOFTENING);
        assert!(rh_n / paper::SOFTENING > 75.0, "r_H(N)/ε = {}", rh_n / paper::SOFTENING);
        assert!(rh_n / paper::SOFTENING < 300.0);
    }

    #[test]
    fn mutual_hill_radius_reduces_to_single() {
        let a = 20.0;
        let m = 1e-5;
        let single = hill_radius(a, m, 1.0);
        let mutual = mutual_hill_radius(a, m / 2.0, a, m / 2.0, 1.0);
        assert!((single - mutual).abs() < 1e-12);
    }

    #[test]
    fn physical_conversions_are_consistent() {
        // AU/yr from first principles: AU_KM / seconds-per-year / (1/2π).
        let seconds_per_year = 365.25 * 86_400.0;
        let derived = AU_KM / seconds_per_year * YEAR;
        assert!((derived - VELOCITY_KMS).abs() < 0.05, "derived {derived}");
    }

    #[test]
    fn paper_mass_budget_is_hayashi_scale() {
        // Mean of the m^-2.5 power law between the cutoffs, times N, should be
        // of order 100 Earth masses (DESIGN.md §3).
        let (lo, hi) = (paper::M_PLANETESIMAL_LO, paper::M_PLANETESIMAL_HI);
        // <m> = ∫ m·m^-2.5 / ∫ m^-2.5 over [lo, hi]
        let num = (lo.powf(-0.5) - hi.powf(-0.5)) / 0.5;
        let den = (lo.powf(-1.5) - hi.powf(-1.5)) / 1.5;
        let mean = num / den;
        let total = mean * paper::N_PLANETESIMALS as f64;
        let earth_masses = total / M_EARTH;
        // Hayashi 15–35 AU icy annulus ≈ 29 M_earth.
        assert!(earth_masses > 15.0 && earth_masses < 60.0, "disk = {earth_masses} M_earth");
    }
}
