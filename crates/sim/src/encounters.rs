//! Close-encounter detection and statistics.
//!
//! Paper §3: "when two planetesimals or a planetesimal and a protoplanet
//! undergo close encounters, the timescale can go down to a few hours.
//! Thus, the timescale ranges six orders of magnitudes." This module
//! consumes the engines' nearest-neighbour reports to log encounters and
//! measure exactly that range: encounter distances, the free-fall/encounter
//! timescale at closest approach, and the correlation with the timestep the
//! scheduler actually chose.

use grape6_core::particle::ParticleSystem;
use grape6_core::units;
use serde::{Deserialize, Serialize};

/// One logged close approach.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Encounter {
    /// Block time of the detection.
    pub t: f64,
    /// The active particle.
    pub i: usize,
    /// Its nearest neighbour.
    pub j: usize,
    /// Separation (AU).
    pub r: f64,
    /// Encounter timescale √(r³ / G(m_i + m_j)) (time units).
    pub timescale: f64,
    /// The block timestep particle `i` was using.
    pub dt_used: f64,
}

/// Detector configuration + accumulated log.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct EncounterLog {
    /// Record encounters with separation below this many mutual Hill radii.
    pub hill_threshold: f64,
    /// The log, in detection order.
    pub events: Vec<Encounter>,
}

impl EncounterLog {
    /// A detector triggering inside `hill_threshold` mutual Hill radii.
    pub fn new(hill_threshold: f64) -> Self {
        Self { hill_threshold, events: Vec::new() }
    }

    /// Examine one active particle's neighbour report and log it if it is a
    /// close encounter. Returns the event when triggered.
    pub fn observe(
        &mut self,
        sys: &ParticleSystem,
        t: f64,
        i: usize,
        nn: grape6_core::particle::Neighbor,
    ) -> Option<Encounter> {
        let j = nn.index;
        if i == j || sys.mass[i] == 0.0 || sys.mass[j] == 0.0 {
            return None;
        }
        let r = nn.r2.sqrt();
        let a_mid = 0.5 * (sys.pos[i].norm() + sys.pos[j].norm());
        let r_hill = units::mutual_hill_radius(a_mid, sys.mass[i], a_mid, sys.mass[j], 1.0);
        if r >= self.hill_threshold * r_hill {
            return None;
        }
        let m_tot = sys.mass[i] + sys.mass[j];
        let timescale = (r * r * r / m_tot.max(1e-300)).sqrt();
        let ev = Encounter { t, i, j, r, timescale, dt_used: sys.dt[i] };
        self.events.push(ev);
        Some(ev)
    }

    /// Number of logged encounters.
    pub fn count(&self) -> usize {
        self.events.len()
    }

    /// Shortest encounter timescale seen (time units).
    pub fn min_timescale(&self) -> Option<f64> {
        self.events.iter().map(|e| e.timescale).min_by(f64::total_cmp)
    }

    /// Ratio between the orbital timescale at radius `r_orbit` and the
    /// shortest encounter timescale — the §3 "orders of magnitude" figure.
    pub fn timescale_range(&self, r_orbit: f64) -> Option<f64> {
        self.min_timescale().map(|t| units::orbital_period(r_orbit, 1.0) / t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grape6_core::particle::Neighbor;
    use grape6_core::vec3::Vec3;

    fn pair_at(sep: f64, m: f64) -> ParticleSystem {
        let mut sys = ParticleSystem::new(0.008, 1.0);
        sys.push(Vec3::new(20.0, 0.0, 0.0), Vec3::new(0.0, 0.22, 0.0), m);
        sys.push(Vec3::new(20.0 + sep, 0.0, 0.0), Vec3::new(0.0, 0.22, 0.0), m);
        sys.dt = vec![0.125, 0.125];
        sys
    }

    #[test]
    fn close_pair_triggers() {
        let m = 1e-7;
        let rh = units::mutual_hill_radius(20.0, m, 20.0, m, 1.0);
        let sys = pair_at(rh * 0.5, m);
        let mut log = EncounterLog::new(3.0);
        let ev = log
            .observe(&sys, 1.0, 0, Neighbor { index: 1, r2: (rh * 0.5) * (rh * 0.5) })
            .expect("should trigger inside 3 Hill radii");
        assert_eq!(ev.j, 1);
        assert!((ev.r - rh * 0.5).abs() < 1e-15);
        assert_eq!(ev.dt_used, 0.125);
        assert_eq!(log.count(), 1);
    }

    #[test]
    fn wide_pair_does_not_trigger() {
        let m = 1e-7;
        let rh = units::mutual_hill_radius(20.0, m, 20.0, m, 1.0);
        let sys = pair_at(rh * 10.0, m);
        let mut log = EncounterLog::new(3.0);
        assert!(log
            .observe(&sys, 1.0, 0, Neighbor { index: 1, r2: (rh * 10.0) * (rh * 10.0) })
            .is_none());
        assert_eq!(log.count(), 0);
    }

    #[test]
    fn encounter_timescale_is_hours_for_protoplanet_grazes() {
        // §3's number: "the timescale can go down to a few hours". A
        // planetesimal passing a protoplanet (m = 3e-5) at 1e-3 AU:
        // τ = √(r³/G m) = √(1e-9 / 3e-5) ≈ 5.8e-3 time units ≈ 8 hours.
        let mut sys = pair_at(1e-3, 1e-9);
        sys.mass[1] = grape6_core::units::paper::M_PROTOPLANET;
        let mut log = EncounterLog::new(1e9); // record anything
        let ev = log.observe(&sys, 0.0, 0, Neighbor { index: 1, r2: 1e-6 }).unwrap();
        let hours = units::time_to_years(ev.timescale) * 365.25 * 24.0;
        assert!(hours > 1.0 && hours < 24.0, "encounter timescale {hours} hours");
        // Orbital period (≈90 yr at 20 AU) over encounter timescale: the §3
        // "six orders of magnitude" claim — here ≈10⁵ already at this depth.
        let range = log.timescale_range(20.0).unwrap();
        assert!(range > 5e4, "timescale range {range}");
    }

    #[test]
    fn ghosts_and_self_are_ignored() {
        let mut sys = pair_at(1e-5, 1e-7);
        let mut log = EncounterLog::new(3.0);
        assert!(log.observe(&sys, 0.0, 0, Neighbor { index: 0, r2: 0.0 }).is_none());
        sys.mass[1] = 0.0;
        assert!(log.observe(&sys, 0.0, 0, Neighbor { index: 1, r2: 1e-10 }).is_none());
    }

    #[test]
    fn statistics_over_multiple_events() {
        let m = 1e-7;
        let sys = pair_at(1e-4, m);
        let mut log = EncounterLog::new(1e9);
        for (k, r) in [1e-3f64, 5e-4, 2e-3].iter().enumerate() {
            log.observe(&sys, k as f64, 0, Neighbor { index: 1, r2: r * r }).unwrap();
        }
        assert_eq!(log.count(), 3);
        assert!(log.min_timescale().unwrap() < (1e-3f64.powi(3) / (2.0 * m)).sqrt());
    }
}
