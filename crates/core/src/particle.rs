//! Particle storage in structure-of-arrays layout.
//!
//! Each particle carries its own time `time[i]` (the instant at which
//! `pos/vel/acc/jerk` are exact) and its own timestep `dt[i]`, as required by
//! the block individual-timestep algorithm (paper §3, McMillan 1986,
//! Makino 1991). The SoA layout keeps the force kernel's j-particle sweep
//! contiguous, which is what the GRAPE memory units provide in hardware.

use crate::hermite;
use crate::vec3::Vec3;
use serde::{Deserialize, Serialize};

/// The N-body system state.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ParticleSystem {
    /// Positions at each particle's individual time.
    pub pos: Vec<Vec3>,
    /// Velocities at each particle's individual time.
    pub vel: Vec<Vec3>,
    /// Accelerations at each particle's individual time.
    pub acc: Vec<Vec3>,
    /// Jerks (da/dt) at each particle's individual time.
    pub jerk: Vec<Vec3>,
    /// Masses.
    pub mass: Vec<f64>,
    /// Individual times.
    pub time: Vec<f64>,
    /// Individual timesteps (powers of two once scheduled).
    pub dt: Vec<f64>,
    /// Softened pairwise potential −Σⱼ mⱼ/√(r² + ε²) at the particle, self
    /// term excluded, as the engine returned it at the particle's own
    /// `time[i]`: all at `t` right after `initialize`, mixed epochs once the
    /// run is stepping.
    pub pot: Vec<f64>,
    /// Stable external identifiers (survive any reordering).
    pub id: Vec<u64>,
    /// Plummer softening length ε applied to every pairwise interaction.
    pub softening: f64,
    /// Mass of the central body treated as an external potential
    /// (the Sun in the paper; 0 disables the external field).
    pub central_mass: f64,
    /// Global system time: the time of the most recent block step.
    pub t: f64,
}

impl ParticleSystem {
    /// An empty system with the given softening and central mass.
    pub fn new(softening: f64, central_mass: f64) -> Self {
        Self { softening, central_mass, ..Default::default() }
    }

    /// Number of particles.
    #[inline]
    pub fn len(&self) -> usize {
        self.pos.len()
    }

    /// True if the system holds no particles.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.pos.is_empty()
    }

    /// Reserve room for `additional` more particles in every array, so a
    /// caller that knows its count pushes without regrowing nine `Vec`s by
    /// doubling. A decoder must bound `additional` by the bytes it actually
    /// holds, never by a count it merely read.
    pub fn reserve(&mut self, additional: usize) {
        self.pos.reserve(additional);
        self.vel.reserve(additional);
        self.acc.reserve(additional);
        self.jerk.reserve(additional);
        self.mass.reserve(additional);
        self.time.reserve(additional);
        self.dt.reserve(additional);
        self.pot.reserve(additional);
        self.id.reserve(additional);
    }

    /// Append a particle with position, velocity and mass; dynamical state
    /// (acc/jerk/dt) is zeroed until the integrator initializes it.
    pub fn push(&mut self, pos: Vec3, vel: Vec3, mass: f64) -> usize {
        let idx = self.len();
        self.pos.push(pos);
        self.vel.push(vel);
        self.acc.push(Vec3::zero());
        self.jerk.push(Vec3::zero());
        self.mass.push(mass);
        self.time.push(self.t);
        self.dt.push(0.0);
        self.pot.push(0.0);
        self.id.push(idx as u64);
        idx
    }

    /// Append a particle with an explicit external id.
    pub fn push_with_id(&mut self, pos: Vec3, vel: Vec3, mass: f64, id: u64) -> usize {
        let idx = self.push(pos, vel, mass);
        self.id[idx] = id;
        idx
    }

    /// Total mass of all particles (excluding the central body).
    pub fn total_mass(&self) -> f64 {
        self.mass.iter().sum()
    }

    /// Centre of mass of the particles (excluding the central body).
    pub fn center_of_mass(&self) -> Vec3 {
        let m = self.total_mass();
        if m == 0.0 {
            return Vec3::zero();
        }
        self.pos.iter().zip(&self.mass).map(|(&p, &mi)| p * mi).sum::<Vec3>() / m
    }

    /// Predict the phase-space state of particle `i` at time `t` with the
    /// Hermite predictor polynomial (position to 3rd order, velocity to 2nd).
    ///
    /// This is exactly what the GRAPE-6 on-chip predictor pipeline evaluates
    /// for j-particles (paper §4.2, Fig 9); on the host it is used for
    /// i-particles.
    #[inline]
    pub fn predict(&self, i: usize, t: f64) -> (Vec3, Vec3) {
        hermite::predict(self.pos[i], self.vel[i], self.acc[i], self.jerk[i], t - self.time[i])
    }

    /// Check structural invariants: the acceptance rule every decoder applies
    /// (JSON, `G6SN`, `G6CK`) before anything acts on a system. Arrays agree
    /// in length, states are finite, masses, softening and central mass are
    /// finite and non-negative, and no body is ahead of the system time.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.len();
        for (name, l) in [
            ("vel", self.vel.len()),
            ("acc", self.acc.len()),
            ("jerk", self.jerk.len()),
            ("mass", self.mass.len()),
            ("time", self.time.len()),
            ("dt", self.dt.len()),
            ("pot", self.pot.len()),
            ("id", self.id.len()),
        ] {
            if l != n {
                return Err(format!("array {name} has length {l}, expected {n}"));
            }
        }
        let finite_non_negative = |v: f64| v.is_finite() && v >= 0.0;
        for i in 0..n {
            if ![self.pos[i], self.vel[i], self.acc[i], self.jerk[i]]
                .into_iter()
                .all(Vec3::is_finite)
            {
                return Err(format!("particle {i} has non-finite state"));
            }
            if !finite_non_negative(self.mass[i]) {
                return Err(format!(
                    "particle {i} mass {} is not a finite non-negative number",
                    self.mass[i]
                ));
            }
            if self.time[i] > self.t + 1e-12 {
                return Err(format!(
                    "particle {i} time {} is ahead of system time {}",
                    self.time[i], self.t
                ));
            }
        }
        for (name, v) in [("softening", self.softening), ("central mass", self.central_mass)] {
            if !finite_non_negative(v) {
                return Err(format!("{name} {v} is not a finite non-negative number"));
            }
        }
        Ok(())
    }
}

/// An *i-particle*: the predicted state of an active particle, shipped to the
/// force engine (host → GRAPE direction in the real machine).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IParticle {
    /// Index of the particle in the [`ParticleSystem`].
    pub index: usize,
    /// Predicted position at the current block time.
    pub pos: Vec3,
    /// Predicted velocity at the current block time.
    pub vel: Vec3,
}

/// Nearest-neighbour report for one i-particle. The real GRAPE-6 pipelines
/// tracked this alongside the force — it is what made collision/accretion
/// detection affordable in planetesimal runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// Index of the nearest j-particle (self excluded).
    pub index: usize,
    /// Squared (unsoftened) distance to it.
    pub r2: f64,
}

/// Force-engine output for one i-particle (GRAPE → host direction).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ForceResult {
    /// Acceleration from all j-particles (softened pairwise gravity).
    pub acc: Vec3,
    /// Jerk (time derivative of the acceleration).
    pub jerk: Vec3,
    /// Softened potential (negative; excludes the self term).
    pub pot: f64,
    /// Nearest neighbour, when the engine tracks it (GRAPE-6 and the CPU
    /// reference do; the tree baseline does not).
    pub nn: Option<Neighbor>,
}

impl ForceResult {
    /// Fold the partial result of a disjoint j-set into this one: sums add,
    /// the nearest neighbour keeps the closer candidate and, at exactly
    /// equal r², the lower j-index — what one ascending sweep would have
    /// reported, whether the partials are ascending j-chunks or interleaved
    /// j-lanes. Partials must be merged in a fixed order for the
    /// floating-point sums to be bit-stable.
    #[inline]
    pub fn merge(&mut self, other: &Self) {
        self.acc += other.acc;
        self.jerk += other.jerk;
        self.pot += other.pot;
        if let Some(nb) = other.nn {
            if self.nn.is_none_or(|t| nb.r2 < t.r2 || (nb.r2 == t.r2 && nb.index < t.index)) {
                self.nn = Some(nb);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_body() -> ParticleSystem {
        let mut s = ParticleSystem::new(0.0, 0.0);
        s.push(Vec3::new(1.0, 0.0, 0.0), Vec3::new(0.0, 0.5, 0.0), 1.0);
        s.push(Vec3::new(-1.0, 0.0, 0.0), Vec3::new(0.0, -0.5, 0.0), 1.0);
        s
    }

    #[test]
    fn push_assigns_sequential_ids() {
        let s = two_body();
        assert_eq!(s.len(), 2);
        assert_eq!(s.id, vec![0, 1]);
    }

    #[test]
    fn push_with_id_keeps_external_id() {
        let mut s = ParticleSystem::new(0.0, 0.0);
        s.push_with_id(Vec3::zero(), Vec3::zero(), 1.0, 42);
        assert_eq!(s.id[0], 42);
    }

    #[test]
    fn total_mass_and_com() {
        let s = two_body();
        assert_eq!(s.total_mass(), 2.0);
        assert_eq!(s.center_of_mass(), Vec3::zero());
    }

    #[test]
    fn com_weights_by_mass() {
        let mut s = ParticleSystem::new(0.0, 0.0);
        s.push(Vec3::new(0.0, 0.0, 0.0), Vec3::zero(), 3.0);
        s.push(Vec3::new(4.0, 0.0, 0.0), Vec3::zero(), 1.0);
        assert_eq!(s.center_of_mass(), Vec3::new(1.0, 0.0, 0.0));
    }

    #[test]
    fn empty_system_com_is_zero() {
        let s = ParticleSystem::new(0.0, 0.0);
        assert!(s.is_empty());
        assert_eq!(s.center_of_mass(), Vec3::zero());
    }

    #[test]
    fn predict_at_own_time_is_identity() {
        let mut s = two_body();
        s.acc[0] = Vec3::new(0.1, 0.2, 0.3);
        s.jerk[0] = Vec3::new(-0.1, 0.0, 0.4);
        let (p, v) = s.predict(0, s.time[0]);
        assert_eq!(p, s.pos[0]);
        assert_eq!(v, s.vel[0]);
    }

    #[test]
    fn predict_matches_taylor_series() {
        let mut s = ParticleSystem::new(0.0, 0.0);
        s.push(Vec3::new(1.0, 2.0, 3.0), Vec3::new(0.5, 0.0, -0.5), 1.0);
        s.acc[0] = Vec3::new(0.0, 1.0, 0.0);
        s.jerk[0] = Vec3::new(6.0, 0.0, 0.0);
        let dt = 0.5;
        let (p, v) = s.predict(0, dt);
        // x + v t + a t²/2 + j t³/6
        let px = 1.0 + 0.5 * dt + 0.0 + 6.0 * dt * dt * dt / 6.0;
        let py = 2.0 + 0.0 + 1.0 * dt * dt / 2.0;
        assert!((p.x - px).abs() < 1e-15);
        assert!((p.y - py).abs() < 1e-15);
        assert!((p.z - (3.0 - 0.5 * dt)).abs() < 1e-15);
        assert!((v.x - (0.5 + 6.0 * dt * dt / 2.0)).abs() < 1e-15);
        assert!((v.y - dt).abs() < 1e-15);
    }

    #[test]
    fn validate_accepts_fresh_system() {
        assert!(two_body().validate().is_ok());
    }

    #[test]
    fn validate_rejects_nan_position() {
        let mut s = two_body();
        s.pos[1].x = f64::NAN;
        assert!(s.validate().is_err());
    }

    #[test]
    fn validate_rejects_negative_mass() {
        let mut s = two_body();
        s.mass[0] = -1.0;
        assert!(s.validate().is_err());
    }

    #[test]
    fn validate_rejects_particle_ahead_of_system_time() {
        let mut s = two_body();
        s.time[0] = 1.0; // system t is still 0
        assert!(s.validate().is_err());
    }

    #[test]
    fn validate_rejects_non_finite_acc_jerk_and_mass() {
        for patch in [
            |s: &mut ParticleSystem| s.acc[0].y = f64::NAN,
            |s: &mut ParticleSystem| s.jerk[1].z = f64::NEG_INFINITY,
            |s: &mut ParticleSystem| s.mass[1] = f64::INFINITY,
        ] {
            let mut s = two_body();
            patch(&mut s);
            assert!(s.validate().is_err());
        }
    }

    #[test]
    fn validate_rejects_softening_or_central_mass_not_finite_and_non_negative() {
        for v in [-0.5, f64::NAN, f64::INFINITY] {
            let mut s = two_body();
            s.softening = v;
            assert!(s.validate().unwrap_err().contains("softening"));
            let mut s = two_body();
            s.central_mass = v;
            assert!(s.validate().unwrap_err().contains("central mass"));
        }
    }

    #[test]
    fn validate_rejects_ragged_arrays() {
        let mut s = two_body();
        s.mass.pop();
        assert!(s.validate().is_err());
    }
}
