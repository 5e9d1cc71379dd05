//! Conserved-quantity diagnostics: energy and angular momentum.
//!
//! Energies use each particle's *current individual state*; for strict
//! conservation checks, synchronize the system first (all particles at a
//! common time) or evaluate at block boundaries where the active set was
//! just corrected.
//!
//! # Two estimators of the pair energy
//!
//! * **The engine's potentials** — ½ Σ mᵢ·potᵢ over [`ParticleSystem::pot`],
//!   O(N). Every [`crate::engine::ForceEngine`] returns the potential beside
//!   force and jerk with the self term excluded (GRAPE-6's pipelines do the
//!   same, Makino et al. 2003), so right after the initialisation sweep the
//!   sum is already on the host. [`EnergyLedger::from_sweep`] reads it, and it
//!   is what the product path (`grape6_sim::Simulation::new` and everything
//!   built on it) opens its ledger with: set-up is one full-N sweep plus O(N).
//! * **The host pair sum** — [`pairwise_potential_energy`], −Σ_{i<j} mᵢmⱼ/r,
//!   O(N²) in f64. [`EnergyLedger::open`] uses it; it needs no engine, so it
//!   is the only way to open a ledger on a system no engine has swept, and it
//!   is the exact oracle the first estimator is tested against. Later checks
//!   ([`EnergyLedger::synchronized_errors`]) still use it.
//!
//! A reported `energy_error` therefore carries the constant offset
//! `|½ Σ mᵢ(potᵢ − potᵢ^pair)| / |E₀|` between the two. On
//! `DiskBuilder::paper(n)`, n = 256 … 4096:
//!
//! | engine | offset of `e0` |
//! |---|---|
//! | `DirectEngine` | 0 (bit-equal) |
//! | `HybridTreeEngine::new(0.0, 1.0)` | 0 (bit-equal) |
//! | `Grape6Engine` (single host) | 1.0–1.3 × 10⁻¹⁰ (reduced-mantissa potentials) |
//! | `HybridTreeEngine::new(0.5, 1.0)` | 0.5–2.1 × 10⁻⁷ (tree potential error × pair share of E) |
//!
//! Reproduce with `cargo test --release --test energy_ledger -- --ignored
//! --nocapture`.

use crate::central::central_potential;
use crate::integrator::BlockHermite;
use crate::particle::ParticleSystem;
use crate::vec3::Vec3;
use rayon::prelude::*;

fn kinetic_of(vel: &[Vec3], mass: &[f64]) -> f64 {
    vel.iter().zip(mass).map(|(&v, &m)| 0.5 * m * v.norm2()).sum()
}

fn pair_sum(pos: &[Vec3], mass: &[f64], eps2: f64) -> f64 {
    let n = pos.len();
    (0..n)
        .into_par_iter()
        .map(|i| {
            let mut acc = 0.0;
            for j in (i + 1)..n {
                let r2 = pos[i].distance2(pos[j]) + eps2;
                acc -= mass[i] * mass[j] / r2.sqrt();
            }
            acc
        })
        .sum()
}

fn central_of(pos: &[Vec3], mass: &[f64], central_mass: f64) -> f64 {
    if central_mass == 0.0 {
        return 0.0;
    }
    pos.iter().zip(mass).map(|(&p, &m)| m * central_potential(central_mass, p)).sum()
}

fn angular_of(pos: &[Vec3], vel: &[Vec3], mass: &[f64]) -> Vec3 {
    pos.iter().zip(vel).zip(mass).map(|((&p, &v), &m)| p.cross(v) * m).sum()
}

/// Total energy of `sys`'s masses placed at `(pos, vel)`.
fn energy_of(sys: &ParticleSystem, pos: &[Vec3], vel: &[Vec3]) -> f64 {
    kinetic_of(vel, &sys.mass)
        + pair_sum(pos, &sys.mass, sys.softening * sys.softening)
        + central_of(pos, &sys.mass, sys.central_mass)
}

/// Kinetic energy ½ Σ m v².
pub fn kinetic_energy(sys: &ParticleSystem) -> f64 {
    kinetic_of(&sys.vel, &sys.mass)
}

/// Softened pairwise potential energy −Σ_{i<j} m_i m_j / √(r² + ε²).
pub fn pairwise_potential_energy(sys: &ParticleSystem) -> f64 {
    pair_sum(&sys.pos, &sys.mass, sys.softening * sys.softening)
}

/// Potential energy of all particles in the central (Solar) field.
pub fn central_potential_energy(sys: &ParticleSystem) -> f64 {
    central_of(&sys.pos, &sys.mass, sys.central_mass)
}

/// Total energy: kinetic + pairwise + central.
pub fn total_energy(sys: &ParticleSystem) -> f64 {
    energy_of(sys, &sys.pos, &sys.vel)
}

/// Total angular momentum Σ m (r × v) about the origin (the Sun).
pub fn angular_momentum(sys: &ParticleSystem) -> Vec3 {
    angular_of(&sys.pos, &sys.vel, &sys.mass)
}

/// Total energy with every particle first predicted to the common time `t`.
///
/// Under individual timesteps the raw arrays hold states at *different*
/// times; measuring energy on them mixes epochs and can dwarf the true
/// integration error. This predicts all particles to `t` (interpolation
/// error is at the scheme's order, far below the drift being measured).
pub fn synchronized_total_energy(sys: &ParticleSystem, t: f64) -> f64 {
    let (pos, vel) = BlockHermite::synchronized_state(sys, t);
    energy_of(sys, &pos, &vel)
}

/// Angular momentum with every particle predicted to the common time `t`.
pub fn synchronized_angular_momentum(sys: &ParticleSystem, t: f64) -> Vec3 {
    let (pos, vel) = BlockHermite::synchronized_state(sys, t);
    angular_of(&pos, &vel, &sys.mass)
}

/// |now − reference|, relative to the reference unless that is zero.
fn drift(now: f64, reference: f64) -> f64 {
    if reference == 0.0 {
        (now - reference).abs()
    } else {
        ((now - reference) / reference).abs()
    }
}

/// Energy bookkeeping for drift monitoring over a run.
#[derive(Debug, Clone, Copy)]
pub struct EnergyLedger {
    /// Energy at the reference epoch.
    pub e0: f64,
    /// |L| at the reference epoch.
    pub l0: f64,
}

impl EnergyLedger {
    /// Open a ledger at the system's current state with the exact O(N²) host
    /// pair sum. Needs no engine; the oracle for [`Self::from_sweep`].
    pub fn open(sys: &ParticleSystem) -> Self {
        Self { e0: total_energy(sys), l0: angular_momentum(sys).norm() }
    }

    /// Open a ledger in O(N) from the potentials a full-N force pass left in
    /// [`ParticleSystem::pot`]: `e0 = kinetic + ½ Σ mᵢ·potᵢ + central`, `l0`
    /// as [`Self::open`]. The sums are sequential, so the value does not
    /// depend on the thread count.
    ///
    /// Precondition: every `time[i] == sys.t`, and `pot` was filled by a
    /// full-N force pass at that time — the state `BlockHermite::initialize`
    /// leaves. Checked by a `debug_assert!`.
    pub fn from_sweep(sys: &ParticleSystem) -> Self {
        debug_assert!(
            sys.time.iter().all(|&ti| ti == sys.t),
            "EnergyLedger::from_sweep needs every time[i] == sys.t with pot filled by a full-N \
             force pass at that time"
        );
        let pair = 0.5 * sys.mass.iter().zip(&sys.pot).map(|(&m, &p)| m * p).sum::<f64>();
        Self {
            e0: kinetic_energy(sys) + pair + central_potential_energy(sys),
            l0: angular_momentum(sys).norm(),
        }
    }

    /// Relative energy drift measured on states synchronized to time `t`
    /// (the honest measurement under individual timesteps; see
    /// [`synchronized_total_energy`]).
    pub fn synchronized_energy_error(&self, sys: &ParticleSystem, t: f64) -> f64 {
        drift(synchronized_total_energy(sys, t), self.e0)
    }

    /// Relative angular-momentum drift on synchronized states.
    pub fn synchronized_l_error(&self, sys: &ParticleSystem, t: f64) -> f64 {
        drift(synchronized_angular_momentum(sys, t).norm(), self.l0)
    }

    /// `(synchronized_energy_error, synchronized_l_error)` from one
    /// prediction of the system to time `t`.
    pub fn synchronized_errors(&self, sys: &ParticleSystem, t: f64) -> (f64, f64) {
        let (pos, vel) = BlockHermite::synchronized_state(sys, t);
        (
            drift(energy_of(sys, &pos, &vel), self.e0),
            drift(angular_of(&pos, &vel, &sys.mass).norm(), self.l0),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinetic_energy_of_single_particle() {
        let mut s = ParticleSystem::new(0.0, 0.0);
        s.push(Vec3::zero(), Vec3::new(3.0, 4.0, 0.0), 2.0);
        assert!((kinetic_energy(&s) - 25.0).abs() < 1e-15); // ½·2·25
    }

    #[test]
    fn pairwise_potential_of_unit_pair() {
        let mut s = ParticleSystem::new(0.0, 0.0);
        s.push(Vec3::zero(), Vec3::zero(), 1.0);
        s.push(Vec3::new(2.0, 0.0, 0.0), Vec3::zero(), 1.0);
        assert!((pairwise_potential_energy(&s) + 0.5).abs() < 1e-15);
    }

    #[test]
    fn softening_weakens_potential() {
        let mut s = ParticleSystem::new(0.0, 0.0);
        s.push(Vec3::zero(), Vec3::zero(), 1.0);
        s.push(Vec3::new(1.0, 0.0, 0.0), Vec3::zero(), 1.0);
        let hard = pairwise_potential_energy(&s);
        s.softening = 1.0;
        let soft = pairwise_potential_energy(&s);
        assert!(soft > hard); // less negative
        assert!((soft + 1.0 / 2.0f64.sqrt()).abs() < 1e-15);
    }

    #[test]
    fn central_energy_zero_without_central_mass() {
        let mut s = ParticleSystem::new(0.0, 0.0);
        s.push(Vec3::new(1.0, 0.0, 0.0), Vec3::zero(), 1.0);
        assert_eq!(central_potential_energy(&s), 0.0);
        s.central_mass = 1.0;
        assert!((central_potential_energy(&s) + 1.0).abs() < 1e-15);
    }

    #[test]
    fn circular_heliocentric_energy_is_minus_half_gm_over_r() {
        let mut s = ParticleSystem::new(0.0, 1.0);
        let r = 20.0;
        s.push(
            Vec3::new(r, 0.0, 0.0),
            Vec3::new(0.0, crate::units::circular_speed(r, 1.0), 0.0),
            1.0,
        );
        assert!((total_energy(&s) + 0.5 / r).abs() < 1e-15);
    }

    #[test]
    fn angular_momentum_of_circular_orbit() {
        let mut s = ParticleSystem::new(0.0, 1.0);
        let r = 4.0;
        let v = crate::units::circular_speed(r, 1.0);
        s.push(Vec3::new(r, 0.0, 0.0), Vec3::new(0.0, v, 0.0), 2.0);
        let l = angular_momentum(&s);
        assert!((l.z - 2.0 * r * v).abs() < 1e-14);
        assert_eq!(l.x, 0.0);
        assert_eq!(l.y, 0.0);
    }

    #[test]
    fn synchronized_energy_matches_plain_when_synced() {
        let mut s = ParticleSystem::new(0.0, 1.0);
        s.push(Vec3::new(1.0, 0.0, 0.0), Vec3::new(0.0, 1.0, 0.0), 1e-3);
        s.push(Vec3::new(-2.0, 0.0, 0.0), Vec3::new(0.0, -0.7, 0.0), 1e-3);
        assert_eq!(synchronized_total_energy(&s, 0.0), total_energy(&s));
    }

    #[test]
    fn synchronized_energy_corrects_stale_states() {
        // One particle stored at an older time: plain energy mixes epochs,
        // synchronized energy agrees with the prediction at t.
        let mut s = ParticleSystem::new(0.0, 1.0);
        s.push(Vec3::new(10.0, 0.0, 0.0), Vec3::new(0.1, 0.0, 0.0), 0.0);
        s.t = 2.0;
        s.time[0] = 0.0; // stale by 2 time units; drifts to x = 10.2
        let e_sync = synchronized_total_energy(&s, 2.0);
        let expect = -1.0 / 10.2; // massless particle in central field, KE scaled by m = 0
        assert!((e_sync - 0.0 * expect).abs() < 1e-15 || e_sync.abs() < 1e-15);
        // With mass:
        s.mass[0] = 1.0;
        let e_sync = synchronized_total_energy(&s, 2.0);
        assert!((e_sync - (0.5 * 0.01 - 1.0 / 10.2)).abs() < 1e-12);
        assert!((total_energy(&s) - (0.5 * 0.01 - 0.1)).abs() < 1e-12); // stale x = 10
    }

    #[test]
    fn synchronized_errors_are_bitwise_those_of_a_hand_synchronised_clone() {
        // A stepped system holds stale `time[i]`; one prediction must feed
        // energy and L the values the clone-and-overwrite route produced.
        use crate::force::DirectEngine;
        use crate::integrator::HermiteConfig;
        let mut s = ParticleSystem::new(0.01, 1.0);
        for k in 0..24 {
            let r = 0.1 * 1.4f64.powi(k); // orbital periods over 5 decades → many dt rungs
            let (sin, cos) = (0.9 * k as f64).sin_cos();
            let v = crate::units::circular_speed(r, 1.0);
            s.push(Vec3::new(r * cos, r * sin, 0.01 * r), Vec3::new(-v * sin, v * cos, 0.0), 1e-6);
        }
        let mut engine = DirectEngine::new();
        let mut integ = BlockHermite::new(HermiteConfig::default());
        integ.initialize(&mut s, &mut engine);
        let ledger = EnergyLedger::from_sweep(&s);
        for _ in 0..41 {
            integ.step(&mut s, &mut engine);
        }
        assert!(s.time.iter().any(|&ti| ti != s.t), "needs stale particles");

        let mut synced = s.clone();
        for i in 0..s.len() {
            (synced.pos[i], synced.vel[i]) = s.predict(i, s.t);
        }
        let (de, dl) = ledger.synchronized_errors(&s, s.t);
        assert_eq!(de.to_bits(), drift(total_energy(&synced), ledger.e0).to_bits());
        assert_eq!(dl.to_bits(), drift(angular_momentum(&synced).norm(), ledger.l0).to_bits());
        assert_eq!(de.to_bits(), ledger.synchronized_energy_error(&s, s.t).to_bits());
        assert_eq!(dl.to_bits(), ledger.synchronized_l_error(&s, s.t).to_bits());
        assert_eq!(
            synchronized_angular_momentum(&s, s.t),
            (0..s.len()).fold(Vec3::zero(), |l, i| {
                let (p, v) = s.predict(i, s.t);
                l + p.cross(v) * s.mass[i]
            })
        );
    }

    #[test]
    fn ledger_reports_zero_drift_initially() {
        let mut s = ParticleSystem::new(0.0, 1.0);
        s.push(Vec3::new(1.0, 0.0, 0.0), Vec3::new(0.0, 1.0, 0.0), 1.0);
        let ledger = EnergyLedger::open(&s);
        assert_eq!(ledger.synchronized_energy_error(&s, s.t), 0.0);
        assert_eq!(ledger.synchronized_l_error(&s, s.t), 0.0);
    }

    #[test]
    fn ledger_detects_perturbation() {
        let mut s = ParticleSystem::new(0.0, 1.0);
        s.push(Vec3::new(1.0, 0.0, 0.0), Vec3::new(0.0, 1.0, 0.0), 1.0);
        let ledger = EnergyLedger::open(&s);
        s.vel[0] *= 1.1;
        assert!(ledger.synchronized_energy_error(&s, s.t) > 0.01);
    }
}
