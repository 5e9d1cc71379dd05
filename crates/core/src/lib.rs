//! # grape6-core
//!
//! The host-side N-body machinery of the SC2002 Gordon Bell entry
//! *"A 29.5 Tflops simulation of planetesimals in Uranus-Neptune region on
//! GRAPE-6"* (Makino, Kokubo, Fukushige & Daisaka):
//!
//! * direct-summation softened gravity with analytic jerk ([`force`]) over
//!   the one host j-particle memory and predictor ([`jmem`]),
//! * the 4th-order Hermite predictor/corrector ([`hermite`]),
//! * the block individual-timestep algorithm ([`blockstep`], [`integrator`]),
//! * the Sun as an external potential ([`central`]),
//! * Kepler-element machinery ([`kepler`]) and diagnostics ([`energy`]),
//! * the one bounds-checked reader of checkpoint and snapshot bytes
//!   ([`fields`]),
//! * a shared-timestep baseline ([`shared_step`]) for the paper's §3
//!   algorithmic comparison,
//! * the [`engine::ForceEngine`] seam along which the GRAPE-6 hardware
//!   simulator (crate `grape6-hw`) and the Barnes-Hut baseline (crate
//!   `grape6-tree`) plug in.
//!
//! Units follow the paper (§2): G = M_sun = AU = 1, so one year is 2π time
//! units ([`units`]).
//!
//! ## Quick example
//!
//! ```
//! use grape6_core::prelude::*;
//!
//! // A Sun-orbiting test particle at 20 AU plus a tiny perturber.
//! let mut sys = ParticleSystem::new(0.0, 1.0);
//! sys.push(Vec3::new(20.0, 0.0, 0.0),
//!          Vec3::new(0.0, units::circular_speed(20.0, 1.0), 0.0), 1e-10);
//! sys.push(Vec3::new(0.0, 25.0, 0.0),
//!          Vec3::new(-units::circular_speed(25.0, 1.0), 0.0, 0.0), 1e-10);
//!
//! let mut engine = DirectEngine::new();
//! let mut integ = BlockHermite::new(HermiteConfig::default());
//! integ.initialize(&mut sys, &mut engine);
//! integ.evolve(&mut sys, &mut engine, 1.0);
//! assert!(sys.t >= 1.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
pub mod blockstep;
pub mod central;
pub mod energy;
pub mod engine;
pub mod fields;
pub mod force;
pub mod hermite;
pub mod integrator;
pub mod jmem;
pub mod kepler;
pub mod lanes;
pub mod observer;
pub mod particle;
pub mod shared_step;
pub mod sweep;
pub mod units;
pub mod vec3;

/// Convenient re-exports of the types most programs need.
pub mod prelude {
    pub use crate::energy::{total_energy, EnergyLedger};
    pub use crate::engine::{FaultStats, ForceEngine};
    pub use crate::force::DirectEngine;
    pub use crate::integrator::{BlockHermite, BlockStepInfo, HermiteConfig, RunStats};
    pub use crate::kepler::{elements_to_state, state_to_elements, Elements};
    pub use crate::observer::{HostPhase, StepObserver};
    pub use crate::particle::{ForceResult, IParticle, ParticleSystem};
    pub use crate::shared_step::SharedHermite;
    pub use crate::units;
    pub use crate::vec3::Vec3;
}

pub use prelude::*;
