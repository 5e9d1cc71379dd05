//! # grape6-disk
//!
//! Initial conditions and analysis for the Uranus-Neptune planetesimal
//! system of paper §2: a ring of 15–35 AU with surface density Σ ∝ r^-1.5,
//! planetesimal masses drawn from N(m) dm ∝ m^-2.5, two protoplanets on
//! circular orbits at 20 and 30 AU, and 0.008 AU softening.
//!
//! * [`massfn`] — the truncated power-law mass function,
//! * [`profile`] — the radial surface-density profile,
//! * [`builder`] — assembly of a [`grape6_core::particle::ParticleSystem`],
//! * [`analysis`] — surface-density histograms, the Fig 13 gap detector,
//!   excitation profiles, and the scattering census.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
pub mod analysis;
pub mod builder;
pub mod massfn;
pub mod profile;

pub use analysis::{tisserand, DiskSnapshot, MassSpectrum, RadialHistogram, ScatteringCensus};
pub use builder::{DiskBuilder, Protoplanet};
pub use massfn::PowerLawMass;
pub use profile::RadialProfile;
