//! # grape6 — umbrella crate
//!
//! A full reproduction of the SC2002 Gordon Bell entry *"A 29.5 Tflops
//! simulation of planetesimals in Uranus-Neptune region on GRAPE-6"*
//! (Makino, Kokubo, Fukushige & Daisaka): the block individual-timestep
//! Hermite N-body code, a functional + timing simulator of the GRAPE-6
//! special-purpose computer, the Uranus-Neptune planetesimal disk, and the
//! baselines the paper argues against.
//!
//! This crate re-exports the workspace members:
//!
//! * [`core`] (`grape6-core`) — integrator, forces, scheduler, Kepler tools;
//! * [`hw`] (`grape6-hw`) — the GRAPE-6 hardware simulator;
//! * [`disk`] (`grape6-disk`) — initial conditions and disk analysis;
//! * [`tree`] (`grape6-tree`) — the octree engine (hybrid tree + direct; Barnes-Hut
//!   baseline at a zero neighbour radius);
//! * [`sim`] (`grape6-sim`) — the simulation driver and I/O.
//!
//! ## Quickstart
//!
//! ```
//! use grape6::prelude::*;
//!
//! // A scaled-down Uranus-Neptune disk: 128 planetesimals + 2 protoplanets.
//! let system = DiskBuilder::paper(128).build();
//!
//! // Drive it with the simulated GRAPE-6 and the block Hermite integrator.
//! let engine = Grape6Engine::sc2002();
//! let mut sim = Simulation::new(system, HermiteConfig::default(), engine);
//! sim.run_to(0.5, 0.0);
//!
//! // Gordon Bell accounting for the modeled hardware.
//! let report = sim.engine.perf_report();
//! assert!(report.tflops() > 0.0);
//! ```

#![forbid(unsafe_code)]
pub use grape6_core as core;
pub use grape6_disk as disk;
pub use grape6_hw as hw;
pub use grape6_sim as sim;
pub use grape6_tree as tree;

/// The types most applications need, re-exported flat.
pub mod prelude {
    pub use grape6_core::prelude::*;
    pub use grape6_disk::{
        DiskBuilder, DiskSnapshot, PowerLawMass, Protoplanet, RadialHistogram, RadialProfile,
        ScatteringCensus,
    };
    pub use grape6_hw::{
        ClusterEngine, FaultPlan, FaultTolerantEngine, FixedPointFormat, Grape6Config,
        Grape6Engine, MachineGeometry, PerfReport, Precision, TimingModel,
    };
    pub use grape6_sim::{
        decode_checkpoint, encode_checkpoint, load_checkpoint, run_ensemble, save_checkpoint,
        AccretionLog, RadiusModel, Simulation, TimestepHistogram,
    };
    pub use grape6_tree::HybridTreeEngine;
}
