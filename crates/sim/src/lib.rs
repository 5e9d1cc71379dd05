//! # grape6-sim
//!
//! The top-level simulation driver: wires the planetesimal disk
//! (`grape6-disk`), the block-timestep Hermite integrator (`grape6-core`)
//! and a force engine (CPU reference, GRAPE-6 simulator from `grape6-hw`, or
//! the Barnes-Hut baseline) into runnable experiments, with diagnostics,
//! run statistics and snapshot I/O.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
pub mod accretion;
pub mod checkpoint;
pub mod cli;
pub mod encounters;
pub mod ensemble;
pub mod io;
pub mod simulation;
pub mod stats;
pub mod telemetry;

pub use accretion::{AccretionLog, MergerEvent, RadiusModel};
pub use checkpoint::{
    decode_checkpoint, encode_checkpoint, load_checkpoint, run_to_with_checkpoints,
    save_checkpoint, CHECKPOINT_MAGIC, CHECKPOINT_VERSION,
};
pub use encounters::{Encounter, EncounterLog};
pub use ensemble::{run_ensemble, EnsembleMember};
pub use io::{
    load_auto, load_binary_snapshot, load_snapshot, save_auto, save_binary_snapshot,
    save_diagnostics_csv, save_snapshot, Snapshot,
};
pub use simulation::{DiagnosticRow, Simulation};
pub use stats::{BlockSizeHistogram, TimestepHistogram};
pub use telemetry::{PhaseCalls, PhaseSeconds, Telemetry, TelemetryReport};
