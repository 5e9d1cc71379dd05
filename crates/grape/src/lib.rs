//! # grape6-hw
//!
//! A functional + timing simulator of the **GRAPE-6** special-purpose
//! computer (Makino et al., SC2002). The real machine — 2048 custom pipeline
//! chips on 64 processor boards behind 16 Linux hosts, 63.4 Tflops peak — is
//! unobtainable; this crate reproduces:
//!
//! * its **arithmetic** (`format`, [`pipeline`], [`predictor`]):
//!   fixed-point positions, short-mantissa pipeline words, exactly
//!   associative fixed-point force accumulation;
//! * its **organization** ([`chip`], [`board`], [`network`], [`link`]):
//!   6 pipelines × 8 virtual per chip, 32 chips per board, network-board
//!   trees with broadcast / 2-way multicast / point-to-point modes, 90 MB/s
//!   LVDS links, PCI host interface, Gigabit Ethernet between clusters;
//! * its **performance** ([`timing`], [`perf`]): an analytic per-blockstep
//!   cost model calibrated to the paper's stated clock rates and bandwidths,
//!   producing the Gordon Bell Tflops accounting of §6;
//! * the **parallelization argument** of §4.3 ([`parallel_models`]): why the
//!   naive multi-host layout cannot scale and the NB tree / 2-D grid can.
//!
//! [`engine::Grape6Engine`] packages all of this as a
//! [`grape6_core::engine::ForceEngine`], so the same block-timestep Hermite
//! host code drives either the CPU reference or the simulated hardware. Its
//! j-memory has one write port ([`engine::Grape6Engine::write_j`], the
//! library's `g6_set_j_particle`): `load` and `update_j` are host-side encode
//! loops over it, and so is the engine layered on it, the dual-modular
//! [`fault_engine::FaultTolerantEngine`]. The fully-routed data paths —
//! every packet over the wire protocol and the board structure — are one
//! engine too, [`cluster_engine::ClusterEngine`]: one j-memory per host,
//! each a mirror of every j-particle that every write-back packet lands in,
//! dealt over the node's boards and chips; each chip sweeps its slice and
//! the reduction tree sums the partial forces. One host is the routed node,
//! four the production cluster, both bit-identical to the flat engine.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
pub mod board;
pub mod chip;
pub mod cluster_engine;
pub mod engine;
pub mod fault;
pub mod fault_engine;
pub mod format;
pub mod lanes;
pub mod link;
pub mod network;
pub mod parallel_models;
pub mod perf;
pub mod pipeline;
pub mod predictor;
pub mod timing;
pub mod wire;

pub use board::BoardGeometry;
pub use chip::{ChipGeometry, HwIParticle};
pub use cluster_engine::ClusterEngine;
pub use engine::{Grape6Config, Grape6Engine, ScalarGrape6Engine};
pub use fault::{FaultEvent, FaultInjector, FaultKind, FaultPlan};
pub use fault_engine::FaultTolerantEngine;
pub use format::{FixedPointFormat, Precision};
pub use lanes::{GrapeJLanes, GrapeLaneTile, SweepPartial};
pub use link::Link;
pub use network::{NetworkMode, NetworkTree};
pub use parallel_models::{ParallelModel, Strategy};
pub use perf::{HardwareClock, PerfReport};
pub use timing::{MachineGeometry, StepBreakdown, TimingModel};
