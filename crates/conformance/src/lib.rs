//! # grape6-conformance
//!
//! Differential conformance harness for the GRAPE-6 force engines.
//!
//! The paper's whole argument rests on the reduced-precision pipelines
//! (§5.2: 64-bit fixed-point positions, short-mantissa floats, wide
//! fixed-point accumulation) being "good enough" for the Hermite block-
//! timestep integrator. This crate turns that claim into a fuzzable
//! contract:
//!
//! * [`scenario`] — a deterministic seeded generator of stressy particle
//!   sets (extreme mass ratios, near-collisions inside the softening
//!   length, commensurate block times, tiny and large N, disk slices via
//!   `grape6-disk`), each serializable to JSON;
//! * [`oracle`] — per-particle force/jerk/potential tolerances derived
//!   from the *actual* bit widths in `grape6_hw::format` (half-ulp
//!   pipeline rounding, fixed-point position quantization, accumulator
//!   quanta), not from hand-tuned epsilons;
//! * [`runner`] — drives the same scenario through `DirectEngine`,
//!   `Grape6Engine` (hardware and exact arithmetic), `ClusterEngine` (one
//!   host — the routed node of the `*node*` checks — and four hosts with
//!   mirrored j-memories) and
//!   `FaultTolerantEngine`, comparing forces against
//!   the oracle and requiring **bitwise** equality wherever the
//!   determinism contract promises it (routed-vs-flat, cluster-vs-flat,
//!   FT-vs-plain, thread counts, small-vs-large block paths);
//! * [`metamorphic`] — invariants checked per scenario: particle
//!   permutation, 90° frame rotation, translation, power-of-two mass
//!   rescaling, `RAYON_NUM_THREADS` invariance;
//! * [`mod@shrink`] — a greedy minimizer that drops particles and rounds
//!   values while a failure reproduces, writing repro JSON for the
//!   checked-in `conformance/corpus/` regression suite;
//! * [`broken`] — an intentionally broken kernel (dev-only flag) proving
//!   the harness catches and minimizes real bugs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod broken;
pub mod corpus;
pub mod metamorphic;
pub mod oracle;
pub mod runner;
pub mod scenario;
pub mod shrink;

pub use oracle::{Oracle, Tolerances};
pub use runner::{run_check, run_scenario, CheckFailure, ALL_CHECKS};
pub use scenario::{generate, Scenario, ScenarioKind};
pub use shrink::shrink;
