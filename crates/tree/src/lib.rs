//! # grape6-tree
//!
//! A Barnes-Hut octree gravity code — the O(N log N) alternative the paper's
//! §3 examines and rejects for the planetesimal problem ("it is very
//! difficult to achieve high efficiency with these algorithms when the
//! timesteps of particles vary widely"). Built to quantify that argument:
//! experiment E5 compares its cost and accuracy against direct summation
//! under both shared and individual timesteps.
//!
//! One engine, [`HybridTreeEngine`]: octree far field as GRAPE-shaped
//! interaction lists plus an exact near field inside a neighbour radius, one
//! list pair per group of neighbouring i-particles (Barnes' modified
//! algorithm). The §3 baseline is its zero-radius limit,
//! `HybridTreeEngine::new(θ, 0.0)`; the fused [`Octree::force_on`] walk is
//! the oracle of the list walks. The crucial (and intentional) inefficiency: the tree is rebuilt from predicted
//! positions whenever forces are needed at a new time. Under shared
//! timesteps the O(N log N) build amortizes over N force evaluations; under
//! *individual* timesteps a block of a few dozen particles pays the same
//! build — exactly why the paper uses direct summation on special hardware.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
pub mod hybrid;
pub mod octree;

pub use hybrid::HybridTreeEngine;
pub use octree::{InteractionLists, Octree, TreeForce};
