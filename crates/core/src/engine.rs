//! The force-engine abstraction: the seam between the host computer and the
//! GRAPE hardware (paper Fig 1).
//!
//! The host ships predicted i-particles down, the engine returns
//! accelerations, jerks and potentials computed against its resident
//! j-particle memory. Implementations:
//!
//! * [`crate::force::DirectEngine`] — CPU direct summation (reference),
//! * `grape6_hw::Grape6Engine` — the functional + timing GRAPE-6 simulator;
//!   around it the routed `ClusterEngine` (one mirrored j-memory per host: one
//!   host is the routed node, four the production cluster) and the DMR
//!   `FaultTolerantEngine`, which
//!   writes j-memory through the flat engine's one write port,
//! * `grape6_tree::HybridTreeEngine` — octree far field + exact near field
//!   for blocks large enough to pay for a tree build, the direct engine's
//!   small-block sweep below; at a zero neighbour radius it is the
//!   Barnes-Hut baseline the paper argues against in §3.
//!
//! The f64 engines share one j-particle store and predictor,
//! [`crate::jmem::JMemory`]. Scalar reference kernels
//! ([`crate::force::ScalarDirectEngine`], `grape6_hw::ScalarGrape6Engine`)
//! are test oracles: types a test names, never a value a run can select.

use crate::particle::{ForceResult, IParticle, ParticleSystem};
use serde::{Deserialize, Serialize};

/// Fault-tolerance counters an engine accumulates over a run. Engines
/// without a fault model report all zeros. Every count is exact integer
/// work accounting — deterministic for a given fault plan, independent of
/// host thread count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultStats {
    /// Faults injected into the engine (memory upsets, link flips, dead
    /// boards).
    #[serde(default)]
    pub injected: u64,
    /// Force blocks on which dual-modular redundancy caught a bitwise
    /// disagreement between the two units.
    #[serde(default)]
    pub dmr_mismatches: u64,
    /// Wire packets rejected by their per-packet checksum.
    #[serde(default)]
    pub checksum_errors: u64,
    /// Block recomputations forced by a detected fault (each one re-charges
    /// the modeled hardware clock — the throughput lost to recovery).
    #[serde(default)]
    pub retries: u64,
    /// Memory-scrub passes run against the host's authoritative copy.
    #[serde(default)]
    pub scrubs: u64,
    /// j-memory words a scrub pass found corrupted and rewrote.
    #[serde(default)]
    pub words_scrubbed: u64,
    /// Processor boards permanently lost (the timing model is repartitioned
    /// around each, charging the lost throughput for the rest of the run).
    #[serde(default)]
    pub boards_failed: u64,
}

impl FaultStats {
    /// True when no fault activity of any kind was recorded.
    pub fn is_zero(&self) -> bool {
        *self == Self::default()
    }

    /// Faults detected by either mechanism (DMR or packet checksum).
    pub fn detected(&self) -> u64 {
        self.dmr_mismatches + self.checksum_errors
    }
}

/// Work counters a tree-walking engine accumulates over a run. Exact
/// integer accounting — deterministic for a given particle history,
/// independent of host thread count (walks are pure per-i functions and the
/// counters are associative sums).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TreeWork {
    /// Octrees built (one per distinct force time, under individual
    /// timesteps typically one per block step).
    #[serde(default)]
    pub builds: u64,
    /// Internal cells opened (recursed into) across all walks.
    #[serde(default)]
    pub cells_opened: u64,
    /// Pairwise interactions summed directly at full precision from the
    /// radius-based near-field neighbour lists (self terms included, by the
    /// hardware convention).
    #[serde(default)]
    pub near_interactions: u64,
    /// Far-field interactions against accepted cells and leaf bodies beyond
    /// the neighbour radius.
    #[serde(default)]
    pub far_interactions: u64,
    /// Interaction-list entries emitted, summed over every walk (near + far;
    /// `/ lists_emitted` gives the mean GRAPE list length).
    #[serde(default)]
    pub list_len_sum: u64,
    /// Longest single interaction list (near + far) emitted by any walk.
    #[serde(default)]
    pub list_len_max: u64,
    /// Walks performed (one per i-particle per force call).
    #[serde(default)]
    pub lists_emitted: u64,
    /// Tree walks actually performed. Under Barnes' modified algorithm one
    /// walk emits the list a whole group of i-particles shares, so this
    /// counts the groups with an active member, summed over force calls,
    /// while `lists_emitted` keeps counting lists served (one per i).
    #[serde(default)]
    pub walks: u64,
}

impl TreeWork {
    /// True when no tree work of any kind was recorded.
    pub fn is_zero(&self) -> bool {
        *self == Self::default()
    }

    /// Fold another accumulator in (exact integer sums; `list_len_max` takes
    /// the maximum).
    pub fn merge(&mut self, other: &Self) {
        self.builds += other.builds;
        self.cells_opened += other.cells_opened;
        self.near_interactions += other.near_interactions;
        self.far_interactions += other.far_interactions;
        self.list_len_sum += other.list_len_sum;
        self.list_len_max = self.list_len_max.max(other.list_len_max);
        self.lists_emitted += other.lists_emitted;
        self.walks += other.walks;
    }
}

/// A device that computes softened gravity (and its time derivative) on
/// request, holding its own mirror of the particle data.
pub trait ForceEngine {
    /// (Re)load the complete particle set into the engine's j-memory.
    ///
    /// In hardware this is the initial DMA of all particle data to the
    /// SSRAM banks of every processor chip.
    fn load(&mut self, sys: &ParticleSystem);

    /// Refresh the j-memory entries for the given (just-corrected)
    /// particles. In hardware this is the per-blockstep write-back of the
    /// active block over the host interface / network boards.
    fn update_j(&mut self, sys: &ParticleSystem, indices: &[usize]);

    /// Compute force, jerk and potential on each i-particle at time `t`.
    /// The engine predicts its j-particles to `t` internally (the GRAPE-6
    /// predictor pipeline).
    ///
    /// Contract: `out.len() == ips.len()`, and **every element of `out` is
    /// overwritten** — acc, jerk, pot and `nn` alike — so the result never
    /// depends on what `out` held before. The integrator relies on it to
    /// reuse its result buffer without clearing it.
    fn compute(&mut self, t: f64, ips: &[IParticle], out: &mut [ForceResult]);

    /// Total pairwise interactions evaluated since the last reset, counted
    /// with the hardware convention (`n_i × n_j` per call, self term
    /// included).
    fn interaction_count(&self) -> u64;

    /// Reset the interaction counter (and any other statistics).
    fn reset_counters(&mut self) {}

    /// Total bytes moved across the modeled host↔hardware wire since the
    /// last reset (i-particle uploads, force downloads, j-memory writes).
    /// Engines with no wire (CPU, tree) report 0.
    fn bytes_transferred(&self) -> u64 {
        0
    }

    /// Modeled machine seconds accumulated since the last clock reset.
    /// Engines without a timing model (CPU, tree) report 0.
    fn modeled_seconds(&self) -> f64 {
        0.0
    }

    /// Fault-tolerance counters accumulated since the engine was created.
    /// Engines without a fault model report [`FaultStats::default`].
    fn fault_stats(&self) -> FaultStats {
        FaultStats::default()
    }

    /// Tree-walk work counters accumulated since the last reset. Engines
    /// that never build a tree report `None`.
    fn tree_work(&self) -> Option<TreeWork> {
        None
    }

    /// Opaque engine state a checkpoint must carry to make a resumed run
    /// bit-identical to an uninterrupted one: accumulated clocks and
    /// counters that `load` alone cannot reconstruct. Engines whose entire
    /// state is rebuilt by `load` return an empty vector.
    fn checkpoint_state(&self) -> Vec<u8> {
        Vec::new()
    }

    /// Restore state produced by [`Self::checkpoint_state`]. Called *after*
    /// `load` on resume, so counters charged by the reload are overwritten
    /// with the checkpointed values.
    fn restore_checkpoint_state(&mut self, state: &[u8]) -> Result<(), String> {
        if state.is_empty() {
            Ok(())
        } else {
            Err(format!("engine '{}' cannot restore checkpoint state", self.name()))
        }
    }

    /// Short human-readable engine name.
    fn name(&self) -> &'static str;
}
