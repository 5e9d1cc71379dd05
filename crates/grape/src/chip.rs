//! The GRAPE-6 processor chip (paper §5.2, Fig 9): six force pipelines, one
//! predictor pipeline, memory interface and network interface on one custom
//! LSI, clocked at 90 MHz.
//!
//! Each physical force pipeline serves eight *virtual* pipelines (i-particle
//! register sets), so a chip works on up to 48 i-particles per sweep of its
//! j-memory while fetching each j-particle only once every eight cycles —
//! the trick that keeps the SSRAM bandwidth requirement feasible.
//!
//! This module holds the chip's geometry and cycle count, the hardware
//! i-particle word and the j-memory write errors. A chip's sweep of its j-slice
//! (predictor pipeline, then the force pipelines, j as the outer loop) is
//! part of [`crate::cluster_engine::ClusterEngine`]; its cost,
//! [`ChipGeometry::compute_cycles`], is charged by
//! [`crate::timing::TimingModel`].

use crate::format::{FixedPointFormat, Precision};
use grape6_core::vec3::Vec3;
use serde::{Deserialize, Serialize};

/// Geometry and clocking of one processor chip.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChipGeometry {
    /// Physical force pipelines per chip.
    pub pipelines: usize,
    /// Virtual pipelines (i-particle register sets) per physical pipeline.
    pub vmp: usize,
    /// j-particle capacity of the on-board SSRAM serving this chip.
    pub jmem_capacity: usize,
    /// Pipeline clock frequency (Hz).
    pub clock_hz: f64,
    /// Pipeline fill/drain latency in cycles per sweep.
    pub depth_cycles: u64,
    /// Cycles the memory interface needs to deliver one j-particle. The
    /// virtual multipipeline exists precisely to hide this: with `vmp = 8`
    /// each fetched j-particle is reused for 8 cycles, matching the SSRAM
    /// bandwidth; with fewer virtual pipelines the force pipelines stall on
    /// memory.
    pub mem_cycles_per_j: u64,
}

impl Default for ChipGeometry {
    /// The production GRAPE-6 chip: 6 pipelines × 8 virtual, 90 MHz.
    fn default() -> Self {
        Self {
            pipelines: 6,
            vmp: 8,
            jmem_capacity: 16_384,
            clock_hz: 90.0e6,
            depth_cycles: 56,
            mem_cycles_per_j: 8,
        }
    }
}

impl ChipGeometry {
    /// i-particles processed concurrently in one sweep (48 on GRAPE-6).
    pub fn i_parallel(&self) -> usize {
        self.pipelines * self.vmp
    }

    /// Theoretical peak in flops under the 57-op convention: one interaction
    /// per pipeline per cycle. (§5.2: "the peak speed of a chip is
    /// 30.7 Gflops".)
    pub fn peak_flops(&self) -> f64 {
        self.pipelines as f64 * self.clock_hz * grape6_core::force::FLOPS_PER_INTERACTION as f64
    }

    /// Clock cycles to compute forces on `n_i` i-particles against `n_j`
    /// resident j-particles: one sweep per `i_parallel()` i-particles, each
    /// sweep holding every fetched j-particle for `vmp` compute cycles (or
    /// stalling for `mem_cycles_per_j` if the virtual multipipeline is too
    /// shallow to cover the fetch).
    pub fn compute_cycles(&self, n_i: usize, n_j: usize) -> u64 {
        if n_i == 0 || n_j == 0 {
            return 0;
        }
        let sweeps = n_i.div_ceil(self.i_parallel()) as u64;
        let cycles_per_j = (self.vmp as u64).max(self.mem_cycles_per_j);
        sweeps * (cycles_per_j * n_j as u64 + self.depth_cycles)
    }

    /// Seconds for `compute_cycles`.
    pub fn compute_seconds(&self, n_i: usize, n_j: usize) -> f64 {
        self.compute_cycles(n_i, n_j) as f64 / self.clock_hz
    }
}

/// An i-particle in hardware representation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HwIParticle {
    /// Fixed-point position.
    pub qpos: [i64; 3],
    /// Pipeline-precision velocity.
    pub vel: Vec3,
}

impl HwIParticle {
    /// Encode a host-side predicted i-particle.
    pub fn encode(fmt: &FixedPointFormat, precision: Precision, pos: Vec3, vel: Vec3) -> Self {
        Self {
            qpos: fmt.encode_vec(pos),
            vel: crate::format::round_vec(vel, precision.mantissa_bits()),
        }
    }
}

/// Errors of a j-memory write ([`crate::engine::Grape6Engine::write_j`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChipError {
    /// Attempted to load more j-particles than the SSRAM holds.
    MemoryOverflow {
        /// Particles requested.
        requested: usize,
        /// SSRAM capacity.
        capacity: usize,
    },
    /// Write to a slot outside the loaded region.
    BadSlot {
        /// Requested slot.
        slot: usize,
        /// Loaded length.
        len: usize,
    },
}

impl std::fmt::Display for ChipError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChipError::MemoryOverflow { requested, capacity } => {
                write!(f, "j-memory overflow: {requested} > capacity {capacity}")
            }
            ChipError::BadSlot { slot, len } => write!(f, "bad j slot {slot} (loaded {len})"),
        }
    }
}

impl std::error::Error for ChipError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn production_chip_peak_is_30_7_gflops() {
        let g = ChipGeometry::default();
        let peak = g.peak_flops();
        assert!((peak / 1e9 - 30.78).abs() < 0.1, "chip peak {} Gflops", peak / 1e9);
        assert_eq!(g.i_parallel(), 48);
    }

    #[test]
    fn cycle_count_one_sweep() {
        let g = ChipGeometry::default();
        // 48 i-particles, 1000 j: one sweep of 8×1000 + depth cycles.
        assert_eq!(g.compute_cycles(48, 1000), 8 * 1000 + 56);
        // 49 i-particles → two sweeps.
        assert_eq!(g.compute_cycles(49, 1000), 2 * (8 * 1000 + 56));
        assert_eq!(g.compute_cycles(0, 1000), 0);
        assert_eq!(g.compute_cycles(10, 0), 0);
    }

    #[test]
    fn shallow_vmp_stalls_on_memory() {
        // Without the 8-deep virtual multipipeline the SSRAM cannot feed the
        // pipelines: a full 48-i workload costs ~8× more cycles/interaction.
        let g8 = ChipGeometry::default();
        let g1 = ChipGeometry { vmp: 1, ..ChipGeometry::default() };
        let n_j = 16_384;
        let full8 = g8.compute_cycles(48, n_j) as f64 / (48 * n_j) as f64;
        let full1 = g1.compute_cycles(6, n_j) as f64 / (6 * n_j) as f64;
        assert!(
            full1 / full8 > 7.0 && full1 / full8 < 9.0,
            "VMP=1 penalty {} not ≈ 8",
            full1 / full8
        );
    }

    #[test]
    fn full_sweep_achieves_near_peak() {
        // 48 i × n_j interactions in vmp × n_j cycles → 6 interactions/cycle.
        let g = ChipGeometry::default();
        let n_j = 16_384;
        let inter = 48 * n_j;
        let cycles = g.compute_cycles(48, n_j);
        let per_cycle = inter as f64 / cycles as f64;
        assert!(per_cycle > 5.97, "interactions/cycle {per_cycle}");
    }
}
