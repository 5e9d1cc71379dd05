//! The GRAPE-6 processor board (PB): 32 processor chips on eight daughter
//! cards, with a hardware reduction tree that sums the partial forces the
//! chips compute from their disjoint j-particle subsets (paper §5.2, Fig 8).
//!
//! This module holds the board's geometry. Its data path — the j-memory
//! dealt over the chips and the chips' partial registers merged — is
//! [`crate::cluster_engine::ClusterEngine`]'s; its cost is charged by
//! [`crate::timing::TimingModel`].

use crate::chip::ChipGeometry;
use serde::{Deserialize, Serialize};

/// Geometry of a processor board.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BoardGeometry {
    /// Chips per board (32 on GRAPE-6: 8 daughter cards × 4 chips).
    pub chips: usize,
    /// Per-chip geometry.
    pub chip: ChipGeometry,
}

impl Default for BoardGeometry {
    fn default() -> Self {
        Self { chips: 32, chip: ChipGeometry::default() }
    }
}

impl BoardGeometry {
    /// Peak flops of the whole board.
    pub fn peak_flops(&self) -> f64 {
        self.chips as f64 * self.chip.peak_flops()
    }

    /// j-particle capacity of the whole board.
    pub fn jmem_capacity(&self) -> usize {
        self.chips * self.chip.jmem_capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn production_board_peak_near_1_tflops() {
        let g = BoardGeometry::default();
        assert!((g.peak_flops() / 1e12 - 0.985).abs() < 0.02, "{}", g.peak_flops() / 1e12);
        assert_eq!(g.jmem_capacity(), 32 * 16_384);
    }
}
