//! Run statistics: block-size and timestep histograms (experiment E4 — the
//! paper's §3 "six orders of magnitude" timescale-range claim and §4.2
//! block-size claim are checked against these).

use grape6_core::particle::ParticleSystem;
use serde::{Deserialize, Serialize};

/// Histogram over power-of-two timestep rungs.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TimestepHistogram {
    /// Map from log2(dt) to particle count, stored sparsely.
    pub rungs: Vec<(i32, usize)>,
}

impl TimestepHistogram {
    /// Bin the current per-particle steps of a system.
    pub fn from_system(sys: &ParticleSystem) -> Self {
        let mut map = std::collections::BTreeMap::new();
        for &dt in &sys.dt {
            if dt > 0.0 {
                let rung = dt.log2().round() as i32;
                *map.entry(rung).or_insert(0usize) += 1;
            }
        }
        Self { rungs: map.into_iter().collect() }
    }

    /// Number of occupied rungs.
    pub fn occupied_rungs(&self) -> usize {
        self.rungs.len()
    }

    /// Ratio between the largest and smallest occupied step (the dynamic
    /// range of timescales, §3).
    pub fn dynamic_range(&self) -> f64 {
        match (self.rungs.first(), self.rungs.last()) {
            (Some(&(lo, _)), Some(&(hi, _))) => 2.0f64.powi(hi - lo),
            _ => 1.0,
        }
    }

    /// Orders of magnitude spanned (log10 of the dynamic range).
    pub fn orders_of_magnitude(&self) -> f64 {
        self.dynamic_range().log10()
    }

    /// Total particles binned.
    pub fn total(&self) -> usize {
        self.rungs.iter().map(|&(_, c)| c).sum()
    }
}

/// Histogram of active-block sizes across a run. It holds the bins only:
/// block and particle steps, and their mean, are
/// [`grape6_core::integrator::RunStats`]'s.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct BlockSizeHistogram {
    /// Counts per log2-size bin: bin k holds blocks with 2^k ≤ n < 2^(k+1).
    pub bins: Vec<u64>,
}

impl BlockSizeHistogram {
    /// Empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a block of `n` active particles.
    pub fn record(&mut self, n: usize) {
        if n == 0 {
            return;
        }
        let bin = (usize::BITS - 1 - n.leading_zeros()) as usize;
        if self.bins.len() <= bin {
            self.bins.resize(bin + 1, 0);
        }
        self.bins[bin] += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grape6_core::vec3::Vec3;

    #[test]
    fn timestep_histogram_bins_by_rung() {
        let mut sys = ParticleSystem::new(0.0, 0.0);
        for _ in 0..3 {
            sys.push(Vec3::zero(), Vec3::zero(), 1.0);
        }
        sys.dt[0] = 0.25;
        sys.dt[1] = 0.25;
        sys.dt[2] = 2.0f64.powi(-10);
        let h = TimestepHistogram::from_system(&sys);
        assert_eq!(h.occupied_rungs(), 2);
        assert_eq!(h.total(), 3);
        assert_eq!(h.dynamic_range(), 2.0f64.powi(8));
        assert!((h.orders_of_magnitude() - 8.0 * 2.0f64.log10()).abs() < 1e-12);
    }

    #[test]
    fn timestep_histogram_skips_unset_steps() {
        let mut sys = ParticleSystem::new(0.0, 0.0);
        sys.push(Vec3::zero(), Vec3::zero(), 1.0);
        let h = TimestepHistogram::from_system(&sys); // dt = 0 (unset)
        assert_eq!(h.total(), 0);
        assert_eq!(h.dynamic_range(), 1.0);
    }

    #[test]
    fn block_histogram_bins_by_log2_size() {
        let mut h = BlockSizeHistogram::new();
        for n in [1usize, 1, 2, 3, 4, 8, 100] {
            h.record(n);
        }
        // A block of 0 is ignored; 1 → k=0, 2..3 → k=1, 4 → k=2, 8 → k=3,
        // 100 → k=6.
        h.record(0);
        assert_eq!(h.bins, [2, 2, 1, 1, 0, 0, 1]);
    }

    #[test]
    fn empty_histograms_are_safe() {
        let h = BlockSizeHistogram::new();
        assert!(h.bins.is_empty());
    }
}
