//! The GRAPE-6 processor board (PB): 32 processor chips on eight daughter
//! cards, with a hardware reduction tree that sums the partial forces the
//! chips compute from their disjoint j-particle subsets (paper §5.2, Fig 8).

use crate::chip::{ChipError, ChipGeometry, Grape6Chip, HwIParticle};
use crate::format::{FixedPointFormat, Precision};
use crate::pipeline::PipelineRegisters;
use crate::predictor::JParticle;
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

/// Functional model of a processor board.
#[derive(Debug, Clone)]
pub struct ProcessorBoard {
    /// Board geometry.
    pub geometry: BoardGeometry,
    chips: Vec<Grape6Chip>,
}

impl ProcessorBoard {
    /// A board with empty chip memories.
    pub fn new(geometry: BoardGeometry, format: FixedPointFormat, precision: Precision) -> Self {
        let chips = (0..geometry.chips)
            .map(|_| Grape6Chip::new(geometry.chip, format, precision))
            .collect();
        Self { geometry, chips }
    }

    /// Resident j-particle count.
    pub fn n_j(&self) -> usize {
        self.chips.iter().map(Grape6Chip::n_j).sum()
    }

    /// Distribute a j-particle set across the chips in contiguous blocks of
    /// `ceil(n / chips)` (as the hardware DMA does), so global index `i`
    /// sits in chip `i / per`, slot `i % per`. Fails if the board capacity
    /// is exceeded.
    pub fn load_j(&mut self, particles: &[JParticle]) -> Result<(), ChipError> {
        if particles.len() > self.geometry.jmem_capacity() {
            return Err(ChipError::MemoryOverflow {
                requested: particles.len(),
                capacity: self.geometry.jmem_capacity(),
            });
        }
        let mut chunks = particles.chunks(per_unit(particles.len(), self.chips.len()));
        for chip in &mut self.chips {
            chip.load_j(chunks.next().unwrap_or(&[]))?;
        }
        Ok(())
    }

    /// Write back one updated j-particle by global index.
    pub fn store_j(&mut self, index: usize, particle: JParticle) -> Result<(), ChipError> {
        let (chip, slot) = locate(index, self.n_j(), self.chips.len())?;
        self.chips[chip].store_j(slot, particle)
    }

    /// Force call: every chip processes the same i-particles against its
    /// local j-slice; the reduction tree merges the partial registers.
    /// Accepts up to one chip-load (48) of i-particles.
    pub fn compute(&mut self, t: f64, ips: &[HwIParticle], eps2: f64) -> Vec<PipelineRegisters> {
        let mut total = vec![PipelineRegisters::new(); ips.len()];
        for chip in &mut self.chips {
            if chip.n_j() == 0 {
                continue;
            }
            let partial = chip.compute(t, ips, eps2);
            for (tot, part) in total.iter_mut().zip(&partial) {
                tot.merge(part);
            }
        }
        total
    }
}

/// Particles per unit when `n` are dealt over `units` in contiguous blocks
/// (the last blocks may be short or empty): `ceil(n / units)`, at least 1.
pub(crate) fn per_unit(n: usize, units: usize) -> usize {
    n.div_ceil(units).max(1)
}

/// Where global index `i` of `n` particles dealt as [`per_unit`] says sits:
/// `(unit, local index)`, or `BadSlot` past the last particle.
pub(crate) fn locate(i: usize, n: usize, units: usize) -> Result<(usize, usize), ChipError> {
    if i >= n {
        return Err(ChipError::BadSlot { slot: i, len: n });
    }
    let per = per_unit(n, units);
    Ok((i / per, i % per))
}

#[cfg(test)]
mod tests {
    use super::*;
    use grape6_core::vec3::Vec3;

    fn small_board() -> ProcessorBoard {
        let geometry = BoardGeometry {
            chips: 4,
            chip: ChipGeometry { jmem_capacity: 8, ..ChipGeometry::default() },
        };
        ProcessorBoard::new(geometry, FixedPointFormat::default(), Precision::Exact)
    }

    fn j_at(x: f64, m: f64) -> JParticle {
        JParticle::encode(
            &FixedPointFormat::default(),
            Precision::Exact,
            Vec3::new(x, 0.0, 0.0),
            Vec3::zero(),
            Vec3::zero(),
            Vec3::zero(),
            m,
            0.0,
        )
    }

    #[test]
    fn production_board_peak_near_1_tflops() {
        let g = BoardGeometry::default();
        assert!((g.peak_flops() / 1e12 - 0.985).abs() < 0.02, "{}", g.peak_flops() / 1e12);
        assert_eq!(g.jmem_capacity(), 32 * 16_384);
    }

    #[test]
    fn board_distributes_j_across_chips() {
        let mut b = small_board();
        let js: Vec<JParticle> = (0..10).map(|k| j_at(k as f64 + 1.0, 1.0)).collect();
        b.load_j(&js).unwrap();
        assert_eq!(b.n_j(), 10);
        // 10 particles over 4 chips, 3 per chip → chips hold 3,3,3,1.
        assert_eq!(b.chips[0].n_j(), 3);
        assert_eq!(b.chips[3].n_j(), 1);
    }

    #[test]
    fn board_capacity_enforced() {
        let mut b = small_board();
        let js: Vec<JParticle> = (0..33).map(|k| j_at(k as f64 + 1.0, 1.0)).collect();
        assert!(b.load_j(&js).is_err());
    }

    #[test]
    fn board_force_equals_sum_over_all_j() {
        let mut b = small_board();
        let js: Vec<JParticle> = (1..=10).map(|k| j_at(k as f64, 1.0)).collect();
        b.load_j(&js).unwrap();
        let ip = HwIParticle::encode(
            &FixedPointFormat::default(),
            Precision::Exact,
            Vec3::zero(),
            Vec3::zero(),
        );
        let regs = b.compute(0.0, &[ip], 0.0);
        let (acc, _, _) = regs[0].read();
        let expect: f64 = (1..=10).map(|k| 1.0 / (k as f64 * k as f64)).sum();
        assert!((acc.x - expect).abs() < 1e-12);
        assert_eq!(regs[0].count, 10);
    }

    #[test]
    fn board_writeback_routes_to_correct_chip() {
        let mut b = small_board();
        let js: Vec<JParticle> = (1..=10).map(|k| j_at(k as f64, 1.0)).collect();
        b.load_j(&js).unwrap();
        // Move global j #9 (chip 3, slot 0) from x=10 to x=100.
        b.store_j(9, j_at(100.0, 1.0)).unwrap();
        let ip = HwIParticle::encode(
            &FixedPointFormat::default(),
            Precision::Exact,
            Vec3::zero(),
            Vec3::zero(),
        );
        let (acc, _, _) = b.compute(0.0, &[ip], 0.0)[0].read();
        let expect: f64 =
            (1..=9).map(|k| 1.0 / (k as f64 * k as f64)).sum::<f64>() + 1.0 / (100.0 * 100.0);
        assert!((acc.x - expect).abs() < 1e-12);
        assert!(b.store_j(10, j_at(0.0, 1.0)).is_err());
    }
}
