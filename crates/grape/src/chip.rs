//! The GRAPE-6 processor chip (paper §5.2, Fig 9): six force pipelines, one
//! predictor pipeline, memory interface and network interface on one custom
//! LSI, clocked at 90 MHz.
//!
//! Each physical force pipeline serves eight *virtual* pipelines (i-particle
//! register sets), so a chip works on up to 48 i-particles per sweep of its
//! j-memory while fetching each j-particle only once every eight cycles —
//! the trick that keeps the SSRAM bandwidth requirement feasible.

use crate::format::{FixedPointFormat, Precision};
use crate::pipeline::PipelineRegisters;
use crate::predictor::{predict_j, JParticle};
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

/// Functional model of one processor chip. Its cost is
/// [`ChipGeometry::compute_cycles`], charged by [`crate::timing::TimingModel`].
#[derive(Debug, Clone)]
pub struct Grape6Chip {
    /// Chip geometry.
    pub geometry: ChipGeometry,
    /// Position format shared with the host.
    pub format: FixedPointFormat,
    /// Arithmetic precision emulation.
    pub precision: Precision,
    jmem: Vec<JParticle>,
}

impl Grape6Chip {
    /// A chip with empty j-memory.
    pub fn new(geometry: ChipGeometry, format: FixedPointFormat, precision: Precision) -> Self {
        Self { geometry, format, precision, jmem: Vec::new() }
    }

    /// Number of resident j-particles.
    pub fn n_j(&self) -> usize {
        self.jmem.len()
    }

    /// Load a fresh j-particle set. Fails if it exceeds the SSRAM capacity.
    pub fn load_j(&mut self, particles: &[JParticle]) -> Result<(), ChipError> {
        if particles.len() > self.geometry.jmem_capacity {
            return Err(ChipError::MemoryOverflow {
                requested: particles.len(),
                capacity: self.geometry.jmem_capacity,
            });
        }
        self.jmem.clear();
        self.jmem.extend_from_slice(particles);
        Ok(())
    }

    /// Overwrite one j-memory slot (the per-blockstep write-back path).
    pub fn store_j(&mut self, slot: usize, particle: JParticle) -> Result<(), ChipError> {
        if slot >= self.jmem.len() {
            return Err(ChipError::BadSlot { slot, len: self.jmem.len() });
        }
        self.jmem[slot] = particle;
        Ok(())
    }

    /// Compute forces on up to `i_parallel()` i-particles against the full
    /// resident j-memory at block time `t`. Returns one register set per
    /// i-particle.
    pub fn compute(&mut self, t: f64, ips: &[HwIParticle], eps2: f64) -> Vec<PipelineRegisters> {
        assert!(
            ips.len() <= self.geometry.i_parallel(),
            "chip accepts at most {} i-particles per call, got {}",
            self.geometry.i_parallel(),
            ips.len()
        );
        let mut regs = vec![PipelineRegisters::new(); ips.len()];
        for j in &self.jmem {
            let pj = predict_j(&self.format, self.precision, j, t);
            for (r, ip) in regs.iter_mut().zip(ips) {
                r.accumulate(
                    &self.format,
                    self.precision,
                    ip.qpos,
                    pj.qpos,
                    ip.vel,
                    pj.vel,
                    pj.mass,
                    eps2,
                );
            }
        }
        regs
    }
}

/// Errors a chip can raise.
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

    fn test_chip() -> Grape6Chip {
        Grape6Chip::new(
            ChipGeometry { jmem_capacity: 64, ..ChipGeometry::default() },
            FixedPointFormat::default(),
            Precision::Exact,
        )
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
    fn memory_capacity_enforced() {
        let mut chip = test_chip();
        let js: Vec<JParticle> = (0..65).map(|k| j_at(k as f64, 1e-9)).collect();
        assert!(matches!(
            chip.load_j(&js),
            Err(ChipError::MemoryOverflow { requested: 65, capacity: 64 })
        ));
        assert!(chip.load_j(&js[..64]).is_ok());
        assert_eq!(chip.n_j(), 64);
    }

    #[test]
    fn store_j_bounds_checked() {
        let mut chip = test_chip();
        chip.load_j(&[j_at(1.0, 1e-9)]).unwrap();
        assert!(chip.store_j(0, j_at(2.0, 1e-9)).is_ok());
        assert!(matches!(chip.store_j(1, j_at(2.0, 1e-9)), Err(ChipError::BadSlot { .. })));
    }

    #[test]
    fn chip_force_matches_analytic_pair() {
        let mut chip = test_chip();
        chip.load_j(&[j_at(1.0, 2.0)]).unwrap();
        let ip = HwIParticle::encode(
            &FixedPointFormat::default(),
            Precision::Exact,
            Vec3::zero(),
            Vec3::zero(),
        );
        let regs = chip.compute(0.0, &[ip], 0.0);
        let (acc, _, pot) = regs[0].read();
        assert!((acc.x - 2.0).abs() < 1e-12); // m/r² = 2
        assert!((pot + 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at most")]
    fn chip_rejects_oversized_i_block() {
        let mut chip = test_chip();
        chip.load_j(&[j_at(1.0, 1.0)]).unwrap();
        let ip = HwIParticle::encode(
            &FixedPointFormat::default(),
            Precision::Exact,
            Vec3::zero(),
            Vec3::zero(),
        );
        chip.compute(0.0, &vec![ip; 49], 0.0);
    }

    #[test]
    fn chip_predicts_j_to_block_time() {
        let fmt = FixedPointFormat::default();
        let mut chip = test_chip();
        // j-particle moving at v = 1 along x, stored at t0 = 0, at x = 10.
        let j = JParticle::encode(
            &fmt,
            Precision::Exact,
            Vec3::new(10.0, 0.0, 0.0),
            Vec3::new(1.0, 0.0, 0.0),
            Vec3::zero(),
            Vec3::zero(),
            1.0,
            0.0,
        );
        chip.load_j(&[j]).unwrap();
        let ip = HwIParticle::encode(&fmt, Precision::Exact, Vec3::zero(), Vec3::zero());
        // At t = 2 the source sits at x = 12 → acc = 1/144.
        let regs = chip.compute(2.0, &[ip], 0.0);
        let (acc, _, _) = regs[0].read();
        assert!((acc.x - 1.0 / 144.0).abs() < 1e-12);
    }
}
