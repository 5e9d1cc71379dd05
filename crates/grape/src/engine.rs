//! `Grape6Engine`: the full machine as a [`ForceEngine`].
//!
//! Functionally it computes exactly what the hardware computes — fixed-point
//! position subtraction, short-mantissa pipeline arithmetic, wide fixed-point
//! accumulation, on-device prediction — while a [`HardwareClock`] records how
//! long the modeled 2048-chip installation would have taken for every call.
//!
//! One simplification keeps memory sane: all 16 nodes of the real machine
//! hold *identical* j-memories (that is the entire point of the NB data-
//! exchange network, §4.3), and the fixed-point reduction is exactly
//! associative, so simulating a single shared j-memory produces bit-identical
//! forces to simulating all 2048 chip memories separately. The per-chip
//! partitioning enters only through the (analytic) timing model.

use crate::chip::ChipError;
use crate::format::{ConstWord, FixedPointFormat, PipelineWord, Precision, ShortWord};
use crate::lanes::{scalar_sweep, GrapeJLanes, GrapeLaneTile, SweepPartial, LANE_WIDTH};
use crate::perf::HardwareClock;
use crate::predictor::{predict_j, JParticle, PredictedJ};
use crate::timing::{StepBreakdown, TimingModel};
use grape6_core::engine::ForceEngine;
use grape6_core::fields::Fields;
use grape6_core::particle::{ForceResult, IParticle, ParticleSystem};
use grape6_core::sweep::{chunked_jsweep, j_chunk_size, SMALL_BLOCK_MAX};
use rayon::prelude::*;

/// Read one swept partial out for `ip`. The pipeline sums over *all* j
/// including the particle itself; the self term contributes no force but
/// −m/ε of potential, which the host removes (paper convention).
fn read_out(p: &SweepPartial, ip: &IParticle, jmem: &[JParticle], eps2: f64) -> ForceResult {
    let (acc, jerk, mut pot) = p.regs.read();
    if let Some(own) = jmem.get(ip.index) {
        pot += own.mass / eps2.sqrt();
    }
    ForceResult { acc, jerk, pot, nn: p.nn }
}

/// Large-block path: sweep every predicted j-particle for up to
/// [`LANE_WIDTH`] i-particles through one AoSoA lane tile and read the
/// results out. With `finite` false (a non-finite j-word, block time or ε²),
/// or when the tile reports a lane out of the limb domain, every i-particle
/// of the tile sweeps `pred` through the scalar oracle instead.
#[allow(clippy::too_many_arguments)]
// grape6-lint: hot
fn sweep_group_lanes<R: PipelineWord>(
    fmt: &FixedPointFormat,
    precision: Precision,
    os: &mut [ForceResult],
    ips: &[IParticle],
    pred: &[PredictedJ],
    jmem: &[JParticle],
    eps2: f64,
    finite: bool,
) {
    let mut parts = [SweepPartial::default(); LANE_WIDTH];
    let parts = &mut parts[..ips.len()];
    let in_domain = finite && {
        let mut tile = GrapeLaneTile::<LANE_WIDTH, R>::load(fmt, precision, ips);
        for (j, pj) in pred.iter().enumerate() {
            tile.interact(j, pj, eps2);
        }
        tile.store(parts)
    };
    if !in_domain {
        for (p, ip) in parts.iter_mut().zip(ips) {
            *p = scalar_sweep(fmt, precision, ip, pred.iter().copied().enumerate(), eps2);
        }
    }
    for ((o, p), ip) in os.iter_mut().zip(parts.iter()).zip(ips) {
        *o = read_out(p, ip, jmem, eps2);
    }
}

/// Small-block path, one j-chunk: each i-particle sweeps the chunk
/// [`LANE_WIDTH`] j-particles at a time (lanes across j, prediction fused
/// into the lane loop — a pure function of `(j, t)`, so re-evaluating it per
/// i-particle cannot change any bit), then the leftover j through the scalar
/// oracle. Exact associativity of the fixed-point sums makes the lane order
/// invisible. A row whose inputs are not `finite`, or whose lanes left the
/// limb domain, is swept whole by the oracle instead.
#[allow(clippy::too_many_arguments)]
// grape6-lint: hot
fn small_fill_jlanes<R: PipelineWord>(
    fmt: &FixedPointFormat,
    precision: Precision,
    js: std::ops::Range<usize>,
    row: &mut [SweepPartial],
    ips: &[IParticle],
    jmem: &[JParticle],
    t: f64,
    eps2: f64,
    finite: bool,
) {
    let (groups, tail) = jmem[js.clone()].as_chunks::<LANE_WIDTH>();
    let tail_start = js.end - tail.len();
    for (r, ip) in row.iter_mut().zip(ips) {
        let swept = if finite {
            let mut lanes = GrapeJLanes::<LANE_WIDTH, R>::load(fmt, precision, ip);
            for (g, group) in groups.iter().enumerate() {
                lanes.interact(js.start + g * LANE_WIDTH, group, t, eps2);
            }
            lanes.store()
        } else {
            None
        };
        *r = match swept {
            Some(mut p) => {
                p.merge(&small_fill_scalar(fmt, precision, tail_start..js.end, ip, jmem, t, eps2));
                p
            }
            None => small_fill_scalar(fmt, precision, js.clone(), ip, jmem, t, eps2),
        };
    }
}

/// The scalar oracle over one j-chunk, predicting on the fly.
fn small_fill_scalar(
    fmt: &FixedPointFormat,
    precision: Precision,
    js: std::ops::Range<usize>,
    ip: &IParticle,
    jmem: &[JParticle],
    t: f64,
    eps2: f64,
) -> SweepPartial {
    let predicted = js.map(|j| (j, predict_j(fmt, precision, &jmem[j], t)));
    scalar_sweep(fmt, precision, ip, predicted, eps2)
}

/// Configuration of a simulated GRAPE-6 installation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Grape6Config {
    /// Timing model (geometry, links, host costs).
    pub timing: TimingModel,
    /// Position format.
    pub format: FixedPointFormat,
    /// Pipeline arithmetic emulation.
    pub precision: Precision,
}

impl Grape6Config {
    /// The SC2002 production machine with hardware-faithful arithmetic.
    pub fn sc2002() -> Self {
        Self {
            timing: TimingModel::sc2002(),
            format: FixedPointFormat::default(),
            precision: Precision::grape6(),
        }
    }

    /// The production machine with exact arithmetic (isolates algorithmic
    /// error from hardware arithmetic in experiment E9).
    pub fn sc2002_exact() -> Self {
        Self { precision: Precision::Exact, ..Self::sc2002() }
    }

    /// Single-host development box.
    pub fn single_host() -> Self {
        Self { timing: TimingModel::single_host(), ..Self::sc2002() }
    }
}

/// The GRAPE-6 machine as a force engine.
#[derive(Debug, Clone)]
pub struct Grape6Engine {
    /// Configuration.
    pub config: Grape6Config,
    jmem: Vec<JParticle>,
    // Resident words with a non-finite field, kept at the write port: while
    // any is resident the lane kernels are bypassed for the scalar oracle.
    non_finite_words: usize,
    eps2: f64,
    clock: HardwareClock,
    interactions: u64,
    // Bytes across the host interface, charged at the wire-format packet
    // sizes (i-particles up, forces down, j-particles on every write-back).
    wire_bytes: u64,
    // Predicted j-particles, refreshed per compute call (large blocks).
    pred: Vec<PredictedJ>,
    // Per-chunk partial rows of the small-block sweep (capacity reused).
    partials: Vec<SweepPartial>,
    // Merged sweep results of the current small block (capacity reused).
    swept: Vec<SweepPartial>,
}

impl Grape6Engine {
    /// Build an engine for the given machine configuration.
    pub fn new(config: Grape6Config) -> Self {
        Self {
            config,
            jmem: Vec::new(),
            non_finite_words: 0,
            eps2: 0.0,
            clock: HardwareClock::new(),
            interactions: 0,
            wire_bytes: 0,
            pred: Vec::new(),
            partials: Vec::new(),
            swept: Vec::new(),
        }
    }

    /// The production machine.
    pub fn sc2002() -> Self {
        Self::new(Grape6Config::sc2002())
    }

    /// Modeled hardware clock accumulated so far.
    pub fn clock(&self) -> &HardwareClock {
        &self.clock
    }

    /// Performance report over everything charged since the last reset.
    pub fn perf_report(&self) -> crate::perf::PerfReport {
        crate::perf::PerfReport::new(
            self.interactions,
            self.clock.seconds(),
            self.config.timing.geometry.peak_flops(),
        )
    }

    /// Read-only view of resident j-memory. The fault-tolerant wrapper
    /// clones this right after `load` as the host's authoritative copy for
    /// memory scrubbing.
    pub fn jmem(&self) -> &[JParticle] {
        &self.jmem
    }

    /// The hardware's write port (`g6_set_j_particle`): put one j-word at
    /// `address`, overwriting a resident word or appending at
    /// `address == jmem().len()` (memory fills densely from 0, as the DMA
    /// does). Charges one j-packet. Every way a particle enters j-memory —
    /// `load`, `update_j`, the DMR pair — is the host encoding a word and
    /// writing it here.
    // grape6-lint: hot
    pub fn write_j(&mut self, address: usize, word: JParticle) -> Result<(), ChipError> {
        let len = self.jmem.len();
        match self.jmem.get_mut(address) {
            Some(resident) => {
                self.non_finite_words -= usize::from(!resident.is_finite());
                *resident = word;
            }
            None if address > len => return Err(ChipError::BadSlot { slot: address, len }),
            None => {
                let capacity = self.config.timing.geometry.node_jmem_capacity();
                if len >= capacity {
                    return Err(ChipError::MemoryOverflow { requested: len + 1, capacity });
                }
                self.jmem.push(word);
            }
        }
        self.non_finite_words += usize::from(!word.is_finite());
        self.wire_bytes += crate::wire::J_PACKET_BYTES as u64;
        Ok(())
    }

    /// Fault injection: XOR one bit of the resident j-particle `index`'s
    /// fixed-point x-position word (an SSRAM soft error). `index` wraps
    /// modulo the loaded count, `bit` modulo 64, so any seeded address is
    /// valid.
    pub fn corrupt_j_word(&mut self, index: usize, bit: usize) {
        assert!(!self.jmem.is_empty(), "no j-particles loaded");
        let i = index % self.jmem.len();
        self.jmem[i].qpos[0] ^= 1i64 << (bit % 64);
    }

    /// Memory scrub: compare every resident j-word against the host's
    /// authoritative copy, rewrite the ones that differ, and charge the
    /// write-back traffic. Returns the repaired indices.
    pub fn scrub_jmem(&mut self, authoritative: &[JParticle]) -> Vec<usize> {
        assert_eq!(authoritative.len(), self.jmem.len(), "scrub copy length mismatch");
        let mut repaired = Vec::new();
        for (i, (res, truth)) in self.jmem.iter_mut().zip(authoritative).enumerate() {
            if res != truth {
                self.non_finite_words -= usize::from(!res.is_finite());
                self.non_finite_words += usize::from(!truth.is_finite());
                *res = *truth;
                repaired.push(i);
            }
        }
        self.wire_bytes += (repaired.len() * crate::wire::J_PACKET_BYTES) as u64;
        repaired
    }

    /// The functional half of [`ForceEngine::compute`], with the lane kernels
    /// rounding through `R`.
    // grape6-lint: hot
    fn sweep<R: PipelineWord>(&mut self, t: f64, ips: &[IParticle], out: &mut [ForceResult]) {
        let n_j = self.jmem.len();
        let fmt = self.config.format;
        let precision = self.config.precision;
        let eps2 = self.eps2;
        let jmem = &self.jmem;
        // The lane kernels' input domain; i-velocities are checked per tile.
        let finite = self.non_finite_words == 0 && t.is_finite() && eps2.is_finite();
        if ips.len() > SMALL_BLOCK_MAX {
            // Predictor pipelines: every chip predicts its resident
            // j-particles, then i-particles sweep the shared prediction in
            // parallel.
            self.pred.clear();
            jmem.par_iter()
                .map(|j| predict_j(&fmt, precision, j, t))
                .collect_into_vec(&mut self.pred);

            // Force pipelines + reduction tree. The fixed-point accumulators
            // make the reduction order irrelevant, so a flat parallel sweep
            // is bit-identical to the hardware's chip/board/NB tree.
            let pred = &self.pred;
            out.par_chunks_mut(LANE_WIDTH).zip(ips.par_chunks(LANE_WIDTH)).for_each(|(os, is)| {
                sweep_group_lanes::<R>(&fmt, precision, os, is, pred, jmem, eps2, finite)
            });
        } else {
            // Small block: split j-space across the pool instead, prediction
            // fused into each chunk (the chip predicts the j-particle right
            // before feeding its pipelines). Exact fixed-point associativity
            // makes the chunked merge bit-identical to the flat sweep above.
            self.swept.clear();
            self.swept.resize(ips.len(), SweepPartial::default());
            chunked_jsweep(
                n_j,
                j_chunk_size(n_j),
                &mut self.partials,
                &mut self.swept,
                |js, row| {
                    small_fill_jlanes::<R>(&fmt, precision, js, row, ips, jmem, t, eps2, finite)
                },
                SweepPartial::merge,
            );
            for ((o, p), ip) in out.iter_mut().zip(&self.swept).zip(ips) {
                *o = read_out(p, ip, jmem, eps2);
            }
        }
    }
}

impl ForceEngine for Grape6Engine {
    fn load(&mut self, sys: &ParticleSystem) {
        // The real machine cannot run a set larger than one node's j-memory.
        let cap = self.config.timing.geometry.node_jmem_capacity();
        assert!(
            sys.len() <= cap,
            "particle set ({}) exceeds node j-memory capacity ({cap})",
            sys.len()
        );
        assert!(
            sys.softening > 0.0,
            "GRAPE-6 requires a positive softening length (the pipeline has no \
             self-interaction cutoff)"
        );
        self.eps2 = sys.softening * sys.softening;
        self.jmem.clear();
        self.non_finite_words = 0;
        self.jmem.reserve(sys.len());
        let (fmt, precision) = (self.config.format, self.config.precision);
        for i in 0..sys.len() {
            self.write_j(i, JParticle::from_system(&fmt, precision, sys, i))
                .expect("dense fill of a set within capacity");
        }
    }

    /// Write back a batch of j-particles. The integrator defers corrector
    /// and accretion write-backs and flushes them here as one sorted,
    /// deduplicated batch per block step, just before its force evaluation,
    /// so a particle touched by both the corrector and a merge crosses the
    /// wire once, not twice. Encoding is a
    /// pure function of the particle's own system state, so batching never
    /// changes the bits that land in j-memory.
    // grape6-lint: hot
    fn update_j(&mut self, sys: &ParticleSystem, indices: &[usize]) {
        let (fmt, precision) = (self.config.format, self.config.precision);
        for &i in indices {
            assert!(i < self.jmem.len(), "update_j of unloaded particle {i}");
            self.write_j(i, JParticle::from_system(&fmt, precision, sys, i))
                .expect("overwrite of a resident word");
        }
    }

    // grape6-lint: hot
    fn compute(&mut self, t: f64, ips: &[IParticle], out: &mut [ForceResult]) {
        assert_eq!(ips.len(), out.len());
        let n_j = self.jmem.len();
        // Charge the modeled hardware time for this block step.
        let step = self.config.timing.block_step(ips.len(), n_j);
        self.clock.charge(&step);
        self.interactions += (ips.len() as u64) * (n_j as u64);
        self.wire_bytes +=
            (ips.len() * (crate::wire::I_PACKET_BYTES + crate::wire::F_PACKET_BYTES)) as u64;

        // The production word runs with its rounding shift a compile-time
        // constant; every other precision through the runtime word.
        if self.config.precision.mantissa_bits() == 24 {
            self.sweep::<ConstWord<24>>(t, ips, out);
        } else {
            self.sweep::<ShortWord>(t, ips, out);
        }
    }

    fn interaction_count(&self) -> u64 {
        self.interactions
    }

    fn reset_counters(&mut self) {
        self.interactions = 0;
        self.wire_bytes = 0;
    }

    fn bytes_transferred(&self) -> u64 {
        self.wire_bytes
    }

    fn modeled_seconds(&self) -> f64 {
        self.clock.seconds()
    }

    fn checkpoint_state(&self) -> Vec<u8> {
        // j-memory itself is NOT carried: `load` on the checkpointed system
        // reproduces it bit-identically (each j-entry is the encoding of
        // the owning particle's state as of its last correction). Only the
        // accumulated counters and the modeled clock need to survive.
        let mut s = Vec::with_capacity(81);
        s.extend_from_slice(&self.interactions.to_le_bytes());
        s.extend_from_slice(&self.wire_bytes.to_le_bytes());
        s.extend_from_slice(&self.clock.steps.to_le_bytes());
        let b = &self.clock.breakdown;
        for v in [b.host, b.send_i, b.pipeline, b.receive, b.jshare_intra, b.jshare_inter, b.sync] {
            s.extend_from_slice(&v.to_le_bytes());
        }
        s.push(b.overlapped as u8);
        s
    }

    fn restore_checkpoint_state(&mut self, state: &[u8]) -> Result<(), String> {
        let mut f = Fields::new(state, "grape6 checkpoint state");
        let (interactions, wire_bytes, steps) = (f.u64()?, f.u64()?, f.u64()?);
        let breakdown = StepBreakdown {
            host: f.f64()?,
            send_i: f.f64()?,
            pipeline: f.f64()?,
            receive: f.f64()?,
            jshare_intra: f.f64()?,
            jshare_inter: f.f64()?,
            sync: f.f64()?,
            overlapped: f.u8()? != 0,
        };
        f.finish()?;
        (self.interactions, self.wire_bytes) = (interactions, wire_bytes);
        (self.clock.steps, self.clock.breakdown) = (steps, breakdown);
        Ok(())
    }

    fn name(&self) -> &'static str {
        "grape6"
    }
}

/// The scalar oracle of [`Grape6Engine`]: the wrapped engine's j-memory,
/// every i-particle one flat [`scalar_sweep`] over all j (exact fixed-point
/// associativity makes the flat sweep the reference for both block paths).
/// Tests and `grape6-conformance` pin the lane kernels against it bit for
/// bit; it is a type a test names, never an option a run can select, and it
/// charges no modeled clock or wire traffic.
#[derive(Debug, Clone)]
pub struct ScalarGrape6Engine(pub Grape6Engine);

impl ForceEngine for ScalarGrape6Engine {
    fn load(&mut self, sys: &ParticleSystem) {
        self.0.load(sys);
    }

    fn update_j(&mut self, sys: &ParticleSystem, indices: &[usize]) {
        self.0.update_j(sys, indices);
    }

    fn compute(&mut self, t: f64, ips: &[IParticle], out: &mut [ForceResult]) {
        assert_eq!(ips.len(), out.len());
        let Grape6Engine { config, jmem, eps2, interactions, .. } = &mut self.0;
        *interactions += (ips.len() as u64) * (jmem.len() as u64);
        for (o, ip) in out.iter_mut().zip(ips) {
            let js = 0..jmem.len();
            let p = small_fill_scalar(&config.format, config.precision, js, ip, jmem, t, *eps2);
            *o = read_out(&p, ip, jmem, *eps2);
        }
    }

    fn interaction_count(&self) -> u64 {
        self.0.interactions
    }

    fn name(&self) -> &'static str {
        "grape6-scalar"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grape6_core::force::DirectEngine;
    use grape6_core::vec3::Vec3;

    fn ring_system(n: usize) -> ParticleSystem {
        let mut sys = ParticleSystem::new(0.008, 1.0);
        for k in 0..n {
            let theta = k as f64 * std::f64::consts::TAU / n as f64;
            let r = 15.0 + 20.0 * (k as f64 / n as f64);
            let v = grape6_core::units::circular_speed(r, 1.0);
            sys.push(
                Vec3::new(r * theta.cos(), r * theta.sin(), 0.01 * (k as f64).sin()),
                Vec3::new(-v * theta.sin(), v * theta.cos(), 0.0),
                1e-9 * (1.0 + (k % 13) as f64),
            );
        }
        sys
    }

    fn ips_for(sys: &ParticleSystem, idx: &[usize]) -> Vec<IParticle> {
        idx.iter().map(|&i| IParticle { index: i, pos: sys.pos[i], vel: sys.vel[i] }).collect()
    }

    #[test]
    fn matches_direct_engine_in_exact_mode() {
        let sys = ring_system(64);
        let mut hw = Grape6Engine::new(Grape6Config::sc2002_exact());
        let mut cpu = DirectEngine::new();
        hw.load(&sys);
        cpu.load(&sys);
        let idx: Vec<usize> = (0..64).collect();
        let ips = ips_for(&sys, &idx);
        let mut out_hw = vec![ForceResult::default(); 64];
        let mut out_cpu = vec![ForceResult::default(); 64];
        hw.compute(0.0, &ips, &mut out_hw);
        cpu.compute(0.0, &ips, &mut out_cpu);
        for k in 0..64 {
            let da = (out_hw[k].acc - out_cpu[k].acc).norm() / out_cpu[k].acc.norm().max(1e-300);
            // Exact arithmetic but fixed-point position quantization at 2⁻⁵⁴ AU.
            assert!(da < 1e-11, "particle {k}: rel acc error {da:e}");
            let dp = (out_hw[k].pot - out_cpu[k].pot).abs() / out_cpu[k].pot.abs();
            assert!(dp < 1e-9, "particle {k}: rel pot error {dp:e}");
        }
    }

    #[test]
    fn grape6_precision_error_is_bounded() {
        let sys = ring_system(128);
        let mut hw = Grape6Engine::new(Grape6Config::sc2002());
        let mut cpu = DirectEngine::new();
        hw.load(&sys);
        cpu.load(&sys);
        let idx: Vec<usize> = (0..128).collect();
        let ips = ips_for(&sys, &idx);
        let mut out_hw = vec![ForceResult::default(); 128];
        let mut out_cpu = vec![ForceResult::default(); 128];
        hw.compute(0.0, &ips, &mut out_hw);
        cpu.compute(0.0, &ips, &mut out_cpu);
        for k in 0..128 {
            let rel = (out_hw[k].acc - out_cpu[k].acc).norm() / out_cpu[k].acc.norm();
            assert!(rel < 1e-4, "particle {k}: rel error {rel:e}");
            assert!(rel > 0.0, "particle {k}: implausibly exact");
        }
    }

    #[test]
    fn compute_is_deterministic_despite_parallelism() {
        let sys = ring_system(200);
        let mut hw = Grape6Engine::sc2002();
        hw.load(&sys);
        let idx: Vec<usize> = (0..200).collect();
        let ips = ips_for(&sys, &idx);
        let mut out1 = vec![ForceResult::default(); 200];
        let mut out2 = vec![ForceResult::default(); 200];
        hw.compute(0.0, &ips, &mut out1);
        hw.compute(0.0, &ips, &mut out2);
        for k in 0..200 {
            assert_eq!(out1[k].acc, out2[k].acc, "particle {k} nondeterministic");
            assert_eq!(out1[k].jerk, out2[k].jerk);
            assert_eq!(out1[k].pot, out2[k].pot);
        }
    }

    #[test]
    fn small_block_sweep_matches_flat_sweep_bitwise() {
        // The chunked j-parallel path (small blocks) must read out the exact
        // bits of the flat per-i sweep (large blocks): fixed-point
        // accumulation is associative, NN keeps the first minimum either way.
        let sys = ring_system(200);
        let mut hw = Grape6Engine::sc2002();
        hw.load(&sys);
        let idx: Vec<usize> = (0..200).collect();
        let ips = ips_for(&sys, &idx);
        let mut all = vec![ForceResult::default(); 200];
        hw.compute(0.0, &ips, &mut all);
        for &i in &[0usize, 7, 63, 199] {
            let one = ips_for(&sys, &[i]);
            let mut out = vec![ForceResult::default(); 1];
            hw.compute(0.0, &one, &mut out);
            assert_eq!(out[0].acc, all[i].acc, "particle {i}");
            assert_eq!(out[0].jerk, all[i].jerk, "particle {i}");
            assert_eq!(out[0].pot, all[i].pot, "particle {i}");
            assert_eq!(out[0].nn.map(|n| n.index), all[i].nn.map(|n| n.index));
        }
    }

    fn assert_same_bits(got: &[ForceResult], want: &[ForceResult], what: &str) {
        for (k, (g, r)) in got.iter().zip(want).enumerate() {
            assert_eq!(g.acc, r.acc, "{what} k={k} acc");
            assert_eq!(g.jerk, r.jerk, "{what} k={k} jerk");
            assert_eq!(g.pot.to_bits(), r.pot.to_bits(), "{what} k={k} pot");
            assert_eq!(
                g.nn.map(|n| (n.index, n.r2.to_bits())),
                r.nn.map(|n| (n.index, n.r2.to_bits())),
                "{what} k={k} nn"
            );
        }
    }

    #[test]
    fn lane_kernels_match_the_scalar_oracle_on_both_paths() {
        // The product pipeline emulation must agree bit for bit with its
        // scalar oracle on the small-block (j-lane) and large-block (i-lane)
        // paths, including ragged blocks not divisible by the lane width,
        // in both arithmetic modes.
        let sys = ring_system(61);
        for config in [Grape6Config::sc2002(), Grape6Config::sc2002_exact()] {
            fn force<E: ForceEngine>(mut e: E, sys: &ParticleSystem, b: usize) -> Vec<ForceResult> {
                e.load(sys);
                let idx: Vec<usize> = (0..b).collect();
                let ips = ips_for(sys, &idx);
                let mut out = vec![ForceResult::default(); b];
                e.compute(0.0, &ips, &mut out);
                assert_eq!(e.interaction_count(), (b * sys.len()) as u64);
                out
            }
            for b in [1usize, 3, 4, 5, 13, 16, 17, 21, 61] {
                let reference = force(ScalarGrape6Engine(Grape6Engine::new(config)), &sys, b);
                let what = format!("{:?} b={b}", config.precision);
                assert_same_bits(&force(Grape6Engine::new(config), &sys, b), &reference, &what);
            }
        }
    }

    #[test]
    fn jlane_small_blocks_match_the_flat_scalar_sweep() {
        // j-counts around the lane width (all-tail, one short of a group,
        // exactly one group, one over) and a paper-like 2051 whose last
        // chunk ends in a 3-particle tail; the block holds the first, a
        // middle and the last particle, so the own slot falls in lanes and
        // tails alike. The block time makes the fused predictor live.
        for n in [1usize, 3, 4, 5, 7, 8, 9, 2051] {
            let sys = ring_system(n);
            let mut idx = vec![0, n / 2, n - 1];
            idx.dedup();
            let ips = ips_for(&sys, &idx);
            let mut hw = Grape6Engine::sc2002();
            let mut oracle = ScalarGrape6Engine(Grape6Engine::sc2002());
            hw.load(&sys);
            oracle.load(&sys);
            let mut got = vec![ForceResult::default(); ips.len()];
            let mut flat = got.clone();
            hw.compute(0.25, &ips, &mut got);
            oracle.compute(0.25, &ips, &mut flat);
            assert_same_bits(&got, &flat, &format!("n_j={n}"));
        }
    }

    #[test]
    fn clock_charges_every_call() {
        let sys = ring_system(32);
        let mut hw = Grape6Engine::sc2002();
        hw.load(&sys);
        assert_eq!(hw.clock().steps, 0);
        let ips = ips_for(&sys, &[0, 5, 9]);
        let mut out = vec![ForceResult::default(); 3];
        hw.compute(0.0, &ips, &mut out);
        assert_eq!(hw.clock().steps, 1);
        assert!(hw.clock().seconds() > 0.0);
        assert_eq!(hw.interaction_count(), 3 * 32);
        let report = hw.perf_report();
        assert!(report.tflops() > 0.0);
        assert!(report.efficiency < 1.0);
    }

    #[test]
    fn partitioned_machine_is_slower_but_identical() {
        // A quarter machine (one cluster) computes the same bits but its
        // modeled hardware time per call is larger.
        let sys = ring_system(64);
        let full = Grape6Config::sc2002();
        let mut quarter = full;
        quarter.timing.geometry = full.timing.geometry.partition(4).unwrap();
        let mut e_full = Grape6Engine::new(full);
        let mut e_quarter = Grape6Engine::new(quarter);
        e_full.load(&sys);
        e_quarter.load(&sys);
        let ips = ips_for(&sys, &[0, 1, 2, 3]);
        let mut out_f = vec![ForceResult::default(); 4];
        let mut out_q = vec![ForceResult::default(); 4];
        e_full.compute(0.0, &ips, &mut out_f);
        e_quarter.compute(0.0, &ips, &mut out_q);
        for k in 0..4 {
            assert_eq!(out_f[k].acc, out_q[k].acc);
        }
        // (For tiny blocks a partition can actually be *faster* — it skips
        // the inter-cluster exchange. The pipeline disadvantage shows at
        // production block sizes:)
        let t_full = full.timing.block_step(8192, 1_800_000).pipeline;
        let t_quarter = quarter.timing.block_step(8192, 1_800_000).pipeline;
        assert!((t_quarter / t_full - 4.0).abs() < 0.1, "ratio {}", t_quarter / t_full);
        assert!(
            e_quarter.perf_report().peak < e_full.perf_report().peak / 3.0,
            "quarter peak should be ~1/4"
        );
    }

    #[test]
    fn wire_bytes_match_packet_sizes() {
        use crate::wire::{F_PACKET_BYTES, I_PACKET_BYTES, J_PACKET_BYTES};
        let sys = ring_system(32);
        let mut hw = Grape6Engine::sc2002();
        assert_eq!(hw.bytes_transferred(), 0);
        hw.load(&sys);
        let load = (32 * J_PACKET_BYTES) as u64;
        assert_eq!(hw.bytes_transferred(), load);
        let ips = ips_for(&sys, &[0, 5, 9]);
        let mut out = vec![ForceResult::default(); 3];
        hw.compute(0.0, &ips, &mut out);
        let round_trip = (3 * (I_PACKET_BYTES + F_PACKET_BYTES)) as u64;
        assert_eq!(hw.bytes_transferred(), load + round_trip);
        hw.update_j(&sys, &[0, 5]);
        assert_eq!(hw.bytes_transferred(), load + round_trip + (2 * J_PACKET_BYTES) as u64);
        assert!(hw.modeled_seconds() > 0.0);
        hw.reset_counters();
        assert_eq!(hw.bytes_transferred(), 0);
    }

    #[test]
    #[should_panic(expected = "positive softening")]
    fn rejects_zero_softening() {
        let mut sys = ring_system(4);
        sys.softening = 0.0;
        let mut hw = Grape6Engine::sc2002();
        hw.load(&sys);
    }

    #[test]
    fn update_j_changes_subsequent_forces() {
        let mut sys = ring_system(16);
        let mut hw = Grape6Engine::sc2002();
        hw.load(&sys);
        let ips = ips_for(&sys, &[0]);
        let mut before = vec![ForceResult::default(); 1];
        hw.compute(0.0, &ips, &mut before);
        // Move particle 8 far away and write it back.
        sys.pos[8] = Vec3::new(500.0, 0.0, 0.0);
        hw.update_j(&sys, &[8]);
        let mut after = vec![ForceResult::default(); 1];
        hw.compute(0.0, &ips, &mut after);
        assert_ne!(before[0].acc, after[0].acc);
    }

    #[test]
    fn write_port_is_load_and_update_j() {
        // N appends are `load`, an overwrite is `update_j` of that index —
        // same j-memory words, same wire ledger — and a hole is refused.
        let mut sys = ring_system(16);
        let (fmt, precision) = (FixedPointFormat::default(), Precision::grape6());
        let mut loaded = Grape6Engine::sc2002();
        let mut written = Grape6Engine::sc2002();
        loaded.load(&sys);
        written.load(&ParticleSystem::new(sys.softening, 1.0));
        for i in 0..sys.len() {
            written.write_j(i, JParticle::from_system(&fmt, precision, &sys, i)).unwrap();
        }
        assert_eq!(written.jmem(), loaded.jmem());
        assert_eq!(written.bytes_transferred(), loaded.bytes_transferred());

        sys.pos[8] = Vec3::new(500.0, 0.0, 0.0);
        sys.time[8] = 0.5;
        loaded.update_j(&sys, &[8]);
        written.write_j(8, JParticle::from_system(&fmt, precision, &sys, 8)).unwrap();
        assert_eq!(written.jmem(), loaded.jmem());
        assert_eq!(written.bytes_transferred(), loaded.bytes_transferred());
        let ips = ips_for(&sys, &[0, 8]);
        let mut out_l = vec![ForceResult::default(); 2];
        let mut out_w = out_l.clone();
        loaded.compute(1.0, &ips, &mut out_l);
        written.compute(1.0, &ips, &mut out_w);
        assert_same_bits(&out_w, &out_l, "write port");

        let bytes = written.bytes_transferred();
        let hole = written.write_j(18, written.jmem()[0]);
        assert_eq!(hole, Err(ChipError::BadSlot { slot: 18, len: 16 }));
        assert_eq!((written.jmem().len(), written.bytes_transferred()), (16, bytes));
    }

    #[test]
    fn potential_excludes_self_term() {
        // A lone pair: potential on each must be just the partner's −m/r̃.
        let mut sys = ParticleSystem::new(0.01, 0.0);
        sys.push(Vec3::new(0.0, 0.0, 0.0), Vec3::zero(), 1e-6);
        sys.push(Vec3::new(1.0, 0.0, 0.0), Vec3::zero(), 2e-6);
        let mut hw = Grape6Engine::new(Grape6Config::sc2002_exact());
        hw.load(&sys);
        let ips = ips_for(&sys, &[0]);
        let mut out = vec![ForceResult::default(); 1];
        hw.compute(0.0, &ips, &mut out);
        let expect = -2e-6 / (1.0f64 + 0.0001).sqrt();
        assert!((out[0].pot - expect).abs() < 1e-12, "pot {} expect {expect}", out[0].pot);
    }
}
