//! The `bench_report` harness: fixed seeded workloads, schema-stable JSON.
//!
//! Each workload runs a deterministic scaled-down paper disk through one
//! engine with [`grape6_sim::Telemetry`] attached, and reports wall seconds
//! per host phase, work counters, interaction rates and the modeled machine
//! speed. The counters are exactly reproducible run-to-run (fixed seeds,
//! deterministic engines); only the wall-clock fields vary.
//!
//! The `paper_check` section derives the §5.2/§6 self-check numbers from
//! [`TimingModel::sc2002`] — the same single source of truth that
//! `tests/paper_numbers.rs::efficiency_regime_attainable` asserts against —
//! so a timing-model regression shows up in both places at once.

use crate::experiment_config;
use grape6_core::engine::ForceEngine;
use grape6_core::force::{DirectEngine, ScalarDirectEngine, FLOPS_PER_INTERACTION};
use grape6_core::particle::ParticleSystem;
use grape6_disk::DiskBuilder;
use grape6_hw::{
    FaultPlan, FaultTolerantEngine, Grape6Config, Grape6Engine, ScalarGrape6Engine, TimingModel,
};
use grape6_sim::{Simulation, TelemetryReport};
use grape6_tree::HybridTreeEngine;
use serde::{Deserialize, Serialize};

/// Bumped whenever a field of [`BenchReport`] changes meaning or name.
/// Version 2 added the `thread_scaling` section and the per-workload
/// `telemetry.host_threads` field. Version 3 added the `telemetry.faults`
/// counters, the `checkpoint` phase, and the `grape6_ft_faulty` workload.
/// Version 4 added the per-workload `lane_width` field and the
/// `kernel_microbench` section (per-kernel `interactions_per_second_real`
/// at every AoSoA lane width, with speedups over the scalar reference).
/// Version 5 added the `host_phase` section: per-block-step
/// Schedule/Predict/JUpdate nanoseconds on zero-force disks up to the
/// paper-scale 131 072-body workload, for both block schedulers.
/// Version 6 added the `service_latency` section: the seeded 256-job /
/// 4-tenant load-generator pass through the `grape6-serve` job service
/// (submit-to-complete latency percentiles, throughput, preemption count,
/// cache hit rate, and the exactness-verification counters).
/// Version 7 added the `hybrid_disk` workload, the per-workload
/// `telemetry.tree` walk counters, and the `hybrid` section (near/far
/// interaction split and measured interaction rates of the hybrid
/// tree+direct engine against the direct reference at matched N).
pub const SCHEMA_VERSION: u64 = 7;

/// Host thread counts the scaling section sweeps.
pub const SCALING_THREADS: [usize; 3] = [1, 2, 4];

/// Which force engine a workload exercises.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EngineKind {
    /// CPU direct summation.
    Direct,
    /// The GRAPE-6 functional + timing simulator (full SC2002 machine).
    Grape6,
    /// The dual-modular fault-tolerant GRAPE-6 running a seeded random
    /// [`FaultPlan`] (the given seed; 8 events over the first 40 blocks).
    Grape6Faulty(u64),
    /// The tree engine: Barnes-Hut far field at the given opening angle,
    /// exact near field inside the given neighbour radius (zero: the pure
    /// Barnes-Hut baseline).
    Hybrid {
        /// Opening angle θ of the far-field walk.
        theta: f64,
        /// Neighbour-sphere radius summed directly at full precision.
        r_near: f64,
    },
}

/// One fixed, seeded benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    /// Stable identifier (JSON `id` field).
    pub id: &'static str,
    /// Planetesimal count (two protoplanets are added on top).
    pub n: usize,
    /// Disk realization seed.
    pub seed: u64,
    /// Integration span in simulation time units.
    pub t_end: f64,
    /// Engine under test.
    pub engine: EngineKind,
}

/// The standard workload set: small direct-summation disk, a GRAPE-emulated
/// node, and the tree-code baseline, all on the same disk realization.
pub fn standard_workloads() -> Vec<WorkloadSpec> {
    vec![
        WorkloadSpec {
            id: "small_disk_direct",
            n: 256,
            seed: 20020616,
            t_end: 2.0,
            engine: EngineKind::Direct,
        },
        WorkloadSpec {
            id: "grape6_node",
            n: 512,
            seed: 20020616,
            t_end: 2.0,
            engine: EngineKind::Grape6,
        },
        WorkloadSpec {
            id: "tree_baseline",
            n: 512,
            seed: 20020616,
            t_end: 2.0,
            engine: EngineKind::Hybrid { theta: 0.5, r_near: 0.0 },
        },
        WorkloadSpec {
            id: "grape6_ft_faulty",
            n: 256,
            seed: 20020616,
            t_end: 1.0,
            engine: EngineKind::Grape6Faulty(2002),
        },
        WorkloadSpec {
            id: "hybrid_disk",
            n: 512,
            seed: 20020616,
            t_end: 2.0,
            engine: EngineKind::Hybrid { theta: 0.5, r_near: 3.0 },
        },
    ]
}

/// Result of one workload run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorkloadResult {
    /// Workload identifier.
    pub id: String,
    /// Total bodies integrated (planetesimals + protoplanets).
    pub n_bodies: u64,
    /// Disk realization seed.
    pub seed: u64,
    /// Integration span in simulation time units.
    pub t_end: f64,
    /// Full host telemetry (phase wall seconds, counters, rates).
    pub telemetry: TelemetryReport,
    /// Modeled sustained machine speed, Tflops (57 flops per interaction
    /// over modeled seconds; 0 for engines without a timing model).
    pub modeled_tflops: f64,
    /// AoSoA lane width of the force kernels the workload ran with: the
    /// engine family's compile-time constant (`"w8"` direct, `"w4"` GRAPE;
    /// the tree engine has no lane path and reports `"scalar"`). Results
    /// are bitwise lane-width-invariant — this field records which kernel
    /// produced them, not what they contain.
    pub lane_width: String,
}

/// §5.2/§6 self-check numbers derived from [`TimingModel::sc2002`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PaperCheck {
    /// Machine peak, Tflops (§1: 63.4).
    pub peak_tflops: f64,
    /// The paper's sustained fraction of peak (§6: 29.5/63.4 = 46.5 %).
    pub gordon_bell_efficiency: f64,
    /// Modeled sustained Tflops for 512-particle blocks at N = 1.8 M.
    pub sustained_tflops_block_512: f64,
    /// Modeled sustained Tflops for 16384-particle blocks at N = 1.8 M.
    pub sustained_tflops_block_16384: f64,
    /// `sustained_tflops_block_512 / peak_tflops`.
    pub efficiency_block_512: f64,
    /// `sustained_tflops_block_16384 / peak_tflops`.
    pub efficiency_block_16384: f64,
}

impl PaperCheck {
    /// Compute the check numbers from the production timing model.
    pub fn sc2002() -> Self {
        let model = TimingModel::sc2002();
        let peak = model.geometry.peak_flops();
        let lo = model.sustained_flops(512, 1_800_000);
        let hi = model.sustained_flops(16384, 1_800_000);
        Self {
            peak_tflops: peak / 1e12,
            gordon_bell_efficiency: 0.465,
            sustained_tflops_block_512: lo / 1e12,
            sustained_tflops_block_16384: hi / 1e12,
            efficiency_block_512: lo / peak,
            efficiency_block_16384: hi / peak,
        }
    }
}

/// One thread count of one workload's scaling sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ThreadScalingEntry {
    /// Host worker threads the run used.
    pub threads: usize,
    /// Wall seconds in the force phase (the parallelized hot path).
    pub force_seconds: f64,
    /// Total recorded host wall seconds.
    pub total_host_seconds: f64,
    /// Total pairwise interactions — must be identical across the sweep
    /// (the determinism contract; [`build_report`] asserts it).
    pub interactions: u64,
    /// Completed block steps — likewise thread-count invariant.
    pub block_steps: u64,
    /// `force_seconds(1 thread) / force_seconds(this run)`.
    pub speedup_force_vs_1: f64,
}

/// The scaling sweep of one workload across [`SCALING_THREADS`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ThreadScalingResult {
    /// Workload identifier (matches a `workloads` entry).
    pub id: String,
    /// One entry per thread count, in [`SCALING_THREADS`] order.
    pub entries: Vec<ThreadScalingEntry>,
}

/// The complete `BENCH_report.json` document.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BenchReport {
    /// Schema version ([`SCHEMA_VERSION`]).
    pub schema_version: u64,
    /// Git commit the report was produced from (`"unknown"` outside a repo).
    pub git_sha: String,
    /// One entry per workload, in [`standard_workloads`] order.
    pub workloads: Vec<WorkloadResult>,
    /// Host thread-scaling sweep of every workload (wall clocks vary with
    /// the thread count; work counters must not).
    pub thread_scaling: Vec<ThreadScalingResult>,
    /// Per-kernel interaction rates: the scalar oracle and the product lane
    /// kernel of each family, with the speedup of the latter over the former.
    pub kernel_microbench: Vec<KernelRate>,
    /// Per-block-step host-phase nanoseconds (Schedule / Predict / JUpdate)
    /// on zero-force disks, for both block schedulers, up to the
    /// paper-scale 131 072-body workload.
    pub host_phase: Vec<HostPhaseRow>,
    /// The seeded load-generator pass through the `grape6-serve` job
    /// service (256 jobs / 4 tenants): latency percentiles, throughput,
    /// cache hit rate, and the deterministic work counters. Optional at the
    /// parse level so `bench_compare` can *name* a report that dropped the
    /// section instead of dying on a deserialization error; every produced
    /// report carries it.
    #[serde(default)]
    pub service_latency: Option<crate::loadgen::ServiceLatencyResult>,
    /// Hybrid tree+direct engine vs the direct reference at matched N:
    /// exact near/far interaction split and measured sweep rates. Optional
    /// at the parse level for the same reason as `service_latency`; every
    /// produced report carries it.
    #[serde(default)]
    pub hybrid: Option<HybridBench>,
    /// Timing-model self-check against the paper's headline numbers.
    pub paper_check: PaperCheck,
}

/// One timed kernel microbenchmark point: a fixed blocked force sweep
/// through one kernel. The interaction count is deterministic; the wall clock
/// (and hence the rate) tracks the host.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct KernelRate {
    /// Which force kernel (`"direct"` or `"grape6"`).
    pub kernel: String,
    /// `"scalar"` for the oracle row, the family's lane width (`"w8"`
    /// direct, `"w4"` GRAPE) for the product row.
    pub lane_width: String,
    /// Bodies in the j-memory.
    pub n_bodies: u64,
    /// i-particles per force call.
    pub block: u64,
    /// Total pairwise interactions timed (reps × block × n).
    pub interactions: u64,
    /// Wall seconds over all repetitions.
    pub wall_seconds: f64,
    /// `interactions / wall_seconds`.
    pub interactions_per_second_real: f64,
    /// This row's rate over the same kernel's scalar rate (1.0 for the
    /// scalar rows themselves).
    pub speedup_vs_scalar: f64,
}

/// The `hybrid` section: full-block force sweeps of the hybrid tree+direct
/// engine against the direct reference on the same seeded disk at matched
/// N. The interaction counters (near/far split included) are exact walk
/// output — deterministic, gated bit-for-bit by `bench_compare` — while the
/// wall clocks and derived rates track the host and gate slowdown-only.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HybridBench {
    /// Total bodies in the seeded disk (planetesimals + protoplanets).
    pub n_bodies: u64,
    /// Opening angle θ of the far-field walk.
    pub theta: f64,
    /// Neighbour-sphere radius summed directly at full precision.
    pub r_near: f64,
    /// Timed full-block sweeps (after an untimed warm-up that builds the
    /// tree; the steady-state sweeps reuse it).
    pub sweeps: u64,
    /// Exact near-field pair evaluations over the timed sweeps.
    pub near_interactions: u64,
    /// Far-field (accepted cell + far leaf body) evaluations over the
    /// timed sweeps.
    pub far_interactions: u64,
    /// `near_interactions + far_interactions` (the hybrid engine's own
    /// interaction counter).
    pub hybrid_interactions: u64,
    /// Direct-summation evaluations over the same sweeps (`sweeps · N²`).
    pub direct_interactions: u64,
    /// Hybrid wall seconds over the timed sweeps (fastest rep × sweeps).
    pub hybrid_wall_seconds: f64,
    /// Direct wall seconds over the same sweeps.
    pub direct_wall_seconds: f64,
    /// `hybrid_interactions / hybrid_wall_seconds`.
    pub hybrid_interactions_per_second: f64,
    /// `direct_interactions / direct_wall_seconds`.
    pub direct_interactions_per_second: f64,
    /// Wall-clock sweep speedup of the hybrid over the direct reference
    /// (`direct_wall_seconds / hybrid_wall_seconds`).
    pub speedup_vs_direct: f64,
}

/// Time `reps` full-block sweeps of the hybrid engine and the direct
/// reference on the same seeded disk. Both engines get one untimed warm-up
/// sweep (pools spawned, j-memory paged, tree built); the hybrid's counters
/// are reset after it so the reported near/far split covers exactly the
/// timed sweeps. Each rep is timed alone and the fastest extrapolates the
/// wall (preemption only ever slows a rep down).
pub fn run_hybrid_bench(n: usize, seed: u64, theta: f64, r_near: f64, reps: usize) -> HybridBench {
    use grape6_core::particle::{ForceResult, IParticle};
    let sys = DiskBuilder::paper(n).with_seed(seed).build();
    let nb = sys.len();
    let ips: Vec<IParticle> =
        (0..nb).map(|i| IParticle { index: i, pos: sys.pos[i], vel: sys.vel[i] }).collect();
    let mut out = vec![ForceResult::default(); nb];

    let mut hybrid = HybridTreeEngine::new(theta, r_near);
    hybrid.load(&sys);
    hybrid.compute(0.0, &ips, &mut out); // warm-up: builds the tree
    hybrid.reset_counters();
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = std::time::Instant::now();
        hybrid.compute(0.0, &ips, &mut out);
        best = best.min(t0.elapsed().as_secs_f64());
    }
    std::hint::black_box(&out);
    let work = hybrid.tree_work().expect("hybrid engine reports walk counters");
    let hybrid_interactions = hybrid.interaction_count();
    let hybrid_wall_seconds = best * reps as f64;

    let (direct_interactions, direct_wall_seconds) = time_kernel(DirectEngine::new(), &sys, reps);

    let rate = |inter: u64, wall: f64| if wall > 0.0 { inter as f64 / wall } else { 0.0 };
    HybridBench {
        n_bodies: nb as u64,
        theta,
        r_near,
        sweeps: reps as u64,
        near_interactions: work.near_interactions,
        far_interactions: work.far_interactions,
        hybrid_interactions,
        direct_interactions,
        hybrid_wall_seconds,
        direct_wall_seconds,
        hybrid_interactions_per_second: rate(hybrid_interactions, hybrid_wall_seconds),
        direct_interactions_per_second: rate(direct_interactions, direct_wall_seconds),
        speedup_vs_direct: if hybrid_wall_seconds > 0.0 {
            direct_wall_seconds / hybrid_wall_seconds
        } else {
            0.0
        },
    }
}

/// The standard hybrid-vs-direct comparison the shipped report uses: the
/// `hybrid_disk` workload's opening angle and neighbour radius at a disk
/// size where the walk meaningfully undercuts N² (the lane-vectorized
/// direct kernel holds a ~10x per-interaction rate edge over the scalar
/// walk+sum, so the interaction ratio has to clear that before the wall
/// clock crosses over).
pub fn standard_hybrid_bench() -> HybridBench {
    run_hybrid_bench(8192, 20020616, 0.5, 3.0, 3)
}

/// A force engine that computes no pairwise forces: every result is zero,
/// so the Sun's central potential (applied host-side by the integrator) is
/// the only acceleration and still spreads particles across realistic
/// timestep rungs. With the O(N²) force sweep gone, the *host* paths —
/// scheduling, prediction, correction, j-update batching — are the entire
/// cost of a block step, which is exactly what the `host_phase` section and
/// the large-N smoke binary need to time at paper-scale N.
#[derive(Debug, Default, Clone)]
pub struct NullForceEngine {
    n_j: usize,
    interactions: u64,
}

impl ForceEngine for NullForceEngine {
    fn load(&mut self, sys: &ParticleSystem) {
        self.n_j = sys.len();
    }

    fn update_j(&mut self, _sys: &ParticleSystem, _indices: &[usize]) {}

    fn compute(
        &mut self,
        _t: f64,
        ips: &[grape6_core::particle::IParticle],
        out: &mut [grape6_core::particle::ForceResult],
    ) {
        // Count with the hardware convention so the workload's interaction
        // counter stays deterministic and comparable across schedulers.
        self.interactions += (ips.len() as u64) * (self.n_j as u64);
        out.fill(grape6_core::particle::ForceResult::default());
    }

    fn interaction_count(&self) -> u64 {
        self.interactions
    }

    fn reset_counters(&mut self) {
        self.interactions = 0;
    }

    fn name(&self) -> &'static str {
        "null"
    }
}

/// One row of the `host_phase` table: a fixed budget of block steps on a
/// seeded zero-force disk, timed per integrator host phase. Counters are
/// deterministic; the per-phase nanoseconds track the host.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HostPhaseRow {
    /// Block scheduler the row ran with (`"tick"` or `"heap"`).
    pub scheduler: String,
    /// Total bodies (planetesimals + protoplanets).
    pub n_bodies: u64,
    /// Block steps timed (after an untimed initialization).
    pub block_steps: u64,
    /// Active-particle steps over the timed span — scheduler-invariant
    /// (the two schedulers are bitwise-equivalent; [`run_host_phase_bench`]
    /// asserts it).
    pub particle_steps: u64,
    /// Mean wall nanoseconds per block step extracting the block from the
    /// scheduler.
    pub schedule_ns_per_block: f64,
    /// Mean wall nanoseconds per block step predicting the i-particles.
    pub predict_ns_per_block: f64,
    /// Mean wall nanoseconds per block step flushing batched j-updates.
    pub jupdate_ns_per_block: f64,
    /// Wall seconds over the whole timed span (all phases).
    pub wall_seconds: f64,
}

/// Block steps each host-phase row times.
pub const HOST_PHASE_BLOCK_STEPS: u64 = 256;

/// Planetesimal counts of the standard host-phase rows (two protoplanets
/// ride on top of each): a small 514-body disk and the paper-scale
/// 131 072-body workload. Host scheduling cost must grow sublinearly
/// between them — that is the point of the table.
pub const HOST_PHASE_SIZES: [usize; 2] = [512, 131_070];

/// Timed repetitions per host-phase cell; the fastest is reported. Wall
/// time is one-sided noise (preemption, frequency dips only ever slow a
/// run down), so the minimum is the stable estimator — single-shot rows
/// were seen drifting 3× run-to-run on a busy core.
pub const HOST_PHASE_REPS: usize = 3;

/// Time `block_steps` block steps per scheduler on zero-force disks of the
/// given planetesimal counts, keeping the fastest of [`HOST_PHASE_REPS`]
/// repetitions. Initialization (O(N), untimed) uses the same seeded disk
/// for every scheduler and repetition; the timed span asserts that both
/// schedulers do bit-identical work (equal particle-step counts).
pub fn run_host_phase_bench(sizes: &[usize], block_steps: u64) -> Vec<HostPhaseRow> {
    use grape6_core::blockstep::SchedulerKind;
    use grape6_core::integrator::BlockHermite;
    use grape6_core::observer::HostPhase;
    let mut rows: Vec<HostPhaseRow> = Vec::new();
    for &n in sizes {
        let sys0 = DiskBuilder::paper(n).with_seed(20020616).build();
        let mut steps_per_scheduler: Vec<u64> = Vec::new();
        for kind in [SchedulerKind::TickBucket, SchedulerKind::Heap] {
            let mut best: Option<HostPhaseRow> = None;
            for _ in 0..HOST_PHASE_REPS {
                let mut sys = sys0.clone();
                let mut engine = NullForceEngine::default();
                let mut integ = BlockHermite::with_scheduler(crate::experiment_config(), kind);
                integ.initialize(&mut sys, &mut engine);
                let mut tel = grape6_sim::Telemetry::new();
                let t0 = std::time::Instant::now();
                for _ in 0..block_steps {
                    integ.step_observed(&mut sys, &mut engine, &mut tel);
                }
                let wall_seconds = t0.elapsed().as_secs_f64();
                let per_block = |p: HostPhase| tel.phase_seconds(p) * 1e9 / block_steps as f64;
                let row = HostPhaseRow {
                    scheduler: kind.name().to_string(),
                    n_bodies: sys.len() as u64,
                    block_steps,
                    particle_steps: integ.stats().particle_steps,
                    schedule_ns_per_block: per_block(HostPhase::Schedule),
                    predict_ns_per_block: per_block(HostPhase::Predict),
                    jupdate_ns_per_block: per_block(HostPhase::JUpdate),
                    wall_seconds,
                };
                if best.as_ref().is_none_or(|b| row.wall_seconds < b.wall_seconds) {
                    best = Some(row);
                }
            }
            let row = best.expect("HOST_PHASE_REPS >= 1");
            steps_per_scheduler.push(row.particle_steps);
            rows.push(row);
        }
        assert!(
            steps_per_scheduler.windows(2).all(|w| w[0] == w[1]),
            "schedulers diverged on the n = {n} host-phase workload: {steps_per_scheduler:?}"
        );
    }
    rows
}

/// The standard host-phase table the shipped report uses.
pub fn standard_host_phase_bench() -> Vec<HostPhaseRow> {
    run_host_phase_bench(&HOST_PHASE_SIZES, HOST_PHASE_BLOCK_STEPS)
}

fn time_kernel<E: ForceEngine>(mut engine: E, sys: &ParticleSystem, reps: usize) -> (u64, f64) {
    engine.load(sys);
    let n = sys.len();
    let ips: Vec<grape6_core::particle::IParticle> = (0..n)
        .map(|i| grape6_core::particle::IParticle { index: i, pos: sys.pos[i], vel: sys.vel[i] })
        .collect();
    let mut out = vec![grape6_core::particle::ForceResult::default(); n];
    engine.compute(0.0, &ips, &mut out); // warm-up: page in j-memory, spawn pools

    // Time each repetition on its own and extrapolate from the fastest:
    // preemption and steal only ever slow a rep down, so the minimum is
    // the stable per-sweep estimate on a contended core. The interaction
    // counter still reflects all `reps` issued sweeps.
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = std::time::Instant::now();
        engine.compute(0.0, &ips, &mut out);
        best = best.min(t0.elapsed().as_secs_f64());
    }
    std::hint::black_box(&out);
    ((reps * n * n) as u64, best * reps as f64)
}

/// Report label of a lane width (`"w8"`, `"w4"`).
fn lane_label(width: usize) -> String {
    format!("w{width}")
}

/// The scalar-oracle row and the product lane-kernel row of one kernel
/// family, from their `(interactions, wall seconds)` timings.
fn kernel_rows(
    kernel: &str,
    lanes: usize,
    sys: &ParticleSystem,
    oracle: (u64, f64),
    product: (u64, f64),
) -> [KernelRate; 2] {
    let rate = |(n, wall): (u64, f64)| if wall > 0.0 { n as f64 / wall } else { 0.0 };
    let scalar_rate = rate(oracle);
    [("scalar".to_string(), oracle), (lane_label(lanes), product)].map(|(lane_width, timed)| {
        KernelRate {
            kernel: kernel.to_string(),
            lane_width,
            n_bodies: sys.len() as u64,
            block: sys.len() as u64,
            interactions: timed.0,
            wall_seconds: timed.1,
            interactions_per_second_real: rate(timed),
            speedup_vs_scalar: if scalar_rate > 0.0 { rate(timed) / scalar_rate } else { 0.0 },
        }
    })
}

/// Time the direct and GRAPE-6 force kernels, each through its scalar oracle
/// and its product lane kernel, on fixed seeded disks (`n_direct` /
/// `n_grape6` planetesimals, `reps` full-block sweeps each).
pub fn run_kernel_microbench(n_direct: usize, n_grape6: usize, reps: usize) -> Vec<KernelRate> {
    let d = DiskBuilder::paper(n_direct).with_seed(20020616).build();
    let g = DiskBuilder::paper(n_grape6).with_seed(20020616).build();
    let hw = || Grape6Engine::new(Grape6Config::sc2002());
    let direct = kernel_rows(
        "direct",
        grape6_core::lanes::LANE_WIDTH,
        &d,
        time_kernel(ScalarDirectEngine::default(), &d, reps),
        time_kernel(DirectEngine::new(), &d, reps),
    );
    let grape6 = kernel_rows(
        "grape6",
        grape6_hw::lanes::LANE_WIDTH,
        &g,
        time_kernel(ScalarGrape6Engine(hw()), &g, reps),
        time_kernel(hw(), &g, reps),
    );
    direct.into_iter().chain(grape6).collect()
}

/// The standard microbench configuration the shipped report uses: blocks
/// large enough that the tiled j-sweep dominates, small enough that the
/// full sweep stays under a few seconds per width.
pub fn standard_kernel_microbench() -> Vec<KernelRate> {
    run_kernel_microbench(4096, 512, 3)
}

fn run_with<E: ForceEngine>(spec: &WorkloadSpec, engine: E) -> WorkloadResult {
    let sys = DiskBuilder::paper(spec.n).with_seed(spec.seed).build();
    let n_bodies = sys.len() as u64;
    let mut sim = Simulation::with_telemetry(sys, experiment_config(), engine);
    sim.run_to(spec.t_end, spec.t_end / 4.0);
    let telemetry = sim.telemetry_report().expect("telemetry enabled");
    let modeled_tflops = if telemetry.modeled_seconds > 0.0 {
        FLOPS_PER_INTERACTION as f64 * telemetry.interactions as f64
            / telemetry.modeled_seconds
            / 1e12
    } else {
        0.0
    };
    WorkloadResult {
        id: spec.id.to_string(),
        n_bodies,
        seed: spec.seed,
        t_end: spec.t_end,
        telemetry,
        modeled_tflops,
        lane_width: String::new(),
    }
}

/// Run one workload to completion.
pub fn run_workload(spec: &WorkloadSpec) -> WorkloadResult {
    let grape_lanes = lane_label(grape6_hw::lanes::LANE_WIDTH);
    let (mut out, lanes) = match spec.engine {
        EngineKind::Direct => {
            (run_with(spec, DirectEngine::new()), lane_label(grape6_core::lanes::LANE_WIDTH))
        }
        EngineKind::Grape6 => (run_with(spec, Grape6Engine::sc2002()), grape_lanes),
        EngineKind::Grape6Faulty(seed) => {
            let plan = FaultPlan::random(seed, 8, 40);
            (run_with(spec, FaultTolerantEngine::new(Grape6Config::sc2002(), &plan)), grape_lanes)
        }
        // The tree engine has no lane path: its sums run the scalar kernel.
        EngineKind::Hybrid { theta, r_near } => {
            (run_with(spec, HybridTreeEngine::new(theta, r_near)), "scalar".to_string())
        }
    };
    out.lane_width = lanes;
    out
}

/// Run one workload's scaling sweep across [`SCALING_THREADS`], asserting
/// the determinism contract: work counters must be bit-identical at every
/// thread count (only wall clocks may differ).
pub fn run_thread_scaling(spec: &WorkloadSpec) -> ThreadScalingResult {
    let runs: Vec<WorkloadResult> = SCALING_THREADS
        .iter()
        .map(|&t| rayon::with_num_threads(t, || run_workload(spec)))
        .collect();
    let base = &runs[0].telemetry;
    for r in &runs[1..] {
        assert_eq!(r.telemetry.interactions, base.interactions, "{}: counter drift", spec.id);
        assert_eq!(r.telemetry.block_steps, base.block_steps, "{}: counter drift", spec.id);
        assert_eq!(r.telemetry.wire_bytes, base.wire_bytes, "{}: counter drift", spec.id);
    }
    let t1_force = base.phase_seconds.force;
    ThreadScalingResult {
        id: spec.id.to_string(),
        entries: SCALING_THREADS
            .iter()
            .zip(&runs)
            .map(|(&threads, r)| ThreadScalingEntry {
                threads,
                force_seconds: r.telemetry.phase_seconds.force,
                total_host_seconds: r.telemetry.total_host_seconds,
                interactions: r.telemetry.interactions,
                block_steps: r.telemetry.block_steps,
                speedup_force_vs_1: if r.telemetry.phase_seconds.force > 0.0 {
                    t1_force / r.telemetry.phase_seconds.force
                } else {
                    0.0
                },
            })
            .collect(),
    }
}

/// Run every standard workload and assemble the full report.
pub fn build_report(git_sha: String) -> BenchReport {
    let specs = standard_workloads();
    BenchReport {
        schema_version: SCHEMA_VERSION,
        git_sha,
        workloads: specs.iter().map(run_workload).collect(),
        thread_scaling: specs.iter().map(run_thread_scaling).collect(),
        kernel_microbench: standard_kernel_microbench(),
        host_phase: standard_host_phase_bench(),
        service_latency: Some(crate::loadgen::standard_service_latency()),
        hybrid: Some(standard_hybrid_bench()),
        paper_check: PaperCheck::sc2002(),
    }
}

/// Best-effort short git SHA of the source tree, `"unknown"` when git or
/// the repository is unavailable. Anchored to the build-time source
/// directory so the answer does not depend on the caller's cwd.
pub fn detect_git_sha() -> String {
    std::process::Command::new("git")
        .args(["-C", env!("CARGO_MANIFEST_DIR"), "rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_ids_are_unique() {
        let specs = standard_workloads();
        assert!(specs.len() >= 3, "at least three fixed workloads");
        let mut ids: Vec<&str> = specs.iter().map(|s| s.id).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), specs.len());
    }

    #[test]
    fn direct_workload_counters_are_rerun_identical() {
        let spec = standard_workloads()[0];
        let a = run_workload(&spec);
        let b = run_workload(&spec);
        assert_eq!(a.telemetry.interactions, b.telemetry.interactions);
        assert_eq!(a.telemetry.block_steps, b.telemetry.block_steps);
        assert_eq!(a.telemetry.particle_steps, b.telemetry.particle_steps);
        assert_eq!(a.telemetry.wire_bytes, b.telemetry.wire_bytes);
        assert_eq!(a.telemetry.modeled_seconds, b.telemetry.modeled_seconds);
        assert_eq!(a.n_bodies, spec.n as u64 + 2);
    }

    #[test]
    fn kernel_microbench_pairs_each_product_kernel_with_its_oracle() {
        let rates = run_kernel_microbench(48, 32, 1);
        let labels: Vec<(&str, &str)> =
            rates.iter().map(|r| (r.kernel.as_str(), r.lane_width.as_str())).collect();
        // The scalar row leads and anchors the speedup column.
        assert_eq!(
            labels,
            [("direct", "scalar"), ("direct", "w8"), ("grape6", "scalar"), ("grape6", "w4")]
        );
        for r in &rates {
            assert!(r.interactions > 0);
            assert_eq!(r.interactions, r.block * r.n_bodies);
            assert!(r.interactions_per_second_real > 0.0, "{}/{}", r.kernel, r.lane_width);
            assert!(r.speedup_vs_scalar > 0.0);
            if r.lane_width == "scalar" {
                assert_eq!(r.speedup_vs_scalar, 1.0);
            }
        }
    }

    #[test]
    fn host_phase_rows_cover_both_schedulers_with_identical_counters() {
        let rows = run_host_phase_bench(&[40, 96], 12);
        assert_eq!(rows.len(), 4, "two sizes x two schedulers");
        for pair in rows.chunks(2) {
            assert_eq!(pair[0].scheduler, "tick");
            assert_eq!(pair[1].scheduler, "heap");
            assert_eq!(pair[0].n_bodies, pair[1].n_bodies);
            assert_eq!(pair[0].block_steps, 12);
            // Bitwise scheduler equivalence shows up here as identical work.
            assert_eq!(pair[0].particle_steps, pair[1].particle_steps);
            for r in pair {
                assert!(r.particle_steps >= r.block_steps);
                assert!(r.schedule_ns_per_block >= 0.0);
                assert!(r.wall_seconds > 0.0);
            }
        }
    }

    #[test]
    fn null_engine_reports_zero_forces_and_hardware_counters() {
        use grape6_core::particle::{ForceResult, IParticle};
        let sys = DiskBuilder::paper(8).with_seed(1).build();
        let mut e = NullForceEngine::default();
        e.load(&sys);
        let ips: Vec<IParticle> = (0..sys.len())
            .map(|i| IParticle { index: i, pos: sys.pos[i], vel: sys.vel[i] })
            .collect();
        let mut out = vec![ForceResult::default(); sys.len()];
        e.compute(0.0, &ips, &mut out);
        assert_eq!(e.interaction_count(), (sys.len() * sys.len()) as u64);
        assert!(out.iter().all(|r| r.acc == grape6_core::vec3::Vec3::zero() && r.nn.is_none()));
    }

    #[test]
    fn hybrid_bench_counters_are_exact_and_split_adds_up() {
        let a = run_hybrid_bench(192, 7, 0.5, 3.0, 2);
        assert_eq!(a.n_bodies, 194, "two protoplanets ride on the 192 planetesimals");
        assert_eq!(a.sweeps, 2);
        assert!(a.near_interactions > 0, "r_near = 3 must capture neighbours");
        assert!(a.far_interactions > 0, "θ = 0.5 must accept cells");
        assert_eq!(a.hybrid_interactions, a.near_interactions + a.far_interactions);
        assert_eq!(a.direct_interactions, a.sweeps * a.n_bodies * a.n_bodies);
        assert!(a.hybrid_wall_seconds > 0.0 && a.direct_wall_seconds > 0.0);
        assert!(a.hybrid_interactions_per_second > 0.0);
        // Re-run: the walk counters are deterministic to the bit; only the
        // wall clocks may move.
        let b = run_hybrid_bench(192, 7, 0.5, 3.0, 2);
        assert_eq!(a.near_interactions, b.near_interactions);
        assert_eq!(a.far_interactions, b.far_interactions);
        assert_eq!(a.direct_interactions, b.direct_interactions);
    }

    #[test]
    fn paper_check_brackets_gordon_bell_efficiency() {
        let c = PaperCheck::sc2002();
        assert!((c.peak_tflops - 63.4).abs() < 0.5);
        assert!(c.efficiency_block_512 < c.gordon_bell_efficiency);
        assert!(c.efficiency_block_16384 > c.gordon_bell_efficiency);
    }

    #[test]
    fn report_round_trips_through_json() {
        // A miniature spec keeps this fast; schema is identical.
        let spec =
            WorkloadSpec { id: "mini", n: 32, seed: 7, t_end: 0.25, engine: EngineKind::Grape6 };
        let report = BenchReport {
            schema_version: SCHEMA_VERSION,
            git_sha: "deadbeef".to_string(),
            workloads: vec![run_workload(&spec)],
            thread_scaling: vec![run_thread_scaling(&spec)],
            kernel_microbench: run_kernel_microbench(64, 48, 1),
            host_phase: run_host_phase_bench(&[48], 16),
            service_latency: Some(
                crate::loadgen::run_load_gen(&{
                    crate::loadgen::LoadGenConfig {
                        jobs: 6,
                        tenants: 2,
                        clients_per_tenant: 1,
                        pool_specs: 3,
                        verify_fresh: 1,
                        n_min: 6,
                        n_max: 10,
                        t_end: 1.0,
                        ..crate::loadgen::LoadGenConfig::smoke()
                    }
                })
                .expect("tiny load pass holds its contracts"),
            ),
            hybrid: Some(run_hybrid_bench(48, 7, 0.5, 3.0, 1)),
            paper_check: PaperCheck::sc2002(),
        };
        assert!(report.workloads[0].modeled_tflops > 0.0);
        assert_eq!(report.workloads[0].lane_width, "w4", "the GRAPE family's lane width");
        assert_eq!(report.thread_scaling[0].entries.len(), SCALING_THREADS.len());
        assert!((report.thread_scaling[0].entries[0].speedup_force_vs_1 - 1.0).abs() < 1e-12);
        let json = serde_json::to_string_pretty(&report).unwrap();
        let back: BenchReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.schema_version, report.schema_version);
        assert_eq!(back.git_sha, "deadbeef");
        assert_eq!(
            back.workloads[0].telemetry.interactions,
            report.workloads[0].telemetry.interactions
        );
    }
}
