//! The four simulation workloads: input generation, the rep (set-up +
//! fixed work), the traced rep, and the outside-in probes.
//!
//! Every workload integrates a seeded `DiskBuilder::paper(n)` disk from
//! t = 0 to a fixed simulated time with `HermiteConfig { dt_max: 2³,
//! ..default }`. One *pacer* body rides along (see [`build_system`]) so the
//! number of block steps is the same for every seed.

use crate::stats;
use crate::trace::{
    totals_by_kind, KindTotals, PhaseObserver, Recorder, SharedRecorder, Span, SpanKind, Traced,
    SMALL_BLOCK_MAX,
};
use grape6_core::blockstep::SchedulerKind;
use grape6_core::energy::EnergyLedger;
use grape6_core::engine::{ForceEngine, TreeWork};
use grape6_core::force::{DirectEngine, FLOPS_PER_INTERACTION};
use grape6_core::integrator::{BlockHermite, HermiteConfig, RunStats};
use grape6_core::observer::StepObserver;
use grape6_core::particle::{ForceResult, IParticle, ParticleSystem};
use grape6_core::vec3::Vec3;
use grape6_disk::DiskBuilder;
use grape6_hw::{Grape6Config, Grape6Engine};
use grape6_sim::stats::BlockSizeHistogram;
use grape6_sim::{decode_checkpoint, encode_checkpoint, Simulation};
use grape6_tree::{HybridTreeEngine, InteractionLists, Octree};
use std::collections::BTreeMap;
use std::time::Instant;

/// Largest tolerated `|ΔE/E|` at the end of a real-engine workload.
pub const ENERGY_TOLERANCE: f64 = 1e-4;

/// Which force engine a workload drives (and so which layer owns its
/// engine rows in the ledger).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// `core::force::DirectEngine`.
    Direct,
    /// `tree::hybrid::HybridTreeEngine::new(0.5, 1.0)`.
    Hybrid,
    /// `grape::engine::Grape6Engine` on `Grape6Config::single_host()`.
    Grape6,
    /// The benchmark's own [`ZeroForceEngine`].
    Zero,
}

/// Size and shape of one simulation workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimParams {
    /// Force engine.
    pub engine: EngineKind,
    /// Planetesimals (two protoplanets and the pacer ride on top).
    pub n: usize,
    /// Simulated time the measured work integrates to.
    pub t_end: f64,
    /// Orbital radius of the pacer body, in AU.
    pub pacer_a: f64,
    /// In-memory checkpoint every this many block steps, plus one
    /// encode + decode at the end (0 = the workload has no checkpoints).
    pub checkpoint_every: u64,
}

/// The integrator configuration every simulation workload uses.
pub fn hermite_config() -> HermiteConfig {
    HermiteConfig { dt_max: 2.0f64.powi(3), ..HermiteConfig::default() }
}

/// Pacer radius that pins the smallest occupied timestep rung at 2⁻⁷.
///
/// On a circular orbit the Aarseth criterion gives exactly `dt = √η / Ω =
/// √η · a^1.5`; a = 0.1815 AU puts that at 1.4 · 2⁻⁷, mid-rung, so rounding
/// never moves it.
pub const PACER_A_RUNG_M7: f64 = 0.1815;

/// Pacer radius for rung 2⁻⁴ (`√0.02 · a^1.5 = 1.4 · 2⁻⁴`).
pub const PACER_A_RUNG_M4: f64 = 0.726;

/// Build the workload's input from its seed: the paper disk plus the pacer.
///
/// Block steps per unit of simulated time are set by the *smallest* occupied
/// timestep rung — an extreme-value statistic of the disk realization that
/// swings 2–3× between seeds while particle steps stay within 0.3 %. The
/// pacer is a body of negligible mass on a tight circular orbit around the
/// central mass whose own (constant) timestep sits below every disk
/// particle's, so every seed runs the same number of block steps and nearly
/// all of them are the one-particle blocks the paper calls the common case
/// (§4.2). Its orbital phase comes from the seed.
pub fn build_system(n: usize, seed: u64, pacer_a: f64) -> ParticleSystem {
    let mut sys = DiskBuilder::paper(n).with_seed(seed).build();
    let phase = (seed % 3600) as f64 * (std::f64::consts::TAU / 3600.0);
    let speed = (sys.central_mass / pacer_a).sqrt();
    let (s, c) = phase.sin_cos();
    sys.push(
        Vec3::new(pacer_a * c, pacer_a * s, 0.0),
        Vec3::new(-speed * s, speed * c, 0.0),
        1e-20,
    );
    sys
}

/// A force engine that returns zero force: isolates the O(N) host terms.
#[derive(Debug, Default, Clone)]
pub struct ZeroForceEngine {
    n_j: usize,
    interactions: u64,
}

impl ForceEngine for ZeroForceEngine {
    fn load(&mut self, sys: &ParticleSystem) {
        self.n_j = sys.len();
    }

    fn update_j(&mut self, _sys: &ParticleSystem, _indices: &[usize]) {}

    fn compute(&mut self, _t: f64, ips: &[IParticle], out: &mut [ForceResult]) {
        // Hardware counting convention, so the counter stays comparable.
        self.interactions += (ips.len() as u64) * (self.n_j as u64);
        out.fill(ForceResult::default());
    }

    fn interaction_count(&self) -> u64 {
        self.interactions
    }

    fn reset_counters(&mut self) {
        self.interactions = 0;
    }

    fn name(&self) -> &'static str {
        "zero-force"
    }
}

/// Exact work counters of one rep. Equal across reps, thread counts and
/// traced/untraced runs of the same seed, or the run is incorrect.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkCounters {
    /// Block steps of the measured work (initialization excluded).
    pub block_steps: u64,
    /// Particle steps of the measured work.
    pub particle_steps: u64,
    /// Engine interactions of the measured work.
    pub interactions: u64,
    /// Modeled wire bytes, whole run.
    pub wire_bytes: u64,
    /// Bit pattern of the modeled machine seconds, whole run.
    pub modeled_seconds_bits: u64,
    /// Tree-walk counters, whole run (zero for engines without a tree).
    pub tree_work: TreeWork,
    /// In-memory checkpoints encoded.
    pub checkpoints: u64,
    /// Bytes of the last checkpoint encoded.
    pub checkpoint_bytes: u64,
    /// FNV-1a 64 of the final time, position and velocity bits.
    pub state_digest: u64,
}

impl WorkCounters {
    /// `name = value` pairs for the human table and the aux record.
    pub fn fields(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("block_steps", self.block_steps),
            ("particle_steps", self.particle_steps),
            ("interactions", self.interactions),
            ("wire_bytes", self.wire_bytes),
            ("modeled_seconds_bits", self.modeled_seconds_bits),
            ("tree_builds", self.tree_work.builds),
            ("tree_cells_opened", self.tree_work.cells_opened),
            ("tree_near_interactions", self.tree_work.near_interactions),
            ("tree_far_interactions", self.tree_work.far_interactions),
            ("checkpoints", self.checkpoints),
            ("checkpoint_bytes", self.checkpoint_bytes),
            ("state_digest", self.state_digest),
        ]
    }
}

/// FNV-1a 64 over a byte stream.
pub fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Digest of a system's time, positions and velocities.
pub fn state_digest(sys: &ParticleSystem) -> u64 {
    let vec_bits = |v: &Vec3| [v.x.to_bits(), v.y.to_bits(), v.z.to_bits()];
    fnv1a(
        std::iter::once(sys.t.to_bits())
            .chain(sys.pos.iter().flat_map(vec_bits))
            .chain(sys.vel.iter().flat_map(vec_bits))
            .flat_map(u64::to_le_bytes),
    )
}

/// Timings and counters of one rep.
#[derive(Debug, Clone)]
pub struct RepOutcome {
    /// Inputs built → ready to step.
    pub setup_s: f64,
    /// The fixed measured work.
    pub evolve_s: f64,
    /// Exact work done.
    pub counters: WorkCounters,
    /// Correctness checks run on this rep: `(what, passed)`.
    pub checks: Vec<(String, bool)>,
}

/// What a traced rep adds to a [`RepOutcome`].
#[derive(Debug)]
pub struct TraceOutcome {
    /// The rep itself (same timings and counters as an untraced one).
    pub rep: RepOutcome,
    /// Spans of the set-up (engine load, initialization sweep).
    pub setup_spans: Vec<Span>,
    /// Spans of the measured work.
    pub evolve_spans: Vec<Span>,
    /// Active particles of every measured block step.
    pub block_sizes: Vec<u32>,
    /// `DiskBuilder::build` (+ pacer) wall time.
    pub disk_build_s: f64,
    /// `BlockHermite::initialize` wall time (engine load + full-N sweep).
    pub init_s: f64,
    /// `EnergyLedger::open` wall time (0 where the workload opens none).
    pub ledger_open_s: f64,
    /// Bodies in the system.
    pub bodies: usize,
    /// Probe results gathered on the final state (per-layer metric → value).
    pub probes: BTreeMap<&'static str, f64>,
}

/// Assemble a `Simulation` from its public fields exactly as
/// `Simulation::new_ext` does, but with a caller-supplied observer on the
/// initialization sweep and an optional energy ledger (`large_n_smoke` does
/// the same to skip the O(N²) ledger). Returns the simulation and the wall
/// seconds of `initialize` and of `EnergyLedger::open`.
fn assemble<E: ForceEngine, O: StepObserver>(
    mut sys: ParticleSystem,
    mut engine: E,
    obs: &mut O,
    with_ledger: bool,
) -> (Simulation<E>, f64, f64) {
    let mut integrator = BlockHermite::with_scheduler(hermite_config(), SchedulerKind::TickBucket);
    let t0 = Instant::now();
    integrator.initialize_observed(&mut sys, &mut engine, obs);
    let init_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let ledger =
        if with_ledger { EnergyLedger::open(&sys) } else { EnergyLedger { e0: 0.0, l0: 0.0 } };
    let ledger_s = if with_ledger { t1.elapsed().as_secs_f64() } else { 0.0 };
    let sim = Simulation {
        sys,
        integrator,
        engine,
        ledger,
        block_hist: BlockSizeHistogram::new(),
        diagnostics: Vec::new(),
        radius_model: None,
        accretion_log: Default::default(),
        encounter_log: None,
        telemetry: None,
    };
    (sim, init_s, ledger_s)
}

fn counters_since<E: ForceEngine>(
    sim: &Simulation<E>,
    start: RunStats,
    checkpoints: u64,
    checkpoint_bytes: u64,
) -> WorkCounters {
    let end = sim.stats();
    WorkCounters {
        block_steps: end.block_steps - start.block_steps,
        particle_steps: end.particle_steps - start.particle_steps,
        interactions: end.interactions - start.interactions,
        wire_bytes: sim.engine.bytes_transferred(),
        modeled_seconds_bits: sim.engine.modeled_seconds().to_bits(),
        tree_work: sim.engine.tree_work().unwrap_or_default(),
        checkpoints,
        checkpoint_bytes,
        state_digest: state_digest(&sim.sys),
    }
}

/// The measured work: step to `t_end`, checkpointing where the workload
/// does. `step_once` advances one block step (the product's
/// `Simulation::step`, or its traced replica); `rec` is present on traced
/// reps only. Returns `(checkpoints, last checkpoint bytes, decoded twin)`.
fn evolve<E: ForceEngine>(
    sim: &mut Simulation<E>,
    params: &SimParams,
    rec: Option<&SharedRecorder>,
    mut step_once: impl FnMut(&mut Simulation<E>, u32),
    make_twin_engine: impl Fn() -> E,
) -> (u64, u64, Option<Simulation<E>>) {
    let span = |kind: SpanKind, units: u64| {
        if let Some(r) = rec {
            r.borrow_mut().begin(kind, units);
        }
    };
    let close = || {
        if let Some(r) = rec {
            r.borrow_mut().end();
        }
    };
    let mut steps: u64 = 0;
    let mut checkpoints = 0;
    while sim.integrator.next_time().is_some_and(|t| t <= params.t_end) {
        step_once(sim, steps as u32);
        steps += 1;
        if params.checkpoint_every > 0 && steps.is_multiple_of(params.checkpoint_every) {
            span(SpanKind::CheckpointEncode, 0);
            drop(encode_checkpoint(sim));
            close();
            checkpoints += 1;
        }
    }
    if params.checkpoint_every == 0 {
        return (0, 0, None);
    }
    span(SpanKind::CheckpointEncode, 0);
    let ck = encode_checkpoint(sim);
    close();
    checkpoints += 1;
    let last_bytes = ck.len() as u64;
    span(SpanKind::CheckpointDecode, last_bytes);
    let twin = decode_checkpoint(ck, make_twin_engine()).expect("own checkpoint decodes");
    close();
    (checkpoints, last_bytes, Some(twin))
}

/// Correctness checks on a finished rep (outside every timed region).
fn check_rep<E: ForceEngine>(
    kind: EngineKind,
    sim: &mut Simulation<E>,
    twin: Option<Simulation<E>>,
) -> Vec<(String, bool)> {
    let mut checks = Vec::new();
    if kind != EngineKind::Zero {
        sim.record_diagnostics();
        let err = sim.diagnostics.last().map_or(f64::NAN, |d| d.energy_error.abs());
        checks
            .push((format!("|dE/E| = {err:.3e} <= {ENERGY_TOLERANCE:e}"), err <= ENERGY_TOLERANCE));
    }
    if let Some(mut twin) = twin {
        for _ in 0..8 {
            sim.step();
            twin.step();
        }
        let same = state_digest(&sim.sys) == state_digest(&twin.sys)
            && sim.stats() == twin.stats()
            && sim.sys.dt.iter().zip(&twin.sys.dt).all(|(a, b)| a.to_bits() == b.to_bits());
        checks.push(("decode(encode(sim)) + 8 block steps is bit-identical".to_string(), same));
    }
    checks
}

/// One untraced rep: the product API exactly as a user drives it.
fn rep_with<E: ForceEngine>(
    params: &SimParams,
    seed: u64,
    make: impl Fn() -> E,
    check: bool,
) -> RepOutcome {
    let t0 = Instant::now();
    let sys = build_system(params.n, seed, params.pacer_a);
    let mut sim = if params.engine == EngineKind::Zero {
        assemble(sys, make(), &mut (), false).0
    } else {
        Simulation::new(sys, hermite_config(), make())
    };
    let setup_s = t0.elapsed().as_secs_f64();
    let start = sim.stats();
    let t1 = Instant::now();
    let (checkpoints, bytes, twin) = evolve(
        &mut sim,
        params,
        None,
        |sim, _| {
            sim.step();
        },
        &make,
    );
    let evolve_s = t1.elapsed().as_secs_f64();
    let counters = counters_since(&sim, start, checkpoints, bytes);
    let checks = if check { check_rep(params.engine, &mut sim, twin) } else { Vec::new() };
    RepOutcome { setup_s, evolve_s, counters, checks }
}

/// One traced rep: the same calls, made from outside with the engine
/// wrapped in [`Traced`] and a [`PhaseObserver`] on the integrator.
/// `Simulation::step` cannot take a foreign observer, so its body
/// (`integrator.step_observed` + `block_hist.record`) is performed here; the
/// state digest, compared against the untraced reps, shows the replica is
/// faithful.
fn traced_rep_with<E: ForceEngine>(
    params: &SimParams,
    seed: u64,
    make: impl Fn() -> E,
    expected_steps: usize,
) -> TraceOutcome {
    let rec = Recorder::shared(16 + expected_steps * 10);
    let mut obs = PhaseObserver::new(rec.clone(), expected_steps + 16);
    let t0 = Instant::now();
    let sys = build_system(params.n, seed, params.pacer_a);
    let disk_build_s = t0.elapsed().as_secs_f64();
    let bodies = sys.len();
    let engine = Traced::new(make(), rec.clone());
    let (mut sim, init_s, ledger_open_s) =
        assemble(sys, engine, &mut obs, params.engine != EngineKind::Zero);
    let setup_s = t0.elapsed().as_secs_f64();
    let setup_spans = rec.borrow_mut().take();
    obs.block_sizes.clear();

    let start = sim.stats();
    let t1 = Instant::now();
    let (checkpoints, bytes, twin) = evolve(
        &mut sim,
        params,
        Some(&rec),
        |sim, step| {
            let mut r = rec.borrow_mut();
            r.set_request(step);
            r.begin(SpanKind::SimStep, 0);
            r.begin(SpanKind::IntegratorStep, 0);
            drop(r);
            let info = sim.integrator.step_observed(&mut sim.sys, &mut sim.engine, &mut obs);
            rec.borrow_mut().end();
            sim.block_hist.record(info.n_active);
            rec.borrow_mut().end();
        },
        || Traced::new(make(), rec.clone()),
    );
    let evolve_s = t1.elapsed().as_secs_f64();
    drop(twin);
    let counters = counters_since(&sim, start, checkpoints, bytes);
    let evolve_spans = rec.borrow_mut().take();
    let block_sizes = std::mem::take(&mut obs.block_sizes);

    let mut probes = BTreeMap::new();
    if params.checkpoint_every == 0 {
        // (The host-path workload times its checkpoints inside the measured
        // work instead.)
        probe_checkpoint(&sim, Traced::new(make(), rec.clone()), &mut probes);
    }
    if params.engine == EngineKind::Hybrid {
        probe_octree(&mut sim, &mut probes);
    }
    // Spans opened by the probes (they step the traced engine) are not part
    // of the measured work.
    let _ = rec.borrow_mut().take();
    TraceOutcome {
        rep: RepOutcome { setup_s, evolve_s, counters, checks: Vec::new() },
        setup_spans,
        evolve_spans,
        block_sizes,
        disk_build_s,
        init_s,
        ledger_open_s,
        bodies,
        probes,
    }
}

/// Time `encode_checkpoint` / `decode_checkpoint` once on the final state.
fn probe_checkpoint<E: ForceEngine>(
    sim: &Simulation<E>,
    twin_engine: E,
    out: &mut BTreeMap<&'static str, f64>,
) {
    const MIB: f64 = 1024.0 * 1024.0;
    let t0 = Instant::now();
    let ck = encode_checkpoint(sim);
    let enc_s = t0.elapsed().as_secs_f64();
    let bytes = ck.len() as f64;
    let t1 = Instant::now();
    let twin = decode_checkpoint(ck, twin_engine).expect("own checkpoint decodes");
    let dec_s = t1.elapsed().as_secs_f64();
    drop(twin);
    out.insert("sim.checkpoint.bytes", bytes);
    out.insert("sim.checkpoint.encode_mib_per_s", bytes / MIB / enc_s);
    out.insert("sim.checkpoint.decode_mib_per_s", bytes / MIB / dec_s);
}

/// Time `Octree::build` and `Octree::interaction_lists` on eight states of
/// the run (the final one, then every fourth block step after it).
fn probe_octree<E: ForceEngine>(sim: &mut Simulation<E>, out: &mut BTreeMap<&'static str, f64>) {
    const STATES: usize = 8;
    const WALKS: usize = 256;
    let (theta, r_near) = HYBRID_THETA_RNEAR;
    let mut build_ns = Vec::with_capacity(STATES);
    let mut walk_ns = Vec::with_capacity(STATES);
    let mut nodes = 0.0;
    let mut lists = InteractionLists::default();
    for _ in 0..STATES {
        let (pos, vel) = BlockHermite::synchronized_state(&sim.sys, sim.t());
        let t0 = Instant::now();
        let tree = Octree::build(&pos, &vel, &sim.sys.mass);
        build_ns.push(t0.elapsed().as_nanos() as f64 / pos.len() as f64);
        nodes = tree.node_count() as f64;
        let stride = (pos.len() / WALKS).max(1);
        let mut entries = 0usize;
        let t1 = Instant::now();
        for p in pos.iter().step_by(stride) {
            tree.interaction_lists(*p, theta, r_near, &mut lists);
            entries += lists.len();
        }
        walk_ns.push(t1.elapsed().as_nanos() as f64 / entries.max(1) as f64);
        for _ in 0..4 {
            sim.step();
        }
    }
    out.insert("tree.octree.build_ns_per_body", stats::median(&build_ns));
    out.insert("tree.octree.walk_ns_per_list_entry", stats::median(&walk_ns));
    out.insert("tree.octree.nodes", nodes);
}

/// Opening angle and near radius of the hybrid workload's engine.
pub const HYBRID_THETA_RNEAR: (f64, f64) = (0.5, 1.0);

fn make_direct() -> DirectEngine {
    DirectEngine::new()
}

fn make_hybrid() -> HybridTreeEngine {
    HybridTreeEngine::new(HYBRID_THETA_RNEAR.0, HYBRID_THETA_RNEAR.1)
}

fn make_grape6() -> Grape6Engine {
    Grape6Engine::new(Grape6Config::single_host())
}

/// Run one untraced rep of a simulation workload. `check` adds the
/// correctness checks (energy budget, checkpoint round trip) after the
/// timed regions.
pub fn rep(params: &SimParams, seed: u64, check: bool) -> RepOutcome {
    match params.engine {
        EngineKind::Direct => rep_with(params, seed, make_direct, check),
        EngineKind::Hybrid => rep_with(params, seed, make_hybrid, check),
        EngineKind::Grape6 => rep_with(params, seed, make_grape6, check),
        EngineKind::Zero => rep_with(params, seed, ZeroForceEngine::default, check),
    }
}

/// Run one traced rep of a simulation workload, then its probes.
pub fn traced_rep(params: &SimParams, seed: u64, expected_steps: usize) -> TraceOutcome {
    match params.engine {
        EngineKind::Direct => traced_rep_with(params, seed, make_direct, expected_steps),
        EngineKind::Hybrid => traced_rep_with(params, seed, make_hybrid, expected_steps),
        EngineKind::Grape6 => traced_rep_with(params, seed, make_grape6, expected_steps),
        EngineKind::Zero => traced_rep_with(params, seed, ZeroForceEngine::default, expected_steps),
    }
}

/// Per-layer metrics of a traced simulation rep.
///
/// `untraced_evolve_s` is the same work measured without instruments in the
/// same process, on one thread like every measured rep; `parallel` is
/// `(threads, evolve seconds)` of the same work on more threads (`None`
/// where the workload has no parallel engine).
pub fn layer_metrics(
    params: &SimParams,
    tr: &TraceOutcome,
    untraced_evolve_s: f64,
    parallel: Option<(usize, f64)>,
) -> BTreeMap<&'static str, f64> {
    let mut m: BTreeMap<&'static str, f64> = tr.probes.clone();
    let ev = totals_by_kind(&tr.evolve_spans);
    let su = totals_by_kind(&tr.setup_spans);
    let of = |t: &[KindTotals], k: SpanKind| t[k.index()].clone();
    let wall_ns = tr.rep.evolve_s * 1e9;
    let c = &tr.rep.counters;
    let steps = c.block_steps.max(1) as f64;
    let psteps = c.particle_steps.max(1) as f64;

    // core.blockstep
    m.insert(
        "core.blockstep.schedule_ns_per_step",
        of(&ev, SpanKind::Schedule).self_ns as f64 / steps,
    );
    let sizes: Vec<f64> = tr.block_sizes.iter().map(|&b| f64::from(b)).collect();
    if !sizes.is_empty() {
        m.insert("core.blockstep.block_size_mean", sizes.iter().sum::<f64>() / sizes.len() as f64);
        let small = sizes.iter().filter(|&&b| b <= SMALL_BLOCK_MAX as f64).count();
        m.insert("core.blockstep.small_block_share", small as f64 / sizes.len() as f64);
    }
    let step_ms: Vec<f64> = tr
        .evolve_spans
        .iter()
        .filter(|s| s.kind == SpanKind::SimStep)
        .map(|s| s.duration_ns() as f64 / 1e6)
        .collect();
    m.insert("core.blockstep.step_ms_p50", stats::percentile(&step_ms, 50.0));
    m.insert("core.blockstep.step_ms_p99", stats::percentile(&step_ms, 99.0));

    // core.integrator
    m.insert(
        "core.integrator.predict_ns_per_pstep",
        of(&ev, SpanKind::Predict).self_ns as f64 / psteps,
    );
    m.insert(
        "core.integrator.correct_ns_per_pstep",
        of(&ev, SpanKind::Correct).self_ns as f64 / psteps,
    );
    m.insert(
        "core.integrator.jupdate_ns_per_pstep",
        of(&ev, SpanKind::JUpdate).total_ns as f64 / psteps,
    );
    m.insert(
        "core.integrator.unattributed_share",
        of(&ev, SpanKind::IntegratorStep).self_ns as f64 / wall_ns,
    );
    m.insert("core.integrator.init_s", tr.init_s);
    m.insert("core.energy.ledger_open_s", tr.ledger_open_s);
    m.insert("disk.builder.build_s", tr.disk_build_s);
    m.insert("sim.simulation.step_self_ns", of(&ev, SpanKind::SimStep).self_ns as f64 / steps);

    // The engine rows belong to whichever layer owns the workload's engine.
    let large = of(&ev, SpanKind::EngineComputeLarge);
    let small = of(&ev, SpanKind::EngineComputeSmall);
    let compute_s = (large.total_ns + small.total_ns) as f64 / 1e9;
    let rate = if compute_s > 0.0 { c.interactions as f64 / compute_s } else { 0.0 };
    match params.engine {
        EngineKind::Direct => {
            let n_j = tr.bodies as f64;
            let per = |t: &KindTotals| {
                if t.units > 0 {
                    t.total_ns as f64 / (t.units as f64 * n_j)
                } else {
                    0.0
                }
            };
            m.insert("core.force.compute_s", compute_s);
            m.insert("core.force.interactions", c.interactions as f64);
            m.insert("core.force.interactions_per_s", rate);
            m.insert("core.force.large_block_ns_per_interaction", per(&large));
            m.insert("core.force.small_block_ns_per_interaction", per(&small));
            m.insert(
                "core.force.update_j_s",
                of(&ev, SpanKind::EngineUpdateJ).total_ns as f64 / 1e9,
            );
            m.insert("core.force.load_s", of(&su, SpanKind::EngineLoad).total_ns as f64 / 1e9);
            // Ceiling: the initialization sweep is one pure full-N x N call
            // on the loaded engine — the kernel's best case, same run.
            let sweep = of(&su, SpanKind::EngineComputeLarge);
            if sweep.total_ns > 0 {
                let ceiling = n_j * n_j / (sweep.total_ns as f64 / 1e9);
                m.insert("core.force.ceiling_interactions_per_s", ceiling);
                m.insert("core.force.ceiling_ratio", rate / ceiling);
            }
        }
        EngineKind::Grape6 => {
            let modeled = f64::from_bits(c.modeled_seconds_bits);
            let total_interactions = tr.bodies as f64 * tr.bodies as f64 + c.interactions as f64;
            m.insert("grape.engine.compute_s", compute_s);
            m.insert("grape.engine.interactions", c.interactions as f64);
            m.insert("grape.engine.interactions_per_s", rate);
            m.insert("grape.engine.wire_bytes", c.wire_bytes as f64);
            m.insert("grape.engine.modeled_seconds", modeled);
            if modeled > 0.0 {
                let flops = total_interactions * FLOPS_PER_INTERACTION as f64;
                m.insert("grape.engine.modeled_tflops", flops / modeled / 1e12);
                let host_s =
                    compute_s + of(&su, SpanKind::EngineComputeLarge).total_ns as f64 / 1e9;
                m.insert("grape.engine.host_s_per_modeled_s", host_s / modeled);
            }
        }
        EngineKind::Hybrid => {
            let w = c.tree_work;
            // One build belongs to the initialization sweep.
            let builds = w.builds.saturating_sub(1) as f64;
            m.insert("tree.hybrid.compute_s", compute_s);
            m.insert("tree.hybrid.builds", builds);
            m.insert("tree.hybrid.cells_opened", w.cells_opened as f64);
            m.insert("tree.hybrid.near_interactions", w.near_interactions as f64);
            m.insert("tree.hybrid.far_interactions", w.far_interactions as f64);
            m.insert(
                "tree.hybrid.list_len_mean",
                w.list_len_sum as f64 / w.lists_emitted.max(1) as f64,
            );
            m.insert("tree.hybrid.interactions_per_s", rate);
            let build_s = m.get("tree.octree.build_ns_per_body").copied().unwrap_or(0.0)
                * tr.bodies as f64
                / 1e9;
            if compute_s > 0.0 {
                m.insert("tree.hybrid.build_share", builds * build_s / compute_s);
            }
        }
        EngineKind::Zero => {}
    }

    // Checkpoints timed inside the measured work (host-path workload).
    let enc = of(&ev, SpanKind::CheckpointEncode);
    let dec = of(&ev, SpanKind::CheckpointDecode);
    if enc.count > 0 {
        const MIB: f64 = 1024.0 * 1024.0;
        let bytes = c.checkpoint_bytes as f64;
        m.insert("sim.checkpoint.bytes", bytes);
        m.insert(
            "sim.checkpoint.encode_mib_per_s",
            bytes * enc.count as f64 / MIB / (enc.total_ns as f64 / 1e9),
        );
        if dec.total_ns > 0 {
            m.insert("sim.checkpoint.decode_mib_per_s", bytes / MIB / (dec.total_ns as f64 / 1e9));
        }
    }

    if let Some((threads, parallel_s)) = parallel {
        m.insert("shims.rayon.t1_evolve_wall_s", untraced_evolve_s);
        m.insert("shims.rayon.t2_evolve_wall_s", parallel_s);
        m.insert(
            "shims.rayon.parallel_efficiency",
            untraced_evolve_s / (threads as f64 * parallel_s),
        );
    }
    let attributed: u64 =
        SpanKind::ALL.iter().filter(|k| !k.is_wrapper()).map(|k| ev[k.index()].self_ns).sum();
    m.insert("trace.coverage", attributed as f64 / wall_ns);
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(engine: EngineKind) -> SimParams {
        SimParams {
            engine,
            n: 96,
            t_end: 0.5,
            pacer_a: PACER_A_RUNG_M4,
            checkpoint_every: if engine == EngineKind::Zero { 3 } else { 0 },
        }
    }

    #[test]
    fn equal_seeds_build_equal_systems_and_different_seeds_do_not() {
        let a = build_system(64, 11, PACER_A_RUNG_M7);
        let b = build_system(64, 11, PACER_A_RUNG_M7);
        let c = build_system(64, 12, PACER_A_RUNG_M7);
        assert_eq!(a.len(), 64 + 2 + 1);
        assert_eq!(state_digest(&a), state_digest(&b));
        assert_ne!(state_digest(&a), state_digest(&c));
    }

    #[test]
    fn pacer_sits_on_a_circular_orbit_at_its_rung() {
        let sys = build_system(8, 3, PACER_A_RUNG_M7);
        let (p, v) = (sys.pos[sys.len() - 1], sys.vel[sys.len() - 1]);
        assert!((p.norm() - PACER_A_RUNG_M7).abs() < 1e-12);
        assert!(p.dot(v).abs() < 1e-12, "velocity is tangential");
        assert!((v.norm2() * p.norm() - sys.central_mass).abs() < 1e-12, "v² r = GM");
        for (a, rung) in [(PACER_A_RUNG_M7, -7), (PACER_A_RUNG_M4, -4)] {
            let dt = hermite_config().eta.sqrt() * a.powf(1.5);
            assert_eq!(dt.log2().floor() as i32, rung);
        }
    }

    #[test]
    fn traced_rep_is_bit_identical_to_untraced_on_every_engine() {
        for engine in [EngineKind::Direct, EngineKind::Hybrid, EngineKind::Grape6, EngineKind::Zero]
        {
            let p = tiny(engine);
            let plain = rep(&p, 5, true);
            let traced = traced_rep(&p, 5, 64);
            assert_eq!(plain.counters, traced.rep.counters, "{engine:?}");
            assert!(plain.counters.block_steps > 0);
            assert!(plain.checks.iter().all(|(_, ok)| *ok), "{:?}", plain.checks);
            assert_eq!(traced.block_sizes.len() as u64, traced.rep.counters.block_steps);
        }
    }

    #[test]
    fn traced_engine_forwards_counters_state_and_tree_work() {
        let rec = Recorder::shared(64);
        let sys = build_system(48, 9, PACER_A_RUNG_M4);
        let ips: Vec<IParticle> = (0..sys.len())
            .map(|i| IParticle { index: i, pos: sys.pos[i], vel: sys.vel[i] })
            .collect();
        let mut out = vec![ForceResult::default(); ips.len()];

        let mut bare = make_grape6();
        let mut wrapped = Traced::new(make_grape6(), rec.clone());
        for e in [&mut bare as &mut dyn ForceEngine, &mut wrapped] {
            e.load(&sys);
            e.compute(0.0, &ips, &mut out);
            e.update_j(&sys, &[0, 1]);
        }
        assert_eq!(wrapped.name(), bare.name());
        assert_eq!(wrapped.interaction_count(), bare.interaction_count());
        assert_eq!(wrapped.bytes_transferred(), bare.bytes_transferred());
        assert!(wrapped.bytes_transferred() > 0);
        assert_eq!(wrapped.modeled_seconds().to_bits(), bare.modeled_seconds().to_bits());
        assert_eq!(wrapped.fault_stats(), bare.fault_stats());
        let state = wrapped.checkpoint_state();
        assert_eq!(state, bare.checkpoint_state());
        assert!(!state.is_empty());
        wrapped.restore_checkpoint_state(&state).expect("restores own state");
        wrapped.reset_counters();
        assert_eq!(wrapped.interaction_count(), 0);

        let mut tree = Traced::new(make_hybrid(), rec.clone());
        assert_eq!(tree.tree_work(), Some(TreeWork::default()));
        tree.load(&sys);
        tree.compute(0.0, &ips, &mut out);
        assert_eq!(
            tree.tree_work().map(|w| (w.builds, w.lists_emitted)),
            Some((1, ips.len() as u64))
        );
        let kinds: Vec<SpanKind> = rec.borrow_mut().take().iter().map(|s| s.kind).collect();
        assert_eq!(
            kinds,
            [
                SpanKind::EngineLoad,
                SpanKind::EngineComputeLarge,
                SpanKind::EngineUpdateJ,
                SpanKind::EngineLoad,
                SpanKind::EngineComputeLarge
            ]
        );
    }

    #[test]
    fn layer_rows_account_for_the_traced_wall() {
        let p = tiny(EngineKind::Direct);
        let plain = rep(&p, 5, false);
        let traced = traced_rep(&p, 5, 64);
        let m = layer_metrics(&p, &traced, plain.evolve_s, Some((2, plain.evolve_s)));
        let cov = m["trace.coverage"];
        assert!(cov > 0.5 && cov <= 1.0, "coverage {cov}");
        assert!(m["core.force.interactions"] > 0.0);
        assert!(m["core.force.ceiling_interactions_per_s"] > 0.0);
        assert!(m["sim.checkpoint.bytes"] > 0.0);
    }
}
