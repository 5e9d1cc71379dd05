//! The block individual-timestep Hermite integrator: the host-side program
//! that drove GRAPE-6 in the paper.
//!
//! Per block step it (1) finds the block of particles due at the next
//! commensurate time, (2) predicts them on the host, (3) asks the force
//! engine (GRAPE or CPU) for acceleration + jerk against *all* particles,
//! (4) adds the Solar external field, (5) applies the Hermite corrector and
//! the quantized Aarseth timestep, and (6) writes the corrected particles
//! back to the engine's j-memory.

use crate::blockstep::{next_block_dt, quantize_dt, SchedulerKind, TickScheduler};
use crate::central::central_acc_jerk;
use crate::engine::ForceEngine;
use crate::hermite::{initial_dt, CorrectorTile};
use crate::lanes::LANE_WIDTH;
use crate::observer::{HostPhase, StepObserver};
use crate::particle::{ForceResult, IParticle, ParticleSystem};
use crate::vec3::Vec3;

/// Integrator accuracy / step-bound parameters.
#[derive(Debug, Clone, Copy)]
pub struct HermiteConfig {
    /// Aarseth accuracy parameter η (paper-class runs use ~0.01–0.02).
    pub eta: f64,
    /// Startup accuracy parameter η_s (more conservative than η).
    pub eta_start: f64,
    /// Largest allowed step; must be a power of two.
    pub dt_max: f64,
    /// Smallest allowed step; must be a power of two.
    pub dt_min: f64,
}

impl Default for HermiteConfig {
    fn default() -> Self {
        Self { eta: 0.02, eta_start: 0.0025, dt_max: 2.0f64.powi(-3), dt_min: 2.0f64.powi(-40) }
    }
}

impl HermiteConfig {
    /// Validate the accuracy parameters (finite and positive) and the
    /// power-of-two constraints on the step bounds.
    pub fn validate(&self) -> Result<(), String> {
        let fine = |eta: f64| eta > 0.0 && eta.is_finite();
        if !(fine(self.eta) && fine(self.eta_start)) {
            return Err("eta and eta_start must be positive and finite".into());
        }
        for (name, v) in [("dt_max", self.dt_max), ("dt_min", self.dt_min)] {
            if !crate::blockstep::is_power_of_two(v) {
                return Err(format!("{name} = {v} must be a positive power of two"));
            }
        }
        if self.dt_min > self.dt_max {
            return Err("dt_min must not exceed dt_max".into());
        }
        Ok(())
    }
}

/// Summary of one block step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockStepInfo {
    /// Block time the system advanced to.
    pub t: f64,
    /// Number of particles integrated in this block.
    pub n_active: usize,
    /// Pairwise interactions evaluated (hardware convention).
    pub interactions: u64,
}

/// Aggregate statistics over a run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RunStats {
    /// Number of block steps executed.
    pub block_steps: u64,
    /// Total individual particle steps (Σ n_active).
    pub particle_steps: u64,
    /// Total pairwise interactions (hardware convention).
    pub interactions: u64,
}

impl RunStats {
    /// Mean active-block size (paper §4.2: "might be as few as one hundred or
    /// less, even for N = 10⁵ or larger").
    pub fn mean_block_size(&self) -> f64 {
        if self.block_steps == 0 {
            0.0
        } else {
            self.particle_steps as f64 / self.block_steps as f64
        }
    }

    /// Total floating-point operations under the 57-op Gordon Bell
    /// convention (paper §5.2, §6).
    pub fn total_flops(&self) -> u64 {
        self.interactions * crate::force::FLOPS_PER_INTERACTION
    }
}

/// The work done between two snapshots of the counters: `later - earlier`.
impl std::ops::Sub for RunStats {
    type Output = RunStats;

    fn sub(self, earlier: RunStats) -> RunStats {
        RunStats {
            block_steps: self.block_steps - earlier.block_steps,
            particle_steps: self.particle_steps - earlier.particle_steps,
            interactions: self.interactions - earlier.interactions,
        }
    }
}

/// The first `b` slots of the reused result buffer, for the engine to fill.
/// The buffer only grows and is never cleared: [`ForceEngine::compute`]
/// overwrites every element of `out`, so no stale result can leak through.
fn first_slots(results: &mut Vec<ForceResult>, b: usize) -> &mut [ForceResult] {
    if results.len() < b {
        results.resize(b, ForceResult::default());
    }
    &mut results[..b]
}

/// The block-timestep Hermite integrator. Generic over the force engine so
/// the same host code drives the CPU reference, the GRAPE-6 simulator, and
/// the tree baseline.
#[derive(Debug, Clone)]
pub struct BlockHermite {
    /// Accuracy configuration.
    pub config: HermiteConfig,
    scheduler: TickScheduler,
    stats: RunStats,
    // Reused workspaces (guide: keep workhorse collections out of hot loops).
    block: Vec<usize>,
    ips: Vec<IParticle>,
    results: Vec<ForceResult>,
    /// Corrected particles whose engine j-entries have not been written yet.
    /// Flushed (sorted, deduplicated) immediately before the next force
    /// evaluation — the latest point the engine contract allows bitwise: the
    /// engine only reads j-memory inside `compute`, and each entry is a pure
    /// function of the owning particle's system state, which does not change
    /// between its correction and the flush. Deferring lets writes coalesce
    /// — a particle touched both by the corrector and by an external
    /// [`Self::mark_dirty`] (e.g. an accretion merge) is sent once, not
    /// twice.
    pending_j: Vec<usize>,
    initialized: bool,
}

impl BlockHermite {
    /// Create an integrator with the given configuration.
    pub fn new(config: HermiteConfig) -> Self {
        config.validate().expect("invalid HermiteConfig");
        Self {
            config,
            scheduler: TickScheduler::new(config.dt_min),
            stats: RunStats::default(),
            block: Vec::new(),
            ips: Vec::new(),
            results: Vec::new(),
            pending_j: Vec::new(),
            initialized: false,
        }
    }

    /// [`Self::new`]: there is one scheduler kind. It remains only because
    /// `benchmark/` pins it; the ROADMAP item "One `benchmark` PR that
    /// unblocks six items" deletes it.
    pub fn with_scheduler(config: HermiteConfig, _kind: SchedulerKind) -> Self {
        Self::new(config)
    }

    /// Rebuild an integrator mid-run from a checkpointed system state,
    /// *without* re-running initialization (which would recompute initial
    /// accelerations and timesteps and so perturb the trajectory).
    ///
    /// The event schedule is fully determined by the per-particle `time[i]`
    /// and `dt[i]` the corrector left behind, so it is reconstructed here
    /// bit-exactly: every particle is due again at `time[i] + dt[i]`.
    /// The caller must separately `engine.load(sys)` (which reproduces
    /// j-memory bit-identically, since each j-entry is the encoding of the
    /// owning particle's state as of its last correction) and restore
    /// engine counters via `ForceEngine::restore_checkpoint_state`.
    pub fn resume_from(config: HermiteConfig, sys: &ParticleSystem, stats: RunStats) -> Self {
        config.validate().expect("invalid HermiteConfig");
        let mut scheduler = TickScheduler::new(config.dt_min);
        for i in 0..sys.len() {
            scheduler.push(i, sys.time[i] + sys.dt[i]);
        }
        // Reconstruct the deferred j-update set: exactly the particles the
        // corrector (or a merge) touched at the current block time — their
        // flush had not happened yet when the checkpoint was cut, so the
        // resumed run must replay it to keep engine wire accounting (and the
        // flush itself, which `engine.load` has made a no-op rewrite of
        // identical bytes) bit-for-bit aligned with an uninterrupted run.
        let pending_j: Vec<usize> = (0..sys.len()).filter(|&i| sys.time[i] == sys.t).collect();
        Self {
            config,
            scheduler,
            stats,
            block: Vec::new(),
            ips: Vec::new(),
            results: Vec::new(),
            pending_j,
            initialized: true,
        }
    }

    /// Run statistics accumulated so far.
    pub fn stats(&self) -> RunStats {
        self.stats
    }

    /// Compute initial accelerations, jerks and timesteps for every particle
    /// and build the event schedule. Must be called once before `step`.
    pub fn initialize<E: ForceEngine + ?Sized>(
        &mut self,
        sys: &mut ParticleSystem,
        engine: &mut E,
    ) {
        self.initialize_observed(sys, engine, &mut ());
    }

    /// [`Self::initialize`] with telemetry hooks. The null observer `()`
    /// makes this identical to the unobserved path.
    pub fn initialize_observed<E: ForceEngine + ?Sized, O: StepObserver>(
        &mut self,
        sys: &mut ParticleSystem,
        engine: &mut E,
        obs: &mut O,
    ) {
        assert!(!sys.is_empty(), "cannot initialize an empty system");
        let n = sys.len();
        let wire0 = engine.bytes_transferred();
        engine.load(sys);
        let before = engine.interaction_count();
        obs.phase_begin(HostPhase::Predict);
        self.ips.clear();
        for i in 0..n {
            self.ips.push(IParticle { index: i, pos: sys.pos[i], vel: sys.vel[i] });
        }
        obs.phase_end(HostPhase::Predict);
        let results = first_slots(&mut self.results, n);
        obs.phase_begin(HostPhase::Force);
        engine.compute(sys.t, &self.ips, results);
        obs.phase_end(HostPhase::Force);
        let init_interactions = engine.interaction_count() - before;
        self.stats.interactions += init_interactions;
        obs.phase_begin(HostPhase::Correct);
        for i in 0..n {
            let mut acc = self.results[i].acc;
            let mut jerk = self.results[i].jerk;
            if sys.central_mass > 0.0 {
                let (ca, cj) = central_acc_jerk(sys.central_mass, sys.pos[i], sys.vel[i]);
                acc += ca;
                jerk += cj;
            }
            sys.acc[i] = acc;
            sys.jerk[i] = jerk;
            sys.pot[i] = self.results[i].pot;
            let dt0 = initial_dt(acc, jerk, self.config.eta_start);
            sys.dt[i] = quantize_dt(dt0, self.config.dt_min, self.config.dt_max);
            sys.time[i] = sys.t;
        }
        // Times must be commensurate with steps; at startup t is typically 0,
        // otherwise shrink steps until they divide the start time.
        for i in 0..n {
            while !crate::blockstep::is_commensurate(sys.time[i], sys.dt[i])
                && sys.dt[i] > self.config.dt_min
            {
                sys.dt[i] *= 0.5;
            }
        }
        obs.phase_end(HostPhase::Correct);
        // The engine mirrored the system *before* accelerations and jerks
        // existed; mark every particle dirty so the deferred flush rewrites
        // j-memory before the first block step reads it.
        self.pending_j.clear();
        self.pending_j.extend(0..n);
        obs.phase_begin(HostPhase::Schedule);
        self.scheduler = TickScheduler::new(self.config.dt_min);
        for i in 0..n {
            self.scheduler.push(i, sys.time[i] + sys.dt[i]);
        }
        obs.phase_end(HostPhase::Schedule);
        obs.init_step(n, init_interactions);
        obs.wire_transfer(engine.bytes_transferred() - wire0);
        self.initialized = true;
    }

    /// Time of the next pending block step.
    pub fn next_time(&self) -> Option<f64> {
        self.scheduler.peek_time()
    }

    /// Particle indices of the most recent block step (sorted ascending).
    pub fn last_block(&self) -> &[usize] {
        &self.block
    }

    /// Engine results of the most recent block step, aligned with
    /// [`Self::last_block`]. Includes the nearest-neighbour reports the
    /// GRAPE-6 pipelines produce — the hook for collision detection.
    pub fn last_results(&self) -> &[ForceResult] {
        &self.results[..self.block.len()]
    }

    /// Record externally mutated particles (e.g. an accretion merge) whose
    /// engine j-entries must be rewritten before the next force evaluation.
    /// The write is batched with the integrator's own deferred updates, so a
    /// particle corrected this block *and* touched by the caller is sent to
    /// the engine once.
    pub fn mark_dirty(&mut self, indices: &[usize]) {
        self.pending_j.extend_from_slice(indices);
    }

    /// Write all deferred j-updates (sorted, deduplicated) to the engine.
    /// Runs before every block step's force evaluation.
    fn flush_j_updates<E: ForceEngine + ?Sized, O: StepObserver>(
        &mut self,
        sys: &ParticleSystem,
        engine: &mut E,
        obs: &mut O,
    ) {
        if self.pending_j.is_empty() {
            return;
        }
        obs.phase_begin(HostPhase::JUpdate);
        self.pending_j.sort_unstable();
        self.pending_j.dedup();
        engine.update_j(sys, &self.pending_j);
        self.pending_j.clear();
        obs.phase_end(HostPhase::JUpdate);
    }

    /// Advance the system by one block step. Returns what happened.
    pub fn step<E: ForceEngine + ?Sized>(
        &mut self,
        sys: &mut ParticleSystem,
        engine: &mut E,
    ) -> BlockStepInfo {
        self.step_observed(sys, engine, &mut ())
    }

    /// [`Self::step`] with telemetry hooks: phase spans around
    /// schedule / predict / force / correct / j-update, plus counter events.
    /// The null observer `()` makes this identical to the unobserved path.
    pub fn step_observed<E: ForceEngine + ?Sized, O: StepObserver>(
        &mut self,
        sys: &mut ParticleSystem,
        engine: &mut E,
        obs: &mut O,
    ) -> BlockStepInfo {
        assert!(self.initialized, "call initialize() first");
        let wire0 = engine.bytes_transferred();
        let mut block = std::mem::take(&mut self.block);
        obs.phase_begin(HostPhase::Schedule);
        let t_block = self
            .scheduler
            .pop_block(&mut block)
            .expect("scheduler exhausted — system has no particles");
        obs.phase_end(HostPhase::Schedule);
        // Host predicts the i-particles.
        obs.phase_begin(HostPhase::Predict);
        self.ips.clear();
        for &i in &block {
            let (pos, vel) = sys.predict(i, t_block);
            self.ips.push(IParticle { index: i, pos, vel });
        }
        obs.phase_end(HostPhase::Predict);
        // Flush the previous block's deferred j-updates now, immediately
        // before the engine reads j-memory. Writing here instead of at the
        // end of the previous step is bitwise-invisible: no force evaluation
        // happened in between, and the entries written are identical (the
        // corrector is the only mutator of the owning particles' state).
        self.flush_j_updates(sys, engine, obs);
        let results = first_slots(&mut self.results, block.len());
        let before = engine.interaction_count();
        obs.phase_begin(HostPhase::Force);
        engine.compute(t_block, &self.ips, results);
        obs.phase_end(HostPhase::Force);
        let interactions = engine.interaction_count() - before;

        // The corrector span also covers the scheduler re-pushes, which are
        // interleaved per particle; `Schedule` covers block extraction only.
        obs.phase_begin(HostPhase::Correct);
        self.correct_block(sys, t_block);
        obs.phase_end(HostPhase::Correct);
        // Defer the block's j-updates: they batch with any accretion marks
        // and land just before the next force evaluation (see `pending_j`).
        self.pending_j.extend_from_slice(&block);
        sys.t = t_block;

        self.stats.block_steps += 1;
        self.stats.particle_steps += block.len() as u64;
        self.stats.interactions += interactions;
        obs.block_step(block.len(), interactions);
        obs.wire_transfer(engine.bytes_transferred() - wire0);
        let info = BlockStepInfo { t: t_block, n_active: block.len(), interactions };
        self.block = block;
        info
    }

    /// Correct the slots of the block just computed (`ips`, with their engine
    /// results), [`LANE_WIDTH`] at a time through a [`CorrectorTile`], then
    /// choose each particle's next step and reschedule it, slot by slot in
    /// block order. A tile reads all its slots before it writes any; the
    /// bits are those of one slot at a time because a block holds each
    /// particle once.
    // grape6-lint: hot
    fn correct_block(&mut self, sys: &mut ParticleSystem, t_block: f64) {
        let HermiteConfig { eta, dt_min, dt_max, .. } = self.config;
        let b = self.ips.len();
        debug_assert!(self.ips.windows(2).all(|w| w[0].index < w[1].index));
        let slots = self.ips.chunks(LANE_WIDTH).zip(self.results[..b].chunks(LANE_WIDTH));
        for (ips, results) in slots {
            let mut tile = CorrectorTile::<LANE_WIDTH>::load(ips, results, sys, t_block);
            tile.compute(sys.central_mass, eta);
            let dt_des = tile.store(ips, results, sys, t_block);
            for (ip, &dt_des) in ips.iter().zip(dt_des) {
                let i = ip.index;
                sys.dt[i] = next_block_dt(sys.dt[i], dt_des, t_block, dt_min, dt_max);
                self.scheduler.push(i, t_block + sys.dt[i]);
            }
        }
    }

    /// Step until the system time reaches (at least) `t_end`.
    pub fn evolve<E: ForceEngine + ?Sized>(
        &mut self,
        sys: &mut ParticleSystem,
        engine: &mut E,
        t_end: f64,
    ) -> RunStats {
        let start = self.stats;
        while self.next_time().is_some_and(|t| t <= t_end) {
            self.step(sys, engine);
        }
        sys.t = sys.t.max(t_end.min(self.next_time().unwrap_or(t_end)));
        self.stats - start
    }

    /// Positions and velocities of all particles predicted to the common
    /// time `t` (for snapshots and diagnostics; accurate to the integrator's
    /// interpolation order).
    pub fn synchronized_state(sys: &ParticleSystem, t: f64) -> (Vec<Vec3>, Vec<Vec3>) {
        let mut pos = Vec::with_capacity(sys.len());
        let mut vel = Vec::with_capacity(sys.len());
        for i in 0..sys.len() {
            let (p, v) = sys.predict(i, t);
            pos.push(p);
            vel.push(v);
        }
        (pos, vel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::force::DirectEngine;
    use crate::units;

    fn circular_two_body(separation: f64) -> ParticleSystem {
        // Two equal masses m = 0.5 orbiting their barycentre.
        let mut sys = ParticleSystem::new(0.0, 0.0);
        let m = 0.5;
        let r = separation / 2.0;
        // Circular equal-mass binary: ω² d³ = G M_tot, each body at radius d/2.
        let omega = ((2.0 * m) / (separation * separation * separation)).sqrt();
        let speed = omega * r;
        sys.push(Vec3::new(r, 0.0, 0.0), Vec3::new(0.0, speed, 0.0), m);
        sys.push(Vec3::new(-r, 0.0, 0.0), Vec3::new(0.0, -speed, 0.0), m);
        sys
    }

    #[test]
    fn config_validation() {
        assert!(HermiteConfig::default().validate().is_ok());
        // 0.3 is not a power of two.
        let c = HermiteConfig { dt_max: 0.3, ..HermiteConfig::default() };
        assert!(c.validate().is_err());
        // One ulp off a power of two, which a rounded `log2` takes for one.
        let c =
            HermiteConfig { dt_min: 2f64.powi(-40) * (1.0 + f64::EPSILON), ..Default::default() };
        assert!(c.validate().unwrap_err().contains("dt_min"));
        let c = HermiteConfig { dt_max: 1024.0 * (1.0 + f64::EPSILON), ..HermiteConfig::default() };
        assert!(c.validate().unwrap_err().contains("dt_max"));
        let c = HermiteConfig { dt_min: 1.0, dt_max: 0.5, ..HermiteConfig::default() };
        assert!(c.validate().is_err());
        let c = HermiteConfig { eta: 0.0, ..HermiteConfig::default() };
        assert!(c.validate().is_err());
        // An infinite eta runs zero block steps and reports success.
        for (eta, eta_start) in [(f64::INFINITY, 0.0025), (0.02, f64::INFINITY)] {
            let c = HermiteConfig { eta, eta_start, ..HermiteConfig::default() };
            assert!(c.validate().unwrap_err().contains("eta and eta_start"), "{eta} {eta_start}");
        }
    }

    #[test]
    #[should_panic(expected = "invalid HermiteConfig")]
    fn constructor_rejects_bad_config() {
        let c = HermiteConfig { dt_max: 0.7, ..HermiteConfig::default() };
        let _ = BlockHermite::new(c);
    }

    #[test]
    fn initialize_sets_consistent_state() {
        let mut sys = circular_two_body(1.0);
        let mut engine = DirectEngine::new();
        let mut integ = BlockHermite::new(HermiteConfig::default());
        integ.initialize(&mut sys, &mut engine);
        assert!(integ.next_time().is_some());
        for i in 0..2 {
            assert!(sys.acc[i].norm() > 0.0);
            assert!(sys.dt[i] > 0.0);
            assert!(crate::blockstep::is_commensurate(sys.time[i], sys.dt[i]));
        }
        // Accelerations point toward each other.
        assert!(sys.acc[0].x < 0.0);
        assert!(sys.acc[1].x > 0.0);
    }

    #[test]
    fn binary_orbit_conserves_energy() {
        let mut sys = circular_two_body(1.0);
        let mut engine = DirectEngine::new();
        let mut integ = BlockHermite::new(HermiteConfig::default());
        integ.initialize(&mut sys, &mut engine);
        let e0 = crate::energy::total_energy(&sys);
        let period = units::orbital_period(1.0, 1.0); // M_tot = 1, a = 1
        integ.evolve(&mut sys, &mut engine, period * 3.0);
        let e1 = crate::energy::total_energy(&sys);
        let rel = ((e1 - e0) / e0).abs();
        assert!(rel < 5e-5, "relative energy error {rel:.3e}");
    }

    #[test]
    fn binary_orbit_returns_to_start_after_period() {
        let mut sys = circular_two_body(1.0);
        let x0 = sys.pos[0];
        let mut engine = DirectEngine::new();
        let mut integ = BlockHermite::new(HermiteConfig::default());
        integ.initialize(&mut sys, &mut engine);
        let period = units::orbital_period(1.0, 1.0);
        integ.evolve(&mut sys, &mut engine, period);
        let (pos, _) = BlockHermite::synchronized_state(&sys, period);
        assert!(
            (pos[0] - x0).norm() < 2e-3,
            "did not close orbit: displacement {}",
            (pos[0] - x0).norm()
        );
    }

    #[test]
    fn heliocentric_orbit_with_central_potential() {
        // One massless test particle on a circular heliocentric orbit at 20 AU
        // plus a distant perturber to keep the pairwise engine busy.
        let mut sys = ParticleSystem::new(0.0, 1.0);
        let r = 20.0;
        sys.push(Vec3::new(r, 0.0, 0.0), Vec3::new(0.0, units::circular_speed(r, 1.0), 0.0), 0.0);
        sys.push(
            Vec3::new(-2000.0, 0.0, 0.0),
            Vec3::new(0.0, units::circular_speed(2000.0, 1.0), 0.0),
            1e-12,
        );
        let mut engine = DirectEngine::new();
        let cfg = HermiteConfig { dt_max: 2.0f64.powi(-2), ..HermiteConfig::default() };
        let mut integ = BlockHermite::new(cfg);
        integ.initialize(&mut sys, &mut engine);
        let period = units::orbital_period(r, 1.0);
        integ.evolve(&mut sys, &mut engine, period);
        let (pos, _) = BlockHermite::synchronized_state(&sys, period);
        // Radius conserved to high accuracy on a circular orbit.
        assert!((pos[0].norm() - r).abs() / r < 1e-6);
    }

    #[test]
    fn stats_accumulate() {
        let mut sys = circular_two_body(1.0);
        let mut engine = DirectEngine::new();
        let mut integ = BlockHermite::new(HermiteConfig::default());
        integ.initialize(&mut sys, &mut engine);
        let s = integ.evolve(&mut sys, &mut engine, 1.0);
        assert!(s.block_steps > 0);
        assert!(s.particle_steps >= s.block_steps);
        assert_eq!(s.interactions, s.particle_steps * 2); // N = 2 j-particles each
        assert!(integ.stats().mean_block_size() >= 1.0);
        assert_eq!(s.total_flops(), s.interactions * 57);
    }

    #[test]
    fn particle_times_never_exceed_system_time() {
        let mut sys = circular_two_body(0.7);
        let mut engine = DirectEngine::new();
        let mut integ = BlockHermite::new(HermiteConfig::default());
        integ.initialize(&mut sys, &mut engine);
        for _ in 0..200 {
            integ.step(&mut sys, &mut engine);
            assert!(sys.validate().is_ok(), "{:?}", sys.validate());
            for i in 0..sys.len() {
                assert!(crate::blockstep::is_commensurate(sys.time[i], sys.dt[i]));
            }
        }
    }

    #[test]
    fn resume_from_reproduces_uninterrupted_run_bitwise() {
        // Uninterrupted reference run.
        let mut sys_a = circular_two_body(1.0);
        let mut eng_a = DirectEngine::new();
        let mut integ_a = BlockHermite::new(HermiteConfig::default());
        integ_a.initialize(&mut sys_a, &mut eng_a);
        integ_a.evolve(&mut sys_a, &mut eng_a, 2.0);

        // Interrupted run: stop at t = 1, "checkpoint" (clone the system),
        // rebuild integrator + engine from that state, continue to t = 2.
        let mut sys_b = circular_two_body(1.0);
        let mut eng_b = DirectEngine::new();
        let mut integ_b = BlockHermite::new(HermiteConfig::default());
        integ_b.initialize(&mut sys_b, &mut eng_b);
        integ_b.evolve(&mut sys_b, &mut eng_b, 1.0);
        let snapshot = sys_b.clone();
        let stats = integ_b.stats();

        let mut sys_c = snapshot;
        let mut eng_c = DirectEngine::new();
        eng_c.load(&sys_c);
        let mut integ_c = BlockHermite::resume_from(HermiteConfig::default(), &sys_c, stats);
        assert!(integ_c.next_time().is_some());
        integ_c.evolve(&mut sys_c, &mut eng_c, 2.0);

        assert_eq!(sys_a.t.to_bits(), sys_c.t.to_bits());
        for i in 0..sys_a.len() {
            assert_eq!(sys_a.pos[i], sys_c.pos[i]);
            assert_eq!(sys_a.vel[i], sys_c.vel[i]);
            assert_eq!(sys_a.acc[i], sys_c.acc[i]);
            assert_eq!(sys_a.jerk[i], sys_c.jerk[i]);
            assert_eq!(sys_a.time[i].to_bits(), sys_c.time[i].to_bits());
            assert_eq!(sys_a.dt[i].to_bits(), sys_c.dt[i].to_bits());
        }
        assert_eq!(integ_a.stats(), integ_c.stats());
    }

    #[test]
    fn last_results_track_the_last_block_when_it_shrinks() {
        // The result buffer only grows; what a caller sees must not. 18
        // light bodies on wide circular orbits (dt_des ≫ 1/8): 17 due at
        // 1/8, one held back to 3/16 — a 17-body block, then a 1-body one.
        let mut sys = ParticleSystem::new(0.0, 1.0);
        for k in 0..18 {
            let (r, phi) = (15.0 + k as f64, 0.35 * k as f64);
            let v = units::circular_speed(r, 1.0);
            sys.push(
                Vec3::new(r * phi.cos(), r * phi.sin(), 0.0),
                Vec3::new(-v * phi.sin(), v * phi.cos(), 0.0),
                1e-12,
            );
        }
        let cfg = HermiteConfig { dt_max: 0.125, dt_min: 0.0625, ..HermiteConfig::default() };
        let mut engine = DirectEngine::new();
        BlockHermite::new(cfg).initialize(&mut sys, &mut engine);
        assert!(sys.dt.iter().all(|&dt| dt == 0.125));
        sys.time[17] = 0.0625;
        let mut integ = BlockHermite::resume_from(cfg, &sys, RunStats::default());
        for want in [17, 1] {
            let info = integ.step(&mut sys, &mut engine);
            assert_eq!(info.n_active, want);
            assert_eq!(integ.last_block().len(), want);
            assert_eq!(integ.last_results().len(), want);
        }
        assert_eq!(integ.last_block(), &[17]);
    }

    #[test]
    fn eccentric_binary_shrinks_timestep_at_pericenter() {
        // e ≈ 0.9 binary: the step at pericenter must be much smaller than at
        // apocenter — the wide-timescale-range property of §3.
        let mut sys = ParticleSystem::new(0.0, 0.0);
        let m = 0.5;
        // Start at apocenter r_a = 1, with speed for e = 0.9: v_a² = GM(1-e)/(a(1+e)), a = r_a/(1+e)
        let e = 0.9;
        let ra: f64 = 1.0;
        let a = ra / (1.0 + e);
        let va = ((1.0 - e) / (1.0 + e) / a).sqrt(); // GM_tot = 1
        sys.push(Vec3::new(ra / 2.0, 0.0, 0.0), Vec3::new(0.0, va / 2.0, 0.0), m);
        sys.push(Vec3::new(-ra / 2.0, 0.0, 0.0), Vec3::new(0.0, -va / 2.0, 0.0), m);
        let mut engine = DirectEngine::new();
        let mut integ = BlockHermite::new(HermiteConfig::default());
        integ.initialize(&mut sys, &mut engine);
        let dt_apo = sys.dt[0];
        let period = units::orbital_period(a, 1.0);
        // Integrate half a period → pericenter.
        integ.evolve(&mut sys, &mut engine, period / 2.0);
        let dt_peri = sys.dt[0];
        assert!(dt_peri < dt_apo / 8.0, "dt_peri {dt_peri} not ≪ dt_apo {dt_apo}");
        // Energy still conserved through the close passage.
        let drift = ((crate::energy::total_energy(&sys)
            - (-0.5 * m * m / (2.0 * a) * 2.0)) // E = -G m1 m2 / 2a
            / (m * m / (2.0 * a)))
            .abs();
        assert!(drift < 1e-4, "energy drift {drift:.2e}");
    }
}
