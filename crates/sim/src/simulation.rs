//! The top-level simulation driver: wires a disk, an integrator and a force
//! engine together, records diagnostics, and produces the paper's §6-style
//! accounting.

use crate::accretion::{try_merge, AccretionLog, RadiusModel};
use crate::encounters::EncounterLog;
use crate::stats::{BlockSizeHistogram, TimestepHistogram};
use crate::telemetry::{Telemetry, TelemetryReport};
use grape6_core::energy::EnergyLedger;
use grape6_core::engine::ForceEngine;
use grape6_core::integrator::{BlockHermite, HermiteConfig, RunStats};
use grape6_core::observer::{HostPhase, StepObserver};
use grape6_core::particle::ParticleSystem;
use serde::{Deserialize, Serialize};

/// One row of the diagnostic time series.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DiagnosticRow {
    /// Simulation time.
    pub t: f64,
    /// Relative energy error since t = 0.
    pub energy_error: f64,
    /// Relative angular-momentum error since t = 0.
    pub l_error: f64,
    /// Block steps so far.
    pub block_steps: u64,
    /// Particle steps so far.
    pub particle_steps: u64,
    /// Interactions so far.
    pub interactions: u64,
    /// Mean block size so far.
    pub mean_block: f64,
}

/// A running simulation: system + integrator + engine + bookkeeping.
///
/// The engine is the last field, so code that picks its engine at run time
/// holds a `Box<Simulation<dyn ForceEngine>>`: it builds a concrete
/// `Simulation<E>` and boxes it, and every method but the constructors runs
/// on either.
pub struct Simulation<E: ForceEngine + ?Sized> {
    /// The particle system.
    pub sys: ParticleSystem,
    /// The block-timestep integrator.
    pub integrator: BlockHermite,
    /// Energy/angular-momentum reference.
    pub ledger: EnergyLedger,
    /// Block-size statistics.
    pub block_hist: BlockSizeHistogram,
    /// Diagnostic time series.
    pub diagnostics: Vec<DiagnosticRow>,
    /// Collision model, when accretion is enabled.
    pub radius_model: Option<RadiusModel>,
    /// Mergers recorded so far.
    pub accretion_log: AccretionLog,
    /// Close-encounter detector, when enabled.
    pub encounter_log: Option<EncounterLog>,
    /// Host wall-clock telemetry, when enabled (see
    /// [`Simulation::with_telemetry`]). `None` keeps the hot path on the
    /// uninstrumented integrator entry points.
    pub telemetry: Option<Telemetry>,
    /// The force engine (CPU, GRAPE-6 simulator, or tree).
    pub engine: E,
}

impl<E: ForceEngine> Simulation<E> {
    /// Initialize a simulation: one full-N force sweep for the initial
    /// forces, potentials and timesteps, then the energy ledger in O(N) from
    /// those potentials ([`EnergyLedger::from_sweep`]; no host pair sum).
    pub fn new(sys: ParticleSystem, config: HermiteConfig, engine: E) -> Self {
        Self::init(sys, config, engine, false)
    }

    /// Like [`Simulation::new`], but with host wall-clock telemetry attached
    /// from the first force evaluation (the initialization sweep is timed and
    /// counted too).
    pub fn with_telemetry(sys: ParticleSystem, config: HermiteConfig, engine: E) -> Self {
        Self::init(sys, config, engine, true)
    }

    fn init(
        mut sys: ParticleSystem,
        config: HermiteConfig,
        mut engine: E,
        telemetry: bool,
    ) -> Self {
        let mut integrator = BlockHermite::new(config);
        let telemetry = if telemetry {
            let mut t = Telemetry::new();
            integrator.initialize_observed(&mut sys, &mut engine, &mut t);
            Some(t)
        } else {
            integrator.initialize(&mut sys, &mut engine);
            None
        };
        let ledger = EnergyLedger::from_sweep(&sys);
        Self {
            sys,
            integrator,
            ledger,
            block_hist: BlockSizeHistogram::new(),
            diagnostics: Vec::new(),
            radius_model: None,
            accretion_log: AccretionLog::default(),
            encounter_log: None,
            telemetry,
            engine,
        }
    }
}

impl<E: ForceEngine + ?Sized> Simulation<E> {
    /// Telemetry summary for everything run so far (`None` when telemetry is
    /// disabled).
    pub fn telemetry_report(&self) -> Option<TelemetryReport> {
        self.telemetry.as_ref().map(|t| t.report(&self.stats(), &self.engine))
    }

    /// Enable collision detection + perfect merging using the engines'
    /// nearest-neighbour reports (paper §2 planetary accretion).
    pub fn enable_accretion(&mut self, model: RadiusModel) {
        self.radius_model = Some(model);
    }

    /// Enable close-encounter logging inside `hill_threshold` mutual Hill
    /// radii (paper §3's timescale-range measurements).
    pub fn enable_encounter_log(&mut self, hill_threshold: f64) {
        self.encounter_log = Some(EncounterLog::new(hill_threshold));
    }

    /// Current simulation time.
    pub fn t(&self) -> f64 {
        self.sys.t
    }

    /// Run statistics so far.
    pub fn stats(&self) -> RunStats {
        self.integrator.stats()
    }

    /// Advance one block step, applying accretion if enabled.
    pub fn step(&mut self) -> grape6_core::integrator::BlockStepInfo {
        let info = match &mut self.telemetry {
            Some(t) => self.integrator.step_observed(&mut self.sys, &mut self.engine, t),
            None => self.integrator.step(&mut self.sys, &mut self.engine),
        };
        self.block_hist.record(info.n_active);
        if self.encounter_log.is_none() && self.radius_model.is_none() {
            return info;
        }
        // Gather (active index, neighbour) pairs once for both consumers;
        // merging mutates the system.
        let pairs: Vec<(usize, grape6_core::particle::Neighbor)> = self
            .integrator
            .last_block()
            .iter()
            .zip(self.integrator.last_results())
            .filter_map(|(&i, r)| r.nn.map(|nn| (i, nn)))
            .collect();
        if let Some(log) = &mut self.encounter_log {
            for &(i, nn) in &pairs {
                log.observe(&self.sys, info.t, i, nn);
            }
        }
        if let Some(model) = self.radius_model {
            let mut touched: Vec<usize> = Vec::new();
            for (i, nn) in pairs {
                if let Some(ev) = try_merge(&mut self.sys, i, nn, &model, &mut self.accretion_log) {
                    touched.push(ev.survivor);
                    touched.push(ev.absorbed);
                }
            }
            // A party in the block batches with the integrator's deferred
            // block updates: the write lands (sorted, deduplicated) before
            // the next force evaluation, so a survivor corrected this block
            // is sent to the engine once instead of twice. A party outside
            // the block keeps its own time (see `try_merge`), and a resumed
            // run rebuilds the deferred set from the bodies at the block time
            // only, so its entry is written now.
            let t = self.sys.t;
            let (deferred, mut now): (Vec<usize>, Vec<usize>) =
                touched.into_iter().partition(|&x| self.sys.time[x] == t);
            self.integrator.mark_dirty(&deferred);
            if !now.is_empty() {
                now.sort_unstable();
                now.dedup();
                self.engine.update_j(&self.sys, &now);
            }
        }
        info
    }

    /// Advance to `t_end`, recording a diagnostic row every
    /// `diag_interval` time units (0 disables).
    pub fn run_to(&mut self, t_end: f64, diag_interval: f64) -> RunStats {
        let start = self.stats();
        let mut next_diag =
            if diag_interval > 0.0 { self.sys.t + diag_interval } else { f64::INFINITY };
        while self.integrator.next_time().is_some_and(|t| t <= t_end) {
            self.step();
            if self.sys.t >= next_diag {
                self.record_diagnostics();
                next_diag += diag_interval;
            }
        }
        self.stats() - start
    }

    /// Append a diagnostic row at the current state (energies measured on
    /// states synchronized to the current time).
    pub fn record_diagnostics(&mut self) {
        if let Some(t) = &mut self.telemetry {
            t.phase_begin(HostPhase::Io);
        }
        let s = self.stats();
        let (energy_error, l_error) = self.ledger.synchronized_errors(&self.sys, self.sys.t);
        self.diagnostics.push(DiagnosticRow {
            t: self.sys.t,
            energy_error,
            l_error,
            block_steps: s.block_steps,
            particle_steps: s.particle_steps,
            interactions: s.interactions,
            mean_block: s.mean_block_size(),
        });
        if let Some(t) = &mut self.telemetry {
            t.phase_end(HostPhase::Io);
        }
    }

    /// Timestep histogram at the current state.
    pub fn timestep_histogram(&self) -> TimestepHistogram {
        TimestepHistogram::from_system(&self.sys)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grape6_core::force::DirectEngine;
    use grape6_core::units;
    use grape6_disk::DiskBuilder;

    fn tiny_sim() -> Simulation<DirectEngine> {
        let sys = DiskBuilder::paper(64).with_seed(9).build();
        let cfg = HermiteConfig { dt_max: 2.0f64.powi(-2), ..HermiteConfig::default() };
        Simulation::new(sys, cfg, DirectEngine::new())
    }

    #[test]
    fn simulation_initializes_and_steps() {
        let mut sim = tiny_sim();
        assert_eq!(sim.t(), 0.0);
        let info = sim.step();
        assert!(info.n_active >= 1);
        assert!(sim.t() > 0.0);
        assert_eq!(sim.block_hist.bins.iter().sum::<u64>(), 1);
    }

    #[test]
    fn run_to_advances_and_accounts() {
        let mut sim = tiny_sim();
        let stats = sim.run_to(1.0, 0.25);
        assert!(stats.block_steps > 0);
        assert!(sim.t() >= 1.0 - 0.26);
        assert!(!sim.diagnostics.is_empty());
        // Diagnostics monotone in time.
        for w in sim.diagnostics.windows(2) {
            assert!(w[1].t >= w[0].t);
        }
    }

    #[test]
    fn short_run_conserves_energy() {
        let mut sim = tiny_sim();
        // One inner orbital period at 15 AU ≈ 58 yr ≈ 365 units is too long
        // for a unit test; 2 time units ≈ 0.3 yr is enough to exercise many
        // block steps.
        sim.run_to(2.0, 0.0);
        sim.record_diagnostics();
        let err = sim.diagnostics.last().unwrap().energy_error;
        assert!(err < 1e-6, "energy error {err:e}");
    }

    #[test]
    fn timestep_histogram_nonempty_after_init() {
        let sim = tiny_sim();
        let h = sim.timestep_histogram();
        assert_eq!(h.total(), 66); // 64 planetesimals + 2 protoplanets
        assert!(h.occupied_rungs() >= 1);
    }

    #[test]
    fn telemetry_counters_match_engine() {
        let sys = DiskBuilder::paper(64).with_seed(9).build();
        let cfg = HermiteConfig { dt_max: 2.0f64.powi(-2), ..HermiteConfig::default() };
        let mut sim = Simulation::with_telemetry(sys, cfg, DirectEngine::new());
        sim.run_to(1.0, 0.25);
        let rep = sim.telemetry_report().unwrap();
        assert!(rep.block_steps > 0);
        assert_eq!(rep.interactions, sim.engine.interaction_count());
        assert_eq!(rep.engine, "direct-cpu");
        assert!(rep.phase_calls.io > 0, "diagnostics should record Io spans");
        assert!((rep.total_host_seconds - rep.phase_seconds.total()).abs() < 1e-12);
    }

    #[test]
    fn orbital_periods_preserved() {
        // The two protoplanets should stay on their circular orbits.
        let mut sim = tiny_sim();
        sim.run_to(units::years_to_time(1.0), 0.0);
        let (pos, _) = grape6_core::integrator::BlockHermite::synchronized_state(&sim.sys, sim.t());
        let r_u = pos[64].norm();
        let r_n = pos[65].norm();
        assert!((r_u - 20.0).abs() < 0.05, "proto-Uranus at {r_u}");
        assert!((r_n - 30.0).abs() < 0.05, "proto-Neptune at {r_n}");
    }
}
