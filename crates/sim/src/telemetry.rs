//! Wall-clock telemetry for the host side of a run.
//!
//! [`Telemetry`] is a [`StepObserver`] that mirrors, for the host CPU, what
//! `grape6_hw::HardwareClock` does for the modeled machine: phase-scoped
//! span timers and counts (schedule/predict/force/correct/j-update/io/
//! checkpoint), plus the one count nothing else keeps, the initialization
//! sweep's interactions. Its [`TelemetryReport`] reads the run's totals from
//! their owners — [`RunStats`] and the engine — and derives rates
//! (interactions per *real* vs per *modeled* second, host-time fraction).
//!
//! Telemetry is strictly opt-in: the integrator's uninstrumented entry
//! points pass the null observer `()` whose hooks monomorphize to nothing,
//! so the hot path pays only when a `Telemetry` is actually attached.

use grape6_core::engine::{FaultStats, ForceEngine, TreeWork};
use grape6_core::fields::Fields;
use grape6_core::integrator::RunStats;
use grape6_core::observer::{HostPhase, StepObserver};
use serde::{Deserialize, Serialize};
use std::time::Instant;

const N_PHASES: usize = HostPhase::ALL.len();

/// Accumulated host-side wall times for one run.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    phase_seconds: [f64; N_PHASES],
    phase_calls: [u64; N_PHASES],
    open: [Option<Instant>; N_PHASES],
    init_interactions: u64,
    host_threads: u64,
}

impl Telemetry {
    /// A fresh, empty accumulator, stamped with the host thread count the
    /// parallel kernels will use (`rayon::current_num_threads()` at attach
    /// time). Work counters never depend on it — only wall clocks do.
    pub fn new() -> Self {
        Self { host_threads: rayon::current_num_threads() as u64, ..Self::default() }
    }

    /// Host worker threads the parallel kernels use (recorded at creation).
    pub fn host_threads(&self) -> u64 {
        self.host_threads
    }

    /// Wall seconds accumulated in `phase` (closed spans only).
    pub fn phase_seconds(&self, phase: HostPhase) -> f64 {
        self.phase_seconds[phase.index()]
    }

    /// Closed spans recorded for `phase`.
    pub fn phase_calls(&self, phase: HostPhase) -> u64 {
        self.phase_calls[phase.index()]
    }

    /// Total recorded host wall time: the sum over all phase spans. This is
    /// the quantity the per-phase times decompose exactly (bit-for-bit,
    /// summed in [`HostPhase::ALL`] order).
    pub fn total_seconds(&self) -> f64 {
        HostPhase::ALL.iter().map(|p| self.phase_seconds(*p)).sum()
    }

    /// Serialize the accumulator for a run checkpoint as fixed-width
    /// little-endian words: every closed span, then seven counter words, five
    /// of them written from their owners (`stats`, the sweep count 1, the
    /// engine's `wire_bytes`) to keep the blob's frozen layout. Open spans are
    /// not carried (a checkpoint is always written between spans).
    pub fn checkpoint_state(&self, stats: &RunStats, wire_bytes: u64) -> Vec<u8> {
        let mut s = Vec::with_capacity(N_PHASES * 16 + 7 * 8);
        for v in &self.phase_seconds {
            s.extend_from_slice(&v.to_le_bytes());
        }
        for v in &self.phase_calls {
            s.extend_from_slice(&v.to_le_bytes());
        }
        for v in [
            stats.block_steps,
            stats.particle_steps,
            stats.interactions - self.init_interactions,
            1,
            self.init_interactions,
            wire_bytes,
            self.host_threads,
        ] {
            s.extend_from_slice(&v.to_le_bytes());
        }
        s
    }

    /// Rebuild an accumulator from [`Self::checkpoint_state`] bytes, skipping
    /// the copied words and refusing more sweep interactions than `stats`
    /// holds. The resumed process keeps its *own* thread count (wall clocks
    /// from the interrupted run still add in, but new spans time the new host).
    pub fn restore_checkpoint_state(state: &[u8], stats: &RunStats) -> Result<Self, String> {
        let mut f = Fields::new(state, "telemetry checkpoint state");
        let mut t = Telemetry::new();
        for v in &mut t.phase_seconds {
            *v = f.f64()?;
        }
        for v in &mut t.phase_calls {
            *v = f.u64()?;
        }
        // Block steps, particle steps, step interactions, sweeps.
        f.take(4 * 8)?;
        t.init_interactions = f.u64()?;
        // Wire bytes, the writer's thread count.
        f.take(2 * 8)?;
        f.finish()?;
        if t.init_interactions > stats.interactions {
            return Err(format!(
                "telemetry: {} initialization interactions exceed the run's {}",
                t.init_interactions, stats.interactions
            ));
        }
        Ok(t)
    }

    /// Fold another accumulator into this one. Counts add exactly, in any
    /// order; wall times add as f64.
    pub fn merge(&mut self, other: &Telemetry) {
        for k in 0..N_PHASES {
            self.phase_seconds[k] += other.phase_seconds[k];
            self.phase_calls[k] += other.phase_calls[k];
        }
        self.init_interactions += other.init_interactions;
        self.host_threads = self.host_threads.max(other.host_threads);
    }

    /// Snapshot everything into a serializable report, with the run's totals
    /// from `stats` and the engine's name, wire bytes and modeled time.
    pub fn report<E: ForceEngine + ?Sized>(&self, stats: &RunStats, engine: &E) -> TelemetryReport {
        let total = self.total_seconds();
        let force = self.phase_seconds(HostPhase::Force);
        let modeled = engine.modeled_seconds();
        let interactions = stats.interactions;
        let rate = |secs: f64| if secs > 0.0 { interactions as f64 / secs } else { 0.0 };
        TelemetryReport {
            engine: engine.name().to_string(),
            phase_seconds: PhaseSeconds::from_array(&self.phase_seconds),
            phase_calls: PhaseCalls::from_array(&self.phase_calls),
            total_host_seconds: total,
            block_steps: stats.block_steps,
            particle_steps: stats.particle_steps,
            init_interactions: self.init_interactions,
            interactions,
            wire_bytes: engine.bytes_transferred(),
            host_threads: self.host_threads,
            faults: engine.fault_stats(),
            tree: engine.tree_work(),
            modeled_seconds: modeled,
            interactions_per_second_real: rate(total),
            interactions_per_second_modeled: rate(modeled),
            host_time_fraction: if total > 0.0 { (total - force) / total } else { 0.0 },
        }
    }
}

impl StepObserver for Telemetry {
    // The one wall-clock read on the simulation path: the telemetry seam.
    #[allow(clippy::disallowed_methods)]
    fn phase_begin(&mut self, phase: HostPhase) {
        self.open[phase.index()] = Some(Instant::now());
    }

    fn phase_end(&mut self, phase: HostPhase) {
        let k = phase.index();
        if let Some(t0) = self.open[k].take() {
            self.phase_seconds[k] += t0.elapsed().as_secs_f64();
            self.phase_calls[k] += 1;
        }
    }

    fn init_step(&mut self, _n: usize, interactions: u64) {
        self.init_interactions += interactions;
    }
}

/// Per-phase wall seconds, with one named field per [`HostPhase`] so the
/// JSON schema is stable and self-describing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct PhaseSeconds {
    /// Scheduler pops/pushes.
    pub schedule: f64,
    /// Host-side i-particle prediction.
    pub predict: f64,
    /// Force-engine calls.
    pub force: f64,
    /// Hermite corrector sweep.
    pub correct: f64,
    /// Engine j-memory write-back.
    pub j_update: f64,
    /// Snapshot/diagnostic output.
    pub io: f64,
    /// Checkpoint serialization (driver-level; absent in pre-fault-layer
    /// reports, hence defaulted).
    #[serde(default)]
    pub checkpoint: f64,
}

impl PhaseSeconds {
    fn from_array(a: &[f64; N_PHASES]) -> Self {
        Self {
            schedule: a[HostPhase::Schedule.index()],
            predict: a[HostPhase::Predict.index()],
            force: a[HostPhase::Force.index()],
            correct: a[HostPhase::Correct.index()],
            j_update: a[HostPhase::JUpdate.index()],
            io: a[HostPhase::Io.index()],
            checkpoint: a[HostPhase::Checkpoint.index()],
        }
    }

    /// Sum over all phases, in [`HostPhase::ALL`] order.
    pub fn total(&self) -> f64 {
        self.schedule
            + self.predict
            + self.force
            + self.correct
            + self.j_update
            + self.io
            + self.checkpoint
    }
}

/// Per-phase span counts (same field layout as [`PhaseSeconds`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseCalls {
    /// Scheduler pops/pushes.
    pub schedule: u64,
    /// Host-side i-particle prediction.
    pub predict: u64,
    /// Force-engine calls.
    pub force: u64,
    /// Hermite corrector sweep.
    pub correct: u64,
    /// Engine j-memory write-back.
    pub j_update: u64,
    /// Snapshot/diagnostic output.
    pub io: u64,
    /// Checkpoint serialization (defaulted for pre-fault-layer reports).
    #[serde(default)]
    pub checkpoint: u64,
}

impl PhaseCalls {
    fn from_array(a: &[u64; N_PHASES]) -> Self {
        Self {
            schedule: a[HostPhase::Schedule.index()],
            predict: a[HostPhase::Predict.index()],
            force: a[HostPhase::Force.index()],
            correct: a[HostPhase::Correct.index()],
            j_update: a[HostPhase::JUpdate.index()],
            io: a[HostPhase::Io.index()],
            checkpoint: a[HostPhase::Checkpoint.index()],
        }
    }
}

/// The serializable end-of-run telemetry summary (`--telemetry out.json`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TelemetryReport {
    /// Engine name (`direct-cpu`, `grape6`, `grape6-ft`, `hybrid-tree`).
    pub engine: String,
    /// Wall seconds per host phase.
    pub phase_seconds: PhaseSeconds,
    /// Span counts per host phase.
    pub phase_calls: PhaseCalls,
    /// Total recorded host wall seconds (= sum of `phase_seconds`).
    pub total_host_seconds: f64,
    /// Completed block steps (the integrator's [`RunStats`]).
    pub block_steps: u64,
    /// Active-particle steps, the sum of block sizes ([`RunStats`]).
    pub particle_steps: u64,
    /// Interactions charged during initialization (subset of `interactions`).
    pub init_interactions: u64,
    /// Total pairwise interactions (hardware convention, init included; [`RunStats`]).
    pub interactions: u64,
    /// Bytes through the modeled host↔hardware wire: the engine's own
    /// `bytes_transferred` counter, the one its checkpoint carries.
    pub wire_bytes: u64,
    /// Host worker threads the parallel kernels used (wall clocks scale
    /// with this; work counters are independent of it by construction).
    #[serde(default)]
    pub host_threads: u64,
    /// Fault-tolerance counters (all zero for engines without a fault
    /// model; defaulted for pre-fault-layer reports).
    #[serde(default)]
    pub faults: FaultStats,
    /// Tree-walk work counters: builds, cells opened, near/far interaction
    /// split, list lengths (`None` for engines that never build a tree;
    /// defaulted for pre-tree-layer reports).
    #[serde(default)]
    pub tree: Option<TreeWork>,
    /// Modeled machine seconds (0 for engines without a timing model).
    pub modeled_seconds: f64,
    /// Interactions per real (host wall) second.
    pub interactions_per_second_real: f64,
    /// Interactions per modeled machine second (0 without a timing model).
    pub interactions_per_second_modeled: f64,
    /// Fraction of recorded host time spent outside the force phase.
    pub host_time_fraction: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use grape6_core::force::DirectEngine;

    fn spin(tele: &mut Telemetry, phase: HostPhase) {
        tele.phase_begin(phase);
        std::hint::black_box((0..1000).sum::<u64>());
        tele.phase_end(phase);
    }

    #[test]
    fn spans_accumulate_and_total_is_phase_sum() {
        let mut t = Telemetry::new();
        spin(&mut t, HostPhase::Force);
        spin(&mut t, HostPhase::Predict);
        spin(&mut t, HostPhase::Force);
        assert_eq!(t.phase_calls(HostPhase::Force), 2);
        assert_eq!(t.phase_calls(HostPhase::Predict), 1);
        assert_eq!(t.phase_calls(HostPhase::Io), 0);
        assert!(t.phase_seconds(HostPhase::Force) > 0.0);
        let sum: f64 = HostPhase::ALL.iter().map(|p| t.phase_seconds(*p)).sum();
        assert_eq!(t.total_seconds(), sum);
    }

    #[test]
    fn unmatched_end_is_ignored() {
        let mut t = Telemetry::new();
        t.phase_end(HostPhase::Correct);
        assert_eq!(t.phase_calls(HostPhase::Correct), 0);
        assert_eq!(t.total_seconds(), 0.0);
    }

    #[test]
    fn counters_track_events() {
        // Telemetry counts the initialization sweep; the run's totals are
        // read from its stats and the engine when the report is made.
        let mut t = Telemetry::new();
        t.init_step(10, 100);
        let stats = RunStats { block_steps: 2, particle_steps: 6, interactions: 160 };
        let rep = t.report(&stats, &DirectEngine::new());
        assert_eq!(rep.init_interactions, 100);
        assert_eq!((rep.block_steps, rep.particle_steps, rep.interactions), (2, 6, 160));
        assert_eq!(rep.wire_bytes, 0, "the CPU engine's own counter");
    }

    #[test]
    fn merge_adds_counters_exactly() {
        let mut a = Telemetry::new();
        a.init_step(3, 30);
        spin(&mut a, HostPhase::Force);
        let mut b = Telemetry::new();
        b.init_step(5, 25);
        spin(&mut b, HostPhase::Force);
        spin(&mut b, HostPhase::Io);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        let init =
            |t: &Telemetry| t.report(&RunStats::default(), &DirectEngine::new()).init_interactions;
        assert_eq!(init(&ab), 55);
        assert_eq!(init(&ab), init(&ba));
        assert_eq!(ab.phase_calls(HostPhase::Force), 2);
        for p in HostPhase::ALL {
            assert_eq!(ab.phase_calls(p), ba.phase_calls(p));
        }
    }

    #[test]
    fn report_round_trips_through_json() {
        let mut t = Telemetry::new();
        t.init_step(8, 64);
        spin(&mut t, HostPhase::Force);
        spin(&mut t, HostPhase::Io);
        let engine = DirectEngine::new();
        let stats = RunStats { block_steps: 1, particle_steps: 2, interactions: 80 };
        let rep = t.report(&stats, &engine);
        assert_eq!(rep.engine, "direct-cpu");
        assert_eq!(rep.interactions, 80);
        assert_eq!(rep.init_interactions, 64);
        assert_eq!(rep.wire_bytes, engine.bytes_transferred());
        assert!((rep.phase_seconds.total() - rep.total_host_seconds).abs() < 1e-15);
        assert!(rep.host_time_fraction > 0.0 && rep.host_time_fraction < 1.0);
        let json = serde_json::to_string_pretty(&rep).unwrap();
        let back: TelemetryReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.interactions, rep.interactions);
        assert_eq!(back.phase_calls, rep.phase_calls);
        assert_eq!(back.total_host_seconds, rep.total_host_seconds);
    }

    #[test]
    fn host_threads_is_stamped_and_survives_merge() {
        let a = rayon::with_num_threads(3, Telemetry::new);
        assert_eq!(a.host_threads(), 3);
        let b = rayon::with_num_threads(8, Telemetry::new);
        let mut ab = a.clone();
        ab.merge(&b);
        assert_eq!(ab.host_threads(), 8);
        let rep =
            rayon::with_num_threads(3, || a.report(&RunStats::default(), &DirectEngine::new()));
        assert_eq!(rep.host_threads, 3);
    }

    #[test]
    fn checkpoint_state_roundtrip_preserves_counters_and_clocks() {
        let mut t = Telemetry::new();
        t.init_step(8, 64);
        spin(&mut t, HostPhase::Force);
        spin(&mut t, HostPhase::Checkpoint);
        let stats = RunStats { block_steps: 2, particle_steps: 7, interactions: 120 };
        let state = t.checkpoint_state(&stats, 640);
        // The seven counter words keep their frozen order: block steps,
        // particle steps, step interactions, sweeps, init interactions, wire
        // bytes, host threads.
        let words: Vec<u64> = state[N_PHASES * 16..]
            .chunks(8)
            .map(|w| u64::from_le_bytes(w.try_into().unwrap()))
            .collect();
        assert_eq!(words, [2, 7, 56, 1, 64, 640, t.host_threads()]);
        let back = Telemetry::restore_checkpoint_state(&state, &stats).unwrap();
        let engine = DirectEngine::new();
        assert_eq!(back.report(&stats, &engine).init_interactions, 64);
        assert_eq!(back.checkpoint_state(&stats, 640), state);
        for p in HostPhase::ALL {
            assert_eq!(back.phase_seconds(p).to_bits(), t.phase_seconds(p).to_bits());
            assert_eq!(back.phase_calls(p), t.phase_calls(p));
        }
        assert!(Telemetry::restore_checkpoint_state(&state[..5], &stats).is_err());
    }

    #[test]
    fn an_init_sweep_larger_than_the_run_is_refused() {
        // The blob's step-interactions word is the run's interactions less
        // the initialization sweep's: a damaged sweep word larger than the
        // run's total must be refused here, not underflow the next encode.
        let mut t = Telemetry::new();
        t.init_step(8, 64);
        let state = t.checkpoint_state(&RunStats { interactions: 64, ..RunStats::default() }, 0);
        let fewer = RunStats { interactions: 63, ..RunStats::default() };
        let err = Telemetry::restore_checkpoint_state(&state, &fewer).unwrap_err();
        assert!(err.contains("telemetry") && err.contains("64"), "{err}");
    }

    #[test]
    fn report_carries_engine_fault_stats() {
        let t = Telemetry::new();
        let rep = t.report(&RunStats::default(), &DirectEngine::new());
        assert!(rep.faults.is_zero(), "engines without a fault model report zeros");
        let json = serde_json::to_string(&rep).unwrap();
        let back: TelemetryReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.faults, rep.faults);
    }

    #[test]
    fn report_carries_tree_work_for_tree_engines() {
        let t = Telemetry::new();
        let rep = t.report(&RunStats::default(), &DirectEngine::new());
        assert!(rep.tree.is_none(), "direct engine never builds a tree");
        let rep =
            t.report(&RunStats::default(), &grape6_tree::HybridTreeEngine::direct_equivalent());
        let tree = rep.tree.expect("hybrid engine reports tree work");
        assert!(tree.is_zero(), "no work yet — but the counters must be present");
        let json = serde_json::to_string(&rep).unwrap();
        let back: TelemetryReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.tree, rep.tree);
        // Pre-tree-layer reports (no `tree` key) must still deserialize.
        let legacy: TelemetryReport =
            serde_json::from_str(&json.replace("\"tree\":", "\"tree_ignored\":")).unwrap();
        assert!(legacy.tree.is_none());
    }
}
