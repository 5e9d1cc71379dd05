//! Integration tests for the wall-clock telemetry subsystem: the report's
//! counters must agree exactly with the integrator's and the engines' own
//! accounting, phase wall times must decompose the recorded total, and every
//! counter must be independent of the host thread count.

use grape6::prelude::*;
use grape6_core::observer::HostPhase;
use grape6_sim::Telemetry;

fn run_with_telemetry<E: ForceEngine>(engine: E, n: usize, t_end: f64) -> Simulation<E> {
    let sys = DiskBuilder::paper(n).with_seed(4242).build();
    let cfg = HermiteConfig { dt_max: 2.0f64.powi(3), ..HermiteConfig::default() };
    let mut sim = Simulation::with_telemetry(sys, cfg, engine);
    sim.run_to(t_end, t_end / 4.0);
    sim
}

#[test]
fn counters_match_engine_exactly_direct() {
    let sim = run_with_telemetry(DirectEngine::new(), 96, 1.0);
    let rep = sim.telemetry_report().unwrap();
    assert!(rep.block_steps > 0);
    let s = sim.stats();
    assert_eq!((rep.block_steps, rep.particle_steps), (s.block_steps, s.particle_steps));
    assert_eq!(rep.interactions, sim.engine.interaction_count());
    assert!(rep.init_interactions > 0 && rep.init_interactions < rep.interactions);
    assert_eq!(rep.wire_bytes, sim.engine.bytes_transferred());
    assert_eq!(rep.wire_bytes, 0, "CPU engine has no wire");
}

#[test]
fn counters_match_engine_exactly_grape6() {
    let sim = run_with_telemetry(Grape6Engine::sc2002(), 96, 1.0);
    let rep = sim.telemetry_report().unwrap();
    assert!(rep.block_steps > 0);
    let s = sim.stats();
    assert_eq!((rep.block_steps, rep.particle_steps), (s.block_steps, s.particle_steps));
    assert_eq!(rep.interactions, sim.engine.interaction_count());
    assert_eq!(rep.wire_bytes, sim.engine.bytes_transferred());
    assert!(rep.wire_bytes > 0, "GRAPE engine moves bytes on every call");
    assert_eq!(rep.engine, "grape6");
    assert!(rep.modeled_seconds > 0.0);
    assert!(rep.interactions_per_second_modeled > 0.0);
}

#[test]
fn counters_match_engine_exactly_tree() {
    let sim = run_with_telemetry(HybridTreeEngine::new(0.5, 0.0), 96, 1.0);
    let rep = sim.telemetry_report().unwrap();
    assert_eq!(rep.interactions, sim.engine.interaction_count());
    assert_eq!(rep.wire_bytes, sim.engine.bytes_transferred());
}

#[test]
fn phase_times_sum_to_recorded_total() {
    let sim = run_with_telemetry(DirectEngine::new(), 96, 1.0);
    let tele = sim.telemetry.as_ref().unwrap();
    // Summing the per-phase array in ALL order IS the definition of the
    // total, so this holds bit-for-bit, not just approximately.
    let sum: f64 = HostPhase::ALL.iter().map(|p| tele.phase_seconds(*p)).sum();
    assert_eq!(tele.total_seconds(), sum);
    assert!(sum > 0.0);
    // The serialized report preserves the decomposition to roundoff.
    let rep = sim.telemetry_report().unwrap();
    assert!(
        (rep.phase_seconds.total() - rep.total_host_seconds).abs()
            <= 1e-15 * rep.total_host_seconds.max(1e-300)
    );
    // Every integrator phase ran at least once.
    for p in [
        HostPhase::Schedule,
        HostPhase::Predict,
        HostPhase::Force,
        HostPhase::Correct,
        HostPhase::JUpdate,
    ] {
        assert!(tele.phase_calls(p) > 0, "phase {} never recorded", p.name());
    }
}

#[test]
fn counters_are_thread_count_independent() {
    // The rayon dependency reads RAYON_NUM_THREADS at pool creation; work
    // counters must not depend on it in any way.
    let run = |threads: &str| {
        std::env::set_var("RAYON_NUM_THREADS", threads);
        let sim = run_with_telemetry(Grape6Engine::sc2002(), 64, 1.0);
        let rep = sim.telemetry_report().unwrap();
        (
            rep.block_steps,
            rep.particle_steps,
            rep.init_interactions,
            rep.interactions,
            rep.wire_bytes,
            sim.engine.clock().steps,
            rep.phase_calls,
        )
    };
    let single = run("1");
    let multi = run("4");
    std::env::remove_var("RAYON_NUM_THREADS");
    assert_eq!(single, multi, "telemetry counters must be thread-count invariant");
}

#[test]
fn null_observer_path_produces_identical_trajectories() {
    // Telemetry must be purely observational: with and without it attached,
    // the integration is bit-identical.
    let sys = DiskBuilder::paper(64).with_seed(7).build();
    let cfg = HermiteConfig { dt_max: 2.0f64.powi(3), ..HermiteConfig::default() };
    let mut plain = Simulation::new(sys.clone(), cfg, DirectEngine::new());
    let mut observed = Simulation::with_telemetry(sys, cfg, DirectEngine::new());
    plain.run_to(1.0, 0.0);
    observed.run_to(1.0, 0.0);
    assert_eq!(plain.t(), observed.t());
    for i in 0..plain.sys.len() {
        assert_eq!(plain.sys.pos[i], observed.sys.pos[i], "particle {i} diverged");
        assert_eq!(plain.sys.vel[i], observed.sys.vel[i], "particle {i} diverged");
    }
    let s_plain = plain.stats();
    let s_obs = observed.stats();
    assert_eq!(s_plain.block_steps, s_obs.block_steps);
    assert_eq!(s_plain.interactions, s_obs.interactions);
}

#[test]
fn telemetry_accumulates_across_merged_runs() {
    // merge() lets ensemble drivers fold per-member telemetry together.
    let a = run_with_telemetry(DirectEngine::new(), 48, 0.5);
    let b = run_with_telemetry(DirectEngine::new(), 48, 0.5);
    let (ta, tb) = (a.telemetry.as_ref().unwrap(), b.telemetry.as_ref().unwrap());
    let mut merged = Telemetry::new();
    merged.merge(ta);
    merged.merge(tb);
    let stats = RunStats::default();
    let init = |t: &Telemetry| t.report(&stats, &DirectEngine::new()).init_interactions;
    assert_eq!(init(&merged), init(ta) + init(tb));
    for p in HostPhase::ALL {
        assert_eq!(merged.phase_calls(p), ta.phase_calls(p) + tb.phase_calls(p));
    }
    assert!(merged.total_seconds() >= ta.total_seconds());
}
