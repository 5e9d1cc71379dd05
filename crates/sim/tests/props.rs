//! Property-based tests on the simulation-layer invariants.

use grape6_core::force::DirectEngine;
use grape6_core::integrator::RunStats;
use grape6_core::observer::{HostPhase, StepObserver};
use grape6_core::particle::{Neighbor, ParticleSystem};
use grape6_core::vec3::Vec3;
use grape6_hw::{HardwareClock, StepBreakdown};
use grape6_sim::accretion::{try_merge, AccretionLog, RadiusModel};
use grape6_sim::{BlockSizeHistogram, Telemetry, TimestepHistogram};
use proptest::prelude::*;

fn two_body_system(x1: Vec3, v1: Vec3, m1: f64, x2: Vec3, v2: Vec3, m2: f64) -> ParticleSystem {
    let mut sys = ParticleSystem::new(0.001, 1.0);
    sys.push(x1, v1, m1);
    sys.push(x2, v2, m2);
    sys
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn merging_conserves_mass_and_momentum(
        x in 10.0..40.0f64,
        dy in -1e-4..1e-4f64,
        v1 in -0.3..0.3f64,
        v2 in -0.3..0.3f64,
        m1 in 1e-10..1e-6f64,
        m2 in 1e-10..1e-6f64,
    ) {
        let mut sys = two_body_system(
            Vec3::new(x, 0.0, 0.0),
            Vec3::new(0.0, v1, 0.0),
            m1,
            Vec3::new(x, dy, 1e-5),
            Vec3::new(0.0, v2, 0.0),
            m2,
        );
        let p0 = sys.pos[0] * m1 + sys.pos[1] * m2;
        let mv0 = sys.vel[0] * m1 + sys.vel[1] * m2;
        let model = RadiusModel::icy_inflated(1e4);
        let mut log = AccretionLog::default();
        let nn = Neighbor { index: 1, r2: sys.pos[0].distance2(sys.pos[1]) };
        if let Some(ev) = try_merge(&mut sys, 0, nn, &model, &mut log) {
            let s = ev.survivor;
            prop_assert!((sys.mass[s] - (m1 + m2)).abs() <= 1e-15 * (m1 + m2));
            prop_assert!((sys.pos[s] * sys.mass[s] - p0).norm() <= 1e-12 * p0.norm().max(1e-300));
            prop_assert!((sys.vel[s] * sys.mass[s] - mv0).norm() <= 1e-12 * mv0.norm().max(1e-300));
            prop_assert_eq!(sys.mass[ev.absorbed], 0.0);
        }
    }

    #[test]
    fn merge_never_fires_beyond_collision_distance(
        sep_factor in 1.01..100.0f64,
        m1 in 1e-10..1e-6f64,
        m2 in 1e-10..1e-6f64,
        inflation in 1.0..100.0f64,
    ) {
        let model = RadiusModel::icy_inflated(inflation);
        let d_coll = model.collision_distance(m1, m2);
        let sep = d_coll * sep_factor;
        let mut sys = two_body_system(
            Vec3::new(20.0, 0.0, 0.0),
            Vec3::zero(),
            m1,
            Vec3::new(20.0 + sep, 0.0, 0.0),
            Vec3::zero(),
            m2,
        );
        let mut log = AccretionLog::default();
        let nn = Neighbor { index: 1, r2: sep * sep };
        prop_assert!(try_merge(&mut sys, 0, nn, &model, &mut log).is_none());
    }

    #[test]
    fn collision_distance_is_symmetric_and_monotone(
        m1 in 1e-12..1e-5f64,
        m2 in 1e-12..1e-5f64,
        f in 1.0..1000.0f64,
    ) {
        let model = RadiusModel::icy_inflated(f);
        prop_assert_eq!(model.collision_distance(m1, m2), model.collision_distance(m2, m1));
        prop_assert!(model.collision_distance(m1 * 8.0, m2) > model.collision_distance(m1, m2));
        prop_assert!((model.radius(8.0 * m1) / model.radius(m1) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn a_nan_inflation_merges_nothing(
        sep in 0.0..1e-3f64,
        m1 in 1e-10..1e-6f64,
        m2 in 1e-10..1e-6f64,
    ) {
        // A NaN collision distance compares false both ways: the test must
        // read "not closer than", or every reported neighbour merges.
        let model = RadiusModel::icy_inflated(f64::NAN);
        let mut sys = two_body_system(
            Vec3::new(20.0, 0.0, 0.0),
            Vec3::zero(),
            m1,
            Vec3::new(20.0 + sep, 0.0, 0.0),
            Vec3::zero(),
            m2,
        );
        let mut log = AccretionLog::default();
        let nn = Neighbor { index: 1, r2: sep * sep };
        prop_assert!(try_merge(&mut sys, 0, nn, &model, &mut log).is_none());
        prop_assert_eq!((sys.mass[0], sys.mass[1], log.count()), (m1, m2, 0));
    }

    #[test]
    fn block_histogram_bins_every_block_once(ns in prop::collection::vec(1usize..10_000, 1..100)) {
        let mut h = BlockSizeHistogram::new();
        for &n in &ns {
            h.record(n);
        }
        prop_assert_eq!(h.bins.iter().sum::<u64>(), ns.len() as u64);
        for (k, &count) in h.bins.iter().enumerate() {
            let expect = ns.iter().filter(|&&n| n >> k == 1).count() as u64;
            prop_assert_eq!(count, expect, "bin {}", k);
        }
    }

    #[test]
    fn timestep_histogram_total_counts_positive_steps(
        rungs in prop::collection::vec(-30i32..3, 1..64),
    ) {
        let mut sys = ParticleSystem::new(0.0, 0.0);
        for &r in &rungs {
            let i = sys.push(Vec3::zero(), Vec3::zero(), 1.0);
            sys.dt[i] = 2.0f64.powi(r);
        }
        let h = TimestepHistogram::from_system(&sys);
        prop_assert_eq!(h.total(), rungs.len());
        let span = (rungs.iter().max().unwrap() - rungs.iter().min().unwrap()) as f64;
        prop_assert!((h.dynamic_range().log2() - span).abs() < 1e-9);
    }

    #[test]
    fn timestep_histogram_rungs_sorted_with_exact_counts(
        rungs in prop::collection::vec(-30i32..3, 1..64),
    ) {
        let mut sys = ParticleSystem::new(0.0, 0.0);
        for &r in &rungs {
            let i = sys.push(Vec3::zero(), Vec3::zero(), 1.0);
            sys.dt[i] = 2.0f64.powi(r);
        }
        let h = TimestepHistogram::from_system(&sys);
        // Rungs strictly ascending: the histogram is a sorted map.
        for w in h.rungs.windows(2) {
            prop_assert!(w[0].0 < w[1].0, "rungs out of order: {:?}", h.rungs);
        }
        // Per-rung counts sum to the particle count...
        let count_sum: usize = h.rungs.iter().map(|&(_, c)| c).sum();
        prop_assert_eq!(count_sum, rungs.len());
        // ...and each rung's count matches a direct tally of the input.
        for &(r, c) in &h.rungs {
            let expect = rungs.iter().filter(|&&x| x == r).count();
            prop_assert_eq!(c, expect, "rung {} count", r);
        }
        // dynamic_range == 2^(hi - lo) exactly (powers of two are exact in f64).
        let hi = h.rungs.last().unwrap().0;
        let lo = h.rungs.first().unwrap().0;
        prop_assert_eq!(h.dynamic_range(), 2.0f64.powi(hi - lo));
    }

    #[test]
    fn hardware_clock_accumulation_is_order_independent(
        costs in prop::collection::vec((0.0..1e-2f64, 0.0..1e-3f64, 0.0..1e-3f64), 1..32),
        by in 0usize..32,
    ) {
        let steps: Vec<StepBreakdown> = costs
            .iter()
            .map(|&(pipeline, host, send_i)| StepBreakdown {
                pipeline,
                host,
                send_i,
                ..Default::default()
            })
            .collect();
        let mut forward = HardwareClock::new();
        for s in &steps {
            forward.charge(s);
        }
        // Charge the same steps rotated by an arbitrary offset.
        let k = by % steps.len();
        let mut rotated = HardwareClock::new();
        for s in steps[k..].iter().chain(steps[..k].iter()) {
            rotated.charge(s);
        }
        // Step counts are exact; accumulated seconds agree to f64 roundoff
        // (addition is not associative, so demand 1e-12 relative, not bits).
        prop_assert_eq!(forward.steps, rotated.steps);
        let scale = forward.seconds().abs().max(1e-300);
        prop_assert!((forward.seconds() - rotated.seconds()).abs() / scale < 1e-12);
    }

    #[test]
    fn telemetry_counter_accumulation_is_order_independent(
        events in prop::collection::vec((1usize..1000, 0u64..1_000_000, 0usize..7), 1..32),
        by in 0usize..32,
    ) {
        // What Telemetry still counts — initialization interactions and span
        // counts — folds exactly in any order; the run's other totals are
        // read from `RunStats` and the engine.
        let feed = |tele: &mut Telemetry, evs: &[(usize, u64, usize)]| {
            for &(n, interactions, phase) in evs {
                tele.init_step(n, interactions);
                tele.phase_begin(HostPhase::ALL[phase]);
                tele.phase_end(HostPhase::ALL[phase]);
            }
        };
        let counts = |tele: &Telemetry| {
            let rep = tele.report(&RunStats::default(), &DirectEngine::new());
            (rep.init_interactions, HostPhase::ALL.map(|p| tele.phase_calls(p)))
        };
        let mut forward = Telemetry::new();
        feed(&mut forward, &events);
        let k = by % events.len();
        let mut rot: Vec<(usize, u64, usize)> = events[k..].to_vec();
        rot.extend_from_slice(&events[..k]);
        let mut rotated = Telemetry::new();
        feed(&mut rotated, &rot);
        // Integer counters must agree bit-for-bit in any order.
        prop_assert_eq!(counts(&forward), counts(&rotated));
        // And merging two halves reproduces the sequential feed exactly.
        let (a, b) = events.split_at(events.len() / 2);
        let mut left = Telemetry::new();
        feed(&mut left, a);
        let mut right = Telemetry::new();
        feed(&mut right, b);
        left.merge(&right);
        prop_assert_eq!(counts(&left), counts(&forward));
    }
}
