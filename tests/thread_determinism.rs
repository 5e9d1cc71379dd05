//! The determinism contract of the threaded rayon shim, end to end: force
//! results, energy sums, and whole integrations must be **bit-identical**
//! for any worker-pool size. Thread counts are pinned per-closure with
//! `rayon::with_num_threads` (no racy process-global environment writes).

mod common;

use common::{assert_forces_bit_equal, disk, ips_for};
use grape6::prelude::*;
use grape6_core::integrator::BlockHermite;
use grape6_core::particle::ForceResult;
use proptest::prelude::*;

const THREADS: [usize; 4] = [1, 2, 3, 8];

/// Compute one block force with a fresh engine at the given thread count.
fn force_at<E: ForceEngine>(
    mk: impl Fn() -> E,
    n: usize,
    block: usize,
    t: usize,
) -> Vec<ForceResult> {
    rayon::with_num_threads(t, || {
        let sys = disk(n, 99);
        let mut e = mk();
        e.load(&sys);
        let idx: Vec<usize> = (0..block).collect();
        let ips = ips_for(&sys, &idx);
        let mut out = vec![ForceResult::default(); block];
        e.compute(0.0, &ips, &mut out);
        out
    })
}

#[test]
fn direct_force_bits_invariant_across_thread_counts() {
    // Both paths: small block (j-parallel fused sweep) and large block
    // (i-parallel tiled sweep).
    for &block in &[1usize, 3, 16, 24, 64] {
        let reference = force_at(DirectEngine::new, 300, block, 1);
        for &t in &THREADS[1..] {
            let got = force_at(DirectEngine::new, 300, block, t);
            assert_forces_bit_equal(&got, &reference, &format!("direct b={block} t={t}"));
        }
    }
}

#[test]
fn grape6_force_bits_invariant_across_thread_counts() {
    for &block in &[1usize, 4, 32] {
        let reference = force_at(Grape6Engine::sc2002, 200, block, 1);
        for &t in &THREADS[1..] {
            let got = force_at(Grape6Engine::sc2002, 200, block, t);
            assert_forces_bit_equal(&got, &reference, &format!("grape6 b={block} t={t}"));
        }
    }
}

#[test]
fn hybrid_force_bits_and_counters_invariant_across_thread_counts() {
    // The opened-up hybrid (cells accepted, near lists live) must stay
    // bit-identical — forces AND exact walk counters — for T ∈ {1,2,4,8},
    // on both the small-block and large-block summation paths.
    for &block in &[1usize, 3, 16, 24, 64] {
        let run = |t: usize| {
            rayon::with_num_threads(t, || {
                let sys = disk(300, 99);
                let mut e = HybridTreeEngine::new(0.5, 3.0);
                e.load(&sys);
                let idx: Vec<usize> = (0..block).collect();
                let ips = ips_for(&sys, &idx);
                let mut out = vec![ForceResult::default(); block];
                e.compute(0.0, &ips, &mut out);
                (out, e.interaction_count(), e.tree_work().expect("hybrid reports tree work"))
            })
        };
        let (reference, ref_count, ref_work) = run(1);
        for &t in &[2usize, 4, 8] {
            let (got, count, work) = run(t);
            assert_forces_bit_equal(&got, &reference, &format!("hybrid b={block} t={t}"));
            assert_eq!(count, ref_count, "hybrid b={block} t={t}: interaction count");
            assert_eq!(work, ref_work, "hybrid b={block} t={t}: walk counters");
        }
    }
}

#[test]
fn hybrid_integration_bits_invariant_across_thread_counts() {
    // Whole integrations through the hybrid: predictor, tree rebuild per
    // block time, walk, near/far sums, corrector — identical bits for any
    // pool size.
    let run = |t: usize| {
        rayon::with_num_threads(t, || {
            let mut sys = disk(48, 4242);
            let cfg = HermiteConfig { dt_max: 2.0f64.powi(3), ..HermiteConfig::default() };
            let mut engine = HybridTreeEngine::new(0.5, 3.0);
            let mut integ = BlockHermite::new(cfg);
            integ.initialize(&mut sys, &mut engine);
            for _ in 0..200 {
                integ.step(&mut sys, &mut engine);
            }
            (sys, engine.interaction_count())
        })
    };
    let (reference, ref_count) = run(1);
    for &t in &[2usize, 4, 8] {
        let (got, count) = run(t);
        assert_eq!(got.t, reference.t);
        assert_eq!(count, ref_count, "t={t}: interaction count diverged");
        for i in 0..reference.len() {
            assert_eq!(got.pos[i], reference.pos[i], "t={t}: particle {i} pos diverged");
            assert_eq!(got.vel[i], reference.vel[i], "t={t}: particle {i} vel diverged");
            assert_eq!(
                got.dt[i].to_bits(),
                reference.dt[i].to_bits(),
                "t={t}: particle {i} dt diverged"
            );
        }
    }
}

#[test]
fn energy_sum_bits_invariant_across_thread_counts() {
    let sys = disk(777, 5);
    let reference =
        rayon::with_num_threads(1, || grape6_core::energy::pairwise_potential_energy(&sys));
    for &t in &THREADS[1..] {
        let got =
            rayon::with_num_threads(t, || grape6_core::energy::pairwise_potential_energy(&sys));
        assert_eq!(got.to_bits(), reference.to_bits(), "threads = {t}");
    }
}

#[test]
fn ledger_e0_bits_invariant_across_thread_counts() {
    // `Simulation::new` opens its ledger from the sweep's potentials with
    // sequential sums, so e0 inherits the engines' force determinism.
    fn e0_at<E: ForceEngine>(mk: impl Fn() -> E, t: usize) -> u64 {
        rayon::with_num_threads(t, || {
            Simulation::new(disk(300, 99), HermiteConfig::default(), mk()).ledger.e0.to_bits()
        })
    }
    for &t in &[2usize, 4] {
        assert_eq!(e0_at(DirectEngine::new, t), e0_at(DirectEngine::new, 1), "direct t={t}");
        let hybrid = || HybridTreeEngine::new(0.5, 3.0);
        assert_eq!(e0_at(hybrid, t), e0_at(hybrid, 1), "hybrid t={t}");
    }
}

#[test]
fn integration_bits_invariant_across_thread_counts() {
    // A real 500-block-step integration through scheduler, predictor, force,
    // corrector and j-update must land on identical bits for any pool size.
    let run = |t: usize| {
        rayon::with_num_threads(t, || {
            let mut sys = disk(48, 4242);
            let cfg = HermiteConfig { dt_max: 2.0f64.powi(3), ..HermiteConfig::default() };
            let mut engine = DirectEngine::new();
            let mut integ = BlockHermite::new(cfg);
            integ.initialize(&mut sys, &mut engine);
            for _ in 0..500 {
                integ.step(&mut sys, &mut engine);
            }
            sys
        })
    };
    let reference = run(1);
    for &t in &THREADS[1..] {
        let got = run(t);
        assert_eq!(got.t, reference.t);
        for i in 0..reference.len() {
            assert_eq!(got.pos[i], reference.pos[i], "t={t}: particle {i} pos diverged");
            assert_eq!(got.vel[i], reference.vel[i], "t={t}: particle {i} vel diverged");
            assert_eq!(
                got.dt[i].to_bits(),
                reference.dt[i].to_bits(),
                "t={t}: particle {i} dt diverged"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn prop_force_and_energy_bits_invariant(
        n in 32usize..200,
        seed in 0u64..1000,
        block in 1usize..40,
    ) {
        let block = block.min(n);
        let build = || disk(n, seed);
        let run = |t: usize| {
            rayon::with_num_threads(t, || {
                let sys = build();
                let mut e = DirectEngine::new();
                e.load(&sys);
                let idx: Vec<usize> = (0..block).collect();
                let ips = ips_for(&sys, &idx);
                let mut out = vec![ForceResult::default(); block];
                e.compute(0.0, &ips, &mut out);
                let energy = grape6_core::energy::pairwise_potential_energy(&sys);
                (out, energy.to_bits())
            })
        };
        let (f1, e1) = run(1);
        for &t in &THREADS[1..] {
            let (ft, et) = run(t);
            prop_assert_eq!(et, e1, "energy bits differ at t = {}", t);
            for (k, (a, b)) in ft.iter().zip(&f1).enumerate() {
                prop_assert_eq!(a.acc, b.acc, "n={} seed={} block={} t={} k={}", n, seed, block, t, k);
                prop_assert_eq!(a.jerk, b.jerk);
                prop_assert_eq!(a.pot.to_bits(), b.pot.to_bits());
            }
        }
    }
}
