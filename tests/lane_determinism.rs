//! The determinism contract of the AoSoA lane kernels, end to end: force
//! results, energy sums, and whole integrations must be **bit-identical**
//! between each product engine (one compile-time lane width per kernel
//! family) and its scalar oracle, at every thread count, on every block
//! size — including ragged blocks whose length is not a multiple of the
//! lane width. Mirrors `thread_determinism.rs`; the lane axis composes with
//! the thread axis rather than replacing it.

mod common;

use common::{assert_forces_bit_equal, assert_systems_bit_equal, disk, ips_for};
use grape6::prelude::*;
use grape6_core::force::ScalarDirectEngine;
use grape6_core::integrator::BlockHermite;
use grape6_core::particle::ForceResult;
use grape6_hw::ScalarGrape6Engine;
use proptest::prelude::*;

const THREADS: [usize; 2] = [1, 4];

/// Compute one block force on `disk(n, seed)` with a fresh engine at the
/// given thread count.
fn force_at<E: ForceEngine>(
    mk: impl Fn() -> E,
    (n, seed): (usize, u64),
    block: usize,
    t: usize,
) -> Vec<ForceResult> {
    rayon::with_num_threads(t, || {
        let sys = disk(n, seed);
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
fn direct_force_bits_invariant_across_lane_widths() {
    // Blocks chosen to hit the fused small-block path (≤16), the tiled
    // large path, and ragged tails (13 ≡ 5, 21 ≡ 5 mod 8; 3 < W entirely).
    for &block in &[1usize, 3, 13, 16, 21, 64] {
        let reference = force_at(ScalarDirectEngine::default, (300, 99), block, 1);
        for &t in &THREADS {
            let got = force_at(DirectEngine::new, (300, 99), block, t);
            assert_forces_bit_equal(&got, &reference, &format!("direct b={block} t={t}"));
        }
    }
}

#[test]
fn grape6_force_bits_invariant_across_lane_widths() {
    for &block in &[1usize, 4, 13, 32] {
        let reference =
            force_at(|| ScalarGrape6Engine(Grape6Engine::sc2002()), (200, 99), block, 1);
        for &t in &THREADS {
            let got = force_at(Grape6Engine::sc2002, (200, 99), block, t);
            assert_forces_bit_equal(&got, &reference, &format!("grape6 b={block} t={t}"));
        }
    }
}

/// 500 block steps through scheduler, predictor, force, corrector and
/// j-update, plus the energy of the final state.
fn integrate<E: ForceEngine>(mut engine: E, t: usize) -> (ParticleSystem, u64) {
    rayon::with_num_threads(t, || {
        let mut sys = disk(48, 4242);
        let cfg = HermiteConfig { dt_max: 2.0f64.powi(3), ..HermiteConfig::default() };
        let mut integ = BlockHermite::new(cfg);
        integ.initialize(&mut sys, &mut engine);
        for _ in 0..500 {
            integ.step(&mut sys, &mut engine);
        }
        let energy = grape6_core::energy::pairwise_potential_energy(&sys);
        (sys, energy.to_bits())
    })
}

#[test]
fn integration_and_energy_bits_invariant_across_lane_widths() {
    // A real integration must land on the scalar oracle's bits at every
    // pool size, and so must the energy of the final state.
    let (ref_sys, ref_energy) = integrate(ScalarDirectEngine::default(), 1);
    for &t in &THREADS {
        let (sys, energy) = integrate(DirectEngine::new(), t);
        assert_systems_bit_equal(&sys, &ref_sys, &format!("t={t}"));
        assert_eq!(energy, ref_energy, "energy bits differ: t={t}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Ragged blocks: block ≡ r (mod 8) for every r in 1..8 forces the
    /// remainder-lane padding path of the tile kernel.
    #[test]
    fn prop_ragged_blocks_bit_invariant(
        n in 32usize..200,
        seed in 0u64..1000,
        q in 0usize..5,
        r in 1usize..8,
    ) {
        let block = (8 * q + r).min(n);
        let reference = force_at(ScalarDirectEngine::default, (n, seed), block, 1);
        for &t in &THREADS {
            let got = force_at(DirectEngine::new, (n, seed), block, t);
            for (k, (a, b)) in got.iter().zip(&reference).enumerate() {
                prop_assert_eq!(a.acc, b.acc,
                    "n={} seed={} block={} t={} k={}", n, seed, block, t, k);
                prop_assert_eq!(a.jerk, b.jerk);
                prop_assert_eq!(a.pot.to_bits(), b.pot.to_bits());
                prop_assert_eq!(a.nn.map(|x| x.index), b.nn.map(|x| x.index));
            }
        }
    }
}
