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
use grape6_core::particle::{ForceResult, IParticle};
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
    let sys = disk(n, seed);
    let idx: Vec<usize> = (0..block).collect();
    force_on(mk, &sys, &ips_for(&sys, &idx), t)
}

/// Compute the forces on `ips` from `sys` with a fresh engine at the given
/// thread count.
fn force_on<E: ForceEngine>(
    mk: impl Fn() -> E,
    sys: &ParticleSystem,
    ips: &[IParticle],
    t: usize,
) -> Vec<ForceResult> {
    rayon::with_num_threads(t, || {
        let mut e = mk();
        e.load(sys);
        let mut out = vec![ForceResult::default(); ips.len()];
        e.compute(0.0, ips, &mut out);
        out
    })
}

/// The block of `idx`, with the slot at `probe` (if any) replaced by a
/// probe that is no body (`usize::MAX`, the index no sweep reaches).
fn block_of(sys: &ParticleSystem, idx: &[usize], probe: Option<usize>) -> Vec<IParticle> {
    let mut ips = ips_for(sys, idx);
    if let Some(k) = probe {
        ips[k] = IParticle { index: usize::MAX, pos: Vec3::new(20.5, -3.25, 0.01), ..ips[k] };
    }
    ips
}

/// j-particles per cache tile of `DirectEngine`'s large-block sweep.
const J_TILE: usize = 1024;

#[test]
fn direct_own_slots_across_j_tiles_match_the_scalar_oracle() {
    // N > 2 J_TILE, so every large-block sweep crosses j = 1024 and 2048,
    // and each j-tile must skip exactly the lanes' own slots inside it.
    let n = 2 * J_TILE + 555;
    let sys = disk(n, 7);
    let last = n - 1;
    let straddle: Vec<usize> =
        (J_TILE - 9..J_TILE + 9).chain(2 * J_TILE - 7..2 * J_TILE + 6).collect();
    // The first and last j of every j-tile in one i-tile, then their
    // neighbours and one more body to reach the large-block path.
    let edges = [
        0,
        J_TILE - 1,
        J_TILE,
        2 * J_TILE - 1,
        2 * J_TILE,
        last,
        1,
        J_TILE + 1,
        J_TILE - 2,
        2 * J_TILE + 1,
        2 * J_TILE - 2,
        last - 1,
        2,
        J_TILE + 2,
        J_TILE - 3,
        2 * J_TILE + 2,
        700,
    ];
    let strided: Vec<usize> = (0..n).step_by(97).collect();
    // 8 + 8 + 3: the ragged last tile's padding lanes repeat lane 0's slot,
    // which sits at the first j of the second j-tile.
    let ragged: Vec<usize> =
        (0..16).map(|k| 131 * k + 3).chain([J_TILE, 5, 2 * J_TILE - 1]).collect();
    let mut blocks: Vec<(&str, Vec<usize>, Option<usize>)> = vec![
        ("straddle", straddle.clone(), None),
        ("straddle + probe", straddle, Some(11)),
        ("tile edges", edges.into(), None),
        ("strided", strided.clone(), None),
        ("strided + probe", strided, Some(0)),
        ("ragged", ragged.clone(), None),
        ("ragged + probe", ragged, Some(16)),
    ];
    // Every remainder 1..7 of a large block (17..23 bodies), the own slots
    // spread across all three j-tiles.
    for b in 17..24 {
        blocks.push(("remainder", (0..b).map(|k| (k * 151 + J_TILE - 3) % n).collect(), None));
    }
    for (what, idx, probe) in blocks {
        let ips = block_of(&sys, &idx, probe);
        let reference = force_on(ScalarDirectEngine::default, &sys, &ips, 1);
        for &t in &THREADS {
            let got = force_on(DirectEngine::new, &sys, &ips, t);
            let tag = format!("direct {what} b={} t={t}", ips.len());
            assert_forces_bit_equal(&got, &reference, &tag);
            for (k, (g, r)) in got.iter().zip(&reference).enumerate() {
                let bits = |f: &ForceResult| f.nn.map(|nb| nb.r2.to_bits());
                assert_eq!(bits(g), bits(r), "{tag}: particle {k} nn r2");
            }
        }
    }
}

#[test]
fn grape6_ragged_tiles_and_leftover_j_match_the_scalar_oracle() {
    // The GRAPE lanes at their engine width: large blocks of every
    // remainder 1..7 (ragged i-tiles, padding repeating lane 0), and small
    // blocks whose j-chunks leave 1..7 leftover j for `scalar_sweep`.
    let sys = disk(300, 99);
    for b in 17..24 {
        let idx: Vec<usize> = (0..b).map(|k| (k * 37 + 11) % sys.len()).collect();
        for probe in [None, Some(b - 1)] {
            let ips = block_of(&sys, &idx, probe);
            let oracle = || ScalarGrape6Engine(Grape6Engine::sc2002());
            let reference = force_on(oracle, &sys, &ips, 1);
            for &t in &THREADS {
                let got = force_on(Grape6Engine::sc2002, &sys, &ips, t);
                let tag = format!("grape6 b={b} probe={probe:?} t={t}");
                assert_forces_bit_equal(&got, &reference, &tag);
            }
        }
    }
    // n = 64 c − 5 has j-chunks of c = 65..71 (`j_chunk_size`), so every
    // full chunk leaves c mod 8 = 1..7 j past its last full lane group,
    // and the last chunk leaves its own remainder.
    for c in 65..72 {
        let sys = disk(64 * c - 5, c as u64);
        let n = sys.len();
        let ips = block_of(&sys, &[0, c - 1, c, n / 2, n - 1, 3], Some(5));
        let reference = force_on(|| ScalarGrape6Engine(Grape6Engine::sc2002()), &sys, &ips, 1);
        for &t in &THREADS {
            let got = force_on(Grape6Engine::sc2002, &sys, &ips, t);
            assert_forces_bit_equal(&got, &reference, &format!("grape6 n={n} t={t}"));
        }
    }
}

/// acc, jerk and pot bits, then the neighbour's index and r² bits.
type ForceBits = ([u64; 7], Option<(usize, u64)>);

/// Every output bit of a force set, NaNs included (`assert_eq!` on a NaN
/// `Vec3` would fail even between identical bits).
fn force_bits(out: &[ForceResult]) -> Vec<ForceBits> {
    out.iter()
        .map(|f| {
            let (a, j) = (f.acc, f.jerk);
            let words = [a.x, a.y, a.z, j.x, j.y, j.z, f.pot].map(f64::to_bits);
            (words, f.nn.map(|n| (n.index, n.r2.to_bits())))
        })
        .collect()
}

#[test]
fn grape6_non_finite_and_out_of_domain_inputs_match_the_scalar_oracle() {
    // The lane kernels round without a NaN select and sum limb digits that
    // exist only for |contribution| < 2³⁰. Each body below breaks one of
    // those domains: a velocity that is the payload NaN 0x7FFF…F (the
    // select-free rounding would read it as −0), an infinite mass, and a
    // 2⁴⁰ mass (finite inputs, out-of-domain contributions); last, a probe
    // i-particle with that NaN velocity over a clean j-memory. On the
    // large-block and the small-block path, with and without the body in
    // the block, the engine must return the scalar oracle's bits — or panic
    // where the oracle panics (a debug build asserts the accumulator
    // contract; the lane kernels themselves never panic).
    let payload_nan = f64::from_bits(0x7FFF_FFFF_FFFF_FFFF);
    let clean = disk(300, 99);
    let bad = 123;
    type Corrupt = fn(&mut ParticleSystem, usize);
    let cases: [(&str, Corrupt); 4] = [
        ("payload NaN velocity", |s, i| s.vel[i].y = f64::from_bits(0x7FFF_FFFF_FFFF_FFFF)),
        ("infinite mass", |s, i| s.mass[i] = f64::INFINITY),
        ("2^40 mass", |s, i| s.mass[i] = 2.0f64.powi(40)),
        ("clean j-memory", |_, _| {}),
    ];
    let large: Vec<usize> = (0..24).map(|k| k * 13 + 2).collect();
    let small = vec![5, 200, 299];
    for (what, corrupt) in cases {
        let mut sys = clean.clone();
        corrupt(&mut sys, bad);
        let with = |idx: &[usize]| {
            let mut idx = idx.to_vec();
            idx[1] = bad;
            idx
        };
        for (path, idx) in [("large", large.clone()), ("small", small.clone())] {
            for idx in [with(&idx), idx] {
                let mut ips = ips_for(&sys, &idx);
                if what == "clean j-memory" {
                    ips[0] = IParticle { index: usize::MAX, ..ips[0] };
                    ips[0].vel.x = payload_nan;
                }
                let run = |f: &dyn Fn() -> Vec<ForceResult>| {
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
                        .ok()
                        .map(|o| force_bits(&o))
                };
                let oracle = || ScalarGrape6Engine(Grape6Engine::sc2002());
                let want = run(&|| force_on(oracle, &sys, &ips, 1));
                for &t in &THREADS {
                    let got = run(&|| force_on(Grape6Engine::sc2002, &sys, &ips, t));
                    assert!(got == want, "{what}, {path} block {idx:?}, t={t}");
                }
            }
        }
    }
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
