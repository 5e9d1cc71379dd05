//! Cross-crate integration: the GRAPE-6 simulator and the CPU reference
//! engine must produce the same physics, the tree baseline must approximate
//! it, and the whole engine matrix must agree across block sizes and
//! softening settings (driven by the conformance scenario generator and its
//! format-derived oracle).

mod common;

use common::{assert_forces_bit_equal, disk, forces};
use grape6::prelude::*;
use grape6_conformance::{generate, Oracle};
use grape6_core::engine::ForceEngine;
use grape6_core::particle::{ForceResult, ParticleSystem};

#[test]
fn grape6_exact_matches_cpu_to_fixed_point_resolution() {
    let sys = disk(300, 77);
    let cpu = forces(&mut DirectEngine::new(), &sys, 0.0);
    let hw = forces(&mut Grape6Engine::new(Grape6Config::sc2002_exact()), &sys, 0.0);
    for i in 0..sys.len() {
        let rel = (hw[i].acc - cpu[i].acc).norm() / cpu[i].acc.norm();
        assert!(rel < 1e-10, "particle {i}: rel {rel:e}");
        let relj = (hw[i].jerk - cpu[i].jerk).norm() / cpu[i].jerk.norm().max(1e-300);
        assert!(relj < 1e-8, "particle {i}: jerk rel {relj:e}");
    }
}

#[test]
fn grape6_hw_arithmetic_single_precision_class() {
    let sys = disk(300, 77);
    let cpu = forces(&mut DirectEngine::new(), &sys, 0.0);
    let hw = forces(&mut Grape6Engine::sc2002(), &sys, 0.0);
    let mut worst: f64 = 0.0;
    for i in 0..sys.len() {
        worst = worst.max((hw[i].acc - cpu[i].acc).norm() / cpu[i].acc.norm());
    }
    assert!(worst < 1e-4, "worst rel error {worst:e}");
    assert!(worst > 1e-12, "hardware arithmetic suspiciously exact");
}

#[test]
fn tree_approximates_cpu_within_mac_bound() {
    let sys = disk(1000, 77);
    let cpu = forces(&mut DirectEngine::new(), &sys, 0.0);
    let tree = forces(&mut HybridTreeEngine::new(0.4, 0.0), &sys, 0.0);
    let mut worst: f64 = 0.0;
    for i in 0..sys.len() {
        worst = worst.max((tree[i].acc - cpu[i].acc).norm() / cpu[i].acc.norm());
    }
    // Monopole BH at theta = 0.4 on a disk: percent-level worst case.
    assert!(worst < 0.15, "worst rel error {worst}");
}

#[test]
fn same_trajectory_under_both_engines() {
    // Integrate the same disk with CPU and exact-GRAPE engines; trajectories
    // must stay consistent over a few years (identical to fixed-point
    // quantization, then growing only slowly).
    let config = HermiteConfig { dt_max: 8.0, ..HermiteConfig::default() };
    let t_end = grape6::core::units::years_to_time(2.0);

    let mut sim_cpu = Simulation::new(disk(128, 77), config, DirectEngine::new());
    sim_cpu.run_to(t_end, 0.0);
    let mut sim_hw =
        Simulation::new(disk(128, 77), config, Grape6Engine::new(Grape6Config::sc2002_exact()));
    sim_hw.run_to(t_end, 0.0);

    assert_eq!(sim_cpu.stats().block_steps, sim_hw.stats().block_steps);
    let t = sim_cpu.t().min(sim_hw.t());
    let (p_cpu, _) = BlockHermite::synchronized_state(&sim_cpu.sys, t);
    let (p_hw, _) = BlockHermite::synchronized_state(&sim_hw.sys, t);
    let mut worst: f64 = 0.0;
    for i in 0..p_cpu.len() {
        worst = worst.max((p_cpu[i] - p_hw[i]).norm());
    }
    assert!(worst < 1e-6, "trajectories diverged by {worst} AU after 2 yr");
}

#[test]
fn hardware_clock_accumulates_during_run() {
    let config = HermiteConfig { dt_max: 8.0, ..HermiteConfig::default() };
    let mut sim = Simulation::new(disk(64, 77), config, Grape6Engine::sc2002());
    sim.run_to(1.0, 0.0);
    let report = sim.engine.perf_report();
    assert!(report.seconds > 0.0);
    assert!(report.interactions > 0);
    assert!(report.efficiency > 0.0 && report.efficiency < 1.0);
    assert_eq!(sim.engine.clock().steps, sim.stats().block_steps + 1); // +1 for initialization
}

// ---------------------------------------------------------------------------
// Engine × block size × softening matrix, on conformance-generated scenarios.
// ---------------------------------------------------------------------------

const BLOCK_SIZES: [usize; 4] = [1, 16, 48, 256];

/// Compute forces in i-blocks of `block` on a freshly loaded engine.
fn forces_blocked<E: ForceEngine>(
    engine: &mut E,
    sys: &ParticleSystem,
    block: usize,
) -> Vec<ForceResult> {
    engine.load(sys);
    let ips = common::all_ips(sys);
    let mut out = vec![ForceResult::default(); ips.len()];
    for (is, os) in ips.chunks(block).zip(out.chunks_mut(block)) {
        engine.compute(0.0, is, os);
    }
    out
}

#[test]
fn engine_matrix_agrees_across_block_sizes_softened() {
    // Softened rows: the full engine matrix. The hardware family must sit
    // inside the format-derived oracle of the f64 reference, and the routed
    // node / cluster / fault-tolerant wrapper must read out the flat
    // engine's exact bits — at every i-block size.
    for seed in [0u64, 5] {
        let sc = generate(seed);
        let sys = &sc.sys;
        let oracle = Oracle::hardware(24).tolerances(sys, sys.t);
        for &block in &BLOCK_SIZES {
            let tag = format!("seed {seed} block {block}");
            let cpu = forces_blocked(&mut DirectEngine::new(), sys, block);
            let hw = forces_blocked(&mut Grape6Engine::sc2002(), sys, block);
            for i in 0..sys.len() {
                let d = (hw[i].acc - cpu[i].acc).norm();
                assert!(
                    d <= oracle.acc[i],
                    "{tag}: particle {i} |Δacc| {d:e} > {:e}",
                    oracle.acc[i]
                );
                let dj = (hw[i].jerk - cpu[i].jerk).norm();
                assert!(dj <= oracle.jerk[i], "{tag}: particle {i} |Δjerk| {dj:e}");
            }
            // Routed data paths: forces bitwise (nn stays on the flat chip).
            let node = forces_blocked(&mut ClusterEngine::single_node(), sys, block);
            let cluster = forces_blocked(&mut ClusterEngine::production(), sys, block);
            for (i, (n, c)) in node.iter().zip(&cluster).enumerate() {
                assert_eq!(n.acc, hw[i].acc, "{tag}: node particle {i} acc");
                assert_eq!(n.pot.to_bits(), hw[i].pot.to_bits(), "{tag}: node particle {i} pot");
                assert_eq!(c.acc, hw[i].acc, "{tag}: cluster particle {i} acc");
                assert_eq!(c.jerk, hw[i].jerk, "{tag}: cluster particle {i} jerk");
            }
            let ft = forces_blocked(
                &mut FaultTolerantEngine::new(Grape6Config::sc2002(), &FaultPlan::empty()),
                sys,
                block,
            );
            assert_forces_bit_equal(&ft, &hw, &tag);
            // Hybrid anchor row: θ = 0 + disk-spanning near radius must
            // read out the f64 reference's exact bits at every block size
            // (each side picks its small/large path from the same block).
            let hybrid0 = forces_blocked(&mut HybridTreeEngine::direct_equivalent(), sys, block);
            assert_forces_bit_equal(&hybrid0, &cpu, &format!("{tag} hybrid θ=0"));
            // Opened-up hybrid row: every production opening angle stays
            // inside the derived multipole budget against the reference.
            for theta in [0.3, 0.5, 0.75] {
                let budget = Oracle::tree(theta, sys.len()).tolerances(sys, sys.t);
                let hybrid = forces_blocked(&mut HybridTreeEngine::new(theta, 5.0), sys, block);
                for i in 0..sys.len() {
                    let d = (hybrid[i].acc - cpu[i].acc).norm();
                    assert!(
                        d <= budget.acc[i],
                        "{tag} hybrid θ={theta}: particle {i} |Δacc| {d:e} > {:e}",
                        budget.acc[i]
                    );
                    let dj = (hybrid[i].jerk - cpu[i].jerk).norm();
                    assert!(dj <= budget.jerk[i], "{tag} hybrid θ={theta}: particle {i} |Δjerk|");
                    let dp = (hybrid[i].pot - cpu[i].pot).abs();
                    assert!(dp <= budget.pot[i], "{tag} hybrid θ={theta}: particle {i} |Δpot|");
                }
            }
        }
    }
}

#[test]
fn engine_matrix_softening_zero_rows() {
    // ε = 0 rows: the GRAPE engines assert softening > 0 (the hardware's
    // self-interaction and potential correction need it), so these rows run
    // the f64 reference and the tree baseline only — blocked sweeps must
    // agree with the flat sweep to summation-reorder precision.
    for seed in [0u64, 5] {
        let mut sc = generate(seed);
        sc.sys.softening = 0.0;
        let sys = &sc.sys;
        let full = forces(&mut DirectEngine::new(), sys, 0.0);
        let tol = Oracle::reorder(sys.len()).tolerances(sys, sys.t);
        for &block in &BLOCK_SIZES {
            let blocked = forces_blocked(&mut DirectEngine::new(), sys, block);
            for i in 0..sys.len() {
                let d = (blocked[i].acc - full[i].acc).norm();
                assert!(
                    d <= tol.acc[i],
                    "seed {seed} block {block}: particle {i} |Δacc| {d:e} > {:e}",
                    tol.acc[i]
                );
            }
        }
        // The tree baseline accepts ε = 0 too and must stay a coarse
        // approximation of the unsoftened reference.
        let tree = forces(&mut HybridTreeEngine::new(0.4, 0.0), sys, 0.0);
        let mut worst: f64 = 0.0;
        for i in 0..sys.len() {
            let a = full[i].acc.norm();
            if a > 0.0 {
                worst = worst.max((tree[i].acc - full[i].acc).norm() / a);
            }
        }
        assert!(worst < 0.5, "seed {seed}: tree rel error {worst} at ε = 0");
        // The hybrid accepts ε = 0 as well — and its θ = 0 anchor must
        // hold with no softening floor under the pair kernel, at every
        // block size (both summation paths).
        for &block in &BLOCK_SIZES {
            let hybrid0 = forces_blocked(&mut HybridTreeEngine::direct_equivalent(), sys, block);
            let direct = forces_blocked(&mut DirectEngine::new(), sys, block);
            assert_forces_bit_equal(
                &hybrid0,
                &direct,
                &format!("seed {seed} block {block} hybrid θ=0 ε=0"),
            );
        }
    }
}
