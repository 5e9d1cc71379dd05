//! Accuracy contracts for the tree engines, with budgets *derived* from
//! the conformance oracle instead of guessed.
//!
//! These replace the ad-hoc-tolerance tests that used to live inline in
//! `crates/tree/src/octree.rs` (`theta_zero_reproduces_direct_sum`,
//! `moderate_theta_is_accurate_and_cheap`): the allowed error now comes
//! from `Oracle::tree(theta, n)` — summation-reorder slack at θ = 0,
//! plus the multipole acceptance-criterion bound once cells are accepted —
//! so tightening the oracle tightens these tests for free.

mod common;

use common::{disk, forces};
use grape6::prelude::*;
use grape6_conformance::{Oracle, Tolerances};
use grape6_core::particle::{ForceResult, IParticle};
use grape6_tree::Octree;

fn assert_within_budget(
    got: &[ForceResult],
    reference: &[ForceResult],
    tol: &Tolerances,
    tag: &str,
) {
    for (i, (g, r)) in got.iter().zip(reference).enumerate() {
        let da = (g.acc - r.acc).norm();
        assert!(
            da <= tol.acc[i],
            "{tag}: particle {i} |Δacc| {da:e} exceeds derived budget {:e}",
            tol.acc[i]
        );
        let dj = (g.jerk - r.jerk).norm();
        assert!(
            dj <= tol.jerk[i],
            "{tag}: particle {i} |Δjerk| {dj:e} exceeds derived budget {:e}",
            tol.jerk[i]
        );
        let dp = (g.pot - r.pot).abs();
        assert!(
            dp <= tol.pot[i],
            "{tag}: particle {i} |Δpot| {dp:e} exceeds derived budget {:e}",
            tol.pot[i]
        );
    }
}

#[test]
fn theta_zero_reproduces_direct_sum_within_reorder_budget() {
    // θ = 0 opens every cell: the Barnes-Hut walk degenerates to an exact
    // pairwise sum in tree order, so the only legitimate deviation from the
    // reference is summation reordering — exactly what Oracle::tree(0, n)
    // collapses to.
    let sys = disk(400, 7);
    let cpu = forces(&mut DirectEngine::new(), &sys, 0.0);
    let tree = forces(&mut HybridTreeEngine::new(0.0, 0.0), &sys, 0.0);
    let tol = Oracle::tree(0.0, sys.len()).tolerances(&sys, 0.0);
    assert_within_budget(&tree, &cpu, &tol, "barnes-hut θ=0");
}

#[test]
fn moderate_theta_is_accurate_and_cheap() {
    // Accuracy from the derived multipole budget; cheapness from the
    // engine's own evaluation counter (the tree must beat N² by a wide
    // margin at this size, or it is not earning its approximation error).
    let sys = disk(800, 7);
    let n = sys.len() as u64;
    let cpu = forces(&mut DirectEngine::new(), &sys, 0.0);
    let mut engine = HybridTreeEngine::new(0.5, 0.0);
    let tree = forces(&mut engine, &sys, 0.0);
    let tol = Oracle::tree(0.5, sys.len()).tolerances(&sys, 0.0);
    assert_within_budget(&tree, &cpu, &tol, "barnes-hut θ=0.5");
    // At N ≈ 800 on a thin disk the walk wins ~2× over N²; the asymptotic
    // O(N log N) growth itself is pinned by `octree::cost_scales_sub_quadratically`.
    assert!(
        engine.interaction_count() < n * n / 2,
        "tree did {} evaluations — not meaningfully below N² = {}",
        engine.interaction_count(),
        n * n
    );
}

#[test]
fn hybrid_moderate_theta_is_accurate_and_cheap() {
    // The same derived-budget contract for the hybrid: near field exact,
    // far field within the θ bound, total work well below N².
    let sys = disk(800, 7);
    let n = sys.len() as u64;
    let cpu = forces(&mut DirectEngine::new(), &sys, 0.0);
    let mut engine = HybridTreeEngine::new(0.5, 2.0);
    let hybrid = forces(&mut engine, &sys, 0.0);
    let tol = Oracle::tree(0.5, sys.len()).tolerances(&sys, 0.0);
    assert_within_budget(&hybrid, &cpu, &tol, "hybrid θ=0.5");
    let work = engine.tree_work().expect("hybrid reports tree work");
    assert!(work.near_interactions > 0 && work.far_interactions > 0);
    assert!(
        engine.interaction_count() < n * n / 2,
        "hybrid did {} evaluations — not meaningfully below N² = {}",
        engine.interaction_count(),
        n * n
    );
}

#[test]
fn barnes_hut_limit_is_the_fused_walk_bitwise() {
    // At a zero neighbour radius the list walk + near/far sums must be the
    // fused `Octree::force_on` walk bit for bit — on both block paths, with
    // the engine's j-prediction live — and count one more interaction per
    // walk (the self entry of the near list, the hardware convention).
    let mut sys = disk(512, 7);
    for i in 0..sys.len() {
        sys.acc[i] = sys.pos[i] * -1e-4;
        sys.jerk[i] = sys.vel[i] * -1e-4;
    }
    let t = 0.125;
    let n = sys.len();
    let predicted: Vec<_> = (0..n).map(|i| sys.predict(i, t)).collect();
    let ips: Vec<IParticle> = predicted
        .iter()
        .enumerate()
        .map(|(i, &(pos, vel))| IParticle { index: i, pos, vel })
        .collect();
    let (ppos, pvel): (Vec<_>, Vec<_>) = predicted.into_iter().unzip();
    let tree = Octree::build(&ppos, &pvel, &sys.mass);
    let eps2 = sys.softening * sys.softening;
    for theta in [0.0, 0.3, 0.5, 0.75] {
        for block in [5usize, n] {
            let mut engine = HybridTreeEngine::new(theta, 0.0);
            engine.load(&sys);
            let mut out = vec![ForceResult::default(); n];
            for (is, os) in ips.chunks(block).zip(out.chunks_mut(block)) {
                engine.compute(t, is, os);
            }
            let mut evaluations = 0;
            for (ip, got) in ips.iter().zip(&out) {
                let want = tree.force_on(ip.pos, ip.vel, theta, eps2, ip.index as u32);
                let tag = format!("θ={theta} block={block} i={}", ip.index);
                assert_eq!(got.acc, want.acc, "{tag}: acc");
                assert_eq!(got.jerk, want.jerk, "{tag}: jerk");
                assert_eq!(got.pot.to_bits(), want.pot.to_bits(), "{tag}: pot");
                assert!(got.nn.is_none(), "{tag}: no neighbour inside a zero radius");
                evaluations += want.evaluations;
            }
            assert_eq!(engine.interaction_count(), evaluations + n as u64, "θ={theta}");
            assert_eq!(engine.tree_work().unwrap().lists_emitted, n as u64);
        }
    }
    // θ = 0.9: the list walk's bounding-sphere guard may open a few cells
    // the fused walk accepts, so the contract is the derived budget.
    let cpu = forces(&mut DirectEngine::new(), &sys, 0.0);
    let wide = forces(&mut HybridTreeEngine::new(0.9, 0.0), &sys, 0.0);
    let tol = Oracle::tree(0.9, n).tolerances(&sys, 0.0);
    assert_within_budget(&wide, &cpu, &tol, "barnes-hut θ=0.9");
}
