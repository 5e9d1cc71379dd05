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

use common::{assert_forces_bit_equal, disk, forces};
use grape6::prelude::*;
use grape6_conformance::{Oracle, Tolerances};
use grape6_core::force::{accumulate_on, accumulate_with_nn};
use grape6_core::particle::{ForceResult, IParticle};
use grape6_core::sweep::SMALL_BLOCK_MAX;
use grape6_tree::hybrid::scalar_block_forces;
use grape6_tree::{InteractionLists, Octree};

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
    assert_cheaper_with_size(&mut engine, "barnes-hut θ=0.5");
}

/// Beside the 800-body bound (where `octree::group_cap` keeps the groups
/// small): on a 2,000-body disk, where the groups reach `GROUP_MAX`, the
/// shared lists must stay under a third of N² (measured 0.26; 0.03 at 32k).
fn assert_cheaper_with_size(engine: &mut HybridTreeEngine, tag: &str) {
    let sys = disk(2000, 7);
    let n = sys.len() as u64;
    engine.reset_counters();
    forces(engine, &sys, 0.0);
    assert!(
        engine.interaction_count() < n * n / 3,
        "{tag}: {} evaluations — not meaningfully below N² = {}",
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
    assert_cheaper_with_size(&mut engine, "hybrid θ=0.5");
}

#[test]
fn barnes_hut_limit_is_the_fused_walk_bitwise() {
    // At a zero neighbour radius the per-point list walk + scalar near/far
    // sums must be the fused `Octree::force_on` walk bit for bit (θ < 1),
    // with one more list entry per walk than the fused walk evaluates (the
    // self entry of the near list, the hardware convention).
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
    let mut lists = InteractionLists::default();
    for theta in [0.0, 0.3, 0.5, 0.75] {
        for ip in &ips {
            tree.interaction_lists(ip.pos, theta, 0.0, &mut lists);
            let js = lists.near_bodies().map(|j| j as usize);
            let mut got = accumulate_with_nn(ip, js, &ppos, &pvel, &sys.mass, eps2);
            let (fp, fv, fm) = lists.far();
            let far = accumulate_on(ip.pos, ip.vel, fp, fv, fm, eps2, usize::MAX);
            got.acc += far.acc;
            got.jerk += far.jerk;
            got.pot += far.pot;
            let want = tree.force_on(ip.pos, ip.vel, theta, eps2, ip.index as u32);
            let tag = format!("θ={theta} i={}", ip.index);
            assert_eq!(got.acc, want.acc, "{tag}: acc");
            assert_eq!(got.jerk, want.jerk, "{tag}: jerk");
            assert_eq!(got.pot.to_bits(), want.pot.to_bits(), "{tag}: pot");
            assert!(
                lists.near_bodies().eq([ip.index as u32]),
                "{tag}: only self inside a zero radius"
            );
            assert_eq!(lists.len() as u64, want.evaluations + 1, "{tag}: list length");
        }
    }
    // The engine at a zero radius shares each list across a group, so its
    // contract is its scalar oracle — the sum over `Octree::group_lists` for
    // a block that walks, the exact direct sum for one of at most
    // SMALL_BLOCK_MAX, whatever theta (bit for bit, with its j-prediction
    // live) — and the derived budget.
    let cpu = forces(&mut DirectEngine::new(), &sys, 0.0);
    for theta in [0.0, 0.3, 0.5, 0.75, 0.9] {
        for block in [5usize, n] {
            let mut engine = HybridTreeEngine::new(theta, 0.0);
            engine.load(&sys);
            for is in ips.chunks(block) {
                let mut out = vec![ForceResult::default(); is.len()];
                engine.compute(t, is, &mut out);
                let (want, _) = scalar_block_forces(&tree, is, theta, 0.0, eps2);
                assert_forces_bit_equal(&out, &want, &format!("θ={theta} block={block}"));
                assert!(out.iter().all(|o| o.nn.is_none()), "no neighbour inside a zero radius");
            }
            let walked = if block > SMALL_BLOCK_MAX { n as u64 } else { 0 };
            assert_eq!(engine.tree_work().unwrap().lists_emitted, walked);
        }
        let got = forces(&mut HybridTreeEngine::new(theta, 0.0), &sys, 0.0);
        let tol = Oracle::tree(theta, n).tolerances(&sys, 0.0);
        assert_within_budget(&got, &cpu, &tol, &format!("barnes-hut θ={theta}"));
    }
}
