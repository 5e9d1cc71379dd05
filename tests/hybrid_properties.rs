//! Property tests for the hybrid engine's neighbour machinery.
//!
//! The load-bearing invariant behind "no force is applied twice": every
//! walk partitions the particle set **exactly once** into a near list
//! (members of the neighbour ball, summed directly) and a far field
//! (accepted cells plus leaf bodies outside the ball) — no body missed, no
//! body counted on both sides. And because the tree is a pure function of
//! the particle *positions* (bounding cube from coordinate extrema,
//! subdivision by octant), the total near/far interaction counters must be
//! conserved when the particles are arbitrarily renumbered.

mod common;

use common::disk;
use grape6::prelude::*;
use grape6_core::engine::ForceEngine;
use grape6_core::particle::ForceResult;
use grape6_tree::{InteractionLists, Octree};
use proptest::prelude::*;

/// Deterministically permute a system's particles with a seeded LCG
/// Fisher-Yates shuffle. Returns the permuted system and `perm`, where
/// `perm[new] = old`.
fn permute(sys: &ParticleSystem, seed: u64) -> (ParticleSystem, Vec<usize>) {
    let n = sys.len();
    let mut perm: Vec<usize> = (0..n).collect();
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    for k in (1..n).rev() {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        perm.swap(k, (state >> 33) as usize % (k + 1));
    }
    let mut out = ParticleSystem::new(sys.softening, sys.central_mass);
    for &old in &perm {
        out.push(sys.pos[old], sys.vel[old], sys.mass[old]);
    }
    (out, perm)
}

/// Turn every `stride`-th body into a massless test particle (none at 0).
/// Test particles are bodies like any other to the walk: a leaf of them has
/// zero mass, not zero bodies.
fn with_test_particles(mut sys: ParticleSystem, stride: usize) -> ParticleSystem {
    if stride > 0 {
        sys.mass.iter_mut().step_by(stride).for_each(|m| *m = 0.0);
    }
    sys
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every body appears in exactly one of {near list, far field} of every
    /// walk: the counts partition n, near membership is exactly the
    /// neighbour ball, and the sorted near list never repeats an index.
    #[test]
    fn prop_every_body_lands_in_exactly_one_list(
        n in 16usize..220,
        seed in 0u64..1000,
        theta in 0.0f64..0.9,
        r_scale in 0.0f64..1.2,
        massless in 0usize..4,
    ) {
        let sys = with_test_particles(disk(n, seed), massless);
        let n = sys.len(); // the builder appends protoplanets past the asked-for n
        let tree = Octree::build(&sys.pos, &sys.vel, &sys.mass);
        // Radii from degenerate (0: only self qualifies) up to spanning a
        // good fraction of the disk.
        let r_near = r_scale * 30.0;
        let mut lists = InteractionLists::default();
        for i in (0..n).step_by(1 + n / 16) {
            tree.interaction_lists(sys.pos[i], theta, r_near, &mut lists);
            let near: Vec<u32> = lists.near_bodies().collect();
            prop_assert_eq!(
                near.len() as u64 + lists.far_bodies,
                n as u64,
                "i={}: near {} + far bodies {} must partition n={}",
                i, near.len(), lists.far_bodies, n
            );
            // No double count: strictly ascending indices.
            for w in near.windows(2) {
                prop_assert!(w[0] < w[1], "i={}: near list repeats or disorders {:?}", i, w);
            }
            // No miss, no trespass: near membership is exactly the ball.
            let near_set: std::collections::BTreeSet<u32> = near.iter().copied().collect();
            for j in 0..n {
                let inside = (sys.pos[j] - sys.pos[i]).norm2() <= r_near * r_near;
                prop_assert_eq!(
                    near_set.contains(&(j as u32)),
                    inside,
                    "i={} j={}: ball membership and near list disagree (r_near={})",
                    i, j, r_near
                );
            }
        }
    }

    /// The same partition for the list a whole group shares: candidates and
    /// far bodies partition n, candidates never repeat, and the candidate
    /// set covers the neighbour ball of *every* member — the shared near
    /// field is a superset of each member's own, so it stays exact.
    #[test]
    fn prop_group_lists_partition_and_cover_every_members_ball(
        n in 16usize..220,
        seed in 0u64..1000,
        theta in 0.0f64..0.9,
        r_scale in 0.0f64..0.4,
        massless in 0usize..4,
    ) {
        let sys = with_test_particles(disk(n, seed), massless);
        let n = sys.len();
        let tree = Octree::build(&sys.pos, &sys.vel, &sys.mass);
        let r_near = r_scale * 30.0;
        let mut lists = InteractionLists::default();
        let mut grouped = 0;
        for g in 0..tree.group_count() {
            tree.group_lists(g, theta, r_near, &mut lists);
            let near: Vec<u32> = lists.near_bodies().collect();
            prop_assert_eq!(
                near.len() as u64 + lists.far_bodies,
                n as u64,
                "group {}: candidates {} + far bodies {} must partition n={}",
                g, near.len(), lists.far_bodies, n
            );
            for w in near.windows(2) {
                prop_assert!(w[0] < w[1], "group {}: candidates repeat or disorder {:?}", g, w);
            }
            for &i in tree.group_bodies(g) {
                grouped += 1;
                prop_assert_eq!(tree.group_of(i as usize, sys.pos[i as usize]), Some(g));
                for j in 0..n {
                    if (sys.pos[j] - sys.pos[i as usize]).norm2() <= r_near * r_near {
                        prop_assert!(
                            near.binary_search(&(j as u32)).is_ok(),
                            "group {}: body {} is within r_near={} of member {} but no candidate",
                            g, j, r_near, i
                        );
                    }
                }
            }
        }
        prop_assert_eq!(grouped, n, "groups must partition the bodies");
    }

    /// Renumbering the particles renumbers the lists but cannot change how
    /// much work the walk does: total near and far interaction counters are
    /// conserved under permutation, per-walk and in the engine totals.
    #[test]
    fn prop_interaction_counters_conserved_under_permutation(
        n in 16usize..160,
        seed in 0u64..1000,
        pseed in 1u64..1_000_000,
        theta in 0.0f64..0.8,
    ) {
        let sys = disk(n, seed);
        let n = sys.len(); // the builder appends protoplanets past the asked-for n
        let (psys, perm) = permute(&sys, pseed);
        let r_near = 3.0;

        // Per-walk: particle `old`'s walk in the original tree must do the
        // same amount of near and far work as its renumbered self's walk.
        let tree = Octree::build(&sys.pos, &sys.vel, &sys.mass);
        let ptree = Octree::build(&psys.pos, &psys.vel, &psys.mass);
        let mut lists = InteractionLists::default();
        let mut plists = InteractionLists::default();
        for new in (0..n).step_by(1 + n / 8) {
            let old = perm[new];
            tree.interaction_lists(sys.pos[old], theta, r_near, &mut lists);
            ptree.interaction_lists(psys.pos[new], theta, r_near, &mut plists);
            prop_assert_eq!(
                lists.near_len(), plists.near_len(),
                "walk {}→{}: near count changed under renumbering", old, new
            );
            prop_assert_eq!(
                lists.far_bodies, plists.far_bodies,
                "walk {}→{}: far body count changed under renumbering", old, new
            );
        }

        // Engine totals: a full-block force call on both orderings.
        let count_work = |s: &ParticleSystem| {
            let mut e = HybridTreeEngine::new(theta, r_near);
            e.load(s);
            let ips: Vec<_> = (0..s.len())
                .map(|i| grape6_core::particle::IParticle { index: i, pos: s.pos[i], vel: s.vel[i] })
                .collect();
            let mut out = vec![ForceResult::default(); ips.len()];
            e.compute(0.0, &ips, &mut out);
            (e.interaction_count(), e.tree_work().expect("hybrid reports tree work"))
        };
        let (total, work) = count_work(&sys);
        let (ptotal, pwork) = count_work(&psys);
        prop_assert_eq!(total, ptotal, "total interaction count changed under permutation");
        prop_assert_eq!(
            work.near_interactions, pwork.near_interactions,
            "near counter changed under permutation"
        );
        prop_assert_eq!(
            work.far_interactions, pwork.far_interactions,
            "far counter changed under permutation"
        );
        prop_assert_eq!(
            work.list_len_sum, pwork.list_len_sum,
            "list length sum changed under permutation"
        );
    }
}
