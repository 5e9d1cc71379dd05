//! The scheduler-equivalence contract, end to end: the tick-bucket event
//! queue must reproduce the binary-heap reference's (time, block) sequence
//! exactly, so whole block-timestep integrations land on **bit-identical**
//! trajectories whichever scheduler drives them — on every engine family.
//! (The (time, block)-sequence property itself is pinned by the
//! differential proptest in `grape6_core::blockstep`; here the claim is
//! carried through predictor, force, corrector and j-update.)

mod common;

use common::{assert_systems_bit_equal, disk};
use grape6::prelude::*;
use grape6_core::blockstep::SchedulerKind;
use proptest::prelude::*;

/// Integrate `steps` block steps of the standard disk under the given
/// scheduler, returning the final system and the run counters.
fn run<E: ForceEngine>(
    engine: E,
    n: usize,
    seed: u64,
    steps: usize,
    kind: SchedulerKind,
) -> Simulation<E> {
    let cfg = HermiteConfig { dt_max: 2.0f64.powi(2), ..HermiteConfig::default() };
    let mut sim = Simulation::new_ext(disk(n, seed), cfg, engine, kind, false);
    for _ in 0..steps {
        sim.step();
    }
    sim
}

#[test]
fn direct_trajectories_bitwise_equal_across_schedulers() {
    // The matrix axis: system size × seed × integration length.
    for &(n, seed, steps) in &[(24usize, 7u64, 160usize), (96, 3, 120), (257, 11, 60)] {
        let heap = run(DirectEngine::new(), n, seed, steps, SchedulerKind::Heap);
        let tick = run(DirectEngine::new(), n, seed, steps, SchedulerKind::TickBucket);
        let tag = format!("direct n={n} seed={seed} steps={steps}");
        assert_systems_bit_equal(&tick.sys, &heap.sys, &tag);
        assert_eq!(tick.stats(), heap.stats(), "{tag}: run counters");
    }
}

#[test]
fn grape6_trajectories_bitwise_equal_across_schedulers() {
    for &(n, seed, steps) in &[(32usize, 5u64, 120usize), (200, 9, 40)] {
        let heap = run(Grape6Engine::sc2002(), n, seed, steps, SchedulerKind::Heap);
        let tick = run(Grape6Engine::sc2002(), n, seed, steps, SchedulerKind::TickBucket);
        let tag = format!("grape6 n={n} seed={seed} steps={steps}");
        assert_systems_bit_equal(&tick.sys, &heap.sys, &tag);
        assert_eq!(tick.stats(), heap.stats(), "{tag}: run counters");
        assert_eq!(
            tick.engine.interaction_count(),
            heap.engine.interaction_count(),
            "{tag}: engine interactions"
        );
    }
}

#[test]
fn hybrid_trajectories_bitwise_equal_across_schedulers() {
    // The approximate engine rides the same contract: identical (time,
    // block) sequences feed identical tree builds and walks, so whole
    // trajectories — and the exact walk counters — stay bitwise locked
    // across scheduler kinds.
    for &(n, seed, steps) in &[(24usize, 7u64, 120usize), (96, 3, 60)] {
        let heap = run(HybridTreeEngine::new(0.5, 3.0), n, seed, steps, SchedulerKind::Heap);
        let tick = run(HybridTreeEngine::new(0.5, 3.0), n, seed, steps, SchedulerKind::TickBucket);
        let tag = format!("hybrid n={n} seed={seed} steps={steps}");
        assert_systems_bit_equal(&tick.sys, &heap.sys, &tag);
        assert_eq!(tick.stats(), heap.stats(), "{tag}: run counters");
        assert_eq!(
            tick.engine.interaction_count(),
            heap.engine.interaction_count(),
            "{tag}: engine interactions"
        );
        assert_eq!(tick.engine.tree_work(), heap.engine.tree_work(), "{tag}: walk counters");
    }
}

#[test]
fn hybrid_survives_checkpoint_kill_resume_bitwise() {
    // Checkpoint → kill → resume with the hybrid engine: the restored
    // run must continue the uninterrupted trajectory bit for bit, and the
    // engine's walk counters (carried in its checkpoint state) must land
    // on the uninterrupted totals, not restart from zero.
    use grape6_sim::checkpoint::{decode_checkpoint, encode_checkpoint};
    // (0.5, 0.0) is the Barnes-Hut baseline `--engine tree` runs.
    for r_near in [3.0, 0.0] {
        let mk = || HybridTreeEngine::new(0.5, r_near);
        let reference = run(mk(), 48, 21, 30, SchedulerKind::Heap);
        let half = run(mk(), 48, 21, 15, SchedulerKind::Heap);
        let bytes = encode_checkpoint(&half);
        drop(half); // the "kill": nothing survives but the checkpoint bytes
        let mut resumed = decode_checkpoint(bytes, mk()).unwrap();
        for _ in 0..15 {
            resumed.step();
        }
        assert_systems_bit_equal(&resumed.sys, &reference.sys, "hybrid checkpoint resume");
        assert_eq!(
            resumed.engine.interaction_count(),
            reference.engine.interaction_count(),
            "interaction counter must resume, not reset"
        );
        assert_eq!(
            resumed.engine.tree_work(),
            reference.engine.tree_work(),
            "walk counters must resume, not reset"
        );
    }
}

#[test]
fn scheduler_kind_survives_checkpoint_resume() {
    // A heap-scheduled run checkpointed and resumed must continue the same
    // trajectory as the uninterrupted run (the scheduler is rebuilt from
    // particle times on resume, so the kind is a pure implementation axis).
    use grape6_sim::checkpoint::{decode_checkpoint, encode_checkpoint};
    let reference = run(DirectEngine::new(), 48, 21, 30, SchedulerKind::Heap);
    let half = run(DirectEngine::new(), 48, 21, 15, SchedulerKind::Heap);
    let bytes = encode_checkpoint(&half);
    let mut resumed = decode_checkpoint(bytes, DirectEngine::new()).unwrap();
    for _ in 0..15 {
        resumed.step();
    }
    assert_systems_bit_equal(&resumed.sys, &reference.sys, "resume across scheduler kinds");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    /// Randomized end-to-end differential: any small disk, any integration
    /// length — the two schedulers must agree on every trajectory bit.
    #[test]
    fn random_disks_integrate_identically_under_both_schedulers(
        n in 8usize..48,
        seed in 0u64..1000,
        steps in 1usize..80,
    ) {
        let heap = run(DirectEngine::new(), n, seed, steps, SchedulerKind::Heap);
        let tick = run(DirectEngine::new(), n, seed, steps, SchedulerKind::TickBucket);
        assert_systems_bit_equal(&tick.sys, &heap.sys, "proptest trajectory");
        prop_assert_eq!(tick.stats(), heap.stats());
    }
}
