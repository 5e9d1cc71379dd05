//! The scheduler-equivalence contract, end to end: at every block step of a
//! whole integration, the tick-bucket event queue that drives it must pop
//! exactly the (time, block) the binary-heap reference pops when it replays
//! the same `time[i] + dt[i]` pushes in the shadow — so no trajectory bit
//! depends on which of the two is the product path, on any engine family.
//! (The (time, block)-sequence property on synthetic schedules is pinned by
//! the differential proptest in `grape6_core::blockstep`.)

mod common;

use common::{assert_systems_bit_equal, disk};
use grape6::prelude::*;
use grape6_core::blockstep::{ShadowReplay, TickScheduler};
use grape6_core::particle::{ForceResult, IParticle};
use grape6_core::vec3::Vec3;
use proptest::prelude::*;

/// Step `sim` `steps` block steps with the heap replaying each one in its
/// shadow; panics at the first block the two disagree on.
fn replay<E: ForceEngine>(mut sim: Simulation<E>, steps: usize, tag: &str) -> Simulation<E> {
    let mut shadow = ShadowReplay::new(&sim.sys);
    for _ in 0..steps {
        let t = sim.step().t;
        if let Err(e) = shadow.check(t, sim.integrator.last_block(), &sim.sys) {
            panic!("{tag}: {e}");
        }
    }
    sim
}

/// Integrate `steps` block steps of the standard disk under the heap's
/// shadow, returning the simulation.
fn run<E: ForceEngine>(engine: E, n: usize, seed: u64, steps: usize) -> Simulation<E> {
    let cfg = HermiteConfig { dt_max: 2.0f64.powi(2), ..HermiteConfig::default() };
    let tag = format!("{} n={n} seed={seed} steps={steps}", engine.name());
    replay(Simulation::new(disk(n, seed), cfg, engine), steps, &tag)
}

#[test]
fn direct_trajectories_bitwise_equal_across_schedulers() {
    // The matrix axis: system size × seed × integration length.
    for &(n, seed, steps) in &[(24usize, 7u64, 160usize), (96, 3, 120), (257, 11, 60)] {
        run(DirectEngine::new(), n, seed, steps);
    }
}

#[test]
fn grape6_trajectories_bitwise_equal_across_schedulers() {
    for &(n, seed, steps) in &[(32usize, 5u64, 120usize), (200, 9, 40)] {
        run(Grape6Engine::sc2002(), n, seed, steps);
    }
}

#[test]
fn hybrid_trajectories_bitwise_equal_across_schedulers() {
    // The approximate engine rides the same contract: the blocks it is
    // asked for are the heap's, so its tree builds and walks are too.
    for &(n, seed, steps) in &[(24usize, 7u64, 120usize), (96, 3, 60)] {
        run(HybridTreeEngine::new(0.5, 3.0), n, seed, steps);
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
        let reference = run(mk(), 48, 21, 30);
        let half = run(mk(), 48, 21, 15);
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
    // The resumed integrator rebuilds its schedule from the decoded
    // particle times; a shadow heap rebuilt from the same system must pop
    // the same blocks, and the run must continue the uninterrupted one.
    use grape6_sim::checkpoint::{decode_checkpoint, encode_checkpoint};
    let reference = run(DirectEngine::new(), 48, 21, 30);
    let half = run(DirectEngine::new(), 48, 21, 15);
    let bytes = encode_checkpoint(&half);
    let resumed = decode_checkpoint(bytes, DirectEngine::new()).unwrap();
    let resumed = replay(resumed, 15, "resumed direct n=48 seed=21");
    assert_systems_bit_equal(&resumed.sys, &reference.sys, "resume under the shadow heap");
}

/// Zero mutual forces: the central body alone moves the bodies, so a
/// million-body block step costs host work only.
struct ZeroForces;

impl ForceEngine for ZeroForces {
    fn load(&mut self, _sys: &ParticleSystem) {}
    fn update_j(&mut self, _sys: &ParticleSystem, _indices: &[usize]) {}
    fn compute(&mut self, _t: f64, _ips: &[IParticle], out: &mut [ForceResult]) {
        out.fill(ForceResult::default());
    }
    fn interaction_count(&self) -> u64 {
        0
    }
    fn name(&self) -> &'static str {
        "zero"
    }
}

#[test]
fn million_body_resume_pops_the_heaps_blocks() {
    // 2^20 bodies on circular orbits at t = 3, resumed from eight clocks
    // (steps 4 down to 1/32, last corrected at 0, 2 or 3) scattered over the
    // indices, so every rung's bitmap spans all 2^14 words and the blocks
    // hold indices from word 0 to the last.
    let n = 1usize << 20;
    let mut sys = ParticleSystem::new(0.0, 1.0);
    sys.reserve(n);
    for i in 0..n {
        let (r, phi) = (20.0 + (i % 1000) as f64 * 0.01, i as f64 * 0.618);
        let pos = Vec3::new(r * phi.cos(), r * phi.sin(), 0.0);
        let vel = Vec3::new(-phi.sin(), phi.cos(), 0.0) * r.powf(-0.5);
        sys.push(pos, vel, 1e-12);
    }
    sys.t = 3.0;
    for i in 0..n {
        let rung = (i.wrapping_mul(0x9e37_79b9) >> 7) % 8;
        sys.dt[i] = 4.0 / (1u32 << rung) as f64;
        sys.time[i] = (3.0 / sys.dt[i]).floor() * sys.dt[i];
    }
    let cfg = HermiteConfig { dt_max: 4.0, ..HermiteConfig::default() };
    TickScheduler::check_clocks(sys.t, &sys.time, &sys.dt, cfg.dt_min, cfg.dt_max).unwrap();
    let mut integrator = BlockHermite::resume_from(cfg, &sys, RunStats::default());
    let mut shadow = ShadowReplay::new(&sys);
    let mut engine = ZeroForces;
    while integrator.stats().particle_steps < 2 * n as u64 {
        let t = integrator.step(&mut sys, &mut engine).t;
        if let Err(e) = shadow.check(t, integrator.last_block(), &sys) {
            panic!("resumed n = 2^20: {e}");
        }
    }
    assert!(integrator.stats().block_steps >= 8, "{:?}", integrator.stats());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    /// Randomized end-to-end replay: any small disk, any integration
    /// length — the two schedulers must agree on every block.
    #[test]
    fn random_disks_integrate_identically_under_both_schedulers(
        n in 8usize..48,
        seed in 0u64..1000,
        steps in 1usize..80,
    ) {
        run(DirectEngine::new(), n, seed, steps);
    }
}
