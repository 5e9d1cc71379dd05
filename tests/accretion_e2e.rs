//! End-to-end accretion: collisions detected through the engines'
//! nearest-neighbour reports, mergers conserving mass and momentum, on both
//! the CPU reference and the GRAPE-6 simulator.

use grape6::prelude::*;
use grape6::sim::RadiusModel;
use grape6_core::vec3::Vec3 as V;

/// A ring guaranteed to collide quickly: two bodies on the same circular
/// orbit, slightly separated in azimuth, with a tiny relative drift, plus
/// background bodies far away.
fn collision_course() -> grape6_core::particle::ParticleSystem {
    let mut sys = grape6_core::particle::ParticleSystem::new(0.008, 1.0);
    let r = 20.0;
    let v = units::circular_speed(r, 1.0);
    // Two nearly-coincident bodies; the leading one slightly slower so they
    // close in.
    sys.push(V::new(r, 0.0, 0.0), V::new(0.0, v, 0.0), 1e-7);
    sys.push(V::new(r, 2e-4, 0.0), V::new(0.0, v * 0.99999, 0.0), 1e-7);
    // Background at other azimuths.
    for k in 1..16 {
        let th = k as f64 * std::f64::consts::TAU / 16.0;
        sys.push(
            V::new(r * th.cos(), r * th.sin(), 0.0),
            V::new(-v * th.sin(), v * th.cos(), 0.0),
            1e-10,
        );
    }
    sys
}

fn run_accretion<E: grape6_core::engine::ForceEngine>(engine: E) -> Simulation<E> {
    let config = HermiteConfig { dt_max: 8.0, ..HermiteConfig::default() };
    let mut sim = Simulation::new(collision_course(), config, engine);
    // Huge inflation so the near-coincident pair merges within a few steps.
    sim.enable_accretion(RadiusModel::icy_inflated(200.0));
    sim.run_to(5.0, 0.0);
    sim
}

#[test]
fn merger_happens_and_conserves_mass_cpu() {
    let sim = run_accretion(DirectEngine::new());
    assert!(sim.accretion_log.count() >= 1, "no merger detected");
    let total: f64 = sim.sys.total_mass();
    let expect = 2e-7 + 15.0 * 1e-10;
    assert!((total - expect).abs() < 1e-18, "mass changed: {total:e}");
    // Exactly one ghost from the near-coincident pair.
    let ghosts = sim.sys.mass.iter().filter(|&&m| m == 0.0).count();
    assert_eq!(ghosts, sim.accretion_log.count());
    // The survivor carries the merged mass.
    let m_max = sim.sys.mass.iter().cloned().fold(0.0, f64::max);
    assert!((m_max - 2e-7).abs() < 1e-18);
}

#[test]
fn merger_happens_on_grape6_engine_too() {
    let sim = run_accretion(Grape6Engine::sc2002());
    assert!(sim.accretion_log.count() >= 1, "hardware nn report did not trigger merger");
    let ev = sim.accretion_log.events[0];
    assert!(ev.separation < 1e-3);
    assert!(ev.merged_mass >= 2e-7 * 0.999);
}

#[test]
fn ghosts_do_not_disturb_the_integration() {
    let mut sim = run_accretion(DirectEngine::new());
    let before = sim.accretion_log.count();
    assert!(before >= 1);
    // Keep integrating well past the merger; the run must remain stable and
    // bound, and the ghost exerts no force (zero mass).
    sim.run_to(50.0, 0.0);
    assert!(sim.sys.validate().is_ok());
    for i in 0..sim.sys.len() {
        if sim.sys.mass[i] > 0.0 {
            let el = state_to_elements(sim.sys.pos[i], sim.sys.vel[i], 1.0);
            assert!(el.is_bound(), "particle {i} unbound after merger");
        }
    }
}

#[test]
fn no_spurious_mergers_in_a_sparse_disk() {
    // Production radii (no inflation): a 200-body disk must not merge in a
    // few years.
    let sys = DiskBuilder::paper(200).with_seed(42).build();
    let config = HermiteConfig { dt_max: 8.0, ..HermiteConfig::default() };
    let mut sim = Simulation::new(sys, config, DirectEngine::new());
    sim.enable_accretion(RadiusModel::icy());
    sim.run_to(20.0, 0.0);
    assert_eq!(sim.accretion_log.count(), 0);
}

/// Resume bit-identically across a merge whose partner is not in the block.
/// The partner is between its own steps, so its scheduled event is still
/// `time + dt` on its step grid. The merge must leave it there, because a
/// run resumed from a checkpoint reschedules every body at `time + dt`.
#[test]
fn resume_after_a_merge_outside_the_block_is_bit_identical() {
    let sys = DiskBuilder::paper(256).with_seed(5).build();
    let config = HermiteConfig { dt_max: 8.0, ..HermiteConfig::default() };
    let model = RadiusModel::icy_inflated(3000.0);
    let mut live = Simulation::new(sys, config, DirectEngine::new());
    live.enable_accretion(model);

    // Step until a merge pulls in a body from outside the block, then cut.
    let mut cuts = 0;
    while cuts == 0 {
        let merged = live.accretion_log.count();
        live.step();
        let block = live.integrator.last_block();
        cuts = live.accretion_log.events[merged..]
            .iter()
            .filter(|ev| !block.contains(&ev.survivor) || !block.contains(&ev.absorbed))
            .count();
        assert!(live.stats().block_steps < 20_000, "no merge outside the block");
    }
    let (cut, merged_at_cut) = (live.stats().block_steps, live.accretion_log.count());
    let mut twin = decode_checkpoint(encode_checkpoint(&live), DirectEngine::new()).unwrap();
    twin.enable_accretion(model);

    for step in cut..cut + 2_000 {
        let (a, b) = (live.step(), twin.step());
        let at = format!("block step {step}, t = {}", a.t);
        assert_eq!(a.t.to_bits(), b.t.to_bits(), "{at}");
        assert_eq!(live.integrator.last_block(), twin.integrator.last_block(), "{at}");
        let (x, y) = (&live.sys, &twin.sys);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let vbits =
            |v: &[V]| v.iter().flat_map(|p| [p.x, p.y, p.z]).map(f64::to_bits).collect::<Vec<_>>();
        assert_eq!(vbits(&x.pos), vbits(&y.pos), "{at}: positions differ");
        assert_eq!(vbits(&x.vel), vbits(&y.vel), "{at}: velocities differ");
        assert_eq!(bits(&x.time), bits(&y.time), "{at}: particle times differ");
        assert_eq!(bits(&x.dt), bits(&y.dt), "{at}: particle steps differ");
        assert_eq!(bits(&x.mass), bits(&y.mass), "{at}: masses differ");
    }
    assert_eq!(live.stats(), twin.stats());
    assert_eq!(live.accretion_log.count(), merged_at_cut + twin.accretion_log.count());
}
