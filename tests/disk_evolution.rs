//! End-to-end physics checks on the Uranus-Neptune disk workload.

use grape6::prelude::*;
use grape6_core::units;

#[test]
fn disk_run_conserves_energy_and_momentum() {
    let sys = DiskBuilder::paper(256).with_seed(3).build();
    let config = HermiteConfig { dt_max: 8.0, ..HermiteConfig::default() };
    let mut sim = Simulation::new(sys, config, DirectEngine::new());
    sim.run_to(units::years_to_time(3.0), 0.0);
    sim.record_diagnostics();
    let d = sim.diagnostics.last().unwrap();
    assert!(d.energy_error < 5e-5, "|dE/E| = {:e}", d.energy_error);
    assert!(d.l_error < 5e-5, "|dL/L| = {:e}", d.l_error);
}

#[test]
fn protoplanets_remain_on_circular_orbits_short_term() {
    let n = 256;
    let sys = DiskBuilder::paper(n).with_seed(4).build();
    let config = HermiteConfig { dt_max: 8.0, ..HermiteConfig::default() };
    let mut sim = Simulation::new(sys, config, DirectEngine::new());
    sim.run_to(units::years_to_time(5.0), 0.0);
    let (pos, vel) = BlockHermite::synchronized_state(&sim.sys, sim.t());
    for (k, expect_a) in [(n, 20.0), (n + 1, 30.0)] {
        let el = state_to_elements(pos[k], vel[k], 1.0);
        assert!((el.a - expect_a).abs() < 0.05, "protoplanet a = {}", el.a);
        assert!(el.e < 0.01, "protoplanet e = {}", el.e);
    }
}

#[test]
fn cold_disk_stays_cold_without_protoplanets() {
    let n = 256;
    let builder = DiskBuilder::paper(n).with_seed(5).without_protoplanets();
    let sigma_e0 = builder.sigma_e;
    let sys = builder.build();
    let config = HermiteConfig { dt_max: 8.0, ..HermiteConfig::default() };
    let mut sim = Simulation::new(sys, config, DirectEngine::new());
    sim.run_to(units::years_to_time(3.0), 0.0);
    let idx: Vec<usize> = (0..n).collect();
    let census = ScatteringCensus::classify(&sim.sys, &idx, 14.0, 36.0);
    assert_eq!(census.ejected, 0);
    assert!(census.rms_e_retained < 3.0 * sigma_e0, "rms e = {}", census.rms_e_retained);
}

#[test]
fn block_structure_emerges() {
    let sys = DiskBuilder::paper(512).with_seed(6).build();
    let config = HermiteConfig { dt_max: 8.0, ..HermiteConfig::default() };
    let mut sim = Simulation::new(sys, config, DirectEngine::new());
    sim.run_to(30.0, 0.0);
    // Individual timesteps must actually individualize: multiple rungs and
    // blocks smaller than the whole system.
    let ts = sim.timestep_histogram();
    assert!(ts.occupied_rungs() >= 2, "only {} rungs", ts.occupied_rungs());
    assert!(
        sim.stats().mean_block_size() < 514.0 * 0.9,
        "mean block {} ≈ whole system",
        sim.stats().mean_block_size()
    );
}

#[test]
fn snapshot_roundtrip_preserves_running_state() {
    let sys = DiskBuilder::paper(64).with_seed(8).build();
    let config = HermiteConfig { dt_max: 8.0, ..HermiteConfig::default() };
    let mut sim = Simulation::new(sys, config, DirectEngine::new());
    sim.run_to(2.0, 0.0);

    let dir = std::env::temp_dir().join("grape6_integration");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("running.json");
    grape6::sim::save_snapshot(&path, &sim.sys).unwrap();
    let restored = grape6::sim::load_snapshot(&path).unwrap();
    assert_eq!(restored.pos, sim.sys.pos);
    assert_eq!(restored.vel, sim.sys.vel);
    assert_eq!(restored.acc, sim.sys.acc);
    assert_eq!(restored.dt, sim.sys.dt);
    assert_eq!(restored.t, sim.sys.t);
    std::fs::remove_file(&path).ok();

    // A restored system can continue integrating.
    let mut sim2 = Simulation::new(restored, config, DirectEngine::new());
    sim2.run_to(sim.t() + 1.0, 0.0);
    assert!(sim2.t() > sim.t());
}

#[test]
fn shared_timestep_costs_more_interactions_than_block() {
    // The §3 argument end-to-end: when even ONE close pair exists, the
    // shared-step integrator drags every particle to the encounter
    // timescale, while the block scheme localizes the cost. Build a quiet
    // ring plus a tight binary and compare total pairwise interactions.
    fn workload() -> grape6_core::particle::ParticleSystem {
        let mut sys = grape6_core::particle::ParticleSystem::new(1e-5, 1.0);
        for k in 0..64 {
            let th = k as f64 * std::f64::consts::TAU / 64.0;
            let r = 18.0 + 0.15 * k as f64;
            let v = units::circular_speed(r, 1.0);
            sys.push(
                Vec3::new(r * th.cos(), r * th.sin(), 0.0),
                Vec3::new(-v * th.sin(), v * th.cos(), 0.0),
                1e-10,
            );
        }
        // Tight binary at 25 AU: separation 0.002 AU with ~0.3 M_earth
        // components → period ≈ 0.4 units, two orders below the ring's
        // stepping timescale.
        let d = 2e-3_f64;
        let m = 1e-6_f64;
        let om = (2.0 * m / (d * d * d)).sqrt();
        let vc = units::circular_speed(25.0, 1.0);
        sys.push(Vec3::new(25.0 + d / 2.0, 0.0, 0.0), Vec3::new(0.0, vc + om * d / 2.0, 0.0), m);
        sys.push(Vec3::new(25.0 - d / 2.0, 0.0, 0.0), Vec3::new(0.0, vc - om * d / 2.0, 0.0), m);
        sys
    }

    let t_end = 2.0;
    let config = HermiteConfig { dt_max: 8.0, ..HermiteConfig::default() };
    let mut block_sim = Simulation::new(workload(), config, DirectEngine::new());
    block_sim.run_to(t_end, 0.0);
    let block_cost = block_sim.stats().interactions;

    let mut shared_sys = workload();
    let mut shared = SharedHermite::new(0.02, 8.0, 2.0f64.powi(-40));
    let mut engine = DirectEngine::new();
    shared.initialize(&mut shared_sys, &mut engine);
    let shared_stats = shared.evolve(&mut shared_sys, &mut engine, t_end);

    assert!(
        shared_stats.interactions > 5 * block_cost,
        "shared {} vs block {}",
        shared_stats.interactions,
        block_cost
    );
}
