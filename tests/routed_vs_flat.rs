//! The strongest hardware-model statement in the suite: an entire
//! block-timestep integration through the *fully-routed* machine (wire
//! packets, board and chip j-slices, reduction merges; at four hosts one
//! mirrored j-memory per host, each taking every write-back) is
//! **bit-identical** to the
//! fast flat-memory engine. This is the software proof of the property the
//! GRAPE-6 designers built in hardware: fixed-point accumulation makes the
//! reduction order irrelevant, so topology cannot change the answer.

mod common;

use grape6::prelude::*;

fn disk() -> grape6_core::particle::ParticleSystem {
    common::disk(96, 123)
}

#[test]
fn full_integration_is_bit_identical_across_data_paths() {
    let config = HermiteConfig { dt_max: 8.0, ..HermiteConfig::default() };

    let mut sim_flat = Simulation::new(disk(), config, Grape6Engine::sc2002());
    let flat_steps = sim_flat.run_to(4.0, 0.0).block_steps;

    // The routed single node, then the four-host cluster. Each takes at
    // most the flat run's block steps: a routed fault that shrinks the
    // timesteps fails the comparison below instead of stepping to t = 4 in
    // ever smaller blocks.
    for routed in [ClusterEngine::single_node(), ClusterEngine::production()] {
        let tag = format!("{} host(s)", routed.hosts());
        let mut sim_routed = Simulation::new(disk(), config, routed);
        while sim_routed.stats().block_steps < flat_steps && sim_routed.t() < 4.0 {
            sim_routed.step();
        }

        assert_eq!(sim_flat.stats(), sim_routed.stats(), "{tag}");
        common::assert_systems_bit_equal(&sim_flat.sys, &sim_routed.sys, &tag);
    }
}

#[test]
fn cluster_mirrors_stay_consistent_through_writebacks() {
    use grape6_core::particle::{ForceResult, IParticle};
    use grape6_core::vec3::Vec3;

    let mut sys = disk();
    let mut cluster = ClusterEngine::production();
    let mut flat = Grape6Engine::sc2002();
    cluster.load(&sys);
    flat.load(&sys);

    // Write-backs of one particle each, rotating over the four hosts that
    // own index k % 4; every host's mirror takes every one of them.
    for k in 0..32 {
        sys.pos[k] += Vec3::new(0.01 * (k as f64 + 1.0), -0.005, 0.001);
        sys.vel[k] *= 1.001;
        sys.time[k] = 0.25;
        cluster.update_j(&sys, &[k]);
        flat.update_j(&sys, &[k]);
    }

    // Four copies of one probe: the cluster deals one copy to each host.
    let probe = IParticle { index: sys.len(), pos: Vec3::zero(), vel: Vec3::zero() };
    let ips = vec![probe; cluster.hosts()];
    let mut fs = vec![ForceResult::default(); ips.len()];
    let mut reference = vec![ForceResult::default(); 1];
    cluster.compute(0.5, &ips, &mut fs);
    flat.compute(0.5, &ips[..1], &mut reference);
    for (h, f) in fs.iter().enumerate() {
        assert_eq!(f.acc, reference[0].acc, "host {h} acc vs Grape6Engine");
        assert_eq!(f.jerk, reference[0].jerk, "host {h} jerk vs Grape6Engine");
        assert_eq!(f.pot.to_bits(), reference[0].pot.to_bits(), "host {h} pot vs Grape6Engine");
    }
}
