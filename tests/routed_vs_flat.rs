//! The strongest hardware-model statement in the suite: an entire
//! block-timestep integration through the *fully-routed* machine (wire
//! packets, per-board j-slices, reduction merges; at four hosts also the
//! write-back exchange and the blockstep barrier) is **bit-identical** to the
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
    sim_flat.run_to(4.0, 0.0);

    // The routed single node, then the four-host cluster.
    for routed in [ClusterEngine::single_node(), ClusterEngine::production()] {
        let tag = format!("{} host(s)", routed.hosts());
        let mut sim_routed = Simulation::new(disk(), config, routed);
        sim_routed.run_to(4.0, 0.0);

        assert_eq!(sim_flat.stats(), sim_routed.stats(), "{tag}");
        common::assert_systems_bit_equal(&sim_flat.sys, &sim_routed.sys, &tag);
    }
}

#[test]
fn cluster_mirrors_stay_consistent_through_writebacks() {
    use grape6_hw::chip::HwIParticle;
    use grape6_hw::predictor::JParticle;
    use grape6_hw::{FixedPointFormat, Grape6Cluster, Precision};

    let sys = disk();
    let fmt = FixedPointFormat::default();
    let precision = Precision::grape6();
    let js: Vec<JParticle> = (0..sys.len())
        .map(|i| {
            JParticle::encode(
                &fmt,
                precision,
                sys.pos[i],
                sys.vel[i],
                sys.acc[i],
                sys.jerk[i],
                sys.mass[i],
                0.0,
            )
        })
        .collect();
    let mut cluster = Grape6Cluster::production(precision, sys.softening);
    cluster.load_j(&js).unwrap();

    // Hosts take turns writing back "their" particles; all four nodes must
    // agree on every force afterwards.
    for (k, j) in js.iter().enumerate().take(32) {
        let host = k % 4;
        let mut moved = *j;
        moved.qpos[0] += (k as i64 + 1) << 20;
        cluster.write_back(host, k, &moved).unwrap();
    }
    cluster.barrier();
    let probe = HwIParticle::encode(
        &fmt,
        precision,
        grape6_core::vec3::Vec3::zero(),
        grape6_core::vec3::Vec3::zero(),
    );
    let fs: Vec<_> = (0..4).map(|h| cluster.compute(h, 0.0, &[(probe, 0)])[0]).collect();
    for f in &fs[1..] {
        assert_eq!(f.acc, fs[0].acc);
        assert_eq!(f.pot, fs[0].pot);
    }
    assert_eq!(cluster.host_nic_particle_bytes(), 0);
}
