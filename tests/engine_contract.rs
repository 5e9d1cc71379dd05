//! The `ForceEngine::compute` contract the integrator's reused result
//! buffer relies on: every element of `out` is overwritten. Each engine,
//! handed a buffer full of poison (NaN sums, a bogus neighbour), must
//! return exactly the bits it returns over a defaulted buffer — on the
//! small-block path (b = 1, 16), the large-block path (b = 17, N), and for
//! the hybrid engine on both of its paths. (`large_n_smoke`'s zero-force
//! engine, private to that binary, is pinned by its own unit test.)

mod common;

use common::disk;
use grape6::prelude::*;
use grape6_conformance::broken::BrokenEngine;
use grape6_core::force::ScalarDirectEngine;
use grape6_core::particle::{ForceResult, IParticle, Neighbor, ParticleSystem};
use grape6_hw::ScalarGrape6Engine;

fn poison(b: usize) -> Vec<ForceResult> {
    let nan = Vec3::new(f64::NAN, f64::NAN, f64::NAN);
    let nn = Some(Neighbor { index: 7, r2: -1.0 });
    vec![ForceResult { acc: nan, jerk: nan, pot: f64::NAN, nn }; b]
}

type Bits = ([u64; 7], Option<(usize, u64)>);

fn bits(r: &ForceResult) -> Bits {
    let v = [r.acc.x, r.acc.y, r.acc.z, r.jerk.x, r.jerk.y, r.jerk.z, r.pot];
    (v.map(f64::to_bits), r.nn.map(|nb| (nb.index, nb.r2.to_bits())))
}

/// `b` i-particles spread over the system, predicted to `t`.
fn spread_ips(sys: &ParticleSystem, b: usize, t: f64) -> Vec<IParticle> {
    (0..b)
        .map(|k| {
            let index = k * sys.len() / b;
            let (pos, vel) = sys.predict(index, t);
            IParticle { index, pos, vel }
        })
        .collect()
}

fn assert_overwrites_out<E: ForceEngine>(name: &str, make: impl Fn() -> E) {
    let mut sys = disk(60, 11);
    // Live derivatives and staggered times: the j-predictors matter.
    for i in 0..sys.len() {
        sys.acc[i] = sys.pos[i] * -1e-4;
        sys.jerk[i] = sys.vel[i] * -1e-4;
        sys.time[i] = (i % 4) as f64 * 0.03125;
    }
    let t = 0.125;
    for b in [1, 16, 17, sys.len()] {
        let ips = spread_ips(&sys, b, t);
        let run = |mut out: Vec<ForceResult>| {
            let mut e = make();
            e.load(&sys);
            e.compute(t, &ips, &mut out);
            out.iter().map(bits).collect::<Vec<_>>()
        };
        let clean = run(vec![ForceResult::default(); b]);
        let dirty = run(poison(b));
        for (k, (c, d)) in clean.iter().zip(&dirty).enumerate() {
            assert_eq!(c, d, "{name}: b={b} slot {k} depends on what `out` held");
        }
    }
}

#[test]
fn every_engine_overwrites_every_element_of_out() {
    assert_overwrites_out("direct", DirectEngine::new);
    assert_overwrites_out("direct-scalar", ScalarDirectEngine::default);
    assert_overwrites_out("hybrid", || HybridTreeEngine::new(0.5, 1.0));
    assert_overwrites_out("hybrid θ=0", HybridTreeEngine::direct_equivalent);
    assert_overwrites_out("grape6", || Grape6Engine::new(Grape6Config::single_host()));
    assert_overwrites_out("grape6-scalar", || {
        ScalarGrape6Engine(Grape6Engine::new(Grape6Config::single_host()))
    });
    assert_overwrites_out("grape6-node", ClusterEngine::single_node);
    assert_overwrites_out("grape6-cluster", ClusterEngine::production);
    assert_overwrites_out("grape6-ft", || {
        FaultTolerantEngine::new(Grape6Config::single_host(), &FaultPlan::empty())
    });
    assert_overwrites_out("broken-dropped-pair", BrokenEngine::new);
}
