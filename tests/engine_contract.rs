//! The `ForceEngine::compute` contract the integrator's reused result
//! buffer relies on: every element of `out` is overwritten. Each engine,
//! handed a buffer full of poison (NaN sums, a bogus neighbour), must
//! return exactly the bits it returns over a defaulted buffer — on the
//! small-block path (b = 1, 16), the large-block path (b = 17, N), and for
//! the hybrid engine on both of its paths. (`large_n_smoke`'s zero-force
//! engine, private to that binary, is pinned by its own unit test.)
//!
//! And the resume contract every engine that writes a checkpoint shares:
//! a damaged `G6CK` decodes to `Ok` or `Err`, never a panic.

mod common;

use common::disk;
use grape6::prelude::*;
use grape6_conformance::broken::BrokenEngine;
use grape6_core::force::ScalarDirectEngine;
use grape6_core::particle::{ForceResult, IParticle, Neighbor, ParticleSystem};
use grape6_hw::ScalarGrape6Engine;
use grape6_sim::io::BINARY_PARTICLE_BYTES;
use std::panic::{catch_unwind, AssertUnwindSafe};

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

/// Every strict prefix of a checkpoint `make`'s engine wrote a few steps
/// into a `DiskBuilder::paper(1)` run is refused, and every single-bit flip
/// of every byte but the particle records decodes to `Ok` or `Err` — never
/// a panic.
fn assert_decode_never_panics<E: ForceEngine>(name: &str, make: impl Fn() -> E) {
    for telemetry in [false, true] {
        let (sys, cfg) = (DiskBuilder::paper(1).with_seed(5).build(), HermiteConfig::default());
        let mut sim = match telemetry {
            false => Simulation::new(sys, cfg, make()),
            true => Simulation::with_telemetry(sys, cfg, make()),
        };
        for _ in 0..4 {
            sim.step();
        }
        let ckpt = encode_checkpoint(&sim).to_vec();
        let decode = |raw: &[u8]| {
            catch_unwind(AssertUnwindSafe(|| {
                decode_checkpoint(raw.to_vec().into(), make()).is_ok()
            }))
        };
        let tag = format!("{name}, telemetry {telemetry}");
        assert!(matches!(decode(&ckpt), Ok(true)), "{tag}: the intact checkpoint");
        for cut in 0..ckpt.len() {
            assert!(matches!(decode(&ckpt[..cut]), Ok(false)), "{tag}: a {cut}-byte prefix");
        }
        // Magic, version, system header and the one chunk's length: 44 bytes.
        let records = 44..44 + sim.sys.len() * BINARY_PARTICLE_BYTES;
        for at in (0..ckpt.len()).filter(|at| !records.contains(at)) {
            for bit in 0..8 {
                let mut raw = ckpt.clone();
                raw[at] ^= 1 << bit;
                assert!(decode(&raw).is_ok(), "{tag}: flipping bit {bit} of byte {at} panics");
            }
        }
    }
}

#[test]
fn every_resumable_engine_decodes_a_damaged_checkpoint_without_panicking() {
    assert_decode_never_panics("direct", DirectEngine::new);
    assert_decode_never_panics("grape6", || Grape6Engine::new(Grape6Config::single_host()));
    assert_decode_never_panics("grape6-ft", || {
        FaultTolerantEngine::new(Grape6Config::single_host(), &FaultPlan::empty())
    });
    assert_decode_never_panics("hybrid", || HybridTreeEngine::new(0.5, 1.0));
}
