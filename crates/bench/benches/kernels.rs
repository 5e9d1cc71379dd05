//! Criterion micro-benches of the host-side hot kernels: the pairwise
//! force/jerk evaluation, the j-sweep accumulation, the Hermite
//! predictor/corrector, and the block scheduler.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use grape6_core::blockstep::TickScheduler;
use grape6_core::engine::ForceEngine;
use grape6_core::force::{accumulate_on, pair_force_jerk, DirectEngine};
use grape6_core::hermite::{correct, predict, CorrectorTile};
use grape6_core::lanes::LANE_WIDTH;
use grape6_core::particle::{ForceResult, IParticle, ParticleSystem};
use grape6_core::vec3::Vec3;
use grape6_disk::DiskBuilder;

fn bench_pair_kernel(c: &mut Criterion) {
    let dx = Vec3::new(1.3, -0.4, 0.2);
    let dv = Vec3::new(-0.01, 0.02, 0.005);
    c.bench_function("pair_force_jerk", |b| {
        b.iter(|| pair_force_jerk(black_box(dx), black_box(dv), black_box(1e-9), black_box(6.4e-5)))
    });
}

fn bench_j_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("j_sweep");
    for &n in &[1024usize, 8192, 65536] {
        let sys = DiskBuilder::paper(n).build();
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                accumulate_on(
                    black_box(sys.pos[0]),
                    black_box(sys.vel[0]),
                    &sys.pos,
                    &sys.vel,
                    &sys.mass,
                    6.4e-5,
                    0,
                )
            })
        });
    }
    group.finish();
}

fn bench_engine_block(c: &mut Criterion) {
    // A realistic block-force call: 64 i-particles against 8k j-particles.
    let sys = DiskBuilder::paper(8192).build();
    let ips: Vec<IParticle> = (0..64)
        .map(|k| {
            let i = k * 128;
            IParticle { index: i, pos: sys.pos[i], vel: sys.vel[i] }
        })
        .collect();
    let mut out = vec![ForceResult::default(); ips.len()];
    let mut group = c.benchmark_group("direct_engine");
    group.throughput(Throughput::Elements(64 * 8194));
    let mut engine = DirectEngine::new();
    engine.load(&sys);
    group.bench_function("block64_n8k", |b| {
        b.iter(|| engine.compute(black_box(0.0), &ips, &mut out))
    });
    group.finish();
}

fn bench_hermite(c: &mut Criterion) {
    let x = Vec3::new(20.0, 1.0, 0.0);
    let v = Vec3::new(0.0, 0.22, 0.0);
    let a0 = Vec3::new(-2e-3, 0.0, 0.0);
    let j0 = Vec3::new(0.0, -5e-6, 0.0);
    let a1 = Vec3::new(-1.9e-3, -1e-5, 0.0);
    let j1 = Vec3::new(1e-7, -5e-6, 0.0);
    c.bench_function("hermite_predict", |b| {
        b.iter(|| {
            predict(black_box(x), black_box(v), black_box(a0), black_box(j0), black_box(0.125))
        })
    });
    c.bench_function("hermite_correct", |b| {
        b.iter(|| {
            let (xp, vp) = predict(x, v, a0, j0, 0.125);
            correct(black_box(xp), black_box(vp), a0, j0, black_box(a1), black_box(j1), 0.125)
        })
    });
    // The block-step corrector over one full tile — gather, central field,
    // correction and Aarseth step, scatter — as `BlockHermite` runs it. One
    // iteration corrects LANE_WIDTH particles, so the row's elem/s is
    // particles per second (1e9 / rate = ns per particle).
    let mut sys = ParticleSystem::new(0.0, 1.0);
    for k in 0..LANE_WIDTH {
        let i = sys.push(x + Vec3::new(0.0, k as f64, 0.0), v, 1e-9);
        (sys.acc[i], sys.jerk[i]) = (a0, j0);
    }
    let ips: Vec<IParticle> = (0..LANE_WIDTH)
        .map(|i| {
            let (pos, vel) = sys.predict(i, 0.125);
            IParticle { index: i, pos, vel }
        })
        .collect();
    let results = vec![ForceResult { acc: a1, jerk: j1, pot: -1e-9, nn: None }; LANE_WIDTH];
    let mut out = sys.clone();
    let mut group = c.benchmark_group(&format!("hermite_correct_tile_w{LANE_WIDTH}"));
    group.throughput(Throughput::Elements(LANE_WIDTH as u64));
    group.bench_function("particles", |b| {
        b.iter(|| {
            let mut tile =
                CorrectorTile::<LANE_WIDTH>::load(black_box(&ips), &results, &sys, 0.125);
            tile.compute(black_box(1.0), 0.02);
            tile.store(&ips, &results, &mut out, 0.125)[0]
        })
    });
    group.finish();
}

fn bench_scheduler(c: &mut Criterion) {
    let n = 16384usize;
    let dt_min = 2.0f64.powi(-10);
    c.bench_function("scheduler_push_pop_16k", |b| {
        b.iter(|| {
            // The integrator's schedule just after start: particle i on rung
            // i % 11, first due one step of 2^rung ticks after t = 0.
            let mut s = TickScheduler::new(dt_min);
            for i in 0..n {
                s.push(i, dt_min * (1u64 << (i % 11)) as f64);
            }
            let mut block = Vec::new();
            let mut total = 0usize;
            while s.pop_block(&mut block).is_some() {
                total += block.len();
            }
            black_box(total)
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_pair_kernel, bench_j_sweep, bench_engine_block, bench_hermite, bench_scheduler
}
criterion_main!(benches);
