//! Criterion benches of the Barnes-Hut baseline: tree build, single
//! traversals at several opening angles, the per-point and per-group list
//! walks, and the per-blockstep cost that the §3 argument turns on.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use grape6_core::engine::ForceEngine;
use grape6_core::particle::{ForceResult, IParticle};
use grape6_disk::DiskBuilder;
use grape6_tree::{HybridTreeEngine, InteractionLists, Octree};

fn bench_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("tree_build");
    for &n in &[2048usize, 16384] {
        let sys = DiskBuilder::paper(n).build();
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| Octree::build(black_box(&sys.pos), &sys.vel, &sys.mass))
        });
    }
    group.finish();
}

fn bench_traverse(c: &mut Criterion) {
    let sys = DiskBuilder::paper(16384).build();
    let tree = Octree::build(&sys.pos, &sys.vel, &sys.mass);
    let mut group = c.benchmark_group("tree_traverse_n16k");
    for &theta in &[0.3f64, 0.5, 0.9] {
        group.bench_with_input(BenchmarkId::from_parameter(theta), &theta, |b, &th| {
            b.iter(|| tree.force_on(black_box(sys.pos[100]), sys.vel[100], th, 6.4e-5, 100))
        });
    }
    group.finish();
}

fn bench_lists(c: &mut Criterion) {
    // The two list walks of the hybrid engine's configuration on the
    // `hybrid_32k` disk: one point's own lists against the lists a whole
    // group shares (Barnes' modified algorithm) — the second is the longer
    // walk, paid once per group instead of once per member.
    let sys = DiskBuilder::paper(32768).build();
    let tree = Octree::build(&sys.pos, &sys.vel, &sys.mass);
    let mut lists = InteractionLists::default();
    let mut group = c.benchmark_group("tree_lists_n32k");
    group.bench_function("per_point", |b| {
        b.iter(|| {
            tree.interaction_lists(black_box(sys.pos[100]), 0.5, 1.0, &mut lists);
            lists.len()
        })
    });
    let g = tree.group_of(100, sys.pos[100]).expect("body 100 is a tree body");
    group.throughput(Throughput::Elements(tree.group_bodies(g).len() as u64));
    group.bench_function("per_group", |b| {
        b.iter(|| {
            tree.group_lists(black_box(g), 0.5, 1.0, &mut lists);
            lists.len()
        })
    });
    group.finish();
}

fn bench_small_block_cost(c: &mut Criterion) {
    // The §3 killer: a force request at a fresh time forces a full rebuild,
    // however few particles ask. The engine sums blocks of up to 16 directly
    // instead, so the smallest block that still pays is 17 particles.
    // Compare against a same-time request that reuses the tree, and against
    // the one-particle block that never builds one.
    let sys = DiskBuilder::paper(8192).build();
    let mut engine = HybridTreeEngine::new(0.5, 0.0);
    engine.load(&sys);
    let ips: Vec<IParticle> =
        (0..17).map(|i| IParticle { index: i, pos: sys.pos[i], vel: sys.vel[i] }).collect();
    let mut out = [ForceResult::default(); 17];
    let mut t = 0.0f64;
    c.bench_function("tree_block17_fresh_time", |b| {
        b.iter(|| {
            t += 1e-9; // force a rebuild each call
            engine.compute(black_box(t), &ips, &mut out)
        })
    });
    engine.compute(1e6, &ips, &mut out);
    c.bench_function("tree_block17_cached_tree", |b| {
        b.iter(|| engine.compute(black_box(1e6), &ips, &mut out))
    });
    c.bench_function("tree_block1_direct", |b| {
        b.iter(|| {
            t += 1e-9;
            engine.compute(black_box(t), &ips[..1], &mut out[..1])
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_build, bench_traverse, bench_lists, bench_small_block_cost
}
criterion_main!(benches);
