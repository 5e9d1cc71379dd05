//! A tour of the simulated GRAPE-6 hardware, bottom-up: one pipeline chip,
//! one processor board, the network-board tree, the fully-routed node and
//! the full 2048-chip machine's timing model (paper §4-5).
//!
//! Run with: `cargo run --release --example grape6_machine`

use grape6::core::engine::ForceEngine;
use grape6::core::particle::{ForceResult, IParticle, ParticleSystem};
use grape6::core::vec3::Vec3;
use grape6::hw::network::NetworkBoardGeometry;
use grape6::hw::{
    BoardGeometry, ChipGeometry, ClusterEngine, Grape6Engine, MachineGeometry, NetworkTree,
    TimingModel,
};

/// The force on a test particle at `pos` (not one of the resident bodies)
/// from everything `engine` holds.
fn force_at(engine: &mut impl ForceEngine, ring: &ParticleSystem, pos: Vec3) -> ForceResult {
    let probe = IParticle { index: ring.len(), pos, vel: Vec3::zero() };
    let mut out = [ForceResult::default()];
    engine.load(ring);
    engine.compute(0.0, &[probe], &mut out);
    out[0]
}

fn main() {
    // --- one chip ---
    let geom = ChipGeometry::default();
    println!(
        "GRAPE-6 chip: {} pipelines x {} virtual, {} MHz, peak {:.1} Gflops, j-capacity {}",
        geom.pipelines,
        geom.vmp,
        geom.clock_hz / 1e6,
        geom.peak_flops() / 1e9,
        geom.jmem_capacity
    );
    let cycles = geom.compute_cycles(1, 1000);
    println!(
        "  one test particle against 1000 ring bodies: {} cycles ({:.1} µs at 90 MHz)\n",
        cycles,
        cycles as f64 / 90.0
    );

    // --- one processor board ---
    let bgeom = BoardGeometry::default();
    println!(
        "processor board: {} chips, peak {:.2} Tflops, j-capacity {}\n",
        bgeom.chips,
        bgeom.peak_flops() / 1e12,
        bgeom.jmem_capacity()
    );

    // --- the network-board tree ---
    let tree = NetworkTree::spanning(16, NetworkBoardGeometry::default());
    println!(
        "NB tree for one 4-host cluster: {} levels, {} boards",
        tree.levels(),
        tree.board_count()
    );
    println!(
        "  1 MB broadcast through 90 MB/s LVDS: {:.2} ms\n",
        tree.broadcast_time(1_000_000) * 1e3
    );

    // --- the fully-routed node against the flat engine ---
    let mut ring = ParticleSystem::new(0.008, 1.0);
    for k in 0..1000 {
        let th = k as f64 * 0.00628;
        ring.push(
            Vec3::new(20.0 * th.cos(), 20.0 * th.sin(), 0.0),
            Vec3::new(-0.22 * th.sin(), 0.22 * th.cos(), 0.0),
            1e-9,
        );
    }
    let at = Vec3::new(25.0, 0.0, 0.0);
    let routed = force_at(&mut ClusterEngine::single_node(), &ring, at);
    let flat = force_at(&mut Grape6Engine::sc2002(), &ring, at);
    println!(
        "routed node (4 boards x 32 chips, every packet over the wire): \
         force from 1000 ring bodies |a| = {:.3e}, pot = {:.3e}",
        routed.acc.norm(),
        routed.pot
    );
    let same = routed.acc == flat.acc
        && routed.jerk == flat.jerk
        && routed.pot.to_bits() == flat.pot.to_bits();
    println!("  equals the flat Grape6Engine bit for bit: {same}");
    println!("  (fixed-point accumulation makes the reduction order irrelevant)\n");

    // --- the full machine ---
    let machine = MachineGeometry::sc2002();
    println!(
        "full system: {} clusters x {} hosts x {} boards x {} chips = {} chips",
        machine.clusters,
        machine.hosts_per_cluster,
        machine.boards_per_host,
        machine.board.chips,
        machine.chips()
    );
    println!("  theoretical peak: {:.1} Tflops (paper: 63.4)", machine.peak_flops() / 1e12);

    let model = TimingModel::sc2002();
    println!("\nmodeled block-step cost at N = 1.8e6 (paper's production run):");
    for n_act in [256usize, 2048, 16384] {
        let b = model.block_step(n_act, 1_800_000);
        println!(
            "  n_active = {n_act:6}: {:7.2} ms/step -> {:5.1} Tflops sustained",
            b.total() * 1e3,
            57.0 * n_act as f64 * 1.8e6 / b.total() / 1e12
        );
    }
}
