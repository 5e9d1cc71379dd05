//! A tour of the simulated GRAPE-6 hardware, bottom-up: one pipeline chip,
//! one processor board, the network-board tree, and the full 2048-chip
//! machine's timing model (paper §4-5).
//!
//! Run with: `cargo run --release --example grape6_machine`

use grape6::core::vec3::Vec3;
use grape6::hw::chip::HwIParticle;
use grape6::hw::network::NetworkBoardGeometry;
use grape6::hw::predictor::JParticle;
use grape6::hw::{
    BoardGeometry, ChipGeometry, FixedPointFormat, Grape6Chip, MachineGeometry, NetworkTree,
    Precision, ProcessorBoard, TimingModel,
};

fn main() {
    let fmt = FixedPointFormat::default();
    let precision = Precision::grape6();

    // --- one chip ---
    let geom = ChipGeometry::default();
    println!(
        "GRAPE-6 chip: {} pipelines x {} virtual, {} MHz, peak {:.1} Gflops",
        geom.pipelines,
        geom.vmp,
        geom.clock_hz / 1e6,
        geom.peak_flops() / 1e9
    );
    let mut chip = Grape6Chip::new(geom, fmt, precision);
    let js: Vec<JParticle> = (0..1000)
        .map(|k| {
            let th = k as f64 * 0.00628;
            JParticle::encode(
                &fmt,
                precision,
                Vec3::new(20.0 * th.cos(), 20.0 * th.sin(), 0.0),
                Vec3::new(-0.22 * th.sin(), 0.22 * th.cos(), 0.0),
                Vec3::zero(),
                Vec3::zero(),
                1e-9,
                0.0,
            )
        })
        .collect();
    chip.load_j(&js).expect("1000 particles fit in 16k SSRAM");
    let ip = HwIParticle::encode(&fmt, precision, Vec3::new(25.0, 0.0, 0.0), Vec3::zero());
    let regs = chip.compute(0.0, &[ip], 0.008 * 0.008);
    let (acc, _, pot) = regs[0].read();
    println!(
        "  force on a test particle from 1000 ring bodies: |a| = {:.3e}, pot = {:.3e}",
        acc.norm(),
        pot
    );
    let cycles = geom.compute_cycles(1, js.len());
    println!("  cycles spent: {} ({:.1} µs at 90 MHz)\n", cycles, cycles as f64 / 90.0);

    // --- one processor board ---
    let bgeom = BoardGeometry::default();
    println!(
        "processor board: {} chips, peak {:.2} Tflops, j-capacity {}",
        bgeom.chips,
        bgeom.peak_flops() / 1e12,
        bgeom.jmem_capacity()
    );
    let mut board = ProcessorBoard::new(bgeom, fmt, precision);
    board.load_j(&js).unwrap();
    let regs = board.compute(0.0, &[ip], 0.008 * 0.008);
    let (acc_b, _, _) = regs[0].read();
    println!("  board force matches chip force bit-for-bit: {}", acc_b == acc);
    println!("  (fixed-point accumulation makes the reduction order irrelevant)\n");

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
