//! Experiment E7 — pipeline efficiency at small block sizes (paper §4.2,
//! Fig 2): "the entire hardware must be designed so that it can deliver
//! reasonable performance when asked to evaluate the forces on relatively
//! small number of particles."
//!
//! Two levers make that possible and are swept here: the virtual
//! multipipeline (8 i-particle register sets per physical pipeline) and the
//! splitting of the j-set over many chips with a hardware reduction tree.

use grape6_bench::{fmt, print_header, print_row, read_flags};
use grape6_hw::timing::TimingModel;
use grape6_hw::ChipGeometry;

fn main() {
    read_flags(&[]);
    println!("E7: efficiency vs active-block size (paper §4.2)\n");
    let n_total = 1_800_000usize;
    let model = TimingModel::sc2002();
    let peak = model.geometry.peak_flops();

    println!("full machine (N = {n_total}):");
    print_header(&["n_active", "ms/step", "Tflops", "eff %"], 14);
    for &n_act in &[16usize, 64, 256, 768, 1536, 3072, 12288, 49152] {
        let b = model.block_step(n_act, n_total);
        let flops = 57.0 * n_act as f64 * n_total as f64;
        print_row(
            &[
                n_act.to_string(),
                fmt(b.total() * 1e3),
                fmt(flops / b.total() / 1e12),
                fmt(100.0 * flops / b.total() / peak),
            ],
            14,
        );
    }

    // The VMP ablation: same chip without virtual pipelines (each physical
    // pipeline handles one i-particle per sweep, so a sweep covers 6 i's and
    // every j is fetched every cycle).
    println!("\nchip-level ablation: cycles per interaction for a 16384-particle j-memory");
    print_header(&["n_i", "VMP=8 (GRAPE-6)", "VMP=1", "penalty"], 18);
    let g8 = ChipGeometry::default();
    let g1 = ChipGeometry { vmp: 1, ..ChipGeometry::default() };
    for &n_i in &[6usize, 12, 48, 96, 192] {
        let n_j = 16384;
        let inter = (n_i * n_j) as f64;
        let c8 = g8.compute_cycles(n_i, n_j) as f64 / inter;
        let c1 = g1.compute_cycles(n_i, n_j) as f64 / inter;
        print_row(&[n_i.to_string(), fmt(c8), fmt(c1), fmt(c1 / c8)], 18);
    }
    println!();
    println!("(cycles/interaction: the GRAPE-6 ideal is 1/6 ≈ 0.167; without the 8-deep");
    println!(" virtual multipipeline the SSRAM fetch stalls the pipelines ~8×)");
}
