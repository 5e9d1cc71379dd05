//! Experiment E3 — hardware self-check table (paper §5.2–5.3).
//!
//! Regenerates every quantitative hardware claim: 30.7 Gflops per chip,
//! 57 flops per interaction (38 force + 19 jerk), 2048 chips, 63.4 Tflops
//! system peak, 90 MB/s LVDS links, and the 16-host / 64-board / 4-cluster
//! organization.

use grape6_bench::{fmt, print_header, print_row, read_flags};
use grape6_hw::network::NetworkBoardGeometry;
use grape6_hw::{ChipGeometry, Link, MachineGeometry, NetworkTree};

fn main() {
    read_flags(&[]);
    println!("E3: GRAPE-6 hardware self-check (paper §5.2-5.3)\n");
    let chip = ChipGeometry::default();
    let machine = MachineGeometry::sc2002();

    print_header(&["quantity", "paper", "model", "unit"], 22);
    let rows: Vec<[String; 4]> = vec![
        ["pipelines / chip".into(), "6".into(), chip.pipelines.to_string(), "-".into()],
        ["clock".into(), "90".into(), fmt(chip.clock_hz / 1e6), "MHz".into()],
        [
            "flops / interaction".into(),
            "57 (38+19)".into(),
            grape6_core::force::FLOPS_PER_INTERACTION.to_string(),
            "flops".into(),
        ],
        ["chip peak".into(), "30.7".into(), fmt(chip.peak_flops() / 1e9), "Gflops".into()],
        ["chips / board".into(), "32".into(), machine.board.chips.to_string(), "-".into()],
        [
            "board peak".into(),
            "~0.98".into(),
            fmt(machine.board.peak_flops() / 1e12),
            "Tflops".into(),
        ],
        ["boards / host".into(), "4".into(), machine.boards_per_host.to_string(), "-".into()],
        ["hosts".into(), "16".into(), machine.hosts().to_string(), "-".into()],
        ["clusters".into(), "4".into(), machine.clusters.to_string(), "-".into()],
        ["total chips".into(), "2048".into(), machine.chips().to_string(), "-".into()],
        ["system peak".into(), "63.4".into(), fmt(machine.peak_flops() / 1e12), "Tflops".into()],
        [
            "LVDS link rate".into(),
            "90".into(),
            fmt(Link::lvds().bytes_per_second / 1e6),
            "MB/s".into(),
        ],
        [
            "i-parallel / chip".into(),
            "48 (6x8 VMP)".into(),
            chip.i_parallel().to_string(),
            "-".into(),
        ],
        [
            "node j-memory".into(),
            ">= 1.8M".into(),
            machine.node_jmem_capacity().to_string(),
            "particles".into(),
        ],
    ];
    for r in &rows {
        print_row(r.as_ref(), 22);
    }

    // NB tree structure (§4.3: 4 NBs connect 4 hosts to 16 boards).
    let tree = NetworkTree::spanning(16, NetworkBoardGeometry::default());
    println!(
        "\nNB tree spanning 16 boards: {} levels, {} network boards (paper: 1 root + 4)",
        tree.levels(),
        tree.board_count()
    );
    println!(
        "broadcast of 1 MB through the tree: {:.3} ms (link-limited, levels add only µs)",
        tree.broadcast_time(1_000_000) * 1e3
    );
}
