//! Experiment E6 — the host-parallelization argument of §4.3 (Figs 3–6):
//! per-host communication volume and exchange time for the naive layout,
//! the network-board tree, and the 2-D host grid, as a function of host
//! count.

use grape6_bench::{fmt, print_header, print_row, read_count, read_flags};
use grape6_hw::{ParallelModel, Strategy};

fn main() {
    let flags = read_flags(&["--block"]);
    let n_active = read_count(&flags, "--block", 8192);
    println!("E6: host-parallelization scaling (paper §4.3, figs 3-6)");
    println!("block size n = {n_active} particles updated per step\n");

    let model = ParallelModel::default();
    print_header(&["hosts", "strategy", "NIC in (kB)", "exch (ms)", "speedup"], 18);
    for &p in &[1usize, 2, 4, 8, 16] {
        for strategy in Strategy::ALL {
            if p == 1 && strategy != Strategy::Naive {
                continue;
            }
            let inbound = model.inbound_bytes_per_host(strategy, p, n_active);
            let t = model.exchange_time(strategy, p, n_active);
            let s = model.exchange_speedup(strategy, p, n_active);
            print_row(
                &[
                    p.to_string(),
                    strategy.label().to_string(),
                    fmt(inbound as f64 / 1e3),
                    fmt(t * 1e3),
                    fmt(s),
                ],
                18,
            );
        }
        println!();
    }
    println!("paper §4.3: the naive layout's per-host traffic does not shrink with p");
    println!("('no better than a single host'); the NB tree removes host-to-host");
    println!("particle exchange entirely; the 2-D grid needs only row+column traffic.");
}
