//! Experiment E4 — the individual-timestep structure (paper §3, §4.2):
//! the timestep distribution spans many octaves ("the timescale ranges six
//! orders of magnitudes") and the mean active block is a tiny fraction of N
//! ("might be as few as one hundred or less, even for N = 10⁵ or larger").

use grape6_bench::{experiment_config, fmt, paper_disk, print_header, print_row, read_flags};
use grape6_core::force::DirectEngine;
use grape6_sim::Simulation;

fn main() {
    let flags = read_flags(&["--t", "--warmup"]);
    let t_run: f64 = flags.get_or("--t", 64.0);
    let warmup: f64 = flags.get_or("--warmup", 16.0);
    println!("E4: block-timestep structure (paper §3, §4.2)");
    println!("window: warmup {warmup} + {t_run} time units\n");

    print_header(
        &["N", "rungs", "dt range", "orders", "mean block", "encounters", "t_orb/t_enc"],
        12,
    );
    for &n in &[1024usize, 4096, 16384] {
        let sys = paper_disk(n, 7);
        let mut sim = Simulation::new(sys, experiment_config(), DirectEngine::new());
        sim.enable_encounter_log(3.0);
        sim.run_to(warmup, 0.0);
        // Statistics of the measurement window only, warm-up excluded.
        let window = sim.run_to(warmup + t_run, 0.0);
        let ts = sim.timestep_histogram();
        let enc = sim.encounter_log.as_ref().unwrap();
        print_row(
            &[
                n.to_string(),
                ts.occupied_rungs().to_string(),
                fmt(ts.dynamic_range()),
                fmt(ts.orders_of_magnitude()),
                fmt(window.mean_block_size()),
                enc.count().to_string(),
                enc.timescale_range(20.0).map_or("-".into(), fmt),
            ],
            12,
        );
    }
    println!();
    println!("paper §3: close encounters push timescales from ~100 yr orbits down to hours");
    println!("          (6 orders of magnitude at production N; encounter rate grows with N)");
    println!("paper §4.2: mean block 'might be as few as one hundred or less, even for N = 10^5'");
}
