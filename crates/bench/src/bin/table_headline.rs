//! Experiment E1 — the headline result (paper §6): sustained Tflops of the
//! 2048-chip GRAPE-6 on the Uranus-Neptune disk, as a function of N up to
//! the production 1.8 million planetesimals.
//!
//! Method: integrate a scaled disk (default N_ref = 8192) with the real
//! block-timestep code, recording the *fraction of particles active per
//! block step* — an intensive quantity set by the timestep distribution, not
//! by N. For each target N the recorded block-fraction sequence is rescaled
//! (n_act = fraction × N) and every block is charged to the full-machine
//! timing model. The paper's comparison row: 29.5 Tflops sustained, 63.4
//! peak (46.5 %).

use grape6_bench::{
    experiment_config, fmt, paper_disk, print_header, print_row, read_count, read_flags,
};
use grape6_core::force::DirectEngine;
use grape6_hw::perf::PerfReport;
use grape6_hw::timing::{StepBreakdown, TimingModel};
use grape6_sim::Simulation;

fn main() {
    let flags = read_flags(&["--n-ref", "--warmup", "--t"]);
    let n_ref = read_count(&flags, "--n-ref", 8192);
    let warmup: f64 = flags.get_or("--warmup", 16.0);
    let t_run: f64 = flags.get_or("--t", 48.0);
    println!("E1: headline performance (paper §6)");
    println!("reference integration: N = {n_ref}, warmup {warmup} + window {t_run} units\n");

    // 1. Measure the block-size sequence on a real integration, after a
    // warmup that lets the startup-synchronized blocks decorrelate.
    let sys = paper_disk(n_ref, 42);
    let mut sim = Simulation::new(sys, experiment_config(), DirectEngine::new());
    sim.run_to(warmup, 0.0);
    let mut fractions: Vec<f64> = Vec::new();
    while sim.integrator.next_time().is_some_and(|t| t <= warmup + t_run) {
        let info = sim.step();
        fractions.push(info.n_active as f64 / (n_ref + 2) as f64);
    }
    let mean_frac = fractions.iter().sum::<f64>() / fractions.len() as f64;
    println!(
        "measured {} block steps, mean active fraction {:.3e} (mean block {:.1} particles)\n",
        fractions.len(),
        mean_frac,
        mean_frac * (n_ref + 2) as f64
    );

    // 2. Replay the block sequence through the machine model at each N.
    let model = TimingModel::sc2002();
    let peak = model.geometry.peak_flops();
    print_header(&["N", "mean block", "ms/step", "pipe %", "comm %", "Tflops", "eff %"], 12);
    let ns = [10_000usize, 50_000, 100_000, 450_000, 900_000, 1_800_000];
    for &n in &ns {
        let mut total = StepBreakdown::default();
        let mut interactions = 0u64;
        let mut blocks = 0.0;
        for &f in &fractions {
            let n_act = ((f * n as f64).round() as usize).max(1);
            total.accumulate(&model.block_step(n_act, n));
            interactions += (n_act as u64) * (n as u64);
            blocks += n_act as f64;
        }
        let report = PerfReport::new(interactions, total.total(), peak);
        let comm = total.send_i + total.receive + total.jshare_intra + total.jshare_inter;
        print_row(
            &[
                n.to_string(),
                fmt(blocks / fractions.len() as f64),
                fmt(total.total() / fractions.len() as f64 * 1e3),
                fmt(100.0 * total.pipeline / total.total()),
                fmt(100.0 * comm / total.total()),
                fmt(report.tflops()),
                fmt(100.0 * report.efficiency),
            ],
            12,
        );
    }
    // The overlapped (firsthalf/lasthalf) variant at the production N.
    let fast = TimingModel::sc2002_overlapped();
    let mut total = StepBreakdown::default();
    let mut interactions = 0u64;
    for &f in &fractions {
        let n_act = ((f * 1_800_000.0).round() as usize).max(1);
        total.accumulate(&fast.block_step(n_act, 1_800_000));
        interactions += (n_act as u64) * 1_800_000;
    }
    let fast_report = PerfReport::new(interactions, total.total(), peak);
    println!();
    println!(
        "with g6calc firsthalf/lasthalf overlap at N = 1.8e6:  {} Tflops ({} % of peak)",
        fmt(fast_report.tflops()),
        fmt(100.0 * fast_report.efficiency)
    );
    println!("paper (N = 1.8e6):                                      29.5 Tflops,  46.5 % of 63.4 Tflops peak");
    println!("model peak: {} Tflops", fmt(peak / 1e12));
}
