//! The headline workload in miniature: the Uranus-Neptune planetesimal disk
//! driven through the simulated GRAPE-6, with the paper's §6 Gordon Bell
//! accounting at the end.
//!
//! Run with: `cargo run --release --example uranus_neptune -- [n] [years]`

use grape6::prelude::*;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let n: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(1024);
    let years: f64 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(8.0);

    let system = DiskBuilder::paper(n).build();
    println!(
        "Uranus-Neptune region: {n} planetesimals + 2 protoplanets, {:.0} M_earth of solids",
        system.total_mass() / grape6::core::units::M_EARTH
    );

    // The full 2048-chip machine with hardware-faithful arithmetic.
    let engine = Grape6Engine::sc2002();
    let config = HermiteConfig { dt_max: 8.0, ..HermiteConfig::default() };
    let mut sim = grape6::sim::Simulation::new(system, config, engine);

    let t_end = units::years_to_time(years);
    let stats = sim.run_to(t_end, 0.0);
    sim.record_diagnostics();

    println!("\nintegrated {years} years:");
    println!("  block steps      : {}", stats.block_steps);
    println!("  particle steps   : {}", stats.particle_steps);
    println!("  mean block size  : {:.1}", stats.mean_block_size());
    println!("  |dE/E|           : {:.3e}", sim.diagnostics.last().unwrap().energy_error);

    // What would the real 63-Tflops machine have taken?
    let report = sim.engine.perf_report();
    println!("\nmodeled GRAPE-6 performance (paper §6 accounting):");
    println!("  {report}");
    let b = &sim.engine.clock().breakdown;
    println!(
        "  phase breakdown: pipeline {:.1}%, host {:.1}%, comm {:.1}%, sync {:.1}%",
        100.0 * b.pipeline / b.total(),
        100.0 * b.host / b.total(),
        100.0 * (b.send_i + b.receive + b.jshare_intra + b.jshare_inter) / b.total(),
        100.0 * b.sync / b.total(),
    );
    println!("\n(small N underuses the pipelines; the paper's N = 1.8e6 reached 29.5");
    println!(" of 63.4 Tflops — see `cargo run -p grape6-bench --bin table_headline`)");

    // Science summary: protoplanet orbits and disk state.
    let planetesimals: Vec<usize> = (0..n).collect();
    let census = ScatteringCensus::classify(&sim.sys, &planetesimals, 14.0, 36.0);
    println!(
        "disk census: {} retained, {} scattered in, {} out, {} ejected; rms e = {:.4}",
        census.retained,
        census.scattered_inward,
        census.scattered_outward,
        census.ejected,
        census.rms_e_retained
    );
}
