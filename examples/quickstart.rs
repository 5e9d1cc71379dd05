//! Quickstart: build a scaled-down Uranus-Neptune planetesimal disk, evolve
//! it with the block individual-timestep Hermite integrator, and check the
//! integration quality.
//!
//! Run with: `cargo run --release --example quickstart`

use grape6::prelude::*;

fn main() {
    // 512 planetesimals + proto-Uranus (20 AU) + proto-Neptune (30 AU),
    // paper geometry: ring 15-35 AU, sigma ∝ r^-1.5, masses ∝ m^-2.5,
    // softening 0.008 AU. Units: G = M_sun = AU = 1, one year = 2π.
    let system = DiskBuilder::paper(512).build();
    println!(
        "built disk: {} bodies, ring mass {:.1} M_earth, softening {} AU",
        system.len(),
        system.total_mass() / grape6::core::units::M_EARTH,
        system.softening
    );

    // The CPU reference engine; swap in Grape6Engine::sc2002() to run the
    // same integration through the simulated hardware.
    let engine = DirectEngine::new();
    let config = HermiteConfig { dt_max: 8.0, ..HermiteConfig::default() };
    let mut sim = grape6::sim::Simulation::new(system, config, engine);

    // Evolve for 5 years, logging diagnostics every year.
    let t_end = units::years_to_time(5.0);
    let stats = sim.run_to(t_end, units::years_to_time(1.0));
    sim.record_diagnostics();

    println!(
        "\nevolved to t = {:.1} yr in {} block steps ({} particle steps)",
        units::time_to_years(sim.t()),
        stats.block_steps,
        stats.particle_steps
    );
    println!("mean active block: {:.1} particles", stats.mean_block_size());
    let ts = sim.timestep_histogram();
    println!(
        "timestep rungs occupied: {} (dt spans {:.1} octaves)",
        ts.occupied_rungs(),
        ts.dynamic_range().log2()
    );
    let d = sim.diagnostics.last().unwrap();
    println!("relative energy drift: {:.3e}", d.energy_error);
    println!("relative angular momentum drift: {:.3e}", d.l_error);
    println!(
        "pairwise interactions: {:.3e} ({:.3e} flops at 57/interaction)",
        stats.interactions as f64,
        stats.total_flops() as f64
    );
}
