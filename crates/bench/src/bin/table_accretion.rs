//! Experiment E11 (extension) — planetary accretion (paper §2): "While
//! orbiting the sun, planetesimals accrete to form terrestrial (rocky) and
//! uranian (icy) planets… This process is called planetary accretion."
//!
//! Collisions are detected through the hardware nearest-neighbour reports
//! and merge perfectly; the observable is the mass spectrum: the m^-2.5 law
//! is stationary for the *small* bodies while the high-mass tail grows —
//! the onset of runaway growth. Radii are inflated to bring the collision
//! rate into CPU range (standard practice; the mechanism is unchanged).

use grape6_bench::{fmt, print_header, print_row, read_count, read_flags};
use grape6_core::force::DirectEngine;
use grape6_core::integrator::HermiteConfig;
use grape6_disk::{DiskBuilder, MassSpectrum};
use grape6_sim::{RadiusModel, Simulation};

fn main() {
    let flags = read_flags(&["--n", "--inflation", "--t"]);
    let n = read_count(&flags, "--n", 768);
    let inflation: f64 = flags.get_or("--inflation", 400.0);
    let t_end: f64 = flags.get_or("--t", 600.0);
    println!("E11 (extension): planetary accretion (paper §2)");
    println!("N = {n}, radius inflation ×{inflation}, T = {t_end}\n");

    let mut builder = DiskBuilder::paper(n).without_protoplanets();
    builder.sigma_e = 0.003;
    builder.sigma_i = 0.0015;
    let sys = builder.build();
    let idx: Vec<usize> = (0..n).collect();
    let m0_max = sys.mass.iter().cloned().fold(0.0, f64::max);

    let config = HermiteConfig { dt_max: 8.0, ..HermiteConfig::default() };
    let mut sim = Simulation::new(sys, config, DirectEngine::new());
    sim.enable_accretion(RadiusModel::icy_inflated(inflation));

    print_header(&["t", "bodies", "mergers", "dN/dm slope", "m_max/m0"], 14);
    let spec0 = MassSpectrum::from_system(&sim.sys, &idx, 10);
    print_row(&["0".into(), n.to_string(), "0".into(), fmt(spec0.slope), "1".into()], 14);
    for k in 1..=6 {
        sim.run_to(t_end * k as f64 / 6.0, 0.0);
        let alive = sim.sys.mass.iter().filter(|&&m| m > 0.0).count();
        let spec = MassSpectrum::from_system(&sim.sys, &idx, 10);
        let m_max = sim.sys.mass.iter().cloned().fold(0.0, f64::max);
        print_row(
            &[
                fmt(sim.t()),
                alive.to_string(),
                sim.accretion_log.count().to_string(),
                fmt(spec.slope),
                fmt(m_max / m0_max),
            ],
            14,
        );
    }
    sim.record_diagnostics();
    println!();
    println!(
        "mass conserved: total = {:.6e} M_sun; |dE/E| = {:.2e}",
        sim.sys.total_mass(),
        sim.diagnostics.last().unwrap().energy_error
    );
    println!("expected shape: merger count grows steadily; the fitted slope stays near");
    println!("-2.5 for the bulk while the largest body pulls away (runaway growth onset).");
}
