//! Experiment E8 — dynamical heating and scattering by the protoplanets
//! (paper §2): "some planetesimals are accreted and others are scattered
//! away from the solar system by Neptune… The gravitational relaxation of
//! planetesimal orbits due to mutual gravitational interaction is an
//! elementary process that controls the planetesimal evolution."
//!
//! We integrate a scaled disk and report (a) the growth of the eccentricity
//! dispersion, strongest near the protoplanet radii, and (b) the census of
//! fates (retained / scattered in / scattered out / ejected).

use grape6_bench::{experiment_config, fmt, print_header, print_row, read_count, read_flags};
use grape6_core::force::DirectEngine;
use grape6_disk::{DiskBuilder, RadialHistogram, ScatteringCensus};
use grape6_sim::Simulation;

fn main() {
    let flags = read_flags(&["--n", "--mass-boost", "--t"]);
    let n = read_count(&flags, "--n", 1024);
    let mass_boost: f64 = flags.get_or("--mass-boost", 10.0);
    let t_end: f64 = flags.get_or("--t", 1200.0);
    println!("E8: excitation and scattering by the protoplanets (paper §2)");
    println!("N = {n}, mass boost ×{mass_boost}, T = {t_end}\n");

    let mut builder = DiskBuilder::paper(n);
    for p in &mut builder.protoplanets {
        p.mass *= mass_boost;
    }
    // Production per-particle masses (see fig13_gaps): the protoplanets, not
    // mutual relaxation, must drive the evolution — the paper's §3 point.
    builder.total_mass = grape6_disk::PowerLawMass::paper().mean() * n as f64;
    let sys = builder.build();
    let planetesimals: Vec<usize> = (0..n).collect();
    let mut sim = Simulation::new(sys, experiment_config(), DirectEngine::new());

    let census0 = ScatteringCensus::classify(&sim.sys, &planetesimals, 14.0, 36.0);
    let hist0 = RadialHistogram::from_system(&sim.sys, &planetesimals, 14.0, 36.0, 11);

    sim.run_to(t_end, 0.0);

    let census1 = ScatteringCensus::classify(&sim.sys, &planetesimals, 14.0, 36.0);
    let hist1 = RadialHistogram::from_system(&sim.sys, &planetesimals, 14.0, 36.0, 11);

    println!("eccentricity dispersion by radius (heating profile):");
    print_header(&["r (AU)", "rms e (t=0)", "rms e (end)", "growth"], 14);
    for b in 0..hist0.bins() {
        let g = if hist0.rms_e[b] > 0.0 { hist1.rms_e[b] / hist0.rms_e[b] } else { 0.0 };
        print_row(&[fmt(hist0.center(b)), fmt(hist0.rms_e[b]), fmt(hist1.rms_e[b]), fmt(g)], 14);
    }

    println!("\nfate census (annulus 14-36 AU):");
    print_header(&["epoch", "retained", "inward", "outward", "ejected", "disturbed %"], 12);
    for (label, c) in [("t = 0", census0), ("end", census1)] {
        print_row(
            &[
                label.to_string(),
                c.retained.to_string(),
                c.scattered_inward.to_string(),
                c.scattered_outward.to_string(),
                c.ejected.to_string(),
                fmt(100.0 * c.disturbed_fraction()),
            ],
            12,
        );
    }
    println!();
    println!(
        "rms e of retained planetesimals: {} -> {}",
        fmt(census0.rms_e_retained),
        fmt(census1.rms_e_retained)
    );
    println!("paper §2: scattering by proto-Neptune feeds the Oort cloud; heating is");
    println!("concentrated near the protoplanet orbits (20 / 30 AU rows above).");
}
