//! Experiment E2 — Fig 13: the planetesimal distribution at an early and a
//! late time, with gaps forming near the protoplanet radii (20 and 30 AU).
//!
//! The paper integrated 1.8 M planetesimals for thousands of time units on
//! 63 Tflops of hardware; on a CPU we scale down: fewer planetesimals
//! (default 2048) and heavier protoplanets (default 10× the production
//! mass), which accelerates gap clearing — the clearing rate scales as the
//! square of the protoplanet mass — while leaving the mechanism (scattering
//! out of the feeding zone) untouched. See DESIGN.md §3.

use grape6_bench::{experiment_config, fmt, print_header, print_row, read_count, read_flags};
use grape6_core::force::DirectEngine;
use grape6_core::integrator::BlockHermite;
use grape6_disk::{DiskBuilder, DiskSnapshot, RadialHistogram};
use grape6_sim::Simulation;

fn main() {
    let flags = read_flags(&["--n", "--mass-boost", "--t-early", "--t-late", "--csv"]);
    let n = read_count(&flags, "--n", 2048);
    let mass_boost: f64 = flags.get_or("--mass-boost", 10.0);
    let t_early: f64 = flags.get_or("--t-early", 800.0);
    let t_late: f64 = flags.get_or("--t-late", 2400.0);
    let csv_dir: String = flags.get_or("--csv", String::new());
    println!("E2 / Fig 13: gap formation near the protoplanets");
    println!(
        "N = {n}, protoplanet mass boost ×{mass_boost}, snapshots at T = {t_early} and {t_late}\n"
    );

    let mut builder = DiskBuilder::paper(n);
    for p in &mut builder.protoplanets {
        p.mass *= mass_boost;
    }
    // Keep the *production* per-particle planetesimal masses rather than
    // concentrating the full ring mass in n bodies: the paper's §3 mass-ratio
    // requirement (protoplanet scattering must dominate mutual relaxation)
    // would otherwise be violated at CPU-scale n, and self-stirring would
    // bury the gap signal.
    builder.total_mass = grape6_disk::PowerLawMass::paper().mean() * n as f64;
    let sys = builder.build();
    let planetesimals: Vec<usize> = (0..n).collect();
    let mut sim = Simulation::new(sys, experiment_config(), DirectEngine::new());

    let profile_q = builder.profile.exponent;
    // A protoplanet clears its *feeding zone*, the annulus within ~2.5 Hill
    // radii of its orbit — except for the co-orbital (horseshoe) population
    // that survives at the protoplanet radius itself. Probe the zone edges.
    let m_boosted = grape6_core::units::paper::M_PROTOPLANET * mass_boost;
    let probes: Vec<(f64, f64)> = [20.0, 30.0]
        .iter()
        .flat_map(|&a| {
            let rh = grape6_core::units::hill_radius(a, m_boosted, 1.0);
            [(a, a - 2.2 * rh), (a, a + 2.2 * rh)]
        })
        .collect();

    let report = |sim: &Simulation<DirectEngine>, label: &str, t: f64| {
        // Synchronize all particles to a common time for the snapshot.
        let (pos, _) = BlockHermite::synchronized_state(&sim.sys, t);
        let mut snap_sys = sim.sys.clone();
        snap_sys.pos = pos;
        let hist = RadialHistogram::from_system(&snap_sys, &planetesimals, 14.0, 36.0, 44);
        let snap = DiskSnapshot::capture(&snap_sys, &planetesimals, t);
        // Optional CSV dump of the scatter data (the actual Fig 13 panels).
        if !csv_dir.is_empty() {
            let path = format!("{csv_dir}/fig13_t{t:.0}.csv");
            let mut out = String::from("r_au,phi_rad,z_au\n");
            for k in 0..snap.r.len() {
                out.push_str(&format!("{},{},{}\n", snap.r[k], snap.phi[k], snap.z[k]));
            }
            if std::fs::write(&path, out).is_ok() {
                println!("(scatter data -> {path})");
            }
        }
        println!("--- {label}: T = {t} ({} particles captured) ---", snap.r.len());
        print_header(&["r (AU)", "sigma (rel)", "count"], 14);
        let s0 = hist.sigma.iter().cloned().fold(0.0f64, f64::max).max(1e-300);
        for b in (0..hist.bins()).step_by(2) {
            print_row(
                &[fmt(hist.center(b)), fmt(hist.sigma[b] / s0), hist.counts[b].to_string()],
                14,
            );
        }
        // Mean feeding-zone-edge depletion per protoplanet.
        let mut zone = [0.0f64; 2];
        for (k, &a) in [20.0, 30.0].iter().enumerate() {
            let ds: Vec<f64> = probes
                .iter()
                .filter(|&&(pa, _)| pa == a)
                .map(|&(_, r)| hist.depletion_at(r, 4.0, profile_q))
                .collect();
            zone[k] = ds.iter().sum::<f64>() / ds.len() as f64;
        }
        println!(
            "feeding-zone depletion: proto-Uranus (20 AU) = {} | proto-Neptune (30 AU) = {}\n",
            fmt(zone[0]),
            fmt(zone[1])
        );
        zone
    };

    report(&sim, "initial", 0.0);
    sim.run_to(t_early, 0.0);
    let early = report(&sim, "early (paper: left panel)", sim.t());
    sim.run_to(t_late, 0.0);
    let late = report(&sim, "late (paper: right panel)", sim.t());
    sim.record_diagnostics();

    println!("paper: 'gap of the distribution is formed near the radius of protoplanets'");
    println!(
        "reproduced: feeding zones empty over time — 20 AU: {} -> {} | 30 AU: {} -> {}",
        fmt(early[0]),
        fmt(late[0]),
        fmt(early[1]),
        fmt(late[1])
    );
    println!("(surviving density at exactly 20/30 AU is the co-orbital horseshoe population;");
    println!(" the pileups between the zones are planetesimals scattered out of them)");
    let d = sim.diagnostics.last().unwrap();
    println!(
        "integration quality: |dE/E| = {} after {} block steps ({} particle steps)",
        fmt(d.energy_error),
        d.block_steps,
        d.particle_steps
    );
}
