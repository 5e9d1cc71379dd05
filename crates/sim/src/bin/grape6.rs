//! `grape6` — command-line driver for the planetesimal simulation.
//!
//! Subcommands:
//!
//! * `gen      --n <N> [--seed <S>] [--no-protoplanets] [--production-masses]
//!             --out <snap.json>`
//! * `run      --in <snap.json> --t <time>
//!             [--engine direct|grape6|grape6-ft|tree|hybrid]
//!             [--theta <θ>] [--near-radius <r>]
//!             [--eta <η>] [--accrete <inflation>] [--out <snap.json>]
//!             [--diag <diag.csv>] [--telemetry <tele.json>]
//!             [--faults <plan.json>] [--checkpoint <file.g6ck>]
//!             [--checkpoint-every <blocks>] [--resume <file.g6ck>]`
//! * `analyze  --in <snap.json> [--bins <B>] [--protoplanets <K>]`
//! * `perf     --n <N> --block <n_act>`
//!
//! Times are in simulation units (1 yr = 2π); snapshots are JSON, or the
//! compact binary format when the filename ends in `.g6sn`.
//!
//! `run` has one code path for every engine: `open` builds the chosen engine's
//! simulation (fresh, with telemetry, or resumed) as a boxed
//! `Simulation<dyn ForceEngine>`, and `drive` runs it, prints the summary
//! and writes the files. `--engine grape6` adds a `modeled hardware:` line,
//! the §6 report of the production machine from the engine's interaction
//! count and modeled seconds.
//!
//! `--faults` loads a JSON [`grape6_hw::FaultPlan`] and runs it on the
//! fault-tolerant dual-unit GRAPE engine (`--engine grape6-ft`, implied).
//! `--checkpoint` writes a `G6CK` restart file every `--checkpoint-every`
//! block steps (default 256) and once at the end; `--resume` restarts from
//! such a file bit-identically (pass the same `--engine`; `--in` is then
//! ignored). `--engine tree` is the Barnes-Hut baseline: the hybrid engine
//! at a zero neighbour radius. `gen --production-masses` keeps the paper's
//! per-body masses instead of the ring's total mass; `analyze --protoplanets`
//! is how many of the heaviest bodies to set aside (default 2). An unknown
//! flag, a flag given twice, a valued flag with no value and a value that
//! does not parse are errors before any work or output — never a silent default. So is a start
//! time (from `--in` or `--resume`) or end time the block scheduler cannot
//! hold: see [`TickScheduler::check_span`].

use grape6_core::blockstep::TickScheduler;
use grape6_core::engine::ForceEngine;
use grape6_core::force::DirectEngine;
use grape6_core::integrator::HermiteConfig;
use grape6_core::particle::ParticleSystem;
use grape6_core::units;
use grape6_disk::{DiskBuilder, RadialHistogram, ScatteringCensus};
use grape6_hw::perf::PerfReport;
use grape6_hw::{FaultPlan, FaultTolerantEngine, Grape6Config, Grape6Engine, TimingModel};
use grape6_sim::accretion::RadiusModel;
use grape6_sim::cli::Flags;
use grape6_sim::{
    load_auto, load_checkpoint, run_to_with_checkpoints, save_auto, save_diagnostics_csv,
    Simulation,
};
use grape6_tree::HybridTreeEngine;
use std::path::PathBuf;

fn cmd_gen(flags: &Flags) -> Result<(), String> {
    let Some(n) = flags.get::<usize>("--n") else {
        return Err("gen requires --n <planetesimals>".into());
    };
    let Some(out) = flags.get::<PathBuf>("--out") else {
        return Err("gen requires --out <file.json>".into());
    };
    if n == 0 {
        return Err("--n must be at least 1".into());
    }
    let mut builder = DiskBuilder::paper(n);
    if let Some(seed) = flags.get::<u64>("--seed") {
        builder = builder.with_seed(seed);
    }
    if flags.has("--no-protoplanets") {
        builder = builder.without_protoplanets();
    }
    if flags.has("--production-masses") {
        builder.total_mass = grape6_disk::PowerLawMass::paper().mean() * n as f64;
    }
    let sys = builder.build();
    save_auto(&out, &sys).map_err(|e| format!("writing {}: {e}", out.display()))?;
    println!(
        "wrote {}: {} bodies, ring mass {:.1} M_earth",
        out.display(),
        sys.len(),
        sys.total_mass() / units::M_EARTH
    );
    Ok(())
}

fn cmd_run(flags: &Flags) -> Result<(), String> {
    let Some(t_end) = flags.get::<f64>("--t") else {
        return Err("run requires --t <time units>".into());
    };
    if !t_end.is_finite() || t_end < 0.0 {
        return Err(format!("--t = {t_end} must be finite and non-negative"));
    }
    let resume = flags.get::<PathBuf>("--resume");
    let input = flags.get::<PathBuf>("--in");
    let eta = flags.get_or::<f64>("--eta", 0.02);
    let theta = flags.get_or::<f64>("--theta", 0.5);
    let near_radius = flags.get_or::<f64>("--near-radius", 1.0);
    let accrete = flags.get::<f64>("--accrete");
    if accrete.is_some_and(|f| !(f > 0.0 && f.is_finite())) {
        return Err("--accrete must be a finite positive inflation factor".into());
    }
    let config = HermiteConfig {
        eta,
        eta_start: eta / 8.0,
        dt_max: 2.0f64.powi(3),
        dt_min: 2.0f64.powi(-40),
    };
    config.validate()?;
    // `--t` counts from the start time: the snapshot's, or the checkpoint's.
    let check_span = |t0: f64, dt_min: f64| TickScheduler::check_span(t0, t0 + t_end, dt_min);
    // The initial system is only loaded for fresh runs; a resume rebuilds
    // everything (system, schedule, counters) from the checkpoint.
    let start = match (&resume, &input) {
        (Some(path), _) => Start::Resume(path.clone()),
        (None, Some(path)) => {
            let sys = load_auto(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
            check_span(sys.t, config.dt_min).map_err(|e| format!("{}: {e}", path.display()))?;
            Start::Fresh(Box::new(sys))
        }
        (None, None) => {
            return Err("run requires --in <snap.json> (or --resume <file.g6ck>)".into())
        }
    };
    let fault_plan = match flags.get::<String>("--faults") {
        None => None,
        Some(path) => {
            let parsed = std::fs::read_to_string(&path)
                .map_err(|e| e.to_string())
                .and_then(|s| serde_json::from_str::<FaultPlan>(&s).map_err(|e| e.to_string()));
            Some(parsed.map_err(|e| format!("reading fault plan {path}: {e}"))?)
        }
    };
    // A fault plan implies the fault-tolerant engine.
    let engine_name = match (flags.get::<String>("--engine").as_deref(), &fault_plan) {
        (Some("grape6") | Some("grape6-ft") | None, Some(_)) => "grape6-ft".to_string(),
        (Some(other), Some(_)) => {
            return Err(format!("--faults requires the grape6 engine, not '{other}'"))
        }
        (name, None) => name.unwrap_or("direct").to_string(),
    };
    // The GRAPE pipelines have no self-interaction cutoff: refuse here what
    // their `load` would assert on.
    if let (Start::Fresh(sys), Some(path), "grape6" | "grape6-ft") =
        (&start, &input, engine_name.as_str())
    {
        if sys.softening <= 0.0 {
            return Err(format!(
                "--engine {engine_name} needs a positive softening, but {} has softening {}",
                path.display(),
                sys.softening
            ));
        }
    }
    let checkpoint_every = flags.get_or::<u64>("--checkpoint-every", 256);
    if !flags.has("--checkpoint") && flags.has("--checkpoint-every") {
        return Err("--checkpoint-every needs --checkpoint <file.g6ck>".into());
    }

    let telemetry = flags.has("--telemetry");
    let mut sim = match engine_name.as_str() {
        "direct" => open(start, config, telemetry, DirectEngine::new())?,
        "grape6" => open(start, config, telemetry, Grape6Engine::sc2002())?,
        "grape6-ft" => {
            let plan = fault_plan.unwrap_or_default();
            let engine = FaultTolerantEngine::new(Grape6Config::sc2002(), &plan);
            open(start, config, telemetry, engine)?
        }
        "tree" | "hybrid" => {
            // Barnes-Hut is the hybrid engine's zero-neighbour-radius limit.
            let r_near = if engine_name == "tree" { 0.0 } else { near_radius };
            if !(theta >= 0.0 && theta.is_finite()) {
                return Err("--theta must be a finite non-negative number".into());
            }
            if !(r_near >= 0.0 && r_near.is_finite()) {
                return Err("--near-radius must be a finite non-negative number".into());
            }
            open(start, config, telemetry, HybridTreeEngine::new(theta, r_near))?
        }
        other => {
            return Err(format!("unknown engine '{other}' (direct|grape6|grape6-ft|tree|hybrid)"))
        }
    };
    if let Some(path) = &resume {
        check_span(sim.t(), sim.integrator.config.dt_min)
            .map_err(|e| format!("resuming {}: {e}", path.display()))?;
    }
    if let Some(inflation) = accrete {
        sim.enable_accretion(RadiusModel::icy_inflated(inflation));
    }
    drive(&mut sim, flags, t_end, checkpoint_every)?;
    if engine_name == "grape6" {
        let peak = Grape6Config::sc2002().timing.geometry.peak_flops();
        let report =
            PerfReport::new(sim.engine.interaction_count(), sim.engine.modeled_seconds(), peak);
        println!("modeled hardware: {report}");
    }
    Ok(())
}

/// Where `grape6 run` starts: a loaded snapshot, or a checkpoint to resume.
enum Start {
    Fresh(Box<ParticleSystem>),
    Resume(PathBuf),
}

/// The run's simulation on `engine`, boxed so that one [`drive`] serves
/// every engine. A resume reloads the engine and restores its counters from
/// the checkpoint; a fresh run initializes it, with telemetry from the first
/// force evaluation when asked.
fn open<E: ForceEngine + 'static>(
    start: Start,
    config: HermiteConfig,
    telemetry: bool,
    engine: E,
) -> Result<Box<Simulation<dyn ForceEngine>>, String> {
    Ok(match start {
        Start::Resume(path) => Box::new(
            load_checkpoint(&path, engine)
                .map_err(|e| format!("resuming {}: {e}", path.display()))?,
        ),
        Start::Fresh(sys) if telemetry => {
            Box::new(Simulation::with_telemetry(*sys, config, engine))
        }
        Start::Fresh(sys) => Box::new(Simulation::new(*sys, config, engine)),
    })
}

/// Run `sim` for `t_end` more time units, print the summary and write the
/// `--out`, `--diag` and `--telemetry` files asked for.
fn drive(
    sim: &mut Simulation<dyn ForceEngine>,
    flags: &Flags,
    t_end: f64,
    checkpoint_every: u64,
) -> Result<(), String> {
    let t_target = sim.t() + t_end;
    let diag_interval = (t_target - sim.t()) / 16.0;
    match flags.get::<PathBuf>("--checkpoint") {
        Some(path) => {
            run_to_with_checkpoints(sim, t_target, diag_interval, checkpoint_every, &path)
                .map_err(|e| format!("checkpointing {}: {e}", path.display()))?;
            println!("checkpoints -> {} (every {checkpoint_every} blocks)", path.display());
        }
        None => {
            sim.run_to(t_target, diag_interval);
        }
    }
    sim.record_diagnostics();
    let d = *sim.diagnostics.last().expect("record_diagnostics appends a row");
    println!(
        "t = {:.3} ({:.1} yr): {} block steps, mean block {:.1}, |dE/E| = {:.3e}",
        sim.t(),
        units::time_to_years(sim.t()),
        d.block_steps,
        d.mean_block,
        d.energy_error
    );
    let faults = sim.engine.fault_stats();
    if !faults.is_zero() {
        println!(
            "faults: {} injected, {} DMR mismatches, {} checksum errors, \
             {} retries, {} scrubs ({} words), {} boards failed",
            faults.injected,
            faults.dmr_mismatches,
            faults.checksum_errors,
            faults.retries,
            faults.scrubs,
            faults.words_scrubbed,
            faults.boards_failed
        );
    }
    if sim.accretion_log.count() > 0 {
        println!("mergers: {}", sim.accretion_log.count());
    }
    if let Some(out) = flags.get::<PathBuf>("--out") {
        save_auto(&out, &sim.sys).map_err(|e| format!("writing {}: {e}", out.display()))?;
        println!("snapshot -> {}", out.display());
    }
    if let Some(diag) = flags.get::<PathBuf>("--diag") {
        save_diagnostics_csv(&diag, &sim.diagnostics)
            .map_err(|e| format!("writing {}: {e}", diag.display()))?;
        println!("diagnostics -> {}", diag.display());
    }
    if let Some(tele) = flags.get::<PathBuf>("--telemetry") {
        match sim.telemetry_report() {
            Some(rep) => {
                let json = serde_json::to_string_pretty(&rep);
                json.and_then(|j| Ok(std::fs::write(&tele, j)?))
                    .map_err(|e| format!("writing {}: {e}", tele.display()))?;
                println!(
                    "telemetry -> {} ({:.3} s host, {:.2e} interactions/s real)",
                    tele.display(),
                    rep.total_host_seconds,
                    rep.interactions_per_second_real
                );
            }
            // A resumed run only has telemetry if the original did.
            None => {
                eprintln!("warning: --telemetry ignored (checkpoint was written without telemetry)")
            }
        }
    }
    Ok(())
}

fn cmd_analyze(flags: &Flags) -> Result<(), String> {
    let Some(input) = flags.get::<PathBuf>("--in") else {
        return Err("analyze requires --in <snap.json>".into());
    };
    let bins = flags.get_or::<usize>("--bins", 22);
    if bins == 0 {
        return Err("--bins must be at least 1".into());
    }
    let sys = load_auto(&input).map_err(|e| format!("reading {}: {e}", input.display()))?;
    // The K heaviest bodies are treated as protoplanets and excluded from
    // the planetesimal statistics (mass alone cannot separate them from a
    // rescaled spectrum's top end, so the count is explicit).
    let k_proto = flags.get_or::<usize>("--protoplanets", 2);
    let mut by_mass: Vec<usize> = (0..sys.len()).filter(|&i| sys.mass[i] > 0.0).collect();
    by_mass.sort_by(|&a, &b| sys.mass[b].total_cmp(&sys.mass[a]));
    let protos: Vec<usize> = by_mass.iter().copied().take(k_proto).collect();
    let idx: Vec<usize> = by_mass.iter().copied().skip(k_proto).collect();
    for &p in &protos {
        let el = grape6_core::kepler::state_to_elements(
            sys.pos[p],
            sys.vel[p],
            sys.central_mass.max(1e-300),
        );
        println!(
            "protoplanet #{p}: m = {:.3e} M_sun, a = {:.2} AU, e = {:.4}",
            sys.mass[p], el.a, el.e
        );
    }
    println!(
        "snapshot t = {:.2} ({:.1} yr), {} planetesimals analyzed",
        sys.t,
        units::time_to_years(sys.t),
        idx.len()
    );
    let hist = RadialHistogram::from_system(&sys, &idx, 14.0, 36.0, bins);
    println!("\n  a (AU)    sigma          count   rms e     rms i");
    for b in 0..hist.bins() {
        println!(
            "  {:6.2}    {:.3e}    {:5}   {:.4}    {:.4}",
            hist.center(b),
            hist.sigma[b],
            hist.counts[b],
            hist.rms_e[b],
            hist.rms_i[b]
        );
    }
    let census = ScatteringCensus::classify(&sys, &idx, 14.0, 36.0);
    println!(
        "\ncensus: retained {}, inward {}, outward {}, ejected {} (disturbed {:.2} %)",
        census.retained,
        census.scattered_inward,
        census.scattered_outward,
        census.ejected,
        100.0 * census.disturbed_fraction()
    );
    Ok(())
}

fn cmd_perf(flags: &Flags) -> Result<(), String> {
    let Some(n) = flags.get::<usize>("--n") else {
        return Err("perf requires --n <total particles>".into());
    };
    let Some(block) = flags.get::<usize>("--block") else {
        return Err("perf requires --block <active particles>".into());
    };
    if n == 0 || block == 0 || block > n {
        return Err(format!("--block = {block} must be between 1 and --n = {n}"));
    }
    let model = TimingModel::sc2002();
    let b = model.block_step(block, n);
    let flops = 57.0 * block as f64 * n as f64;
    println!("block of {block} on N = {n} through the 2048-chip GRAPE-6:");
    println!("  pipeline  {:9.3} ms", b.pipeline * 1e3);
    println!("  host      {:9.3} ms", b.host * 1e3);
    println!("  send i    {:9.3} ms", b.send_i * 1e3);
    println!("  receive   {:9.3} ms", b.receive * 1e3);
    println!("  j intra   {:9.3} ms", b.jshare_intra * 1e3);
    println!("  j inter   {:9.3} ms", b.jshare_inter * 1e3);
    println!("  sync      {:9.3} ms", b.sync * 1e3);
    println!(
        "  total     {:9.3} ms  -> {:.2} Tflops sustained",
        b.total() * 1e3,
        flops / b.total() / 1e12
    );
    Ok(())
}

fn usage_error(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("usage: grape6 <gen|run|analyze|perf> [flags]   (see module docs)");
    std::process::exit(1);
}

fn main() {
    // Each subcommand's valued flags and switches; anything else is an error.
    type Cmd = fn(&Flags) -> Result<(), String>;
    let (cmd, flags) = Flags::subcommand_from_env::<Cmd>(
        &[
            (
                "gen",
                &["--n", "--seed", "--out"],
                &["--no-protoplanets", "--production-masses"],
                cmd_gen,
            ),
            (
                "run",
                &[
                    "--in",
                    "--t",
                    "--engine",
                    "--theta",
                    "--near-radius",
                    "--eta",
                    "--accrete",
                    "--out",
                    "--diag",
                    "--telemetry",
                    "--faults",
                    "--checkpoint",
                    "--checkpoint-every",
                    "--resume",
                ],
                &[],
                cmd_run,
            ),
            ("analyze", &["--in", "--bins", "--protoplanets"], &[], cmd_analyze),
            ("perf", &["--n", "--block"], &[], cmd_perf),
        ],
        usage_error,
    );
    if let Err(msg) = cmd(&flags) {
        usage_error(&msg);
    }
}
