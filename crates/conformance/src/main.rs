//! `grape6-conformance` — seeded differential fuzzing of the force engines.
//!
//! ```text
//! grape6-conformance [--seeds N] [--start-seed K]
//!                    [--corpus DIR] [--failures DIR] [--broken-kernel]
//! ```
//!
//! Replays the checked-in corpus (if present), then runs `N` generated
//! scenarios starting at seed `K` through every differential, block-path,
//! metamorphic and trajectory check. The first failing check of a failing
//! scenario is greedily minimized and the repro JSON is written under the
//! failures directory for triage (CI uploads it as an artifact).
//!
//! Exit status: 0 all green, 1 conformance failure (repro written),
//! 2 usage error or `--broken-kernel` self-test failure.

#![forbid(unsafe_code)]

use grape6_conformance::corpus;
use grape6_conformance::runner::{run_check, run_scenario, BROKEN_CHECKS};
use grape6_conformance::scenario::generate;
use grape6_conformance::shrink::shrink;
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    seeds: u64,
    start_seed: u64,
    corpus: Option<PathBuf>,
    failures: PathBuf,
    broken_kernel: bool,
}

const USAGE: &str = "usage: grape6-conformance [--seeds N] [--start-seed K] \
                     [--corpus DIR] [--failures DIR] [--broken-kernel]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        seeds: 16,
        start_seed: 0,
        corpus: default_corpus(),
        failures: PathBuf::from("conformance/failures"),
        broken_kernel: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value =
            |name: &str| it.next().ok_or_else(|| format!("{name} needs a value\n{USAGE}"));
        match flag.as_str() {
            "--seeds" => {
                args.seeds = value("--seeds")?.parse().map_err(|e| format!("--seeds: {e}"))?;
            }
            "--start-seed" => {
                args.start_seed =
                    value("--start-seed")?.parse().map_err(|e| format!("--start-seed: {e}"))?;
            }
            "--corpus" => args.corpus = Some(PathBuf::from(value("--corpus")?)),
            "--failures" => args.failures = PathBuf::from(value("--failures")?),
            "--broken-kernel" => args.broken_kernel = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag `{other}`\n{USAGE}")),
        }
    }
    Ok(args)
}

/// The checked-in corpus, if the binary runs from the workspace root.
fn default_corpus() -> Option<PathBuf> {
    let p = PathBuf::from("conformance/corpus");
    p.is_dir().then_some(p)
}

/// Dev-only self-test: the harness must catch every intentionally broken
/// kernel and minimize the failure to a handful of particles.
fn broken_kernel_selftest(args: &Args) -> ExitCode {
    for seed in args.start_seed..args.start_seed + args.seeds {
        let sc = generate(seed);
        if sc.len() < 2 {
            continue; // one lone particle exposes neither a dropped pair nor a group
        }
        for &check in BROKEN_CHECKS {
            let Some(detail) = run_check(&sc, check) else {
                println!("FAIL  seed {seed}: {check} escaped the oracle on {}", sc.name);
                return ExitCode::from(2);
            };
            let min = shrink(&sc, check);
            println!(
                "caught  seed {seed}: {check} on {} ({} particles) minimized to {} particles",
                sc.name,
                sc.len(),
                min.len()
            );
            if min.len() > 8 {
                println!("FAIL  minimized repro still has {} particles (want ≤ 8)", min.len());
                return ExitCode::from(2);
            }
            match corpus::write_failure(&args.failures, &min, check, &detail) {
                Ok(path) => println!("        repro written to {}", path.display()),
                Err(e) => {
                    eprintln!("error: cannot write repro: {e}");
                    return ExitCode::from(2);
                }
            }
        }
    }
    println!("broken-kernel self-test passed: every failure caught and minimized");
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };

    if args.broken_kernel {
        return broken_kernel_selftest(&args);
    }

    let mut failed = 0usize;
    let mut ran = 0usize;

    // Phase 1: replay the checked-in corpus of minimized repros.
    if let Some(dir) = &args.corpus {
        match corpus::replay_dir(dir) {
            Ok(failures) => {
                let n = failures.len();
                for (path, check, detail) in failures {
                    println!("FAIL  corpus {}: {check}: {detail}", path.display());
                }
                if n > 0 {
                    failed += n;
                } else {
                    println!("corpus {} replayed clean", dir.display());
                }
            }
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::from(2);
            }
        }
    }

    // Phase 2: fuzz generated scenarios.
    for seed in args.start_seed..args.start_seed + args.seeds {
        let sc = generate(seed);
        let failures = run_scenario(&sc);
        ran += 1;
        if failures.is_empty() {
            println!("ok    seed {seed:4}  {:28} n={:<4}", sc.name, sc.len());
            continue;
        }
        failed += 1;
        for f in &failures {
            println!("FAIL  seed {seed:4}  {}: {}: {}", sc.name, f.check, f.detail);
        }
        // Minimize the first failure and write the repro for triage.
        let first = &failures[0];
        let min = shrink(&sc, &first.check);
        let detail = run_check(&min, &first.check).unwrap_or_else(|| first.detail.clone());
        match corpus::write_failure(&args.failures, &min, &first.check, &detail) {
            Ok(path) => println!(
                "      minimized to {} particles; repro written to {}",
                min.len(),
                path.display()
            ),
            Err(e) => eprintln!("error: cannot write repro: {e}"),
        }
    }

    println!(
        "{ran} scenarios, {failed} failing ({} checks each)",
        grape6_conformance::ALL_CHECKS.len()
    );
    if failed > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
