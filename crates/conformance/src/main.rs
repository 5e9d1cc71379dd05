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
use grape6_sim::cli::Flags;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage: grape6-conformance [--seeds N] [--start-seed K] \
                     [--corpus DIR] [--failures DIR] [--broken-kernel]";

fn usage_error(msg: &str) -> ! {
    eprintln!("error: {msg}\n{USAGE}");
    std::process::exit(2);
}

/// The checked-in corpus, if the binary runs from the workspace root.
fn default_corpus() -> Option<PathBuf> {
    let p = PathBuf::from("conformance/corpus");
    p.is_dir().then_some(p)
}

/// Dev-only self-test: the harness must catch every intentionally broken
/// kernel and minimize the failure to a handful of particles.
fn broken_kernel_selftest(seeds: Range<u64>, failures: &Path) -> ExitCode {
    for seed in seeds {
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
            match corpus::write_failure(failures, &min, check, &detail) {
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
    let flags = Flags::from_env(
        &["--seeds", "--start-seed", "--corpus", "--failures"],
        &["--broken-kernel", "--help", "-h"],
        usage_error,
    );
    if flags.has("--help") || flags.has("-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let start_seed: u64 = flags.get_or("--start-seed", 0);
    let Some(end_seed) = start_seed.checked_add(flags.get_or("--seeds", 16)) else {
        usage_error("--start-seed + --seeds must fit in a u64");
    };
    let seeds = start_seed..end_seed;
    let failures_dir = flags.get_or("--failures", PathBuf::from("conformance/failures"));
    if flags.has("--broken-kernel") {
        return broken_kernel_selftest(seeds, &failures_dir);
    }

    let mut failed = 0usize;
    let mut ran = 0usize;

    // Phase 1: replay the checked-in corpus of minimized repros.
    if let Some(dir) = flags.get::<PathBuf>("--corpus").or_else(default_corpus) {
        match corpus::replay_dir(&dir) {
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
    for seed in seeds {
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
        match corpus::write_failure(&failures_dir, &min, &first.check, &detail) {
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
