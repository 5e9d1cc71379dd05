//! # grape6-bench
//!
//! One binary per experiment of DESIGN.md §4 (`table_headline`,
//! `fig13_gaps`, `table_hardware`, `table_blockstep`, `table_tree_vs_direct`,
//! `table_network_scaling`, `table_small_blocks`, `table_scattering`,
//! `table_accuracy`), the job-service load generator (`load_gen`,
//! [`loadgen`]) and the 1.8M-body host-path smoke (`large_n_smoke`).
//! Wall-clock performance is measured by the standalone `benchmark/` package
//! alone, not here. This library holds the shared table-printing, workload
//! and flag helpers.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// The load generator times jobs against the wall clock.
#![allow(clippy::disallowed_methods)]
pub mod loadgen;

use grape6_core::integrator::HermiteConfig;
use grape6_core::particle::ParticleSystem;
use grape6_disk::DiskBuilder;

/// Print a table header row followed by a separator, padding each column to
/// `width`.
pub fn print_header(cols: &[&str], width: usize) {
    let row: Vec<String> = cols.iter().map(|c| format!("{c:>width$}")).collect();
    println!("{}", row.join("  "));
    println!("{}", "-".repeat((width + 2) * cols.len()));
}

/// Print a data row of preformatted cells at the same width.
pub fn print_row(cells: &[String], width: usize) {
    let row: Vec<String> = cells.iter().map(|c| format!("{c:>width$}")).collect();
    println!("{}", row.join("  "));
}

/// Format a float compactly for tables.
pub fn fmt(x: f64) -> String {
    if x == 0.0 {
        "0".to_string()
    } else if x.abs() >= 1e4 || x.abs() < 1e-3 {
        format!("{x:.3e}")
    } else {
        format!("{x:.4}")
    }
}

/// The standard scaled-down paper workload used across experiments: an
/// `n`-planetesimal Uranus-Neptune disk with the paper's geometry, masses
/// and softening.
pub fn paper_disk(n: usize, seed: u64) -> ParticleSystem {
    DiskBuilder::paper(n).with_seed(seed).build()
}

/// The integrator configuration used by the experiments: η = 0.02 accuracy
/// class with dt_max = 2³ (≈1.3 yr, a small fraction of the 90–160 yr
/// orbital periods), leaving the Aarseth criterion free to spread particles
/// across many rungs — the individual-timestep structure the paper exploits.
pub fn experiment_config() -> HermiteConfig {
    HermiteConfig { dt_max: 2.0f64.powi(3), ..HermiteConfig::default() }
}

/// The typed value of `--key value` in `argv`: `None` when the flag is
/// absent, an error naming flag and text when the value is bad or missing.
fn parse_arg<T: std::str::FromStr>(argv: &[String], key: &str) -> Result<Option<T>, String> {
    let Some(at) = argv.iter().position(|a| a == key) else {
        return Ok(None);
    };
    let Some(text) = argv.get(at + 1) else {
        return Err(format!("{key} needs a value"));
    };
    text.parse().map(Some).map_err(|_| format!("invalid value '{text}' for {key}"))
}

/// Parse a `--key value` style argument from the command line (integers,
/// floats and strings via `FromStr`), with a default for an absent flag. A
/// bad or missing value is a usage error — stderr, exit status 2 — never the
/// default: a typo in `--n` must not start the full 1.8M-body run.
pub fn arg_or<T: std::str::FromStr>(key: &str, default: T) -> T {
    let argv: Vec<String> = std::env::args().collect();
    match parse_arg(&argv, key) {
        Ok(value) => value.unwrap_or(default),
        Err(msg) => {
            eprintln!("error: {msg}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_picks_sensible_notation() {
        assert_eq!(fmt(0.0), "0");
        assert!(fmt(1.5).starts_with("1.5"));
        assert!(fmt(1.0e7).contains('e'));
        assert!(fmt(1.0e-9).contains('e'));
    }

    #[test]
    fn paper_disk_builds() {
        let sys = paper_disk(100, 1);
        assert_eq!(sys.len(), 102);
        assert_eq!(sys.softening, 0.008);
    }

    #[test]
    fn arg_or_returns_default_without_flag() {
        assert_eq!(arg_or("--nonexistent-flag", 42usize), 42);
        assert_eq!(arg_or("--nonexistent-flag", 2.5f64), 2.5);
    }

    #[test]
    fn parse_arg_rejects_unparsable_and_missing_values() {
        let argv: Vec<String> = ["bin", "--n", "2k", "--steps"].map(String::from).to_vec();
        assert_eq!(parse_arg::<usize>(&argv, "--n"), Err("invalid value '2k' for --n".into()));
        assert_eq!(parse_arg::<u64>(&argv, "--steps"), Err("--steps needs a value".into()));
        assert_eq!(parse_arg::<String>(&argv, "--n"), Ok(Some("2k".into())));
    }
}
