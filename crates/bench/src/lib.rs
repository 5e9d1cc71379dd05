//! # grape6-bench
//!
//! One binary per experiment of DESIGN.md §4 (`table_headline`,
//! `fig13_gaps`, `table_hardware`, `table_blockstep`, `table_tree_vs_direct`,
//! `table_network_scaling`, `table_small_blocks`, `table_scattering`,
//! `table_accuracy`, `table_accretion`, `table_ablation`) and the 1.8M-body
//! host-path smoke (`large_n_smoke`). Wall-clock performance is measured by
//! the standalone `benchmark/` package alone, not here; the service's
//! exactness contracts under load are `grape6-serve`'s `tests/load.rs`. This
//! library holds the shared table-printing and workload helpers; flags are
//! read through `grape6_sim::cli`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use grape6_core::integrator::HermiteConfig;
use grape6_core::particle::ParticleSystem;
use grape6_disk::DiskBuilder;
use grape6_sim::cli::Flags;

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

/// A bench binary's command line: its `valued` flags (each `--key value`)
/// through the workspace's one parser, [`Flags`]. A usage error — an
/// unknown flag, a flag without a value, a value that does not parse — is
/// printed and exits with status 2, never the default: a typo in
/// `large_n_smoke`'s `--n` must not start the full 1.8M-body run.
pub fn read_flags(valued: &[&str]) -> Flags {
    Flags::from_env(valued, &[], usage_error)
}

/// The count flag `key` (a disk size or a block size), or `default` when
/// absent. Zero is a usage error like any other: there is no empty disk
/// to build and no empty block to model.
pub fn read_count(flags: &Flags, key: &str, default: usize) -> usize {
    let n = flags.get_or(key, default);
    if n == 0 {
        usage_error(&format!("{key} must be at least 1"));
    }
    n
}

/// Print a usage error and exit with status 2, before any other output.
fn usage_error(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2)
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
}
