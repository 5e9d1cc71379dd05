//! # grape6-bench
//!
//! One binary per experiment of DESIGN.md §4 (`table_headline`,
//! `fig13_gaps`, `table_hardware`, `table_blockstep`, `table_tree_vs_direct`,
//! `table_network_scaling`, `table_small_blocks`, `table_scattering`,
//! `table_accuracy`, `table_accretion`, `table_ablation`) and the 1.8M-body
//! host-path smoke (`large_n_smoke`). Wall-clock performance is measured by
//! the standalone `benchmark/` package alone, not here; the service's
//! exactness contracts under load are `grape6-serve`'s `tests/load.rs`. This
//! library holds the shared table-printing, workload and flag helpers.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

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

fn usage_error(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

/// A bench binary's command line: `--key value` pairs (integers, floats and
/// strings via `FromStr`) from a fixed set of keys.
///
/// Anything the binary does not read — an unknown flag, a stray argument, a
/// flag without a value, a value that does not parse — is a usage error
/// (stderr, exit status 2), never the default: a typo in `large_n_smoke`'s
/// `--n` must not start the full 1.8M-body run.
pub struct Flags {
    pairs: Vec<(String, String)>,
}

impl Flags {
    /// Read the command line, whose flags must all be among `known`. Call it
    /// first in `main`, so that a bad command line does no work.
    pub fn parse(known: &[&str]) -> Self {
        Self::from_args(std::env::args().skip(1), known).unwrap_or_else(|msg| usage_error(&msg))
    }

    /// The pairs of `args`: a token that is not a key in `known` is an
    /// unknown flag or a stray argument, and a key followed by nothing or by
    /// another flag has no value.
    fn from_args(args: impl IntoIterator<Item = String>, known: &[&str]) -> Result<Self, String> {
        let mut args = args.into_iter();
        let mut pairs = Vec::new();
        while let Some(key) = args.next() {
            if !known.contains(&key.as_str()) {
                let what = if key.starts_with("--") { "unknown flag" } else { "stray argument" };
                return Err(format!("{what} '{key}'"));
            }
            match args.next() {
                Some(value) if !value.starts_with("--") => pairs.push((key, value)),
                _ => return Err(format!("{key} needs a value")),
            }
        }
        Ok(Self { pairs })
    }

    /// The value of `key`, or `default` when the flag is absent.
    pub fn get_or<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        let Some((_, text)) = self.pairs.iter().find(|(k, _)| k == key) else {
            return default;
        };
        text.parse().unwrap_or_else(|_| usage_error(&format!("invalid value '{text}' for {key}")))
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

    fn flags(tokens: &[&str], known: &[&str]) -> Result<Flags, String> {
        Flags::from_args(tokens.iter().map(|t| t.to_string()), known)
    }

    #[test]
    fn get_or_reads_a_flag_or_returns_the_default() {
        let flags = flags(&["--steps", "3", "--n", "2k"], &["--n", "--steps"]).unwrap();
        assert_eq!(flags.get_or("--t", 2.5f64), 2.5);
        assert_eq!(flags.get_or("--steps", 7u64), 3);
        assert_eq!(flags.get_or("--n", String::new()), "2k");
    }

    #[test]
    fn from_args_rejects_what_no_lookup_reads() {
        let known = ["--n", "--steps"];
        let err = |tokens: &[&str]| flags(tokens, &known).err();
        assert_eq!(err(&[]), None);
        assert_eq!(err(&["--n", "8", "--steps", "2"]), None);
        assert_eq!(err(&["--N", "8"]), Some("unknown flag '--N'".into()));
        assert_eq!(err(&["8"]), Some("stray argument '8'".into()));
        assert_eq!(err(&["--n", "8", "2"]), Some("stray argument '2'".into()));
        assert_eq!(err(&["--n", "--steps", "2"]), Some("--n needs a value".into()));
        assert_eq!(err(&["--steps"]), Some("--steps needs a value".into()));
        assert_eq!(flags(&["--n", "8"], &[]).err(), Some("unknown flag '--n'".into()));
    }
}
