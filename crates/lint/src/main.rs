//! CLI entry point for `grape6-lint`.
//!
//! Exit codes: 0 clean, 1 at least one active diagnostic, 2
//! usage/configuration/IO error.

#![forbid(unsafe_code)]

use grape6_lint::config::Config;
use grape6_lint::rules::RULES;
use grape6_lint::{render_json, run_lint_full, Diagnostic};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
grape6-lint: unsafe-audit, hot-path and concurrency static analysis for the
grape6 workspace. Every finding is denied unless lint.toml path scoping or an
inline waiver removes it.

USAGE:
    grape6-lint [--root DIR] [--config FILE] [--json FILE] [--list-rules]

OPTIONS:
    --root DIR      workspace root to lint (default: current directory)
    --config FILE   lint configuration (default: <root>/lint.toml)
    --json FILE     also write a machine-readable report (schema v1: rule,
                    path, line, level, message, waiver_status) to FILE;
                    waived findings are included there as an audit trail
    --list-rules    print the rule table and exit
    -h, --help      print this help
";

fn main() -> ExitCode {
    match real_main() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("grape6-lint: error: {e}");
            ExitCode::from(2)
        }
    }
}

fn real_main() -> Result<ExitCode, String> {
    let mut root = PathBuf::from(".");
    let mut config_path: Option<PathBuf> = None;
    let mut json_path: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        // A value may not be another flag: `--json --list-rules` must not
        // write the report to a file named `--list-rules`.
        let mut value = || match args.next() {
            Some(value) if !value.starts_with("--") => Ok(PathBuf::from(value)),
            _ => Err(format!("{arg} needs a value")),
        };
        match arg.as_str() {
            "--root" => root = value()?,
            "--config" => config_path = Some(value()?),
            "--json" => json_path = Some(value()?),
            "--list-rules" => {
                for rule in &RULES {
                    println!("{}  {}", rule.id, rule.summary);
                }
                return Ok(ExitCode::SUCCESS);
            }
            "-h" | "--help" => {
                print!("{USAGE}");
                return Ok(ExitCode::SUCCESS);
            }
            other => return Err(format!("unknown argument {other:?} (try --help)")),
        }
    }
    let config_path = config_path.unwrap_or_else(|| root.join("lint.toml"));
    let text = std::fs::read_to_string(&config_path)
        .map_err(|e| format!("reading {}: {e}", config_path.display()))?;
    let cfg = Config::parse(&text)?;
    let all = run_lint_full(&root, &cfg)?;
    if let Some(path) = json_path {
        std::fs::write(&path, render_json(&all))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    let active: Vec<Diagnostic> = all.into_iter().filter(|d| !d.waived).collect();
    report(&active);
    Ok(if active.is_empty() { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn report(diagnostics: &[Diagnostic]) {
    for d in diagnostics {
        println!("{}", d.render());
    }
    if diagnostics.is_empty() {
        eprintln!("grape6-lint: clean");
    } else {
        eprintln!("grape6-lint: {} diagnostic(s)", diagnostics.len());
    }
}
