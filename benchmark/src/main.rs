//! `grape6-benchmark` — the repository's performance benchmark.
//!
//! ```text
//! grape6-benchmark run [--workload W|all] [--seed S] [--seconds T] [--trace [0|1]] [--smoke] [--record]
//! grape6-benchmark compare A.jsonl B.jsonl
//! grape6-benchmark manifest
//! ```
//!
//! `run` with one workload measures it in this process and prints the
//! machine-readable result as the last line of stdout (a human table goes
//! to stderr). `run --workload all` re-executes itself once per workload —
//! a fresh process each, so `VmHWM` is the workload's own — and prints one
//! record per workload; `compare` reads files of such records. `manifest`
//! prints the `BENCHMARK.json` this crate's names imply.

#![forbid(unsafe_code)]

mod compare;
mod metrics;
mod run;
mod serve;
mod sims;
mod stats;
mod trace;

use metrics::{END_TO_END, PER_LAYER, WORKLOADS};
use run::RunOptions;
use serde::Value;
use std::process::ExitCode;

/// Default input seed (the paper's conference date, as elsewhere in the
/// repository).
const DEFAULT_SEED: u64 = 20020616;

/// Seconds of measuring per run (`run_seconds` in `BENCHMARK.json`).
const RUN_SECONDS: u64 = 18;

const USAGE: &str = "usage: grape6-benchmark run [--workload W|all] [--seed S] [--seconds T] [--trace [0|1]] [--smoke] [--record]
       grape6-benchmark compare A.jsonl B.jsonl
       grape6-benchmark manifest";

fn parse_run(args: &[String]) -> Result<RunOptions, String> {
    let mut o = RunOptions {
        workload: "all".to_string(),
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS as f64,
        trace: false,
        smoke: false,
        record: false,
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or_else(|| format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => o.workload = value("a workload name")?.clone(),
            "--seed" => {
                o.seed = value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                o.seconds = value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(o.seconds >= 0.0 && o.seconds <= 600.0) {
                    return Err(format!("--seconds {} is outside 0..=600", o.seconds));
                }
            }
            "--trace" => {
                // Bare `--trace` means on; `--trace 0|1` is the driver's form.
                o.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--smoke" => o.smoke = true,
            "--record" => o.record = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if o.workload != "all" && run::spec(&o.workload, o.smoke).is_none() {
        return Err(format!(
            "unknown workload '{}' (expected all, {})",
            o.workload,
            WORKLOADS.join(", ")
        ));
    }
    Ok(o)
}

/// Run every workload, each in a fresh process of this executable.
fn run_all(o: &RunOptions) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut all_correct = true;
    for w in WORKLOADS {
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(["run", "--workload", w, "--seed", &o.seed.to_string()])
            .args(["--seconds", &o.seconds.to_string(), "--trace", if o.trace { "1" } else { "0" }])
            .arg("--record");
        if o.smoke {
            cmd.arg("--smoke");
        }
        // stderr (the human table) passes through; stdout is the record.
        let out = cmd
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot start {w}: {e}"))?;
        if !out.status.success() {
            return Err(format!("workload {w} exited with {}", out.status));
        }
        let text = String::from_utf8_lossy(&out.stdout);
        let line = text.lines().last().ok_or_else(|| format!("workload {w} printed nothing"))?;
        let v = serde_json::value_from_slice(line.as_bytes())
            .map_err(|e| format!("workload {w} printed a bad record: {e}"))?;
        all_correct &=
            matches!(v.get("result").and_then(|r| r.get("correct")), Some(Value::Bool(true)));
        println!("{line}");
    }
    Ok(all_correct)
}

fn cmd_run(args: &[String]) -> Result<ExitCode, String> {
    let o = parse_run(args)?;
    if o.workload == "all" {
        return run_all(&o).map(|ok| if ok { ExitCode::SUCCESS } else { ExitCode::from(2) });
    }
    if o.workload == "serve_mix" {
        // The service's worker threads are outside any `with_num_threads`
        // scope; pin each to one rayon thread so 2 workers = 2 busy threads.
        // Set before any thread exists.
        std::env::set_var("RAYON_NUM_THREADS", "1");
    }
    let report = run::run(&o)?;
    eprint!("{}", report.table());
    let line = if o.record { report.record_value() } else { report.result_value() };
    println!("{}", run::to_json(&line));
    Ok(ExitCode::SUCCESS)
}

fn cmd_compare(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err("compare needs exactly two record files".to_string());
    };
    let load = |path: &String| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("{path}: {e}"))
            .and_then(|t| compare::parse_records(&t).map_err(|e| format!("{path}: {e}")))
    };
    let (table, exceeds) = compare::compare(&load(a)?, &load(b)?);
    print!("{table}");
    Ok(if exceeds { ExitCode::from(1) } else { ExitCode::SUCCESS })
}

/// The `BENCHMARK.json` document implied by this crate's names and bounds.
fn manifest() -> String {
    let strs =
        |items: &[&str]| items.iter().map(|s| format!("\"{s}\"")).collect::<Vec<_>>().join(", ");
    let mut out = String::from("{\n");
    out += &format!(
        "  \"command\": [{}],\n",
        strs(&[
            "cargo",
            "run",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            "benchmark/Cargo.toml",
            "--",
            "run"
        ])
    );
    out += "  \"paths\": [\"benchmark\"],\n";
    out += &format!("  \"run_seconds\": {RUN_SECONDS},\n");
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{w}\", \"why\": \"{}\"}}", run::why(w)))
        .collect();
    out += &format!("  \"workloads\": [\n{}\n  ],\n", workloads.join(",\n"));
    let e2e: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.bound
            )
        })
        .collect();
    out += &format!("  \"end_to_end\": [\n{}\n  ],\n", e2e.join(",\n"));
    let layers: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.as_str()
            )
        })
        .collect();
    out += &format!("  \"per_layer\": [\n{}\n  ]\n}}\n", layers.join(",\n"));
    out
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => cmd_run(rest),
        Some((cmd, rest)) if cmd == "compare" => cmd_compare(rest),
        Some((cmd, [])) if cmd == "manifest" => {
            print!("{}", manifest());
            Ok(ExitCode::SUCCESS)
        }
        _ => Err(USAGE.to_string()),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        ExitCode::from(64)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn driver_form_and_issue_form_of_the_flags_both_parse() {
        let o = parse_run(&args("--workload hybrid_32k --seed 9 --seconds 18 --trace 0"))
            .expect("parses");
        assert_eq!(
            (o.workload.as_str(), o.seed, o.seconds, o.trace, o.smoke),
            ("hybrid_32k", 9, 18.0, false, false)
        );
        assert!(parse_run(&args("--workload serve_mix --trace 1")).expect("parses").trace);
        let o = parse_run(&args("--trace --smoke")).expect("parses");
        assert_eq!(
            (o.workload.as_str(), o.seed, o.trace, o.smoke),
            ("all", DEFAULT_SEED, true, true)
        );
        assert!(parse_run(&args("--workload nope")).is_err());
        assert!(parse_run(&args("--seed")).is_err());
        assert!(parse_run(&args("--seconds -1")).is_err());
        assert!(parse_run(&args("--bogus")).is_err());
    }

    /// The checked-in `BENCHMARK.json` is exactly what the code implies.
    #[test]
    fn benchmark_json_is_the_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            on_disk,
            manifest(),
            "regenerate with `grape6-benchmark manifest > BENCHMARK.json`"
        );
        let v = serde_json::value_from_slice(on_disk.as_bytes()).expect("valid JSON");
        let keys: Vec<&str> =
            v.as_object().expect("object").iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
        );
        assert!(on_disk.len() < 64 * 1024);
    }
}
