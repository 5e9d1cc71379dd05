//! `compare a.jsonl b.jsonl`: the noise criterion and the regression rule,
//! per workload × end-to-end metric.
//!
//! Each file holds one record per line as `run --workload all` prints them
//! (one set of runs = one file, any number of runs per workload). For each
//! cell the tool prints both medians, the relative difference of B against
//! A, the bound, and a verdict:
//!
//! * `within` — B's median is not worse than A's by more than the bound
//!   (or every run of B reads better than every run of A);
//! * `exceeds` — it is worse by more than the bound;
//! * `unresolved` — the spread of either side (interquartile range over
//!   median, Python's `statistics.quantiles(n=4)`) is wider than the bound,
//!   so the medians cannot be told apart at that resolution.

use crate::metrics::{Better, MetricDef, END_TO_END, WORKLOADS};
use crate::stats;
use serde::Value;
use std::collections::BTreeMap;

/// Verdict of one workload × metric cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// No regression beyond the bound.
    Within,
    /// Regression beyond the bound.
    Exceeds,
    /// Spread wider than the bound.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Within => "within",
            Verdict::Exceeds => "exceeds",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Samples of one set of runs: `(workload, metric) → values`.
pub type Samples = BTreeMap<(String, String), Vec<f64>>;

/// Parse a JSON-lines record file, keeping untraced full-size records.
pub fn parse_records(text: &str) -> Result<Samples, String> {
    let mut out = Samples::new();
    for (no, line) in text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()) {
        let v = serde_json::value_from_slice(line.as_bytes())
            .map_err(|e| format!("line {}: {e}", no + 1))?;
        let flag = |k: &str| matches!(v.get(k), Some(Value::Bool(true)));
        if flag("trace") || flag("smoke") {
            continue;
        }
        let workload = v
            .get("workload")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("line {}: no workload", no + 1))?;
        let metrics = v
            .get("result")
            .and_then(|r| r.get("metrics"))
            .and_then(Value::as_object)
            .ok_or_else(|| format!("line {}: no result.metrics", no + 1))?;
        for (name, m) in metrics {
            if let Some(x) = m.get("value").and_then(Value::as_f64) {
                out.entry((workload.to_string(), name.clone())).or_default().push(x);
            }
        }
    }
    Ok(out)
}

/// Judge one cell.
pub fn judge(def: &MetricDef, a: &[f64], b: &[f64]) -> (f64, f64, f64, Verdict) {
    let (ma, mb) = (stats::median(a), stats::median(b));
    // Positive = B is worse.
    let worse = match def.better {
        Better::Lower => (mb - ma) / ma,
        Better::Higher => (ma - mb) / ma,
    };
    let all_better = match def.better {
        Better::Lower => stats::summarize(b).max < stats::summarize(a).min,
        Better::Higher => stats::summarize(b).min > stats::summarize(a).max,
    };
    let spread = [a, b].iter().filter_map(|s| stats::relative_iqr(s)).fold(0.0, f64::max);
    let verdict = if all_better {
        Verdict::Within
    } else if spread > def.bound {
        Verdict::Unresolved
    } else if worse > def.bound {
        Verdict::Exceeds
    } else {
        Verdict::Within
    };
    (ma, mb, worse, verdict)
}

/// Compare two record sets; returns the table and whether any cell exceeds.
pub fn compare(a: &Samples, b: &Samples) -> (String, bool) {
    use std::fmt::Write;
    let mut t = String::new();
    let _ = writeln!(
        t,
        "{:<14} {:<14} {:>4} {:>12} {:>12} {:>8} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "n", "median A", "median B", "B vs A", "iqr A", "iqr B", "bound"
    );
    let mut exceeds = false;
    for w in WORKLOADS {
        for def in &END_TO_END {
            let key = (w.to_string(), def.name.to_string());
            let (Some(sa), Some(sb)) = (a.get(&key), b.get(&key)) else {
                continue;
            };
            let (ma, mb, worse, verdict) = judge(def, sa, sb);
            exceeds |= verdict == Verdict::Exceeds;
            let iqr = |s: &[f64]| {
                stats::relative_iqr(s).map_or("n/a".to_string(), |x| format!("{:.1}%", 100.0 * x))
            };
            let _ = writeln!(
                t,
                "{:<14} {:<14} {:>4} {:>12.4} {:>12.4} {:>+7.1}% {:>8} {:>8} {:>5.0}%  {}",
                w,
                def.name,
                format!("{}/{}", sa.len(), sb.len()),
                ma,
                mb,
                100.0 * worse,
                iqr(sa),
                iqr(sb),
                100.0 * def.bound,
                verdict.as_str()
            );
        }
    }
    (t, exceeds)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_regression_rule() {
        // An 8 % bound, lower is better.
        let def =
            &MetricDef { name: "evolve_wall_s", unit: "s", better: Better::Lower, bound: 0.08 };
        let base = [1.00, 1.01, 0.99, 1.00, 1.02];
        let same = [1.01, 1.00, 1.00, 0.99, 1.03];
        let slower = [1.20, 1.21, 1.19, 1.20, 1.22];
        let faster = [0.80, 0.81, 0.79, 0.80, 0.82];
        let noisy = [0.80, 1.30, 1.00, 0.70, 1.25];
        assert_eq!(judge(def, &base, &same).3, Verdict::Within);
        assert_eq!(judge(def, &base, &slower).3, Verdict::Exceeds);
        assert_eq!(judge(def, &base, &faster).3, Verdict::Within);
        assert_eq!(judge(def, &base, &noisy).3, Verdict::Unresolved);
        // Every run better than every run of A resolves even a noisy cell.
        assert_eq!(judge(def, &noisy, &[0.5, 0.6, 0.55]).3, Verdict::Within);
        let (ma, mb, worse, _) = judge(def, &base, &slower);
        assert_eq!((ma, mb), (1.0, 1.2));
        assert!((worse - 0.2).abs() < 1e-12);
    }

    #[test]
    fn records_parse_and_traced_or_smoke_lines_are_skipped() {
        let line = |w: &str, v: f64, trace: bool| {
            format!(
                "{{\"workload\":\"{w}\",\"seed\":1,\"trace\":{trace},\"smoke\":false,\"result\":{{\"correct\":true,\
                 \"attempted\":1,\"failed\":0,\"metrics\":{{\"evolve_wall_s\":{{\"value\":{v},\"unit\":\"s\"}}}}}}}}"
            )
        };
        let text = [
            line("direct_16k", 2.0, false),
            line("direct_16k", 2.02, false),
            line("direct_16k", 9.0, true),
        ]
        .join("\n");
        let s = parse_records(&text).expect("parses");
        assert_eq!(s[&("direct_16k".to_string(), "evolve_wall_s".to_string())], [2.0, 2.02]);
        let (table, exceeds) = compare(&s, &s);
        assert!(table.contains("within") && !exceeds, "{table}");
        assert!(parse_records("{\"workload\":1}").is_err());
    }
}
