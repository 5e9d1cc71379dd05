//! The rep protocol and the result it prints.
//!
//! One process runs one workload: threads fixed at [`THREADS`] (`serve_mix`:
//! two service workers of one thread each), rep 0 a discarded warm-up that
//! also carries the correctness checks, then measured reps — each a full
//! set-up followed by the workload's fixed work — until `--seconds` of
//! measuring have passed (never fewer than [`MIN_REPS`]). Every timing metric
//! is the median of the measured reps.

use crate::metrics::{MetricDef, END_TO_END, PER_LAYER, WORKLOADS};
use crate::serve::{self, ServeParams};
use crate::sims::{self, EngineKind, SimParams};
use crate::stats::{self, Summary};
use crate::trace::{spans_to_json, totals_by_kind, Span, SpanKind};
use serde::Value;
use std::collections::BTreeMap;
use std::time::Instant;

/// Host threads the measured reps of every simulation workload run on.
///
/// One, because on the 2-vCPU sizing box a 2-thread kernel waits for
/// whichever vCPU the host is sharing at the moment: interleaved over 25
/// minutes, the 2-thread direct and tree kernels rose 20–34 % in the same
/// 30 s windows in which their 1-thread twins rose 1–15 %, and over eight
/// alternated runs per side the spread of `evolve_wall_s` was 38 / 27 / 28 %
/// on 2 threads against 12 / 11 / 14 % on 1 (direct / hybrid / grape6).
/// The traced run adds one rep on [`PARALLEL_THREADS`] for the scaling rows.
pub const THREADS: usize = 1;

/// Threads of the traced run's extra rep (`shims.rayon.*`): what the sizing
/// box has.
pub const PARALLEL_THREADS: usize = 2;

/// Fewest measured reps a run reports a median of.
pub const MIN_REPS: usize = 3;

/// Size and shape of one workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Spec {
    /// A simulation workload.
    Sim(SimParams),
    /// The job-service workload.
    Serve(ServeParams),
}

/// One line of rationale per workload (also in `BENCHMARK.json`).
pub fn why(workload: &str) -> &'static str {
    match workload {
        "direct_16k" => "N=16384 on DirectEngine: the core force/lanes/sweep kernel is 99% of evolve, used both as full-N sweeps and as one-particle blocks; tree, GRAPE emulation and O(N) host terms are bypassed",
        "hybrid_32k" => "N=32768 on HybridTreeEngine(0.5, 1.0): octree rebuild on every block step plus walk and near/far sums; the direct lane kernel is bypassed and update_j (which drops the tree) is visible",
        "grape6_2k" => "N=2048 on the Grape6Engine single-host emulation: functional pipeline is ~all of evolve; modeled seconds and wire bytes must stay bit-identical; core kernels and tree are bypassed",
        "hostpath_512k" => "N=524288 on a zero-force engine with in-memory G6CK checkpoints: isolates the O(N) host terms (schedule, predict, correct, j-update), checkpoint codec and memory footprint; force kernels are bypassed",
        "serve_mix" => "job service, 2 workers, closed-loop waves of 8 JSON-line jobs: queue, slice, preempt (encode+decode), cache and coalescing over many tiny-N runs where per-call overhead dominates",
        _ => "",
    }
}

/// The parameters of `workload`, at full or smoke size.
pub fn spec(workload: &str, smoke: bool) -> Option<Spec> {
    let sim = |engine, n, n_smoke, t_end, t_smoke, pacer_a, checkpoint_every| {
        Spec::Sim(SimParams {
            engine,
            n: if smoke { n_smoke } else { n },
            t_end: if smoke { t_smoke } else { t_end },
            pacer_a,
            checkpoint_every,
        })
    };
    Some(match workload {
        "direct_16k" => sim(EngineKind::Direct, 16384, 256, 0.5, 1.0, sims::PACER_A_RUNG_M7, 0),
        "hybrid_32k" => sim(EngineKind::Hybrid, 32768, 512, 0.25, 0.5, sims::PACER_A_RUNG_M7, 0),
        "grape6_2k" => sim(EngineKind::Grape6, 2048, 96, 1.0, 0.5, sims::PACER_A_RUNG_M7, 0),
        "hostpath_512k" => {
            sim(EngineKind::Zero, 524288, 4096, 64.0, 2.0, sims::PACER_A_RUNG_M4, 512)
        }
        "serve_mix" => Spec::Serve(if smoke {
            ServeParams { fill_waves: 1, waves: 2, shrink: 8, t_end: 1.0 }
        } else {
            ServeParams { fill_waves: 3, waves: 12, shrink: 1, t_end: 4.0 }
        }),
        _ => return None,
    })
}

/// What `run` was asked to do.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOptions {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Seconds of measuring.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of end-to-end metrics.
    pub trace: bool,
    /// Tiny sizes, one measured rep.
    pub smoke: bool,
    /// Print the full record (what `run --workload all` collects and
    /// `compare` reads) instead of the bare result.
    pub record: bool,
}

/// One printed metric.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricValue {
    /// Definition.
    pub def: &'static MetricDef,
    /// Reported value.
    pub value: f64,
    /// Rep statistics behind a timing metric.
    pub summary: Option<Summary>,
}

/// Everything a run produced.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Options the run was made with.
    pub options: RunOptions,
    /// Operations attempted: block steps or jobs of the measured reps, plus
    /// each correctness check.
    pub attempted: u64,
    /// Operations failed: jobs not completed, plus each failed check.
    pub failed: u64,
    /// Metrics, in `BENCHMARK.json` order.
    pub metrics: Vec<MetricValue>,
    /// Exact work counters of one rep.
    pub counters: Vec<(&'static str, u64)>,
    /// Correctness checks: `(what, passed)`.
    pub checks: Vec<(String, bool)>,
    /// Free-form lines for the human table.
    pub notes: Vec<String>,
    /// Every measured rep's `(setup_s, evolve_s)`.
    pub reps: Vec<(f64, f64)>,
}

/// `VmHWM` of this process in MiB (0 where `/proc` is unavailable).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What the protocol needs from one rep of either workload family.
struct Rep<C> {
    setup_s: f64,
    evolve_s: f64,
    counters: C,
    ops: u64,
    ops_failed: u64,
    checks: Vec<(String, bool)>,
}

/// Warm-up + measured reps. `run_rep(check)` performs one rep. Also returns
/// the peak resident set after the warm-up rep: one full set-up, the fixed
/// work and its checks from a fresh heap — what a single run of the workload
/// costs. (`VmHWM` at exit also counts how the allocator's heap grew over
/// however many reps fitted into `--seconds`; on `hostpath_512k` that read
/// 417–474 MiB for the same work.)
fn measure<C>(
    opts: &RunOptions,
    mut run_rep: impl FnMut(bool) -> Rep<C>,
) -> (Rep<C>, Vec<Rep<C>>, f64) {
    let warm = run_rep(true);
    let peak_rss = peak_rss_mib();
    let (min_reps, seconds) = if opts.smoke { (1, 0.0) } else { (MIN_REPS, opts.seconds) };
    let mut reps = Vec::new();
    let t0 = Instant::now();
    while reps.len() < min_reps || t0.elapsed().as_secs_f64() < seconds {
        reps.push(run_rep(false));
    }
    (warm, reps, peak_rss)
}

/// `rate_note` turns the median `evolve_wall_s` into the work-per-second line
/// printed beside it.
fn end_to_end_report<C: PartialEq>(
    opts: &RunOptions,
    (warm, reps, peak_rss): (Rep<C>, Vec<Rep<C>>, f64),
    counters: Vec<(&'static str, u64)>,
    rate_note: impl FnOnce(f64) -> String,
) -> RunReport {
    let mut checks = warm.checks;
    checks.push((
        format!("work counters identical across warm-up + {} measured reps", reps.len()),
        reps.iter().all(|r| r.counters == warm.counters),
    ));
    let setups: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
    let evolves: Vec<f64> = reps.iter().map(|r| r.evolve_s).collect();
    let timing = |samples: &[f64]| {
        let s = stats::summarize(samples);
        (s.median, Some(s))
    };
    let values = [timing(&setups), timing(&evolves), (peak_rss, None)];
    let notes = vec![
        rate_note(values[1].0),
        format!("warm-up rep discarded, {} measured reps", reps.len()),
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(def, (value, summary))| MetricValue { def, value, summary })
        .collect();
    let ops: u64 = reps.iter().map(|r| r.ops).sum();
    let ops_failed: u64 = reps.iter().map(|r| r.ops_failed).sum();
    let failed_checks = checks.iter().filter(|(_, ok)| !ok).count() as u64;
    RunReport {
        options: opts.clone(),
        attempted: ops + checks.len() as u64,
        failed: ops_failed + failed_checks,
        metrics,
        counters,
        checks,
        notes,
        reps: setups.into_iter().zip(evolves).collect(),
    }
}

fn sim_rep(p: &SimParams, seed: u64, check: bool) -> Rep<sims::WorkCounters> {
    let r = sims::rep(p, seed, check);
    Rep {
        setup_s: r.setup_s,
        evolve_s: r.evolve_s,
        ops: r.counters.block_steps,
        ops_failed: 0,
        counters: r.counters,
        checks: r.checks,
    }
}

fn serve_rep(r: serve::ServeRep) -> Rep<serve::ServeCounters> {
    Rep {
        setup_s: r.setup_s,
        evolve_s: r.evolve_s,
        ops: r.counters.jobs,
        ops_failed: r.counters.jobs - r.counters.completed,
        counters: r.counters,
        checks: r.checks,
    }
}

fn layer_values(values: &BTreeMap<&'static str, f64>) -> Vec<MetricValue> {
    for name in values.keys() {
        assert!(PER_LAYER.iter().any(|d| d.name == *name), "unlisted per-layer metric {name}");
    }
    PER_LAYER
        .iter()
        .map(|def| {
            let v = values.get(def.name).copied().unwrap_or(0.0);
            MetricValue { def, value: if v.is_finite() { v } else { 0.0 }, summary: None }
        })
        .collect()
}

/// The traced run's own rows: span count, traced wall, and the tracing
/// overhead as spans × the measured cost of recording one.
fn insert_trace_rows(values: &mut BTreeMap<&'static str, f64>, spans: usize, wall_s: f64) {
    values.insert("trace.spans", spans as f64);
    values.insert("trace.evolve_wall_s", wall_s);
    let cost_s = spans as f64 * crate::trace::span_cost_ns() / 1e9;
    values.insert("trace.overhead_pct", 100.0 * cost_s / wall_s);
}

/// The time ledger of a traced rep, one line per span kind that occurred.
fn ledger_lines(spans: &[Span], wall_s: f64) -> Vec<String> {
    let totals = totals_by_kind(spans);
    let mut lines =
        vec![format!("ledger over traced evolve_wall_s = {wall_s:.4} s ({} spans):", spans.len())];
    lines.push(format!(
        "  {:<28} {:>8} {:>12} {:>12} {:>7}",
        "span", "count", "total ms", "self ms", "share"
    ));
    let mut attributed = 0.0;
    for kind in SpanKind::ALL {
        let t = &totals[kind.index()];
        if t.count == 0 {
            continue;
        }
        let self_s = t.self_ns as f64 / 1e9;
        if !kind.is_wrapper() {
            attributed += self_s;
        }
        lines.push(format!(
            "  {:<28} {:>8} {:>12.3} {:>12.3} {:>6.1}%{}",
            kind.name(),
            t.count,
            t.total_ns as f64 / 1e6,
            self_s * 1e3,
            100.0 * self_s / wall_s,
            if kind.is_wrapper() { "  (unattributed)" } else { "" }
        ));
    }
    let between_s = wall_s - crate::trace::top_level_ns(spans) as f64 / 1e9;
    lines.push(format!(
        "  {:<28} {:>8} {:>12} {:>12.3} {:>6.1}%  (unattributed)",
        "between steps",
        "",
        "",
        between_s * 1e3,
        100.0 * between_s / wall_s
    ));
    lines.push(format!(
        "  attributed rows sum to {:.1}% of the traced wall",
        100.0 * attributed / wall_s
    ));
    lines
}

fn write_trace_file(workload: &str, seed: u64, spans: &[Span], notes: &mut Vec<String>) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("{workload}.trace.json"));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, spans_to_json(workload, seed, spans)));
    notes.push(match written {
        Ok(()) => format!("spans -> {}", path.display()),
        Err(e) => format!("spans NOT written to {}: {e}", path.display()),
    });
}

fn run_sim(opts: &RunOptions, p: &SimParams) -> RunReport {
    let seed = opts.seed;
    if !opts.trace {
        let measured = measure(opts, |check| sim_rep(p, seed, check));
        let counters = measured.0.counters.fields();
        let psteps = measured.0.counters.particle_steps as f64;
        return end_to_end_report(opts, measured, counters, |evolve| {
            format!(
                "particle_steps / evolve_wall_s = {:.4e} 1/s (n = {} + 2 + pacer, t_end = {}, {THREADS} thread)",
                psteps / evolve,
                p.n,
                p.t_end
            )
        });
    }
    // Traced run: warm-up, one untraced rep (the plain single-threaded
    // baseline), one traced rep, and (real engines) one rep on
    // `PARALLEL_THREADS`.
    let warm = sims::rep(p, seed, true);
    let plain = sims::rep(p, seed, false);
    let expected_steps = warm.counters.block_steps as usize;
    let traced = sims::traced_rep(p, seed, expected_steps);
    let parallel = (p.engine != EngineKind::Zero)
        .then(|| rayon::with_num_threads(PARALLEL_THREADS, || sims::rep(p, seed, false)));
    let mut values = sims::layer_metrics(
        p,
        &traced,
        plain.evolve_s,
        parallel.as_ref().map(|r| (PARALLEL_THREADS, r.evolve_s)),
    );
    insert_trace_rows(&mut values, traced.evolve_spans.len(), traced.rep.evolve_s);

    let mut checks = warm.checks.clone();
    let same = |c: &sims::WorkCounters| *c == warm.counters;
    let compared = match &parallel {
        Some(_) => format!("traced, untraced and {PARALLEL_THREADS}-thread"),
        None => "traced and untraced".to_string(),
    };
    checks.push((
        format!("{compared} reps have identical work counters and final state"),
        same(&plain.counters)
            && same(&traced.rep.counters)
            && parallel.as_ref().is_none_or(|r| same(&r.counters)),
    ));
    let mut notes = ledger_lines(&traced.evolve_spans, traced.rep.evolve_s);
    let n = traced.block_sizes.len();
    notes.push(format!(
        "block steps {n}: step_ms_p99 quoted at n = {n}; highest percentile with >= 10 samples beyond it is p{}",
        stats::tail_percentile(n)
    ));
    notes.push(format!(
        "untraced rep evolve {:.4} s, traced rep {:.4} s (one pair: rep noise, not overhead), {PARALLEL_THREADS}-thread rep {}",
        plain.evolve_s,
        traced.rep.evolve_s,
        parallel.as_ref().map_or("n/a".to_string(), |r| format!("{:.4} s", r.evolve_s))
    ));
    write_trace_file(&opts.workload, seed, &traced.evolve_spans, &mut notes);
    let failed = checks.iter().filter(|(_, ok)| !ok).count() as u64;
    RunReport {
        options: opts.clone(),
        attempted: traced.rep.counters.block_steps + checks.len() as u64,
        failed,
        metrics: layer_values(&values),
        counters: traced.rep.counters.fields(),
        checks,
        notes,
        reps: vec![(plain.setup_s, plain.evolve_s), (traced.rep.setup_s, traced.rep.evolve_s)],
    }
}

fn run_serve(opts: &RunOptions, p: &ServeParams) -> RunReport {
    let campaign = serve::plan(opts.seed, p);
    if !opts.trace {
        let measured = measure(opts, |check| serve_rep(serve::rep(&campaign, false, check)));
        let counters = measured.0.counters.fields();
        return end_to_end_report(opts, measured, counters, |evolve| {
            format!(
                "jobs / evolve_wall_s = {:.2} 1/s ({} fill + {} measured jobs, closed loop, {} outstanding, {} workers x 1 thread)",
                campaign.jobs.len() as f64 / evolve,
                campaign.fill.len(),
                campaign.jobs.len(),
                serve::WAVE,
                serve::serve_config().workers
            )
        });
    }
    let warm = serve::rep(&campaign, false, true);
    let plain = serve::rep(&campaign, false, false);
    let traced = serve::rep(&campaign, true, false);
    let mut values = serve::layer_metrics(&campaign, &traced);
    insert_trace_rows(&mut values, traced.spans.len(), traced.evolve_s);
    let mut checks = warm.checks.clone();
    checks.extend(traced.checks.iter().cloned());
    checks.push((
        "traced and untraced reps have identical work counters and result bytes".to_string(),
        plain.counters == warm.counters && traced.counters == warm.counters,
    ));
    let mut notes = ledger_lines(&traced.spans, traced.evolve_s);
    let primaries = campaign.jobs.iter().filter(|j| j.role == serve::Role::Primary).count();
    notes.push(format!(
        "job_ms_p50/p99 over {primaries} primaries, as seen by a client that waits in submission order; highest percentile with >= 10 samples beyond it is p{}",
        stats::tail_percentile(primaries)
    ));
    write_trace_file(&opts.workload, opts.seed, &traced.spans, &mut notes);
    let c = &traced.counters;
    let failed = checks.iter().filter(|(_, ok)| !ok).count() as u64 + (c.jobs - c.completed);
    RunReport {
        options: opts.clone(),
        attempted: c.jobs + checks.len() as u64,
        failed,
        metrics: layer_values(&values),
        counters: c.fields(),
        checks,
        notes,
        reps: vec![(plain.setup_s, plain.evolve_s), (traced.setup_s, traced.evolve_s)],
    }
}

/// Run one workload in this process.
pub fn run(opts: &RunOptions) -> Result<RunReport, String> {
    let spec = spec(&opts.workload, opts.smoke).ok_or_else(|| {
        format!("unknown workload '{}' (expected one of {})", opts.workload, WORKLOADS.join(", "))
    })?;
    Ok(match spec {
        Spec::Sim(p) => rayon::with_num_threads(THREADS, || run_sim(opts, &p)),
        // The service's workers are plain threads outside any rayon scope:
        // `main` pins them to one rayon thread each through the
        // environment, so 2 workers = 2 busy threads.
        Spec::Serve(p) => run_serve(opts, &p),
    })
}

fn object(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

struct Json<'a>(&'a Value);

impl serde::Serialize for Json<'_> {
    fn serialize_value(&self) -> Value {
        self.0.clone()
    }
}

/// Compact JSON text of a value tree.
pub fn to_json(v: &Value) -> String {
    serde_json::to_string(&Json(v)).expect("a value tree serializes")
}

impl RunReport {
    /// True when nothing failed.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The machine-readable result: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn result_value(&self) -> Value {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.def.name.to_string(),
                    object(vec![
                        ("value", Value::Float(m.value)),
                        ("unit", Value::Str(m.def.unit.to_string())),
                    ]),
                )
            })
            .collect();
        object(vec![
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::UInt(self.attempted)),
            ("failed", Value::UInt(self.failed)),
            ("metrics", Value::Object(metrics)),
        ])
    }

    /// The record `run --workload all` prints per workload and `compare`
    /// reads: the result plus where it came from and the rep statistics.
    pub fn record_value(&self) -> Value {
        let summaries = self
            .metrics
            .iter()
            .filter_map(|m| m.summary.map(|s| (m.def.name, s)))
            .map(|(name, s)| {
                (
                    name.to_string(),
                    object(vec![
                        ("min", Value::Float(s.min)),
                        ("q1", Value::Float(s.q1)),
                        ("median", Value::Float(s.median)),
                        ("q3", Value::Float(s.q3)),
                        ("max", Value::Float(s.max)),
                        ("n", Value::UInt(s.n as u64)),
                    ]),
                )
            })
            .collect();
        let counters =
            self.counters.iter().map(|(k, v)| (k.to_string(), Value::UInt(*v))).collect();
        let reps = self
            .reps
            .iter()
            .map(|(s, e)| Value::Array(vec![Value::Float(*s), Value::Float(*e)]))
            .collect();
        object(vec![
            ("workload", Value::Str(self.options.workload.clone())),
            ("seed", Value::UInt(self.options.seed)),
            ("trace", Value::Bool(self.options.trace)),
            ("smoke", Value::Bool(self.options.smoke)),
            ("result", self.result_value()),
            ("rep_statistics", Value::Object(summaries)),
            ("counters", Value::Object(counters)),
            ("reps_setup_evolve_s", Value::Array(reps)),
        ])
    }

    /// The human table (stderr).
    pub fn table(&self) -> String {
        use std::fmt::Write;
        let o = &self.options;
        let mut t = String::new();
        let _ = writeln!(
            t,
            "== {} (seed {}, {}{}) ==",
            o.workload,
            o.seed,
            if o.trace {
                "traced run: per-layer metrics"
            } else {
                "tracing off: end-to-end metrics"
            },
            if o.smoke { ", smoke size" } else { "" }
        );
        let _ = writeln!(
            t,
            "{:<46} {:>8} {:>14}  {:<27} {:>3}",
            "metric", "unit", "value", "q1 .. q3 [min .. max]", "n"
        );
        for m in &self.metrics {
            if o.trace && m.value == 0.0 {
                continue;
            }
            let spread = m.summary.map_or(String::new(), |s| {
                format!("{:.4} .. {:.4} [{:.4} .. {:.4}] {:>3}", s.q1, s.q3, s.min, s.max, s.n)
            });
            let _ =
                writeln!(t, "{:<46} {:>8} {:>14.6}  {}", m.def.name, m.def.unit, m.value, spread);
        }
        if o.trace {
            let bypassed = self.metrics.iter().filter(|m| m.value == 0.0).count();
            let _ = writeln!(t, "({bypassed} per-layer metrics of layers this workload bypasses read 0 and are not listed)");
        }
        let _ = writeln!(t, "counters:");
        for (k, v) in &self.counters {
            let _ = writeln!(t, "  {k:<28} {v}");
        }
        for (what, ok) in &self.checks {
            let _ = writeln!(t, "check {}: {what}", if *ok { "ok    " } else { "FAILED" });
        }
        for n in &self.notes {
            let _ = writeln!(t, "{n}");
        }
        let _ = writeln!(
            t,
            "ops_attempted {}  ops_failed {}  correct {}",
            self.attempted,
            self.failed,
            self.correct()
        );
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_has_a_spec_and_a_rationale() {
        for w in WORKLOADS {
            assert!(spec(w, false).is_some() && spec(w, true).is_some(), "{w}");
            let why = why(w);
            assert!(
                !why.is_empty() && why.len() <= 200 && !why.contains('\n'),
                "{w}: {}",
                why.len()
            );
        }
        assert_eq!(spec("nope", false), None);
    }

    #[test]
    fn smoke_run_prints_every_end_to_end_metric_and_the_contract_keys() {
        let opts = RunOptions {
            workload: "grape6_2k".to_string(),
            seed: 4,
            seconds: 0.0,
            trace: false,
            smoke: true,
            record: false,
        };
        let report = run(&opts).expect("known workload");
        assert!(report.correct(), "{}", report.table());
        assert!(report.attempted >= 1);
        let v = report.result_value();
        let keys: Vec<&str> =
            v.as_object().expect("object").iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let names: Vec<&str> = v
            .get("metrics")
            .and_then(|m| m.as_object())
            .expect("metrics object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(names, END_TO_END.map(|m| m.name));
        let back = serde_json::value_from_slice(to_json(&v).as_bytes()).expect("round trips");
        assert_eq!(back.get("failed").and_then(|f| f.as_f64()), Some(0.0));
    }

    #[test]
    fn smoke_traced_run_prints_every_per_layer_metric() {
        let opts = RunOptions {
            workload: "hostpath_512k".to_string(),
            seed: 4,
            seconds: 0.0,
            trace: true,
            smoke: true,
            record: false,
        };
        let report = run(&opts).expect("known workload");
        assert!(report.correct(), "{}", report.table());
        let names: Vec<&str> = report.metrics.iter().map(|m| m.def.name).collect();
        assert_eq!(names, PER_LAYER.map(|m| m.name));
        let get = |n: &str| report.metrics.iter().find(|m| m.def.name == n).expect(n).value;
        assert!(get("trace.coverage") > 0.0);
        assert!(get("sim.checkpoint.bytes") > 0.0);
        assert_eq!(get("core.force.compute_s"), 0.0, "the zero-force workload bypasses core.force");
    }
}
