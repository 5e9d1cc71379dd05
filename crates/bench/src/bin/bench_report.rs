//! `bench_report` — run the fixed seeded benchmark workloads and emit a
//! schema-stable `BENCH_report.json` (see `grape6_bench::report`).
//!
//! Usage: `bench_report [--out BENCH_report.json]`
//!
//! Counters in the report are exactly reproducible run-to-run; wall-clock
//! fields track the host this runs on.

use grape6_bench::report::{build_report, detect_git_sha};
use grape6_bench::{arg_or, fmt, print_header, print_row};

fn main() -> std::process::ExitCode {
    let out: String = arg_or("--out", "BENCH_report.json".to_string());
    let report = build_report(detect_git_sha());

    print_header(&["workload", "bodies", "blocks", "inter/s real", "Tflops model"], 14);
    for w in &report.workloads {
        print_row(
            &[
                w.id.clone(),
                w.n_bodies.to_string(),
                w.telemetry.block_steps.to_string(),
                fmt(w.telemetry.interactions_per_second_real),
                fmt(w.modeled_tflops),
            ],
            14,
        );
    }
    println!("\nthread scaling (force-phase wall seconds):");
    print_header(&["workload", "threads", "force s", "total s", "speedup"], 14);
    for ts in &report.thread_scaling {
        for e in &ts.entries {
            print_row(
                &[
                    ts.id.clone(),
                    e.threads.to_string(),
                    fmt(e.force_seconds),
                    fmt(e.total_host_seconds),
                    format!("{:.2}x", e.speedup_force_vs_1),
                ],
                14,
            );
        }
    }

    println!("\nkernel microbench (scalar oracle vs product lane kernel, full-block j-sweep):");
    print_header(&["kernel", "lanes", "bodies", "inter/s real", "vs scalar"], 14);
    for k in &report.kernel_microbench {
        print_row(
            &[
                k.kernel.clone(),
                k.lane_width.clone(),
                k.n_bodies.to_string(),
                fmt(k.interactions_per_second_real),
                format!("{:.2}x", k.speedup_vs_scalar),
            ],
            14,
        );
    }

    println!("\nhost phase (zero-force disks, ns per block step):");
    print_header(&["sched", "bodies", "schedule", "predict", "jupdate", "wall s"], 12);
    for h in &report.host_phase {
        print_row(
            &[
                h.scheduler.clone(),
                h.n_bodies.to_string(),
                fmt(h.schedule_ns_per_block),
                fmt(h.predict_ns_per_block),
                fmt(h.jupdate_ns_per_block),
                fmt(h.wall_seconds),
            ],
            12,
        );
    }

    // Host-scaling check (ROADMAP item 2): the tick scheduler at the
    // largest N against the heap baseline at the old N = 514 cap —
    // per-block Schedule+Predict host time must grow slower than N does.
    let tick_big =
        report.host_phase.iter().filter(|h| h.scheduler == "tick").max_by_key(|h| h.n_bodies);
    let heap_small =
        report.host_phase.iter().filter(|h| h.scheduler == "heap").min_by_key(|h| h.n_bodies);
    if let (Some(t), Some(h)) = (tick_big, heap_small) {
        if h.n_bodies < t.n_bodies {
            let grow = (t.schedule_ns_per_block + t.predict_ns_per_block)
                / (h.schedule_ns_per_block + h.predict_ns_per_block);
            let nfac = t.n_bodies as f64 / h.n_bodies as f64;
            println!(
                "host scaling: schedule+predict {:.0}x per block step while N grew {:.0}x vs \
                 the heap N={} baseline ({})",
                grow,
                nfac,
                h.n_bodies,
                if grow < nfac { "sublinear" } else { "SUPERLINEAR" }
            );
        }
    }

    let c = &report.paper_check;
    println!(
        "\npaper check: peak {:.1} Tflops, sustained {:.1}–{:.1} Tflops \
         (efficiency {:.3}–{:.3}, paper 0.465)",
        c.peak_tflops,
        c.sustained_tflops_block_512,
        c.sustained_tflops_block_16384,
        c.efficiency_block_512,
        c.efficiency_block_16384
    );

    let json = serde_json::to_string_pretty(&report).expect("serialize report");
    if let Err(e) = std::fs::write(&out, json) {
        eprintln!("error: writing {out}: {e}");
        return std::process::ExitCode::FAILURE;
    }
    println!("report -> {out} (git {})", report.git_sha);
    std::process::ExitCode::SUCCESS
}
