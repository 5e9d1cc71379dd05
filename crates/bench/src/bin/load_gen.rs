//! `load_gen` — drive the `grape6-serve` job service with a seeded
//! closed-loop load and verify its exactness contracts.
//!
//! ```text
//! load_gen [--smoke] [--jobs N] [--tenants T] [--clients-per-tenant C]
//!          [--workers W] [--slice-blocks B] [--pool-specs P] [--seed S]
//!          [--out service_latency.json]
//! ```
//!
//! Default is the standard 256-job / 4-tenant pass; `--smoke` is the
//! 64-job / 2-tenant CI gate. Explicit flags override either base (a value
//! that does not parse is a usage error, exit 2). The process exits nonzero
//! if any contract fails: a lost or wedged job, a duplicate that is not a
//! cache hit, or any result byte differing from a fresh rerun.

use grape6_bench::arg_or;
use grape6_bench::loadgen::{run_load_gen, LoadGenConfig};
use std::process::ExitCode;

fn main() -> ExitCode {
    let base = if std::env::args().any(|a| a == "--smoke") {
        LoadGenConfig::smoke()
    } else {
        LoadGenConfig::standard()
    };
    let cfg = LoadGenConfig {
        jobs: arg_or("--jobs", base.jobs),
        tenants: arg_or("--tenants", base.tenants),
        clients_per_tenant: arg_or("--clients-per-tenant", base.clients_per_tenant),
        workers: arg_or("--workers", base.workers),
        slice_blocks: arg_or("--slice-blocks", base.slice_blocks),
        pool_specs: arg_or("--pool-specs", base.pool_specs),
        seed: arg_or("--seed", base.seed),
        ..base
    };
    let out_path: String = arg_or("--out", String::new());

    println!(
        "load_gen: {} jobs, {} tenants x {} clients, {} workers, {} distinct specs, seed {}",
        cfg.jobs, cfg.tenants, cfg.clients_per_tenant, cfg.workers, cfg.pool_specs, cfg.seed
    );
    let result = match run_load_gen(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("load_gen: FAIL: {e}");
            return ExitCode::FAILURE;
        }
    };

    println!(
        "  completed {}/{} (0 lost), {} distinct specs, {} duplicates all cache hits \
         ({} cache + {} coalesced), {} dup groups byte-verified, {} fresh reruns byte-verified",
        result.completed,
        result.jobs,
        result.unique_specs,
        result.duplicate_hits,
        result.cache_hits,
        result.coalesced,
        result.dup_groups_verified,
        result.fresh_verified,
    );
    println!(
        "  latency ms: p50 {:.2}  p99 {:.2}  mean {:.2}  max {:.2}",
        result.p50_ms, result.p99_ms, result.mean_ms, result.max_ms
    );
    println!(
        "  throughput {:.1} jobs/s over {:.2} s wall; {} block steps, {} preemptions, \
         cache hit rate {:.3}",
        result.jobs_per_second,
        result.wall_seconds,
        result.block_steps,
        result.preemptions,
        result.cache_hit_rate
    );

    if !out_path.is_empty() {
        let json = match serde_json::to_string_pretty(&result) {
            Ok(j) => j,
            Err(e) => {
                eprintln!("load_gen: serializing report: {e}");
                return ExitCode::FAILURE;
            }
        };
        if let Err(e) = std::fs::write(&out_path, json + "\n") {
            eprintln!("load_gen: writing {out_path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("  wrote {out_path}");
    }
    println!("load_gen: all contracts verified");
    ExitCode::SUCCESS
}
