//! Seeded closed-loop load generator for the `grape6-serve` job service.
//!
//! Drives hundreds of small jobs through an in-process TCP server with one
//! connection per client thread, measures submit-to-complete latency
//! client-side, and verifies the service's exactness contracts after the
//! run:
//!
//! * zero lost or wedged jobs — every submission settles `Completed`;
//! * every duplicate spec is a cache hit (exactly one non-cached primary
//!   per distinct spec) with **byte-identical** result snapshots;
//! * a sample of results matches fresh single-simulation reruns (via
//!   [`grape6_sim::ensemble::run_ensemble`]) byte for byte.
//!
//! The workload itself is fully seeded: the spec pool, the duplicate
//! pattern, and the job→client assignment derive from `seed`, so the work
//! counters in [`ServiceLatencyResult`] are deterministic; only the
//! latency/throughput fields (and the preemption count and
//! cache-hit/coalesce split, which depend on thread interleaving) track
//! the host.

use grape6_serve::job::{JobSpec, RunnerSim};
use grape6_serve::protocol::{hex_decode, JobState, Request, Response};
use grape6_serve::service::{ServeConfig, TenantQuota};
use grape6_serve::TcpServer;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::time::Instant;

/// Load-generator configuration. Everything that shapes the *work* is
/// seeded and deterministic; only measured times vary run-to-run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadGenConfig {
    /// Total jobs submitted across all tenants.
    pub jobs: u64,
    /// Tenants (named `tenant-0` …).
    pub tenants: u64,
    /// Closed-loop client threads per tenant (each submits its share of
    /// jobs sequentially: submit, wait, record, next).
    pub clients_per_tenant: u64,
    /// Server worker threads.
    pub workers: u64,
    /// Server preemption quantum in block steps.
    pub slice_blocks: u64,
    /// Master seed for the spec pool and job sequence.
    pub seed: u64,
    /// Distinct specs in the pool; jobs draw from the pool with wraparound,
    /// so `jobs > pool_specs` guarantees duplicates.
    pub pool_specs: u64,
    /// Smallest planetesimal count in the pool.
    pub n_min: u64,
    /// Largest planetesimal count in the pool.
    pub n_max: u64,
    /// Integration span of every job.
    pub t_end: f64,
    /// Distinct specs re-run locally (fresh, uninterrupted) and compared
    /// byte-for-byte against the service's results.
    pub verify_fresh: u64,
}

impl LoadGenConfig {
    /// The standard configuration, `load_gen`'s default: 256 jobs across
    /// 4 tenants (the acceptance-scale run).
    pub fn standard() -> Self {
        Self {
            jobs: 256,
            tenants: 4,
            clients_per_tenant: 2,
            workers: 2,
            slice_blocks: 8,
            seed: 20020616,
            pool_specs: 96,
            n_min: 24,
            n_max: 48,
            // Heavy enough that a primary job costs ~10 ms of simulation
            // across several slices: latencies are compute-dominated and the
            // fair-share preemption path runs under real load, not just in
            // the unit tests.
            t_end: 8.0,
            verify_fresh: 4,
        }
    }

    /// The CI smoke configuration: 64 jobs, 2 tenants.
    pub fn smoke() -> Self {
        Self { jobs: 64, tenants: 2, pool_specs: 24, verify_fresh: 2, ..Self::standard() }
    }

    /// Total client threads.
    pub fn clients(&self) -> u64 {
        self.tenants * self.clients_per_tenant
    }
}

/// What one load-generation pass measured (`load_gen --out` writes it as
/// `service_latency.json`).
///
/// Work counters (`jobs` through `block_steps`) are deterministic for a
/// given config. The latency and throughput fields track the host; the
/// preemption count and the cache-hit/coalesce split depend on thread
/// interleaving and are informational (their *sum*, `duplicate_hits`, is
/// deterministic).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ServiceLatencyResult {
    /// Jobs submitted.
    pub jobs: u64,
    /// Tenants.
    pub tenants: u64,
    /// Client threads.
    pub clients: u64,
    /// Server worker threads.
    pub workers: u64,
    /// Server preemption quantum (block steps).
    pub slice_blocks: u64,
    /// Distinct specs actually submitted.
    pub unique_specs: u64,
    /// Jobs whose spec was also submitted by an earlier job.
    pub duplicate_jobs: u64,
    /// Duplicates that settled as cache hits (must equal `duplicate_jobs`).
    pub duplicate_hits: u64,
    /// Jobs that settled `Completed` (must equal `jobs`).
    pub completed: u64,
    /// Jobs that settled `Failed` or `Cancelled` (must be 0).
    pub failed: u64,
    /// Submit-time exact-cache hits (interleaving-dependent split).
    pub cache_hits: u64,
    /// In-flight coalesced duplicates (interleaving-dependent split).
    pub coalesced: u64,
    /// `duplicate_hits / jobs`.
    pub cache_hit_rate: f64,
    /// Preemptions across all jobs (interleaving-dependent).
    pub preemptions: u64,
    /// Block steps executed across all tenants (each distinct spec runs
    /// exactly once to completion, so this is deterministic).
    pub block_steps: u64,
    /// Duplicate groups whose snapshots were verified byte-identical.
    pub dup_groups_verified: u64,
    /// Specs verified byte-identical against fresh local reruns.
    pub fresh_verified: u64,
    /// Median submit-to-complete latency, milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile submit-to-complete latency, milliseconds.
    pub p99_ms: f64,
    /// Mean submit-to-complete latency, milliseconds.
    pub mean_ms: f64,
    /// Worst submit-to-complete latency, milliseconds.
    pub max_ms: f64,
    /// Wall seconds from first submit to last settle.
    pub wall_seconds: f64,
    /// `jobs / wall_seconds`.
    pub jobs_per_second: f64,
}

/// The seeded spec pool: pool entry `k` is a small paper disk whose size
/// and realization seed derive from the master seed. Entries are distinct
/// by canonical cache key — a colliding draw is redrawn — so pool index
/// and cache key identify the same duplicate groups and the
/// one-primary-per-group contract checks cannot trip on an unlucky
/// `(n, seed)` repeat.
fn spec_pool(cfg: &LoadGenConfig) -> Vec<JobSpec> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let span = cfg.n_max - cfg.n_min + 1;
    let mut keys = std::collections::BTreeSet::new();
    let mut pool = Vec::with_capacity(cfg.pool_specs as usize);
    let mut attempts = 0u64;
    while (pool.len() as u64) < cfg.pool_specs {
        attempts += 1;
        assert!(
            attempts < 1000 * cfg.pool_specs,
            "spec pool of {} cannot be filled with distinct specs from n in {}..={}",
            cfg.pool_specs,
            cfg.n_min,
            cfg.n_max,
        );
        let spec = JobSpec {
            n: cfg.n_min + rng.gen::<u64>() % span,
            seed: rng.gen::<u64>() % 1_000_000,
            t_end: cfg.t_end,
            dt_max: 0.0,
            eta: 0.0,
            engine: String::new(),
        };
        if keys.insert(spec.canonical_key().expect("pool specs are valid")) {
            pool.push(spec);
        }
    }
    pool
}

/// The seeded job sequence: job `j` draws pool index `j % pool` for the
/// first full pass (covering the pool) and a seeded random index after —
/// so every pool spec is submitted at least once and every job beyond the
/// pool is a guaranteed duplicate.
fn job_sequence(cfg: &LoadGenConfig) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x6c6f6164);
    let pool = cfg.pool_specs.min(cfg.jobs).max(1);
    (0..cfg.jobs)
        .map(|j| if j < pool { j as usize } else { (rng.gen::<u64>() % pool) as usize })
        .collect()
}

struct Conn {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Conn {
    fn open(addr: std::net::SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        Ok(Self { reader: BufReader::new(stream.try_clone()?), writer: BufWriter::new(stream) })
    }

    fn rpc(&mut self, req: &Request) -> Result<Response, String> {
        let line = serde_json::to_string(req).map_err(|e| e.to_string())?;
        writeln!(self.writer, "{line}").map_err(|e| e.to_string())?;
        self.writer.flush().map_err(|e| e.to_string())?;
        let mut resp = String::new();
        self.reader.read_line(&mut resp).map_err(|e| e.to_string())?;
        serde_json::from_str(&resp).map_err(|e| format!("bad response {resp:?}: {e}"))
    }
}

/// One client's record of one job.
struct JobRecord {
    pool_idx: usize,
    id: u64,
    state: JobState,
    submit_cached: bool,
    latency_ms: f64,
}

fn client_loop(
    addr: std::net::SocketAddr,
    tenant: String,
    assigned: Vec<(usize, JobSpec)>,
) -> Result<Vec<JobRecord>, String> {
    let mut conn = Conn::open(addr).map_err(|e| e.to_string())?;
    let mut records = Vec::with_capacity(assigned.len());
    for (pool_idx, spec) in assigned {
        let t0 = Instant::now();
        let (id, submit_cached) =
            match conn.rpc(&Request::Submit { tenant: tenant.clone(), job: spec })? {
                Response::Submitted { id, cached, .. } => (id, cached),
                other => return Err(format!("unexpected submit response {other:?}")),
            };
        let state = match conn.rpc(&Request::Wait { id })? {
            Response::Status { status } => status.state,
            other => return Err(format!("unexpected wait response {other:?}")),
        };
        let latency_ms = t0.elapsed().as_secs_f64() * 1e3;
        records.push(JobRecord { pool_idx, id, state, submit_cached, latency_ms });
    }
    Ok(records)
}

fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let rank = (p * (sorted_ms.len() - 1) as f64).round() as usize;
    sorted_ms[rank.min(sorted_ms.len() - 1)]
}

/// Run the full load-generation pass against an in-process TCP server and
/// verify every exactness contract. Returns the measurements; `Err` is a
/// contract violation (lost job, non-identical duplicate, …).
pub fn run_load_gen(cfg: &LoadGenConfig) -> Result<ServiceLatencyResult, String> {
    assert!(cfg.jobs >= 1 && cfg.tenants >= 1 && cfg.clients_per_tenant >= 1);
    let pool = spec_pool(cfg);
    let sequence = job_sequence(cfg);

    let server = TcpServer::start(
        ServeConfig {
            workers: cfg.workers,
            slice_blocks: cfg.slice_blocks,
            max_bodies: 4096,
            // Unlimited budget and a generous per-tenant concurrency cap:
            // the load run must be rejection-free so its counters are
            // deterministic (quota-failure paths have their own tests).
            quota: TenantQuota { max_running: cfg.clients_per_tenant.max(2), block_budget: 0 },
            preempt_always: false,
        },
        "127.0.0.1:0",
    )
    .map_err(|e| format!("starting server: {e}"))?;
    let addr = server.addr();

    // Deal jobs round-robin to clients; client c of tenant t gets every
    // (t * clients_per_tenant + c)-th job of the seeded sequence.
    let clients = cfg.clients() as usize;
    let mut assignments: Vec<Vec<(usize, JobSpec)>> = vec![Vec::new(); clients];
    for (j, &pool_idx) in sequence.iter().enumerate() {
        assignments[j % clients].push((pool_idx, pool[pool_idx].clone()));
    }

    let wall_start = Instant::now();
    let mut joins = Vec::with_capacity(clients);
    for (c, assigned) in assignments.into_iter().enumerate() {
        let tenant = format!("tenant-{}", c as u64 / cfg.clients_per_tenant);
        joins.push(std::thread::spawn(move || client_loop(addr, tenant, assigned)));
    }
    let mut records: Vec<JobRecord> = Vec::with_capacity(cfg.jobs as usize);
    for j in joins {
        records.extend(j.join().map_err(|_| "client thread panicked".to_string())??);
    }
    let wall_seconds = wall_start.elapsed().as_secs_f64();

    // ---- contract checks ---------------------------------------------------
    if records.len() as u64 != cfg.jobs {
        return Err(format!("lost jobs: {} of {} recorded", records.len(), cfg.jobs));
    }
    let completed = records.iter().filter(|r| r.state == JobState::Completed).count() as u64;
    let failed = cfg.jobs - completed;
    if failed > 0 {
        return Err(format!("{failed} job(s) did not complete"));
    }

    // Group jobs by pool spec: exactly one primary (non-cached submit) per
    // group, every duplicate a cache hit, all snapshots byte-identical.
    let mut verify = Conn::open(addr).map_err(|e| e.to_string())?;
    let used: std::collections::BTreeSet<usize> = records.iter().map(|r| r.pool_idx).collect();
    let unique_specs = used.len() as u64;
    let duplicate_jobs = cfg.jobs - unique_specs;
    let mut duplicate_hits = 0u64;
    let mut dup_groups_verified = 0u64;
    let mut group_snapshot: std::collections::BTreeMap<usize, Vec<u8>> =
        std::collections::BTreeMap::new();
    for r in &records {
        let snapshot = match verify.rpc(&Request::Result { id: r.id })? {
            Response::ResultData { snapshot_hex, .. } => hex_decode(&snapshot_hex)?,
            other => return Err(format!("unexpected result response {other:?}")),
        };
        match group_snapshot.get(&r.pool_idx) {
            None => {
                group_snapshot.insert(r.pool_idx, snapshot);
            }
            Some(first) => {
                if *first != snapshot {
                    return Err(format!(
                        "duplicate of pool spec {} returned different bytes",
                        r.pool_idx
                    ));
                }
                dup_groups_verified += 1;
            }
        }
        if r.submit_cached {
            duplicate_hits += 1;
        }
    }
    if duplicate_hits != duplicate_jobs {
        return Err(format!(
            "every duplicate must be a cache hit: {duplicate_hits} hits, \
             {duplicate_jobs} duplicates"
        ));
    }
    let primaries = records.iter().filter(|r| !r.submit_cached).count() as u64;
    if primaries != unique_specs {
        return Err(format!("{primaries} primaries for {unique_specs} distinct specs"));
    }

    // Fresh-rerun verification: recompute a sample of pool specs locally,
    // uninterrupted, through the ensemble machinery, and compare bytes.
    let sample: Vec<u64> = used.iter().take(cfg.verify_fresh as usize).map(|&i| i as u64).collect();
    let members = grape6_sim::ensemble::run_ensemble(&sample, 2, |pool_idx| {
        let spec = &pool[pool_idx as usize];
        let mut sim = RunnerSim::fresh(spec).expect("pool specs are valid");
        sim.run_slice(spec.t_end, u64::MAX);
        sim.result().snapshot
    });
    for m in &members {
        let served = &group_snapshot[&(m.seed as usize)];
        if served != &m.value[..] {
            return Err(format!("service result for pool spec {} != fresh rerun", m.seed));
        }
    }
    let fresh_verified = members.len() as u64;

    // Telemetry: the deterministic totals plus the informational split.
    let rows = match verify.rpc(&Request::Tenants)? {
        Response::Tenants { tenants } => tenants,
        other => return Err(format!("unexpected tenants response {other:?}")),
    };
    if rows.len() as u64 != cfg.tenants {
        return Err(format!("{} tenant rows for {} tenants", rows.len(), cfg.tenants));
    }
    let cache_hits: u64 = rows.iter().map(|t| t.cache_hits).sum();
    let coalesced: u64 = rows.iter().map(|t| t.coalesced).sum();
    let preemptions: u64 = rows.iter().map(|t| t.preemptions).sum();
    let block_steps: u64 = rows.iter().map(|t| t.block_steps).sum();
    if cache_hits + coalesced != duplicate_hits {
        return Err(format!(
            "telemetry split {cache_hits}+{coalesced} != {duplicate_hits} duplicate hits"
        ));
    }

    let _ = verify.rpc(&Request::Shutdown);
    server.stop();

    let mut latencies: Vec<f64> = records.iter().map(|r| r.latency_ms).collect();
    latencies.sort_by(f64::total_cmp);
    let mean_ms = latencies.iter().sum::<f64>() / latencies.len() as f64;
    Ok(ServiceLatencyResult {
        jobs: cfg.jobs,
        tenants: cfg.tenants,
        clients: cfg.clients(),
        workers: cfg.workers,
        slice_blocks: cfg.slice_blocks,
        unique_specs,
        duplicate_jobs,
        duplicate_hits,
        completed,
        failed,
        cache_hits,
        coalesced,
        cache_hit_rate: duplicate_hits as f64 / cfg.jobs as f64,
        preemptions,
        block_steps,
        dup_groups_verified,
        fresh_verified,
        p50_ms: percentile(&latencies, 0.50),
        p99_ms: percentile(&latencies, 0.99),
        mean_ms,
        max_ms: latencies.last().copied().unwrap_or(0.0),
        wall_seconds,
        jobs_per_second: cfg.jobs as f64 / wall_seconds,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> LoadGenConfig {
        LoadGenConfig {
            jobs: 12,
            tenants: 2,
            clients_per_tenant: 1,
            pool_specs: 5,
            verify_fresh: 2,
            n_min: 6,
            n_max: 10,
            t_end: 1.0,
            ..LoadGenConfig::smoke()
        }
    }

    #[test]
    fn spec_pool_and_sequence_are_seeded_and_duplicate_bearing() {
        let cfg = tiny();
        assert_eq!(spec_pool(&cfg), spec_pool(&cfg));
        // Pool entries are distinct by cache key (collisions are redrawn),
        // so per-pool-index duplicate accounting equals per-key accounting
        // — for the test config and the shipped standard/smoke configs.
        for c in [&cfg, &LoadGenConfig::standard(), &LoadGenConfig::smoke()] {
            let keys: std::collections::BTreeSet<String> =
                spec_pool(c).iter().map(|s| s.canonical_key().unwrap()).collect();
            assert_eq!(keys.len() as u64, c.pool_specs);
        }
        assert_eq!(job_sequence(&cfg), job_sequence(&cfg));
        let seq = job_sequence(&cfg);
        assert_eq!(seq.len() as u64, cfg.jobs);
        // The first pool-sized prefix covers every spec; the rest duplicate.
        let first: std::collections::BTreeSet<usize> =
            seq[..cfg.pool_specs as usize].iter().copied().collect();
        assert_eq!(first.len() as u64, cfg.pool_specs);
        assert!(seq.iter().all(|&i| (i as u64) < cfg.pool_specs));
        let other = LoadGenConfig { seed: 1, ..cfg };
        assert_ne!(spec_pool(&cfg), spec_pool(&other));
    }

    #[test]
    fn tiny_load_run_passes_every_contract() {
        let out = run_load_gen(&tiny()).expect("contracts hold");
        assert_eq!(out.jobs, 12);
        assert_eq!(out.completed, 12);
        assert_eq!(out.failed, 0);
        assert_eq!(out.unique_specs, 5);
        assert_eq!(out.duplicate_jobs, 7);
        assert_eq!(out.duplicate_hits, 7);
        assert_eq!(out.cache_hits + out.coalesced, 7);
        assert!((out.cache_hit_rate - 7.0 / 12.0).abs() < 1e-12);
        assert_eq!(out.fresh_verified, 2);
        assert!(out.dup_groups_verified >= 1);
        assert!(out.block_steps > 0);
        assert!(out.p50_ms > 0.0 && out.p99_ms >= out.p50_ms && out.max_ms >= out.p99_ms);
        assert!(out.jobs_per_second > 0.0);
    }

    #[test]
    fn work_counters_are_rerun_identical() {
        let a = run_load_gen(&tiny()).unwrap();
        let b = run_load_gen(&tiny()).unwrap();
        // Deterministic work; only clocks (and the hit/coalesce split) vary.
        assert_eq!(a.unique_specs, b.unique_specs);
        assert_eq!(a.duplicate_hits, b.duplicate_hits);
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.block_steps, b.block_steps);
    }

    #[test]
    fn percentile_picks_nearest_rank() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 1.0), 4.0);
        assert_eq!(percentile(&xs, 0.5), 3.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }
}
