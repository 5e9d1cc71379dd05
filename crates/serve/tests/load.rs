//! The job service's exactness contracts under concurrent TCP load.
//!
//! 64 seeded jobs from 2 tenants × 2 closed-loop client threads, each on its
//! own TCP connection to one in-process [`TcpServer`], drawn from a pool of
//! 24 distinct small paper disks so that 40 of them are duplicates. After the
//! load settles the test checks:
//!
//! * every job settles `Completed` — none lost or wedged;
//! * each distinct spec has exactly one non-cached primary, and every
//!   duplicate is a cache hit or coalesced onto its primary;
//! * every duplicate's snapshot bytes equal its primary's;
//! * a sample of specs equals a fresh, uninterrupted [`RunnerSim`] rerun
//!   byte for byte;
//! * the `Tenants` rows' `cache_hits + coalesced` sum to the duplicate count;
//! * the work counters are identical across two runs.
//!
//! The workload is fully seeded, and the test reads no clock: how fast the
//! service is is `benchmark/`'s `serve_mix` workload, not this file.

use grape6_serve::job::{JobSpec, RunnerSim};
use grape6_serve::protocol::{hex_decode, JobState, Request, Response};
use grape6_serve::service::{ServeConfig, TenantQuota};
use grape6_serve::TcpServer;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};

/// Jobs submitted across all tenants.
const JOBS: usize = 64;
/// Tenants, named `tenant-0` ….
const TENANTS: usize = 2;
/// Closed-loop client threads per tenant, one TCP connection each.
const CLIENTS_PER_TENANT: usize = 2;
/// Distinct specs in the pool; every job past the first pass is a duplicate.
const POOL_SPECS: usize = 24;
/// Planetesimal counts of the pool, inclusive.
const N_MIN: u64 = 24;
const N_MAX: u64 = 48;
/// Integration span of every job: several 8-block slices, so jobs are
/// preempted under contention.
const T_END: f64 = 8.0;
/// Master seed of the pool and the job sequence.
const SEED: u64 = 20020616;
/// Distinct specs rerun locally and compared byte for byte.
const VERIFY_FRESH: usize = 2;

/// The seeded spec pool. Entries are distinct by canonical cache key (a
/// colliding draw is redrawn), so pool index and cache key name the same
/// duplicate groups.
fn spec_pool(seed: u64) -> Vec<JobSpec> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut keys = BTreeSet::new();
    let mut pool = Vec::with_capacity(POOL_SPECS);
    while pool.len() < POOL_SPECS {
        let spec = JobSpec {
            n: N_MIN + rng.gen::<u64>() % (N_MAX - N_MIN + 1),
            seed: rng.gen::<u64>() % 1_000_000,
            t_end: T_END,
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

/// The seeded job sequence of pool indices: the first pass covers the pool
/// in order, every later job draws a seeded random index (a duplicate).
fn job_sequence(seed: u64) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6c6f6164);
    (0..JOBS)
        .map(|j| if j < POOL_SPECS { j } else { (rng.gen::<u64>() % POOL_SPECS as u64) as usize })
        .collect()
}

struct Conn {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Conn {
    fn open(addr: SocketAddr) -> Self {
        let stream = TcpStream::connect(addr).expect("connect to the test server");
        let reader = BufReader::new(stream.try_clone().expect("clone the stream"));
        Self { reader, writer: BufWriter::new(stream) }
    }

    fn rpc(&mut self, req: &Request) -> Response {
        let line = serde_json::to_string(req).expect("requests serialize");
        writeln!(self.writer, "{line}").expect("send request");
        self.writer.flush().expect("flush request");
        let mut resp = String::new();
        self.reader.read_line(&mut resp).expect("read response");
        serde_json::from_str(&resp).unwrap_or_else(|e| panic!("bad response {resp:?}: {e}"))
    }
}

/// One client's record of one job.
struct JobRecord {
    pool_idx: usize,
    id: u64,
    state: JobState,
    cached: bool,
}

/// Submit each assigned job and wait for it to settle before the next.
fn client_loop(addr: SocketAddr, tenant: String, assigned: Vec<usize>) -> Vec<JobRecord> {
    let pool = spec_pool(SEED);
    let mut conn = Conn::open(addr);
    assigned
        .into_iter()
        .map(|pool_idx| {
            let job = pool[pool_idx].clone();
            let (id, cached) = match conn.rpc(&Request::Submit { tenant: tenant.clone(), job }) {
                Response::Submitted { id, cached, .. } => (id, cached),
                other => panic!("unexpected submit response {other:?}"),
            };
            let state = match conn.rpc(&Request::Wait { id }) {
                Response::Status { status } => status.state,
                other => panic!("unexpected wait response {other:?}"),
            };
            JobRecord { pool_idx, id, state, cached }
        })
        .collect()
}

/// The deterministic work of one load run. The split of duplicates into
/// cache hits and coalesced jobs, and the preemption count, depend on
/// thread interleaving and are left out.
#[derive(Debug, PartialEq)]
struct Work {
    completed: usize,
    unique_specs: usize,
    duplicates: usize,
    block_steps: u64,
    /// Each distinct spec's result snapshot, by pool index.
    snapshots: BTreeMap<usize, Vec<u8>>,
}

/// Run the load against a fresh server and assert every contract.
fn run_load() -> Work {
    let pool = spec_pool(SEED);
    let server = TcpServer::start(
        ServeConfig {
            workers: 2,
            slice_blocks: 8,
            max_bodies: 4096,
            // No block budget, and a concurrency cap equal to a tenant's
            // client count: the run is rejection-free, so its counters are
            // deterministic.
            quota: TenantQuota { max_running: CLIENTS_PER_TENANT as u64, block_budget: 0 },
            preempt_always: false,
        },
        "127.0.0.1:0",
    )
    .expect("start the test server");
    let addr = server.addr();

    // Client c (of tenant c / CLIENTS_PER_TENANT) takes every c-th job.
    let clients = TENANTS * CLIENTS_PER_TENANT;
    let mut assignments = vec![Vec::new(); clients];
    for (j, pool_idx) in job_sequence(SEED).into_iter().enumerate() {
        assignments[j % clients].push(pool_idx);
    }
    let joins: Vec<_> = assignments
        .into_iter()
        .enumerate()
        .map(|(c, assigned)| {
            let tenant = format!("tenant-{}", c / CLIENTS_PER_TENANT);
            std::thread::spawn(move || client_loop(addr, tenant, assigned))
        })
        .collect();
    let records: Vec<JobRecord> =
        joins.into_iter().flat_map(|j| j.join().expect("client thread")).collect();

    assert_eq!(records.len(), JOBS, "lost jobs");
    let completed = records.iter().filter(|r| r.state == JobState::Completed).count();
    assert_eq!(completed, JOBS, "every job must settle Completed");

    // Per distinct spec: exactly one primary, and every member's bytes equal.
    let mut verify = Conn::open(addr);
    let mut primaries: BTreeMap<usize, usize> = BTreeMap::new();
    let mut snapshots: BTreeMap<usize, Vec<u8>> = BTreeMap::new();
    for r in &records {
        let snapshot = match verify.rpc(&Request::Result { id: r.id }) {
            Response::ResultData { snapshot_hex, .. } => hex_decode(&snapshot_hex).unwrap(),
            other => panic!("unexpected result response {other:?}"),
        };
        if !r.cached {
            *primaries.entry(r.pool_idx).or_default() += 1;
        }
        if let Some(first) = snapshots.get(&r.pool_idx) {
            assert!(*first == snapshot, "a duplicate of pool spec {} differs", r.pool_idx);
        } else {
            snapshots.insert(r.pool_idx, snapshot);
        }
    }
    let unique_specs = snapshots.len();
    assert_eq!(unique_specs, POOL_SPECS);
    for pool_idx in snapshots.keys() {
        assert_eq!(primaries.get(pool_idx), Some(&1), "primaries of pool spec {pool_idx}");
    }
    let duplicates = JOBS - unique_specs;
    assert_eq!(records.iter().filter(|r| r.cached).count(), duplicates);

    // A sample of specs against fresh, uninterrupted reruns.
    for (&pool_idx, served) in snapshots.iter().take(VERIFY_FRESH) {
        let spec = &pool[pool_idx];
        let mut sim = RunnerSim::fresh(spec).expect("pool specs are valid");
        sim.run_slice(spec.t_end, u64::MAX);
        assert!(
            sim.result().snapshot[..] == served[..],
            "service result for pool spec {pool_idx} != fresh rerun"
        );
    }

    let rows = match verify.rpc(&Request::Tenants) {
        Response::Tenants { tenants } => tenants,
        other => panic!("unexpected tenants response {other:?}"),
    };
    assert_eq!(rows.len(), TENANTS);
    let cache_hits: u64 = rows.iter().map(|t| t.cache_hits).sum();
    let coalesced: u64 = rows.iter().map(|t| t.coalesced).sum();
    assert_eq!(cache_hits + coalesced, duplicates as u64, "telemetry duplicate split");
    let block_steps = rows.iter().map(|t| t.block_steps).sum();

    verify.rpc(&Request::Shutdown);
    server.stop();
    Work { completed, unique_specs, duplicates, block_steps, snapshots }
}

#[test]
fn spec_pool_and_sequence_are_seeded_and_duplicate_bearing() {
    let pool = spec_pool(SEED);
    assert_eq!(pool, spec_pool(SEED));
    assert_ne!(pool, spec_pool(1));
    assert!(pool.iter().all(|s| (N_MIN..=N_MAX).contains(&s.n) && s.t_end == T_END));
    let keys: BTreeSet<String> = pool.iter().map(|s| s.canonical_key().unwrap()).collect();
    assert_eq!(keys.len(), POOL_SPECS);

    let seq = job_sequence(SEED);
    assert_eq!(seq, job_sequence(SEED));
    assert_eq!(seq.len(), JOBS);
    // The first pool-sized prefix covers every spec; the rest duplicate.
    assert!(seq[..POOL_SPECS].iter().copied().eq(0..POOL_SPECS));
    assert!(seq.iter().all(|&i| i < POOL_SPECS));
}

#[test]
fn tiny_load_run_passes_every_contract() {
    let work = run_load();
    assert_eq!(work.completed, JOBS);
    assert_eq!(work.unique_specs, POOL_SPECS);
    assert_eq!(work.duplicates, JOBS - POOL_SPECS);
    assert!(work.block_steps > 0);
}

#[test]
fn work_counters_are_rerun_identical() {
    assert_eq!(run_load(), run_load());
}
