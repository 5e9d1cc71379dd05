//! The `serve_mix` workload: one closed-loop client driving JSON lines
//! through `serve::server::dispatch_line` (no sockets) at a started
//! `ServiceHandle`, in waves of eight outstanding jobs.
//!
//! Set-up starts the service and runs the cache-fill campaign; the measured
//! campaign then mixes new primaries, duplicates of the fill set (cache
//! hits) and in-flight duplicates (coalesced).

use crate::sims::fnv1a;
use crate::stats;
use crate::trace::{totals_by_kind, Recorder, Span, SpanKind};
use grape6_serve::job::{JobSpec, RunnerSim};
use grape6_serve::protocol::{hex_encode, JobState, Request, Response};
use grape6_serve::server::dispatch_line;
use grape6_serve::service::{JobService, ServeConfig, ServiceHandle};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::time::Instant;

/// Jobs a wave keeps outstanding.
pub const WAVE: usize = 8;

/// Size of the `serve_mix` workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeParams {
    /// Waves of the cache-fill campaign (set-up).
    pub fill_waves: usize,
    /// Waves of the measured campaign.
    pub waves: usize,
    /// Divides every job's planetesimal count (1 = full size).
    pub shrink: u64,
    /// Integration span of every job.
    pub t_end: f64,
}

/// How the service settles a planned job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// A spec not seen before: runs to completion on a worker.
    Primary,
    /// Same spec as fill job `.0`: an exact-cache hit at submit time.
    CacheDup(usize),
    /// Same spec as campaign job `.0`, submitted while it is in flight.
    InflightDup(usize),
}

/// One planned submission.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannedJob {
    /// Tenant the job is accounted to.
    pub tenant: &'static str,
    /// The job.
    pub spec: JobSpec,
    /// How it is expected to settle.
    pub role: Role,
}

/// The seeded input of one run: the fill set and the measured campaign,
/// both in submission order, `WAVE` jobs per wave.
#[derive(Debug, Clone, PartialEq)]
pub struct Campaign {
    /// Cache-fill jobs (all primaries).
    pub fill: Vec<PlannedJob>,
    /// Measured jobs.
    pub jobs: Vec<PlannedJob>,
}

const TENANTS: [&str; 2] = ["alpha", "beta"];

/// `(engine, n)` of the five primaries of every measured wave. Every wave
/// carries the same shapes so the work is the same for every seed; the seed
/// decides disk realizations, order, and which fill jobs are repeated.
const WAVE_SHAPES: [(&str, u64); 5] =
    [("direct", 1024), ("direct", 768), ("direct", 512), ("direct", 256), ("grape6", 192)];

/// `(engine, n)` of the eight primaries of every fill wave.
const FILL_SHAPES: [(&str, u64); WAVE] = [
    ("direct", 1024),
    ("direct", 768),
    ("direct", 640),
    ("direct", 512),
    ("direct", 384),
    ("direct", 256),
    ("grape6", 256),
    ("grape6", 128),
];

fn shuffle<T>(rng: &mut StdRng, v: &mut [T]) {
    for i in (1..v.len()).rev() {
        let j = (rng.gen::<u64>() % (i as u64 + 1)) as usize;
        v.swap(i, j);
    }
}

/// Generate the campaign for `seed`. Equal seeds give equal campaigns.
pub fn plan(seed: u64, p: &ServeParams) -> Campaign {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5e57_e31c);
    // Disk seeds are drawn without replacement from one counter so no two
    // primaries can collide into an unplanned cache hit.
    let base = rng.gen::<u64>() >> 16;
    let mut next_disk_seed = 0u64;
    let mut spec = |shape: (&str, u64)| {
        next_disk_seed += 1;
        JobSpec {
            n: (shape.1 / p.shrink).max(8),
            seed: base + next_disk_seed,
            t_end: p.t_end,
            dt_max: 0.0,
            eta: 0.0,
            engine: shape.0.to_string(),
        }
    };
    let mut fill = Vec::with_capacity(p.fill_waves * WAVE);
    for _ in 0..p.fill_waves {
        let mut shapes = FILL_SHAPES;
        shuffle(&mut rng, &mut shapes);
        for shape in shapes {
            let tenant = TENANTS[fill.len() % TENANTS.len()];
            fill.push(PlannedJob { tenant, spec: spec(shape), role: Role::Primary });
        }
    }
    let mut jobs: Vec<PlannedJob> = Vec::with_capacity(p.waves * WAVE);
    for _ in 0..p.waves {
        let first = jobs.len();
        // Five primaries and two cache duplicates in seeded order, then one
        // duplicate of a primary of this wave, submitted while it runs.
        let mut slots: Vec<Option<(&str, u64)>> = WAVE_SHAPES.iter().copied().map(Some).collect();
        slots.extend([None, None]);
        shuffle(&mut rng, &mut slots);
        for slot in slots {
            let tenant = TENANTS[jobs.len() % TENANTS.len()];
            jobs.push(match slot {
                Some(shape) => PlannedJob { tenant, spec: spec(shape), role: Role::Primary },
                None => {
                    let of = (rng.gen::<u64>() % fill.len().max(1) as u64) as usize;
                    PlannedJob { tenant, spec: fill[of].spec.clone(), role: Role::CacheDup(of) }
                }
            });
        }
        let primaries: Vec<usize> =
            (first..jobs.len()).filter(|&i| jobs[i].role == Role::Primary).collect();
        let of = primaries[(rng.gen::<u64>() % primaries.len() as u64) as usize];
        let tenant = TENANTS[jobs.len() % TENANTS.len()];
        jobs.push(PlannedJob { tenant, spec: jobs[of].spec.clone(), role: Role::InflightDup(of) });
    }
    Campaign { fill, jobs }
}

/// The service configuration of the workload: 2 workers, 8-block slices.
pub fn serve_config() -> ServeConfig {
    ServeConfig { workers: 2, slice_blocks: 8, ..ServeConfig::default() }
}

/// What the client saw of one job.
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// Whether `Submit` answered `cached: true`.
    pub cached: bool,
    /// Final state.
    pub state: JobState,
    /// Hex result snapshot.
    pub snapshot_hex: String,
    /// `Submit` dispatch time.
    pub submit_s: f64,
    /// Submit → the client's `Wait` on it returned.
    pub settled_s: f64,
}

/// Exact counters of one rep (equal across reps of a seed).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeCounters {
    /// Jobs submitted in the measured campaign.
    pub jobs: u64,
    /// Of those, settled `Completed`.
    pub completed: u64,
    /// Block steps the service executed, both campaigns.
    pub block_steps: u64,
    /// Cache hits + coalesced duplicates, both campaigns (the split depends
    /// on thread interleaving; the sum does not).
    pub duplicate_hits: u64,
    /// FNV-1a 64 over every measured job's result bytes, in order.
    pub results_digest: u64,
}

impl ServeCounters {
    /// `name = value` pairs for the human table and the aux record.
    pub fn fields(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("jobs", self.jobs),
            ("completed", self.completed),
            ("block_steps", self.block_steps),
            ("duplicate_hits", self.duplicate_hits),
            ("results_digest", self.results_digest),
        ]
    }
}

/// Interleaving-dependent service counters (informational).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceTelemetry {
    /// Preemptions suffered.
    pub preemptions: u64,
    /// Submit-time cache hits.
    pub cache_hits: u64,
    /// In-flight coalesced duplicates.
    pub coalesced: u64,
    /// Block steps executed.
    pub block_steps: u64,
}

/// Timings, counters and client records of one rep.
#[derive(Debug, Clone)]
pub struct ServeRep {
    /// Service start + cache-fill campaign.
    pub setup_s: f64,
    /// First submit → last result of the measured campaign.
    pub evolve_s: f64,
    /// Exact counters.
    pub counters: ServeCounters,
    /// Service-side counters.
    pub telemetry: ServiceTelemetry,
    /// One record per measured job, in submission order.
    pub records: Vec<JobRecord>,
    /// Correctness checks: `(what, passed)`.
    pub checks: Vec<(String, bool)>,
    /// Client-side spans (traced reps only).
    pub spans: Vec<Span>,
}

/// The client: one request line in, one response line out.
struct Client<'a> {
    svc: &'a JobService,
    buf: Vec<u8>,
    rec: Option<Recorder>,
}

impl Client<'_> {
    /// Send `req` and leave the response line in `self.buf`; the span (when
    /// tracing) and the returned seconds cover only the `dispatch_line` call.
    fn send(&mut self, req: &Request, kind: SpanKind, job: u32) -> f64 {
        let line = serde_json::to_string(req).expect("request serializes");
        self.buf.clear();
        if let Some(r) = &mut self.rec {
            r.set_request(job);
            r.begin(kind, 0);
        }
        let t0 = Instant::now();
        dispatch_line(self.svc, &line, &mut self.buf).expect("writing to a Vec cannot fail");
        let dt = t0.elapsed().as_secs_f64();
        if let Some(r) = &mut self.rec {
            r.end();
        }
        dt
    }

    /// The response line in `self.buf`, parsed.
    fn response(&self) -> Response {
        serde_json::from_slice(&self.buf).expect("service answers valid JSON")
    }

    /// The `snapshot_hex` string of the `ResultData` line in `self.buf`,
    /// cut out of the raw bytes: the JSON shim's string parser re-validates
    /// the rest of its input at every character, which on a 400 KB hex
    /// payload would cost the client more than the job cost the service.
    fn snapshot_hex(&self) -> Option<String> {
        const KEY: &[u8] = b"\"snapshot_hex\":\"";
        let start = self.buf.windows(KEY.len()).position(|w| w == KEY)? + KEY.len();
        let len = self.buf[start..].iter().position(|&b| b == b'"')?;
        String::from_utf8(self.buf[start..start + len].to_vec()).ok()
    }

    /// Submit `jobs` in waves of [`WAVE`]; after each wave wait for every
    /// job in submission order, then fetch every result.
    fn campaign(&mut self, jobs: &[PlannedJob], first_job: u32) -> Vec<JobRecord> {
        let mut out: Vec<JobRecord> = Vec::with_capacity(jobs.len());
        for (w, wave) in jobs.chunks(WAVE).enumerate() {
            let base = first_job + (w * WAVE) as u32;
            let mut ids = Vec::with_capacity(wave.len());
            let mut submitted = Vec::with_capacity(wave.len());
            for (k, job) in wave.iter().enumerate() {
                let req = Request::Submit { tenant: job.tenant.to_string(), job: job.spec.clone() };
                let t0 = Instant::now();
                let submit_s = self.send(&req, SpanKind::ServeSubmit, base + k as u32);
                let resp = self.response();
                let Response::Submitted { id, cached, .. } = resp else {
                    panic!("submit of a valid job was refused: {resp:?}");
                };
                ids.push(id);
                submitted.push(t0);
                out.push(JobRecord {
                    cached,
                    state: JobState::Queued,
                    snapshot_hex: String::new(),
                    submit_s,
                    settled_s: 0.0,
                });
            }
            let at = out.len() - wave.len();
            for (k, &id) in ids.iter().enumerate() {
                self.send(&Request::Wait { id }, SpanKind::ServeWait, base + k as u32);
                let resp = self.response();
                let Response::Status { status } = resp else {
                    panic!("wait on job {id} failed: {resp:?}");
                };
                out[at + k].state = status.state;
                out[at + k].settled_s = submitted[k].elapsed().as_secs_f64();
            }
            for (k, &id) in ids.iter().enumerate() {
                self.send(&Request::Result { id }, SpanKind::ServeResult, base + k as u32);
                // An error answer has no snapshot; the empty string then
                // fails the duplicate/primary byte checks.
                out[at + k].snapshot_hex = self.snapshot_hex().unwrap_or_default();
            }
        }
        out
    }

    fn telemetry(&mut self) -> ServiceTelemetry {
        let line = serde_json::to_string(&Request::Tenants).expect("request serializes");
        self.buf.clear();
        dispatch_line(self.svc, &line, &mut self.buf).expect("writing to a Vec cannot fail");
        let resp = self.response();
        let Response::Tenants { tenants } = resp else {
            panic!("tenants request failed: {resp:?}");
        };
        let mut t = ServiceTelemetry::default();
        for row in tenants {
            t.preemptions += row.preemptions;
            t.cache_hits += row.cache_hits;
            t.coalesced += row.coalesced;
            t.block_steps += row.block_steps;
        }
        t
    }
}

/// Run one rep: fresh service, fill campaign (set-up), measured campaign.
/// `check_fresh` additionally reruns one served primary through a fresh
/// `RunnerSim` and compares the bytes.
pub fn rep(campaign: &Campaign, traced: bool, check_fresh: bool) -> ServeRep {
    let t0 = Instant::now();
    let handle = ServiceHandle::start(serve_config());
    let svc = handle.service().clone();
    let mut client = Client {
        svc: &svc,
        buf: Vec::with_capacity(1 << 20),
        rec: traced
            .then(|| Recorder::with_capacity(3 * (campaign.fill.len() + campaign.jobs.len()))),
    };
    let fill_records = client.campaign(&campaign.fill, 0);
    let setup_s = t0.elapsed().as_secs_f64();
    if let Some(r) = &mut client.rec {
        // Set-up spans are not part of the measured campaign.
        r.take();
    }

    let t1 = Instant::now();
    let records = client.campaign(&campaign.jobs, campaign.fill.len() as u32);
    let evolve_s = t1.elapsed().as_secs_f64();
    let telemetry = client.telemetry();
    let spans = client.rec.as_mut().map(Recorder::take).unwrap_or_default();
    handle.stop();

    let mut checks = Vec::new();
    let all_done = |rs: &[JobRecord]| rs.iter().all(|r| r.state == JobState::Completed);
    checks.push((
        "every job settles Completed".to_string(),
        all_done(&fill_records) && all_done(&records),
    ));
    let dups_equal = campaign.jobs.iter().zip(&records).all(|(job, r)| match job.role {
        Role::Primary => !r.cached && !r.snapshot_hex.is_empty(),
        Role::CacheDup(of) => r.cached && r.snapshot_hex == fill_records[of].snapshot_hex,
        Role::InflightDup(of) => r.cached && r.snapshot_hex == records[of].snapshot_hex,
    });
    checks.push(("every duplicate is served its primary's bytes".to_string(), dups_equal));
    if check_fresh {
        let (job, served) = campaign
            .jobs
            .iter()
            .zip(&records)
            .find(|(j, _)| j.role == Role::Primary)
            .expect("a campaign has primaries");
        let mut sim = RunnerSim::fresh(&job.spec).expect("planned specs are valid");
        sim.run_slice(job.spec.t_end, u64::MAX);
        let fresh = hex_encode(&sim.result().snapshot);
        checks.push((
            "a fresh RunnerSim rerun equals the served result".to_string(),
            fresh == served.snapshot_hex,
        ));
    }

    let counters = ServeCounters {
        jobs: records.len() as u64,
        completed: records.iter().filter(|r| r.state == JobState::Completed).count() as u64,
        block_steps: telemetry.block_steps,
        duplicate_hits: telemetry.cache_hits + telemetry.coalesced,
        results_digest: fnv1a(records.iter().flat_map(|r| r.snapshot_hex.bytes())),
    };
    ServeRep { setup_s, evolve_s, counters, telemetry, records, checks, spans }
}

/// Replay a sample of the campaign's primaries through `RunnerSim`
/// directly: mean milliseconds of `fresh`, one `run_slice`, `checkpoint`,
/// `resume`, and the checkpoint codec rates.
pub fn probe_jobs(campaign: &Campaign, out: &mut BTreeMap<&'static str, f64>) {
    const MIB: f64 = 1024.0 * 1024.0;
    let sample: Vec<&JobSpec> = campaign
        .jobs
        .iter()
        .filter(|j| j.role == Role::Primary)
        .take(WAVE_SHAPES.len())
        .map(|j| &j.spec)
        .collect();
    let (mut fresh, mut slice, mut ckpt, mut resume, mut bytes) = (0.0, 0.0, 0.0, 0.0, 0.0);
    for spec in &sample {
        let t = Instant::now();
        let mut sim = RunnerSim::fresh(spec).expect("planned specs are valid");
        fresh += t.elapsed().as_secs_f64();
        let t = Instant::now();
        sim.run_slice(spec.t_end, serve_config().slice_blocks);
        slice += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let ck = sim.checkpoint();
        ckpt += t.elapsed().as_secs_f64();
        bytes += ck.len() as f64;
        let t = Instant::now();
        let resumed = RunnerSim::resume(spec, ck).expect("own checkpoint resumes");
        resume += t.elapsed().as_secs_f64();
        drop(resumed);
    }
    let n = sample.len().max(1) as f64;
    out.insert("serve.job.fresh_ms", 1e3 * fresh / n);
    out.insert("serve.job.slice_ms", 1e3 * slice / n);
    out.insert("serve.job.checkpoint_ms", 1e3 * ckpt / n);
    out.insert("serve.job.resume_ms", 1e3 * resume / n);
    out.insert("sim.checkpoint.bytes", bytes / n);
    if ckpt > 0.0 && resume > 0.0 {
        out.insert("sim.checkpoint.encode_mib_per_s", bytes / MIB / ckpt);
        // `resume` is decode + engine reload, as `decode_checkpoint` is.
        out.insert("sim.checkpoint.decode_mib_per_s", bytes / MIB / resume);
    }
}

/// Per-layer metrics of a traced `serve_mix` rep.
pub fn layer_metrics(campaign: &Campaign, tr: &ServeRep) -> BTreeMap<&'static str, f64> {
    let mut m = BTreeMap::new();
    probe_jobs(campaign, &mut m);
    let by_role = |pred: fn(Role) -> bool, f: fn(&JobRecord) -> f64| -> Vec<f64> {
        campaign
            .jobs
            .iter()
            .zip(&tr.records)
            .filter(|(j, _)| pred(j.role))
            .map(|(_, r)| f(r))
            .collect()
    };
    let primaries = by_role(|r| r == Role::Primary, |r| 1e3 * r.settled_s);
    m.insert("serve.service.job_ms_p50", stats::percentile(&primaries, 50.0));
    m.insert("serve.service.job_ms_p99", stats::percentile(&primaries, 99.0));
    let cached = by_role(|r| matches!(r, Role::CacheDup(_)), |r| 1e6 * r.submit_s);
    m.insert("serve.service.cached_job_us_p50", stats::percentile(&cached, 50.0));
    let submits = by_role(|r| r == Role::Primary, |r| 1e6 * r.submit_s);
    m.insert("serve.service.submit_us_p50", stats::percentile(&submits, 50.0));
    m.insert("serve.service.preemptions", tr.telemetry.preemptions as f64);
    m.insert("serve.service.cache_hits", tr.telemetry.cache_hits as f64);
    m.insert("serve.service.coalesced", tr.telemetry.coalesced as f64);
    m.insert("serve.service.block_steps", tr.telemetry.block_steps as f64);
    m.insert("serve.service.jobs_per_s", tr.records.len() as f64 / tr.evolve_s);
    let totals = totals_by_kind(&tr.spans);
    let inside: u64 = totals.iter().map(|t| t.self_ns).sum();
    m.insert("trace.coverage", inside as f64 / (tr.evolve_s * 1e9));
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: ServeParams = ServeParams { fill_waves: 1, waves: 2, shrink: 16, t_end: 0.5 };

    #[test]
    fn campaign_is_a_pure_function_of_the_seed() {
        let a = plan(7, &TINY);
        assert_eq!(a, plan(7, &TINY));
        assert_ne!(a, plan(8, &TINY));
        assert_eq!(a.fill.len(), WAVE);
        assert_eq!(a.jobs.len(), 2 * WAVE);
    }

    #[test]
    fn every_wave_has_the_same_shape_and_valid_duplicates() {
        let c = plan(99, &TINY);
        for (w, wave) in c.jobs.chunks(WAVE).enumerate() {
            let mut ns: Vec<u64> =
                wave.iter().filter(|j| j.role == Role::Primary).map(|j| j.spec.n).collect();
            ns.sort_unstable();
            assert_eq!(ns, [12, 16, 32, 48, 64], "wave {w}");
            assert_eq!(wave.iter().filter(|j| matches!(j.role, Role::CacheDup(_))).count(), 2);
            let last = wave.last().expect("non-empty wave");
            let Role::InflightDup(of) = last.role else {
                panic!("wave ends with an in-flight duplicate")
            };
            assert!(of >= w * WAVE && of < (w + 1) * WAVE - 1);
            assert_eq!(c.jobs[of].spec, last.spec);
        }
        for job in &c.jobs {
            if let Role::CacheDup(of) = job.role {
                assert_eq!(c.fill[of].spec, job.spec);
            }
        }
        // No two primaries share a spec (no unplanned cache hit).
        let mut keys: Vec<String> = c
            .fill
            .iter()
            .chain(&c.jobs)
            .filter(|j| j.role == Role::Primary)
            .map(|j| j.spec.canonical_key().expect("valid spec"))
            .collect();
        let n = keys.len();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), n);
    }

    #[test]
    fn a_rep_serves_every_job_and_repeats_its_counters() {
        let c = plan(3, &TINY);
        let a = rep(&c, false, true);
        let b = rep(&c, true, false);
        assert!(a.checks.iter().all(|(_, ok)| *ok), "{:?}", a.checks);
        assert_eq!(a.checks.len(), 3);
        assert_eq!(a.counters, b.counters);
        assert_eq!(a.counters.completed, c.jobs.len() as u64);
        assert_eq!(a.counters.duplicate_hits, 3 * 2);
        assert!(a.spans.is_empty());
        assert_eq!(b.spans.len(), 3 * c.jobs.len());
        let m = layer_metrics(&c, &b);
        assert!(m["serve.service.jobs_per_s"] > 0.0);
        assert!(m["serve.job.fresh_ms"] > 0.0);
    }
}
