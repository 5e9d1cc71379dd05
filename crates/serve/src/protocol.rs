//! The JSON-lines wire protocol: one request object per line in, one
//! response object per line out (except `Stream`, which emits one `Event`
//! line per state change until the job settles).
//!
//! Requests and responses are externally tagged: `{"Submit": {...}}`,
//! `"Tenants"`. Binary payloads (the result snapshot) travel hex-encoded so
//! the byte-exactness contract survives a text transport.

use crate::job::JobSpec;
use serde::{Deserialize, Serialize};

/// A client request (one JSON line).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Submit one job for `tenant`. Answered with [`Response::Submitted`]
    /// or [`Response::Error`] (validation / quota rejection).
    Submit {
        /// Tenant the job is accounted to.
        tenant: String,
        /// The job specification.
        job: JobSpec,
    },
    /// Submit the same job once per seed (an ensemble sweep). Jobs that
    /// fail validation or quota reject the whole batch before any are
    /// queued.
    SubmitEnsemble {
        /// Tenant the jobs are accounted to.
        tenant: String,
        /// Template specification; `seed` is overridden per member.
        job: JobSpec,
        /// Disk realization seeds, one job each.
        seeds: Vec<u64>,
    },
    /// Current status of a job. Answered with [`Response::Status`].
    Query {
        /// Job id from [`Response::Submitted`].
        id: u64,
    },
    /// Block until the job settles (completed/failed/cancelled), then
    /// answer with its final [`Response::Status`].
    Wait {
        /// Job id.
        id: u64,
    },
    /// Fetch the result payload of a completed job. Answered with
    /// [`Response::ResultData`] or [`Response::Error`].
    Result {
        /// Job id.
        id: u64,
    },
    /// Request cancellation. Queued jobs cancel immediately; running jobs
    /// stop at the next slice boundary. Answered with [`Response::Status`]
    /// reflecting the state after the request was applied.
    Cancel {
        /// Job id.
        id: u64,
    },
    /// Emit one [`Response::Event`] line per observed state change until
    /// the job settles. The final event carries the settled status.
    Stream {
        /// Job id.
        id: u64,
    },
    /// Per-tenant telemetry snapshot. Answered with [`Response::Tenants`].
    Tenants,
    /// Stop accepting work, finish/park running slices, exit. Answered
    /// with [`Response::Done`] before the connection closes.
    Shutdown,
}

/// Lifecycle state of a job as reported on the wire. Coalesced duplicates
/// (submitted while an identical job was in flight) report `Queued` until
/// the primary settles, then settle with `cached = true`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum JobState {
    /// Waiting for a worker (or attached to an in-flight identical job).
    Queued,
    /// A worker is advancing it (possibly between preemptions).
    Running,
    /// Finished; result available via `Result`.
    Completed,
    /// Terminated with an error (see `error`), e.g. budget exhaustion.
    Failed,
    /// Cancelled by request (or by its primary being cancelled while no
    /// checkpoint existed to promote from).
    Cancelled,
}

impl JobState {
    /// True once the state can no longer change.
    pub fn settled(self) -> bool {
        matches!(self, Self::Completed | Self::Failed | Self::Cancelled)
    }
}

/// Wire status of one job.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobStatus {
    /// Job id.
    pub id: u64,
    /// Owning tenant.
    pub tenant: String,
    /// Lifecycle state.
    pub state: JobState,
    /// Block steps this job has executed so far (0 for cache hits — the
    /// cached computation's steps are accounted to the job that ran it).
    pub blocks_done: u64,
    /// Times this job was preempted (checkpointed and requeued).
    pub preemptions: u64,
    /// True when the result was served from the exact-result cache or by
    /// coalescing onto an identical in-flight job.
    pub cached: bool,
    /// Failure message when `state == Failed`.
    pub error: String,
    /// FNV-1a 64 digest of the job's canonical configuration key.
    pub config_hash: u64,
}

/// Telemetry for one tenant, as returned by [`Request::Tenants`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantTelemetry {
    /// Tenant name.
    pub tenant: String,
    /// Jobs accepted (excludes rejected submissions).
    pub submitted: u64,
    /// Jobs completed successfully (including cached results).
    pub completed: u64,
    /// Jobs failed (budget exhaustion or runner error).
    pub failed: u64,
    /// Jobs cancelled.
    pub cancelled: u64,
    /// Submissions rejected at the door (validation or quota).
    pub rejected: u64,
    /// Results served from the exact-result cache at submit time.
    pub cache_hits: u64,
    /// Duplicate submissions attached to an in-flight identical job.
    pub coalesced: u64,
    /// Preemptions suffered by this tenant's jobs.
    pub preemptions: u64,
    /// Block steps executed on behalf of this tenant (the fair-share and
    /// budget currency — modeled work, not wall time).
    pub block_steps: u64,
    /// Configured block-step budget (0 = unlimited).
    pub block_budget: u64,
    /// Configured max concurrently running/queued-eligible jobs.
    pub max_running: u64,
}

/// A server response (one JSON line).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// Submission accepted.
    Submitted {
        /// Assigned job id.
        id: u64,
        /// Initial state (`Completed` for an immediate cache hit).
        state: JobState,
        /// True when served from cache or coalesced onto an in-flight job.
        cached: bool,
    },
    /// Ensemble submission accepted; ids are in seed order.
    SubmittedBatch {
        /// Assigned job ids, one per requested seed.
        ids: Vec<u64>,
    },
    /// Status answer for `Query` / `Wait` / `Cancel`.
    Status {
        /// The job's status.
        status: JobStatus,
    },
    /// One streamed state change (see [`Request::Stream`]).
    Event {
        /// Status at the time of the change.
        status: JobStatus,
    },
    /// Result payload of a completed job.
    ResultData {
        /// Job id.
        id: u64,
        /// Hex-encoded `G6SN` binary snapshot of the final system.
        snapshot_hex: String,
        /// Block steps of the computation that produced the result.
        block_steps: u64,
        /// Particle steps of that computation.
        particle_steps: u64,
        /// Pairwise interactions of that computation.
        interactions: u64,
        /// FNV-1a 64 digest of the canonical configuration key.
        config_hash: u64,
    },
    /// Per-tenant telemetry, sorted by tenant name.
    Tenants {
        /// One row per tenant that has ever submitted.
        tenants: Vec<TenantTelemetry>,
    },
    /// Acknowledgement carrying no data (shutdown).
    Done,
    /// The request could not be served.
    Error {
        /// Human-readable reason.
        message: String,
    },
}

/// Hex-encode bytes (lowercase, two digits per byte).
pub fn hex_encode(bytes: &[u8]) -> String {
    // A nibble's ASCII digit: `'0' + n`, skipping the 39 bytes between `'9'`
    // and `'a'` when n > 9.
    let digit = |n: u8| b'0' + n + 39 * u8::from(n > 9);
    let mut out = vec![0u8; bytes.len() * 2];
    for (pair, &b) in out.as_chunks_mut::<2>().0.iter_mut().zip(bytes) {
        *pair = [digit(b >> 4), digit(b & 0xf)];
    }
    // Every byte is an ASCII digit, so the empty fallback never fires — but
    // it keeps the encoder panic-free.
    String::from_utf8(out).unwrap_or_default()
}

/// Decode a string produced by [`hex_encode`].
pub fn hex_decode(s: &str) -> Result<Vec<u8>, String> {
    if !s.len().is_multiple_of(2) {
        return Err("hex string has odd length".into());
    }
    s.as_bytes()
        .chunks_exact(2)
        .map(|pair| {
            // `chunks_exact(2)` yields exactly two bytes per chunk; the
            // slice pattern keeps the accesses bounds-check-free.
            let (h, l) = match pair {
                &[h, l] => (h, l),
                _ => return Err("hex pair of unexpected length".to_string()),
            };
            match ((h as char).to_digit(16), (l as char).to_digit(16)) {
                (Some(hi), Some(lo)) => Ok((hi * 16 + lo) as u8),
                _ => Err(format!("invalid hex pair {:?}", std::str::from_utf8(pair))),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip_through_json() {
        let reqs = vec![
            Request::Submit {
                tenant: "alice".into(),
                job: JobSpec {
                    n: 16,
                    seed: 3,
                    t_end: 0.5,
                    dt_max: 0.0,
                    eta: 0.0,
                    engine: String::new(),
                },
            },
            Request::SubmitEnsemble {
                tenant: "bob".into(),
                job: JobSpec {
                    n: 8,
                    seed: 0,
                    t_end: 0.25,
                    dt_max: 0.125,
                    eta: 0.01,
                    engine: "grape6".into(),
                },
                seeds: vec![1, 2, 3],
            },
            Request::Query { id: 7 },
            Request::Wait { id: 7 },
            Request::Result { id: 7 },
            Request::Cancel { id: 7 },
            Request::Stream { id: 7 },
            Request::Tenants,
            Request::Shutdown,
        ];
        for r in reqs {
            let line = serde_json::to_string(&r).unwrap();
            let back: Request = serde_json::from_str(&line).unwrap();
            assert_eq!(back, r, "{line}");
        }
    }

    #[test]
    fn responses_round_trip_through_json() {
        let status = JobStatus {
            id: 9,
            tenant: "alice".into(),
            state: JobState::Running,
            blocks_done: 40,
            preemptions: 2,
            cached: false,
            error: String::new(),
            config_hash: 0xdeadbeefdeadbeef,
        };
        let resps = vec![
            Response::Submitted { id: 9, state: JobState::Queued, cached: false },
            Response::SubmittedBatch { ids: vec![1, 2, 3] },
            Response::Status { status: status.clone() },
            Response::Event { status },
            Response::ResultData {
                id: 9,
                snapshot_hex: "00ff10".into(),
                block_steps: 64,
                particle_steps: 300,
                interactions: 12000,
                config_hash: 42,
            },
            Response::Tenants {
                tenants: vec![TenantTelemetry {
                    tenant: "alice".into(),
                    submitted: 5,
                    completed: 4,
                    failed: 0,
                    cancelled: 1,
                    rejected: 2,
                    cache_hits: 1,
                    coalesced: 1,
                    preemptions: 3,
                    block_steps: 512,
                    block_budget: 10_000,
                    max_running: 2,
                }],
            },
            Response::Done,
            Response::Error { message: "no such job".into() },
        ];
        for r in resps {
            let line = serde_json::to_string(&r).unwrap();
            let back: Response = serde_json::from_str(&line).unwrap();
            assert_eq!(back, r, "{line}");
        }
    }

    #[test]
    fn omitted_optional_spec_fields_default() {
        let line = r#"{"Submit": {"tenant": "t", "job": {"n": 4, "seed": 1, "t_end": 0.5}}}"#;
        let req: Request = serde_json::from_str(line).unwrap();
        match req {
            Request::Submit { job, .. } => {
                assert_eq!(job.dt_max, 0.0);
                assert_eq!(job.eta, 0.0);
                assert_eq!(job.engine, "");
            }
            other => panic!("parsed {other:?}"),
        }
    }

    #[test]
    fn hex_round_trips_and_rejects_garbage() {
        let data: Vec<u8> = (0..=255).collect();
        assert_eq!(hex_decode(&hex_encode(&data)).unwrap(), data);
        assert_eq!(hex_encode(&[]), "");
        assert!(hex_decode("abc").is_err());
        assert!(hex_decode("zz").is_err());
    }

    #[test]
    fn hex_encode_spells_every_byte_as_format_does() {
        let data: Vec<u8> = (0..=255).rev().chain(0..=255).collect();
        let expect: String = data.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex_encode(&data), expect);
    }

    #[test]
    fn settled_states_are_terminal() {
        assert!(!JobState::Queued.settled());
        assert!(!JobState::Running.settled());
        assert!(JobState::Completed.settled());
        assert!(JobState::Failed.settled());
        assert!(JobState::Cancelled.settled());
    }
}
