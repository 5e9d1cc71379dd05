//! Server-level correctness tests: preemption exactness, cache-key
//! injectivity, duplicate coalescing, quotas, cancellation, and the TCP
//! JSON-lines protocol end to end.

use grape6_serve::job::{JobSpec, RunnerSim};
use grape6_serve::protocol::{hex_decode, JobState, Request, Response};
use grape6_serve::server::dispatch_line;
use grape6_serve::service::{ServeConfig, ServiceHandle, TenantQuota};
use grape6_serve::TcpServer;
use proptest::prelude::*;
use std::io::{BufRead, BufReader, BufWriter, Write};

fn spec(n: u64, seed: u64, t_end: f64) -> JobSpec {
    JobSpec { n, seed, t_end, dt_max: 0.0, eta: 0.0, engine: String::new() }
}

fn cfg(workers: u64) -> ServeConfig {
    ServeConfig {
        workers,
        slice_blocks: 8,
        max_bodies: 4096,
        quota: TenantQuota { max_running: 2, block_budget: 0 },
        preempt_always: false,
    }
}

/// Uninterrupted single-simulation reference bytes for a spec.
fn fresh_snapshot(s: &JobSpec) -> bytes::Bytes {
    let mut sim = RunnerSim::fresh(s).expect("valid spec");
    sim.run_slice(s.t_end, u64::MAX);
    sim.result().snapshot
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// A job preempted at random block boundaries (checkpoint every slice,
    /// with the slice width itself randomized) must finish bit-identical
    /// to an uninterrupted run of the same spec.
    #[test]
    fn prop_preempted_job_is_bit_identical_to_uninterrupted(
        seed in 0u64..500,
        slice in 1u64..12,
    ) {
        let job = spec(14, seed, 0.5);
        let handle = ServiceHandle::start(ServeConfig {
            slice_blocks: slice,
            preempt_always: true,
            ..cfg(2)
        });
        let ticket = handle.service().submit("prop", job.clone()).unwrap();
        let st = handle.service().wait(ticket.id).unwrap();
        prop_assert_eq!(st.state, JobState::Completed);
        let (result, _) = handle.service().result(ticket.id).unwrap();
        prop_assert_eq!(&result.snapshot, &fresh_snapshot(&job));
        // The run is long enough that slicing must actually have preempted.
        prop_assert!(
            st.blocks_done <= slice || st.preemptions > 0,
            "a multi-slice run must have been preempted: {:?}", st
        );
        handle.stop();
    }

    /// Cache-key injectivity: two configurations differing in any single
    /// field never collide. The key is the canonical encoding of the
    /// effective spec (not a hash), so this is structural, but the
    /// property pins it against regressions in the encoding.
    #[test]
    fn prop_configs_differing_in_one_field_never_collide(
        n in 1u64..200,
        seed in 0u64..10_000,
        t_end in 0.1f64..4.0,
        dt_pow in 1i32..6,
        eta in 0.001f64..0.1,
        field in 0usize..6,
        bump in 1u64..17,
    ) {
        let base = JobSpec {
            n,
            seed,
            t_end,
            dt_max: 2.0f64.powi(-dt_pow),
            eta,
            engine: "direct".into(),
        };
        let mut tweaked = base.clone();
        match field {
            0 => tweaked.n += bump,
            1 => tweaked.seed += bump,
            2 => tweaked.t_end += bump as f64 / 16.0,
            3 => tweaked.dt_max /= 2.0,
            4 => tweaked.eta *= 1.0 + bump as f64 / 16.0,
            _ => tweaked.engine = "grape6".into(),
        }
        let (bk, tk) = (base.canonical_key().unwrap(), tweaked.canonical_key().unwrap());
        prop_assert!(bk != tk, "field {} must change the cache key: {}", field, bk);
    }
}

#[test]
fn duplicate_submissions_are_cache_hits_with_identical_bytes() {
    let handle = ServiceHandle::start(cfg(2));
    let svc = handle.service();
    let job = spec(12, 77, 0.5);

    let first = svc.submit("alice", job.clone()).unwrap();
    assert!(!first.cached);
    svc.wait(first.id).unwrap();

    // Settled primary: the duplicate settles instantly from the cache.
    let second = svc.submit("bob", job.clone()).unwrap();
    assert_eq!((second.state, second.cached), (JobState::Completed, true));
    let (a, _) = svc.result(first.id).unwrap();
    let (b, _) = svc.result(second.id).unwrap();
    assert_eq!(a.snapshot, b.snapshot, "cache hit must be byte-identical");
    assert_eq!(a.stats, b.stats);

    // Tenant accounting: bob did no work and paid no block steps.
    let rows = svc.tenants();
    let bob = rows.iter().find(|t| t.tenant == "bob").unwrap();
    assert_eq!((bob.cache_hits, bob.block_steps, bob.completed), (1, 0, 1));
    let alice = rows.iter().find(|t| t.tenant == "alice").unwrap();
    assert!(alice.block_steps > 0);
    handle.stop();
}

#[test]
fn inflight_duplicates_coalesce_onto_the_primary() {
    // One worker, and the primary pinned in Queued behind a same-tenant
    // blocker (pick_next ties on tenant block-steps and takes the lowest
    // job id, so the blocker always wins the worker back): the duplicate
    // deterministically arrives while the primary is in flight and must
    // attach rather than recompute.
    let handle = ServiceHandle::start(ServeConfig { slice_blocks: 4, ..cfg(1) });
    let svc = handle.service();
    let job = spec(16, 3, 1.0);

    let blocker = svc.submit("alice", spec(16, 1, 50.0)).unwrap().id;
    let first = svc.submit("alice", job.clone()).unwrap();
    let second = svc.submit("bob", job.clone()).unwrap();
    assert!(second.cached, "in-flight duplicate must coalesce");
    svc.cancel(blocker).unwrap();
    assert_eq!(svc.wait(blocker).unwrap().state, JobState::Cancelled);

    assert_eq!(svc.wait(first.id).unwrap().state, JobState::Completed);
    assert_eq!(svc.wait(second.id).unwrap().state, JobState::Completed);
    let (a, _) = svc.result(first.id).unwrap();
    let (b, _) = svc.result(second.id).unwrap();
    assert_eq!(a.snapshot, b.snapshot);

    let rows = svc.tenants();
    let bob = rows.iter().find(|t| t.tenant == "bob").unwrap();
    assert_eq!((bob.coalesced, bob.block_steps), (1, 0));
    handle.stop();
}

#[test]
fn concurrency_quota_caps_simultaneous_jobs_per_tenant() {
    let handle = ServiceHandle::start(ServeConfig {
        workers: 4,
        slice_blocks: 4,
        quota: TenantQuota { max_running: 1, block_budget: 0 },
        preempt_always: true,
        ..ServeConfig::default()
    });
    let svc = handle.service();
    let ids: Vec<u64> =
        (0..6).map(|k| svc.submit("solo", spec(10, 100 + k, 0.5)).unwrap().id).collect();
    for id in ids {
        assert_eq!(svc.wait(id).unwrap().state, JobState::Completed);
    }
    assert_eq!(
        svc.peak_running("solo"),
        1,
        "max_running = 1 must never let two jobs of one tenant run at once"
    );
    handle.stop();
}

#[test]
fn block_budget_exhaustion_fails_jobs_without_wedging() {
    let budget = 10;
    let handle = ServiceHandle::start(ServeConfig {
        workers: 2,
        slice_blocks: 4,
        quota: TenantQuota { max_running: 2, block_budget: budget },
        ..ServeConfig::default()
    });
    let svc = handle.service();
    let ids: Vec<u64> =
        (0..3).map(|k| svc.submit("miser", spec(14, 40 + k, 2.0)).unwrap().id).collect();
    let mut failed = 0;
    for id in ids {
        let st = svc.wait(id).unwrap();
        assert!(st.state.settled(), "no job may wedge: {st:?}");
        if st.state == JobState::Failed {
            assert!(st.error.contains("budget"), "failure must name the budget: {st:?}");
            failed += 1;
        }
    }
    assert!(failed > 0, "a 10-block budget cannot run three multi-block jobs");
    let rows = svc.tenants();
    let t = rows.iter().find(|t| t.tenant == "miser").unwrap();
    assert_eq!(t.failed, failed);
    assert_eq!(t.block_budget, budget);
    // Overshoot is bounded by one slice per worker.
    assert!(t.block_steps <= budget + 2 * 4, "block_steps = {}", t.block_steps);
    handle.stop();
}

#[test]
fn cancel_settles_queued_and_running_jobs() {
    let handle = ServiceHandle::start(ServeConfig { slice_blocks: 1, ..cfg(1) });
    let svc = handle.service();
    // A long job to occupy the single worker, plus one behind it.
    let a = svc.submit("t", spec(16, 1, 50.0)).unwrap().id;
    let b = svc.submit("t", spec(16, 2, 50.0)).unwrap().id;

    let st_b = svc.cancel(b).unwrap();
    assert!(st_b.state.settled() || st_b.state == JobState::Running);
    assert_eq!(svc.wait(b).unwrap().state, JobState::Cancelled);

    svc.cancel(a).unwrap();
    assert_eq!(svc.wait(a).unwrap().state, JobState::Cancelled);

    // The worker is free again: fresh work still completes.
    let c = svc.submit("t", spec(10, 3, 0.25)).unwrap().id;
    assert_eq!(svc.wait(c).unwrap().state, JobState::Completed);

    let rows = svc.tenants();
    assert_eq!(rows[0].cancelled, 2);
    assert_eq!(rows[0].completed, 1);
    handle.stop();
}

#[test]
fn cancelling_a_primary_promotes_its_duplicate() {
    // max_running 1 pins alice's primary in Queued behind her own
    // long-running blocker, so the cancel deterministically lands before
    // the primary ever runs (no race against a fast completion).
    let handle = ServiceHandle::start(ServeConfig {
        slice_blocks: 2,
        quota: TenantQuota { max_running: 1, block_budget: 0 },
        ..cfg(1)
    });
    let svc = handle.service();
    let blocker = svc.submit("alice", spec(16, 1, 50.0)).unwrap().id;
    let job = spec(14, 9, 0.5);
    let first = svc.submit("alice", job.clone()).unwrap();
    let second = svc.submit("bob", job.clone()).unwrap();
    assert!(second.cached);

    svc.cancel(first.id).unwrap();
    assert_eq!(svc.wait(first.id).unwrap().state, JobState::Cancelled);
    // The duplicate is promoted to primary under bob's (unblocked) tenant
    // and still completes — with the same bytes an uninterrupted run
    // produces (checkpoint inheritance).
    let st = svc.wait(second.id).unwrap();
    assert_eq!(st.state, JobState::Completed);
    let (r, _) = svc.result(second.id).unwrap();
    assert_eq!(r.snapshot, fresh_snapshot(&job));
    svc.cancel(blocker).unwrap();
    assert_eq!(svc.wait(blocker).unwrap().state, JobState::Cancelled);
    handle.stop();
}

#[test]
fn promotion_repoints_surviving_duplicates_and_keeps_cancelled_ones_settled() {
    // Same pinning trick as above: with one worker and max_running = 1,
    // alice's long blocker keeps every other alice job in Queued, so the
    // whole cancel/promote chain below runs deterministically before any
    // of the coalesced jobs can execute.
    let handle = ServiceHandle::start(ServeConfig {
        slice_blocks: 2,
        quota: TenantQuota { max_running: 1, block_budget: 0 },
        ..cfg(1)
    });
    let svc = handle.service();
    let blocker = svc.submit("alice", spec(16, 1, 50.0)).unwrap().id;
    let job = spec(14, 9, 0.5);
    let primary = svc.submit("alice", job.clone()).unwrap();
    let dup_a = svc.submit("alice", job.clone()).unwrap();
    let dup_b = svc.submit("bob", job.clone()).unwrap();
    let dup_c = svc.submit("carol", job.clone()).unwrap();
    assert!(dup_a.cached && dup_b.cached && dup_c.cached);

    // Cancel the primary: alice's dup_a inherits primaryship (still pinned
    // behind the blocker), and dup_b/dup_c must now be attached to *it*.
    svc.cancel(primary.id).unwrap();
    assert_eq!(svc.wait(primary.id).unwrap().state, JobState::Cancelled);

    // Cancelling dup_b must detach it from the heir, not from the settled
    // old primary — it settles Cancelled, terminally.
    svc.cancel(dup_b.id).unwrap();
    assert_eq!(svc.wait(dup_b.id).unwrap().state, JobState::Cancelled);

    // Cancel the heir too: the next heir must be the live dup_c, never the
    // already-cancelled dup_b. carol is unblocked, so dup_c now runs.
    svc.cancel(dup_a.id).unwrap();
    assert_eq!(svc.wait(dup_a.id).unwrap().state, JobState::Cancelled);
    let st = svc.wait(dup_c.id).unwrap();
    assert_eq!(st.state, JobState::Completed);
    let (r, _) = svc.result(dup_c.id).unwrap();
    assert_eq!(r.snapshot, fresh_snapshot(&job));

    // dup_b's settled state survived the heir's completion (terminal
    // states are terminal), and its result stays a cancellation error.
    assert_eq!(svc.query(dup_b.id).unwrap().state, JobState::Cancelled);
    assert!(svc.result(dup_b.id).unwrap_err().contains("cancelled"));

    svc.cancel(blocker).unwrap();
    assert_eq!(svc.wait(blocker).unwrap().state, JobState::Cancelled);

    // Telemetry: nobody is double-counted across cancelled + completed.
    let rows = svc.tenants();
    let bob = rows.iter().find(|t| t.tenant == "bob").unwrap();
    assert_eq!((bob.cancelled, bob.completed), (1, 0));
    let carol = rows.iter().find(|t| t.tenant == "carol").unwrap();
    assert_eq!((carol.cancelled, carol.completed), (0, 1));
    let alice = rows.iter().find(|t| t.tenant == "alice").unwrap();
    assert_eq!((alice.cancelled, alice.completed), (3, 0));
    handle.stop();
}

#[test]
fn rejected_submissions_are_counted_and_explain_themselves() {
    let handle = ServiceHandle::start(cfg(1));
    let svc = handle.service();
    let err = svc.submit("t", spec(0, 1, 0.5)).unwrap_err();
    assert!(err.contains("n must be"), "{err}");
    let err = svc.submit("t", JobSpec { engine: "warp".into(), ..spec(8, 1, 0.5) }).unwrap_err();
    assert!(err.contains("unknown engine"), "{err}");
    let rows = svc.tenants();
    assert_eq!((rows[0].rejected, rows[0].submitted), (2, 0));
    handle.stop();
}

#[test]
fn hostile_body_counts_get_an_error_naming_the_body_limit() {
    // `n + 2` wraps for these: a debug build panicked, a release build let
    // u64::MAX - 1 through as if it were a one-body job.
    let handle = ServiceHandle::start(cfg(1));
    for n in [u64::MAX, u64::MAX - 1] {
        let line =
            format!(r#"{{"Submit":{{"tenant":"t","job":{{"n":{n},"seed":1,"t_end":0.5}}}}}}"#);
        let mut out = Vec::new();
        assert!(!dispatch_line(handle.service(), &line, &mut out).unwrap());
        let text = String::from_utf8(out).unwrap();
        match serde_json::from_str::<Response>(text.trim()).unwrap() {
            Response::Error { message } => {
                assert!(message.contains("4096-body limit"), "n = {n}: {message}")
            }
            other => panic!("n = {n} must be rejected, got {other:?}"),
        }
    }
    assert_eq!(handle.service().tenants()[0].rejected, 2);
    handle.stop();
}

#[test]
fn tcp_end_to_end_submit_wait_result_stream_shutdown() {
    let server = TcpServer::start(ServeConfig { slice_blocks: 4, ..cfg(2) }, "127.0.0.1:0")
        .expect("bind ephemeral port");
    let stream = std::net::TcpStream::connect(server.addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = BufWriter::new(stream);

    fn rpc(
        reader: &mut BufReader<std::net::TcpStream>,
        writer: &mut BufWriter<std::net::TcpStream>,
        req: &Request,
    ) -> Response {
        writeln!(writer, "{}", serde_json::to_string(req).unwrap()).unwrap();
        writer.flush().unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        serde_json::from_str(&line).unwrap()
    }

    let job = spec(12, 5, 0.5);
    let id = match rpc(
        &mut reader,
        &mut writer,
        &Request::Submit { tenant: "net".into(), job: job.clone() },
    ) {
        Response::Submitted { id, cached: false, .. } => id,
        other => panic!("unexpected submit response {other:?}"),
    };
    match rpc(&mut reader, &mut writer, &Request::Wait { id }) {
        Response::Status { status } => assert_eq!(status.state, JobState::Completed),
        other => panic!("unexpected wait response {other:?}"),
    }
    match rpc(&mut reader, &mut writer, &Request::Result { id }) {
        Response::ResultData { snapshot_hex, block_steps, .. } => {
            let bytes = hex_decode(&snapshot_hex).unwrap();
            assert_eq!(&bytes[..], &fresh_snapshot(&job)[..], "wire bytes must be exact");
            assert!(block_steps > 0);
        }
        other => panic!("unexpected result response {other:?}"),
    }

    // Streaming: a second job observed from Queued to Completed.
    let id2 = match rpc(
        &mut reader,
        &mut writer,
        &Request::Submit { tenant: "net".into(), job: spec(12, 6, 0.5) },
    ) {
        Response::Submitted { id, .. } => id,
        other => panic!("unexpected submit response {other:?}"),
    };
    writeln!(writer, "{}", serde_json::to_string(&Request::Stream { id: id2 }).unwrap()).unwrap();
    writer.flush().unwrap();
    let final_state = loop {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        match serde_json::from_str::<Response>(&line).unwrap() {
            Response::Event { status } if status.state.settled() => break status.state,
            Response::Event { .. } => continue,
            other => panic!("unexpected stream response {other:?}"),
        }
    };
    assert_eq!(final_state, JobState::Completed);

    match rpc(&mut reader, &mut writer, &Request::Tenants) {
        Response::Tenants { tenants } => {
            assert_eq!(tenants.len(), 1);
            assert_eq!(tenants[0].tenant, "net");
            assert_eq!(tenants[0].completed, 2);
        }
        other => panic!("unexpected tenants response {other:?}"),
    }
    match rpc(&mut reader, &mut writer, &Request::Shutdown) {
        Response::Done => {}
        other => panic!("unexpected shutdown response {other:?}"),
    }
    server.stop();
}

#[test]
fn ensemble_submission_fans_out_one_job_per_seed() {
    let handle = ServiceHandle::start(cfg(2));
    let svc = handle.service();
    let ids = svc.submit_ensemble("sweep", &spec(10, 0, 0.25), &[11, 12, 13]).unwrap();
    assert_eq!(ids.len(), 3);
    let mut snapshots = Vec::new();
    for &id in &ids {
        assert_eq!(svc.wait(id).unwrap().state, JobState::Completed);
        snapshots.push(svc.result(id).unwrap().0.snapshot.clone());
    }
    // Distinct seeds are distinct realizations.
    assert_ne!(snapshots[0], snapshots[1]);
    assert_ne!(snapshots[1], snapshots[2]);
    handle.stop();
}

#[test]
fn rejected_ensembles_queue_nothing() {
    let handle = ServiceHandle::start(cfg(1));
    let svc = handle.service();
    assert!(svc.submit_ensemble("sweep", &spec(0, 0, 0.25), &[1, 2, 3]).is_err());
    assert!(svc.tenants().iter().all(|t| t.submitted == 0));

    // A batch racing shutdown is all-or-nothing too: no partial members.
    svc.shutdown();
    assert!(svc.submit_ensemble("sweep", &spec(10, 0, 0.25), &[1, 2, 3]).is_err());
    assert!(svc.tenants().iter().all(|t| t.submitted == 0));
    handle.stop();
}
