//! `large_n_smoke` — the paper-scale host-path smoke test (weekly CI cron).
//!
//! Builds the §6 headline disk (N = 1,799,998 planetesimals + 2
//! protoplanets by default), initializes it through the product constructor
//! (`Simulation::with_telemetry`: one sweep plus the O(N) energy ledger),
//! runs a few hundred block steps and writes one chunked G6CK v2
//! checkpoint — all through the zero-force [`NullForceEngine`], so the
//! run isolates exactly the O(N) host terms this harness guards: tick
//! scheduling, block prediction, lazy j-update flushes and the streamed
//! checkpoint writer. It then encodes the in-memory container twice, the
//! second time into the allocation the dropped first one left behind, and
//! times both. Logs RSS and per-phase wall times, and writes a JSON
//! telemetry artifact for the CI upload.
//!
//! Usage: `large_n_smoke [--n 1799998] [--steps 200]
//!         [--out large_n_smoke.json] [--checkpoint large_n_smoke.g6ck]`
//!
//! Exit status is nonzero if the run produces no work, the checkpoint
//! cannot be written/reloaded, or an in-memory container is not the
//! streamed checkpoint byte for byte.

// Per-phase wall times are this harness's output.
#![allow(clippy::disallowed_methods)]

use grape6_bench::{arg_or, experiment_config, fmt, paper_disk, print_header, print_row};
use grape6_core::engine::ForceEngine;
use grape6_core::particle::{ForceResult, IParticle, ParticleSystem};
use grape6_sim::checkpoint::{
    checkpoint_now, encode_checkpoint, load_checkpoint, write_checkpoint,
};
use grape6_sim::{Simulation, TelemetryReport};
use serde::Serialize;
use std::path::Path;
use std::time::Instant;

/// A force engine that computes no pairwise forces: every result is zero,
/// so the Sun's central potential (applied host-side by the integrator) is
/// the only acceleration and still spreads particles across realistic
/// timestep rungs, and the *host* paths — scheduling, prediction,
/// correction, j-update batching — are the entire cost of a block step.
#[derive(Debug, Default)]
struct NullForceEngine {
    n_j: usize,
    interactions: u64,
}

impl ForceEngine for NullForceEngine {
    fn load(&mut self, sys: &ParticleSystem) {
        self.n_j = sys.len();
    }

    fn update_j(&mut self, _sys: &ParticleSystem, _indices: &[usize]) {}

    fn compute(&mut self, _t: f64, ips: &[IParticle], out: &mut [ForceResult]) {
        // The hardware convention: every i against every resident j.
        self.interactions += (ips.len() as u64) * (self.n_j as u64);
        out.fill(ForceResult::default());
    }

    fn interaction_count(&self) -> u64 {
        self.interactions
    }

    fn name(&self) -> &'static str {
        "null"
    }
}

/// The telemetry artifact the weekly cron uploads.
#[derive(Debug, Serialize)]
struct SmokeReport {
    n_bodies: u64,
    block_steps: u64,
    particle_steps: u64,
    build_seconds: f64,
    init_seconds: f64,
    step_seconds: f64,
    checkpoint_seconds: f64,
    checkpoint_bytes: u64,
    reload_seconds: f64,
    encode_cold_mib_per_s: f64,
    encode_reused_mib_per_s: f64,
    rss_mib: f64,
    peak_rss_mib: f64,
    telemetry: TelemetryReport,
}

/// A sink that checks the bytes streamed into it against `expect`.
struct SameBytes<'a> {
    expect: &'a [u8],
    equal: bool,
}

impl std::io::Write for SameBytes<'_> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let (head, rest) = self.expect.split_at(buf.len().min(self.expect.len()));
        self.equal &= head == buf;
        self.expect = rest;
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Whether `container` is, byte for byte, what [`write_checkpoint`]
/// streams for `sim` (compared chunk by chunk: no second container).
fn is_streamed_checkpoint<E: ForceEngine>(sim: &Simulation<E>, container: &[u8]) -> bool {
    let mut sink = SameBytes { expect: container, equal: true };
    write_checkpoint(sim, &mut sink).is_ok() && sink.equal && sink.expect.is_empty()
}

/// Current and peak resident set size in MiB, from `/proc/self/status`
/// (0.0 when unavailable, e.g. off Linux).
fn rss_mib() -> (f64, f64) {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return (0.0, 0.0);
    };
    let grab = |key: &str| {
        status
            .lines()
            .find(|l| l.starts_with(key))
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|kb| kb.parse::<f64>().ok())
            .map_or(0.0, |kb| kb / 1024.0)
    };
    (grab("VmRSS:"), grab("VmHWM:"))
}

fn main() -> std::process::ExitCode {
    let n: usize = arg_or("--n", 1_799_998);
    let steps: u64 = arg_or("--steps", 200);
    let out: String = arg_or("--out", "large_n_smoke.json".to_string());
    let ckpt: String = arg_or("--checkpoint", "large_n_smoke.g6ck".to_string());

    let t_build = Instant::now();
    let sys = paper_disk(n, 20020616);
    let n_bodies = sys.len() as u64;
    let build_seconds = t_build.elapsed().as_secs_f64();
    println!("disk: {n_bodies} bodies in {build_seconds:.1} s");

    let t_init = Instant::now();
    let mut sim = Simulation::with_telemetry(sys, experiment_config(), NullForceEngine::default());
    let init_seconds = t_init.elapsed().as_secs_f64();
    println!("init: forces + schedule + energy ledger in {init_seconds:.1} s");

    let t_steps = Instant::now();
    for _ in 0..steps {
        sim.step();
    }
    let step_seconds = t_steps.elapsed().as_secs_f64();
    let stats = sim.stats();
    println!(
        "steps: {} block steps / {} particle steps in {step_seconds:.1} s \
         ({:.1} ms per block step)",
        stats.block_steps,
        stats.particle_steps,
        1e3 * step_seconds / stats.block_steps.max(1) as f64
    );

    let t_ckpt = Instant::now();
    if let Err(e) = checkpoint_now(&mut sim, Path::new(&ckpt)) {
        eprintln!("error: writing checkpoint {ckpt}: {e}");
        return std::process::ExitCode::FAILURE;
    }
    let checkpoint_seconds = t_ckpt.elapsed().as_secs_f64();
    let checkpoint_bytes = std::fs::metadata(&ckpt).map(|m| m.len()).unwrap_or(0);
    println!(
        "checkpoint: {:.1} MiB chunked G6CK v2 in {checkpoint_seconds:.1} s -> {ckpt}",
        checkpoint_bytes as f64 / (1024.0 * 1024.0)
    );

    // The artifact must round-trip: reload it and spot-check the header.
    let t_reload = Instant::now();
    let reloaded = match load_checkpoint(Path::new(&ckpt), NullForceEngine::default()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: reloading checkpoint {ckpt}: {e}");
            return std::process::ExitCode::FAILURE;
        }
    };
    let reload_seconds = t_reload.elapsed().as_secs_f64();
    if reloaded.sys.len() as u64 != n_bodies || reloaded.sys.t.to_bits() != sim.sys.t.to_bits() {
        eprintln!("error: reloaded checkpoint does not match the live run");
        return std::process::ExitCode::FAILURE;
    }
    println!("reload: checkpoint resumes at t = {} in {reload_seconds:.1} s", reloaded.sys.t);
    drop(reloaded);

    // The in-memory container: cold into fresh pages, then, the first one
    // dropped, into the allocation it left behind. Both must be the
    // streamed checkpoint of this state, so byte-identical to each other.
    const MIB: f64 = 1024.0 * 1024.0;
    let t_cold = Instant::now();
    let cold = encode_checkpoint(&sim);
    let cold_seconds = t_cold.elapsed().as_secs_f64();
    let (container_mib, cold_at) = (cold.len() as f64 / MIB, cold.as_slice().as_ptr());
    let cold_same = is_streamed_checkpoint(&sim, &cold);
    drop(cold);
    let t_reused = Instant::now();
    let reused = encode_checkpoint(&sim);
    let reused_seconds = t_reused.elapsed().as_secs_f64();
    let reused_in_place = reused.as_slice().as_ptr() == cold_at;
    if !(cold_same && is_streamed_checkpoint(&sim, &reused)) {
        eprintln!("error: the in-memory checkpoint containers are not the streamed checkpoint");
        return std::process::ExitCode::FAILURE;
    }
    drop(reused);
    let encode_cold_mib_per_s = container_mib / cold_seconds;
    let encode_reused_mib_per_s = container_mib / reused_seconds;
    println!(
        "encode: {container_mib:.1} MiB in-memory G6CK at {encode_cold_mib_per_s:.0} MiB/s cold, \
         {encode_reused_mib_per_s:.0} MiB/s {}",
        if reused_in_place { "into the reused container" } else { "again (not reused)" }
    );

    let (rss, peak) = rss_mib();
    let telemetry = sim.telemetry_report().expect("telemetry attached");
    println!("\nper-phase host seconds:");
    print_header(&["schedule", "predict", "force", "correct", "jupdate", "ckpt"], 11);
    let p = &telemetry.phase_seconds;
    print_row(
        &[
            fmt(p.schedule),
            fmt(p.predict),
            fmt(p.force),
            fmt(p.correct),
            fmt(p.j_update),
            fmt(p.checkpoint),
        ],
        11,
    );
    println!("rss: {rss:.0} MiB (peak {peak:.0} MiB)");

    if stats.block_steps == 0 || stats.particle_steps == 0 {
        eprintln!("error: the smoke run did no work");
        return std::process::ExitCode::FAILURE;
    }

    let report = SmokeReport {
        n_bodies,
        block_steps: stats.block_steps,
        particle_steps: stats.particle_steps,
        build_seconds,
        init_seconds,
        step_seconds,
        checkpoint_seconds,
        checkpoint_bytes,
        reload_seconds,
        encode_cold_mib_per_s,
        encode_reused_mib_per_s,
        rss_mib: rss,
        peak_rss_mib: peak,
        telemetry,
    };
    let json = serde_json::to_string_pretty(&report).expect("serialize smoke report");
    if let Err(e) = std::fs::write(&out, json) {
        eprintln!("error: writing {out}: {e}");
        return std::process::ExitCode::FAILURE;
    }
    println!("report -> {out}");
    std::process::ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_engine_reports_zero_forces_and_hardware_counters() {
        let sys = paper_disk(8, 1);
        let mut e = NullForceEngine::default();
        e.load(&sys);
        let ips: Vec<IParticle> = (0..sys.len())
            .map(|i| IParticle { index: i, pos: sys.pos[i], vel: sys.vel[i] })
            .collect();
        let mut out = vec![ForceResult::default(); sys.len()];
        e.compute(0.0, &ips, &mut out);
        assert_eq!(e.interaction_count(), (sys.len() * sys.len()) as u64);
        assert!(out.iter().all(|r| r.acc == grape6_core::vec3::Vec3::zero() && r.nn.is_none()));
    }

    #[test]
    fn null_engine_overwrites_every_element_of_out() {
        // The `ForceEngine::compute` contract the integrator's reused result
        // buffer relies on (tests/engine_contract.rs covers the others).
        use grape6_core::particle::Neighbor;
        let sys = paper_disk(30, 2);
        let mut e = NullForceEngine::default();
        e.load(&sys);
        for b in [1, 16, 17, sys.len()] {
            let ips: Vec<IParticle> =
                (0..b).map(|i| IParticle { index: i, pos: sys.pos[i], vel: sys.vel[i] }).collect();
            let nan = grape6_core::vec3::Vec3::new(f64::NAN, f64::NAN, f64::NAN);
            let nn = Some(Neighbor { index: 7, r2: -1.0 });
            let mut out = vec![ForceResult { acc: nan, jerk: nan, pot: f64::NAN, nn }; b];
            e.compute(0.0, &ips, &mut out);
            assert!(out.iter().all(|r| *r == ForceResult::default()), "b={b}");
        }
    }
}
