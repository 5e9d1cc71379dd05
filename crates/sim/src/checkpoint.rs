//! Checkpoint/restart: serialize a running [`Simulation`] so a killed run
//! can resume **bit-identically** where it left off.
//!
//! ## Why bit-identical resume is even possible
//!
//! The integrator's event schedule is a pure function of the per-particle
//! `time[i] + dt[i]` the corrector left behind, so it is rebuilt exactly by
//! [`BlockHermite::resume_from`]. The GRAPE engines' j-memory is likewise a
//! pure function of the particle state (each j-entry is the fixed-point
//! encoding of the owning particle as of its last correction), so
//! `engine.load(&sys)` reproduces it bit-for-bit; only the engines' opaque
//! *counters* (interactions, wire bytes, modeled clock, fault statistics)
//! travel in the checkpoint, via [`ForceEngine::checkpoint_state`].
//!
//! ## The `G6CK` v2 container
//!
//! Little-endian throughout:
//!
//! | section | contents |
//! |---|---|
//! | header | magic `G6CK`, `u32` version |
//! | system header | `u64` particle count + 3×`f64` (`t`, softening, central mass) |
//! | system body | `u32`-length-prefixed chunks of whole particle records, `u32` 0 sentinel |
//! | integrator | 4×`f64` [`HermiteConfig`] + 3×`u64` [`RunStats`] |
//! | ledger | 2×`f64` (`e0`, `l0` reference invariants) |
//! | block histogram | `u32` bin count + bins + block and particle steps (copies of [`RunStats`]'s, skipped on read) |
//! | telemetry | flag byte + `u32`-length-prefixed opaque state |
//! | engine | `u32`-length-prefixed name + `u32`-length-prefixed opaque state |
//!
//! Each body chunk holds [`CHECKPOINT_CHUNK_PARTICLES`] records (the last
//! chunk holds the remainder) in the `G6SN` per-particle layout
//! ([`crate::io::BINARY_PARTICLE_BYTES`] each). Chunking is what lets
//! [`save_checkpoint`] *stream* a paper-scale system to disk with O(chunk)
//! peak memory instead of materializing the ~250 MB body of a 1.8 M-particle
//! run in RAM first. The reader accepts any chunking whose lengths are whole
//! multiples of the record size.
//!
//! The **v1** container (which embedded a single `u64`-length-prefixed
//! `G6SN` snapshot as its system section) is still decoded; only the writer
//! moved to v2. `tests/checkpoint_golden.rs` pins both directions with
//! golden files.
//!
//! ## Reading untrusted bytes
//!
//! G6CK carries no checksum, so a damaged file must come back as an error,
//! never a panic. Every section and every opaque state blob is read front
//! to back through one [`grape6_core::fields::Fields`] (each body chunk as
//! one slice of whole records), and then checked before anything acts on
//! it: step bounds exact powers of two, every particle's clock
//! ([`TickScheduler::check_clocks`]), the system's invariants
//! ([`ParticleSystem::validate`]: finite state, masses, softening and central
//! mass), the engine's name and its blob fields.
//!
//! Diagnostics rows and the accretion/encounter logs are **not**
//! checkpointed: they are append-only observational byproducts that do not
//! feed back into the dynamics, so a resumed run continues producing correct
//! rows from the resume point onward.

use crate::io::{invalid, BINARY_PARTICLE_BYTES};
use crate::simulation::Simulation;
use crate::stats::BlockSizeHistogram;
use crate::telemetry::Telemetry;
use grape6_core::blockstep::TickScheduler;
use grape6_core::energy::EnergyLedger;
use grape6_core::engine::ForceEngine;
use grape6_core::fields::Fields;
use grape6_core::integrator::{BlockHermite, HermiteConfig, RunStats};
use grape6_core::observer::{HostPhase, StepObserver};
use grape6_core::particle::ParticleSystem;
use std::cell::Cell;
use std::io::Write;
use std::path::Path;

/// Magic bytes of the checkpoint container.
pub const CHECKPOINT_MAGIC: &[u8; 4] = b"G6CK";
/// Version of the checkpoint container format.
pub const CHECKPOINT_VERSION: u32 = 2;
/// Particle records per streamed body chunk (~1.1 MB of payload): large
/// enough that chunk framing is noise, small enough that the writer's
/// resident buffer stays far below the body size at paper-scale N.
pub const CHECKPOINT_CHUNK_PARTICLES: usize = 8192;

/// Everything after the system body: integrator, ledger, histogram,
/// telemetry and engine sections. Identical in v1 and v2, and small — safe
/// to materialize even at paper-scale N.
fn encode_tail<E: ForceEngine + ?Sized>(sim: &Simulation<E>) -> Vec<u8> {
    use bytes::BufMut;
    let stats = sim.integrator.stats();
    let wire_bytes = sim.engine.bytes_transferred();
    let tel_state = sim.telemetry.as_ref().map(|t| t.checkpoint_state(&stats, wire_bytes));
    let engine_state = sim.engine.checkpoint_state();
    let name = sim.engine.name().as_bytes();
    let mut buf: Vec<u8> = Vec::with_capacity(engine_state.len() + 256);
    let cfg = sim.integrator.config;
    buf.put_f64_le(cfg.eta);
    buf.put_f64_le(cfg.eta_start);
    buf.put_f64_le(cfg.dt_max);
    buf.put_f64_le(cfg.dt_min);
    buf.put_u64_le(stats.block_steps);
    buf.put_u64_le(stats.particle_steps);
    buf.put_u64_le(stats.interactions);
    buf.put_f64_le(sim.ledger.e0);
    buf.put_f64_le(sim.ledger.l0);
    buf.put_u32_le(sim.block_hist.bins.len() as u32);
    for &b in &sim.block_hist.bins {
        buf.put_u64_le(b);
    }
    // The histogram's two frozen total words: block and particle steps.
    buf.put_u64_le(stats.block_steps);
    buf.put_u64_le(stats.particle_steps);
    match &tel_state {
        Some(state) => {
            buf.put_u8(1);
            buf.put_u32_le(state.len() as u32);
            buf.put_slice(state);
        }
        None => buf.put_u8(0),
    }
    buf.put_u32_le(name.len() as u32);
    buf.put_slice(name);
    buf.put_u32_le(engine_state.len() as u32);
    buf.put_slice(&engine_state);
    buf
}

/// Bytes before the first body chunk: magic, version, then the system
/// header (particle count, `t`, softening, central mass).
const HEADER_BYTES: usize = 4 + 4 + 8 + 3 * 8;

fn put_header(buf: &mut impl bytes::BufMut, sys: &ParticleSystem) {
    buf.put_slice(CHECKPOINT_MAGIC);
    buf.put_u32_le(CHECKPOINT_VERSION);
    crate::io::put_system_header(buf, sys);
}

/// The particle ranges of the body chunks, in order.
fn body_chunks(n: usize) -> impl Iterator<Item = std::ops::Range<usize>> {
    (0..n)
        .step_by(CHECKPOINT_CHUNK_PARTICLES)
        .map(move |lo| lo..(lo + CHECKPOINT_CHUNK_PARTICLES).min(n))
}

/// Append one `u32`-length-prefixed body chunk: the records of `range`.
fn put_body_chunk(
    buf: &mut impl bytes::BufMut,
    sys: &ParticleSystem,
    range: std::ops::Range<usize>,
) {
    buf.put_u32_le((range.len() * BINARY_PARTICLE_BYTES) as u32);
    crate::io::encode_particle_range(sys, range, buf);
}

/// Stream a running simulation into `w` as a `G6CK` v2 container.
///
/// The particle body goes out one [`CHECKPOINT_CHUNK_PARTICLES`]-record
/// chunk per write through one reused buffer, so peak encoder memory is
/// O(chunk) regardless of N — this is the path the paper-scale runs take
/// (via [`save_checkpoint`] / [`checkpoint_now`]). The bytes are those of
/// [`encode_checkpoint`].
///
/// The telemetry state captured here deliberately does **not** include the
/// cost of writing this checkpoint itself: checkpoint I/O is charged to the
/// run that pays it, so an interrupted-and-resumed run reports the same
/// counters as an uninterrupted one. (The open `Checkpoint` span under
/// which [`checkpoint_now`] calls this is not serialized.)
pub fn write_checkpoint<E: ForceEngine + ?Sized, W: Write>(
    sim: &Simulation<E>,
    w: &mut W,
) -> std::io::Result<()> {
    use bytes::BufMut;
    let sys = &sim.sys;
    let first = CHECKPOINT_CHUNK_PARTICLES.min(sys.len());
    let mut buf = Vec::with_capacity(HEADER_BYTES + 4 + first * BINARY_PARTICLE_BYTES);
    // The header rides with the first chunk (or the sentinel, if none).
    put_header(&mut buf, sys);
    for range in body_chunks(sys.len()) {
        put_body_chunk(&mut buf, sys, range);
        w.write_all(&buf)?;
        buf.clear();
    }
    buf.put_u32_le(0);
    w.write_all(&buf)?;
    w.write_all(&encode_tail(sim))
}

thread_local! {
    /// A second handle to the container this thread's last
    /// [`encode_checkpoint`] returned, so the next encode can write into it
    /// once every caller has dropped theirs.
    static LAST_CONTAINER: Cell<Option<bytes::Bytes>> = const { Cell::new(None) };
}

/// An empty buffer of at least `len` bytes: the container this thread last
/// returned, if no other handle to it is left and it holds between `len` and
/// twice `len` bytes, or else (the old one let go first) a fresh allocation
/// of exactly `len`.
fn reusable_container(len: usize) -> bytes::BytesMut {
    let reclaimed = LAST_CONTAINER
        .try_with(Cell::take)
        .ok()
        .flatten()
        .and_then(|last| last.try_into_mut().ok())
        .filter(|buf| (len..=len.saturating_mul(2)).contains(&buf.capacity()));
    match reclaimed {
        Some(mut buf) => {
            buf.clear();
            buf
        }
        None => bytes::BytesMut::with_capacity(len),
    }
}

/// Encode a running simulation into an in-memory `G6CK` v2 container —
/// byte for byte what [`write_checkpoint`] streams.
///
/// Every record is written straight into a container of at least the exact
/// size, which the `Bytes` then takes over without a copy. The container is
/// the one this thread's previous encode returned whenever every handle to
/// that one has been dropped (on any thread) and it holds between one and
/// two times the new length: rewriting pages already mapped runs at memory
/// speed, where a fresh allocation of more than 32 MiB (which glibc always
/// maps afresh) first pays a page fault per 4 KiB. Smaller containers come
/// from the heap's free lists and gain next to nothing. A checkpoint some
/// caller still holds is never written to, and no checkpoint holds more than
/// twice its length. Between encodes each thread keeps one container alive:
/// the last it returned, until its next encode or its exit. Paper-scale runs
/// that only need a file should stream with [`save_checkpoint`] instead.
pub fn encode_checkpoint<E: ForceEngine + ?Sized>(sim: &Simulation<E>) -> bytes::Bytes {
    use bytes::BufMut;
    let sys = &sim.sys;
    let tail = encode_tail(sim);
    let n = sys.len();
    let len = HEADER_BYTES
        + n.div_ceil(CHECKPOINT_CHUNK_PARTICLES) * 4
        + n * BINARY_PARTICLE_BYTES
        + 4
        + tail.len();
    let mut buf = reusable_container(len);
    put_header(&mut buf, sys);
    for range in body_chunks(n) {
        put_body_chunk(&mut buf, sys, range);
    }
    buf.put_u32_le(0);
    buf.put_slice(&tail);
    debug_assert_eq!(buf.len(), len, "container size");
    let container = buf.freeze();
    // Off a thread that is shutting down the slot is gone; nothing is kept.
    let _ = LAST_CONTAINER.try_with(|slot| slot.set(Some(container.clone())));
    container
}

/// Rebuild a simulation from checkpoint bytes, continuing bit-identically.
///
/// `engine` must be a freshly configured engine of the *same kind* (same
/// [`ForceEngine::name`]) and configuration as the one that wrote the
/// checkpoint; the name is verified, the configuration cannot be and is the
/// caller's responsibility. The engine is reloaded from the particle
/// snapshot and its counters restored from the opaque state section.
pub fn decode_checkpoint<E: ForceEngine>(
    data: bytes::Bytes,
    engine: E,
) -> std::io::Result<Simulation<E>> {
    decode_container(&data, engine).map_err(invalid)
}

/// [`decode_checkpoint`] over borrowed bytes: every section read front to
/// back through one [`Fields`].
fn decode_container<E: ForceEngine>(data: &[u8], mut engine: E) -> Result<Simulation<E>, String> {
    let mut f = Fields::new(data, "checkpoint header");
    if f.take(4)? != CHECKPOINT_MAGIC {
        return Err("bad checkpoint magic".into());
    }
    let sys = match f.u32()? {
        // v1 embedded a whole length-prefixed G6SN snapshot.
        1 => {
            f.section("system snapshot");
            let len = f.u64()?;
            crate::io::decode_snapshot(f.take(len)?)?
        }
        2 => decode_chunked_system(&mut f)?,
        v => return Err(format!("unsupported checkpoint version {v}")),
    };
    f.section("integrator section");
    let config =
        HermiteConfig { eta: f.f64()?, eta_start: f.f64()?, dt_max: f.f64()?, dt_min: f.f64()? };
    config.validate()?;
    TickScheduler::check_clocks(sys.t, &sys.time, &sys.dt, config.dt_min, config.dt_max)?;
    sys.validate()?;
    let stats =
        RunStats { block_steps: f.u64()?, particle_steps: f.u64()?, interactions: f.u64()? };
    let ledger = EnergyLedger { e0: f.f64()?, l0: f.f64()? };
    f.section("block histogram");
    let block_hist =
        BlockSizeHistogram { bins: (0..f.u32()?).map(|_| f.u64()).collect::<Result<_, _>>()? };
    // Block and particle steps: copies of the integrator section's.
    f.take(2 * 8)?;
    f.section("telemetry section");
    let telemetry = match f.u8()? {
        0 => None,
        1 => Some(Telemetry::restore_checkpoint_state(f.prefixed()?, &stats)?),
        flag => return Err(format!("bad telemetry flag {flag}")),
    };
    f.section("engine name");
    let name = std::str::from_utf8(f.prefixed()?).map_err(|e| e.to_string())?;
    if name != engine.name() {
        return Err(format!(
            "checkpoint was written by engine '{name}' but resume got '{}'",
            engine.name()
        ));
    }
    f.section("engine state");
    let engine_state = f.prefixed()?;
    f.finish()?;
    // Reload j-memory from the snapshot (bit-exact by construction), *then*
    // overwrite the counters `load` itself charged with the checkpointed
    // ones, so wire-byte accounting resumes where it stopped.
    engine.load(&sys);
    engine.restore_checkpoint_state(engine_state)?;
    let integrator = BlockHermite::resume_from(config, &sys, stats);
    Ok(Simulation {
        sys,
        integrator,
        ledger,
        block_hist,
        diagnostics: Vec::new(),
        radius_model: None,
        accretion_log: Default::default(),
        encounter_log: None,
        telemetry,
        engine,
    })
}

/// Decode the v2 system section: header fields, then length-prefixed chunks
/// of whole particle records up to the `u32` 0 sentinel.
fn decode_chunked_system(f: &mut Fields) -> Result<ParticleSystem, String> {
    f.section("system header");
    let (n, mut sys) = crate::io::decode_system_header(f)?;
    // Bounded by the bytes present: a hostile `n` cannot demand memory.
    sys.reserve((n as usize).min(f.remaining() / BINARY_PARTICLE_BYTES));
    f.section("body chunk");
    loop {
        let chunk = f.prefixed()?;
        if chunk.is_empty() {
            break;
        }
        if !chunk.len().is_multiple_of(BINARY_PARTICLE_BYTES) {
            return Err(format!(
                "body chunk length {} is not a whole number of particle records",
                chunk.len()
            ));
        }
        crate::io::decode_particle_records(chunk, &mut sys);
        if sys.len() as u64 > n {
            return Err(format!("body chunks carry more particles than the declared {n}"));
        }
    }
    if sys.len() as u64 != n {
        return Err(format!("body chunks carry {} of the declared {n} particles", sys.len()));
    }
    Ok(sys)
}

/// Write a checkpoint of `sim` to `path` (atomically: temp file + rename, so
/// a crash mid-write never clobbers the previous good checkpoint), streaming
/// the particle body in [`CHECKPOINT_CHUNK_PARTICLES`]-record chunks through
/// a buffered writer — the container is never materialized in memory.
pub fn save_checkpoint<E: ForceEngine + ?Sized>(
    path: &Path,
    sim: &Simulation<E>,
) -> std::io::Result<()> {
    let tmp = path.with_extension("ckpt.tmp");
    let f = std::fs::File::create(&tmp)?;
    let mut w = std::io::BufWriter::new(f);
    write_checkpoint(sim, &mut w)?;
    w.flush()?;
    drop(w);
    std::fs::rename(&tmp, path)
}

/// Read a checkpoint from `path` and resume it onto `engine`.
pub fn load_checkpoint<E: ForceEngine>(path: &Path, engine: E) -> std::io::Result<Simulation<E>> {
    let data = std::fs::read(path)?;
    decode_checkpoint(bytes::Bytes::from(data), engine)
}

/// Like [`Simulation::run_to`], but writes a checkpoint to `path` every
/// `every_blocks` block steps (and once more on completion). Checkpoint
/// encode+write time is recorded under the `checkpoint` telemetry phase when
/// telemetry is enabled — but the state *inside* each checkpoint excludes
/// that cost (see [`encode_checkpoint`]).
pub fn run_to_with_checkpoints<E: ForceEngine + ?Sized>(
    sim: &mut Simulation<E>,
    t_end: f64,
    diag_interval: f64,
    every_blocks: u64,
    path: &Path,
) -> std::io::Result<RunStats> {
    let start = sim.stats();
    let every = every_blocks.max(1);
    let mut next_diag = if diag_interval > 0.0 { sim.sys.t + diag_interval } else { f64::INFINITY };
    let mut since_ckpt = 0u64;
    while sim.integrator.next_time().is_some_and(|t| t <= t_end) {
        sim.step();
        if sim.sys.t >= next_diag {
            sim.record_diagnostics();
            next_diag += diag_interval;
        }
        since_ckpt += 1;
        if since_ckpt >= every {
            since_ckpt = 0;
            checkpoint_now(sim, path)?;
        }
    }
    checkpoint_now(sim, path)?;
    Ok(sim.stats() - start)
}

/// Write one checkpoint immediately, timed under the `checkpoint` phase.
///
/// The whole encode+write streams inside the open `Checkpoint` span. That is
/// still invisible to the checkpointed telemetry state: open spans are not
/// serialized (see [`Telemetry::checkpoint_state`]), so the resumed run
/// starts with zero checkpoint cost, exactly as if the writer had paid for
/// the I/O out of band.
pub fn checkpoint_now<E: ForceEngine + ?Sized>(
    sim: &mut Simulation<E>,
    path: &Path,
) -> std::io::Result<()> {
    if let Some(t) = &mut sim.telemetry {
        t.phase_begin(HostPhase::Checkpoint);
    }
    let res = save_checkpoint(path, sim);
    if let Some(t) = &mut sim.telemetry {
        t.phase_end(HostPhase::Checkpoint);
    }
    res
}

#[cfg(test)]
mod tests {
    use super::*;
    use grape6_core::force::DirectEngine;
    use grape6_core::integrator::HermiteConfig;
    use grape6_core::observer::HostPhase;
    use grape6_disk::DiskBuilder;

    fn cfg() -> HermiteConfig {
        HermiteConfig { dt_max: 2.0f64.powi(-2), ..HermiteConfig::default() }
    }

    fn fresh(n: usize, seed: u64) -> Simulation<DirectEngine> {
        Simulation::new(DiskBuilder::paper(n).with_seed(seed).build(), cfg(), DirectEngine::new())
    }

    fn assert_bitwise_equal(a: &ParticleSystem, b: &ParticleSystem) {
        assert_eq!(a.len(), b.len());
        assert_eq!(a.t.to_bits(), b.t.to_bits());
        for i in 0..a.len() {
            assert_eq!(a.pos[i], b.pos[i], "pos[{i}]");
            assert_eq!(a.vel[i], b.vel[i], "vel[{i}]");
            assert_eq!(a.acc[i], b.acc[i], "acc[{i}]");
            assert_eq!(a.jerk[i], b.jerk[i], "jerk[{i}]");
            assert_eq!(a.time[i].to_bits(), b.time[i].to_bits(), "time[{i}]");
            assert_eq!(a.dt[i].to_bits(), b.dt[i].to_bits(), "dt[{i}]");
        }
    }

    #[test]
    fn checkpoint_resume_is_bit_identical_to_uninterrupted_run() {
        let mut reference = fresh(48, 11);
        reference.run_to(2.0, 0.0);

        let mut interrupted = fresh(48, 11);
        interrupted.run_to(1.0, 0.0);
        let ckpt = encode_checkpoint(&interrupted);
        drop(interrupted); // the "kill"

        let mut resumed = decode_checkpoint(ckpt, DirectEngine::new()).unwrap();
        resumed.run_to(2.0, 0.0);

        assert_bitwise_equal(&reference.sys, &resumed.sys);
        assert_eq!(reference.stats(), resumed.stats());
        assert_eq!(reference.engine.interaction_count(), resumed.engine.interaction_count());
        assert_eq!(reference.block_hist, resumed.block_hist);
        assert_eq!(reference.ledger.e0.to_bits(), resumed.ledger.e0.to_bits());
    }

    #[test]
    fn checkpoint_file_roundtrip_with_telemetry() {
        let dir = std::env::temp_dir().join("grape6_ckpt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.g6ck");
        let sys = DiskBuilder::paper(32).with_seed(3).build();
        let mut sim = Simulation::with_telemetry(sys, cfg(), DirectEngine::new());
        sim.run_to(0.5, 0.0);
        checkpoint_now(&mut sim, &path).unwrap();
        assert!(sim.telemetry.as_ref().unwrap().phase_calls(HostPhase::Checkpoint) >= 1);
        let resumed = load_checkpoint(&path, DirectEngine::new()).unwrap();
        assert_bitwise_equal(&sim.sys, &resumed.sys);
        let (r0, r1) = (sim.telemetry_report().unwrap(), resumed.telemetry_report().unwrap());
        assert_eq!(r0.block_steps, r1.block_steps);
        assert_eq!(r0.interactions, r1.interactions);
        assert_eq!(r0.init_interactions, r1.init_interactions);
        assert_eq!(r0.wire_bytes, r1.wire_bytes);
        // The checkpoint span itself is charged to the writer, not the state.
        assert_eq!(resumed.telemetry.as_ref().unwrap().phase_calls(HostPhase::Checkpoint), 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn run_with_checkpoints_leaves_a_resumable_file() {
        let dir = std::env::temp_dir().join("grape6_ckpt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("periodic.g6ck");
        let mut sim = fresh(32, 5);
        run_to_with_checkpoints(&mut sim, 1.0, 0.0, 4, &path).unwrap();
        let resumed = load_checkpoint(&path, DirectEngine::new()).unwrap();
        // Final checkpoint is written on completion, so it matches the end state.
        assert_bitwise_equal(&sim.sys, &resumed.sys);
        assert_eq!(sim.stats(), resumed.stats());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn engine_name_mismatch_rejected() {
        let sim = fresh(16, 7);
        let ckpt = encode_checkpoint(&sim);
        // Tamper the stored engine name so it no longer matches.
        let mut raw = ckpt.to_vec();
        let pat = b"direct-cpu";
        let at = raw.windows(pat.len()).rposition(|w| w == pat).unwrap();
        raw[at..at + pat.len()].copy_from_slice(b"DIRECT-cpu");
        let err = match decode_checkpoint(bytes::Bytes::from(raw), DirectEngine::new()) {
            Err(e) => e,
            Ok(_) => panic!("tampered engine name accepted"),
        };
        assert!(err.to_string().contains("engine"), "{err}");
    }

    #[test]
    fn damaged_grape6_ft_engine_state_rejected() {
        // G6CK has no checksum: a zeroed board count inside the engine blob
        // must come back as an error from the decoder, not as a resumed run
        // that divides by zero at its first force call.
        use grape6_hw::{FaultPlan, FaultTolerantEngine, Grape6Config};
        let engine = || FaultTolerantEngine::new(Grape6Config::single_host(), &FaultPlan::empty());
        let sys = DiskBuilder::paper(16).with_seed(7).build();
        let mut raw = encode_checkpoint(&Simulation::new(sys, cfg(), engine())).to_vec();
        assert!(decode_checkpoint(bytes::Bytes::from(raw.clone()), engine()).is_ok());
        let pat = b"grape6-ft";
        // Name, u32 state length, then the blob; unit A's boards at 80..88.
        let blob = raw.windows(pat.len()).rposition(|w| w == pat).unwrap() + pat.len() + 4;
        raw[blob + 80..blob + 88].fill(0);
        let err = match decode_checkpoint(bytes::Bytes::from(raw), engine()) {
            Err(e) => e,
            Ok(_) => panic!("zero boards_per_host accepted"),
        };
        assert!(err.to_string().contains("boards_per_host"), "{err}");
    }

    #[test]
    fn garbage_and_truncation_rejected() {
        assert!(decode_checkpoint(bytes::Bytes::from_static(b"nope"), DirectEngine::new()).is_err());
        let good = encode_checkpoint(&fresh(16, 7));
        for cut in [3, 15, good.len() / 2, good.len() - 1] {
            let mut raw = good.to_vec();
            raw.truncate(cut);
            assert!(
                decode_checkpoint(bytes::Bytes::from(raw), DirectEngine::new()).is_err(),
                "cut at {cut} should fail"
            );
        }
        let mut trailing = good.to_vec();
        trailing.push(0);
        assert!(decode_checkpoint(bytes::Bytes::from(trailing), DirectEngine::new()).is_err());
    }

    #[test]
    fn a_hostile_particle_count_reserves_nothing_and_is_rejected() {
        // The decoder reserves for the bodies the buffer can hold, not for
        // the count the header claims: u64::MAX particles over one real
        // record must come back as an error, not as an allocation failure.
        let sys = DiskBuilder::paper(1).with_seed(3).build();
        let mut raw = u64::MAX.to_le_bytes().to_vec();
        for field in [sys.t, sys.softening, sys.central_mass] {
            raw.extend_from_slice(&field.to_le_bytes());
        }
        raw.extend_from_slice(&(BINARY_PARTICLE_BYTES as u32).to_le_bytes());
        crate::io::encode_particle_range(&sys, 0..1, &mut raw);
        raw.extend_from_slice(&0u32.to_le_bytes());
        let err = decode_chunked_system(&mut Fields::new(&raw, "system header")).unwrap_err();
        assert!(err.to_string().contains("1 of the declared"), "{err}");
    }

    #[test]
    fn a_hostile_snapshot_count_is_rejected_not_wrapped() {
        // `24 + n·136` wraps to 40 for this `n`: the old length check passed
        // and the record loop ran off the buffer — a panic in the shim's
        // cursor in release, an overflowing multiply in debug — through
        // `load_binary_snapshot`, `load_auto` and a v1 G6CK alike.
        let n = u64::MAX / BINARY_PARTICLE_BYTES as u64 + 1;
        assert_eq!(n.wrapping_mul(BINARY_PARTICLE_BYTES as u64), 16);
        let sys = DiskBuilder::paper(1).with_seed(3).build();
        let mut snap = crate::io::encode_binary_snapshot(&sys).to_vec();
        snap[8..16].copy_from_slice(&n.to_le_bytes());
        let err = crate::io::decode_binary_snapshot(bytes::Bytes::from(snap.clone())).unwrap_err();
        assert!(err.to_string().contains("truncated body"), "G6SN: {err}");
        // The same snapshot as the system section of a v1 container.
        let mut v1 = CHECKPOINT_MAGIC.to_vec();
        v1.extend_from_slice(&1u32.to_le_bytes());
        v1.extend_from_slice(&(snap.len() as u64).to_le_bytes());
        v1.extend_from_slice(&snap);
        let err = match decode_checkpoint(bytes::Bytes::from(v1), DirectEngine::new()) {
            Err(e) => e,
            Ok(_) => panic!("hostile v1 particle count accepted"),
        };
        assert!(err.to_string().contains("truncated body"), "v1 G6CK: {err}");
    }

    #[test]
    fn a_dt_min_one_ulp_off_a_power_of_two_is_refused() {
        // A rounded `log2` took 2^-40 · (1 + 2^-52) for a power of two, and
        // the resume then tripped the tick scheduler's exact assert.
        let sim = fresh(16, 7);
        let mut raw = encode_checkpoint(&sim).to_vec();
        // The tail opens with eta, eta_start, dt_max, dt_min.
        let dt_min = raw.len() - encode_tail(&sim).len() + 3 * 8;
        assert_eq!(raw[dt_min..dt_min + 8], 2f64.powi(-40).to_le_bytes());
        raw[dt_min] ^= 1;
        let err = match decode_checkpoint(bytes::Bytes::from(raw), DirectEngine::new()) {
            Err(e) => e.to_string(),
            Ok(_) => panic!("dt_min one ulp off 2^-40 accepted"),
        };
        assert!(err.contains("dt_min"), "{err}");
    }

    #[test]
    fn a_softening_or_central_mass_not_finite_and_non_negative_is_refused() {
        // The GRAPE engines' `load` asserts a positive softening: a G6CK or
        // G6SN with a flipped sign bit must be refused before any engine
        // sees it. Both headers hold them at bytes 24..32 and 32..40.
        let sys = DiskBuilder::paper(16).with_seed(7).build();
        let ckpt = encode_checkpoint(&Simulation::new(sys.clone(), cfg(), DirectEngine::new()));
        let snap = crate::io::encode_binary_snapshot(&sys);
        for (at, name) in [(24, "softening"), (32, "central mass")] {
            for v in [-0.5, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                let patched = |good: &[u8]| {
                    let mut raw = good.to_vec();
                    raw[at..at + 8].copy_from_slice(&v.to_le_bytes());
                    bytes::Bytes::from(raw)
                };
                let err = match decode_checkpoint(patched(&ckpt), DirectEngine::new()) {
                    Err(e) => e.to_string(),
                    Ok(_) => panic!("G6CK {name} {v} accepted"),
                };
                assert!(err.contains(name), "G6CK {name} {v}: {err}");
                let err = crate::io::decode_binary_snapshot(patched(&snap)).unwrap_err();
                assert!(err.to_string().contains(name), "G6SN {name} {v}: {err}");
            }
        }
    }

    #[test]
    fn a_checkpoint_whose_system_fails_validate_is_refused() {
        // One row per case `ParticleSystem::validate` refuses in a record
        // that the clock checks pass: record 0's word `word` set to `v`.
        let good = encode_checkpoint(&fresh(16, 7));
        for (what, word, v, expect) in [
            ("x NaN", 0, f64::NAN, "particle 0 has non-finite state"),
            ("vx +inf", 3, f64::INFINITY, "particle 0 has non-finite state"),
            ("acc NaN", 6, f64::NAN, "particle 0 has non-finite state"),
            ("jerk -inf", 11, f64::NEG_INFINITY, "particle 0 has non-finite state"),
            ("mass -1", 12, -1.0, "particle 0 mass -1 is not a finite non-negative number"),
            ("mass +inf", 12, f64::INFINITY, "particle 0 mass inf is not a finite"),
        ] {
            let mut raw = good.to_vec();
            let at = HEADER_BYTES + 4 + 8 * word;
            raw[at..at + 8].copy_from_slice(&v.to_le_bytes());
            let err = match decode_checkpoint(bytes::Bytes::from(raw), DirectEngine::new()) {
                Err(e) => e.to_string(),
                Ok(_) => panic!("G6CK {what} accepted"),
            };
            assert!(err.contains(expect), "G6CK {what}: {err}");
        }
    }

    /// Decode a checkpoint at t = 1 (every body just stepped, so its time
    /// is 1 and its step 2^-2 or less) after `patch` rewrote the system time
    /// and record 0's time and step; the error it is refused with.
    fn refused_clock(patch: impl FnOnce(&mut f64, &mut f64, &mut f64)) -> String {
        let mut sim = fresh(16, 7);
        sim.run_to(1.0, 0.0);
        let mut raw = encode_checkpoint(&sim).to_vec();
        let word = |at: usize, raw: &[u8]| f64::from_le_bytes(raw[at..at + 8].try_into().unwrap());
        let (t_at, record) = (16, HEADER_BYTES + 4);
        let (time_at, dt_at) = (record + 13 * 8, record + 14 * 8);
        let (mut t, mut time, mut dt) = (word(t_at, &raw), word(time_at, &raw), word(dt_at, &raw));
        assert_eq!((t, time, sim.sys.dt[0]), (1.0, 1.0, dt));
        patch(&mut t, &mut time, &mut dt);
        for (at, v) in [(t_at, t), (time_at, time), (dt_at, dt)] {
            raw[at..at + 8].copy_from_slice(&v.to_le_bytes());
        }
        match decode_checkpoint(bytes::Bytes::from(raw), DirectEngine::new()) {
            Err(e) => {
                assert_eq!(e.kind(), std::io::ErrorKind::InvalidData);
                e.to_string()
            }
            Ok(_) => panic!("clock t = {t}, time = {time}, dt = {dt} accepted"),
        }
    }

    #[test]
    fn a_nan_step_is_refused() {
        let err = refused_clock(|_, _, dt| *dt = f64::NAN);
        assert!(err.contains("particle 0: step NaN is not a power of two"), "{err}");
    }

    #[test]
    fn a_step_off_the_power_of_two_ladder_is_refused() {
        let err = refused_clock(|_, _, dt| *dt = 0.3);
        assert!(err.contains("step 0.3 is not a power of two"), "{err}");
    }

    #[test]
    fn a_negative_step_is_refused() {
        let err = refused_clock(|_, _, dt| *dt = -1.0);
        assert!(err.contains("step -1 is not a power of two"), "{err}");
    }

    #[test]
    fn a_step_outside_dt_min_to_dt_max_is_refused() {
        let err = refused_clock(|_, _, dt| *dt = 0.5);
        assert!(err.contains("step 0.5 is not a power of two in [9.094947017729282e-13, 0.25]"));
        let err = refused_clock(|_, _, dt| *dt = 2f64.powi(-41));
        assert!(err.contains("is not a power of two in"), "{err}");
    }

    #[test]
    fn a_time_off_the_step_grid_is_refused() {
        let err = refused_clock(|_, time, dt| *time -= *dt / 2.0);
        assert!(err.contains("is not a non-negative multiple of its step"), "{err}");
        let err = refused_clock(|_, time, _| *time = f64::NAN);
        assert!(err.contains("time NaN is not a non-negative multiple"), "{err}");
        let err = refused_clock(|_, time, _| *time = -1.0);
        assert!(err.contains("time -1 is not a non-negative multiple"), "{err}");
    }

    #[test]
    fn a_time_after_the_system_time_is_refused() {
        let err = refused_clock(|_, time, dt| *time += *dt);
        assert!(err.contains("particle 0: system time 1 is outside its step"), "{err}");
    }

    #[test]
    fn a_step_that_ends_by_the_system_time_is_refused() {
        let err = refused_clock(|_, time, dt| *time -= *dt);
        assert!(err.contains("particle 0: system time 1 is outside its step"), "{err}");
    }

    #[test]
    fn a_next_time_beyond_the_tick_range_is_refused() {
        // 2^24 is 2^64 ticks of dt_min = 2^-40.
        let err = refused_clock(|t, time, _| (*t, *time) = (2f64.powi(24), 2f64.powi(24)));
        assert!(err.contains("particle 0: next time") && err.contains("u64 range"), "{err}");
    }

    fn streamed<E: ForceEngine>(sim: &Simulation<E>) -> Vec<u8> {
        let mut out = Vec::new();
        write_checkpoint(sim, &mut out).unwrap();
        out
    }

    #[test]
    fn a_dropped_checkpoint_is_rewritten_in_place_byte_for_byte() {
        let sim = fresh(300, 4);
        let first = encode_checkpoint(&sim);
        let (copy, at) = (first.to_vec(), first.as_slice().as_ptr());
        drop(first);
        // Same-sized memory the allocator would hand out next: a fresh
        // allocation could not land where the first container was.
        let decoy = vec![1u8; copy.len()];
        let second = encode_checkpoint(&sim);
        assert_eq!(second.as_slice().as_ptr(), at, "the dropped container was not reused");
        assert!(second.as_slice() == copy.as_slice(), "reused container bytes differ");
        assert!(second.as_slice() == streamed(&sim).as_slice());
        drop(decoy);
    }

    #[test]
    fn a_checkpoint_still_held_is_never_written() {
        let mut sim = fresh(64, 9);
        let held = encode_checkpoint(&sim);
        let copy = held.to_vec();
        sim.run_to(0.5, 0.0);
        let next = encode_checkpoint(&sim);
        assert_ne!(next.as_slice().as_ptr(), held.as_slice().as_ptr());
        assert!(held.as_slice() == copy.as_slice(), "a held checkpoint was overwritten");
        assert!(next.as_slice() == streamed(&sim).as_slice());
        assert!(next.as_slice() != copy.as_slice(), "the state did not move");
        // A view of part of a checkpoint keeps all of it from reuse.
        let header = next.slice(0..HEADER_BYTES);
        let header_copy = header.to_vec();
        let at = next.as_slice().as_ptr();
        drop(next);
        let again = encode_checkpoint(&sim);
        assert_ne!(again.as_slice().as_ptr(), at, "a container with a live view was reused");
        assert_eq!(header.to_vec(), header_copy);
    }

    /// The capacity of the allocation behind `ckpt`, once this thread's
    /// slot has let go of it.
    fn capacity_of(ckpt: bytes::Bytes) -> usize {
        LAST_CONTAINER.with(Cell::take);
        ckpt.try_into_mut().map_or(0, |buf| buf.capacity())
    }

    #[test]
    fn a_larger_container_reused_for_a_smaller_system_has_the_exact_length() {
        let big = encode_checkpoint(&fresh(400, 1));
        let (big_len, at) = (big.len(), big.as_slice().as_ptr());
        drop(big);
        let smaller_sim = fresh(300, 2);
        let smaller = encode_checkpoint(&smaller_sim);
        assert_eq!(smaller.as_slice().as_ptr(), at, "the larger container was not reused");
        let expect = streamed(&smaller_sim);
        assert!(smaller.len() < big_len);
        assert_eq!(smaller.len(), expect.len());
        assert!(smaller.as_slice() == expect.as_slice(), "stale bytes in a reused container");
        drop(smaller);
        // Too small a container for the next system: a fresh, exact one.
        let bigger_sim = fresh(500, 3);
        let bigger = encode_checkpoint(&bigger_sim);
        assert!(bigger.as_slice() == streamed(&bigger_sim).as_slice());
        drop(bigger);
        // More than twice what the next system needs: let go, so that a
        // small checkpoint never holds a large allocation.
        let small_sim = fresh(40, 4);
        let small = encode_checkpoint(&small_sim);
        let expect = streamed(&small_sim);
        assert!(small.as_slice() == expect.as_slice());
        assert_eq!(capacity_of(small), expect.len(), "a small checkpoint kept a large container");
    }

    #[test]
    fn a_container_dropped_on_another_thread_is_reclaimed() {
        let sim = fresh(300, 4);
        let ckpt = encode_checkpoint(&sim);
        let (len, at) = (ckpt.len(), ckpt.as_slice().as_ptr());
        // Resumed, and so dropped, on another thread.
        let resumed = std::thread::spawn(move || {
            decode_checkpoint(ckpt, DirectEngine::new()).map(|s| s.sys.len())
        });
        assert_eq!(resumed.join().unwrap().unwrap(), sim.sys.len());
        let decoy = vec![1u8; len];
        let next = encode_checkpoint(&sim);
        assert_eq!(next.as_slice().as_ptr(), at, "not reclaimed across threads");
        assert!(next.as_slice() == streamed(&sim).as_slice());
        drop(decoy);
    }

    #[test]
    fn encode_checkpoint_is_the_streamed_container_byte_for_byte() {
        // Chunk boundaries on either side of every count; every record field
        // distinct, so a misplaced word would show. The clocks are a state
        // the decoder accepts: every body stepped at t = 0.25 with dt 0.125.
        for n in [1usize, 8191, 8192, 8193, 20000] {
            let mut sys = ParticleSystem::new(0.008, 1.0);
            sys.t = 0.25;
            for i in 0..n {
                let x = i as f64;
                let v = |k: f64| grape6_core::vec3::Vec3::new(x + k, -x * k, 1.0 / (x + k));
                sys.push_with_id(v(0.5), v(1.5), 1e-9 * (1.0 + x), 3 * i as u64 + 1);
                (sys.acc[i], sys.jerk[i]) = (v(2.5), v(3.5));
                (sys.time[i], sys.dt[i], sys.pot[i]) = (0.25, 0.125, -x);
            }
            let sim = Simulation {
                sys,
                integrator: BlockHermite::new(cfg()),
                engine: DirectEngine::new(),
                ledger: EnergyLedger { e0: -1.5, l0: 2.5 },
                block_hist: BlockSizeHistogram::new(),
                diagnostics: Vec::new(),
                radius_model: None,
                accretion_log: Default::default(),
                encounter_log: None,
                telemetry: None,
            };
            let mut streamed = Vec::new();
            write_checkpoint(&sim, &mut streamed).unwrap();
            let encoded = encode_checkpoint(&sim);
            assert_eq!(encoded.len(), streamed.len(), "n={n}");
            assert!(encoded.as_slice() == streamed.as_slice(), "n={n}: bytes differ");
            let back = decode_checkpoint(encoded, DirectEngine::new()).unwrap();
            assert_bitwise_equal(&sim.sys, &back.sys);
            assert_eq!(
                (back.sys.mass, back.sys.pot, back.sys.id),
                (sim.sys.mass, sim.sys.pot, sim.sys.id)
            );
        }
    }
}
