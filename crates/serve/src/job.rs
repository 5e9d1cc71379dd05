//! Job specifications, the canonical cache key, and the slice runner that
//! executes a job's simulation between preemption points.
//!
//! ## Cache exactness
//!
//! A job's result is a pure function of its *effective* specification: the
//! disk realization seed and the integrator/engine configuration, with every
//! defaulted field resolved. Engines are bit-deterministic (any thread
//! count, any lane width), and checkpoint/resume is
//! bit-identical, so two jobs with the same effective specification produce
//! byte-identical result snapshots no matter how often either was preempted.
//! That is what lets the server cache results *exactly*: the cache key is
//! the canonical encoding of the effective specification itself (not a
//! hash), so distinct configurations can never collide, and a cache hit
//! returns the same bytes a fresh run would produce.

use grape6_core::blockstep::TickScheduler;
use grape6_core::force::DirectEngine;
use grape6_core::integrator::{HermiteConfig, RunStats};
use grape6_disk::DiskBuilder;
use grape6_hw::{Grape6Config, Grape6Engine};
use grape6_sim::{decode_checkpoint, encode_checkpoint, Simulation};
use serde::{Deserialize, Serialize};

/// `dt_max` used when a submission leaves the field at its 0 default.
pub const DEFAULT_DT_MAX: f64 = 0.25;

/// One job: a seeded scaled-down paper disk integrated to `t_end`.
///
/// Fields left at their `Default` value (0 / empty string) are resolved to
/// the documented effective defaults; the cache key is computed over the
/// *resolved* values, so an explicit `"dt_max": 0.25` and an omitted
/// `dt_max` are the same configuration (and the same cached result).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobSpec {
    /// Planetesimal count (two protoplanets ride on top, as everywhere in
    /// this workspace).
    pub n: u64,
    /// Disk realization seed — the scenario seed of the cache key.
    pub seed: u64,
    /// Integration span in simulation time units.
    pub t_end: f64,
    /// Largest block timestep; 0 means [`DEFAULT_DT_MAX`].
    #[serde(default)]
    pub dt_max: f64,
    /// Aarseth accuracy parameter; 0 means the [`HermiteConfig`] default.
    #[serde(default)]
    pub eta: f64,
    /// Force engine: `"direct"` (default) or `"grape6"` (single-host
    /// GRAPE-6 functional + timing simulator).
    #[serde(default)]
    pub engine: String,
}

/// Which engine a resolved spec runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineSel {
    /// CPU direct summation.
    Direct,
    /// Single-host GRAPE-6 simulator.
    Grape6,
}

impl JobSpec {
    /// Resolved `dt_max` (the effective value the run and cache key use).
    pub fn effective_dt_max(&self) -> f64 {
        if self.dt_max == 0.0 {
            DEFAULT_DT_MAX
        } else {
            self.dt_max
        }
    }

    /// Resolved `eta`.
    pub fn effective_eta(&self) -> f64 {
        if self.eta == 0.0 {
            HermiteConfig::default().eta
        } else {
            self.eta
        }
    }

    /// Resolved engine selector.
    pub fn engine_sel(&self) -> Result<EngineSel, String> {
        match self.engine.as_str() {
            "" | "direct" => Ok(EngineSel::Direct),
            "grape6" => Ok(EngineSel::Grape6),
            other => Err(format!("unknown engine '{other}' (expected 'direct' or 'grape6')")),
        }
    }

    /// Resolved engine name (as the cache key spells it).
    pub fn effective_engine(&self) -> Result<&'static str, String> {
        Ok(match self.engine_sel()? {
            EngineSel::Direct => "direct",
            EngineSel::Grape6 => "grape6",
        })
    }

    /// The integrator configuration this spec resolves to.
    pub fn hermite_config(&self) -> HermiteConfig {
        HermiteConfig {
            eta: self.effective_eta(),
            dt_max: self.effective_dt_max(),
            ..HermiteConfig::default()
        }
    }

    /// Validate a submission against server limits. Rejection here is a
    /// submit-time error (counted in the tenant's `rejected` telemetry);
    /// anything that passes can be scheduled.
    pub fn validate(&self, max_bodies: u64) -> Result<(), String> {
        if self.n == 0 {
            return Err("n must be at least 1".into());
        }
        // The disk adds two protoplanets; `n + 2` would wrap for a hostile n.
        if self.n > max_bodies.saturating_sub(2) {
            return Err(format!("n = {} exceeds the server's {max_bodies}-body limit", self.n));
        }
        if !self.t_end.is_finite() || self.t_end < 0.0 {
            return Err(format!("t_end = {} must be finite and non-negative", self.t_end));
        }
        let config = self.hermite_config();
        config.validate()?;
        // The run's tick scheduler counts time in u64 ticks of dt_min: an
        // end it cannot hold is refused here, at submit, naming the range.
        TickScheduler::check_span(0.0, self.t_end, config.dt_min)?;
        self.engine_sel()?;
        Ok(())
    }

    /// Canonical cache key: an injective encoding of the *effective*
    /// specification. Every field appears at a fixed position with a fixed
    /// separator, floats are spelled as their exact bit patterns, and the
    /// engine name (the only free-form field) comes last — so two specs
    /// that differ in any effective field encode to different keys, and two
    /// specs with the same effective fields encode to the same key. The
    /// key IS the identity; [`Self::config_hash`] is only a display digest.
    pub fn canonical_key(&self) -> Result<String, String> {
        Ok(format!(
            "n={};seed={};t_end={:016x};dt_max={:016x};eta={:016x};engine={}",
            self.n,
            self.seed,
            self.t_end.to_bits(),
            self.effective_dt_max().to_bits(),
            self.effective_eta().to_bits(),
            self.effective_engine()?,
        ))
    }

    /// FNV-1a 64 digest of [`Self::canonical_key`], for logs and telemetry
    /// (the cache itself matches full keys, never digests).
    pub fn config_hash(&self) -> Result<u64, String> {
        let mut h: u64 = 0xcbf29ce484222325;
        for b in self.canonical_key()?.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        Ok(h)
    }
}

/// Counters and final state of a finished job, shared between the job
/// table, the result cache, and every coalesced duplicate.
#[derive(Debug, Clone, PartialEq)]
pub struct JobResultData {
    /// `G6SN` binary snapshot of the final particle system — the bytes the
    /// cache-exactness contract is stated over.
    pub snapshot: bytes::Bytes,
    /// Run statistics of the (single) computation that produced it.
    pub stats: RunStats,
}

/// What one time slice did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SliceReport {
    /// Block steps executed in this slice.
    pub blocks: u64,
    /// True when the job reached `t_end` (no event remains at or before it).
    pub done: bool,
}

/// A live simulation for one job, dispatched over the engine kinds the
/// server supports. Pause (checkpoint) and resume go through the `G6CK` v2
/// container, so a preempted job continues bit-identically.
pub enum RunnerSim {
    /// CPU direct-summation job.
    Direct(Box<Simulation<DirectEngine>>),
    /// Single-host GRAPE-6 job.
    Grape6(Box<Simulation<Grape6Engine>>),
}

impl RunnerSim {
    /// Start a job from scratch: build the seeded disk and initialize.
    pub fn fresh(spec: &JobSpec) -> Result<Self, String> {
        let sys = DiskBuilder::paper(spec.n as usize).with_seed(spec.seed).build();
        let cfg = spec.hermite_config();
        Ok(match spec.engine_sel()? {
            EngineSel::Direct => {
                Self::Direct(Box::new(Simulation::new(sys, cfg, DirectEngine::new())))
            }
            EngineSel::Grape6 => Self::Grape6(Box::new(Simulation::new(
                sys,
                cfg,
                Grape6Engine::new(Grape6Config::single_host()),
            ))),
        })
    }

    /// Resume a preempted job from its `G6CK` checkpoint bytes.
    pub fn resume(spec: &JobSpec, ckpt: bytes::Bytes) -> Result<Self, String> {
        Ok(match spec.engine_sel()? {
            EngineSel::Direct => Self::Direct(Box::new(
                decode_checkpoint(ckpt, DirectEngine::new()).map_err(|e| e.to_string())?,
            )),
            EngineSel::Grape6 => Self::Grape6(Box::new(
                decode_checkpoint(ckpt, Grape6Engine::new(Grape6Config::single_host()))
                    .map_err(|e| e.to_string())?,
            )),
        })
    }

    /// Pause: serialize the full `G6CK` v2 checkpoint container.
    pub fn checkpoint(&self) -> bytes::Bytes {
        match self {
            Self::Direct(sim) => encode_checkpoint(sim),
            Self::Grape6(sim) => encode_checkpoint(sim),
        }
    }

    /// Run up to `max_blocks` block steps toward `t_end`.
    pub fn run_slice(&mut self, t_end: f64, max_blocks: u64) -> SliceReport {
        fn drive<E: grape6_core::engine::ForceEngine>(
            sim: &mut Simulation<E>,
            t_end: f64,
            max_blocks: u64,
        ) -> SliceReport {
            let mut blocks = 0;
            while blocks < max_blocks {
                if !sim.integrator.next_time().is_some_and(|t| t <= t_end) {
                    return SliceReport { blocks, done: true };
                }
                sim.step();
                blocks += 1;
            }
            let done = !sim.integrator.next_time().is_some_and(|t| t <= t_end);
            SliceReport { blocks, done }
        }
        match self {
            Self::Direct(sim) => drive(sim, t_end, max_blocks),
            Self::Grape6(sim) => drive(sim, t_end, max_blocks),
        }
    }

    /// Final result: the binary snapshot bytes plus run statistics.
    pub fn result(&self) -> JobResultData {
        let (snapshot, stats) = match self {
            Self::Direct(sim) => (grape6_sim::io::encode_binary_snapshot(&sim.sys), sim.stats()),
            Self::Grape6(sim) => (grape6_sim::io::encode_binary_snapshot(&sim.sys), sim.stats()),
        };
        JobResultData { snapshot, stats }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> JobSpec {
        JobSpec { n: 16, seed: 7, t_end: 0.5, dt_max: 0.0, eta: 0.0, engine: String::new() }
    }

    #[test]
    fn defaults_resolve_and_key_is_effective() {
        let a = spec();
        let mut b = spec();
        b.dt_max = DEFAULT_DT_MAX;
        b.engine = "direct".into();
        // Same effective configuration -> same key and digest.
        assert_eq!(a.canonical_key().unwrap(), b.canonical_key().unwrap());
        assert_eq!(a.config_hash().unwrap(), b.config_hash().unwrap());
    }

    #[test]
    fn every_effective_field_feeds_the_key() {
        let base = spec().canonical_key().unwrap();
        for (label, tweaked) in [
            ("n", JobSpec { n: 17, ..spec() }),
            ("seed", JobSpec { seed: 8, ..spec() }),
            ("t_end", JobSpec { t_end: 0.75, ..spec() }),
            ("dt_max", JobSpec { dt_max: 0.125, ..spec() }),
            ("eta", JobSpec { eta: 0.005, ..spec() }),
            ("engine", JobSpec { engine: "grape6".into(), ..spec() }),
        ] {
            assert_ne!(tweaked.canonical_key().unwrap(), base, "field {label} must feed the key");
        }
    }

    #[test]
    fn validation_rejects_nonsense() {
        assert!(spec().validate(4096).is_ok());
        assert!(JobSpec { n: 0, ..spec() }.validate(4096).is_err());
        assert!(JobSpec { n: 9999, ..spec() }.validate(4096).is_err());
        assert!(JobSpec { t_end: f64::NAN, ..spec() }.validate(4096).is_err());
        assert!(JobSpec { t_end: -1.0, ..spec() }.validate(4096).is_err());
        assert!(JobSpec { engine: "warp".into(), ..spec() }.validate(4096).is_err());
        assert!(JobSpec { dt_max: -0.5, ..spec() }.validate(4096).is_err());
    }

    #[test]
    fn an_end_beyond_the_tick_range_is_refused_at_submit() {
        // 2^24 is 2^64 ticks of the fixed dt_min = 2^-40.
        assert_eq!(spec().hermite_config().dt_min, 2f64.powi(-40));
        let limit = 2f64.powi(24);
        let below = f64::from_bits(limit.to_bits() - 1);
        assert!(JobSpec { t_end: below, ..spec() }.validate(4096).is_ok());
        let err = JobSpec { t_end: limit, ..spec() }.validate(4096).unwrap_err();
        assert!(err.contains("ticks") && err.contains("u64 range"), "{err}");
    }

    #[test]
    fn slice_runner_finishes_and_matches_one_shot() {
        let s = spec();
        let mut sliced = RunnerSim::fresh(&s).unwrap();
        let mut total = 0;
        loop {
            let rep = sliced.run_slice(s.t_end, 5);
            total += rep.blocks;
            if rep.done {
                break;
            }
        }
        let mut oneshot = RunnerSim::fresh(&s).unwrap();
        let rep = oneshot.run_slice(s.t_end, u64::MAX);
        assert_eq!(total, rep.blocks);
        assert!(rep.done);
        assert_eq!(sliced.result(), oneshot.result());
    }

    #[test]
    fn checkpoint_pause_resume_is_bit_identical() {
        let s = spec();
        let mut reference = RunnerSim::fresh(&s).unwrap();
        reference.run_slice(s.t_end, u64::MAX);

        let mut interrupted = RunnerSim::fresh(&s).unwrap();
        interrupted.run_slice(s.t_end, 7);
        let ckpt = interrupted.checkpoint();
        drop(interrupted);
        let mut resumed = RunnerSim::resume(&s, ckpt).unwrap();
        resumed.run_slice(s.t_end, u64::MAX);

        assert_eq!(reference.result(), resumed.result());
    }

    #[test]
    fn grape6_jobs_run_too() {
        let s = JobSpec { engine: "grape6".into(), n: 8, t_end: 0.25, ..spec() };
        let mut sim = RunnerSim::fresh(&s).unwrap();
        let rep = sim.run_slice(s.t_end, u64::MAX);
        assert!(rep.done && rep.blocks > 0);
        assert!(sim.result().stats.interactions > 0);
    }
}
