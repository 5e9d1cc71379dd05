//! The canonical GRAPE-6 host library interface.
//!
//! Real GRAPE-6 programs (NBODY4, Kokubo & Ida's planetesimal codes, the
//! paper's own driver) talked to the hardware through a small C API —
//! `g6_open`, `g6_set_j_particle`, `g6_set_ti`, `g6calc_firsthalf`,
//! `g6calc_lasthalf`, `g6_close` — with the *firsthalf/lasthalf* split
//! letting the host overlap its own integration work with the pipeline
//! sweep. This module reproduces that interface over the simulated machine,
//! including the split-call overlap accounting, so existing GRAPE-style
//! driver structure ports over directly.

use crate::engine::{Grape6Config, Grape6Engine};
use crate::predictor::JParticle;
use grape6_core::engine::ForceEngine;
use grape6_core::particle::{ForceResult, IParticle, ParticleSystem};
use grape6_core::vec3::Vec3;

/// Errors from the host API (mirrors the C library's return codes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum G6Error {
    /// A calc was started while another was pending.
    CalcPending,
    /// `lasthalf` without a preceding `firsthalf`.
    NoCalcPending,
    /// j address past the end of the loaded region or of the j-memory.
    BadAddress,
}

impl std::fmt::Display for G6Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            G6Error::CalcPending => write!(f, "g6calc already pending"),
            G6Error::NoCalcPending => write!(f, "no g6calc pending"),
            G6Error::BadAddress => write!(f, "bad j-particle address"),
        }
    }
}

impl std::error::Error for G6Error {}

/// An open GRAPE-6 "cluster" handle, in the style of the C host library.
pub struct G6Handle {
    engine: Grape6Engine,
    /// The predict time set by `set_ti`.
    ti: f64,
    /// Pending firsthalf state: the i-particles awaiting `lasthalf`.
    pending: Option<Vec<IParticle>>,
}

/// Open the (simulated) hardware — `g6_open(clusterid)`. `capacity_hint`
/// reserves j-memory for that many particles.
pub fn g6_open(config: Grape6Config, softening: f64, capacity_hint: usize) -> G6Handle {
    let mut engine = Grape6Engine::new(config);
    engine.reset_jmem(softening, capacity_hint);
    G6Handle { engine, ti: 0.0, pending: None }
}

impl G6Handle {
    /// `g6_set_j_particle`: write one particle into hardware address
    /// `address`. Addresses must be filled densely from 0 (as the DMA does);
    /// rewriting an existing address updates it. A hole, or an append past
    /// the node's j-memory capacity, is [`G6Error::BadAddress`].
    #[allow(clippy::too_many_arguments)]
    pub fn set_j_particle(
        &mut self,
        address: usize,
        mass: f64,
        pos: Vec3,
        vel: Vec3,
        acc: Vec3,
        jerk: Vec3,
        t0: f64,
    ) -> Result<(), G6Error> {
        let config = &self.engine.config;
        let word =
            JParticle::encode(&config.format, config.precision, pos, vel, acc, jerk, mass, t0);
        self.engine.write_j(address, word).map_err(|_| G6Error::BadAddress)
    }

    /// Particle `i` of `sys` into address `i`.
    fn set_from_system(&mut self, sys: &ParticleSystem, i: usize) -> Result<(), G6Error> {
        let (acc, jerk) = (sys.acc[i], sys.jerk[i]);
        self.set_j_particle(i, sys.mass[i], sys.pos[i], sys.vel[i], acc, jerk, sys.time[i])
    }

    /// `g6_set_ti`: set the prediction time for the next force calculation.
    pub fn set_ti(&mut self, ti: f64) {
        self.ti = ti;
    }

    /// Loaded j-particle count.
    pub fn n_j(&self) -> usize {
        self.engine.n_j()
    }

    /// `g6calc_firsthalf`: start the pipeline sweep for the given
    /// i-particles. Returns immediately in the real library (DMA + pipelines
    /// run while the host works); here the sweep runs eagerly but the
    /// modeled hardware time is charged identically, so the overlap
    /// accounting matches.
    pub fn calc_firsthalf(&mut self, ips: &[IParticle]) -> Result<(), G6Error> {
        if self.pending.is_some() {
            return Err(G6Error::CalcPending);
        }
        self.pending = Some(ips.to_vec());
        Ok(())
    }

    /// `g6calc_lasthalf`: collect the forces started by the previous
    /// `calc_firsthalf`.
    pub fn calc_lasthalf(&mut self) -> Result<Vec<ForceResult>, G6Error> {
        let ips = self.pending.take().ok_or(G6Error::NoCalcPending)?;
        let mut out = vec![ForceResult::default(); ips.len()];
        self.engine.compute(self.ti, &ips, &mut out);
        Ok(out)
    }

    /// Convenience: firsthalf + lasthalf in one call (`g6calc`).
    pub fn calc(&mut self, ips: &[IParticle]) -> Result<Vec<ForceResult>, G6Error> {
        self.calc_firsthalf(ips)?;
        self.calc_lasthalf()
    }

    /// Modeled hardware seconds accumulated.
    pub fn hardware_seconds(&self) -> f64 {
        self.engine.clock().seconds()
    }

    /// `g6_close`: release the hardware; returns the performance report.
    pub fn close(self) -> crate::perf::PerfReport {
        self.engine.perf_report()
    }
}

/// The host-API handle is itself a [`ForceEngine`], so a GRAPE-style driver
/// and the modern `Simulation` driver are interchangeable — and provably
/// produce identical trajectories (see the tests).
impl ForceEngine for G6Handle {
    fn load(&mut self, sys: &ParticleSystem) {
        self.engine.reset_jmem(sys.softening, sys.len());
        for i in 0..sys.len() {
            self.set_from_system(sys, i).expect("particle set exceeds node j-memory capacity");
        }
    }

    fn update_j(&mut self, sys: &ParticleSystem, indices: &[usize]) {
        for &i in indices {
            self.set_from_system(sys, i).expect("update of a loaded address cannot fail");
        }
    }

    fn compute(&mut self, t: f64, ips: &[IParticle], out: &mut [ForceResult]) {
        self.set_ti(t);
        let forces = self.calc(ips).expect("no calc can be pending here");
        out.copy_from_slice(&forces);
    }

    fn interaction_count(&self) -> u64 {
        self.engine.interaction_count()
    }

    fn reset_counters(&mut self) {
        self.engine.reset_counters();
    }

    fn name(&self) -> &'static str {
        "g6-host-api"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring(n: usize, r: f64) -> ParticleSystem {
        let mut sys = ParticleSystem::new(0.008, 1.0);
        let v = grape6_core::units::circular_speed(r, 1.0);
        for k in 0..n {
            let th = k as f64 * std::f64::consts::TAU / n as f64;
            sys.push(
                Vec3::new(r * th.cos(), r * th.sin(), 0.0),
                Vec3::new(-v * th.sin(), v * th.cos(), 0.0),
                1e-9,
            );
        }
        sys
    }

    fn handle_with_ring(n: usize) -> G6Handle {
        let mut h = g6_open(Grape6Config::sc2002(), 0.008, n);
        let sys = ring(n, 20.0);
        for k in 0..n {
            h.set_j_particle(k, 1e-9, sys.pos[k], sys.vel[k], Vec3::zero(), Vec3::zero(), 0.0)
                .unwrap();
        }
        h
    }

    #[test]
    fn canonical_call_sequence_works() {
        let mut h = handle_with_ring(64);
        assert_eq!(h.n_j(), 64);
        h.set_ti(0.0);
        let ips = [IParticle {
            index: usize::MAX, // external test particle, not in j-memory
            pos: Vec3::new(25.0, 0.0, 0.0),
            vel: Vec3::zero(),
        }];
        h.calc_firsthalf(&ips).unwrap();
        let f = h.calc_lasthalf().unwrap();
        assert_eq!(f.len(), 1);
        assert!(f[0].acc.norm() > 0.0);
        let report = h.close();
        assert!(report.interactions >= 64);
    }

    #[test]
    fn firsthalf_twice_is_an_error() {
        let mut h = handle_with_ring(8);
        let ips = [IParticle { index: usize::MAX, pos: Vec3::zero(), vel: Vec3::zero() }];
        h.calc_firsthalf(&ips).unwrap();
        assert_eq!(h.calc_firsthalf(&ips), Err(G6Error::CalcPending));
        h.calc_lasthalf().unwrap();
    }

    #[test]
    fn lasthalf_without_firsthalf_is_an_error() {
        let mut h = handle_with_ring(8);
        assert!(matches!(h.calc_lasthalf(), Err(G6Error::NoCalcPending)));
    }

    #[test]
    fn sparse_address_rejected() {
        let mut h = g6_open(Grape6Config::sc2002(), 0.008, 4);
        assert_eq!(
            h.set_j_particle(3, 1e-9, Vec3::zero(), Vec3::zero(), Vec3::zero(), Vec3::zero(), 0.0),
            Err(G6Error::BadAddress)
        );
    }

    #[test]
    fn append_past_the_j_memory_is_a_bad_address() {
        // 2 chips × 2 words: the fifth particle has nowhere to go.
        let mut config = Grape6Config::single_host();
        config.timing.geometry.board.chips = 2;
        config.timing.geometry.board.chip.jmem_capacity = 2;
        let mut h = g6_open(config, 0.008, 8);
        let sys = ring(5, 20.0);
        for k in 0..4 {
            assert_eq!(h.set_from_system(&sys, k), Ok(()));
        }
        assert_eq!(h.set_from_system(&sys, 4), Err(G6Error::BadAddress));
        assert_eq!(h.n_j(), 4);
        // Overwriting a resident address still works on a full memory.
        assert_eq!(h.set_from_system(&sys, 3), Ok(()));
    }

    #[test]
    fn reload_of_the_same_n_replaces_the_first_system() {
        // `ForceEngine::load` is "(re)load the complete particle set": after
        // a second load of as many particles, forces come from the second
        // set — bit for bit a fresh engine's.
        let (first, second) = (ring(46, 20.0), ring(46, 31.0));
        let ips: Vec<IParticle> = (0..46)
            .map(|i| IParticle { index: i, pos: second.pos[i], vel: second.vel[i] })
            .collect();
        let mut got = vec![ForceResult::default(); 46];
        let mut want = got.clone();
        let mut h = g6_open(Grape6Config::sc2002(), 0.008, 46);
        h.load(&first);
        h.compute(0.0, &ips, &mut got);
        h.load(&second);
        h.compute(0.0, &ips, &mut got);
        let mut fresh = Grape6Engine::sc2002();
        fresh.load(&second);
        fresh.compute(0.0, &ips, &mut want);
        assert_eq!(got, want);
    }

    #[test]
    fn rewriting_an_address_changes_the_force() {
        let mut h = handle_with_ring(4);
        let probe = [IParticle { index: usize::MAX, pos: Vec3::zero(), vel: Vec3::zero() }];
        let before = h.calc(&probe).unwrap()[0];
        h.set_j_particle(
            0,
            1e-6, // much heavier now
            Vec3::new(20.0, 0.0, 0.0),
            Vec3::zero(),
            Vec3::zero(),
            Vec3::zero(),
            0.0,
        )
        .unwrap();
        let after = h.calc(&probe).unwrap()[0];
        assert!(after.acc.norm() > 10.0 * before.acc.norm());
    }

    #[test]
    fn host_api_drives_integrations_bit_identically_to_engine() {
        use grape6_core::integrator::{BlockHermite, HermiteConfig};

        fn disk() -> ParticleSystem {
            let mut sys = ParticleSystem::new(0.008, 1.0);
            for k in 0..48 {
                let th = k as f64 * 0.81;
                let r = 16.0 + 0.4 * k as f64;
                let v = grape6_core::units::circular_speed(r, 1.0);
                sys.push(
                    Vec3::new(r * th.cos(), r * th.sin(), 0.01 * th.sin()),
                    Vec3::new(-v * th.sin(), v * th.cos(), 0.0),
                    2e-9,
                );
            }
            sys
        }
        let config = HermiteConfig { dt_max: 8.0, ..HermiteConfig::default() };

        let mut sys_a = disk();
        let mut engine_a = Grape6Engine::sc2002();
        let mut integ_a = BlockHermite::new(config);
        integ_a.initialize(&mut sys_a, &mut engine_a);
        integ_a.evolve(&mut sys_a, &mut engine_a, 4.0);

        let mut sys_b = disk();
        let mut handle = g6_open(Grape6Config::sc2002(), 0.008, 48);
        let mut integ_b = BlockHermite::new(config);
        integ_b.initialize(&mut sys_b, &mut handle);
        integ_b.evolve(&mut sys_b, &mut handle, 4.0);

        assert_eq!(integ_a.stats().block_steps, integ_b.stats().block_steps);
        for i in 0..sys_a.len() {
            assert_eq!(sys_a.pos[i], sys_b.pos[i], "particle {i}");
            assert_eq!(sys_a.vel[i], sys_b.vel[i], "particle {i}");
        }
    }

    #[test]
    fn set_ti_controls_prediction() {
        let mut h = g6_open(Grape6Config::sc2002(), 0.008, 1);
        // One source moving along +x at v = 1 from x = 10.
        h.set_j_particle(
            0,
            1e-6,
            Vec3::new(10.0, 0.0, 0.0),
            Vec3::new(1.0, 0.0, 0.0),
            Vec3::zero(),
            Vec3::zero(),
            0.0,
        )
        .unwrap();
        let probe = [IParticle { index: usize::MAX, pos: Vec3::zero(), vel: Vec3::zero() }];
        h.set_ti(0.0);
        let f0 = h.calc(&probe).unwrap()[0].acc.x;
        h.set_ti(10.0); // source now at x = 20 → force ×(10/20)² = 1/4
        let f1 = h.calc(&probe).unwrap()[0].acc.x;
        assert!((f0 / f1 - 4.0).abs() < 1e-3, "{}", f0 / f1);
    }
}
