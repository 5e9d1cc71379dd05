//! The f64 j-particle memory: one store and one predictor for every host
//! engine.
//!
//! GRAPE-6 holds *one* j-particle memory with *one* predictor unit in front
//! of its force pipelines (paper Fig 1, §5.2). [`JMemory`] is that unit on
//! the host: each particle's state at its individual time, the Hermite
//! predictor over it ([`JMemory::predicted`], [`JMemory::predict_all`],
//! [`JMemory::predict_lanes`]) and the persistent scratch the full-system
//! prediction lands in. Prediction is a pure function of `(j, t)` — the
//! expression tree of [`crate::hermite::predict`] and nothing else — so
//! predicting on the fly, in lanes, in chunks, or on any thread count yields
//! identical bits.
//!
//! The state is held one `f64` array per component (the only copy), so the
//! [`J_LANES`] consecutive j-particles of a [`JGroup`] load contiguously.

use crate::hermite;
use crate::lanes::{JGroup, J_LANES};
use crate::particle::ParticleSystem;
use crate::vec3::Vec3;
use rayon::prelude::*;

/// j-particles per parallel chunk of the full-system prediction sweep.
/// Large enough to amortize work-item scheduling at paper-scale N, small
/// enough that a handful of chunks still load-balance a small host.
const PREDICT_CHUNK: usize = 4096;

/// One vector quantity of every particle, a component per array.
#[derive(Debug, Default, Clone)]
struct Components {
    x: Vec<f64>,
    y: Vec<f64>,
    z: Vec<f64>,
}

impl Components {
    fn load(&mut self, src: &[Vec3]) {
        self.x.clear();
        self.y.clear();
        self.z.clear();
        self.x.extend(src.iter().map(|v| v.x));
        self.y.extend(src.iter().map(|v| v.y));
        self.z.extend(src.iter().map(|v| v.z));
    }

    #[inline(always)]
    fn get(&self, j: usize) -> Vec3 {
        Vec3::new(self.x[j], self.y[j], self.z[j])
    }

    #[inline]
    fn set(&mut self, j: usize, v: Vec3) {
        (self.x[j], self.y[j], self.z[j]) = (v.x, v.y, v.z);
    }
}

/// Mirror of the particle set as the force engines see it.
#[derive(Debug, Default, Clone)]
pub struct JMemory {
    /// State at each particle's individual time.
    pos: Components,
    vel: Components,
    acc: Components,
    jerk: Components,
    mass: Vec<f64>,
    time: Vec<f64>,
    /// Predicted state: persistent scratch sized by `load`, refreshed in
    /// place by `predict_all`.
    ppos: Vec<Vec3>,
    pvel: Vec<Vec3>,
}

impl JMemory {
    /// Number of resident j-particles.
    #[inline]
    pub fn len(&self) -> usize {
        self.mass.len()
    }

    /// True when no particles are resident.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.mass.is_empty()
    }

    /// Masses of the resident particles.
    #[inline]
    pub fn mass(&self) -> &[f64] {
        &self.mass
    }

    /// (Re)load the complete particle set. The prediction scratch is sized
    /// here, once, so `predict_all` never touches the allocator.
    pub fn load(&mut self, sys: &ParticleSystem) {
        self.pos.load(&sys.pos);
        self.vel.load(&sys.vel);
        self.acc.load(&sys.acc);
        self.jerk.load(&sys.jerk);
        self.mass.clone_from(&sys.mass);
        self.time.clone_from(&sys.time);
        self.ppos.resize(sys.len(), Vec3::zero());
        self.pvel.resize(sys.len(), Vec3::zero());
    }

    /// Refresh the entries of the given (just-corrected) particles.
    pub fn update(&mut self, sys: &ParticleSystem, indices: &[usize]) {
        for &i in indices {
            self.pos.set(i, sys.pos[i]);
            self.vel.set(i, sys.vel[i]);
            self.acc.set(i, sys.acc[i]);
            self.jerk.set(i, sys.jerk[i]);
            self.mass[i] = sys.mass[i];
            self.time[i] = sys.time[i];
        }
    }

    /// Particle `j` predicted to time `t`.
    #[inline(always)]
    // grape6-lint: hot
    pub fn predicted(&self, j: usize, t: f64) -> (Vec3, Vec3) {
        hermite::predict(
            self.pos.get(j),
            self.vel.get(j),
            self.acc.get(j),
            self.jerk.get(j),
            t - self.time[j],
        )
    }

    /// The `w` particles from `j0` on (`1 <= w <= J_LANES`) predicted to
    /// time `t`, one per lane: [`hermite::predict`] lane by lane, so bit for
    /// bit [`Self::predicted`]. A ragged group replicates its last particle
    /// into the lanes beyond `w`.
    #[inline(always)]
    // grape6-lint: hot
    pub fn predict_lanes(&self, j0: usize, w: usize, t: f64) -> JGroup {
        assert!((1..=J_LANES).contains(&w), "a j-group holds 1..=J_LANES particles");
        // Two loads, one predictor. The clamped-index load alone would do for
        // both, but it costs every full group its packed loads: 5.4–5.8 →
        // 9.0–11.8 ns per pair at b = 1, N = 16k / 32k, alternated.
        if w == J_LANES {
            self.predict_loaded(j0, w, t, |src| {
                src[j0..j0 + J_LANES].try_into().expect("a slice of J_LANES elements")
            })
        } else {
            self.predict_loaded(j0, w, t, |src| std::array::from_fn(|k| src[j0 + k.min(w - 1)]))
        }
    }

    /// [`Self::predict_lanes`] over whatever `lanes` loads from a state array.
    #[inline(always)]
    fn predict_loaded(
        &self,
        j0: usize,
        w: usize,
        t: f64,
        lanes: impl Fn(&[f64]) -> [f64; J_LANES],
    ) -> JGroup {
        let lanes3 = |c: &Components| [lanes(&c.x), lanes(&c.y), lanes(&c.z)];
        let (pos, vel) = (lanes3(&self.pos), lanes3(&self.vel));
        let (acc, jerk) = (lanes3(&self.acc), lanes3(&self.jerk));
        let time = lanes(&self.time);
        let predicted = |k: usize| {
            let at = |q: &[[f64; J_LANES]; 3]| Vec3::new(q[0][k], q[1][k], q[2][k]);
            hermite::predict(at(&pos), at(&vel), at(&acc), at(&jerk), t - time[k])
        };
        let z = [0.0; J_LANES];
        let mass = lanes(&self.mass);
        let mut g = JGroup { j0, w, px: z, py: z, pz: z, vx: z, vy: z, vz: z, mass };
        for k in 0..J_LANES {
            let (p, v) = predicted(k);
            (g.px[k], g.py[k], g.pz[k]) = (p.x, p.y, p.z);
            (g.vx[k], g.vy[k], g.vz[k]) = (v.x, v.y, v.z);
        }
        g
    }

    /// Predict every particle to time `t` into the scratch read back by
    /// [`Self::predicted_all`]. At paper-scale N this is the dominant O(N)
    /// host cost of a large block, so it runs in fixed-size parallel chunks
    /// and neither allocates nor resizes.
    // grape6-lint: hot
    pub fn predict_all(&mut self, t: f64) {
        // The scratch leaves `self` for the sweep so the chunks can call
        // `predicted` (moving a `Vec` does not allocate).
        let mut ppos = std::mem::take(&mut self.ppos);
        let mut pvel = std::mem::take(&mut self.pvel);
        debug_assert_eq!(ppos.len(), self.len(), "prediction scratch is sized by load()");
        ppos.par_chunks_mut(PREDICT_CHUNK)
            .zip(pvel.par_chunks_mut(PREDICT_CHUNK))
            .enumerate()
            .for_each(|(c, (pps, pvs))| {
                let base = c * PREDICT_CHUNK;
                for (k, (pp, pv)) in pps.iter_mut().zip(pvs).enumerate() {
                    (*pp, *pv) = self.predicted(base + k, t);
                }
            });
        self.ppos = ppos;
        self.pvel = pvel;
    }

    /// Positions and velocities as of the last [`Self::predict_all`].
    #[inline]
    pub fn predicted_all(&self) -> (&[Vec3], &[Vec3]) {
        (&self.ppos, &self.pvel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A system with live derivatives and staggered individual times.
    fn staggered(n: usize) -> ParticleSystem {
        let mut sys = ParticleSystem::new(0.01, 1.0);
        let mut seed = 4242u64;
        let mut rng = move || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (seed >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        for i in 0..n {
            sys.push(Vec3::new(rng(), rng(), rng()) * 30.0, Vec3::new(rng(), rng(), rng()), 1e-8);
            sys.acc[i] = Vec3::new(rng(), rng(), rng()) * 1e-3;
            sys.jerk[i] = Vec3::new(rng(), rng(), rng()) * 1e-5;
            sys.time[i] = (i % 5) as f64 * 0.0625;
        }
        sys
    }

    fn bits(v: (Vec3, Vec3)) -> [u64; 6] {
        [v.0.x, v.0.y, v.0.z, v.1.x, v.1.y, v.1.z].map(f64::to_bits)
    }

    #[test]
    fn predicted_matches_the_host_predictor_and_predict_all_bitwise() {
        let sys = staggered(3 * PREDICT_CHUNK / 2);
        let mut jm = JMemory::default();
        jm.load(&sys);
        let t = 0.5;
        jm.predict_all(t);
        let (ppos, pvel) = jm.predicted_all();
        for j in 0..sys.len() {
            let want = bits(sys.predict(j, t));
            assert_eq!(bits(jm.predicted(j, t)), want, "predicted({j})");
            assert_eq!(bits((ppos[j], pvel[j])), want, "predict_all[{j}]");
        }
    }

    #[test]
    fn predict_lanes_is_predicted_lane_by_lane_bitwise() {
        let sys = staggered(29);
        let mut jm = JMemory::default();
        jm.load(&sys);
        let t = 0.5;
        // Full groups, a ragged tail at the end of memory, a one-particle group.
        for (j0, w) in [(0, J_LANES), (3, J_LANES), (21, J_LANES), (24, 5), (9, 3), (28, 1)] {
            let g = jm.predict_lanes(j0, w, t);
            assert_eq!((g.j0, g.w), (j0, w));
            for k in 0..J_LANES {
                // Lanes beyond `w` repeat the group's last particle.
                let j = j0 + k.min(w - 1);
                let lane =
                    (Vec3::new(g.px[k], g.py[k], g.pz[k]), Vec3::new(g.vx[k], g.vy[k], g.vz[k]));
                assert_eq!(bits(lane), bits(jm.predicted(j, t)), "group ({j0}, {w}) lane {k}");
                assert_eq!(g.mass[k].to_bits(), sys.mass[j].to_bits());
            }
        }
    }

    #[test]
    fn predict_all_bits_are_thread_count_invariant() {
        let sys = staggered(2 * PREDICT_CHUNK + 17);
        let run = |threads: usize| {
            rayon::with_num_threads(threads, || {
                let mut jm = JMemory::default();
                jm.load(&sys);
                jm.predict_all(0.75);
                let (p, v) = jm.predicted_all();
                p.iter().zip(v).map(|(&p, &v)| bits((p, v))).collect::<Vec<_>>()
            })
        };
        let reference = run(1);
        for threads in [2usize, 4] {
            assert_eq!(run(threads), reference, "threads = {threads}");
        }
    }

    #[test]
    fn update_touches_only_the_listed_indices() {
        let mut sys = staggered(12);
        let mut jm = JMemory::default();
        jm.load(&sys);
        let before: Vec<_> = (0..12).map(|j| bits(jm.predicted(j, 1.0))).collect();
        for i in 0..12 {
            sys.pos[i] += Vec3::new(1.0, 2.0, 3.0);
            sys.mass[i] = 2e-8;
            sys.time[i] = 0.5;
        }
        jm.update(&sys, &[3, 7]);
        for (j, untouched) in before.iter().enumerate() {
            if j == 3 || j == 7 {
                assert_eq!(bits(jm.predicted(j, 1.0)), bits(sys.predict(j, 1.0)), "updated {j}");
                assert_eq!(jm.mass()[j], 2e-8);
            } else {
                assert_eq!(&bits(jm.predicted(j, 1.0)), untouched, "untouched {j}");
                assert_eq!(jm.mass()[j], 1e-8);
            }
        }
    }

    #[test]
    fn reload_with_a_different_n_resizes_the_scratch() {
        let mut jm = JMemory::default();
        for n in [40usize, 9, 64] {
            let sys = staggered(n);
            jm.load(&sys);
            jm.predict_all(0.25);
            let (ppos, pvel) = jm.predicted_all();
            assert_eq!((jm.len(), ppos.len(), pvel.len()), (n, n, n));
            assert_eq!(bits((ppos[n - 1], pvel[n - 1])), bits(sys.predict(n - 1, 0.25)));
        }
    }
}
