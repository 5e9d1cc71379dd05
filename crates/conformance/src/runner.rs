//! The differential runner: one scenario, every engine, every invariant.
//!
//! Checks come in three strengths:
//!
//! * **oracle** — engines of different arithmetic (hardware vs f64) must
//!   agree within the [`crate::oracle`] budget;
//! * **bitwise** — wherever the determinism contract promises identical
//!   bits (routed node vs flat engine, cluster vs flat, fault-tolerant vs
//!   plain, thread counts, small-vs-large block paths, and the bitwise
//!   metamorphic invariants), the comparison is on the raw `f64` bits;
//! * **trajectory** — whole block-timestep integrations must stay bitwise
//!   locked where promised (FT-vs-plain, thread counts).
//!
//! Every check is addressable by name so the shrinker can re-run exactly
//! the failing property while it minimizes a scenario.

use crate::broken::{centre_walk_forces, tail_dropped_forces, BrokenEngine};
use crate::metamorphic;
use crate::oracle::{Oracle, Tolerances, SAFETY};
use crate::scenario::Scenario;
use crate::shrink::drop_particle;
use grape6_core::blockstep::ShadowReplay;
use grape6_core::engine::{ForceEngine, TreeWork};
use grape6_core::force::{DirectEngine, ScalarDirectEngine};
use grape6_core::integrator::{BlockHermite, HermiteConfig};
use grape6_core::particle::{ForceResult, IParticle, ParticleSystem};
use grape6_core::sweep::SMALL_BLOCK_MAX;
use grape6_core::vec3::Vec3;
use grape6_hw::format::accum_quantum;
use grape6_hw::{
    ClusterEngine, FaultPlan, FaultTolerantEngine, Grape6Config, Grape6Engine, ScalarGrape6Engine,
};
use grape6_sim::Simulation;
use grape6_tree::hybrid::{scalar_block_forces, scalar_group_forces};
use grape6_tree::{HybridTreeEngine, Octree};

/// One failed check on one scenario.
#[derive(Debug, Clone)]
pub struct CheckFailure {
    /// Name of the failed check (an entry of [`ALL_CHECKS`]).
    pub check: String,
    /// Human-readable description of the first violation found.
    pub detail: String,
}

/// Every check the runner knows, in execution order.
pub const ALL_CHECKS: &[&str] = &[
    "diff/exact-vs-direct",
    "diff/grape6-vs-direct",
    "diff/node-vs-grape6",
    "diff/cluster-vs-grape6",
    "diff/ft-vs-grape6",
    "diff/predicted-grape6-vs-direct",
    "diff/updatej-node-vs-grape6",
    "block/grape6-small-vs-large",
    "block/direct-small-vs-large",
    "meta/permutation-direct",
    "meta/permutation-grape6",
    "meta/rotation-direct",
    "meta/rotation-grape6",
    "meta/translation-direct",
    "meta/translation-grape6",
    "meta/mass-rescale-direct",
    "meta/mass-rescale-grape6",
    "meta/threads-direct",
    "meta/threads-grape6",
    "lanes/direct",
    "lanes/grape6",
    "lanes/small-j",
    "lanes/traj-direct",
    "traj/ft-vs-grape6",
    "traj/threads-grape6",
    "sched/tick-vs-heap",
    "hybrid/theta0-bitwise-vs-direct",
    "hybrid/predicted-theta0-vs-direct",
    "hybrid/theta-budget",
    "hybrid/counters-reproducible",
    "hybrid/group-lists-vs-scalar",
];

/// The dev-only checks of the intentionally broken kernels
/// ([`crate::broken`]): each must *fail* on any scenario of two or more
/// particles, and shrink to a handful.
pub const BROKEN_CHECKS: &[&str] =
    &["broken/dropped-pair", "broken/centre-walk", "broken/small-j-tail"];

fn all_ips(sys: &ParticleSystem) -> Vec<IParticle> {
    (0..sys.len()).map(|i| IParticle { index: i, pos: sys.pos[i], vel: sys.vel[i] }).collect()
}

fn forces<E: ForceEngine>(engine: &mut E, sys: &ParticleSystem, t: f64) -> Vec<ForceResult> {
    engine.load(sys);
    let ips = all_ips(sys);
    let mut out = vec![ForceResult::default(); ips.len()];
    engine.compute(t, &ips, &mut out);
    out
}

fn vbits(v: Vec3) -> [u64; 3] {
    [v.x.to_bits(), v.y.to_bits(), v.z.to_bits()]
}

/// Bitwise comparison of two result sets. `nn`: 0 = ignore the neighbour
/// report, 1 = compare neighbour distance bits only (partition-order ties
/// may pick a different index), 2 = compare index and distance.
fn cmp_bitwise(a: &[ForceResult], b: &[ForceResult], nn: u8) -> Option<String> {
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        if vbits(x.acc) != vbits(y.acc) {
            return Some(format!("particle {i}: acc bits differ ({:?} vs {:?})", x.acc, y.acc));
        }
        if vbits(x.jerk) != vbits(y.jerk) {
            return Some(format!("particle {i}: jerk bits differ ({:?} vs {:?})", x.jerk, y.jerk));
        }
        if x.pot.to_bits() != y.pot.to_bits() {
            return Some(format!("particle {i}: pot bits differ ({} vs {})", x.pot, y.pot));
        }
        if nn >= 1 {
            let (ra, rb) = (x.nn.map(|n| n.r2.to_bits()), y.nn.map(|n| n.r2.to_bits()));
            if ra != rb {
                return Some(format!("particle {i}: nn distance bits differ"));
            }
        }
        if nn >= 2 && x.nn.map(|n| n.index) != y.nn.map(|n| n.index) {
            return Some(format!("particle {i}: nn index differs"));
        }
    }
    None
}

/// Oracle comparison: `a` within the per-particle tolerance of `b`.
fn cmp_oracle(a: &[ForceResult], b: &[ForceResult], tol: &Tolerances) -> Option<String> {
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        let da = (x.acc - y.acc).norm();
        if !da.is_finite() || da > tol.acc[i] {
            return Some(format!(
                "particle {i}: |Δacc| = {da:e} exceeds oracle {:e} (|acc| = {:e})",
                tol.acc[i],
                y.acc.norm()
            ));
        }
        let dj = (x.jerk - y.jerk).norm();
        if !dj.is_finite() || dj > tol.jerk[i] {
            return Some(format!(
                "particle {i}: |Δjerk| = {dj:e} exceeds oracle {:e} (|jerk| = {:e})",
                tol.jerk[i],
                y.jerk.norm()
            ));
        }
        let dp = (x.pot - y.pot).abs();
        if !dp.is_finite() || dp > tol.pot[i] {
            return Some(format!(
                "particle {i}: |Δpot| = {dp:e} exceeds oracle {:e} (pot = {:e})",
                tol.pot[i], y.pot
            ));
        }
    }
    None
}

fn grape6() -> Grape6Engine {
    Grape6Engine::new(Grape6Config::sc2002())
}

fn grape6_exact() -> Grape6Engine {
    Grape6Engine::new(Grape6Config::sc2002_exact())
}

/// Initialize a copy of the scenario's system with the f64 reference engine
/// (accelerations, jerks, individual timesteps, schedule) and advance it a
/// couple of block steps so particle times are staggered.
fn initialized_system(sc: &Scenario, advance: usize) -> (ParticleSystem, f64) {
    let mut sys = sc.sys.clone();
    let cfg = HermiteConfig { dt_max: sc.dt_max, ..HermiteConfig::default() };
    let mut direct = DirectEngine::new();
    let mut integ = BlockHermite::new(cfg);
    integ.initialize(&mut sys, &mut direct);
    for _ in 0..advance {
        integ.step(&mut sys, &mut direct);
    }
    let t = integ.next_time().unwrap_or(sys.t);
    (sys, t)
}

/// A mid-scale near-field radius for a scenario: a tenth of the bounding
/// cube's diagonal, so the hybrid checks exercise both the direct near path
/// and the tree far path on every scenario geometry.
fn near_radius(sys: &ParticleSystem) -> f64 {
    let mut lo = [f64::INFINITY; 3];
    let mut hi = [f64::NEG_INFINITY; 3];
    for p in &sys.pos {
        for (k, v) in [p.x, p.y, p.z].into_iter().enumerate() {
            lo[k] = lo[k].min(v);
            hi[k] = hi[k].max(v);
        }
    }
    let d2: f64 = (0..3).map(|k| (hi[k] - lo[k]) * (hi[k] - lo[k])).sum();
    (0.1 * d2.sqrt()).max(1e-9)
}

fn predicted_ips(sys: &ParticleSystem, t: f64) -> Vec<IParticle> {
    (0..sys.len())
        .map(|i| {
            let (pos, vel) = sys.predict(i, t);
            IParticle { index: i, pos, vel }
        })
        .collect()
}

/// Compute forces block-by-block (blocks of `block` i-particles) on a
/// freshly loaded engine, concatenating the per-block results.
fn forces_blocked<E: ForceEngine>(
    engine: &mut E,
    sys: &ParticleSystem,
    t: f64,
    block: usize,
) -> Vec<ForceResult> {
    ips_blocked(engine, sys, t, &all_ips(sys), block)
}

/// [`forces_blocked`] for given i-particles (predicted ones, probes).
fn ips_blocked<E: ForceEngine>(
    engine: &mut E,
    sys: &ParticleSystem,
    t: f64,
    ips: &[IParticle],
    block: usize,
) -> Vec<ForceResult> {
    engine.load(sys);
    let mut out = vec![ForceResult::default(); ips.len()];
    for (is, os) in ips.chunks(block).zip(out.chunks_mut(block)) {
        engine.compute(t, is, os);
    }
    out
}

/// A small-block kernel against the scalar definition of the j-lane
/// summation structure (`ScalarDirectEngine`), a couple of block steps in
/// (j-prediction live), in blocks of 1, 5 and 16 — on the scenario and on
/// the scenario less its last particle: one of the two j-counts is not a
/// multiple of `J_LANES`, so a ragged tail is swept whatever the scenario.
/// `kernel(isys, t, ips, block)` returns the forces on `ips` taken in blocks
/// of `block`.
fn small_j_vs_scalar(
    sc: &Scenario,
    kernel: impl Fn(&ParticleSystem, f64, &[IParticle], usize) -> Vec<ForceResult>,
) -> Option<String> {
    let cut = (sc.len() >= 2).then(|| drop_particle(sc, sc.len() - 1));
    for sc in std::iter::once(sc).chain(&cut) {
        let (isys, t) = initialized_system(sc, 2);
        let ips = predicted_ips(&isys, t);
        for block in [1, 5, SMALL_BLOCK_MAX] {
            let want = ips_blocked(&mut ScalarDirectEngine::default(), &isys, t, &ips, block);
            if let Some(d) = cmp_bitwise(&kernel(&isys, t, &ips, block), &want, 2) {
                return Some(format!("{} bodies, blocks of {block}: {d}", isys.len()));
            }
        }
    }
    None
}

/// The scalar oracles of the hybrid engine share this shape: forces and walk
/// counters of one block over a tree.
type BlockOracle = fn(&Octree, &[IParticle], f64, f64, f64) -> (Vec<ForceResult>, TreeWork);

/// A force kernel of the hybrid engine against a scalar `oracle`, a couple
/// of block steps in (j-prediction live): every force must match bit for
/// bit — neighbour and walk counters included — taken as one block and in
/// blocks of 5, at every production opening angle.
/// `kernel(isys, t, tree, ips, block, theta, r_near)` returns the forces on
/// `ips` taken in blocks of `block`, and its walk counters if it keeps any.
fn hybrid_vs_scalar(
    sc: &Scenario,
    kernel: impl Fn(
        &ParticleSystem,
        f64,
        &Octree,
        &[IParticle],
        usize,
        f64,
        f64,
    ) -> (Vec<ForceResult>, Option<TreeWork>),
    oracle: BlockOracle,
) -> Option<String> {
    let (isys, t) = initialized_system(sc, 2);
    let ips = predicted_ips(&isys, t);
    let (ppos, pvel): (Vec<Vec3>, Vec<Vec3>) = ips.iter().map(|ip| (ip.pos, ip.vel)).unzip();
    let tree = Octree::build(&ppos, &pvel, &isys.mass);
    let eps2 = isys.softening * isys.softening;
    let r_near = near_radius(&isys);
    for theta in [0.3, 0.5, 0.75] {
        for block in [ips.len(), 5] {
            let mut want = Vec::with_capacity(ips.len());
            let mut want_work = TreeWork::default();
            for is in ips.chunks(block) {
                let (out, work) = oracle(&tree, is, theta, r_near, eps2);
                want.extend(out);
                want_work.merge(&work);
            }
            // Every block that walked shares the one tree built at `t`.
            want_work.builds = u64::from(want_work.walks > 0);
            let (got, work) = kernel(&isys, t, &tree, &ips, block, theta, r_near);
            if let Some(d) = cmp_bitwise(&got, &want, 2) {
                return Some(format!("theta = {theta}, blocks of {block}: {d}"));
            }
            if work.is_some_and(|work| work != want_work) {
                return Some(format!(
                    "theta = {theta}, blocks of {block}: walk counters {work:?} differ from \
                     the oracle's {want_work:?}"
                ));
            }
        }
    }
    None
}

fn run_trajectory<E: ForceEngine>(sc: &Scenario, engine: E) -> ParticleSystem {
    let cfg = HermiteConfig { dt_max: sc.dt_max, ..HermiteConfig::default() };
    let mut sim = Simulation::new(sc.sys.clone(), cfg, engine);
    for _ in 0..sc.steps {
        sim.step();
    }
    sim.sys
}

/// [`run_trajectory`]'s integration with the heap replaying every block
/// step in its shadow; the first disagreement.
fn shadow_trajectory<E: ForceEngine>(sc: &Scenario, engine: E) -> Option<String> {
    let cfg = HermiteConfig { dt_max: sc.dt_max, ..HermiteConfig::default() };
    let mut sim = Simulation::new(sc.sys.clone(), cfg, engine);
    let mut shadow = ShadowReplay::new(&sim.sys);
    for _ in 0..sc.steps {
        let t = sim.step().t;
        if let Err(d) = shadow.check(t, sim.integrator.last_block(), &sim.sys) {
            return Some(d);
        }
    }
    None
}

fn cmp_system_bits(a: &ParticleSystem, b: &ParticleSystem) -> Option<String> {
    if a.t.to_bits() != b.t.to_bits() {
        return Some(format!("system time differs: {} vs {}", a.t, b.t));
    }
    for i in 0..a.len() {
        for (what, x, y) in [
            ("pos", a.pos[i], b.pos[i]),
            ("vel", a.vel[i], b.vel[i]),
            ("acc", a.acc[i], b.acc[i]),
            ("jerk", a.jerk[i], b.jerk[i]),
        ] {
            if vbits(x) != vbits(y) {
                return Some(format!("particle {i}: {what} bits diverged ({x:?} vs {y:?})"));
            }
        }
        if a.time[i].to_bits() != b.time[i].to_bits() || a.dt[i].to_bits() != b.dt[i].to_bits() {
            return Some(format!("particle {i}: schedule diverged"));
        }
    }
    None
}

/// Run a single named check on a scenario. Returns `None` on pass, or a
/// description of the first violation. Unknown names panic (the shrinker
/// and CLI only pass names from [`ALL_CHECKS`] or [`BROKEN_CHECKS`]).
pub fn run_check(sc: &Scenario, check: &str) -> Option<String> {
    let sys = &sc.sys;
    let t0 = sys.t;
    match check {
        "diff/exact-vs-direct" => {
            let reference = forces(&mut DirectEngine::new(), sys, t0);
            let hw = forces(&mut grape6_exact(), sys, t0);
            cmp_oracle(&hw, &reference, &Oracle::hardware(53).tolerances(sys, t0))
        }
        "diff/grape6-vs-direct" => {
            let reference = forces(&mut DirectEngine::new(), sys, t0);
            let hw = forces(&mut grape6(), sys, t0);
            cmp_oracle(&hw, &reference, &Oracle::hardware(24).tolerances(sys, t0))
        }
        "diff/node-vs-grape6" => {
            // The routed readout carries no neighbour registers (nn: None),
            // so the bitwise contract covers forces only.
            let flat = forces(&mut grape6(), sys, t0);
            let routed = forces(&mut ClusterEngine::single_node(), sys, t0);
            cmp_bitwise(&routed, &flat, 0)
        }
        "diff/cluster-vs-grape6" => {
            let flat = forces(&mut grape6(), sys, t0);
            let cluster = forces(&mut ClusterEngine::production(), sys, t0);
            cmp_bitwise(&cluster, &flat, 0)
        }
        "diff/ft-vs-grape6" => {
            let flat = forces(&mut grape6(), sys, t0);
            let ft = forces(
                &mut FaultTolerantEngine::new(Grape6Config::sc2002(), &FaultPlan::empty()),
                sys,
                t0,
            );
            cmp_bitwise(&ft, &flat, 2)
        }
        "diff/predicted-grape6-vs-direct" => {
            // Initialized system, a couple of block steps in: particle times
            // are staggered and the hardware predictor pipelines are live.
            let (isys, t) = initialized_system(sc, 2);
            let ips = predicted_ips(&isys, t);
            let mut out_d = vec![ForceResult::default(); ips.len()];
            let mut out_h = vec![ForceResult::default(); ips.len()];
            let mut d = DirectEngine::new();
            d.load(&isys);
            d.compute(t, &ips, &mut out_d);
            let mut h = grape6();
            h.load(&isys);
            h.compute(t, &ips, &mut out_h);
            cmp_oracle(&out_h, &out_d, &Oracle::hardware(24).tolerances(&isys, t))
        }
        "diff/updatej-node-vs-grape6" => {
            // Perturb a few particles and write them back: the routed node
            // and the cluster exchange network must track the flat engine
            // bit for bit through update_j.
            let (mut isys, t) = initialized_system(sc, 1);
            let mut flat = grape6();
            let mut node = ClusterEngine::single_node();
            let mut cluster = ClusterEngine::production();
            flat.load(&isys);
            node.load(&isys);
            cluster.load(&isys);
            let n = isys.len();
            let mut idx: Vec<usize> = [0, n / 3, (2 * n) / 3].into_iter().collect();
            idx.dedup();
            for &i in &idx {
                isys.pos[i] += Vec3::new(1e-3, -2e-3, 5e-4);
                isys.vel[i] *= 1.0009765625; // 1 + 2⁻¹⁰
                isys.time[i] = t;
            }
            flat.update_j(&isys, &idx);
            node.update_j(&isys, &idx);
            cluster.update_j(&isys, &idx);
            let ips = predicted_ips(&isys, t);
            let mut out_f = vec![ForceResult::default(); n];
            let mut out_n = vec![ForceResult::default(); n];
            let mut out_c = vec![ForceResult::default(); n];
            flat.compute(t, &ips, &mut out_f);
            node.compute(t, &ips, &mut out_n);
            cluster.compute(t, &ips, &mut out_c);
            cmp_bitwise(&out_n, &out_f, 0)
                .map(|d| format!("node: {d}"))
                .or_else(|| cmp_bitwise(&out_c, &out_f, 0).map(|d| format!("cluster: {d}")))
        }
        "block/grape6-small-vs-large" => {
            // The chunked j-parallel small-block path must read out the
            // exact bits of the flat large-block sweep.
            let full = forces(&mut grape6(), sys, t0);
            let blocked = forces_blocked(&mut grape6(), sys, t0, 5);
            cmp_bitwise(&blocked, &full, 2)
        }
        "block/direct-small-vs-large" => {
            // The f64 reference reorders its summation between paths; the
            // reorder budget applies.
            let full = forces(&mut DirectEngine::new(), sys, t0);
            let blocked = forces_blocked(&mut DirectEngine::new(), sys, t0, 5);
            cmp_oracle(&blocked, &full, &Oracle::reorder(sys.len()).tolerances(sys, t0))
        }
        "meta/permutation-direct" | "meta/permutation-grape6" => {
            let hw = check.ends_with("grape6");
            let (psys, perm) = metamorphic::permute(sys);
            let (base, permuted) = if hw {
                (forces(&mut grape6(), sys, t0), forces(&mut grape6(), &psys, t0))
            } else {
                (
                    forces(&mut DirectEngine::new(), sys, t0),
                    forces(&mut DirectEngine::new(), &psys, t0),
                )
            };
            // Map the permuted outputs back into original particle order.
            let mut mapped = vec![ForceResult::default(); base.len()];
            for (k, &old) in perm.iter().enumerate() {
                mapped[old] = permuted[k];
            }
            if hw {
                // Fixed-point accumulation is associative and commutative:
                // identical bits. Neighbour index legitimately changes under
                // renumbering; the distance bits must survive.
                cmp_bitwise(&mapped, &base, 1)
            } else {
                cmp_oracle(&mapped, &base, &Oracle::reorder(sys.len()).tolerances(sys, t0))
            }
        }
        "meta/rotation-direct" | "meta/rotation-grape6" => {
            let hw = check.ends_with("grape6");
            let rsys = metamorphic::rotate_z90(sys);
            let (base, rotated) = if hw {
                (forces(&mut grape6(), sys, t0), forces(&mut grape6(), &rsys, t0))
            } else {
                (
                    forces(&mut DirectEngine::new(), sys, t0),
                    forces(&mut DirectEngine::new(), &rsys, t0),
                )
            };
            // Quarter-turn equivariance is exact in both engine families:
            // compare rotate(F(x)) against F(rotate(x)) bit for bit — up to
            // the sign of exact zeros, which rot90's negation flips while
            // engine accumulators (seeded with +0.0) never produce −0.0.
            let unsign = |v: Vec3| Vec3::new(v.x + 0.0, v.y + 0.0, v.z + 0.0);
            let expect: Vec<ForceResult> = base
                .iter()
                .map(|r| ForceResult {
                    acc: unsign(metamorphic::rot90(r.acc)),
                    jerk: unsign(metamorphic::rot90(r.jerk)),
                    pot: r.pot,
                    nn: r.nn,
                })
                .collect();
            let rotated: Vec<ForceResult> = rotated
                .into_iter()
                .map(|r| ForceResult { acc: unsign(r.acc), jerk: unsign(r.jerk), ..r })
                .collect();
            cmp_bitwise(&rotated, &expect, 2)
        }
        "meta/translation-direct" | "meta/translation-grape6" => {
            let hw = check.ends_with("grape6");
            let d = Vec3::new(3.0, -1.5, 0.75);
            let tsys = metamorphic::translate(sys, d);
            let (base, shifted) = if hw {
                (forces(&mut grape6(), sys, t0), forces(&mut grape6(), &tsys, t0))
            } else {
                (
                    forces(&mut DirectEngine::new(), sys, t0),
                    forces(&mut DirectEngine::new(), &tsys, t0),
                )
            };
            // The shift re-rounds every coordinate (f64 and fixed point):
            // budget an extra ulp-of-largest-coordinate of position noise.
            let maxc = sys
                .pos
                .iter()
                .map(|p| p.x.abs().max(p.y.abs()).max(p.z.abs()))
                .fold(0.0f64, f64::max);
            let extra = 8.0 * 2.0f64.powi(-53) * (maxc + d.norm());
            let mut oracle = if hw { Oracle::hardware(24) } else { Oracle::reorder(sys.len()) };
            oracle.extra_dpos = extra;
            cmp_oracle(&shifted, &base, &oracle.tolerances(sys, t0))
        }
        "meta/mass-rescale-direct" => {
            // ×4 is exact in every f64 multiply and commutes with rounding:
            // the reference must scale bit for bit.
            let ssys = metamorphic::rescale_mass(sys, 4.0);
            let base = forces(&mut DirectEngine::new(), sys, t0);
            let scaled = forces(&mut DirectEngine::new(), &ssys, t0);
            let expect: Vec<ForceResult> = base
                .iter()
                .map(|r| ForceResult {
                    acc: r.acc * 4.0,
                    jerk: r.jerk * 4.0,
                    pot: r.pot * 4.0,
                    nn: r.nn,
                })
                .collect();
            cmp_bitwise(&scaled, &expect, 2)
        }
        "meta/mass-rescale-grape6" => {
            // The pipeline commutes with ×4 exactly, but the wide
            // accumulator quantizes on a fixed absolute grid: allow a few
            // quanta (at the ×4 scale) per accumulated partial.
            let ssys = metamorphic::rescale_mass(sys, 4.0);
            let base = forces(&mut grape6(), sys, t0);
            let scaled = forces(&mut grape6(), &ssys, t0);
            let n = sys.len() as f64;
            let tol = SAFETY * (n + 2.0) * 4.0 * accum_quantum() * 3.0f64.sqrt();
            for (i, (s, b)) in scaled.iter().zip(&base).enumerate() {
                let da = (s.acc - b.acc * 4.0).norm();
                let dj = (s.jerk - b.jerk * 4.0).norm();
                let dp = (s.pot - b.pot * 4.0).abs();
                if da > tol || dj > tol || dp > tol {
                    return Some(format!(
                        "particle {i}: ×4 rescale drifted beyond accumulator quanta \
                         (Δacc {da:e}, Δjerk {dj:e}, Δpot {dp:e}, allowed {tol:e})"
                    ));
                }
            }
            None
        }
        "meta/threads-direct" | "meta/threads-grape6" => {
            let hw = check.ends_with("grape6");
            let run = |threads: usize| {
                rayon::with_num_threads(threads, || {
                    if hw {
                        forces(&mut grape6(), sys, t0)
                    } else {
                        forces(&mut DirectEngine::new(), sys, t0)
                    }
                })
            };
            let reference = run(1);
            for threads in [2usize, 4] {
                if let Some(d) = cmp_bitwise(&run(threads), &reference, 2) {
                    return Some(format!("threads = {threads}: {d}"));
                }
            }
            None
        }
        "lanes/direct" | "lanes/grape6" => {
            // The lane kernels against their scalar oracle: identical bits
            // on both the large-block (whole system) and small-block
            // (blocked-by-5, including ragged remainders) paths.
            let (full, blocked, ref_full, ref_blocked) = if check.ends_with("grape6") {
                (
                    forces(&mut grape6(), sys, t0),
                    forces_blocked(&mut grape6(), sys, t0, 5),
                    forces(&mut ScalarGrape6Engine(grape6()), sys, t0),
                    forces_blocked(&mut ScalarGrape6Engine(grape6()), sys, t0, 5),
                )
            } else {
                (
                    forces(&mut DirectEngine::new(), sys, t0),
                    forces_blocked(&mut DirectEngine::new(), sys, t0, 5),
                    forces(&mut ScalarDirectEngine::default(), sys, t0),
                    forces_blocked(&mut ScalarDirectEngine::default(), sys, t0, 5),
                )
            };
            cmp_bitwise(&full, &ref_full, 2).map(|d| format!("full block: {d}")).or_else(|| {
                cmp_bitwise(&blocked, &ref_blocked, 2).map(|d| format!("blocked(5): {d}"))
            })
        }
        "lanes/traj-direct" => {
            // Whole block-timestep integrations must stay bitwise locked to
            // the scalar oracle, exactly like the thread-count axis.
            let oracle = run_trajectory(sc, ScalarDirectEngine::default());
            cmp_system_bits(&run_trajectory(sc, DirectEngine::new()), &oracle)
        }
        "traj/ft-vs-grape6" => {
            // Whole integrations: the DMR fault-tolerant wrapper on a
            // fault-free plan must deliver the plain engine's trajectory
            // bit for bit.
            let plain = run_trajectory(sc, grape6());
            let ft = run_trajectory(
                sc,
                FaultTolerantEngine::new(Grape6Config::sc2002(), &FaultPlan::empty()),
            );
            cmp_system_bits(&ft, &plain)
        }
        "traj/threads-grape6" => {
            let one = rayon::with_num_threads(1, || run_trajectory(sc, grape6()));
            let four = rayon::with_num_threads(4, || run_trajectory(sc, grape6()));
            cmp_system_bits(&four, &one)
        }
        "sched/tick-vs-heap" => {
            // Whole integrations: after every block step the tick-bucket
            // scheduler's (time, block) must be the heap reference's — on
            // both engine families.
            shadow_trajectory(sc, DirectEngine::new())
                .map(|d| format!("direct: {d}"))
                .or_else(|| shadow_trajectory(sc, grape6()).map(|d| format!("grape6: {d}")))
        }
        "hybrid/theta0-bitwise-vs-direct" => {
            // The anchor: θ = 0 never accepts a cell and an infinite
            // neighbour radius keeps every body in the near field, so the
            // hybrid must reproduce the f64 direct reference bit for bit —
            // on both the large-block sweep and the chunked small-block
            // path (blocked by 5), which round differently from each other.
            let full_d = forces(&mut DirectEngine::new(), sys, t0);
            let full_h = forces(&mut HybridTreeEngine::direct_equivalent(), sys, t0);
            if let Some(d) = cmp_bitwise(&full_h, &full_d, 2) {
                return Some(format!("full block: {d}"));
            }
            let blocked_d = forces_blocked(&mut DirectEngine::new(), sys, t0, 5);
            let blocked_h = forces_blocked(&mut HybridTreeEngine::direct_equivalent(), sys, t0, 5);
            cmp_bitwise(&blocked_h, &blocked_d, 2).map(|d| format!("blocked(5): {d}"))
        }
        "hybrid/predicted-theta0-vs-direct" => {
            // Same anchor a couple of block steps in: particle times are
            // staggered, so the hybrid's internal j-prediction (which feeds
            // the tree build) is live and must match DirectEngine's.
            let (isys, t) = initialized_system(sc, 2);
            let ips = predicted_ips(&isys, t);
            let mut out_d = vec![ForceResult::default(); ips.len()];
            let mut out_h = vec![ForceResult::default(); ips.len()];
            let mut d = DirectEngine::new();
            d.load(&isys);
            d.compute(t, &ips, &mut out_d);
            let mut h = HybridTreeEngine::direct_equivalent();
            h.load(&isys);
            h.compute(t, &ips, &mut out_h);
            cmp_bitwise(&out_h, &out_d, 2)
        }
        "hybrid/theta-budget" => {
            // Opened-up walks must stay inside the derived multipole
            // acceptance-criterion budget at every production opening angle.
            let reference = forces(&mut DirectEngine::new(), sys, t0);
            let r_near = near_radius(sys);
            for theta in [0.3, 0.5, 0.75] {
                let got = forces(&mut HybridTreeEngine::new(theta, r_near), sys, t0);
                let tol = Oracle::tree(theta, sys.len()).tolerances(sys, t0);
                if let Some(d) = cmp_oracle(&got, &reference, &tol) {
                    return Some(format!("theta = {theta}: {d}"));
                }
            }
            None
        }
        "hybrid/counters-reproducible" => {
            // Near/far walk counters are exact integer work accounting:
            // re-runs and every thread count must agree exactly, and the
            // forces themselves stay bitwise locked.
            let r_near = near_radius(sys);
            let run = |threads: usize| {
                rayon::with_num_threads(threads, || {
                    let mut e = HybridTreeEngine::new(0.5, r_near);
                    let out = forces(&mut e, sys, t0);
                    (out, e.interaction_count(), e.tree_work().expect("hybrid reports tree work"))
                })
            };
            let (ref_out, ref_n, ref_w) = run(1);
            for threads in [1usize, 2, 4, 8] {
                let (out, n, w) = run(threads);
                if n != ref_n || w != ref_w {
                    return Some(format!(
                        "threads = {threads}: counters drifted \
                         ({ref_n} / {ref_w:?} vs {n} / {w:?})"
                    ));
                }
                if let Some(d) = cmp_bitwise(&out, &ref_out, 2) {
                    return Some(format!("threads = {threads}: {d}"));
                }
            }
            None
        }
        "hybrid/group-lists-vs-scalar" => hybrid_vs_scalar(
            sc,
            |isys, t, _, ips, block, theta, r_near| {
                let mut engine = HybridTreeEngine::new(theta, r_near);
                let out = ips_blocked(&mut engine, isys, t, ips, block);
                (out, engine.tree_work())
            },
            scalar_block_forces,
        ),
        "lanes/small-j" => small_j_vs_scalar(sc, |isys, t, ips, block| {
            ips_blocked(&mut DirectEngine::new(), isys, t, ips, block)
        }),
        "broken/centre-walk" => {
            // Dev-only: a group walk measured from the centre of the group's
            // box instead of the box, at every block size. The scalar
            // comparison must flag it.
            hybrid_vs_scalar(
                sc,
                |isys, _, tree, ips, _, theta, r_near| {
                    let eps2 = isys.softening * isys.softening;
                    (centre_walk_forces(tree, ips, theta, r_near, eps2), None)
                },
                scalar_group_forces,
            )
        }
        "broken/small-j-tail" => {
            // Dev-only: a j-lane sweep that never returns for the ragged
            // tail of a chunk. The scalar definition must flag it.
            small_j_vs_scalar(sc, |isys, t, ips, _| tail_dropped_forces(isys, t, ips))
        }
        "broken/dropped-pair" => {
            // Dev-only: an intentionally broken kernel that drops the last
            // j-particle from every sum. The oracle must flag it.
            let reference = forces(&mut DirectEngine::new(), sys, t0);
            let broken = forces(&mut BrokenEngine::new(), sys, t0);
            cmp_oracle(&broken, &reference, &Oracle::reorder(sys.len()).tolerances(sys, t0))
        }
        other => panic!("unknown conformance check `{other}`"),
    }
}

/// Run every check in [`ALL_CHECKS`] on a scenario, collecting failures.
pub fn run_scenario(sc: &Scenario) -> Vec<CheckFailure> {
    ALL_CHECKS
        .iter()
        .filter_map(|&check| {
            run_check(sc, check).map(|detail| CheckFailure { check: check.to_string(), detail })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::generate;

    #[test]
    fn a_disk_scenario_passes_every_check() {
        let sc = generate(0); // DiskSlice
        let failures = run_scenario(&sc);
        assert!(failures.is_empty(), "{failures:?}");
    }

    #[test]
    fn a_tiny_scenario_passes_every_check() {
        let sc = generate(4); // TinyN
        let failures = run_scenario(&sc);
        assert!(failures.is_empty(), "{failures:?}");
    }

    #[test]
    fn the_broken_kernels_are_caught() {
        for seed in 0..6 {
            let sc = generate(seed);
            if sc.len() >= 2 {
                for check in BROKEN_CHECKS {
                    assert!(run_check(&sc, check).is_some(), "seed {seed}: {check} escaped");
                }
            }
        }
    }
}
