//! The hybrid tree + direct force engine (Fukushige & Kawai 2016's
//! production pattern for collisional N-body on GRAPE): far-field forces
//! from a Barnes-Hut walk emitted as GRAPE-style interaction lists, a
//! radius-based near field summed directly at full precision, under the
//! same block individual-timestep host loop as every other engine.
//!
//! The walk is Barnes' modified algorithm, as in both tree-on-GRAPE papers
//! (Fukushige & Kawai 2016; Kawai, Fukushige & Makino 1999): the active
//! i-particles are bucketed by tree *group* ([`Octree::group_lists`]), each
//! group with an active member walks the tree **once**, and the two lists
//! it emits are swept for all its active members through
//! [`LaneTile`]s — `LANE_WIDTH` i-lanes, one broadcast j, the shape of the
//! hardware's j-stream over a bank of i-pipelines (paper §5.2) and of
//! [`DirectEngine`](grape6_core::force::DirectEngine)'s large-block path.
//! Near: every candidate of the group (a superset of each member's own
//! `r_near` sphere) summed directly, ascending j, self skipped by the
//! lane. Far: the shared list of accepted cells and far leaf bodies, swept
//! from a zero seed and added after the near sum. The nearest neighbour is
//! the nearest candidate, reported only inside `r_near`. Shared lists are
//! longer than per-particle ones (≈ 900 against ≈ 640 entries per i on
//! the `hybrid_32k` disk): more, far cheaper interactions — the
//! algorithm's trade.
//!
//! **Tree for b > 16, direct below.** A block of at most [`SMALL_BLOCK_MAX`]
//! i-particles never touches the tree: [`small_block_forces`], `DirectEngine`'s
//! own small path, sums it exactly over the j-memory. A walk first predicts and
//! rebuilds all N bodies (42–51 ns each) where a direct pair costs 2–6 ns, so
//! the crossover is b ≈ rebuild ns/body ÷ pair ns ≈ 10–20, N-independent. The
//! paper's §3 objection — a rebuild per tiny block — is left to 17 ≤ b ≲ a few
//! hundred, which still rebuild.
//!
//! Determinism contract (the one `TickScheduler` and the lane tiles meet): a
//! small block is a pure function of the j-memory; a large one's tree, groups
//! and lists are pure functions of the j-memory at the block time, each list
//! one ascending sweep of `pair_force_jerk` — so every result equals its scalar
//! oracle ([`scalar_block_forces`]) bit for bit, whichever other particles are
//! active and for any `RAYON_NUM_THREADS`; and at `theta = 0` with a
//! disk-spanning `r_near` every candidate list *is* `0..n`, reproducing
//! `DirectEngine` bitwise on both of its paths.

use crate::octree::{InteractionLists, Octree};
use grape6_core::engine::{ForceEngine, TreeWork};
use grape6_core::fields::Fields;
use grape6_core::force::{
    accumulate_on, accumulate_with_nn, scalar_small_block, small_block_forces,
};
use grape6_core::jmem::JMemory;
use grape6_core::lanes::{sweep_sources_lanes, JLanes, LaneTile, LANE_WIDTH};
use grape6_core::particle::{ForceResult, IParticle, ParticleSystem};
use grape6_core::sweep::SMALL_BLOCK_MAX;
use rayon::prelude::*;

/// Group field of the bucket key of an i-particle that walks alone, as a
/// one-point group: its index is not a tree body (an external probe), or it
/// is not where the tree holds that body.
const LONE: u64 = u32::MAX as u64;

/// Bucket key of block slot `slot` walking with `group`: sorting the keys
/// gathers each group's active members, in block order.
fn key(group: u64, slot: usize) -> u64 {
    (group << 32) | slot as u64
}

fn group_of_key(key: u64) -> u64 {
    key >> 32
}

fn slot_of_key(key: u64) -> usize {
    (key & u64::from(u32::MAX)) as usize
}

/// Most i-particles one piece takes before its group is completed. A round
/// is one piece per pool thread, so a block larger than that is swept in
/// several rounds and the result scratch stays ~160 KiB per thread whatever
/// the block size (buffering a whole 32k-body block cost +2.5 MiB of peak
/// RSS). One piece per thread balances: on a 21,846-body block of the
/// `hybrid_32k` disk on two threads, summed over the rounds, the mean
/// thread's work (list entries + 20 × cells opened) is 0.983 of the busier
/// thread's — and 0.983, 0.980, 0.987 with 2, 4, 8 pieces per thread.
const PIECE_MAX: usize = 2048;

/// One worker's share of a force call — a run of whole groups in bucket
/// order — and the scratch it sweeps them with (reused across calls).
#[derive(Debug, Clone, Default)]
struct Piece {
    /// This piece's range of the engine's bucket-ordered key array.
    keys: std::ops::Range<usize>,
    /// Results, in key order.
    out: Vec<ForceResult>,
    /// Active members of the group being swept.
    ips: Vec<IParticle>,
    lists: InteractionLists,
    work: TreeWork,
}

/// Hybrid tree + direct force engine — and, at `r_near = 0`, the pure
/// Barnes-Hut baseline of the paper's §3.
#[derive(Debug, Clone)]
pub struct HybridTreeEngine {
    /// Opening angle θ of the multipole acceptance criterion (0 = open
    /// everything, i.e. exact direct summation over the near list).
    pub theta: f64,
    /// Near-field neighbour radius: every body within this (unsoftened)
    /// distance of an i-particle is summed directly at full precision and
    /// is eligible for the nearest-neighbour report.
    pub r_near: f64,
    /// A small block sweeps the memory itself; the tree is built over — and
    /// a large block's sweeps read — its `predict_all` snapshot.
    jmem: JMemory,
    eps2: f64,
    /// Per-chunk lane registers of the small-block sweep (capacity reused).
    partials: Vec<JLanes>,
    /// Arena reused across rebuilds; current only while `tree_time` is set.
    tree: Octree,
    tree_time: Option<f64>,
    /// One [`key`] per i-particle of the block, sorted.
    keys: Vec<u64>,
    pieces: Vec<Piece>,
    interactions: u64,
    force_calls: u64,
    work: TreeWork,
}

impl HybridTreeEngine {
    /// Create an engine with opening angle `theta` and near-field radius
    /// `r_near`. `theta = 0` with a radius spanning the whole system
    /// reproduces `DirectEngine` bit for bit.
    pub fn new(theta: f64, r_near: f64) -> Self {
        assert!(theta >= 0.0, "theta must be non-negative");
        assert!(r_near >= 0.0, "near-field radius must be non-negative");
        Self {
            theta,
            r_near,
            jmem: JMemory::default(),
            eps2: 0.0,
            partials: Vec::new(),
            tree: Octree::unbuilt(),
            tree_time: None,
            keys: Vec::new(),
            pieces: Vec::new(),
            interactions: 0,
            force_calls: 0,
            work: TreeWork::default(),
        }
    }

    /// A configuration equivalent to direct summation (the bitwise anchor):
    /// `theta = 0`, neighbour radius spanning any system.
    pub fn direct_equivalent() -> Self {
        Self::new(0.0, f64::INFINITY)
    }

    /// Number of `compute` calls since the last counter reset.
    pub fn force_calls(&self) -> u64 {
        self.force_calls
    }

    /// Predict every j-particle to `t` and rebuild the octree over the
    /// snapshot. The tree is a function of the snapshot alone: thread count
    /// never touches its shape.
    fn rebuild(&mut self, t: f64) {
        self.jmem.predict_all(t);
        let (ppos, pvel) = self.jmem.predicted_all();
        self.tree.rebuild(ppos, pvel, self.jmem.mass());
        self.tree_time = Some(t);
        self.work.builds += 1;
    }

    /// Bucket the block by group: one sorted key per i-particle.
    // grape6-lint: hot
    fn bucket(&mut self, ips: &[IParticle]) {
        assert!(ips.len() < u32::MAX as usize, "block slots are u32");
        let tree = &self.tree;
        self.keys.clear();
        self.keys.extend(ips.iter().enumerate().map(|(slot, ip)| {
            key(tree.group_of(ip.index, ip.pos).map_or(LONE, |g| g as u64), slot)
        }));
        self.keys.sort_unstable();
    }

    /// Cut the sorted keys from `from` on into at most `want` pieces of
    /// about equal i-count (at most [`PIECE_MAX`]), never through a group.
    /// Returns how many of `self.pieces` that took (the rest keep their
    /// scratch for a wider call) and where the next round starts.
    fn cut_pieces(&mut self, from: usize, want: usize) -> (usize, usize) {
        let b = self.keys.len();
        let target = (b - from).div_ceil(want).min(PIECE_MAX);
        let mut used = 0;
        let mut lo = from;
        while lo < b && used < want {
            let mut hi = (lo + target).min(b);
            let group = group_of_key(self.keys[hi - 1]);
            while hi < b && group != LONE && group_of_key(self.keys[hi]) == group {
                hi += 1;
            }
            if used == self.pieces.len() {
                self.pieces.push(Piece::default());
            }
            self.pieces[used].keys = lo..hi;
            used += 1;
            lo = hi;
        }
        (used, lo)
    }
}

/// Everything a worker reads while it sweeps its piece.
struct Sweep<'a> {
    tree: &'a Octree,
    keys: &'a [u64],
    ips: &'a [IParticle],
    theta: f64,
    r_near: f64,
    eps2: f64,
}

impl Sweep<'_> {
    /// Walk and sum every group of `piece`.
    // grape6-lint: hot
    fn run(&self, piece: &mut Piece) {
        piece.work = TreeWork::default();
        piece.out.clear();
        piece.out.resize(piece.keys.len(), ForceResult::default());
        let keys = &self.keys[piece.keys.clone()];
        let mut lo = 0;
        while lo < keys.len() {
            let group = group_of_key(keys[lo]);
            let mut hi = lo + 1;
            while group != LONE && hi < keys.len() && group_of_key(keys[hi]) == group {
                hi += 1;
            }
            piece.ips.clear();
            piece.ips.extend(keys[lo..hi].iter().map(|&key| self.ips[slot_of_key(key)]));
            if group == LONE {
                let at = piece.ips[0].pos;
                self.tree.interaction_lists(at, self.theta, self.r_near, &mut piece.lists);
            } else {
                self.tree.group_lists(group as usize, self.theta, self.r_near, &mut piece.lists);
            }
            self.sum(&piece.ips, &piece.lists, &mut piece.out[lo..hi]);
            let (members, near, far) =
                ((hi - lo) as u64, piece.lists.near.len() as u64, piece.lists.far_pos.len() as u64);
            piece.work.walks += 1;
            piece.work.cells_opened += piece.lists.cells_opened;
            piece.work.near_interactions += members * near;
            piece.work.far_interactions += members * far;
            piece.work.list_len_sum += members * (near + far);
            piece.work.list_len_max = piece.work.list_len_max.max(near + far);
            piece.work.lists_emitted += members;
            lo = hi;
        }
    }

    /// Sweep one group's shared lists for its active members, a tile of
    /// `LANE_WIDTH` members at a time; a ragged tail of at most half that
    /// takes a half-width tile (lanes span i only, so no bit depends on W).
    // grape6-lint: hot
    fn sum(&self, ips: &[IParticle], lists: &InteractionLists, out: &mut [ForceResult]) {
        for (os, is) in out.chunks_mut(LANE_WIDTH).zip(ips.chunks(LANE_WIDTH)) {
            if is.len() <= LANE_WIDTH / 2 {
                self.sum_tile::<{ LANE_WIDTH / 2 }>(is, lists, os);
            } else {
                self.sum_tile::<LANE_WIDTH>(is, lists, os);
            }
        }
    }

    /// Both lists for up to `W` members through one `W`-lane tile each.
    #[inline]
    // grape6-lint: hot
    fn sum_tile<const W: usize>(
        &self,
        is: &[IParticle],
        lists: &InteractionLists,
        os: &mut [ForceResult],
    ) {
        let (jpos, jvel, jmass) = self.tree.bodies();
        // Near field: one ascending-j sweep of the group's candidates.
        let mut tile = LaneTile::<W>::load(is, os);
        for &j in &lists.near {
            let j = j as usize;
            tile.interact(j, jpos[j], jvel[j], jmass[j], self.eps2);
        }
        tile.store(os);
        // The tile saw every candidate; the report is radius-limited.
        let r2_near = self.r_near * self.r_near;
        os.iter_mut().for_each(|o| o.nn = o.nn.filter(|nb| nb.r2 <= r2_near));
        // Far field: one sweep over the shared list (cells + far leaf
        // bodies) from a zero seed, added after the near sum. A source is
        // no neighbour: `far.nn` stays `None`.
        if !lists.far_pos.is_empty() {
            let (fp, fv, fm) = (&lists.far_pos, &lists.far_vel, &lists.far_mass);
            let mut partial = [ForceResult::default(); W];
            let partial = &mut partial[..is.len()];
            sweep_sources_lanes::<W>(partial, is, fp, fv, fm, self.eps2);
            for (o, far) in os.iter_mut().zip(partial.iter()) {
                o.merge(far);
            }
        }
    }
}

impl ForceEngine for HybridTreeEngine {
    fn load(&mut self, sys: &ParticleSystem) {
        self.jmem.load(sys);
        self.eps2 = sys.softening * sys.softening;
        self.tree_time = None;
    }

    fn update_j(&mut self, sys: &ParticleSystem, indices: &[usize]) {
        self.jmem.update(sys, indices);
        // Bodies moved: the tree (and its predicted snapshot) is stale.
        self.tree_time = None;
    }

    fn compute(&mut self, t: f64, ips: &[IParticle], out: &mut [ForceResult]) {
        assert_eq!(ips.len(), out.len());
        self.force_calls += 1;
        let b = ips.len();
        if b <= SMALL_BLOCK_MAX {
            // Too few i-particles to pay for touching all N bodies first:
            // exact forces straight off the j-memory, tree left as it is.
            small_block_forces(&self.jmem, &mut self.partials, t, ips, self.eps2, out);
            let r2_near = self.r_near * self.r_near;
            out.iter_mut().for_each(|o| o.nn = o.nn.filter(|nb| nb.r2 <= r2_near));
            self.interactions += (b * self.jmem.len()) as u64;
            return;
        }
        if self.tree_time != Some(t) {
            self.rebuild(t);
        }
        self.bucket(ips);
        // One piece per pool thread and round. Pieces may follow the thread
        // count: per-i results are pure functions of (i, tree), and the walk
        // totals are associative integer sums and maxima.
        let threads = rayon::current_num_threads().max(1);
        let mut from = 0;
        while from < b {
            let (used, next) = self.cut_pieces(from, threads);
            let sweep = Sweep {
                tree: &self.tree,
                keys: &self.keys,
                ips,
                theta: self.theta,
                r_near: self.r_near,
                eps2: self.eps2,
            };
            self.pieces[..used].par_iter_mut().for_each(|piece| sweep.run(piece));
            for piece in &self.pieces[..used] {
                for (&key, o) in self.keys[piece.keys.clone()].iter().zip(&piece.out) {
                    out[slot_of_key(key)] = *o;
                }
                self.interactions += piece.work.list_len_sum;
                self.work.merge(&piece.work);
            }
            from = next;
        }
    }

    /// Pairs actually evaluated: near + far list entries of the large
    /// blocks ([`TreeWork::list_len_sum`]) plus `n_i × n_j` for each small
    /// block — far below the hardware convention's `n_i × n_j` throughout.
    fn interaction_count(&self) -> u64 {
        self.interactions
    }

    fn reset_counters(&mut self) {
        self.interactions = 0;
        self.force_calls = 0;
        self.work = TreeWork::default();
    }

    fn tree_work(&self) -> Option<TreeWork> {
        Some(self.work)
    }

    /// Counters, then the configuration that determines the run's bits: a
    /// resume under another `theta` / `r_near` would be a different run.
    fn checkpoint_state(&self) -> Vec<u8> {
        let mut state = Vec::with_capacity(STATE_BYTES);
        for v in [
            self.interactions,
            self.force_calls,
            self.work.builds,
            self.work.cells_opened,
            self.work.near_interactions,
            self.work.far_interactions,
            self.work.list_len_sum,
            self.work.list_len_max,
            self.work.lists_emitted,
            self.work.walks,
            self.theta.to_bits(),
            self.r_near.to_bits(),
        ] {
            state.extend_from_slice(&v.to_le_bytes());
        }
        state
    }

    fn restore_checkpoint_state(&mut self, state: &[u8]) -> Result<(), String> {
        if state.len() == 72 {
            return Err("hybrid-tree checkpoint state: 72 bytes, written before the engine \
                        recorded theta and r_near — it cannot be continued bit-identically"
                .into());
        }
        let mut f = Fields::new(state, "hybrid-tree checkpoint state");
        let (interactions, force_calls) = (f.u64()?, f.u64()?);
        let work = TreeWork {
            builds: f.u64()?,
            cells_opened: f.u64()?,
            near_interactions: f.u64()?,
            far_interactions: f.u64()?,
            list_len_sum: f.u64()?,
            list_len_max: f.u64()?,
            lists_emitted: f.u64()?,
            walks: f.u64()?,
        };
        let (theta, r_near) = (f.f64()?, f.f64()?);
        f.finish()?;
        if theta.to_bits() != self.theta.to_bits() || r_near.to_bits() != self.r_near.to_bits() {
            return Err(format!(
                "hybrid-tree checkpoint was written with theta {theta} and near radius {r_near}, \
                 but this engine has theta {} and near radius {}",
                self.theta, self.r_near
            ));
        }
        (self.interactions, self.force_calls, self.work) = (interactions, force_calls, work);
        Ok(())
    }

    fn name(&self) -> &'static str {
        "hybrid-tree"
    }
}

/// Bytes of [`HybridTreeEngine::checkpoint_state`]: ten counters, θ, r_near.
const STATE_BYTES: usize = 96;

/// The scalar oracle of [`HybridTreeEngine::compute`] over `tree` (built on
/// the j-memory's snapshot at the block time), path split included: a block
/// that walks is [`scalar_group_forces`]; a smaller one is `ScalarDirectEngine`'s
/// sum over every body, the neighbour cut at `r_near`, and no tree work. Tests
/// and `grape6-conformance` name it; no run can select it.
pub fn scalar_block_forces(
    tree: &Octree,
    ips: &[IParticle],
    theta: f64,
    r_near: f64,
    eps2: f64,
) -> (Vec<ForceResult>, TreeWork) {
    if ips.len() > SMALL_BLOCK_MAX {
        return scalar_group_forces(tree, ips, theta, r_near, eps2);
    }
    let (pos, vel, mass) = tree.bodies();
    let sum = |ip| scalar_small_block(ip, pos, vel, mass, eps2);
    let mut out: Vec<ForceResult> = ips.iter().map(sum).collect();
    out.iter_mut().for_each(|o| o.nn = o.nn.filter(|nb| nb.r2 <= r_near * r_near));
    (out, TreeWork::default())
}

/// The forces and walk counters of a block that walks, whatever its size,
/// every i-particle evaluated on its own — its group's
/// [`Octree::group_lists`] (its own point walk when it has no group) summed
/// by [`scalar_list_sum`].
pub fn scalar_group_forces(
    tree: &Octree,
    ips: &[IParticle],
    theta: f64,
    r_near: f64,
    eps2: f64,
) -> (Vec<ForceResult>, TreeWork) {
    let mut lists = InteractionLists::default();
    let mut work = TreeWork::default();
    let mut walked = std::collections::BTreeSet::new();
    let out = ips
        .iter()
        .map(|ip| {
            let group = tree.group_of(ip.index, ip.pos);
            match group {
                Some(g) => tree.group_lists(g, theta, r_near, &mut lists),
                None => tree.interaction_lists(ip.pos, theta, r_near, &mut lists),
            }
            if group.is_none_or(|g| walked.insert(g)) {
                work.walks += 1;
                work.cells_opened += lists.cells_opened;
            }
            let (near, far) = (lists.near.len() as u64, lists.far_pos.len() as u64);
            work.near_interactions += near;
            work.far_interactions += far;
            work.list_len_sum += near + far;
            work.list_len_max = work.list_len_max.max(near + far);
            work.lists_emitted += 1;
            scalar_list_sum(ip, &lists, tree, r_near, eps2)
        })
        .collect();
    (out, work)
}

/// One i-particle summed over a pair of lists the scalar way, in the
/// engine's summation structure: the near entries (bodies of `tree`) through
/// one [`accumulate_with_nn`], the neighbour kept only inside `r_near`, then
/// the far sources through [`accumulate_on`] from a zero seed, added last
/// (an empty far list adds +0.0 to sums that are never −0.0: no bit moves).
pub fn scalar_list_sum(
    ip: &IParticle,
    lists: &InteractionLists,
    tree: &Octree,
    r_near: f64,
    eps2: f64,
) -> ForceResult {
    let (pos, vel, mass) = tree.bodies();
    let near = lists.near.iter().map(|&j| j as usize);
    let mut o = accumulate_with_nn(ip, near, pos, vel, mass, eps2);
    o.nn = o.nn.filter(|nb| nb.r2 <= r_near * r_near);
    let (fp, fv, fm) = (&lists.far_pos, &lists.far_vel, &lists.far_mass);
    o.merge(&accumulate_on(ip.pos, ip.vel, fp, fv, fm, eps2, usize::MAX));
    o
}

#[cfg(test)]
mod tests {
    use super::*;
    use grape6_core::force::DirectEngine;
    use grape6_core::vec3::Vec3;

    fn disk_like(n: usize, seed: u64) -> ParticleSystem {
        let mut sys = ParticleSystem::new(0.01, 1.0);
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut rng = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        for k in 0..n {
            let r = 15.0 + 10.0 * (k as f64 / n as f64) + rng();
            let phi = rng() * std::f64::consts::TAU;
            sys.push(
                Vec3::new(r * phi.cos(), r * phi.sin(), rng() * 0.3),
                Vec3::new(rng(), rng(), rng()) * 0.05,
                1e-7 * (1.0 + rng().abs()),
            );
        }
        sys
    }

    fn ips_for(sys: &ParticleSystem, idx: std::ops::Range<usize>) -> Vec<IParticle> {
        idx.map(|i| IParticle { index: i, pos: sys.pos[i], vel: sys.vel[i] }).collect()
    }

    /// Live derivatives and staggered individual times: prediction matters.
    fn stagger(sys: &mut ParticleSystem) {
        for i in 0..sys.len() {
            sys.acc[i] = sys.pos[i] * -1e-4;
            sys.jerk[i] = sys.vel[i] * -1e-4;
            sys.time[i] = (i % 4) as f64 * 0.03125;
        }
    }

    fn predicted_ips(sys: &ParticleSystem, t: f64) -> Vec<IParticle> {
        (0..sys.len())
            .map(|i| {
                let (pos, vel) = sys.predict(i, t);
                IParticle { index: i, pos, vel }
            })
            .collect()
    }

    fn assert_bits_equal(a: &[ForceResult], b: &[ForceResult], tag: &str) {
        for (k, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(x.acc, y.acc, "{tag}: particle {k} acc");
            assert_eq!(x.jerk, y.jerk, "{tag}: particle {k} jerk");
            assert_eq!(x.pot.to_bits(), y.pot.to_bits(), "{tag}: particle {k} pot");
            assert_eq!(
                x.nn.map(|nb| (nb.index, nb.r2.to_bits())),
                y.nn.map(|nb| (nb.index, nb.r2.to_bits())),
                "{tag}: particle {k} nn"
            );
        }
    }

    #[test]
    fn theta_zero_full_radius_is_bitwise_direct_on_both_paths() {
        // Staggered particle times: the engine's j-prediction is live.
        let mut sys = disk_like(120, 1);
        stagger(&mut sys);
        let t = 0.5;
        let all = predicted_ips(&sys, t);
        let mut hybrid = HybridTreeEngine::direct_equivalent();
        let mut direct = DirectEngine::new();
        hybrid.load(&sys);
        direct.load(&sys);
        // Small block (DirectEngine's own j-lane sweep, no tree) and large
        // block (a walk whose candidate list is 0..n) — DirectEngine's paths
        // are NOT bitwise equal, so the hybrid must match each on its own turf.
        for b in [1usize, 5, SMALL_BLOCK_MAX, SMALL_BLOCK_MAX + 1, 120] {
            let mut out_h = vec![ForceResult::default(); b];
            let mut out_d = vec![ForceResult::default(); b];
            hybrid.compute(t, &all[..b], &mut out_h);
            direct.compute(t, &all[..b], &mut out_d);
            assert_bits_equal(&out_h, &out_d, &format!("b={b}"));
            assert_eq!(hybrid.work.builds, u64::from(b > SMALL_BLOCK_MAX), "b={b}");
            assert_eq!(hybrid.interaction_count(), direct.interaction_count(), "b={b}");
        }
    }

    #[test]
    fn theta_zero_full_radius_matches_direct_at_predicted_times() {
        let mut sys = disk_like(64, 2);
        // Stagger the particle times so prediction is live.
        for i in 0..sys.len() {
            sys.acc[i] = Vec3::new(1e-4, -2e-4, 5e-5);
            sys.jerk[i] = Vec3::new(-1e-6, 1e-6, 0.0);
            sys.time[i] = (i % 4) as f64 * 0.125;
        }
        let t = 0.5;
        let mut hybrid = HybridTreeEngine::direct_equivalent();
        let mut direct = DirectEngine::new();
        hybrid.load(&sys);
        direct.load(&sys);
        let ips: Vec<IParticle> = (0..sys.len())
            .map(|i| {
                let (pos, vel) = sys.predict(i, t);
                IParticle { index: i, pos, vel }
            })
            .collect();
        let mut out_h = vec![ForceResult::default(); ips.len()];
        let mut out_d = vec![ForceResult::default(); ips.len()];
        hybrid.compute(t, &ips, &mut out_h);
        direct.compute(t, &ips, &mut out_d);
        assert_bits_equal(&out_h, &out_d, "predicted");
    }

    #[test]
    fn moderate_theta_approximates_direct_and_does_less_work() {
        // A real neighbour sphere, and the pure Barnes-Hut limit (the near
        // list is then just the self entry).
        let sys = disk_like(800, 3);
        let mut direct = DirectEngine::new();
        direct.load(&sys);
        let ips = ips_for(&sys, 0..sys.len());
        let mut out_d = vec![ForceResult::default(); ips.len()];
        direct.compute(0.0, &ips, &mut out_d);
        for r_near in [2.0, 0.0] {
            let mut hybrid = HybridTreeEngine::new(0.6, r_near);
            hybrid.load(&sys);
            let mut out_h = vec![ForceResult::default(); ips.len()];
            hybrid.compute(0.0, &ips, &mut out_h);
            let mut worst: f64 = 0.0;
            for k in 0..ips.len() {
                worst = worst.max((out_h[k].acc - out_d[k].acc).norm() / out_d[k].acc.norm());
            }
            assert!(worst < 0.05, "r_near {r_near}: worst rel error {worst}");
            let w = hybrid.work;
            assert!(w.far_interactions > 0, "no cells were accepted");
            assert!(w.near_interactions >= sys.len() as u64, "self entries are near");
            assert!(
                hybrid.interaction_count() < (sys.len() as u64).pow(2) / 3,
                "r_near {r_near}: hybrid did {} evaluations, not ≪ N² = {}",
                hybrid.interaction_count(),
                (sys.len() as u64).pow(2)
            );
        }
    }

    #[test]
    fn forces_and_counters_bit_identical_across_thread_counts() {
        let sys = disk_like(300, 4);
        let run = |threads: usize| {
            rayon::with_num_threads(threads, || {
                let mut e = HybridTreeEngine::new(0.5, 3.0);
                e.load(&sys);
                let ips = ips_for(&sys, 0..sys.len());
                let mut out = vec![ForceResult::default(); ips.len()];
                e.compute(0.0, &ips, &mut out);
                (out, e.interaction_count(), e.work)
            })
        };
        let (ref_out, ref_count, ref_work) = run(1);
        for threads in [2usize, 4, 8] {
            let (out, count, work) = run(threads);
            assert_bits_equal(&out, &ref_out, &format!("threads={threads}"));
            assert_eq!(count, ref_count, "threads={threads}: interaction count");
            assert_eq!(work, ref_work, "threads={threads}: walk counters");
        }
    }

    #[test]
    fn rebuilds_only_when_time_changes_and_updates_invalidate() {
        let mut sys = disk_like(100, 5);
        let mut e = HybridTreeEngine::new(0.5, 2.0);
        e.load(&sys);
        let ips = ips_for(&sys, 0..SMALL_BLOCK_MAX + 1);
        let mut out = vec![ForceResult::default(); ips.len()];
        e.compute(0.0, &ips, &mut out);
        e.compute(0.0, &ips, &mut out);
        assert_eq!(e.work.builds, 1, "same-time calls must share the tree");
        e.compute(0.5, &ips, &mut out);
        assert_eq!(e.work.builds, 2);
        sys.pos[0] = Vec3::new(100.0, 0.0, 0.0);
        e.update_j(&sys, &[0]);
        e.compute(0.5, &ips, &mut out);
        assert_eq!(e.work.builds, 3, "update_j must force a rebuild");
        // The §3 argument, where it still applies: blocks that walk, at
        // distinct times, each pay a full O(N log N) build ...
        for k in 1..=20 {
            e.compute(0.5 + k as f64 * 1e-3, &ips, &mut out);
        }
        assert_eq!(e.work.builds, 23);
        // ... and where it no longer does: one-particle blocks never build
        // (nor walk: `TreeWork` is tree work only), they pay N pairs each.
        let (work, pairs) = (e.work, e.interaction_count());
        for k in 21..=40 {
            e.compute(0.5 + k as f64 * 1e-3, &ips[..1], &mut out[..1]);
        }
        assert_eq!(e.work, work, "20 one-particle blocks: 0 builds, 0 walks");
        assert_eq!(e.interaction_count(), pairs + 20 * sys.len() as u64);
    }

    #[test]
    fn checkpoint_state_round_trips_and_pins_the_configuration() {
        let sys = disk_like(80, 6);
        let mut e = HybridTreeEngine::new(0.4, 2.0);
        e.load(&sys);
        let ips = ips_for(&sys, 0..sys.len());
        let mut out = vec![ForceResult::default(); ips.len()];
        e.compute(0.0, &ips, &mut out);
        e.compute(0.25, &ips[..3], &mut out[..3]);
        let state = e.checkpoint_state();
        assert_eq!(state.len(), 96);
        let mut fresh = HybridTreeEngine::new(0.4, 2.0);
        fresh.load(&sys);
        fresh.restore_checkpoint_state(&state).unwrap();
        assert_eq!(fresh.interaction_count(), e.interaction_count());
        assert_eq!(fresh.force_calls(), e.force_calls());
        assert_eq!(fresh.work, e.work);
        assert!(fresh.work.walks > 0 && fresh.work.walks < fresh.work.lists_emitted);
        assert!(fresh.restore_checkpoint_state(&state[..10]).is_err());
        // A resume under another opening angle or radius is a different
        // run: refused, naming both values, and nothing restored.
        for (theta, r_near, named) in [(0.3, 2.0, ["0.4", "0.3"]), (0.4, 2.5, ["2", "2.5"])] {
            let mut other = HybridTreeEngine::new(theta, r_near);
            other.load(&sys);
            let err = other.restore_checkpoint_state(&state).unwrap_err();
            assert!(named.iter().all(|v| err.contains(v)), "{err}");
            assert_eq!(other.work, TreeWork::default());
        }
        // The nine-counter blob of earlier versions carries no configuration.
        let err = fresh.restore_checkpoint_state(&state[..72]).unwrap_err();
        assert!(err.contains("theta"), "{err}");
    }

    #[test]
    fn engine_is_the_scalar_sum_over_group_lists_bitwise() {
        // The product (group buckets, lane tiles, pieces across the pool;
        // the j-lane sweep for blocks that do not walk) against the scalar
        // oracle, one i-particle at a time: forces, neighbours and counters,
        // on both block paths, with ragged tiles, at every pool size.
        let n = 2100; // enough bodies for groups of GROUP_MAX
        let mut sys = disk_like(n, 7);
        stagger(&mut sys);
        let t = 0.125;
        let ips = predicted_ips(&sys, t);
        let (ppos, pvel): (Vec<_>, Vec<_>) = ips.iter().map(|ip| (ip.pos, ip.vel)).unzip();
        let tree = Octree::build(&ppos, &pvel, &sys.mass);
        let eps2 = sys.softening * sys.softening;
        for theta in [0.3, 0.5, 0.75] {
            for r_near in [0.0, 1.0, 3.0] {
                for block in [1usize, 5, 16, 17, n] {
                    // Strided blocks: members of one group arrive apart.
                    let blocks: Vec<Vec<IParticle>> = (0..n.div_ceil(block))
                        .map(|c| {
                            let stride = n / block;
                            (0..block).map(|k| ips[(c + k * stride) % n]).collect()
                        })
                        .take(7)
                        .collect();
                    let mut want_work = TreeWork::default();
                    let want: Vec<Vec<ForceResult>> = blocks
                        .iter()
                        .map(|is| {
                            let (out, work) = scalar_block_forces(&tree, is, theta, r_near, eps2);
                            want_work.merge(&work);
                            out
                        })
                        .collect();
                    // Blocks that walk share one build; small ones pay b × N.
                    let walks = block > SMALL_BLOCK_MAX;
                    want_work.builds = u64::from(walks);
                    let direct_pairs = if walks { 0 } else { blocks.len() * block * n };
                    for threads in [1usize, 2, 4, 8] {
                        rayon::with_num_threads(threads, || {
                            let mut e = HybridTreeEngine::new(theta, r_near);
                            e.load(&sys);
                            for (is, want) in blocks.iter().zip(&want) {
                                let mut out = vec![ForceResult::default(); is.len()];
                                e.compute(t, is, &mut out);
                                let tag = format!("θ={theta} r={r_near} b={block} T={threads}");
                                assert_bits_equal(&out, want, &tag);
                            }
                            assert_eq!(e.work, want_work, "θ={theta} r={r_near} b={block}");
                            let pairs = want_work.list_len_sum + direct_pairs as u64;
                            assert_eq!(e.interaction_count(), pairs);
                        });
                    }
                }
            }
        }
    }

    #[test]
    fn a_block_larger_than_one_round_of_pieces_is_swept_in_rounds() {
        // One thread cuts one piece per round, of at most PIECE_MAX members.
        let sys = disk_like(PIECE_MAX + 700, 9);
        let tree = Octree::build(&sys.pos, &sys.vel, &sys.mass);
        let ips = ips_for(&sys, 0..sys.len());
        let eps2 = sys.softening * sys.softening;
        let (want, work) = scalar_group_forces(&tree, &ips, 0.5, 1.0, eps2);
        for threads in [1usize, 2] {
            rayon::with_num_threads(threads, || {
                let mut e = HybridTreeEngine::new(0.5, 1.0);
                e.load(&sys);
                let mut out = vec![ForceResult::default(); ips.len()];
                e.compute(0.0, &ips, &mut out);
                assert_bits_equal(&out, &want, &format!("T={threads}"));
                assert_eq!(e.work, TreeWork { builds: 1, ..work });
                assert!(e
                    .pieces
                    .iter()
                    .all(|p| p.out.len() <= PIECE_MAX + crate::octree::GROUP_MAX));
            });
        }
    }

    #[test]
    fn probes_and_displaced_bodies_walk_alone() {
        // An index that is not a tree body, and a body asked about away
        // from where the tree holds it, get their own point walk: exact
        // near field around the point they gave, never a group's box.
        let sys = disk_like(2100, 8);
        let tree = Octree::build(&sys.pos, &sys.vel, &sys.mass);
        let mut ips = ips_for(&sys, 0..40);
        ips[3].index = usize::MAX;
        ips[9].pos += Vec3::new(0.5, -0.25, 0.0);
        ips[20].index = usize::MAX;
        let mut e = HybridTreeEngine::new(0.5, 2.0);
        e.load(&sys);
        let mut out = vec![ForceResult::default(); ips.len()];
        e.compute(0.0, &ips, &mut out);
        let eps2 = sys.softening * sys.softening;
        let (want, work) = scalar_group_forces(&tree, &ips, 0.5, 2.0, eps2);
        assert_bits_equal(&out, &want, "probes");
        assert_eq!(e.work, TreeWork { builds: 1, ..work });
        // Each of the three, seventeen times over in a block that walks:
        // seventeen lone walks, each consuming exactly its point walk's list.
        let mut lists = InteractionLists::default();
        for k in [3usize, 9, 20] {
            let block = [ips[k]; SMALL_BLOCK_MAX + 1];
            e.reset_counters();
            e.compute(0.0, &block, &mut out[..block.len()]);
            tree.interaction_lists(ips[k].pos, 0.5, 2.0, &mut lists);
            assert_eq!((e.work.walks, e.work.list_len_sum), (17, 17 * lists.len() as u64), "{k}");
            assert_eq!(e.work.cells_opened, 17 * lists.cells_opened, "slot {k}");
            // As a block of its own it never walks: the exact sum over all
            // N bodies around the point it gave, whatever index it carries.
            e.reset_counters();
            e.compute(0.0, &ips[k..=k], &mut out[k..=k]);
            let (want, work) = scalar_block_forces(&tree, &ips[k..=k], 0.5, 2.0, eps2);
            assert_bits_equal(&out[k..=k], &want, &format!("slot {k} alone"));
            assert_eq!((e.work, e.interaction_count()), (work, sys.len() as u64), "slot {k}");
        }
    }

    #[test]
    fn theta_zero_anchor_holds_with_massless_bodies() {
        // Test particles (mass 0) are bodies like any other: they must
        // stay in the lists, or the anchor loses them as neighbours.
        for seed in 0..20 {
            let mut sys = disk_like(60, 100 + seed);
            sys.mass.iter_mut().step_by(2).for_each(|m| *m = 0.0);
            let mut hybrid = HybridTreeEngine::direct_equivalent();
            let mut direct = DirectEngine::new();
            hybrid.load(&sys);
            direct.load(&sys);
            for b in [5usize, 60] {
                let ips = ips_for(&sys, 0..b);
                let mut out_h = vec![ForceResult::default(); b];
                let mut out_d = vec![ForceResult::default(); b];
                hybrid.compute(0.0, &ips, &mut out_h);
                direct.compute(0.0, &ips, &mut out_d);
                assert_bits_equal(&out_h, &out_d, &format!("seed={seed} b={b}"));
            }
        }
    }
}
