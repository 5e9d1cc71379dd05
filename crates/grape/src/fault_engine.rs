//! `FaultTolerantEngine`: dual-modular GRAPE-6 with a detect → retry →
//! scrub → degrade recovery ladder.
//!
//! The wrapper drives two complete [`Grape6Engine`] units in lockstep —
//! DESIGN.md item 30's dual-modular redundancy made operational. Every
//! force block is computed twice and compared bit-for-bit; the force
//! readout additionally crosses a modeled checksummed link
//! ([`crate::wire::encode_force_checked`]). A seeded [`FaultPlan`]
//! schedules SSRAM bit flips, link corruption and board deaths, and the
//! recovery ladder answers each:
//!
//! 1. **detect** — DMR mismatch or packet-checksum failure;
//! 2. **retry** — recompute the block / retransmit the packet (the modeled
//!    clock is charged again: throughput lost to recovery);
//! 3. **scrub** — if the retry still disagrees the fault is resident, so
//!    both units' j-memories are scrubbed against the host's authoritative
//!    copy and the block recomputed once more;
//! 4. **degrade** — a dead board is removed from the afflicted unit's
//!    timing geometry; the survivors absorb its share and the clock runs
//!    slower for the rest of the run.
//!
//! **Why recovery is bit-exact.** Per-board partitioning enters the force
//! sum only through the timing model, and at most one unit is corrupted
//! per upset. If the units agree, the untouched unit's bits — which equal
//! the delivered bits — are the true answer; if they disagree, scrubbing
//! restores both to the authoritative encoding and the recomputation
//! matches a fault-free run exactly. Either way the integrator sees the
//! same bits as with a plain [`Grape6Engine`], which is what the
//! fault-matrix CI job pins down.

use crate::engine::{Grape6Config, Grape6Engine};
use crate::fault::{FaultInjector, FaultKind, FaultPlan};
use crate::predictor::JParticle;
use crate::wire::{
    decode_force_checked, encode_force_checked, flip_packet_bit, F_PACKET_BYTES,
    F_PACKET_CHECKED_BYTES,
};
use bytes::BytesMut;
use grape6_core::engine::{FaultStats, ForceEngine};
use grape6_core::fields::Fields;
use grape6_core::particle::{ForceResult, IParticle, ParticleSystem};

/// Dual-modular redundant GRAPE-6 with fault injection and recovery.
#[derive(Debug, Clone)]
pub struct FaultTolerantEngine {
    unit_a: Grape6Engine,
    unit_b: Grape6Engine,
    // Host-authoritative j-memory copy (what `load`/`update_j` wrote);
    // scrub target for both units.
    shadow: Vec<JParticle>,
    injector: FaultInjector,
    stats: FaultStats,
    // Force-call ordinal driving the fault schedule.
    step: u64,
    // A pending link corruption: the next force readout flips this bit.
    armed_link_flip: Option<usize>,
    // Checksum trailers + retransmissions, on top of unit A's traffic.
    extra_wire_bytes: u64,
    out_b: Vec<ForceResult>,
}

impl FaultTolerantEngine {
    /// Build two identical units for `config` and arm the fault plan.
    pub fn new(config: Grape6Config, plan: &FaultPlan) -> Self {
        Self {
            unit_a: Grape6Engine::new(config),
            unit_b: Grape6Engine::new(config),
            shadow: Vec::new(),
            injector: FaultInjector::new(plan),
            stats: FaultStats::default(),
            step: 0,
            armed_link_flip: None,
            extra_wire_bytes: 0,
            out_b: Vec::new(),
        }
    }

    /// The two units' degraded board counts `(a, b)` — equal to the
    /// configured `boards_per_host` until a `BoardFail` event fires.
    pub fn boards_per_host(&self) -> (usize, usize) {
        (
            self.unit_a.config.timing.geometry.boards_per_host,
            self.unit_b.config.timing.geometry.boards_per_host,
        )
    }

    fn unit_mut(&mut self, unit: usize) -> &mut Grape6Engine {
        if unit.is_multiple_of(2) {
            &mut self.unit_a
        } else {
            &mut self.unit_b
        }
    }

    fn apply_due_faults(&mut self) {
        for ev in self.injector.take_due(self.step) {
            self.stats.injected += 1;
            match ev.kind {
                FaultKind::JMemFlip { unit, index, bit } => {
                    self.unit_mut(unit).corrupt_j_word(index, bit);
                }
                FaultKind::LinkFlip { bit } => {
                    self.armed_link_flip = Some(bit);
                }
                FaultKind::BoardFail { unit } => {
                    self.stats.boards_failed += 1;
                    let g = &mut self.unit_mut(unit).config.timing.geometry;
                    // The last board of a host cannot be repartitioned away;
                    // the real operators would swap hardware at that point.
                    if g.boards_per_host > 1 {
                        g.boards_per_host -= 1;
                    }
                }
            }
        }
    }

    fn outputs_agree(a: &[ForceResult], b: &[ForceResult]) -> bool {
        a.iter().zip(b).all(|(x, y)| x.acc == y.acc && x.jerk == y.jerk && x.pot == y.pot)
    }

    /// Model the checksummed force readout: each result crosses the link
    /// as a [`F_PACKET_CHECKED_BYTES`] packet; a corrupted packet is
    /// caught by its Fletcher-32 trailer and retransmitted. The delivered
    /// bits always equal the computed bits (the neighbour report travels
    /// on the separate neighbour-memory readout, not this wire).
    fn readout_through_link(&mut self, out: &mut [ForceResult]) {
        self.extra_wire_bytes += (out.len() * (F_PACKET_CHECKED_BYTES - F_PACKET_BYTES)) as u64;
        for (k, o) in out.iter_mut().enumerate() {
            let mut buf = BytesMut::with_capacity(F_PACKET_CHECKED_BYTES);
            encode_force_checked(&mut buf, o);
            if k == 0 {
                if let Some(bit) = self.armed_link_flip.take() {
                    flip_packet_bit(&mut buf[..F_PACKET_BYTES], bit);
                }
            }
            let decoded = match decode_force_checked(&mut buf.clone().freeze()) {
                Ok(f) => f,
                Err(_) => {
                    self.stats.checksum_errors += 1;
                    self.stats.retries += 1;
                    self.extra_wire_bytes += F_PACKET_CHECKED_BYTES as u64;
                    let mut retx = BytesMut::with_capacity(F_PACKET_CHECKED_BYTES);
                    encode_force_checked(&mut retx, o);
                    decode_force_checked(&mut retx.freeze())
                        .expect("retransmitted packet must verify")
                }
            };
            o.acc = decoded.acc;
            o.jerk = decoded.jerk;
            o.pot = decoded.pot;
        }
    }
}

impl ForceEngine for FaultTolerantEngine {
    fn load(&mut self, sys: &ParticleSystem) {
        self.unit_a.load(sys);
        self.unit_b.load(sys);
        self.shadow = self.unit_a.jmem().to_vec();
    }

    fn update_j(&mut self, sys: &ParticleSystem, indices: &[usize]) {
        let (fmt, precision) = (self.unit_a.config.format, self.unit_a.config.precision);
        for &i in indices {
            // One host-side encode; the same word goes to both units and,
            // clean by construction, into the authoritative copy.
            let word = JParticle::from_system(&fmt, precision, sys, i);
            self.shadow[i] = word;
            self.unit_a.write_j(i, word).expect("overwrite of a resident word");
            self.unit_b.write_j(i, word).expect("overwrite of a resident word");
        }
    }

    fn compute(&mut self, t: f64, ips: &[IParticle], out: &mut [ForceResult]) {
        self.apply_due_faults();
        self.out_b.clear();
        self.out_b.resize(out.len(), ForceResult::default());
        let mut out_b = std::mem::take(&mut self.out_b);
        self.unit_a.compute(t, ips, out);
        self.unit_b.compute(t, ips, &mut out_b);

        if !Self::outputs_agree(out, &out_b) {
            // Detect → retry: recompute the whole block on both units. Both
            // clocks charge again — that is the throughput lost to recovery.
            self.stats.dmr_mismatches += 1;
            self.stats.retries += 1;
            self.unit_a.compute(t, ips, out);
            self.unit_b.compute(t, ips, &mut out_b);
            if !Self::outputs_agree(out, &out_b) {
                // Retry → scrub: the fault is resident in some j-memory.
                // Rewrite both units from the authoritative copy, then the
                // recomputation must agree bit-for-bit.
                self.stats.scrubs += 1;
                let shadow = std::mem::take(&mut self.shadow);
                self.stats.words_scrubbed += self.unit_a.scrub_jmem(&shadow).len() as u64;
                self.stats.words_scrubbed += self.unit_b.scrub_jmem(&shadow).len() as u64;
                self.shadow = shadow;
                self.stats.retries += 1;
                self.unit_a.compute(t, ips, out);
                self.unit_b.compute(t, ips, &mut out_b);
                assert!(
                    Self::outputs_agree(out, &out_b),
                    "units still disagree after a scrub — fault model broken"
                );
            }
        }
        self.out_b = out_b;
        self.readout_through_link(out);
        self.step += 1;
    }

    fn interaction_count(&self) -> u64 {
        // Unit A's count includes recovery recomputations — real work the
        // machine performed.
        self.unit_a.interaction_count()
    }

    fn reset_counters(&mut self) {
        self.unit_a.reset_counters();
        self.unit_b.reset_counters();
        self.extra_wire_bytes = 0;
    }

    fn bytes_transferred(&self) -> u64 {
        self.unit_a.bytes_transferred() + self.extra_wire_bytes
    }

    fn modeled_seconds(&self) -> f64 {
        // The block completes when the slower (possibly degraded) unit does.
        self.unit_a.modeled_seconds().max(self.unit_b.modeled_seconds())
    }

    fn fault_stats(&self) -> FaultStats {
        self.stats
    }

    fn checkpoint_state(&self) -> Vec<u8> {
        let mut s = Vec::new();
        for v in [
            self.stats.injected,
            self.stats.dmr_mismatches,
            self.stats.checksum_errors,
            self.stats.retries,
            self.stats.scrubs,
            self.stats.words_scrubbed,
            self.stats.boards_failed,
            self.step,
            self.injector.cursor() as u64,
            self.extra_wire_bytes,
            self.unit_a.config.timing.geometry.boards_per_host as u64,
            self.unit_b.config.timing.geometry.boards_per_host as u64,
        ] {
            s.extend_from_slice(&v.to_le_bytes());
        }
        // An armed link flip is consumed by the next readout; carry it.
        match self.armed_link_flip {
            Some(bit) => {
                s.push(1);
                s.extend_from_slice(&(bit as u64).to_le_bytes());
            }
            None => {
                s.push(0);
                s.extend_from_slice(&0u64.to_le_bytes());
            }
        }
        for unit in [&self.unit_a, &self.unit_b] {
            let u = unit.checkpoint_state();
            s.extend_from_slice(&(u.len() as u32).to_le_bytes());
            s.extend_from_slice(&u);
        }
        s
    }

    fn restore_checkpoint_state(&mut self, state: &[u8]) -> Result<(), String> {
        let mut f = Fields::new(state, "grape6-ft checkpoint state");
        self.stats.injected = f.u64()?;
        self.stats.dmr_mismatches = f.u64()?;
        self.stats.checksum_errors = f.u64()?;
        self.stats.retries = f.u64()?;
        self.stats.scrubs = f.u64()?;
        self.stats.words_scrubbed = f.u64()?;
        self.stats.boards_failed = f.u64()?;
        self.step = f.u64()?;
        self.injector.set_cursor(f.u64()? as usize)?;
        self.extra_wire_bytes = f.u64()?;
        // Degrading only ever decrements a unit's board count, never below 1.
        for unit in [&mut self.unit_a, &mut self.unit_b] {
            let boards = &mut unit.config.timing.geometry.boards_per_host;
            let saved = f.u64()?;
            if saved == 0 || saved > *boards as u64 {
                return Err(format!(
                    "grape6-ft checkpoint state: boards_per_host {saved} outside 1..={boards}"
                ));
            }
            *boards = saved as usize;
        }
        let (tag, bit) = (f.u8()?, f.u64()?);
        self.armed_link_flip = match tag {
            0 => None,
            1 => Some(bit as usize),
            tag => return Err(format!("grape6-ft checkpoint state: armed_link_flip tag {tag}")),
        };
        for unit in [&mut self.unit_a, &mut self.unit_b] {
            unit.restore_checkpoint_state(f.prefixed()?)?;
        }
        f.finish()
    }

    fn name(&self) -> &'static str {
        "grape6-ft"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultEvent;
    use grape6_core::vec3::Vec3;

    fn ring_system(n: usize) -> ParticleSystem {
        let mut sys = ParticleSystem::new(0.008, 1.0);
        for k in 0..n {
            let theta = k as f64 * std::f64::consts::TAU / n as f64;
            let r = 15.0 + 20.0 * (k as f64 / n as f64);
            let v = grape6_core::units::circular_speed(r, 1.0);
            sys.push(
                Vec3::new(r * theta.cos(), r * theta.sin(), 0.01 * (k as f64).sin()),
                Vec3::new(-v * theta.sin(), v * theta.cos(), 0.0),
                1e-9 * (1.0 + (k % 13) as f64),
            );
        }
        sys
    }

    fn ips_for(sys: &ParticleSystem, idx: &[usize]) -> Vec<IParticle> {
        idx.iter().map(|&i| IParticle { index: i, pos: sys.pos[i], vel: sys.vel[i] }).collect()
    }

    fn plan_of(events: Vec<FaultEvent>) -> FaultPlan {
        FaultPlan { seed: 0, events }
    }

    /// Reference bits: a plain engine over the same calls.
    fn reference(sys: &ParticleSystem, calls: &[Vec<usize>]) -> Vec<Vec<ForceResult>> {
        let mut e = Grape6Engine::new(Grape6Config::single_host());
        e.load(sys);
        calls
            .iter()
            .map(|idx| {
                let ips = ips_for(sys, idx);
                let mut out = vec![ForceResult::default(); ips.len()];
                e.compute(0.0, &ips, &mut out);
                out
            })
            .collect()
    }

    fn faulty(
        sys: &ParticleSystem,
        calls: &[Vec<usize>],
        plan: FaultPlan,
    ) -> (Vec<Vec<ForceResult>>, FaultTolerantEngine) {
        let mut e = FaultTolerantEngine::new(Grape6Config::single_host(), &plan);
        e.load(sys);
        let outs = calls
            .iter()
            .map(|idx| {
                let ips = ips_for(sys, idx);
                let mut out = vec![ForceResult::default(); ips.len()];
                e.compute(0.0, &ips, &mut out);
                out
            })
            .collect();
        (outs, e)
    }

    #[test]
    fn fault_free_matches_plain_engine_bitwise() {
        let sys = ring_system(48);
        let calls: Vec<Vec<usize>> = vec![(0..48).collect(), vec![3, 7], vec![0]];
        let clean = reference(&sys, &calls);
        let (outs, e) = faulty(&sys, &calls, FaultPlan::empty());
        assert_eq!(clean, outs);
        assert!(e.fault_stats().is_zero());
    }

    #[test]
    fn jmem_flip_detected_and_recovered_bitwise() {
        let sys = ring_system(48);
        let calls: Vec<Vec<usize>> = vec![(0..48).collect(), vec![3, 7], vec![0, 1, 2]];
        let clean = reference(&sys, &calls);
        // A high-order position-bit flip in unit B before the second call.
        let plan = plan_of(vec![FaultEvent {
            at_step: 1,
            kind: FaultKind::JMemFlip { unit: 1, index: 3, bit: 40 },
        }]);
        let (outs, e) = faulty(&sys, &calls, plan);
        assert_eq!(clean, outs, "recovered output must be bit-identical");
        let st = e.fault_stats();
        assert_eq!(st.injected, 1);
        assert_eq!(st.dmr_mismatches, 1, "caught once: the call after the repair compares clean");
        assert_eq!(st.scrubs, 1);
        assert_eq!(st.words_scrubbed, 1, "exactly the corrupted word is rewritten");
        assert_eq!(st.retries, 2, "one failed retry + one post-scrub recompute");
    }

    #[test]
    fn link_flip_caught_by_checksum_and_retransmitted() {
        let sys = ring_system(32);
        let calls: Vec<Vec<usize>> = vec![vec![0, 1, 2], vec![5]];
        let clean = reference(&sys, &calls);
        let plan = plan_of(vec![FaultEvent { at_step: 0, kind: FaultKind::LinkFlip { bit: 77 } }]);
        let (outs, e) = faulty(&sys, &calls, plan);
        assert_eq!(clean, outs);
        let st = e.fault_stats();
        assert_eq!(st.checksum_errors, 1);
        assert_eq!(st.retries, 1);
        assert_eq!(st.dmr_mismatches, 0, "a link flip never reaches the DMR compare");
    }

    #[test]
    fn board_failure_degrades_timing_but_not_bits() {
        let sys = ring_system(48);
        let calls: Vec<Vec<usize>> = vec![(0..48).collect(), (0..48).collect()];
        let clean = reference(&sys, &calls);
        // A two-board host so there is a board to lose.
        let mut config = Grape6Config::single_host();
        config.timing.geometry.boards_per_host = 2;
        let plan = plan_of(vec![FaultEvent { at_step: 1, kind: FaultKind::BoardFail { unit: 0 } }]);
        let run = |plan: &FaultPlan| {
            let mut e = FaultTolerantEngine::new(config, plan);
            e.load(&sys);
            let outs: Vec<Vec<ForceResult>> = calls
                .iter()
                .map(|idx| {
                    let ips = ips_for(&sys, idx);
                    let mut out = vec![ForceResult::default(); ips.len()];
                    e.compute(0.0, &ips, &mut out);
                    out
                })
                .collect();
            (outs, e)
        };
        let (outs, e) = run(&plan);
        assert_eq!(clean, outs, "a board death must not change the physics");
        assert_eq!(e.fault_stats().boards_failed, 1);
        assert_eq!(e.boards_per_host(), (1, 2));
        // The degraded machine is slower than a fault-free one over the
        // same calls.
        let (_, e_clean) = run(&FaultPlan::empty());
        assert!(e.modeled_seconds() > e_clean.modeled_seconds());
    }

    #[test]
    fn checkpoint_state_roundtrip() {
        let sys = ring_system(32);
        let plan = FaultPlan::random(11, 6, 4);
        let calls: Vec<Vec<usize>> = (0..4).map(|_| (0..32).collect()).collect();
        let (_, e) = faulty(&sys, &calls, plan.clone());
        let state = e.checkpoint_state();
        let mut resumed = FaultTolerantEngine::new(Grape6Config::single_host(), &plan);
        resumed.load(&sys);
        resumed.restore_checkpoint_state(&state).unwrap();
        assert_eq!(resumed.fault_stats(), e.fault_stats());
        assert_eq!(resumed.step, e.step);
        assert_eq!(resumed.boards_per_host(), e.boards_per_host());
        assert_eq!(resumed.bytes_transferred(), e.bytes_transferred());
        assert_eq!(resumed.modeled_seconds().to_bits(), e.modeled_seconds().to_bits());
        assert!(resumed.restore_checkpoint_state(&state[..10]).is_err());
    }

    #[test]
    fn damaged_checkpoint_state_is_rejected_naming_the_field() {
        // G6CK carries no checksum, so the blob's own fields are the trust
        // boundary: a zero board count used to restore `Ok` and then divide
        // by zero in the timing model at the next force call.
        let sys = ring_system(8);
        let (_, e) = faulty(&sys, &[vec![0, 1]], FaultPlan::empty());
        let state = e.checkpoint_state();
        let restore = |at: std::ops::Range<usize>, bytes: &[u8]| {
            let mut damaged = state.clone();
            damaged[at].copy_from_slice(bytes);
            FaultTolerantEngine::new(Grape6Config::single_host(), &FaultPlan::empty())
                .restore_checkpoint_state(&damaged)
        };
        assert_eq!(restore(0..0, &[]), Ok(()));
        for at in [80..88, 88..96] {
            for boards in [0, u64::MAX] {
                let err = restore(at.clone(), &boards.to_le_bytes()).unwrap_err();
                assert!(err.contains("boards_per_host"), "{err}");
            }
        }
        let err = restore(96..97, &[7]).unwrap_err();
        assert!(err.contains("armed_link_flip"), "{err}");
    }
}
