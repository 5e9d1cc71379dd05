//! Deterministic, seeded fault injection for the modeled GRAPE-6 hardware.
//!
//! The SC2002 run kept 2048 custom chips busy for weeks; over that span
//! SSRAM bit flips, flaky LVDS links and dead pipelines are certainties,
//! not possibilities (paper §5.2–§5.3). A [`FaultPlan`] describes *exactly*
//! which upsets hit the machine and when, as a pure function of a seed —
//! so a fault campaign is reproducible bit-for-bit across runs, thread
//! counts and checkpoint/restart boundaries.
//!
//! The plan is consumed by `crate::fault_engine::FaultTolerantEngine`,
//! which injects each event at its scheduled force call and drives the
//! detect → retry → scrub → degrade recovery ladder.

use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// One kind of hardware upset.
///
/// `unit` selects which of the two dual-modular-redundancy units the fault
/// lands on (0 or 1, reduced modulo 2 at injection time) — a real upset
/// hits one physical board set, never both, which is exactly why DMR
/// detects it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultKind {
    /// Flip one bit of a resident j-particle's fixed-point position word
    /// (an SSRAM soft error). `index` addresses the particle (modulo the
    /// loaded count), `bit` the bit within its 64-bit x word.
    JMemFlip {
        /// DMR unit the flip lands on.
        unit: usize,
        /// j-particle index (reduced modulo the loaded particle count).
        index: usize,
        /// Bit position within the 64-bit word (reduced modulo 64).
        bit: usize,
    },
    /// Flip one bit of a force-readout packet in flight on the modeled
    /// LVDS/PCI link. Caught by the per-packet checksum and retransmitted.
    LinkFlip {
        /// Bit position within the packet (reduced modulo the packet size).
        bit: usize,
    },
    /// Kill one processor board permanently. The timing model is
    /// repartitioned around it: the surviving boards absorb its share of
    /// j-memory, and the modeled clock charges the lost throughput for the
    /// rest of the run. Functional results are unaffected (per-board
    /// partitioning enters the force sum only through timing).
    BoardFail {
        /// DMR unit that loses a board.
        unit: usize,
    },
}

/// A fault scheduled for a specific force call.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// Zero-based force-call ordinal (the engine's own `compute` counter,
    /// which is deterministic for a given run) at which to inject.
    pub at_step: u64,
    /// What breaks.
    pub kind: FaultKind,
}

/// A complete, reproducible fault campaign: a seed plus the event list it
/// determined. Serializable to/from JSON for the `grape6 run --faults`
/// surface and the CI fault matrix.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct FaultPlan {
    /// Seed the events were drawn from (informational once events exist).
    #[serde(default)]
    pub seed: u64,
    /// Scheduled upsets, in any order; the injector sorts by `at_step`.
    #[serde(default)]
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// A plan with no faults (the happy path).
    pub fn empty() -> Self {
        Self::default()
    }

    /// Draw a random campaign: `n_events` upsets uniformly over force
    /// calls `[0, horizon_steps)`, mixing memory flips, link flips and —
    /// with low probability, matching their real-world rarity — board
    /// deaths. Pure function of `seed`.
    pub fn random(seed: u64, n_events: usize, horizon_steps: u64) -> Self {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let horizon = horizon_steps.max(1);
        let mut events = Vec::with_capacity(n_events);
        for _ in 0..n_events {
            let at_step = rng.gen::<u64>() % horizon;
            let roll: f64 = rng.gen();
            let kind = if roll < 0.45 {
                FaultKind::JMemFlip {
                    unit: (rng.gen::<u64>() % 2) as usize,
                    index: (rng.gen::<u64>() % 65536) as usize,
                    bit: (rng.gen::<u64>() % 64) as usize,
                }
            } else if roll < 0.9 {
                FaultKind::LinkFlip { bit: (rng.gen::<u64>() % 448) as usize }
            } else {
                FaultKind::BoardFail { unit: (rng.gen::<u64>() % 2) as usize }
            };
            events.push(FaultEvent { at_step, kind });
        }
        Self { seed, events }
    }

    /// Total number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// Cursor over a [`FaultPlan`], handing out the events due at each force
/// call in deterministic (step, insertion) order.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    events: Vec<FaultEvent>,
    cursor: usize,
}

impl FaultInjector {
    /// Build an injector; events are stably sorted by `at_step` so ties
    /// fire in plan order.
    pub fn new(plan: &FaultPlan) -> Self {
        let mut events = plan.events.clone();
        events.sort_by_key(|e| e.at_step);
        Self { events, cursor: 0 }
    }

    /// Pop every event scheduled at or before `step`. (At-or-before, not
    /// exactly-at: a resumed run whose checkpoint healed pending
    /// corruption must still fire later events.)
    pub fn take_due(&mut self, step: u64) -> Vec<FaultEvent> {
        let start = self.cursor;
        while self.cursor < self.events.len() && self.events[self.cursor].at_step <= step {
            self.cursor += 1;
        }
        self.events[start..self.cursor].to_vec()
    }

    /// Events not yet injected.
    pub fn remaining(&self) -> usize {
        self.events.len() - self.cursor
    }

    /// Current cursor position (for checkpointing).
    pub fn cursor(&self) -> usize {
        self.cursor
    }

    /// Restore a checkpointed cursor position.
    pub fn set_cursor(&mut self, cursor: usize) -> Result<(), String> {
        if cursor > self.events.len() {
            return Err(format!(
                "fault cursor {cursor} out of range (plan has {} events)",
                self.events.len()
            ));
        }
        self.cursor = cursor;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_plan_is_seed_deterministic() {
        let a = FaultPlan::random(42, 16, 1000);
        let b = FaultPlan::random(42, 16, 1000);
        assert_eq!(a, b);
        let c = FaultPlan::random(43, 16, 1000);
        assert_ne!(a, c);
        assert_eq!(a.len(), 16);
        assert!(a.events.iter().all(|e| e.at_step < 1000));
    }

    #[test]
    fn random_plan_mixes_fault_kinds() {
        let plan = FaultPlan::random(7, 200, 500);
        let mems =
            plan.events.iter().filter(|e| matches!(e.kind, FaultKind::JMemFlip { .. })).count();
        let links =
            plan.events.iter().filter(|e| matches!(e.kind, FaultKind::LinkFlip { .. })).count();
        let boards =
            plan.events.iter().filter(|e| matches!(e.kind, FaultKind::BoardFail { .. })).count();
        assert!(mems > 0 && links > 0 && boards > 0);
        assert!(boards < mems && boards < links, "board deaths must be rare");
    }

    #[test]
    fn injector_fires_in_step_order() {
        let plan = FaultPlan {
            seed: 0,
            events: vec![
                FaultEvent { at_step: 5, kind: FaultKind::LinkFlip { bit: 1 } },
                FaultEvent { at_step: 2, kind: FaultKind::LinkFlip { bit: 2 } },
                FaultEvent { at_step: 5, kind: FaultKind::LinkFlip { bit: 3 } },
            ],
        };
        let mut inj = FaultInjector::new(&plan);
        assert!(inj.take_due(1).is_empty());
        let due = inj.take_due(2);
        assert_eq!(due.len(), 1);
        assert_eq!(due[0].kind, FaultKind::LinkFlip { bit: 2 });
        let due = inj.take_due(7);
        assert_eq!(due.len(), 2);
        assert_eq!(due[0].kind, FaultKind::LinkFlip { bit: 1 });
        assert_eq!(due[1].kind, FaultKind::LinkFlip { bit: 3 });
        assert_eq!(inj.remaining(), 0);
    }

    #[test]
    fn injector_cursor_roundtrip() {
        let plan = FaultPlan::random(1, 8, 100);
        let mut inj = FaultInjector::new(&plan);
        let _ = inj.take_due(50);
        let cur = inj.cursor();
        let mut resumed = FaultInjector::new(&plan);
        resumed.set_cursor(cur).unwrap();
        assert_eq!(inj.take_due(u64::MAX), resumed.take_due(u64::MAX));
        assert!(resumed.set_cursor(999).is_err());
    }

    #[test]
    fn plan_json_roundtrip() {
        // The serde shims must carry the enum through JSON untouched — this
        // is the `--faults plan.json` file format.
        let plan = FaultPlan::random(3, 12, 64);
        let json = serde_json::to_string(&plan).unwrap();
        let back: FaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(plan, back);
    }
}
