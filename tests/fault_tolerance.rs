//! Tier-1 fault-tolerance and checkpoint/restart tests — the CI fault
//! matrix runs this file under several `GRAPE6_FAULT_SEED` values and
//! `RAYON_NUM_THREADS` settings.
//!
//! The contract under test: the dual-modular [`FaultTolerantEngine`]
//! delivers **bit-identical** results to a plain [`Grape6Engine`] no matter
//! what the fault plan injects (SSRAM flips, link corruption, board
//! deaths), and a checkpoint written at any block boundary resumes
//! bit-identically for every engine.

mod common;

use common::{assert_systems_bit_equal, disk};
use grape6::prelude::*;
use grape6_hw::{FaultEvent, FaultKind};
use proptest::prelude::*;

fn cfg() -> HermiteConfig {
    HermiteConfig { dt_max: 2.0f64.powi(-2), ..HermiteConfig::default() }
}

/// A development machine with a board to lose.
fn two_board_config() -> Grape6Config {
    let mut c = Grape6Config::single_host();
    c.timing.geometry.boards_per_host = 2;
    c
}

/// Seed for the randomized fault plans; the CI matrix overrides this.
fn fault_seed() -> u64 {
    std::env::var("GRAPE6_FAULT_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(1)
}

/// Drive a plain GRAPE-6 simulation `blocks` block steps: the fault-free
/// reference bits every recovery must reproduce.
fn plain_reference(n: usize, seed: u64, blocks: usize) -> Simulation<Grape6Engine> {
    let mut sim = Simulation::new(disk(n, seed), cfg(), Grape6Engine::new(two_board_config()));
    for _ in 0..blocks {
        sim.step();
    }
    sim
}

fn faulty_run(
    n: usize,
    seed: u64,
    blocks: usize,
    plan: &FaultPlan,
) -> Simulation<FaultTolerantEngine> {
    let mut sim =
        Simulation::new(disk(n, seed), cfg(), FaultTolerantEngine::new(two_board_config(), plan));
    for _ in 0..blocks {
        sim.step();
    }
    sim
}

#[test]
fn mid_run_board_failure_completes_with_recovery_telemetry() {
    let (n, seed, blocks) = (40, 21, 12);
    let mut reference = plain_reference(n, seed, blocks);
    // Kill a board of unit A mid-run, with an SSRAM flip and a link flip
    // around it so every rung of the recovery ladder fires.
    let plan = FaultPlan {
        seed: 0,
        events: vec![
            FaultEvent { at_step: 3, kind: FaultKind::JMemFlip { unit: 1, index: 7, bit: 38 } },
            FaultEvent { at_step: 6, kind: FaultKind::BoardFail { unit: 0 } },
            FaultEvent { at_step: 8, kind: FaultKind::LinkFlip { bit: 200 } },
        ],
    };
    let mut faulty = faulty_run(n, seed, blocks, &plan);

    // Each rung runs exactly once: the SSRAM flip is caught by the DMR
    // compare, survives its retry, is scrubbed (one word) and retried again;
    // the link flip is caught by the packet checksum and retried.
    assert_eq!(
        faulty.engine.fault_stats(),
        FaultStats {
            injected: 3,
            dmr_mismatches: 1,
            checksum_errors: 1,
            retries: 3,
            scrubs: 1,
            words_scrubbed: 1,
            boards_failed: 1,
        }
    );
    assert_eq!(faulty.engine.boards_per_host(), (1, 2), "unit A runs degraded");

    // The physics is untouched: bit-identical state, hence identical energy.
    assert_systems_bit_equal(&reference.sys, &faulty.sys, "board-failure run");
    // Retried blocks are real extra work, so the faulty run counts *more*
    // interactions over the same block schedule — never fewer.
    assert_eq!(reference.stats().block_steps, faulty.stats().block_steps);
    assert_eq!(reference.stats().particle_steps, faulty.stats().particle_steps);
    assert!(faulty.stats().interactions > reference.stats().interactions);
    reference.record_diagnostics();
    faulty.record_diagnostics();
    let e_ref = reference.diagnostics.last().unwrap().energy_error;
    let e_fault = faulty.diagnostics.last().unwrap().energy_error;
    assert_eq!(e_ref.to_bits(), e_fault.to_bits(), "energy drift must match the fault-free run");
    assert!(e_fault < 1e-5, "energy error {e_fault:e}");

    // Degrade is charged to the modeled clock: lost throughput, not lost bits.
    let clean = faulty_run(n, seed, blocks, &FaultPlan::empty());
    assert!(faulty.engine.modeled_seconds() > clean.engine.modeled_seconds());
}

#[test]
fn jmem_flip_is_caught_by_dmr_before_the_corrector_sees_it() {
    let (n, seed, blocks) = (32, 5, 10);
    let reference = plain_reference(n, seed, blocks);
    let plan = FaultPlan {
        seed: 0,
        events: vec![FaultEvent {
            at_step: 4,
            kind: FaultKind::JMemFlip { unit: 0, index: 11, bit: 52 },
        }],
    };
    let faulty = faulty_run(n, seed, blocks, &plan);
    let st = faulty.engine.fault_stats();
    assert_eq!(st.injected, 1);
    assert!(st.dmr_mismatches >= 1);
    assert_eq!(st.scrubs, 1, "a resident SSRAM fault escalates retry -> scrub");
    assert_eq!(st.words_scrubbed, 1, "exactly the flipped word is rewritten");
    // "Before the corrector": had the corrupted force reached the Hermite
    // corrector even once, positions would differ from the reference bits.
    assert_systems_bit_equal(&reference.sys, &faulty.sys, "jmem-flip run");
}

#[test]
fn seeded_fault_matrix_recovers_bit_identically() {
    let base = fault_seed();
    for seed in [base, base + 1, base + 2] {
        let plan = FaultPlan::random(seed, 6, 10);
        assert!(!plan.is_empty());
        let reference = plain_reference(36, 13, 14);
        let faulty = faulty_run(36, 13, 14, &plan);
        let st = faulty.engine.fault_stats();
        assert_eq!(st.injected as usize, plan.len(), "seed {seed}: every event fires");
        assert!(st.detected() > 0 || st.boards_failed > 0, "seed {seed}: plan had no effect");
        assert_systems_bit_equal(&reference.sys, &faulty.sys, &format!("fault seed {seed}"));
        assert_eq!(reference.stats().block_steps, faulty.stats().block_steps, "seed {seed}");
        assert_eq!(reference.stats().particle_steps, faulty.stats().particle_steps, "seed {seed}");
        assert!(faulty.stats().interactions >= reference.stats().interactions, "seed {seed}");
    }
}

/// Checkpoint at a block boundary, drop everything, resume on a fresh
/// engine, and continue: the final state must equal the uninterrupted run's
/// bits exactly.
fn checkpoint_roundtrip_bitwise<E: ForceEngine>(mk: impl Fn() -> E, tag: &str) {
    let (n, seed, cut, total) = (32, 17, 6, 12);
    let build = || Simulation::new(disk(n, seed), cfg(), mk());
    let mut reference = build();
    for _ in 0..total {
        reference.step();
    }
    let mut interrupted = build();
    for _ in 0..cut {
        interrupted.step();
    }
    let ckpt = encode_checkpoint(&interrupted);
    drop(interrupted); // the "kill -9"
    let mut resumed = decode_checkpoint(ckpt, mk()).unwrap_or_else(|e| panic!("{tag}: {e}"));
    for _ in 0..(total - cut) {
        resumed.step();
    }
    assert_systems_bit_equal(&reference.sys, &resumed.sys, tag);
    assert_eq!(reference.stats(), resumed.stats(), "{tag}: run stats");
    assert_eq!(
        reference.engine.interaction_count(),
        resumed.engine.interaction_count(),
        "{tag}: interaction counter"
    );
    assert_eq!(
        reference.engine.bytes_transferred(),
        resumed.engine.bytes_transferred(),
        "{tag}: wire-byte counter"
    );
    assert_eq!(reference.engine.fault_stats(), resumed.engine.fault_stats(), "{tag}: fault stats");
}

#[test]
fn checkpoint_restart_bit_identical_direct() {
    checkpoint_roundtrip_bitwise(DirectEngine::new, "direct");
}

#[test]
fn checkpoint_restart_bit_identical_grape6() {
    checkpoint_roundtrip_bitwise(|| Grape6Engine::new(two_board_config()), "grape6");
}

#[test]
fn checkpoint_restart_bit_identical_grape6_ft_with_faults_straddling_the_cut() {
    // One fault lands before the checkpoint, one after: the injector cursor
    // in the checkpoint must make the resumed run fire exactly the rest.
    let plan = FaultPlan {
        seed: 0,
        events: vec![
            FaultEvent { at_step: 3, kind: FaultKind::JMemFlip { unit: 1, index: 2, bit: 45 } },
            FaultEvent { at_step: 9, kind: FaultKind::JMemFlip { unit: 0, index: 9, bit: 33 } },
        ],
    };
    checkpoint_roundtrip_bitwise(
        || FaultTolerantEngine::new(two_board_config(), &plan),
        "grape6-ft",
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Interrupt at a *random* block boundary: resume must always land on
    /// the reference bits.
    #[test]
    fn prop_checkpoint_restart_at_any_block_boundary(
        seed in 0u64..500,
        cut in 1usize..24,
    ) {
        let total = 24usize;
        let build = || Simulation::new(disk(28, seed), cfg(), DirectEngine::new());
        let mut reference = build();
        for _ in 0..total {
            reference.step();
        }
        let mut interrupted = build();
        for _ in 0..cut {
            interrupted.step();
        }
        let ckpt = encode_checkpoint(&interrupted);
        let mut resumed = decode_checkpoint(ckpt, DirectEngine::new()).unwrap();
        for _ in 0..(total - cut) {
            resumed.step();
        }
        prop_assert_eq!(reference.sys.t.to_bits(), resumed.sys.t.to_bits());
        for i in 0..reference.sys.len() {
            prop_assert_eq!(reference.sys.pos[i], resumed.sys.pos[i], "cut={} pos[{}]", cut, i);
            prop_assert_eq!(reference.sys.vel[i], resumed.sys.vel[i], "cut={} vel[{}]", cut, i);
            prop_assert_eq!(
                reference.sys.dt[i].to_bits(),
                resumed.sys.dt[i].to_bits(),
                "cut={} dt[{}]", cut, i
            );
        }
        prop_assert_eq!(reference.stats(), resumed.stats());
    }
}
