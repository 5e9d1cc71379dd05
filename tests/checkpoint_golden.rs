//! Golden-file compatibility tests for the `G6CK` checkpoint container.
//!
//! Two frozen fixtures, one simulation: a 24-particle paper disk,
//! single-host GRAPE-6, 8 block steps, dt_max = 1/4, seed 7.
//!
//! * `tests/fixtures/golden-v1.g6ck` was written when the v1 format (single
//!   embedded `G6SN` snapshot) was frozen. Today's reader must keep loading
//!   it **bit-exactly** even though the writer has moved on.
//! * `tests/fixtures/golden-v2.g6ck` was frozen when the v2 format
//!   (chunked, streamed body) landed, by transcoding the v1 fixture so the
//!   opaque engine counters carry over bit-for-bit. Today's writer must
//!   reproduce its exact container bytes from the decoded state.
//! * `tests/fixtures/golden-v2-telemetry.g6ck` is the same run with
//!   telemetry attached (`Simulation::with_telemetry`), written under one
//!   host thread: it pins the telemetry section's layout — 7 phase-second
//!   words, 7 span-count words, then block steps, particle steps, step
//!   interactions, sweeps, init interactions, wire bytes and host threads.
//!
//! Any intentional format change must bump `CHECKPOINT_VERSION` and add a
//! new golden file (see `refreeze_current_golden` below), not rewrite these.

mod common;

use common::{assert_systems_bit_equal, disk};
use grape6::prelude::*;
use grape6_sim::checkpoint::{decode_checkpoint, encode_checkpoint, CHECKPOINT_VERSION};

const GOLDEN_V1: &[u8] = include_bytes!("fixtures/golden-v1.g6ck");
const GOLDEN_V2: &[u8] = include_bytes!("fixtures/golden-v2.g6ck");
const GOLDEN_V2_TELEMETRY: &[u8] = include_bytes!("fixtures/golden-v2-telemetry.g6ck");

fn golden_cfg() -> HermiteConfig {
    HermiteConfig { dt_max: 2.0f64.powi(-2), ..HermiteConfig::default() }
}

fn golden_engine() -> Grape6Engine {
    Grape6Engine::new(Grape6Config::single_host())
}

/// Re-run the simulation that produced the golden files.
fn golden_reference() -> Simulation<Grape6Engine> {
    let mut sim = Simulation::new(disk(24, 7), golden_cfg(), golden_engine());
    for _ in 0..8 {
        sim.step();
    }
    sim
}

#[test]
fn golden_headers_match_their_versions() {
    assert_eq!(&GOLDEN_V1[..4], b"G6CK");
    assert_eq!(u32::from_le_bytes(GOLDEN_V1[4..8].try_into().unwrap()), 1);
    assert_eq!(&GOLDEN_V2[..4], b"G6CK");
    assert_eq!(u32::from_le_bytes(GOLDEN_V2[4..8].try_into().unwrap()), 2);
    assert_eq!(CHECKPOINT_VERSION, 2, "version bumped: freeze a new golden file for it");
}

#[test]
fn golden_v1_checkpoint_still_loads_bit_exactly() {
    let sim = decode_checkpoint(Vec::from(GOLDEN_V1).into(), golden_engine())
        .expect("the v1 golden checkpoint must stay readable");
    let reference = golden_reference();
    assert_systems_bit_equal(&sim.sys, &reference.sys, "v1 golden checkpoint state");
    assert_eq!(sim.stats(), reference.stats(), "integrator counters");
    assert_eq!(
        sim.engine.interaction_count(),
        reference.engine.interaction_count(),
        "engine interaction counter"
    );
}

#[test]
fn golden_v2_checkpoint_loads_bit_exactly() {
    let sim = decode_checkpoint(Vec::from(GOLDEN_V2).into(), golden_engine())
        .expect("the v2 golden checkpoint must stay readable");
    let reference = golden_reference();
    assert_systems_bit_equal(&sim.sys, &reference.sys, "v2 golden checkpoint state");
    assert_eq!(sim.stats(), reference.stats(), "integrator counters");
    assert_eq!(
        sim.engine.interaction_count(),
        reference.engine.interaction_count(),
        "engine interaction counter"
    );
}

#[test]
fn v1_and_v2_goldens_decode_to_the_same_state() {
    let a = decode_checkpoint(Vec::from(GOLDEN_V1).into(), golden_engine()).unwrap();
    let b = decode_checkpoint(Vec::from(GOLDEN_V2).into(), golden_engine()).unwrap();
    assert_systems_bit_equal(&a.sys, &b.sys, "v1 vs v2 golden state");
    assert_eq!(a.stats(), b.stats());
    assert_eq!(a.engine.interaction_count(), b.engine.interaction_count());
}

#[test]
fn golden_checkpoint_reencodes_to_identical_bytes() {
    // Decoding either fixture and re-encoding must reproduce the current
    // (v2) golden container byte-for-byte: decode → encode is the identity
    // on the frozen format.
    for (name, golden) in [("v1", GOLDEN_V1), ("v2", GOLDEN_V2)] {
        let sim = decode_checkpoint(Vec::from(golden).into(), golden_engine()).unwrap();
        let reencoded = encode_checkpoint(&sim);
        assert_eq!(reencoded.len(), GOLDEN_V2.len(), "container length changed (from {name})");
        assert_eq!(
            &reencoded[..],
            GOLDEN_V2,
            "decode({name}) → encode is no longer the identity onto the v2 container"
        );
    }
}

#[test]
fn golden_checkpoint_resumes_the_original_trajectory() {
    let mut resumed = decode_checkpoint(Vec::from(GOLDEN_V2).into(), golden_engine()).unwrap();
    let mut reference = golden_reference();
    for _ in 0..6 {
        resumed.step();
        reference.step();
    }
    assert_systems_bit_equal(&resumed.sys, &reference.sys, "post-resume trajectory");
}

#[test]
fn golden_telemetry_checkpoint_reencodes_and_reports_its_owners() {
    // The restore stamps the current host thread count, and the fixture was
    // written under one thread: decode and encode under one too.
    rayon::with_num_threads(1, || {
        let decode = |bytes: &[u8]| decode_checkpoint(Vec::from(bytes).into(), golden_engine());
        let sim = decode(GOLDEN_V2_TELEMETRY).expect("the telemetry golden must stay readable");
        let reencoded = encode_checkpoint(&sim);
        assert!(&reencoded[..] == GOLDEN_V2_TELEMETRY, "decode → encode is not the identity");

        // Block steps, particle steps and interactions come from the
        // integrator, wire bytes from the engine.
        let rep = sim.telemetry_report().expect("telemetry section present");
        let stats = sim.stats();
        assert_eq!(stats, golden_reference().stats(), "integrator counters");
        assert_eq!(
            (rep.block_steps, rep.particle_steps, rep.interactions),
            (stats.block_steps, stats.particle_steps, stats.interactions)
        );
        assert_eq!(rep.interactions, sim.engine.interaction_count());
        assert_eq!(rep.wire_bytes, sim.engine.bytes_transferred());
        assert!(rep.init_interactions > 0 && rep.init_interactions < rep.interactions);
        assert_eq!(rep.host_threads, 1);

        // The init-interactions word sits 3 words before the end of the
        // telemetry blob, which ends where the engine name's prefix begins.
        let name = b"grape6";
        let at = GOLDEN_V2_TELEMETRY.windows(name.len()).rposition(|w| w == name).unwrap();
        let init_at = at - 4 - 3 * 8;
        let word =
            u64::from_le_bytes(GOLDEN_V2_TELEMETRY[init_at..init_at + 8].try_into().unwrap());
        assert_eq!(word, rep.init_interactions);
        let mut damaged = GOLDEN_V2_TELEMETRY.to_vec();
        damaged[init_at..init_at + 8].copy_from_slice(&(stats.interactions + 1).to_le_bytes());
        let err = match decode(&damaged) {
            Err(e) => e.to_string(),
            Ok(_) => panic!("init interactions above the run's total accepted"),
        };
        assert!(err.contains("telemetry"), "{err}");
    });
}

/// Freeze the *current* format's golden file by transcoding the v1 fixture
/// (decode v1 → encode current). Transcoding — rather than re-running the
/// reference simulation — preserves the fixture's opaque engine counters
/// exactly as frozen (e.g. wire bytes accrued under the old eager j-update
/// accounting), so decode → encode stays a byte identity across *both*
/// fixtures. Run manually (`cargo test --test checkpoint_golden -- --ignored
/// refreeze_current_golden`) exactly once per intentional
/// `CHECKPOINT_VERSION` bump, then commit the fixture.
#[test]
#[ignore = "fixture generator: run once per intentional format bump"]
fn refreeze_current_golden() {
    let sim = decode_checkpoint(Vec::from(GOLDEN_V1).into(), golden_engine()).unwrap();
    let bytes = encode_checkpoint(&sim);
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/golden-v",
        // Keep the file name in sync with the version constant by hand: the
        // assert below refuses to clobber a mismatched fixture.
        "2.g6ck"
    );
    assert_eq!(CHECKPOINT_VERSION, 2, "update the fixture file name for the new version");
    std::fs::write(path, &bytes).unwrap();
}
