//! Tier-1 replay of the checked-in conformance corpus.
//!
//! `conformance/corpus/` holds small scenarios (one per generator kind,
//! plus any minimized repro of a bug that has since been fixed). Every
//! scenario replays through the *full* conformance check list — the
//! differential engine comparisons, the bitwise determinism contracts, the
//! metamorphic invariants and the trajectory locks — on every `cargo test`.

use grape6_conformance::corpus;
use grape6_conformance::ALL_CHECKS;
use std::path::Path;

fn corpus_dir() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/conformance/corpus"))
}

#[test]
fn corpus_is_present_and_covers_every_kind() {
    let entries = corpus::load_dir(corpus_dir()).expect("corpus directory must load");
    assert!(entries.len() >= 6, "corpus has {} scenarios, want ≥ 6", entries.len());
    let mut kinds: Vec<String> = entries.iter().map(|(_, sc)| format!("{:?}", sc.kind)).collect();
    kinds.sort();
    kinds.dedup();
    assert!(kinds.len() >= 6, "corpus covers only kinds {kinds:?}");
}

#[test]
fn cluster_satellite_scenario_pins_cell_opening_edge_cases() {
    // The hand-written clustered + far-satellite geometry must actually
    // exercise both sides of the multipole acceptance criterion — cells
    // opened (the clumps' own deep subtrees) AND far-field lists emitted
    // (clump-to-clump and satellite-to-clump accepts) — otherwise it pins
    // nothing.
    use grape6::prelude::*;
    let entries = corpus::load_dir(corpus_dir()).expect("corpus directory must load");
    let (_, sc) = entries
        .iter()
        .find(|(_, sc)| sc.name == "ClusterSatellite-0000")
        .expect("ClusterSatellite-0000 must be checked in");
    let mut engine = HybridTreeEngine::new(0.5, 2.0);
    engine.load(&sc.sys);
    let ips: Vec<IParticle> = (0..sc.sys.len())
        .map(|i| IParticle { index: i, pos: sc.sys.pos[i], vel: sc.sys.vel[i] })
        .collect();
    let mut out = vec![ForceResult::default(); ips.len()];
    engine.compute(sc.sys.t, &ips, &mut out);
    let work = engine.tree_work().expect("the tree engine reports walk counters");
    assert!(work.cells_opened > 0, "no cells opened: {work:?}");
    assert!(work.far_interactions > 0, "no far-field accepts: {work:?}");
    assert!(work.near_interactions > 0, "no near-field neighbours: {work:?}");
    assert!(
        work.near_interactions < (sc.sys.len() as u64).pow(2),
        "every pair went near-field — the satellite geometry is not stressing accepts: {work:?}"
    );
}

#[test]
fn corpus_replays_clean_through_all_checks() {
    let failures = corpus::replay_dir(corpus_dir()).expect("corpus directory must load");
    assert!(
        failures.is_empty(),
        "{} corpus failures (of {} checks per scenario): {:?}",
        failures.len(),
        ALL_CHECKS.len(),
        failures
    );
}
