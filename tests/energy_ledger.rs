//! The O(N) ledger constructor against its oracle: `EnergyLedger::from_sweep`
//! reads the potentials the initialisation sweep returned, `EnergyLedger::open`
//! redoes the pair sum on the host in f64. Their difference is the engine's
//! potential error, so each engine gets the budget its arithmetic earns.

mod common;

use common::disk;
use grape6::prelude::*;
use grape6_core::integrator::BlockHermite;

/// `(from_sweep, open)` on `disk(n, 20020616)` initialised through `engine`.
fn ledgers<E: ForceEngine>(n: usize, mut engine: E) -> (EnergyLedger, EnergyLedger) {
    let mut sys = disk(n, 20020616);
    BlockHermite::new(HermiteConfig::default()).initialize(&mut sys, &mut engine);
    (EnergyLedger::from_sweep(&sys), EnergyLedger::open(&sys))
}

fn offset((swept, exact): (EnergyLedger, EnergyLedger)) -> f64 {
    assert_eq!(swept.l0.to_bits(), exact.l0.to_bits(), "l0 reads no potential");
    ((swept.e0 - exact.e0) / exact.e0).abs()
}

/// One row per engine: name, offset of `e0` at `n` bodies, budget.
fn offsets(n: usize) -> [(&'static str, f64, f64); 4] {
    [
        ("direct", offset(ledgers(n, DirectEngine::new())), 1e-15),
        ("hybrid theta=0", offset(ledgers(n, HybridTreeEngine::new(0.0, 1.0))), 1e-15),
        (
            "grape6 single host",
            offset(ledgers(n, Grape6Engine::new(Grape6Config::single_host()))),
            1e-9,
        ),
        ("hybrid theta=0.5", offset(ledgers(n, HybridTreeEngine::new(0.5, 1.0))), 2e-6),
    ]
}

#[test]
fn from_sweep_matches_the_pair_sum_oracle() {
    for (engine, got, budget) in offsets(1024) {
        assert!(got <= budget, "{engine}: e0 offset {got:e} over {budget:e}");
    }
}

#[test]
#[cfg(debug_assertions)]
#[should_panic(expected = "needs every time[i] == sys.t")]
fn from_sweep_rejects_a_stale_particle() {
    let mut sys = disk(16, 3);
    BlockHermite::new(HermiteConfig::default()).initialize(&mut sys, &mut DirectEngine::new());
    sys.time[5] -= 0.25;
    EnergyLedger::from_sweep(&sys);
}

/// The offset table in `core::energy`'s module doc.
#[test]
#[ignore = "prints a table; run with --release --ignored --nocapture"]
fn estimator_offset_table() {
    for n in [256, 1024, 4096] {
        for (engine, got, _) in offsets(n) {
            println!("n = {n:5}  {engine:20}  |e0 - e0_pair| / |e0_pair| = {got:.3e}");
        }
    }
}
