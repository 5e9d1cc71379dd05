//! Greedy minimization of failing scenarios.
//!
//! Given a scenario and the name of a check it fails, the shrinker applies
//! reductions one at a time, keeping each only if the *same* check still
//! fails on the reduced scenario:
//!
//! 1. **particle dropping** — remove particles one by one, to a fixpoint;
//! 2. **value rounding** — truncate position/velocity mantissas to 8 then
//!    16 bits (via `grape6_hw::format::round_mantissa`, so the rounding is
//!    the hardware's own round-to-nearest-even);
//! 3. **axis flattening** — zero the z coordinates;
//! 4. **mass snapping** — snap masses to the nearest power of two.
//!
//! The result is a small, human-readable repro (near-minimal particle
//! count, short decimal literals) that serializes to compact JSON for the
//! corpus.

use crate::runner::run_check;
use crate::scenario::Scenario;
use grape6_core::particle::ParticleSystem;
use grape6_core::vec3::Vec3;
use grape6_hw::format::round_vec;

/// `sc` without particle `victim`.
pub(crate) fn drop_particle(sc: &Scenario, victim: usize) -> Scenario {
    let src = &sc.sys;
    let mut sys = ParticleSystem::new(src.softening, src.central_mass);
    sys.t = src.t;
    for i in 0..src.len() {
        if i == victim {
            continue;
        }
        let k = sys.push(src.pos[i], src.vel[i], src.mass[i]);
        sys.acc[k] = src.acc[i];
        sys.jerk[k] = src.jerk[i];
        sys.time[k] = src.time[i];
        sys.dt[k] = src.dt[i];
        sys.id[k] = src.id[i];
    }
    Scenario { sys, ..sc.clone() }
}

/// Apply `f` to the system; keep the mutation only if `check` still fails.
fn try_mutation(cur: &mut Scenario, check: &str, f: impl FnOnce(&mut ParticleSystem)) -> bool {
    let mut cand = cur.clone();
    f(&mut cand.sys);
    if run_check(&cand, check).is_some() {
        *cur = cand;
        true
    } else {
        false
    }
}

/// Minimize a scenario that fails `check`. The input must actually fail
/// (the caller observed it); the output is guaranteed to still fail the
/// same check.
pub fn shrink(sc: &Scenario, check: &str) -> Scenario {
    let mut cur = sc.clone();
    debug_assert!(run_check(&cur, check).is_some(), "shrink() called on a passing scenario");

    // Pass 1: drop particles to a fixpoint. Scanning from the back keeps
    // indices of untried particles stable after a successful drop.
    loop {
        let mut progress = false;
        let mut i = cur.len();
        while i > 0 && cur.len() > 1 {
            i -= 1;
            let cand = drop_particle(&cur, i);
            if run_check(&cand, check).is_some() {
                cur = cand;
                progress = true;
            }
        }
        if !progress {
            break;
        }
    }

    // Pass 2: coarsen coordinates — fewer significant bits means shorter
    // JSON literals and a more legible repro.
    for bits in [8u32, 16] {
        for i in 0..cur.len() {
            try_mutation(&mut cur, check, |sys| {
                sys.pos[i] = round_vec(sys.pos[i], bits);
                sys.vel[i] = round_vec(sys.vel[i], bits);
            });
        }
    }

    // Pass 3: flatten to the z = 0 plane where the failure allows.
    for i in 0..cur.len() {
        try_mutation(&mut cur, check, |sys| {
            sys.pos[i] = Vec3::new(sys.pos[i].x, sys.pos[i].y, 0.0);
            sys.vel[i] = Vec3::new(sys.vel[i].x, sys.vel[i].y, 0.0);
        });
    }

    // Pass 4: snap masses to powers of two.
    for i in 0..cur.len() {
        try_mutation(&mut cur, check, |sys| {
            let m = sys.mass[i];
            if m > 0.0 {
                sys.mass[i] = 2.0f64.powi(m.log2().round() as i32);
            }
        });
    }

    cur.name = format!("min-{}", sc.name);
    cur
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::generate;

    #[test]
    fn broken_kernel_shrinks_to_two_particles() {
        // The dropped-pair bug needs exactly two particles to show.
        let sc = generate(0); // DiskSlice, dozens of particles
        assert!(sc.len() > 2);
        assert!(run_check(&sc, "broken/dropped-pair").is_some());
        let min = shrink(&sc, "broken/dropped-pair");
        assert!(min.len() <= 8, "minimized repro has {} particles, want ≤ 8", min.len());
        assert!(run_check(&min, "broken/dropped-pair").is_some(), "repro no longer fails");
    }
}
