//! The initial conditions are part of every pinned trajectory: the builder and
//! both samplers must keep producing the same bits. The digests below were
//! taken from the per-body inverse-CDF formulas the precomputed form replaced.

use grape6_core::particle::ParticleSystem;
use grape6_disk::builder::DiskBuilder;
use grape6_disk::massfn::PowerLawMass;
use grape6_disk::profile::RadialProfile;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// FNV-1a over the little-endian bytes of `words`.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in words.into_iter().flat_map(u64::to_le_bytes) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Digest of every array the builder fills.
fn system_digest(sys: &ParticleSystem) -> u64 {
    let vec_bits = |v: &grape6_core::vec3::Vec3| [v.x.to_bits(), v.y.to_bits(), v.z.to_bits()];
    fnv1a(
        sys.pos
            .iter()
            .chain(&sys.vel)
            .flat_map(vec_bits)
            .chain(sys.mass.iter().map(|m| m.to_bits()))
            .chain(sys.id.iter().copied()),
    )
}

fn draws(mut sample: impl FnMut(&mut StdRng) -> f64, seed: u64) -> u64 {
    let mut rng = StdRng::seed_from_u64(seed);
    fnv1a((0..1000).map(|_| sample(&mut rng).to_bits()))
}

#[test]
fn paper_disk_bits_are_pinned() {
    for (seed, want) in [(20021116, 8302169582488291242), (4242, 2810563639798068060)] {
        let sys = DiskBuilder::paper(4096).with_seed(seed).build();
        assert_eq!(sys.len(), 4098);
        assert_eq!(system_digest(&sys), want, "seed {seed}");
    }
}

#[test]
fn sampler_draws_are_pinned_on_both_branches() {
    // p = −1 and q = −2 take the logarithmic inverse CDF; the paper's
    // exponents take the power form.
    let cases = [
        (draws(|r| PowerLawMass::new(-1.0, 1e-10, 1e-8).sample(r), 7), 681242144161630461),
        (draws(|r| PowerLawMass::paper().sample(r), 7), 2285181719482069533),
        (draws(|r| RadialProfile::new(-2.0, 15.0, 35.0).sample_radius(r), 9), 2539173104684640588),
        (draws(|r| RadialProfile::paper().sample_radius(r), 9), 10302317463922353193),
    ];
    for (k, (got, want)) in cases.into_iter().enumerate() {
        assert_eq!(got, want, "case {k}");
    }
}
