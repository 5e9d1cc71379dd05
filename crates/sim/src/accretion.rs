//! Planetesimal accretion: collision detection and perfect merging.
//!
//! Paper §2: "While orbiting the sun, planetesimals accrete to form
//! terrestrial (rocky) and uranian (icy) planets… This process is called
//! planetary accretion." The GRAPE-6 pipelines report each i-particle's
//! nearest neighbour precisely so the host can do this cheaply; this module
//! consumes that report ([`grape6_core::particle::Neighbor`]).
//!
//! Colliding pairs merge perfectly: mass and momentum conserve, the survivor
//! sits at the centre of mass. The absorbed particle becomes a zero-mass
//! ghost parked on its orbit — it stops influencing anything (zero mass ⇒
//! zero force contribution) but keeps its slot, so particle indices, the
//! engine's j-memory layout and the block scheduler all remain valid, which
//! is also how production GRAPE codes handled mergers mid-run.

use grape6_core::particle::{Neighbor, ParticleSystem};
use serde::{Deserialize, Serialize};

/// Physical-radius model: planetesimals are spheres of fixed density.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RadiusModel {
    /// Bulk density in simulation units (M_sun / AU³).
    pub density: f64,
    /// Radius inflation factor f: bodies collide when r < f (R_i + R_j).
    /// f > 1 emulates gravitational focusing / higher resolution without
    /// changing the dynamics (common practice in planetesimal codes).
    pub inflation: f64,
}

impl RadiusModel {
    /// Icy bodies at ~1 g/cm³. In simulation units that density is
    /// 1 g/cm³ × AU³ / M_sun ≈ 1.684×10⁶.
    pub fn icy() -> Self {
        Self { density: 1.684e6, inflation: 1.0 }
    }

    /// Same but with radii inflated by `f`.
    pub fn icy_inflated(f: f64) -> Self {
        Self { inflation: f, ..Self::icy() }
    }

    /// Physical radius of a body of mass `m` (AU).
    pub fn radius(&self, m: f64) -> f64 {
        if m <= 0.0 {
            return 0.0;
        }
        (3.0 * m / (4.0 * std::f64::consts::PI * self.density)).cbrt()
    }

    /// Collision distance for a pair.
    pub fn collision_distance(&self, m1: f64, m2: f64) -> f64 {
        self.inflation * (self.radius(m1) + self.radius(m2))
    }
}

/// One recorded merger.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MergerEvent {
    /// Simulation time of the merger.
    pub t: f64,
    /// Surviving particle index.
    pub survivor: usize,
    /// Absorbed particle index (now a zero-mass ghost).
    pub absorbed: usize,
    /// Mass of the merged body.
    pub merged_mass: f64,
    /// Separation at detection.
    pub separation: f64,
}

/// Accretion bookkeeping across a run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct AccretionLog {
    /// All mergers, in time order.
    pub events: Vec<MergerEvent>,
}

impl AccretionLog {
    /// Number of mergers so far.
    pub fn count(&self) -> usize {
        self.events.len()
    }
}

/// Test whether an active particle and its reported nearest neighbour
/// collide, and if so merge them in place. Returns the event.
///
/// The caller supplies the neighbour report from the force engine (both
/// bodies predicted to the same block time, so the distance is meaningful).
#[allow(clippy::neg_cmp_op_on_partial_ord)] // `!(r < d)`: a NaN distance merges nothing
pub fn try_merge(
    sys: &mut ParticleSystem,
    i: usize,
    nn: Neighbor,
    model: &RadiusModel,
    log: &mut AccretionLog,
) -> Option<MergerEvent> {
    let j = nn.index;
    if i == j || sys.mass[i] == 0.0 || sys.mass[j] == 0.0 {
        return None;
    }
    let r = nn.r2.sqrt();
    if !(r < model.collision_distance(sys.mass[i], sys.mass[j])) {
        return None;
    }
    // Survivor = heavier body (ties: lower index).
    let (s, a) = if sys.mass[i] >= sys.mass[j] { (i, j) } else { (j, i) };
    let m_s = sys.mass[s];
    let m_a = sys.mass[a];
    let m = m_s + m_a;
    // Form the centre of mass at the common time: the block time, since
    // body `i` is in the block.
    let t = sys.time[s].max(sys.time[a]);
    let (ps, vs) = sys.predict(s, t);
    let (pa, va) = sys.predict(a, t);
    let vel = (vs * m_s + va * m_a) / m;
    let mut pos = (ps * m_s + pa * m_a) / m;
    // A party outside the block keeps its own time: the scheduler holds its
    // event at `time + dt`, on its step grid, and a resumed run reschedules
    // it there too. So the survivor's merged state is drifted back to its
    // time along the line its zeroed acc and jerk predict forward.
    if sys.time[s] < t {
        pos -= vel * (t - sys.time[s]);
    }
    sys.pos[s] = pos;
    sys.vel[s] = vel;
    sys.mass[s] = m;
    // The survivor's derivatives are stale after the jump; zero them so the
    // integrator rebuilds from the next force evaluation rather than
    // extrapolating through the collision.
    sys.acc[s] = grape6_core::vec3::Vec3::zero();
    sys.jerk[s] = grape6_core::vec3::Vec3::zero();
    // Ghost the absorbed body.
    sys.mass[a] = 0.0;
    sys.acc[a] = grape6_core::vec3::Vec3::zero();
    sys.jerk[a] = grape6_core::vec3::Vec3::zero();
    let event = MergerEvent { t, survivor: s, absorbed: a, merged_mass: m, separation: r };
    log.events.push(event);
    Some(event)
}

#[cfg(test)]
mod tests {
    use super::*;
    use grape6_core::vec3::Vec3;

    fn pair(sep: f64, m: f64) -> ParticleSystem {
        let mut sys = ParticleSystem::new(0.0, 1.0);
        sys.push(Vec3::new(20.0, 0.0, 0.0), Vec3::new(0.0, 0.2, 0.0), m);
        sys.push(Vec3::new(20.0 + sep, 0.0, 0.0), Vec3::new(0.0, 0.1, 0.0), m);
        sys
    }

    #[test]
    fn radius_model_scales_with_cube_root_of_mass() {
        let m = RadiusModel::icy();
        let r1 = m.radius(1e-10);
        let r8 = m.radius(8e-10);
        assert!((r8 / r1 - 2.0).abs() < 1e-12);
        assert_eq!(m.radius(0.0), 0.0);
    }

    #[test]
    fn icy_km_sized_bodies_have_plausible_radii() {
        // A 1e-10 M_sun icy body (~2×10²⁰ kg) should be a few hundred km:
        // R = (3m/4πρ)^{1/3} ≈ 2.4e-6 AU ≈ 360 km.
        let r = RadiusModel::icy().radius(1e-10);
        let km = r * 1.496e8;
        assert!(km > 100.0 && km < 1000.0, "radius {km} km");
    }

    #[test]
    fn merge_conserves_mass_and_momentum() {
        let m = 1e-8;
        let mut sys = pair(1e-7, m);
        let p0 = sys.pos[0] * m + sys.pos[1] * m;
        let v0 = sys.vel[0] * m + sys.vel[1] * m;
        let model = RadiusModel::icy_inflated(100.0);
        let mut log = AccretionLog::default();
        let nn = Neighbor { index: 1, r2: (sys.pos[1] - sys.pos[0]).norm2() };
        let ev = try_merge(&mut sys, 0, nn, &model, &mut log).expect("should merge");
        assert_eq!(ev.merged_mass, 2.0 * m);
        assert_eq!(sys.mass[ev.survivor], 2.0 * m);
        assert_eq!(sys.mass[ev.absorbed], 0.0);
        let p1 = sys.pos[ev.survivor] * sys.mass[ev.survivor];
        let v1 = sys.vel[ev.survivor] * sys.mass[ev.survivor];
        assert!((p1 - p0).norm() < 1e-18);
        assert!((v1 - v0).norm() < 1e-18);
        assert_eq!(log.count(), 1);
    }

    #[test]
    fn a_party_outside_the_block_keeps_its_time_and_step() {
        // Body 0 is in the block at t = 2; the heavier body 1 last stepped at
        // t = 0 with dt = 4, so its scheduled event is t = 4.
        let mut sys = pair(1e-7, 1e-8);
        sys.mass[1] = 3e-8;
        sys.time[0] = 2.0;
        (sys.dt[0], sys.dt[1]) = (2.0, 4.0);
        let (p0, v0) = sys.predict(0, 2.0);
        let (p1, v1) = sys.predict(1, 2.0);
        let cm = (p0 * 1e-8 + p1 * 3e-8) / 4e-8;
        let model = RadiusModel::icy_inflated(1e4);
        let nn = Neighbor { index: 1, r2: p0.distance2(p1) };
        let ev = try_merge(&mut sys, 0, nn, &model, &mut AccretionLog::default()).unwrap();
        assert_eq!((ev.t, ev.survivor), (2.0, 1));
        assert_eq!((sys.time[0], sys.dt[0]), (2.0, 2.0));
        assert_eq!((sys.time[1], sys.dt[1]), (0.0, 4.0));
        // Predicted to the block time, the survivor is the centre of mass.
        let (p, v) = sys.predict(1, 2.0);
        assert!((p - cm).norm() < 1e-12 && (v - (v0 * 1e-8 + v1 * 3e-8) / 4e-8).norm() < 1e-18);
    }

    #[test]
    fn distant_pair_does_not_merge() {
        let mut sys = pair(0.5, 1e-8);
        let model = RadiusModel::icy();
        let mut log = AccretionLog::default();
        let nn = Neighbor { index: 1, r2: 0.25 };
        assert!(try_merge(&mut sys, 0, nn, &model, &mut log).is_none());
        assert_eq!(log.count(), 0);
        assert_eq!(sys.mass[0], 1e-8);
    }

    #[test]
    fn heavier_body_survives() {
        let mut sys = ParticleSystem::new(0.0, 1.0);
        sys.push(Vec3::new(20.0, 0.0, 0.0), Vec3::zero(), 1e-9);
        sys.push(Vec3::new(20.0 + 1e-8, 0.0, 0.0), Vec3::zero(), 5e-9);
        let model = RadiusModel::icy_inflated(10.0);
        let mut log = AccretionLog::default();
        let nn = Neighbor { index: 1, r2: 1e-16 };
        let ev = try_merge(&mut sys, 0, nn, &model, &mut log).unwrap();
        assert_eq!(ev.survivor, 1);
        assert_eq!(ev.absorbed, 0);
    }

    #[test]
    fn ghosts_cannot_merge_again() {
        let mut sys = pair(1e-8, 1e-8);
        let model = RadiusModel::icy_inflated(100.0);
        let mut log = AccretionLog::default();
        let nn = Neighbor { index: 1, r2: 1e-16 };
        assert!(try_merge(&mut sys, 0, nn, &model, &mut log).is_some());
        // Second attempt against the ghost is a no-op.
        assert!(try_merge(&mut sys, 0, nn, &model, &mut log).is_none());
        assert_eq!(log.count(), 1);
    }

    #[test]
    fn self_neighbor_rejected() {
        let mut sys = pair(1e-8, 1e-8);
        let model = RadiusModel::icy_inflated(100.0);
        let mut log = AccretionLog::default();
        let nn = Neighbor { index: 0, r2: 0.0 };
        assert!(try_merge(&mut sys, 0, nn, &model, &mut log).is_none());
    }
}
