//! A functional GRAPE-6 *cluster*: several host+node pairs whose GRAPEs
//! exchange j-particle data among themselves (paper §4.3, Figs 4–5, 7).
//!
//! The key architectural property being reproduced: **the host computers do
//! not exchange particle data at all.** Each host writes only the particles
//! *it* integrated to its own node's host port; the data-out port of that
//! node feeds the data-in ports of every other node, so all j-memories stay
//! mirrored. Here each node owns an inbound channel (its data-in port) fed
//! by the other hosts' write-backs; messages are wire-encoded j-packets.
//!
//! The cluster's forces are bit-identical to a single node holding all
//! particles, because the j-memories are mirrored and the fixed-point
//! reduction is associative — the integration test pins this down.

use crate::board::BoardGeometry;
use crate::chip::HwIParticle;
use crate::format::{FixedPointFormat, Precision};
use crate::node::Grape6Node;
use crate::predictor::JParticle;
use crate::wire;
use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, Sender};
use grape6_core::particle::ForceResult;

/// A write-back message on the inter-GRAPE network: (global index, packet).
type JMessage = (usize, Bytes);

/// One host+node pair within the cluster.
struct ClusterMember {
    node: Grape6Node,
    /// This node's data-in port.
    inbox: Receiver<JMessage>,
    /// Handles to every *other* node's data-in port.
    peers: Vec<Sender<JMessage>>,
}

/// A cluster of host+GRAPE pairs with mirrored j-memories.
pub struct Grape6Cluster {
    members: Vec<ClusterMember>,
    n_j: usize,
}

impl Grape6Cluster {
    /// Build a cluster of `hosts` nodes, each with `boards_per_node` boards.
    /// Call [`Self::set_softening`] before the first force call.
    pub fn new(
        hosts: usize,
        boards_per_node: usize,
        board: BoardGeometry,
        format: FixedPointFormat,
        precision: Precision,
    ) -> Self {
        assert!(hosts >= 1);
        let ports: Vec<(Sender<JMessage>, Receiver<JMessage>)> =
            (0..hosts).map(|_| unbounded()).collect();
        let members = (0..hosts)
            .map(|h| {
                let node = Grape6Node::new(boards_per_node, board, format, precision);
                let peers = ports
                    .iter()
                    .enumerate()
                    .filter(|&(k, _)| k != h)
                    .map(|(_, (tx, _))| tx.clone())
                    .collect();
                ClusterMember { node, inbox: ports[h].1.clone(), peers }
            })
            .collect();
        Self { members, n_j: 0 }
    }

    /// The production cluster: 4 hosts × 4 boards (Fig 7).
    pub fn production(precision: Precision, softening: f64) -> Self {
        let mut cluster =
            Self::new(4, 4, BoardGeometry::default(), FixedPointFormat::default(), precision);
        cluster.set_softening(softening);
        cluster
    }

    /// Set the softening every node uses for subsequent force calls.
    pub fn set_softening(&mut self, eps: f64) {
        for m in &mut self.members {
            m.node.set_softening(eps);
        }
    }

    /// Number of hosts.
    pub fn hosts(&self) -> usize {
        self.members.len()
    }

    /// Resident j-particles (mirrored on every node).
    pub fn n_j(&self) -> usize {
        self.n_j
    }

    /// Initial load: every node receives the full particle set (the startup
    /// DMA broadcast).
    pub fn load_j(&mut self, particles: &[JParticle]) -> Result<(), crate::chip::ChipError> {
        let stream = wire::encode_j_block(particles);
        for m in &mut self.members {
            m.node.load_j_stream(stream.clone())?;
        }
        self.n_j = particles.len();
        Ok(())
    }

    /// One host writes back a particle it just corrected: the packet goes to
    /// its own node's host port and into every peer's data-in port. Peers
    /// apply their inboxes at the start of their next force call (the
    /// hardware applies them as they stream in; the ordering is equivalent
    /// because slots are disjoint within a block).
    pub fn write_back(
        &mut self,
        host: usize,
        index: usize,
        particle: &JParticle,
    ) -> Result<(), crate::chip::ChipError> {
        let mut buf = bytes::BytesMut::new();
        wire::encode_j_particle(&mut buf, particle);
        let packet = buf.freeze();
        for tx in &self.members[host].peers {
            tx.send((index, packet.clone())).expect("cluster port closed");
        }
        self.members[host].node.store_j(index, particle)
    }

    /// Drain a member's data-in port into its j-memory.
    fn drain_inbox(member: &mut ClusterMember) -> Result<usize, crate::chip::ChipError> {
        let mut applied = 0;
        while let Ok((index, packet)) = member.inbox.try_recv() {
            let j = wire::decode_j_particle(&mut packet.clone());
            member.node.store_j(index, &j)?;
            applied += 1;
        }
        Ok(applied)
    }

    /// Force call on host `host`'s partition of the active block. Applies
    /// pending inbound j-updates first (the per-blockstep synchronization of
    /// §4.3), then computes against the node's full mirrored j-memory.
    pub fn compute(&mut self, host: usize, t: f64, ips: &[(HwIParticle, u32)]) -> Vec<ForceResult> {
        Self::drain_inbox(&mut self.members[host]).expect("bad j route in exchange");
        self.members[host].node.compute(t, ips)
    }

    /// Synchronize every node's inbox (the blockstep barrier).
    pub fn barrier(&mut self) -> usize {
        let mut applied = 0;
        for m in &mut self.members {
            applied += Self::drain_inbox(m).expect("bad j route in exchange");
        }
        applied
    }

    /// Total bytes each host's NIC carried for particle exchange: zero by
    /// construction — the whole point of the architecture.
    pub fn host_nic_particle_bytes(&self) -> u64 {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grape6_core::vec3::Vec3;

    fn small_cluster() -> Grape6Cluster {
        let board = BoardGeometry {
            chips: 2,
            chip: crate::chip::ChipGeometry { jmem_capacity: 32, ..Default::default() },
        };
        let mut cluster =
            Grape6Cluster::new(4, 2, board, FixedPointFormat::default(), Precision::grape6());
        cluster.set_softening(0.01);
        cluster
    }

    fn j_at(x: f64, y: f64, m: f64) -> JParticle {
        JParticle::encode(
            &FixedPointFormat::default(),
            Precision::grape6(),
            Vec3::new(x, y, 0.0),
            Vec3::new(0.0, 0.1, 0.0),
            Vec3::zero(),
            Vec3::zero(),
            m,
            0.0,
        )
    }

    fn sample_set(n: usize) -> Vec<JParticle> {
        (0..n).map(|k| j_at(10.0 + k as f64, (k % 5) as f64, 1e-6 * (1 + k % 3) as f64)).collect()
    }

    #[test]
    fn all_hosts_compute_identical_forces() {
        let mut cluster = small_cluster();
        cluster.load_j(&sample_set(40)).unwrap();
        let fmt = FixedPointFormat::default();
        let ip =
            HwIParticle::encode(&fmt, Precision::grape6(), Vec3::new(5.0, 2.0, 0.0), Vec3::zero());
        let results: Vec<ForceResult> =
            (0..4).map(|h| cluster.compute(h, 0.0, &[(ip, 0)])[0]).collect();
        for r in &results[1..] {
            assert_eq!(r.acc, results[0].acc, "mirrored memories must give identical bits");
            assert_eq!(r.pot, results[0].pot);
        }
    }

    #[test]
    fn write_back_propagates_to_all_peers() {
        let mut cluster = small_cluster();
        cluster.load_j(&sample_set(8)).unwrap();
        let fmt = FixedPointFormat::default();
        let ip = HwIParticle::encode(&fmt, Precision::grape6(), Vec3::zero(), Vec3::zero());
        let before = cluster.compute(2, 0.0, &[(ip, 0)])[0];
        // Host 0 moves particle 3 far away.
        cluster.write_back(0, 3, &j_at(500.0, 0.0, 1e-6)).unwrap();
        let after = cluster.compute(2, 0.0, &[(ip, 0)])[0];
        assert_ne!(before.acc, after.acc, "peer node must see the update");
        // And host 0's own node as well.
        let own = cluster.compute(0, 0.0, &[(ip, 0)])[0];
        assert_eq!(own.acc, after.acc);
    }

    #[test]
    fn cluster_matches_single_node_bitwise() {
        let js = sample_set(30);
        let mut cluster = small_cluster();
        cluster.load_j(&js).unwrap();
        let board = BoardGeometry {
            chips: 2,
            chip: crate::chip::ChipGeometry { jmem_capacity: 32, ..Default::default() },
        };
        let mut single =
            Grape6Node::new(2, board, FixedPointFormat::default(), Precision::grape6());
        single.set_softening(0.01);
        single.load_j(&js).unwrap();
        let fmt = FixedPointFormat::default();
        for k in 0..5 {
            let ip = HwIParticle::encode(
                &fmt,
                Precision::grape6(),
                Vec3::new(k as f64, 1.0, 0.0),
                Vec3::new(0.01, 0.0, 0.0),
            );
            let a = cluster.compute(k % 4, 0.0, &[(ip, k as u32)])[0];
            let b = single.compute(0.0, &[(ip, k as u32)])[0];
            assert_eq!(a.acc, b.acc, "i-particle {k}");
            assert_eq!(a.pot, b.pot);
        }
    }

    #[test]
    fn barrier_applies_pending_updates() {
        let mut cluster = small_cluster();
        cluster.load_j(&sample_set(8)).unwrap();
        cluster.write_back(1, 0, &j_at(42.0, 0.0, 1e-6)).unwrap();
        cluster.write_back(2, 1, &j_at(43.0, 0.0, 1e-6)).unwrap();
        // 2 updates × 3 peers each = 6 pending messages.
        assert_eq!(cluster.barrier(), 6);
        assert_eq!(cluster.barrier(), 0);
    }

    #[test]
    fn host_nics_carry_no_particle_traffic() {
        // §4.3: "the host computers do not have to exchange any particle
        // data."
        let mut cluster = small_cluster();
        cluster.load_j(&sample_set(16)).unwrap();
        cluster.write_back(0, 5, &j_at(1.0, 1.0, 1e-6)).unwrap();
        cluster.barrier();
        assert_eq!(cluster.host_nic_particle_bytes(), 0);
    }
}
