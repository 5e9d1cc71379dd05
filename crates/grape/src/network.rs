//! The GRAPE-6 network board (NB) and the tree network it builds
//! (paper §4.3, §5.2, Figs 5, 7, 10).
//!
//! An NB has one uplink (toward the host), four downlinks (toward processor
//! boards or further NBs), and cascade links to sibling NBs. Its internal
//! network is configurable in three modes — broadcast, 2-way multicast and
//! point-to-point — which lets a 4-host × 16-board cluster run as one unit,
//! two halves, or four independent nodes. Data moving down the tree is
//! streamed (wormhole-style), so a multi-level broadcast costs one link
//! serialization plus per-level latency; partial forces moving up are merged
//! by the reduction hardware at each level.

use crate::link::Link;
use serde::{Deserialize, Serialize};

/// Routing mode of a network board (paper §4.3: "The network can be
/// configured in three modes, broadcast, 2-way multicast and
/// point-to-point").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum NetworkMode {
    /// All downlinks receive every word: the whole sub-tree acts as one unit.
    Broadcast,
    /// Downlinks split into two groups: the sub-tree acts as two units.
    TwoWayMulticast,
    /// Each downlink is independent: four separate units.
    PointToPoint,
}

impl NetworkMode {
    /// Number of independent partitions the mode yields on one NB.
    pub fn partitions(&self) -> usize {
        match self {
            NetworkMode::Broadcast => 1,
            NetworkMode::TwoWayMulticast => 2,
            NetworkMode::PointToPoint => 4,
        }
    }
}

/// Geometry of one network board.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NetworkBoardGeometry {
    /// Downlinks per board (4 on GRAPE-6).
    pub downlinks: usize,
    /// The LVDS link used on every port.
    pub link: Link,
    /// Per-board forwarding latency (pipeline registers in the FPGA path).
    pub forward_latency: f64,
}

impl Default for NetworkBoardGeometry {
    fn default() -> Self {
        Self { downlinks: 4, link: Link::lvds(), forward_latency: 1.0e-6 }
    }
}

/// A tree of network boards connecting one host port to `leaves` processor
/// boards.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NetworkTree {
    /// Processor boards at the leaves.
    pub leaves: usize,
    /// NB geometry at every level.
    pub board: NetworkBoardGeometry,
}

impl NetworkTree {
    /// Build a tree spanning `leaves` processor boards.
    pub fn spanning(leaves: usize, board: NetworkBoardGeometry) -> Self {
        assert!(leaves >= 1);
        Self { leaves, board }
    }

    /// Tree depth (number of NB levels between host and processor boards).
    pub fn levels(&self) -> u32 {
        let mut levels = 0u32;
        let mut reach = 1usize;
        while reach < self.leaves {
            reach *= self.board.downlinks;
            levels += 1;
        }
        levels.max(1)
    }

    /// Number of network boards required.
    pub fn board_count(&self) -> usize {
        let mut total = 0usize;
        let mut width = 1usize;
        for _ in 0..self.levels() {
            total += width;
            width *= self.board.downlinks;
        }
        total
    }

    /// Time to broadcast `bytes` from the host port to every leaf: the
    /// stream crosses one link serialization plus per-level forwarding.
    pub fn broadcast_time(&self, bytes: u64) -> f64 {
        self.board.link.transfer_time(bytes) + self.levels() as f64 * self.board.forward_latency
    }

    /// Time to gather-and-reduce `bytes` of partial results from every leaf
    /// to the host port. The reduction units merge streams at wire speed, so
    /// the cost is symmetric with broadcast.
    pub fn reduce_time(&self, bytes: u64) -> f64 {
        self.broadcast_time(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_partitions() {
        assert_eq!(NetworkMode::Broadcast.partitions(), 1);
        assert_eq!(NetworkMode::TwoWayMulticast.partitions(), 2);
        assert_eq!(NetworkMode::PointToPoint.partitions(), 4);
    }

    #[test]
    fn single_nb_spans_four_boards() {
        let t = NetworkTree::spanning(4, NetworkBoardGeometry::default());
        assert_eq!(t.levels(), 1);
        assert_eq!(t.board_count(), 1);
    }

    #[test]
    fn two_levels_span_sixteen_boards() {
        // §4.3: "Using four NBs, we can connect four host computers to 16
        // processor boards" — one root + four second-level boards.
        let t = NetworkTree::spanning(16, NetworkBoardGeometry::default());
        assert_eq!(t.levels(), 2);
        assert_eq!(t.board_count(), 1 + 4);
    }

    #[test]
    fn broadcast_time_is_one_serialization_plus_latency() {
        let t = NetworkTree::spanning(16, NetworkBoardGeometry::default());
        let bytes = 9_000_000; // 0.1 s at 90 MB/s
        let time = t.broadcast_time(bytes);
        let serial = Link::lvds().transfer_time(bytes);
        assert!(time >= serial);
        assert!(time < serial + 1e-5, "tree overhead too high: {time}");
    }

    #[test]
    fn reduce_symmetric_with_broadcast() {
        let t = NetworkTree::spanning(16, NetworkBoardGeometry::default());
        assert_eq!(t.reduce_time(4096), t.broadcast_time(4096));
    }

    #[test]
    fn deeper_trees_add_only_latency() {
        let shallow = NetworkTree::spanning(4, NetworkBoardGeometry::default());
        let deep = NetworkTree::spanning(64, NetworkBoardGeometry::default());
        let b = 1_000_000;
        let d = deep.broadcast_time(b) - shallow.broadcast_time(b);
        assert!(d > 0.0);
        assert!(d < 1e-4, "per-level cost should be microseconds, got {d}");
    }
}
