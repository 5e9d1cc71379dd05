//! Communication models for the three host-parallelization strategies of
//! paper §4.3 (Figs 3–6):
//!
//! 1. **Naive**: p hosts, each with its own GRAPE, exchanging particle data
//!    over a commodity network (Fig 3). Every host must receive *all*
//!    particles updated in the step, so per-host traffic does not shrink
//!    with p — "the parallel system configured in the way shown in figure 3
//!    is no better than a single host".
//! 2. **NB tree**: the GRAPE hardware exchanges j-data itself through the
//!    network boards (Figs 4–5); hosts send only their own block and "do not
//!    have to exchange any particle data".
//! 3. **2-D host grid**: hosts arranged in a √p × √p matrix, one row doing
//!    integration and the others emulating network boards (Fig 6); traffic
//!    per host scales with n/√p.

use crate::link::Link;
use crate::wire::J_PACKET_BYTES;
use serde::{Deserialize, Serialize};

/// A host-parallelization strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Strategy {
    /// Fig 3: hosts exchange all updated particles over the host network.
    Naive,
    /// Figs 4–5: dedicated network boards move j-data between GRAPEs.
    NetworkBoards,
    /// Fig 6: 2-D grid of host–GRAPE pairs emulating the NB function.
    HostGrid2D,
}

impl Strategy {
    /// All strategies, for sweeps.
    pub const ALL: [Strategy; 3] = [Strategy::Naive, Strategy::NetworkBoards, Strategy::HostGrid2D];

    /// Short label for tables.
    pub fn label(&self) -> &'static str {
        match self {
            Strategy::Naive => "naive (fig 3)",
            Strategy::NetworkBoards => "NB tree (figs 4-5)",
            Strategy::HostGrid2D => "2-D grid (fig 6)",
        }
    }
}

/// Parameters of the scaling study.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ParallelModel {
    /// Host-to-host commodity network.
    pub host_net: Link,
    /// Host-to-GRAPE (PCI) link.
    pub pci: Link,
    /// GRAPE-to-GRAPE hardware link (LVDS).
    pub lvds: Link,
}

impl Default for ParallelModel {
    fn default() -> Self {
        Self { host_net: Link::gigabit_ethernet(), pci: Link::pci(), lvds: Link::lvds() }
    }
}

impl ParallelModel {
    /// Bytes of j-data each host must *receive* per block step of size
    /// `n_active`, under the given strategy with `p` hosts.
    pub fn inbound_bytes_per_host(&self, strategy: Strategy, p: usize, n_active: usize) -> u64 {
        assert!(p >= 1);
        let jb = J_PACKET_BYTES as u64;
        let n_host = n_active.div_ceil(p);
        match strategy {
            // Everyone needs everyone else's block, over the host NIC.
            Strategy::Naive => ((p - 1) * n_host) as u64 * jb,
            // The hardware network moves the data; the host NIC carries none.
            Strategy::NetworkBoards => 0,
            // Row + column broadcasts: each node receives the blocks of its
            // row and its column (√p − 1 each).
            Strategy::HostGrid2D => {
                let side = (p as f64).sqrt().round().max(1.0) as usize;
                (2 * side.saturating_sub(1) * n_host) as u64 * jb
            }
        }
    }

    /// Per-step communication time for the j-exchange phase.
    pub fn exchange_time(&self, strategy: Strategy, p: usize, n_active: usize) -> f64 {
        let jb = J_PACKET_BYTES as u64;
        let n_host = n_active.div_ceil(p);
        match strategy {
            Strategy::Naive => {
                // The NIC serializes the inbound stream.
                self.host_net.transfer_time(self.inbound_bytes_per_host(strategy, p, n_active))
            }
            Strategy::NetworkBoards => {
                // Host writes only its own block over PCI; each GRAPE has
                // p−1 data-in ports (§4.3), so the peer streams arrive in
                // parallel at LVDS speed.
                let own = self.pci.transfer_time(n_host as u64 * jb);
                let hw = if p > 1 { self.lvds.transfer_time(n_host as u64 * jb) } else { 0.0 };
                own.max(hw)
            }
            Strategy::HostGrid2D => {
                self.host_net.transfer_time(self.inbound_bytes_per_host(strategy, p, n_active))
            }
        }
    }

    /// Parallel speedup of the exchange phase relative to one host doing the
    /// GRAPE write-back alone (higher is better; the naive strategy should
    /// flatline — the paper's point).
    pub fn exchange_speedup(&self, strategy: Strategy, p: usize, n_active: usize) -> f64 {
        let jb = J_PACKET_BYTES as u64;
        let single = self.pci.transfer_time(n_active as u64 * jb);
        let parallel = self
            .exchange_time(strategy, p, n_active)
            .max(self.pci.transfer_time(n_active.div_ceil(p) as u64 * jb));
        single / parallel
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const N_ACT: usize = 8192;

    #[test]
    fn naive_inbound_does_not_shrink_with_p() {
        // §4.3: "the amount of communication is not reduced when we increase
        // the number of host computers".
        let m = ParallelModel::default();
        let b2 = m.inbound_bytes_per_host(Strategy::Naive, 2, N_ACT);
        let b16 = m.inbound_bytes_per_host(Strategy::Naive, 16, N_ACT);
        // Inbound stays within a factor ~2 of the full block, regardless of p.
        assert!(b16 as f64 > 0.8 * b2 as f64, "b2={b2} b16={b16}");
    }

    #[test]
    fn network_boards_offload_the_host_nic() {
        let m = ParallelModel::default();
        assert_eq!(m.inbound_bytes_per_host(Strategy::NetworkBoards, 16, N_ACT), 0);
    }

    #[test]
    fn grid_inbound_scales_with_sqrt_p() {
        let m = ParallelModel::default();
        let b4 = m.inbound_bytes_per_host(Strategy::HostGrid2D, 4, N_ACT);
        let b16 = m.inbound_bytes_per_host(Strategy::HostGrid2D, 16, N_ACT);
        // p: 4→16 means side 2→4: inbound per host ∝ (side−1)·n/p → ×(3/1)·(1/4)
        let ratio = b16 as f64 / b4 as f64;
        assert!((ratio - 0.75).abs() < 0.05, "ratio {ratio}");
    }

    #[test]
    fn nb_strategy_scales_naive_does_not() {
        let m = ParallelModel::default();
        let s_naive = m.exchange_speedup(Strategy::Naive, 16, N_ACT);
        let s_nb = m.exchange_speedup(Strategy::NetworkBoards, 16, N_ACT);
        let s_grid = m.exchange_speedup(Strategy::HostGrid2D, 16, N_ACT);
        assert!(s_naive < 2.0, "naive speedup {s_naive} should flatline");
        assert!(s_nb > 8.0, "NB speedup {s_nb} should approach p");
        assert!(s_grid > s_naive, "grid {s_grid} should beat naive {s_naive}");
    }

    #[test]
    fn exchange_time_positive_and_ordered() {
        let m = ParallelModel::default();
        for p in [1usize, 4, 16] {
            let t_naive = m.exchange_time(Strategy::Naive, p, N_ACT);
            let t_nb = m.exchange_time(Strategy::NetworkBoards, p, N_ACT);
            assert!(t_nb >= 0.0 && t_naive >= 0.0);
            if p > 1 {
                assert!(t_nb <= t_naive * 2.0, "p={p}: NB {t_nb} vs naive {t_naive}");
            }
        }
    }

    #[test]
    fn labels_are_distinct() {
        let labels: Vec<_> = Strategy::ALL.iter().map(|s| s.label()).collect();
        assert_eq!(labels.len(), 3);
        assert!(labels.windows(2).all(|w| w[0] != w[1]));
    }
}
