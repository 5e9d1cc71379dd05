//! The performance model of the full GRAPE-6 installation.
//!
//! Charges every phase of a block step with the costs the paper describes:
//! host integration work, i-particle upload (PCI + NB tree), the pipeline
//! sweep itself (90 MHz, 6 pipelines × 8 virtual per chip), force readout
//! through the reduction tree, j-particle write-back and its propagation to
//! the other nodes (LVDS inside a cluster, Gigabit Ethernet between
//! clusters), and the per-step barrier.
//!
//! The work distribution follows §5.1–5.3: the active block is divided
//! across the 16 hosts (i-parallelism); each node's 128 chips hold the full
//! particle set divided across their memories (j-parallelism), so every node
//! computes complete forces for its share of the block.

use crate::board::BoardGeometry;
use crate::link::Link;
use crate::network::{NetworkBoardGeometry, NetworkTree};
use crate::wire::{F_PACKET_BYTES, I_PACKET_BYTES, J_PACKET_BYTES};
use serde::{Deserialize, Serialize};

/// Geometry of the complete machine.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MachineGeometry {
    /// Clusters in the system (4).
    pub clusters: usize,
    /// Host computers per cluster (4).
    pub hosts_per_cluster: usize,
    /// Processor boards per host (4).
    pub boards_per_host: usize,
    /// Per-board geometry (32 chips).
    pub board: BoardGeometry,
}

impl MachineGeometry {
    /// The SC2002 production configuration: 4 clusters × 4 hosts × 4 boards
    /// × 32 chips = 2048 chips.
    pub fn sc2002() -> Self {
        Self {
            clusters: 4,
            hosts_per_cluster: 4,
            boards_per_host: 4,
            board: BoardGeometry::default(),
        }
    }

    /// A single-host, single-board development configuration.
    pub fn single_host() -> Self {
        Self {
            clusters: 1,
            hosts_per_cluster: 1,
            boards_per_host: 1,
            board: BoardGeometry::default(),
        }
    }

    /// Total host computers.
    pub fn hosts(&self) -> usize {
        self.clusters * self.hosts_per_cluster
    }

    /// Total processor boards.
    pub fn boards(&self) -> usize {
        self.hosts() * self.boards_per_host
    }

    /// Total pipeline chips.
    pub fn chips(&self) -> usize {
        self.boards() * self.board.chips
    }

    /// Chips serving one node's j-memory.
    pub fn chips_per_node(&self) -> usize {
        self.boards_per_host * self.board.chips
    }

    /// Theoretical peak flops (57-op convention). For the production
    /// configuration this is the paper's "63.4 Tflops" (our count gives
    /// 63.0 × 10¹²; the 0.6 % difference is the paper's rounding of the
    /// per-chip 30.7 Gflops figure).
    pub fn peak_flops(&self) -> f64 {
        self.chips() as f64 * self.board.chip.peak_flops()
    }

    /// j-particle capacity of one node (all its chips together).
    pub fn node_jmem_capacity(&self) -> usize {
        self.chips_per_node() * self.board.chip.jmem_capacity
    }

    /// Split the machine into `parts` equal, independent sub-machines —
    /// §4.3: the network modes let "a 4-host, 16-processor board system
    /// \[run\] as single entity, as two units, and as four separate units",
    /// and the 2-D grid "can divide … to any rectangular submatrix … and use
    /// each of them to run separate programs". Returns `None` when the host
    /// count does not divide evenly.
    pub fn partition(&self, parts: usize) -> Option<MachineGeometry> {
        let h = self.hosts();
        if parts == 0 || !h.is_multiple_of(parts) {
            return None;
        }
        let nh = h / parts;
        if nh >= self.hosts_per_cluster && nh.is_multiple_of(self.hosts_per_cluster) {
            Some(Self { clusters: nh / self.hosts_per_cluster, ..*self })
        } else {
            Some(Self { clusters: 1, hosts_per_cluster: nh, ..*self })
        }
    }
}

/// Host computer cost model (the Athlon XP PCs of §5.3).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HostModel {
    /// Seconds of host work per particle-step (prediction of the i-particle,
    /// Hermite correction, timestep update, scheduler bookkeeping).
    pub seconds_per_particle_step: f64,
    /// Fixed driver overhead per force call.
    pub call_overhead: f64,
}

impl Default for HostModel {
    fn default() -> Self {
        // ~2 µs per particle-step: a few hundred flops of corrector work at
        // the few-hundred-Mflops effective speed of an Athlon XP (§4.3).
        Self { seconds_per_particle_step: 2.0e-6, call_overhead: 20.0e-6 }
    }
}

/// The complete timing model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TimingModel {
    /// Machine geometry.
    pub geometry: MachineGeometry,
    /// Host ↔ interface-board link.
    pub pci: Link,
    /// NB tree geometry inside one node / cluster.
    pub nb: NetworkBoardGeometry,
    /// Inter-cluster fabric.
    pub ethernet: Link,
    /// Host cost model.
    pub host: HostModel,
    /// Per-blockstep barrier cost across all hosts.
    pub sync_latency: f64,
    /// Model the `g6calc_firsthalf`/`lasthalf` overlap: while the pipelines
    /// sweep block k, the host corrects block k−1 and the network moves
    /// block k−1's write-backs. When set, a steady stream of block steps
    /// costs `max(pipeline, host + communication)` per step instead of the
    /// sum (plus the non-overlappable sync).
    pub overlap: bool,
}

impl TimingModel {
    /// The production SC2002 model.
    pub fn sc2002() -> Self {
        Self {
            geometry: MachineGeometry::sc2002(),
            pci: Link::pci(),
            nb: NetworkBoardGeometry::default(),
            ethernet: Link::gigabit_ethernet(),
            host: HostModel::default(),
            sync_latency: 100.0e-6,
            overlap: false,
        }
    }

    /// The production model with firsthalf/lasthalf overlap enabled.
    pub fn sc2002_overlapped() -> Self {
        Self { overlap: true, ..Self::sc2002() }
    }

    /// Single-host development model (no inter-host communication at all).
    pub fn single_host() -> Self {
        Self { geometry: MachineGeometry::single_host(), ..Self::sc2002() }
    }

    /// The NB tree spanning one node's processor boards.
    pub fn node_tree(&self) -> NetworkTree {
        NetworkTree::spanning(self.geometry.boards_per_host, self.nb)
    }

    /// Cost breakdown of one block step with `n_active` particles updated
    /// out of `n_total` resident.
    pub fn block_step(&self, n_active: usize, n_total: usize) -> StepBreakdown {
        let g = &self.geometry;
        let hosts = g.hosts();
        let n_i_host = n_active.div_ceil(hosts);
        let n_j_chip = n_total.div_ceil(g.chips_per_node());
        let tree = self.node_tree();

        // Host integration work for its share of the block.
        let host = self.host.call_overhead + n_i_host as f64 * self.host.seconds_per_particle_step;

        // i-particle upload: PCI transfer pipelined with the NB broadcast —
        // charge the slower stage.
        let i_bytes = (n_i_host * I_PACKET_BYTES) as u64;
        let send_i = self.pci.transfer_time(i_bytes).max(tree.broadcast_time(i_bytes));

        // The pipeline sweep (all chips in parallel on their j-slices).
        let pipeline = g.board.chip.compute_seconds(n_i_host, n_j_chip);

        // Force readout through the reduction tree, then PCI.
        let f_bytes = (n_i_host * F_PACKET_BYTES) as u64;
        let receive = self.pci.transfer_time(f_bytes).max(tree.reduce_time(f_bytes));

        // j write-back: the host's own corrected particles to its boards…
        let j_local_bytes = (n_i_host * J_PACKET_BYTES) as u64;
        // …and the other intra-cluster hosts' blocks arriving over the NB
        // data ports (paper Fig 4/5: the hosts themselves exchange nothing).
        let peers = g.hosts_per_cluster.saturating_sub(1);
        let j_intra_bytes = (peers * n_i_host * J_PACKET_BYTES) as u64;
        let jshare_intra =
            self.pci.transfer_time(j_local_bytes).max(self.nb.link.transfer_time(j_intra_bytes));

        // Inter-cluster propagation over Gigabit Ethernet: every node must
        // receive the blocks integrated by the other clusters.
        let other_clusters = g.clusters.saturating_sub(1);
        let j_inter_bytes =
            (other_clusters * g.hosts_per_cluster * n_i_host * J_PACKET_BYTES) as u64;
        let jshare_inter =
            if other_clusters == 0 { 0.0 } else { self.ethernet.transfer_time(j_inter_bytes) };

        // Barrier at the start of every block step (§4.3: hosts "still have
        // to synchronize at the beginning of each timestep").
        let sync = if hosts > 1 { self.sync_latency } else { 0.0 };

        StepBreakdown {
            host,
            send_i,
            pipeline,
            receive,
            jshare_intra,
            jshare_inter,
            sync,
            overlapped: self.overlap,
        }
    }

    /// Modeled sustained flops for a steady stream of block steps of size
    /// `n_active` on an `n_total`-body system.
    pub fn sustained_flops(&self, n_active: usize, n_total: usize) -> f64 {
        let t = self.block_step(n_active, n_total).total();
        let flops = 57.0 * n_active as f64 * n_total as f64;
        flops / t
    }
}

/// Per-phase cost of one block step, in seconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct StepBreakdown {
    /// Host integration work.
    pub host: f64,
    /// i-particle upload.
    pub send_i: f64,
    /// Pipeline sweep.
    pub pipeline: f64,
    /// Force readout.
    pub receive: f64,
    /// Intra-cluster j propagation (LVDS).
    pub jshare_intra: f64,
    /// Inter-cluster j propagation (GbE).
    pub jshare_inter: f64,
    /// Barrier.
    pub sync: f64,
    /// Whether this step was modeled with firsthalf/lasthalf overlap (the
    /// pipeline sweep hides the host + communication work of the previous
    /// block).
    #[serde(default)]
    pub overlapped: bool,
}

impl StepBreakdown {
    /// Host + communication work (everything the pipeline sweep can hide
    /// when overlapping).
    pub fn hideable(&self) -> f64 {
        self.host + self.send_i + self.receive + self.jshare_intra + self.jshare_inter
    }

    /// Total wall time of the step: the straight sum, or — when overlapped —
    /// `max(pipeline, host + comm) + sync`.
    pub fn total(&self) -> f64 {
        if self.overlapped {
            self.pipeline.max(self.hideable()) + self.sync
        } else {
            self.pipeline + self.hideable() + self.sync
        }
    }

    /// Accumulate another step's costs (the overlap flag is sticky).
    pub fn accumulate(&mut self, other: &StepBreakdown) {
        self.host += other.host;
        self.send_i += other.send_i;
        self.pipeline += other.pipeline;
        self.receive += other.receive;
        self.jshare_intra += other.jshare_intra;
        self.jshare_inter += other.jshare_inter;
        self.sync += other.sync;
        self.overlapped |= other.overlapped;
    }

    /// Fraction of the step spent in the pipelines (the "useful" phase).
    pub fn pipeline_fraction(&self) -> f64 {
        let t = self.total();
        if t == 0.0 {
            0.0
        } else {
            self.pipeline / t
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn production_geometry_matches_paper() {
        let g = MachineGeometry::sc2002();
        assert_eq!(g.hosts(), 16);
        assert_eq!(g.boards(), 64);
        assert_eq!(g.chips(), 2048);
        assert_eq!(g.chips_per_node(), 128);
        // §1: "theoretical peak performance is 63.4 Tflops" — our op count
        // gives 63.0; the difference is rounding in the paper's 30.7 figure.
        let peak_t = g.peak_flops() / 1e12;
        assert!((peak_t - 63.0).abs() < 0.2, "peak {peak_t} Tflops");
    }

    #[test]
    fn node_memory_holds_the_production_run() {
        let g = MachineGeometry::sc2002();
        // 1.8 M particles must fit in one node's 128 chip memories.
        assert!(g.node_jmem_capacity() >= 1_800_000, "{}", g.node_jmem_capacity());
    }

    #[test]
    fn partition_preserves_total_resources() {
        let m = MachineGeometry::sc2002();
        for parts in [1usize, 2, 4, 8, 16] {
            let p = m.partition(parts).unwrap();
            assert_eq!(p.hosts() * parts, m.hosts(), "parts={parts}");
            assert_eq!(p.chips() * parts, m.chips());
            assert!((p.peak_flops() * parts as f64 - m.peak_flops()).abs() < 1.0);
        }
        assert!(m.partition(3).is_none());
        assert!(m.partition(0).is_none());
        assert!(m.partition(32).is_none());
    }

    #[test]
    fn quarter_machine_matches_one_cluster() {
        let quarter = MachineGeometry::sc2002().partition(4).unwrap();
        assert_eq!(quarter.hosts(), 4);
        assert_eq!(quarter.chips(), 512);
        assert_eq!(quarter.clusters, 1);
    }

    #[test]
    fn step_breakdown_total_sums_phases() {
        let m = TimingModel::sc2002();
        let b = m.block_step(2000, 1_800_000);
        let sum =
            b.host + b.send_i + b.pipeline + b.receive + b.jshare_intra + b.jshare_inter + b.sync;
        assert!((b.total() - sum).abs() < 1e-18);
        assert!(b.pipeline > 0.0 && b.host > 0.0 && b.sync > 0.0);
    }

    #[test]
    fn production_run_lands_in_paper_efficiency_regime() {
        // §6: 29.5 Tflops sustained = 46.5 % of peak, N = 1.8 M. With block
        // sizes in the plausible range for this N, the model must land in
        // the same regime (tens of Tflops, 30–70 % of peak).
        let m = TimingModel::sc2002();
        let peak = m.geometry.peak_flops();
        for n_act in [1000, 2000, 4000] {
            let s = m.sustained_flops(n_act, 1_800_000);
            let eff = s / peak;
            assert!(
                eff > 0.25 && eff < 0.85,
                "n_act={n_act}: {:.1} Tflops, eff {:.2}",
                s / 1e12,
                eff
            );
        }
    }

    #[test]
    fn small_blocks_are_inefficient() {
        // §4.2's concern: tiny active blocks underuse the pipelines.
        let m = TimingModel::sc2002();
        let small = m.sustained_flops(16, 1_800_000);
        let large = m.sustained_flops(4096, 1_800_000);
        assert!(small < large / 10.0, "small {small:e} vs large {large:e}");
    }

    #[test]
    fn single_host_has_no_network_costs() {
        let m = TimingModel::single_host();
        let b = m.block_step(100, 100_000);
        assert_eq!(b.jshare_inter, 0.0);
        assert_eq!(b.sync, 0.0);
    }

    #[test]
    fn pipeline_time_scales_linearly_with_n() {
        let m = TimingModel::sc2002();
        let b1 = m.block_step(2048, 400_000);
        let b2 = m.block_step(2048, 800_000);
        let ratio = b2.pipeline / b1.pipeline;
        assert!((ratio - 2.0).abs() < 0.05, "ratio {ratio}");
    }

    #[test]
    fn ethernet_downgrade_hurts() {
        // The paper notes GbE is "barely okay"; 100 Mbit should visibly cut
        // sustained speed.
        let good = TimingModel::sc2002();
        let mut bad = good;
        bad.ethernet = Link::fast_ethernet();
        let s_good = good.sustained_flops(2000, 1_800_000);
        let s_bad = bad.sustained_flops(2000, 1_800_000);
        assert!(s_bad < 0.8 * s_good, "good {s_good:e} bad {s_bad:e}");
    }

    #[test]
    fn accumulate_adds_componentwise() {
        let m = TimingModel::sc2002();
        let b = m.block_step(1000, 1_000_000);
        let mut acc = StepBreakdown::default();
        acc.accumulate(&b);
        acc.accumulate(&b);
        assert!((acc.total() - 2.0 * b.total()).abs() < 1e-15);
        assert!((acc.pipeline_fraction() - b.pipeline_fraction()).abs() < 1e-12);
    }
}

#[cfg(test)]
mod overlap_tests {
    use super::*;

    #[test]
    fn overlap_never_slower_and_hides_comm() {
        let plain = TimingModel::sc2002();
        let fast = TimingModel::sc2002_overlapped();
        for (n_act, n) in [(256usize, 1_800_000usize), (2048, 1_800_000), (16384, 1_800_000)] {
            let a = plain.block_step(n_act, n).total();
            let b = fast.block_step(n_act, n).total();
            assert!(b <= a, "overlap slower at n_act={n_act}: {b} > {a}");
        }
        // In the pipeline-bound regime the overlapped step costs ≈ the sweep
        // alone.
        let b = fast.block_step(16384, 1_800_000);
        assert!((b.total() - (b.pipeline + b.sync)).abs() < 1e-9);
    }

    #[test]
    fn overlap_improves_headline_efficiency() {
        let plain = TimingModel::sc2002().sustained_flops(2048, 1_800_000);
        let fast = TimingModel::sc2002_overlapped().sustained_flops(2048, 1_800_000);
        assert!(fast > 1.2 * plain, "overlap gain too small: {fast:e} vs {plain:e}");
    }

    #[test]
    fn accumulated_overlap_totals_stay_consistent() {
        let fast = TimingModel::sc2002_overlapped();
        let step = fast.block_step(2048, 1_800_000);
        let mut acc = StepBreakdown::default();
        acc.accumulate(&step);
        acc.accumulate(&step);
        assert!((acc.total() - 2.0 * step.total()).abs() < 1e-12);
        assert!(acc.overlapped);
    }
}
