//! Communication links of the GRAPE-6 system (paper §5.2–5.3):
//!
//! * the LVDS semi-serial board-to-board link, 90 MB/s over four
//!   twisted pairs (DS90C363A/DS90CF364A devices),
//! * the PCI bus between the host and its host-interface board,
//! * Gigabit Ethernet between host computers of different clusters.
//!
//! What crosses them is the fixed-size packets of [`crate::wire`].

use serde::{Deserialize, Serialize};

/// A point-to-point link with fixed bandwidth and per-message latency.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Link {
    /// Sustained bandwidth in bytes per second.
    pub bytes_per_second: f64,
    /// Per-message latency in seconds.
    pub latency: f64,
}

impl Link {
    /// The GRAPE-6 LVDS link: 90 MB/s, sub-microsecond hardware latency.
    pub fn lvds() -> Self {
        Self { bytes_per_second: 90.0e6, latency: 0.5e-6 }
    }

    /// 32-bit/33 MHz PCI as on the Athlon XP hosts: 133 MB/s peak; charge a
    /// conservative sustained fraction plus driver latency.
    pub fn pci() -> Self {
        Self { bytes_per_second: 110.0e6, latency: 5.0e-6 }
    }

    /// Gigabit Ethernet (NS83820 NICs): ~125 MB/s wire rate, ~80 MB/s
    /// sustained through the Linux stack, with tens of microseconds latency.
    pub fn gigabit_ethernet() -> Self {
        Self { bytes_per_second: 80.0e6, latency: 40.0e-6 }
    }

    /// 100 Mbit Ethernet (for what-if sweeps; the paper notes GbE is
    /// "barely okay", so slower fabrics should visibly hurt).
    pub fn fast_ethernet() -> Self {
        Self { bytes_per_second: 10.0e6, latency: 60.0e-6 }
    }

    /// Time to move `bytes` across the link.
    #[inline]
    pub fn transfer_time(&self, bytes: u64) -> f64 {
        if bytes == 0 {
            return 0.0;
        }
        self.latency + bytes as f64 / self.bytes_per_second
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lvds_rate_matches_paper() {
        let l = Link::lvds();
        assert_eq!(l.bytes_per_second, 90.0e6);
        // 90 MB of payload should take ≈1 s.
        assert!((l.transfer_time(90_000_000) - 1.0).abs() < 1e-3);
    }

    #[test]
    fn zero_bytes_is_free() {
        assert_eq!(Link::lvds().transfer_time(0), 0.0);
    }

    #[test]
    fn latency_dominates_small_messages() {
        let l = Link::gigabit_ethernet();
        let t_small = l.transfer_time(64);
        assert!(t_small > 0.9 * l.latency && t_small < 2.0 * l.latency);
    }

    #[test]
    fn link_ordering_matches_hardware_hierarchy() {
        // LVDS and PCI are comparable; fast ethernet is far slower.
        assert!(Link::fast_ethernet().bytes_per_second < Link::gigabit_ethernet().bytes_per_second);
        assert!(Link::gigabit_ethernet().bytes_per_second < Link::pci().bytes_per_second);
    }
}
