//! Performance accounting: the modeled hardware clock and the Gordon Bell
//! style performance report (paper §6).

use crate::timing::StepBreakdown;
use serde::{Deserialize, Serialize};

/// Accumulates modeled hardware time across a run, phase by phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct HardwareClock {
    /// Accumulated per-phase costs.
    pub breakdown: StepBreakdown,
    /// Block steps charged.
    pub steps: u64,
}

impl HardwareClock {
    /// A zeroed clock.
    pub fn new() -> Self {
        Self::default()
    }

    /// Charge one block step.
    pub fn charge(&mut self, step: &StepBreakdown) {
        self.breakdown.accumulate(step);
        self.steps += 1;
    }

    /// Total modeled seconds.
    pub fn seconds(&self) -> f64 {
        self.breakdown.total()
    }
}

/// The §6-style performance summary.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PerfReport {
    /// Pairwise interactions evaluated.
    pub interactions: u64,
    /// Total floating-point operations (57 per interaction).
    pub flops: f64,
    /// Modeled machine time in seconds.
    pub seconds: f64,
    /// Sustained speed in flops/s.
    pub sustained: f64,
    /// Theoretical peak in flops/s.
    pub peak: f64,
    /// Efficiency (sustained / peak).
    pub efficiency: f64,
}

impl PerfReport {
    /// Build a report from raw counts.
    pub fn new(interactions: u64, seconds: f64, peak: f64) -> Self {
        let flops = interactions as f64 * grape6_core::force::FLOPS_PER_INTERACTION as f64;
        let sustained = if seconds > 0.0 { flops / seconds } else { 0.0 };
        Self {
            interactions,
            flops,
            seconds,
            sustained,
            peak,
            efficiency: if peak > 0.0 { sustained / peak } else { 0.0 },
        }
    }

    /// Sustained speed in Tflops (the paper's headline unit).
    pub fn tflops(&self) -> f64 {
        self.sustained / 1e12
    }
}

impl std::fmt::Display for PerfReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:.3e} interactions = {:.3e} flops in {:.3} s → {:.2} Tflops ({:.1} % of {:.1} Tflops peak)",
            self.interactions as f64,
            self.flops,
            self.seconds,
            self.tflops(),
            100.0 * self.efficiency,
            self.peak / 1e12
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_accumulates_steps() {
        let mut c = HardwareClock::new();
        let step = StepBreakdown { pipeline: 1e-3, host: 1e-4, ..Default::default() };
        c.charge(&step);
        c.charge(&step);
        assert_eq!(c.steps, 2);
        assert!((c.seconds() - 2.2e-3).abs() < 1e-12);
    }

    #[test]
    fn report_reproduces_paper_arithmetic() {
        // §6: "The total number of floating point operations is 57 × (pair
        // count)… The resulting average computing speed is 29.5 Tflops."
        // Construct the inverse: interactions and seconds chosen so the
        // report reads exactly 29.5 Tflops.
        let seconds = 1000.0;
        let interactions = (29.5e12 * seconds / 57.0) as u64;
        let r = PerfReport::new(interactions, seconds, 63.4e12);
        assert!((r.tflops() - 29.5).abs() < 0.01);
        assert!((r.efficiency - 29.5 / 63.4).abs() < 0.001);
    }

    #[test]
    fn zero_time_report_is_safe() {
        let r = PerfReport::new(1000, 0.0, 63.4e12);
        assert_eq!(r.sustained, 0.0);
        assert_eq!(r.efficiency, 0.0);
    }

    #[test]
    fn display_contains_tflops() {
        let r = PerfReport::new(1_000_000_000, 1.0, 63.0e12);
        let s = format!("{r}");
        assert!(s.contains("Tflops"), "{s}");
    }
}
