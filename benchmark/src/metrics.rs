//! The benchmark's vocabulary: workload names, end-to-end metrics with their
//! regression bounds, and the per-layer metrics of the traced run.
//! `BENCHMARK.json` at the repository root lists the same names; a unit test
//! keeps the two in step.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, footprints, costs per unit of work).
    Lower,
    /// Larger is better (rates, efficiencies, hit counts).
    Higher,
}

impl Better {
    /// Spelling used in `BENCHMARK.json`.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric: its name, unit and direction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before a
    /// change counts as a regression (end-to-end metrics only).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64) -> MetricDef {
    MetricDef { name, unit, better: Better::Lower, bound }
}

const fn lo(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, better: Better::Lower, bound: 0.0 }
}

const fn hi(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, better: Better::Higher, bound: 0.0 }
}

/// The five workloads, in run order.
pub const WORKLOADS: [&str; 5] =
    ["direct_16k", "hybrid_32k", "grape6_2k", "hostpath_512k", "serve_mix"];

/// The end-to-end metrics (same three on every workload; tracing off).
pub const END_TO_END: [MetricDef; 3] =
    [e2e("setup_s", "s", 0.25), e2e("evolve_wall_s", "s", 0.25), e2e("peak_rss_mib", "MiB", 0.10)];

/// The per-layer metrics of the traced run. A layer a workload bypasses
/// reports 0 there.
pub const PER_LAYER: [MetricDef; 63] = [
    lo("core.blockstep.schedule_ns_per_step", "ns"),
    lo("core.blockstep.block_size_mean", "count"),
    lo("core.blockstep.small_block_share", "ratio"),
    lo("core.blockstep.step_ms_p50", "ms"),
    lo("core.blockstep.step_ms_p99", "ms"),
    lo("core.integrator.predict_ns_per_pstep", "ns"),
    lo("core.integrator.correct_ns_per_pstep", "ns"),
    lo("core.integrator.jupdate_ns_per_pstep", "ns"),
    lo("core.integrator.unattributed_share", "ratio"),
    lo("core.integrator.init_s", "s"),
    lo("core.force.compute_s", "s"),
    lo("core.force.interactions", "count"),
    hi("core.force.interactions_per_s", "1/s"),
    lo("core.force.large_block_ns_per_interaction", "ns"),
    lo("core.force.small_block_ns_per_interaction", "ns"),
    lo("core.force.update_j_s", "s"),
    lo("core.force.load_s", "s"),
    hi("core.force.ceiling_interactions_per_s", "1/s"),
    hi("core.force.ceiling_ratio", "ratio"),
    lo("core.energy.ledger_open_s", "s"),
    lo("grape.engine.compute_s", "s"),
    lo("grape.engine.interactions", "count"),
    hi("grape.engine.interactions_per_s", "1/s"),
    lo("grape.engine.wire_bytes", "B"),
    lo("grape.engine.modeled_seconds", "s"),
    hi("grape.engine.modeled_tflops", "Tflop/s"),
    lo("grape.engine.host_s_per_modeled_s", "ratio"),
    lo("tree.octree.build_ns_per_body", "ns"),
    lo("tree.octree.walk_ns_per_list_entry", "ns"),
    lo("tree.octree.nodes", "count"),
    lo("tree.hybrid.compute_s", "s"),
    lo("tree.hybrid.builds", "count"),
    lo("tree.hybrid.cells_opened", "count"),
    lo("tree.hybrid.near_interactions", "count"),
    lo("tree.hybrid.far_interactions", "count"),
    lo("tree.hybrid.list_len_mean", "count"),
    hi("tree.hybrid.interactions_per_s", "1/s"),
    lo("tree.hybrid.build_share", "ratio"),
    lo("disk.builder.build_s", "s"),
    lo("sim.simulation.step_self_ns", "ns"),
    hi("sim.checkpoint.encode_mib_per_s", "MiB/s"),
    hi("sim.checkpoint.decode_mib_per_s", "MiB/s"),
    lo("sim.checkpoint.bytes", "B"),
    lo("serve.job.fresh_ms", "ms"),
    lo("serve.job.slice_ms", "ms"),
    lo("serve.job.checkpoint_ms", "ms"),
    lo("serve.job.resume_ms", "ms"),
    lo("serve.service.job_ms_p50", "ms"),
    lo("serve.service.job_ms_p99", "ms"),
    lo("serve.service.cached_job_us_p50", "us"),
    lo("serve.service.submit_us_p50", "us"),
    lo("serve.service.preemptions", "count"),
    hi("serve.service.cache_hits", "count"),
    hi("serve.service.coalesced", "count"),
    lo("serve.service.block_steps", "count"),
    hi("serve.service.jobs_per_s", "1/s"),
    lo("shims.rayon.t1_evolve_wall_s", "s"),
    lo("shims.rayon.t2_evolve_wall_s", "s"),
    hi("shims.rayon.parallel_efficiency", "ratio"),
    hi("trace.coverage", "ratio"),
    lo("trace.overhead_pct", "%"),
    lo("trace.spans", "count"),
    lo("trace.evolve_wall_s", "s"),
];

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(s: &str) -> bool {
        let mut chars = s.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.len() <= 64
            && s.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract_and_are_unique() {
        let mut names: Vec<&str> = WORKLOADS.to_vec();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for n in &names {
            assert!(name_ok(n), "bad name {n:?}");
        }
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(unit_ok(m.unit), "bad unit {:?} on {}", m.unit, m.name);
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert!(PER_LAYER.len() <= 128);
    }

    #[test]
    fn bounds_follow_the_contract() {
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s is mandatory");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(m.bound <= setup.bound, "setup_s carries the largest bound");
        }
    }
}
