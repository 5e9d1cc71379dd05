//! Outside-in tracing: spans recorded from the benchmark's own files around
//! the calls into each product layer.
//!
//! Two instruments feed one in-memory [`Recorder`]:
//!
//! * [`Traced<E>`] wraps any `ForceEngine` and opens a span around `load`,
//!   `update_j` and `compute`, forwarding every other trait method untouched;
//! * [`PhaseObserver`] is a `StepObserver` that turns the integrator's
//!   `HostPhase` announcements into spans and keeps the block-size series.
//!
//! Spans live in a preallocated `Vec` and are written out only when the
//! workload has finished. End-to-end metrics are measured with neither
//! instrument present (the bare engine, the `()` observer).

use grape6_core::engine::{FaultStats, ForceEngine, TreeWork};
use grape6_core::observer::{HostPhase, StepObserver};
use grape6_core::particle::{ForceResult, IParticle, ParticleSystem};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

/// Blocks of at most this many active particles take the engines'
/// j-parallel small-block path (`SMALL_BLOCK_MAX` in `core::force` and
/// `tree::hybrid`).
pub const SMALL_BLOCK_MAX: usize = 16;

/// What a span covers. The order is the ledger's row order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// One replica of `Simulation::step` (integrator step + block histogram).
    SimStep,
    /// One `BlockHermite::step_observed` call.
    IntegratorStep,
    /// `HostPhase::Schedule`.
    Schedule,
    /// `HostPhase::Predict`.
    Predict,
    /// `HostPhase::JUpdate` (host side of the write-back).
    JUpdate,
    /// `HostPhase::Force` (host side of the engine round trip).
    Force,
    /// `HostPhase::Correct`.
    Correct,
    /// `ForceEngine::load`.
    EngineLoad,
    /// `ForceEngine::update_j`.
    EngineUpdateJ,
    /// `ForceEngine::compute` on a block of more than [`SMALL_BLOCK_MAX`].
    EngineComputeLarge,
    /// `ForceEngine::compute` on a block of at most [`SMALL_BLOCK_MAX`].
    EngineComputeSmall,
    /// `encode_checkpoint`.
    CheckpointEncode,
    /// `decode_checkpoint`.
    CheckpointDecode,
    /// One `Submit` line through `dispatch_line`.
    ServeSubmit,
    /// One `Wait` line through `dispatch_line`.
    ServeWait,
    /// One `Result` line through `dispatch_line`.
    ServeResult,
}

impl SpanKind {
    /// Every kind, in ledger order.
    pub const ALL: [SpanKind; 16] = [
        SpanKind::SimStep,
        SpanKind::IntegratorStep,
        SpanKind::Schedule,
        SpanKind::Predict,
        SpanKind::JUpdate,
        SpanKind::Force,
        SpanKind::Correct,
        SpanKind::EngineLoad,
        SpanKind::EngineUpdateJ,
        SpanKind::EngineComputeLarge,
        SpanKind::EngineComputeSmall,
        SpanKind::CheckpointEncode,
        SpanKind::CheckpointDecode,
        SpanKind::ServeSubmit,
        SpanKind::ServeWait,
        SpanKind::ServeResult,
    ];

    /// Dense index into per-kind accumulators ([`Self::ALL`] is in
    /// declaration order).
    pub fn index(self) -> usize {
        self as usize
    }

    /// Name in the span file and the ledger: `<layer module>.<operation>`.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::SimStep => "sim.simulation.step",
            SpanKind::IntegratorStep => "core.integrator.step",
            SpanKind::Schedule => "core.blockstep.schedule",
            SpanKind::Predict => "core.integrator.predict",
            SpanKind::JUpdate => "core.integrator.j_update",
            SpanKind::Force => "core.integrator.force",
            SpanKind::Correct => "core.integrator.correct",
            SpanKind::EngineLoad => "engine.load",
            SpanKind::EngineUpdateJ => "engine.update_j",
            SpanKind::EngineComputeLarge => "engine.compute_large",
            SpanKind::EngineComputeSmall => "engine.compute_small",
            SpanKind::CheckpointEncode => "sim.checkpoint.encode",
            SpanKind::CheckpointDecode => "sim.checkpoint.decode",
            SpanKind::ServeSubmit => "serve.server.submit",
            SpanKind::ServeWait => "serve.server.wait",
            SpanKind::ServeResult => "serve.server.result",
        }
    }

    /// True for the wrapper spans whose self time is *unattributed* host
    /// time rather than a layer's own row.
    pub fn is_wrapper(self) -> bool {
        matches!(self, SpanKind::SimStep | SpanKind::IntegratorStep)
    }

    fn of_phase(phase: HostPhase) -> Option<Self> {
        match phase {
            HostPhase::Schedule => Some(SpanKind::Schedule),
            HostPhase::Predict => Some(SpanKind::Predict),
            HostPhase::Force => Some(SpanKind::Force),
            HostPhase::Correct => Some(SpanKind::Correct),
            HostPhase::JUpdate => Some(SpanKind::JUpdate),
            // Driver-level phases: the benchmark times its own I/O directly.
            HostPhase::Io | HostPhase::Checkpoint => None,
        }
    }
}

/// "No parent" marker in [`Span::parent`].
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded span. Times are nanoseconds since the recorder was created.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// What the span covers.
    pub kind: SpanKind,
    /// Start, ns since the recorder's origin.
    pub start_ns: u64,
    /// End, ns since the recorder's origin (0 while the span is open).
    pub end_ns: u64,
    /// Index of the span that caused this one, or [`NO_PARENT`].
    pub parent: u32,
    /// Shared identifier of the request the span belongs to: the block-step
    /// ordinal for simulation workloads, the job ordinal for `serve_mix`.
    pub request: u32,
    /// Work units inside the span: active particles for a compute span,
    /// indices for an `update_j`, bytes for a checkpoint, 0 otherwise.
    pub units: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The in-memory span store.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    request: u32,
}

/// Handle shared by the engine wrapper and the observer (both are alive,
/// and both are called, inside one `step_observed`).
pub type SharedRecorder = Rc<RefCell<Recorder>>;

impl Recorder {
    /// A recorder with room for `capacity` spans before it reallocates.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::with_capacity(capacity),
            open: Vec::with_capacity(8),
            request: 0,
        }
    }

    /// [`Self::with_capacity`] behind the shared handle.
    pub fn shared(capacity: usize) -> SharedRecorder {
        Rc::new(RefCell::new(Self::with_capacity(capacity)))
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Set the request identifier stamped on spans opened from now on.
    pub fn set_request(&mut self, request: u32) {
        self.request = request;
    }

    /// Open a span as a child of the innermost open span.
    pub fn begin(&mut self, kind: SpanKind, units: u64) {
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let idx = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span { kind, start_ns, end_ns: 0, parent, request: self.request, units });
        self.open.push(idx);
    }

    /// Close the innermost open span.
    pub fn end(&mut self) {
        let end_ns = self.now_ns();
        let idx = self.open.pop().expect("end() without a matching begin()");
        self.spans[idx as usize].end_ns = end_ns;
    }

    /// Take the recorded spans out, leaving the recorder empty (capacity
    /// kept) with the same time origin.
    pub fn take(&mut self) -> Vec<Span> {
        assert!(self.open.is_empty(), "take() with {} span(s) still open", self.open.len());
        let cap = self.spans.capacity();
        std::mem::replace(&mut self.spans, Vec::with_capacity(cap))
    }
}

/// Cost of recording one span, in nanoseconds: the mean over 100 000 empty
/// spans opened and closed through the shared handle, as the instruments do.
/// `trace.overhead_pct` is this times the spans recorded, over the traced
/// wall — the traced-minus-untraced difference of two single reps is swamped
/// by the box's ±10 % rep noise (it read −7 % to +22 % for 0.1 ms of spans).
pub fn span_cost_ns() -> f64 {
    const SPANS: usize = 100_000;
    let rec = Recorder::shared(SPANS);
    let t0 = Instant::now();
    for _ in 0..SPANS {
        rec.borrow_mut().begin(SpanKind::Force, 0);
        rec.borrow_mut().end();
    }
    let ns = t0.elapsed().as_nanos() as f64 / SPANS as f64;
    std::hint::black_box(rec.borrow_mut().take());
    ns
}

/// Per-kind totals derived from a span list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KindTotals {
    /// Spans of the kind.
    pub count: u64,
    /// Σ durations.
    pub total_ns: u64,
    /// Σ self times: duration minus the part covered by child spans.
    pub self_ns: u64,
    /// Σ work units.
    pub units: u64,
}

/// Self time of every span: its duration minus the durations of the spans
/// that name it as parent. Children never overlap each other (each
/// instrument nests strictly), so the subtraction is exact.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if s.parent != NO_PARENT {
            let p = s.parent as usize;
            own[p] = own[p].saturating_sub(s.duration_ns());
        }
    }
    own
}

/// Fold a span list into one [`KindTotals`] per [`SpanKind`] (indexed by
/// [`SpanKind::index`]).
pub fn totals_by_kind(spans: &[Span]) -> Vec<KindTotals> {
    let own = self_times(spans);
    let mut out =
        vec![KindTotals { count: 0, total_ns: 0, self_ns: 0, units: 0 }; SpanKind::ALL.len()];
    for (s, own_ns) in spans.iter().zip(own) {
        let t = &mut out[s.kind.index()];
        t.count += 1;
        t.total_ns += s.duration_ns();
        t.self_ns += own_ns;
        t.units += s.units;
    }
    out
}

/// Σ durations of the spans that have no parent — the traced wall time the
/// ledger must account for, minus whatever ran between top-level spans.
pub fn top_level_ns(spans: &[Span]) -> u64 {
    spans.iter().filter(|s| s.parent == NO_PARENT).map(Span::duration_ns).sum()
}

/// A `ForceEngine` wrapper that records a span around every call that does
/// work and forwards everything else untouched, so a traced run is
/// bit-identical to an untraced one.
pub struct Traced<E> {
    inner: E,
    rec: SharedRecorder,
}

impl<E> Traced<E> {
    /// Wrap `inner`, recording into `rec`.
    pub fn new(inner: E, rec: SharedRecorder) -> Self {
        Self { inner, rec }
    }
}

impl<E: ForceEngine> ForceEngine for Traced<E> {
    fn load(&mut self, sys: &ParticleSystem) {
        self.rec.borrow_mut().begin(SpanKind::EngineLoad, sys.len() as u64);
        self.inner.load(sys);
        self.rec.borrow_mut().end();
    }

    fn update_j(&mut self, sys: &ParticleSystem, indices: &[usize]) {
        self.rec.borrow_mut().begin(SpanKind::EngineUpdateJ, indices.len() as u64);
        self.inner.update_j(sys, indices);
        self.rec.borrow_mut().end();
    }

    fn compute(&mut self, t: f64, ips: &[IParticle], out: &mut [ForceResult]) {
        let kind = if ips.len() <= SMALL_BLOCK_MAX {
            SpanKind::EngineComputeSmall
        } else {
            SpanKind::EngineComputeLarge
        };
        self.rec.borrow_mut().begin(kind, ips.len() as u64);
        self.inner.compute(t, ips, out);
        self.rec.borrow_mut().end();
    }

    fn interaction_count(&self) -> u64 {
        self.inner.interaction_count()
    }

    fn reset_counters(&mut self) {
        self.inner.reset_counters();
    }

    fn bytes_transferred(&self) -> u64 {
        self.inner.bytes_transferred()
    }

    fn modeled_seconds(&self) -> f64 {
        self.inner.modeled_seconds()
    }

    fn fault_stats(&self) -> FaultStats {
        self.inner.fault_stats()
    }

    fn tree_work(&self) -> Option<TreeWork> {
        self.inner.tree_work()
    }

    fn checkpoint_state(&self) -> Vec<u8> {
        self.inner.checkpoint_state()
    }

    fn restore_checkpoint_state(&mut self, state: &[u8]) -> Result<(), String> {
        self.inner.restore_checkpoint_state(state)
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// `StepObserver` that records `HostPhase` spans and the block-size series.
pub struct PhaseObserver {
    rec: SharedRecorder,
    /// Active particles of every block step observed, in order.
    pub block_sizes: Vec<u32>,
}

impl PhaseObserver {
    /// Observe into `rec`, with room for `steps` block steps.
    pub fn new(rec: SharedRecorder, steps: usize) -> Self {
        Self { rec, block_sizes: Vec::with_capacity(steps) }
    }
}

impl StepObserver for PhaseObserver {
    fn phase_begin(&mut self, phase: HostPhase) {
        if let Some(kind) = SpanKind::of_phase(phase) {
            self.rec.borrow_mut().begin(kind, 0);
        }
    }

    fn phase_end(&mut self, phase: HostPhase) {
        if SpanKind::of_phase(phase).is_some() {
            self.rec.borrow_mut().end();
        }
    }

    fn block_step(&mut self, n_active: usize, _interactions: u64) {
        self.block_sizes.push(n_active as u32);
    }
}

/// Serialize spans as the JSON document written to
/// `benchmark/out/<workload>.trace.json`.
pub fn spans_to_json(workload: &str, seed: u64, spans: &[Span]) -> String {
    use std::fmt::Write;
    let mut out = String::with_capacity(64 + spans.len() * 96);
    let _ = write!(
        out,
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"time_unit\":\"ns\",\
         \"columns\":[\"id\",\"name\",\"start\",\"end\",\"parent\",\"request\",\"units\"],\"spans\":["
    );
    for (id, s) in spans.iter().enumerate() {
        if id > 0 {
            out.push(',');
        }
        let parent = if s.parent == NO_PARENT { -1 } else { i64::from(s.parent) };
        let _ = write!(
            out,
            "\n[{id},\"{}\",{},{},{parent},{},{}]",
            s.kind.name(),
            s.start_ns,
            s.end_ns,
            s.request,
            s.units
        );
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(kind: SpanKind, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span { kind, start_ns, end_ns, parent, request: 0, units: 0 }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // step [0,100] ⊃ force [10,70] ⊃ compute [20,60]; step ⊃ correct [70,90]
        let spans = [
            span(SpanKind::IntegratorStep, 0, 100, NO_PARENT),
            span(SpanKind::Force, 10, 70, 0),
            span(SpanKind::EngineComputeLarge, 20, 60, 1),
            span(SpanKind::Correct, 70, 90, 0),
        ];
        assert_eq!(self_times(&spans), vec![20, 20, 40, 20]);
        let totals = totals_by_kind(&spans);
        assert_eq!(totals[SpanKind::IntegratorStep.index()].self_ns, 20);
        assert_eq!(totals[SpanKind::Force.index()].total_ns, 60);
        assert_eq!(totals[SpanKind::Force.index()].self_ns, 20);
        // Self times partition the top-level wall exactly.
        let sum: u64 = totals.iter().map(|t| t.self_ns).sum();
        assert_eq!(sum, top_level_ns(&spans));
        assert_eq!(sum, 100);
    }

    #[test]
    fn recorder_links_parents_and_requests() {
        let mut rec = Recorder::with_capacity(8);
        rec.set_request(7);
        rec.begin(SpanKind::IntegratorStep, 0);
        rec.begin(SpanKind::Force, 0);
        rec.begin(SpanKind::EngineComputeSmall, 3);
        rec.end();
        rec.end();
        rec.begin(SpanKind::Correct, 0);
        rec.end();
        rec.end();
        let spans = rec.take();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, NO_PARENT);
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[2].parent, 1);
        assert_eq!(spans[3].parent, 0);
        assert!(spans.iter().all(|s| s.request == 7 && s.end_ns >= s.start_ns));
        assert_eq!(spans[2].units, 3);
        assert!(rec.take().is_empty());
    }

    #[test]
    fn span_names_are_metric_safe_and_unique() {
        let mut names: Vec<&str> = SpanKind::ALL.iter().map(|k| k.name()).collect();
        for n in &names {
            assert!(n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)), "{n}");
        }
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), SpanKind::ALL.len());
        for (i, k) in SpanKind::ALL.iter().enumerate() {
            assert_eq!(k.index(), i);
        }
    }

    #[test]
    fn span_file_is_valid_json() {
        let spans =
            [span(SpanKind::SimStep, 0, 10, NO_PARENT), span(SpanKind::IntegratorStep, 1, 9, 0)];
        let doc = spans_to_json("direct_16k", 5, &spans);
        let v = serde_json::value_from_slice(doc.as_bytes()).expect("valid JSON");
        assert_eq!(v.get("workload").and_then(|w| w.as_str()), Some("direct_16k"));
        assert_eq!(v.get("spans").and_then(|s| s.as_array()).map(<[_]>::len), Some(2));
    }
}
