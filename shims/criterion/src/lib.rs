//! Offline shim for `criterion`: a minimal timing-loop harness exposing the
//! API subset this workspace's benches use. No statistics, plots, or HTML —
//! each benchmark reports a mean ns/iter on stdout. Good enough to compare
//! two configurations in one run (e.g. telemetry on vs. off) and to keep
//! `cargo bench` compiling offline.

#![forbid(unsafe_code)]
// A timing harness: reading the wall clock is its job.
#![allow(clippy::disallowed_methods)]
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Top-level harness state.
pub struct Criterion {
    sample_size: usize,
    /// Soft cap on wall time spent measuring one benchmark.
    max_measure: Duration,
}

impl Default for Criterion {
    fn default() -> Self {
        Self { sample_size: 100, max_measure: Duration::from_millis(200) }
    }
}

impl Criterion {
    /// Set the target number of timed samples (builder style, as upstream).
    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = n.max(1);
        self
    }

    /// Run one benchmark closure.
    pub fn bench_function<F>(&mut self, id: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut b = Bencher::new(self.sample_size, self.max_measure);
        f(&mut b);
        b.report(id, None);
        self
    }

    /// Open a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup { name: name.to_string(), criterion: self, throughput: None }
    }
}

/// Per-element/byte normalization for reported rates.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Items processed per iteration.
    Elements(u64),
    /// Bytes processed per iteration.
    Bytes(u64),
}

/// Identifier for a parameterized benchmark.
pub struct BenchmarkId {
    text: String,
}

impl BenchmarkId {
    /// `name/parameter`.
    pub fn new(name: impl std::fmt::Display, parameter: impl std::fmt::Display) -> Self {
        Self { text: format!("{name}/{parameter}") }
    }

    /// Just the parameter.
    pub fn from_parameter(parameter: impl std::fmt::Display) -> Self {
        Self { text: parameter.to_string() }
    }
}

/// A group of related benchmarks sharing a name prefix and throughput.
pub struct BenchmarkGroup<'a> {
    name: String,
    criterion: &'a mut Criterion,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Set the throughput used for rate reporting of subsequent benches.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Run one benchmark in the group.
    pub fn bench_function<F>(&mut self, id: impl std::fmt::Display, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut b = Bencher::new(self.criterion.sample_size, self.criterion.max_measure);
        f(&mut b);
        b.report(&format!("{}/{}", self.name, id), self.throughput);
        self
    }

    /// Run one benchmark with an explicit input value.
    pub fn bench_with_input<I, F>(&mut self, id: BenchmarkId, input: &I, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let mut b = Bencher::new(self.criterion.sample_size, self.criterion.max_measure);
        f(&mut b, input);
        b.report(&format!("{}/{}", self.name, id.text), self.throughput);
        self
    }

    /// End the group (report output is already flushed per-bench).
    pub fn finish(self) {}
}

/// Timing loop handle passed to benchmark closures.
pub struct Bencher {
    sample_size: usize,
    max_measure: Duration,
    total: Duration,
    iters: u64,
}

impl Bencher {
    fn new(sample_size: usize, max_measure: Duration) -> Self {
        Self { sample_size, max_measure, total: Duration::ZERO, iters: 0 }
    }

    /// Measure `f`, first calibrating a batch size so one sample is ≥ ~10 µs.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        // Warmup + calibration.
        let start = Instant::now();
        black_box(f());
        let one = start.elapsed().max(Duration::from_nanos(10));
        let batch =
            (Duration::from_micros(10).as_nanos() / one.as_nanos()).clamp(1, 1 << 20) as u64;

        let deadline = Instant::now() + self.max_measure;
        let mut total = Duration::ZERO;
        let mut iters = 0u64;
        for _ in 0..self.sample_size {
            let t0 = Instant::now();
            for _ in 0..batch {
                black_box(f());
            }
            total += t0.elapsed();
            iters += batch;
            if Instant::now() > deadline {
                break;
            }
        }
        self.total = total;
        self.iters = iters.max(1);
    }

    fn report(&self, id: &str, throughput: Option<Throughput>) {
        if self.iters == 0 {
            println!("bench {id:<40} (no measurement)");
            return;
        }
        let ns_per_iter = self.total.as_nanos() as f64 / self.iters as f64;
        let rate = throughput.map(|t| match t {
            Throughput::Elements(n) => format!(" {:.3e} elem/s", n as f64 / (ns_per_iter * 1e-9)),
            Throughput::Bytes(n) => format!(" {:.3e} B/s", n as f64 / (ns_per_iter * 1e-9)),
        });
        println!(
            "bench {id:<40} {ns_per_iter:>12.1} ns/iter ({} iters){}",
            self.iters,
            rate.unwrap_or_default()
        );
    }
}

/// Define a benchmark group function (both upstream forms).
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $cfg:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion: $crate::Criterion = $cfg;
            $($target(&mut criterion);)+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group! {
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        }
    };
}

/// Define `main` running the given groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn target(c: &mut Criterion) {
        c.bench_function("spin", |b| b.iter(|| black_box(3u64).wrapping_mul(7)));
        let mut group = c.benchmark_group("grouped");
        group.throughput(Throughput::Elements(4));
        group.bench_with_input(BenchmarkId::from_parameter(4), &4u32, |b, &n| {
            b.iter(|| (0..n).sum::<u32>())
        });
        group.finish();
    }

    criterion_group!(benches, target);

    #[test]
    fn harness_runs_and_reports() {
        benches();
    }
}
