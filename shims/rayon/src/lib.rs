//! Threaded shim for the subset of `rayon` this workspace uses.
//!
//! Unlike the usual sequential offline facade, this shim runs `par_*` work on
//! a real [`std::thread`] worker pool ([`pool`]) with **statically chunked,
//! deterministic scheduling**:
//!
//! - every drive splits its index range into fixed-size chunks and assigns
//!   chunk `c` to pool slot `c % threads` (round-robin, no work stealing);
//! - element-wise drives (`for_each`, `collect_into_vec`) write each result
//!   at its own index, so scheduling cannot affect them at all;
//! - order-sensitive reductions (`sum`) use a chunk size that depends only on
//!   the element count and combine per-chunk partials **in chunk order**,
//!   making floating-point sums bit-identical for any `RAYON_NUM_THREADS`.
//!
//! The thread count comes from [`current_num_threads`]: an explicit
//! [`with_num_threads`] scope wins, then the `RAYON_NUM_THREADS` environment
//! variable, then [`std::thread::available_parallelism`]. One thread (or a
//! nested parallel call) runs inline on the caller with zero pool overhead.

use std::cell::Cell;

mod iter;
pub mod pool;

pub use iter::{
    Enumerate, FromParallelIterator, IntoParallelIterator, Map, ParChunks, ParChunksMut, ParIter,
    ParIterMut, ParallelIterator, ParallelSlice, RangeIter, Zip,
};
pub use pool::broadcast;

/// Prelude mirroring `rayon::prelude`.
pub mod prelude {
    pub use crate::{FromParallelIterator, IntoParallelIterator, ParallelIterator, ParallelSlice};
}

thread_local! {
    static THREAD_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Number of threads parallel drives will use: a [`with_num_threads`]
/// override if one is active, else `RAYON_NUM_THREADS`, else the machine's
/// [`std::thread::available_parallelism`].
// The one legitimate thread-count probe in the workspace (clippy.toml bans
// it everywhere else).
#[allow(clippy::disallowed_methods)]
pub fn current_num_threads() -> usize {
    if let Some(n) = THREAD_OVERRIDE.with(|c| c.get()) {
        return n;
    }
    std::env::var("RAYON_NUM_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
}

/// Run `f` with [`current_num_threads`] pinned to `threads` on this thread
/// (restored on exit, even on panic). Results are bit-identical for any
/// `threads` by the determinism contract; this exists so thread-scaling
/// benchmarks and determinism tests can vary the count without racy
/// process-global environment writes.
pub fn with_num_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            THREAD_OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(THREAD_OVERRIDE.with(|c| c.replace(Some(threads.max(1)))));
    f()
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn collect_into_vec_replaces_contents() {
        let mut out = vec![9usize; 3];
        (0..4usize).into_par_iter().map(|x| x * x).collect_into_vec(&mut out);
        assert_eq!(out, vec![0, 1, 4, 9]);
    }

    #[test]
    fn slice_entry_points() {
        let mut a = [1, 2, 3];
        let s: i32 = a.par_iter().map(|x| *x).sum();
        assert_eq!(s, 6);
        a.par_iter_mut().for_each(|x| *x *= 2);
        assert_eq!(a, [2, 4, 6]);
    }

    #[test]
    fn par_chunks_mut_hands_out_disjoint_windows() {
        let mut a = vec![0usize; 10];
        a.par_chunks_mut(3).enumerate().for_each(|(c, w)| {
            for x in w.iter_mut() {
                *x = c + 1;
            }
        });
        assert_eq!(a, vec![1, 1, 1, 2, 2, 2, 3, 3, 3, 4]);
    }

    #[test]
    fn zip_stops_at_shorter_side() {
        let a = [1, 2, 3, 4];
        let b = [10, 20, 30];
        let v: Vec<i32> = a.par_iter().zip(b.par_iter()).map(|(x, y)| x + y).collect();
        assert_eq!(v, vec![11, 22, 33]);
    }

    #[test]
    fn sum_is_bit_identical_across_thread_counts() {
        // Adversarial magnitudes: a naive reorder of these terms changes bits.
        let xs: Vec<f64> =
            (0..10_000).map(|i| (1.0 + f64::from(i) * 1e-3) * 10f64.powi(i % 31 - 15)).collect();
        let reference = super::with_num_threads(1, || xs.par_iter().map(|x| *x).sum::<f64>());
        for t in [2usize, 3, 4, 8] {
            let s = super::with_num_threads(t, || xs.par_iter().map(|x| *x).sum::<f64>());
            assert_eq!(s.to_bits(), reference.to_bits(), "threads = {t}");
        }
    }

    #[test]
    fn with_num_threads_overrides_and_restores() {
        let outer = super::current_num_threads();
        super::with_num_threads(3, || {
            assert_eq!(super::current_num_threads(), 3);
            super::with_num_threads(7, || assert_eq!(super::current_num_threads(), 7));
            assert_eq!(super::current_num_threads(), 3);
        });
        assert_eq!(super::current_num_threads(), outer);
    }

    #[test]
    // Compares against the machine probe on purpose (clippy.toml bans it
    // outside the thread pool).
    #[allow(clippy::disallowed_methods)]
    fn default_thread_count_tracks_the_machine() {
        // Satellite fix: without RAYON_NUM_THREADS the shim must see the real
        // machine, not 1. (Guard: skip when the variable is set externally.)
        if std::env::var("RAYON_NUM_THREADS").is_err() {
            let expect = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
            assert_eq!(super::current_num_threads(), expect);
        }
    }

    #[test]
    fn for_each_runs_under_many_threads() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let hits = AtomicUsize::new(0);
        super::with_num_threads(4, || {
            (0..1000usize).into_par_iter().for_each(|_| {
                hits.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(hits.load(Ordering::Relaxed), 1000);
    }
}
