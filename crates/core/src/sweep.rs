//! Chunked, deterministic j-parallel sweep — the shared reduction skeleton
//! for small i-blocks.
//!
//! When a block step activates only a handful of i-particles, parallelizing
//! over them starves the pool; the win is splitting the *j*-sweep, exactly
//! as the GRAPE-6 reduction tree combined partial forces from pipelines that
//! each saw a slice of j-space. [`chunked_jsweep`] runs one `fill` call per
//! fixed-size j-chunk (each producing a partial result per i-particle) and
//! combines the partials **in ascending chunk order**.
//!
//! Determinism contract: the chunk size must depend only on the j-count
//! (use [`j_chunk_size`]), never on the thread count — then the partials and
//! their combination order are identical for any `RAYON_NUM_THREADS`, and so
//! are the output bits.

use rayon::prelude::*;

/// Block sizes up to this many i-particles take the j-parallel sweep; larger
/// blocks parallelize over i-particles instead.
pub const SMALL_BLOCK_MAX: usize = 16;

/// j-chunk size for the small-block sweep: a function of the j-count only
/// (≈64 chunks, bounded), **never** of the thread count, so chunk boundaries
/// — and therefore reduction order and output bits — are identical for any
/// `RAYON_NUM_THREADS`.
#[inline]
pub fn j_chunk_size(n_j: usize) -> usize {
    n_j.div_ceil(64).clamp(64, 8192)
}

/// Sweep `0..n_j` in fixed chunks of `chunk`, calling `fill(j_range, row)`
/// once per chunk with a defaulted row of `out.len()` partials, then fold the
/// rows into `out` with `combine`, in ascending chunk order. A partial may be
/// of another type than a result (the f64 sweep's is a register file of
/// j-lanes that `combine` reduces).
///
/// `scratch` holds the per-chunk partial rows between calls so steady-state
/// sweeps allocate nothing (capacity is retained).
// grape6-lint: hot
pub fn chunked_jsweep<O, R, F>(
    n_j: usize,
    chunk: usize,
    scratch: &mut Vec<R>,
    out: &mut [O],
    fill: F,
    combine: impl Fn(&mut O, &R),
) where
    O: Default,
    R: Default + Clone + Send,
    F: Fn(std::ops::Range<usize>, &mut [R]) + Sync + Send,
{
    let b = out.len();
    for o in out.iter_mut() {
        *o = O::default();
    }
    if n_j == 0 || b == 0 {
        return;
    }
    let n_chunks = n_j.div_ceil(chunk);
    scratch.clear();
    scratch.resize(n_chunks * b, R::default());
    scratch.par_chunks_mut(b).enumerate().for_each(|(c, row)| {
        let lo = c * chunk;
        fill(lo..(lo + chunk).min(n_j), row);
    });
    for row in scratch.chunks(b) {
        for (o, p) in out.iter_mut().zip(row) {
            combine(o, p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_size_ignores_thread_count() {
        for n in [0usize, 1, 63, 64, 1000, 5000, 1 << 20] {
            let a = rayon::with_num_threads(1, || j_chunk_size(n));
            let b = rayon::with_num_threads(7, || j_chunk_size(n));
            assert_eq!(a, b, "n = {n}");
            assert!(a >= 64);
        }
    }

    #[test]
    fn sweep_partitions_the_j_range_exactly_once() {
        // Summing j itself catches both gaps and double counting.
        let n_j = 1000usize;
        let mut scratch = Vec::new();
        let mut out = vec![0u64; 3];
        chunked_jsweep(
            n_j,
            64,
            &mut scratch,
            &mut out,
            |js, row| {
                for j in js {
                    for r in row.iter_mut() {
                        *r += j as u64;
                    }
                }
            },
            |a, b| *a += b,
        );
        let expect = (n_j as u64 - 1) * n_j as u64 / 2;
        assert_eq!(out, vec![expect; 3]);
    }

    #[test]
    fn sweep_bits_invariant_across_thread_counts() {
        // Floating sums with wild magnitude spread: reorder changes bits.
        let n_j = 4096usize;
        let run = |t: usize| {
            rayon::with_num_threads(t, || {
                let mut scratch = Vec::new();
                let mut out = vec![0.0f64; 2];
                chunked_jsweep(
                    n_j,
                    j_chunk_size(n_j),
                    &mut scratch,
                    &mut out,
                    |js, row| {
                        for j in js {
                            let x = (1.0 + j as f64) * 10f64.powi((j % 37) as i32 - 18);
                            row[0] += x;
                            row[1] += 1.0 / x;
                        }
                    },
                    |a, b| *a += b,
                );
                (out[0].to_bits(), out[1].to_bits())
            })
        };
        let reference = run(1);
        for t in [2usize, 3, 8] {
            assert_eq!(run(t), reference, "threads = {t}");
        }
    }

    #[test]
    fn empty_inputs_zero_the_output() {
        let mut scratch = vec![1.0f64; 8];
        let mut out = vec![7.0f64; 2];
        chunked_jsweep(0, 64, &mut scratch, &mut out, |_, _| {}, |a, b| *a += b);
        assert_eq!(out, vec![0.0; 2]);
    }
}
