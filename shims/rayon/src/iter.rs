//! Index-based parallel iterators over the pool.
//!
//! Every source this workspace parallelizes is random-access (slices and
//! ranges), so a parallel iterator here is a *producer*: a length plus an
//! indexed `get`. Adaptors (`map`, `zip`, `enumerate`, `chunks`) compose
//! producers; drivers (`for_each`, `sum`, `collect`, `collect_into_vec`)
//! split the index space into chunks and run them on the pool.
//!
//! Determinism contract:
//!
//! - Element-wise drivers (`for_each`, `collect*`) produce each element
//!   independently at its own index, so scheduling cannot affect results and
//!   the chunk size is free to adapt to the thread count.
//! - The reducing driver (`sum`) forms one partial per chunk and combines
//!   the partials **in chunk order**, with a chunk size that depends only on
//!   the element count ([`reduction_chunk`]) — never on the thread count —
//!   so floating-point sums are bit-identical for any `RAYON_NUM_THREADS`.

use crate::pool;

/// Chunk size for order-sensitive reductions: a function of the element
/// count only (≈64 chunks, capped), **never** of the thread count — this is
/// what makes chunked float sums thread-count invariant.
pub(crate) fn reduction_chunk(n: usize) -> usize {
    n.div_ceil(64).clamp(1, 8192)
}

/// Chunk size for element-wise drives: free to consider the thread count
/// (finer grain for load balance) because per-element results cannot depend
/// on scheduling.
fn element_chunk(n: usize, threads: usize) -> usize {
    (n / (4 * threads.max(1))).max(1)
}

/// Raw pointer wrapper asserting cross-thread use is safe because distinct
/// slots/indices are written by distinct workers.
struct SyncPtr<T>(*mut T);
// SAFETY: the pointer is only dereferenced at indices partitioned across
// workers (each slot written by exactly one thread), and T: Send lets the
// pointee move between threads.
unsafe impl<T: Send> Send for SyncPtr<T> {}
// SAFETY: shared use is index-disjoint writes only (see Send above); no two
// threads ever touch the same element through the same `&SyncPtr`.
unsafe impl<T: Send> Sync for SyncPtr<T> {}

/// Evaluate `eval(c)` for every chunk index `0..n_chunks` on up to
/// `threads` threads and return the results **indexed by chunk**, so the
/// caller can fold them in chunk order.
pub(crate) fn chunked_map<R, F>(n_chunks: usize, threads: usize, eval: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let mut out: Vec<std::mem::MaybeUninit<R>> = Vec::with_capacity(n_chunks);
    // SAFETY: `MaybeUninit` needs no initialization; every slot is written
    // exactly once below before the vector is transmuted to `Vec<R>`.
    unsafe { out.set_len(n_chunks) };
    let t = threads.clamp(1, n_chunks.max(1));
    {
        let slots = SyncPtr(out.as_mut_ptr());
        let slots = &slots;
        pool::broadcast(t, &|slot| {
            let mut c = slot;
            while c < n_chunks {
                // SAFETY: chunk c is written only by the slot c % t.
                unsafe { (*slots.0.add(c)).write(eval(c)) };
                c += t;
            }
        });
    }
    // SAFETY: all n_chunks slots initialized above (a panic would have
    // propagated out of broadcast, leaking but not double-freeing).
    unsafe {
        let mut out = std::mem::ManuallyDrop::new(out);
        Vec::from_raw_parts(out.as_mut_ptr() as *mut R, out.len(), out.capacity())
    }
}

/// Drive `apply(i)` for every `i in 0..n` across the pool (element-wise:
/// scheduling cannot affect results).
fn drive_elements<F: Fn(usize) + Sync>(n: usize, apply: F) {
    if n == 0 {
        return;
    }
    let threads = crate::current_num_threads();
    if threads <= 1 || pool::in_worker() {
        for i in 0..n {
            apply(i);
        }
        return;
    }
    let chunk = element_chunk(n, threads);
    let n_chunks = n.div_ceil(chunk);
    let t = threads.min(n_chunks);
    pool::broadcast(t, &|slot| {
        let mut c = slot;
        while c < n_chunks {
            let lo = c * chunk;
            let hi = (lo + chunk).min(n);
            for i in lo..hi {
                apply(i);
            }
            c += t;
        }
    });
}

/// A random-access parallel iterator (producer).
pub trait ParallelIterator: Sized + Send + Sync {
    /// Element type.
    type Item: Send;

    /// Number of elements this producer yields.
    fn len(&self) -> usize;

    /// True when the producer yields nothing.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Produce the element at index `i`.
    ///
    /// # Safety
    /// `i < self.len()`, and within one drive each index is produced at most
    /// once (producers may hand out `&mut` elements).
    unsafe fn get(&self, i: usize) -> Self::Item;

    /// Transform each element with `f`.
    fn map<R: Send, F: Fn(Self::Item) -> R + Sync + Send>(self, f: F) -> Map<Self, F> {
        Map { base: self, f }
    }

    /// Pair elements with another producer (length = the shorter of the two).
    fn zip<B: IntoParallelIterator>(self, other: B) -> Zip<Self, B::Iter> {
        Zip { a: self, b: other.into_par_iter() }
    }

    /// Pair each element with its index.
    fn enumerate(self) -> Enumerate<Self> {
        Enumerate { base: self }
    }

    /// Run `f` on every element, in parallel.
    fn for_each<F: Fn(Self::Item) + Sync + Send>(self, f: F) {
        let it = &self;
        // SAFETY: drive_elements visits each index exactly once.
        drive_elements(self.len(), |i| f(unsafe { it.get(i) }));
    }

    /// Sum all elements. Partials are one-per-chunk with a thread-count
    /// independent chunk size, combined in chunk order: bit-identical for
    /// any thread count.
    fn sum<S>(self) -> S
    where
        S: Send + std::iter::Sum<Self::Item> + std::iter::Sum<S>,
    {
        let n = self.len();
        let chunk = reduction_chunk(n);
        let n_chunks = n.div_ceil(chunk);
        let it = &self;
        let partials = chunked_map(n_chunks, crate::current_num_threads(), |c| {
            let lo = c * chunk;
            let hi = (lo + chunk).min(n);
            // SAFETY: chunks partition 0..n; each index produced once.
            (lo..hi).map(|i| unsafe { it.get(i) }).sum::<S>()
        });
        partials.into_iter().sum()
    }

    /// Collect into a container (only `Vec` is supported).
    fn collect<C: FromParallelIterator<Self::Item>>(self) -> C {
        C::from_par_iter(self)
    }

    /// Collect into an existing vector, clearing it first.
    fn collect_into_vec(self, out: &mut Vec<Self::Item>) {
        let n = self.len();
        out.clear();
        out.reserve(n);
        {
            let base = SyncPtr(out.as_mut_ptr());
            let base = &base;
            let it = &self;
            // SAFETY: each index written exactly once, into reserved slots.
            drive_elements(n, |i| unsafe { base.0.add(i).write(it.get(i)) });
        }
        // SAFETY: all n slots were initialized (on panic we never get here
        // and the vector keeps its cleared length — leaked, not unsound).
        unsafe { out.set_len(n) };
    }
}

/// Conversion into a [`ParallelIterator`] (ranges, and pass-through for
/// anything already parallel).
pub trait IntoParallelIterator {
    /// The producer type.
    type Iter: ParallelIterator<Item = Self::Item>;
    /// Element type.
    type Item: Send;
    /// Convert into a parallel iterator.
    fn into_par_iter(self) -> Self::Iter;
}

impl<P: ParallelIterator> IntoParallelIterator for P {
    type Iter = P;
    type Item = P::Item;
    fn into_par_iter(self) -> P {
        self
    }
}

/// Parallel iterator over `Range<usize>`.
#[derive(Clone, Copy)]
pub struct RangeIter {
    start: usize,
    len: usize,
}

impl ParallelIterator for RangeIter {
    type Item = usize;
    fn len(&self) -> usize {
        self.len
    }
    // SAFETY: no memory access — producing `start + i` is sound for any `i`;
    // the trait contract (`i < len`) is simply inherited.
    unsafe fn get(&self, i: usize) -> usize {
        self.start + i
    }
}

impl IntoParallelIterator for std::ops::Range<usize> {
    type Iter = RangeIter;
    type Item = usize;
    fn into_par_iter(self) -> RangeIter {
        RangeIter { start: self.start, len: self.end.saturating_sub(self.start) }
    }
}

/// Shared-slice producer (`par_iter`).
pub struct ParIter<'a, T> {
    slice: &'a [T],
}

impl<'a, T: Sync> ParallelIterator for ParIter<'a, T> {
    type Item = &'a T;
    fn len(&self) -> usize {
        self.slice.len()
    }
    // SAFETY: relies on the trait contract (i < len); elements are shared
    // references, so multiple production is harmless.
    unsafe fn get(&self, i: usize) -> &'a T {
        // SAFETY: the trait contract guarantees i < self.len() = slice len.
        self.slice.get_unchecked(i)
    }
}

/// Mutable-slice producer (`par_iter_mut`). Stores a raw pointer so `get`
/// can hand out disjoint `&mut` elements across workers.
pub struct ParIterMut<'a, T> {
    ptr: *mut T,
    len: usize,
    _marker: std::marker::PhantomData<&'a mut [T]>,
}

// SAFETY: the producer owns an exclusive borrow of the slice (PhantomData
// &'a mut [T]); moving it to another thread is moving that exclusive borrow,
// sound for T: Send.
unsafe impl<T: Send> Send for ParIterMut<'_, T> {}
// SAFETY: sharing `&ParIterMut` across workers only ever yields disjoint
// `&mut T` (each index produced at most once per drive — trait contract).
unsafe impl<T: Send> Sync for ParIterMut<'_, T> {}

impl<'a, T: Send> ParallelIterator for ParIterMut<'a, T> {
    type Item = &'a mut T;
    fn len(&self) -> usize {
        self.len
    }
    // SAFETY: relies on the trait contract — i < len and each index produced
    // at most once per drive.
    unsafe fn get(&self, i: usize) -> &'a mut T {
        // SAFETY: i < len (in-bounds) and each index is produced at most
        // once, so the &mut references are disjoint.
        &mut *self.ptr.add(i)
    }
}

/// Shared chunked-slice producer (`par_chunks`).
pub struct ParChunks<'a, T> {
    slice: &'a [T],
    size: usize,
}

impl<'a, T: Sync> ParallelIterator for ParChunks<'a, T> {
    type Item = &'a [T];
    fn len(&self) -> usize {
        self.slice.len().div_ceil(self.size)
    }
    // SAFETY: relies on the trait contract (i < len); windows are shared,
    // so multiple production is harmless.
    unsafe fn get(&self, i: usize) -> &'a [T] {
        let lo = i * self.size;
        let hi = (lo + self.size).min(self.slice.len());
        // SAFETY: i < len() = ceil(slice len / size) (trait contract), so
        // lo..hi is in bounds with lo <= hi.
        self.slice.get_unchecked(lo..hi)
    }
}

/// Mutable chunked-slice producer (`par_chunks_mut`): disjoint `&mut [T]`
/// windows, the allocation-free way to hand each worker a row of output.
pub struct ParChunksMut<'a, T> {
    ptr: *mut T,
    len: usize,
    size: usize,
    _marker: std::marker::PhantomData<&'a mut [T]>,
}

// SAFETY: owns an exclusive borrow of the slice (PhantomData &'a mut [T]);
// sending it is sending that exclusive borrow, sound for T: Send.
unsafe impl<T: Send> Send for ParChunksMut<'_, T> {}
// SAFETY: shared use only ever yields disjoint `&mut [T]` windows (each
// chunk index produced at most once per drive — trait contract).
unsafe impl<T: Send> Sync for ParChunksMut<'_, T> {}

impl<'a, T: Send> ParallelIterator for ParChunksMut<'a, T> {
    type Item = &'a mut [T];
    fn len(&self) -> usize {
        self.len.div_ceil(self.size)
    }
    // SAFETY: relies on the trait contract — i < len() and each chunk index
    // produced at most once per drive.
    unsafe fn get(&self, i: usize) -> &'a mut [T] {
        let lo = i * self.size;
        let hi = (lo + self.size).min(self.len);
        // SAFETY: lo..hi is in bounds (i < ceil(len/size)), chunk windows
        // are disjoint, and each index is produced at most once per drive.
        std::slice::from_raw_parts_mut(self.ptr.add(lo), hi - lo)
    }
}

/// Slice entry points: `par_iter`, `par_iter_mut`, `par_chunks[_mut]`.
pub trait ParallelSlice<T> {
    /// Shared parallel iterator over the slice.
    fn par_iter(&self) -> ParIter<'_, T>;
    /// Mutable parallel iterator over the slice.
    fn par_iter_mut(&mut self) -> ParIterMut<'_, T>;
    /// Parallel iterator over `size`-element shared windows.
    fn par_chunks(&self, size: usize) -> ParChunks<'_, T>;
    /// Parallel iterator over `size`-element mutable windows.
    fn par_chunks_mut(&mut self, size: usize) -> ParChunksMut<'_, T>;
}

impl<T> ParallelSlice<T> for [T] {
    fn par_iter(&self) -> ParIter<'_, T> {
        ParIter { slice: self }
    }
    fn par_iter_mut(&mut self) -> ParIterMut<'_, T> {
        ParIterMut { ptr: self.as_mut_ptr(), len: self.len(), _marker: std::marker::PhantomData }
    }
    fn par_chunks(&self, size: usize) -> ParChunks<'_, T> {
        assert!(size > 0, "chunk size must be positive");
        ParChunks { slice: self, size }
    }
    fn par_chunks_mut(&mut self, size: usize) -> ParChunksMut<'_, T> {
        assert!(size > 0, "chunk size must be positive");
        ParChunksMut {
            ptr: self.as_mut_ptr(),
            len: self.len(),
            size,
            _marker: std::marker::PhantomData,
        }
    }
}

/// `map` adaptor.
pub struct Map<P, F> {
    base: P,
    f: F,
}

impl<P, R, F> ParallelIterator for Map<P, F>
where
    P: ParallelIterator,
    R: Send,
    F: Fn(P::Item) -> R + Sync + Send,
{
    type Item = R;
    fn len(&self) -> usize {
        self.base.len()
    }
    // SAFETY: forwards the caller's contract (i < len, produced once)
    // unchanged to the base producer.
    unsafe fn get(&self, i: usize) -> R {
        (self.f)(self.base.get(i))
    }
}

/// `zip` adaptor.
pub struct Zip<A, B> {
    a: A,
    b: B,
}

impl<A: ParallelIterator, B: ParallelIterator> ParallelIterator for Zip<A, B> {
    type Item = (A::Item, B::Item);
    fn len(&self) -> usize {
        self.a.len().min(self.b.len())
    }
    // SAFETY: i < min(a.len, b.len) (trait contract), so the caller's
    // contract holds for both base producers.
    unsafe fn get(&self, i: usize) -> (A::Item, B::Item) {
        (self.a.get(i), self.b.get(i))
    }
}

/// `enumerate` adaptor.
pub struct Enumerate<P> {
    base: P,
}

impl<P: ParallelIterator> ParallelIterator for Enumerate<P> {
    type Item = (usize, P::Item);
    fn len(&self) -> usize {
        self.base.len()
    }
    // SAFETY: forwards the caller's contract unchanged to the base producer.
    unsafe fn get(&self, i: usize) -> (usize, P::Item) {
        (i, self.base.get(i))
    }
}

/// Collection from a parallel iterator (only `Vec` is provided).
pub trait FromParallelIterator<T: Send> {
    /// Build the collection by draining `p`.
    fn from_par_iter<P: ParallelIterator<Item = T>>(p: P) -> Self;
}

impl<T: Send> FromParallelIterator<T> for Vec<T> {
    fn from_par_iter<P: ParallelIterator<Item = T>>(p: P) -> Vec<T> {
        let mut out = Vec::new();
        p.collect_into_vec(&mut out);
        out
    }
}
