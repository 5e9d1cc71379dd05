//! The worker pool: `std::thread` workers with deterministic, statically
//! chunked scheduling.
//!
//! The one primitive is [`broadcast`]: run a closure once per *slot*
//! `0..threads`, slot 0 inline on the caller, slots `1..` on persistent pool
//! workers. Callers split their work into fixed-size chunks and assign chunk
//! `c` to slot `c % threads`; because chunk *boundaries* never depend on the
//! slot count, any reduction that combines per-chunk partials in chunk order
//! is bit-identical for every thread count (see the crate docs for the full
//! determinism contract).
//!
//! Design notes, in the spirit of the GRAPE-6 host libraries that fed a
//! fixed set of hardware pipelines round-robin:
//!
//! - Workers are spawned lazily, grow on demand, and are never joined (they
//!   park in `recv()`; the OS reclaims them at process exit). A worker is
//!   *dedicated*: it only ever runs slots handed to it, never steals.
//! - `broadcast(1, f)` calls `f(0)` directly — no channel, no latch, no
//!   atomics — so `RAYON_NUM_THREADS=1` runs on the caller thread with zero
//!   pool overhead (the "zero-thread-pool fallback").
//! - A broadcast issued *from inside a worker* (a nested parallel call) runs
//!   all slots inline on that worker. Chunk→slot assignment does not affect
//!   results, so this is bit-identical to a threaded execution and cannot
//!   deadlock: workers never block on latches.
//! - Worker panics are caught, forwarded through the latch, and re-raised on
//!   the caller after every slot has finished (the caller must not unwind
//!   while workers still borrow its stack frame).

use std::any::Any;
use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Condvar, Mutex, OnceLock};

/// A lifetime-erased slot closure plus the latch that proves the borrow is
/// still live: the dispatching `broadcast` frame waits on `latch` before
/// returning, so the `'static` here is a scoped-thread-style promise, not a
/// real static lifetime.
struct Task {
    f: TaskFn,
    latch: &'static Latch,
    slot: usize,
}

/// The lifetime-erased slot-closure type carried by [`Task`].
type TaskFn = &'static (dyn Fn(usize) + Sync);

/// Countdown latch carrying the first worker panic, if any.
struct Latch {
    state: Mutex<LatchState>,
    cv: Condvar,
}

struct LatchState {
    remaining: usize,
    panic: Option<Box<dyn Any + Send>>,
}

impl Latch {
    fn new(remaining: usize) -> Self {
        Self { state: Mutex::new(LatchState { remaining, panic: None }), cv: Condvar::new() }
    }

    fn complete(&self, panic: Option<Box<dyn Any + Send>>) {
        let mut s = self.state.lock().unwrap();
        s.remaining -= 1;
        if s.panic.is_none() {
            if let Some(p) = panic {
                s.panic = Some(p);
            }
        }
        if s.remaining == 0 {
            self.cv.notify_all();
        }
    }

    fn wait(&self) -> Option<Box<dyn Any + Send>> {
        let mut s = self.state.lock().unwrap();
        while s.remaining > 0 {
            s = self.cv.wait(s).unwrap();
        }
        s.panic.take()
    }
}

thread_local! {
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// True when the current thread is a pool worker (nested parallel calls run
/// inline rather than re-dispatching).
pub(crate) fn in_worker() -> bool {
    IN_WORKER.with(|c| c.get())
}

fn workers() -> &'static Mutex<Vec<Sender<Task>>> {
    static POOL: OnceLock<Mutex<Vec<Sender<Task>>>> = OnceLock::new();
    POOL.get_or_init(|| Mutex::new(Vec::new()))
}

fn spawn_worker(index: usize) -> Sender<Task> {
    let (tx, rx) = channel::<Task>();
    std::thread::Builder::new()
        .name(format!("rayon-shim-{index}"))
        .spawn(move || {
            IN_WORKER.with(|c| c.set(true));
            while let Ok(task) = rx.recv() {
                let outcome = catch_unwind(AssertUnwindSafe(|| (task.f)(task.slot)));
                task.latch.complete(outcome.err());
            }
        })
        .expect("spawn rayon-shim worker");
    tx
}

/// Run `f(slot)` for every slot in `0..threads`, slot 0 on the caller and
/// the rest on pool workers, returning once all slots have finished.
///
/// With `threads <= 1`, or when called from inside a pool worker, every slot
/// runs inline on the current thread — same results, no dispatch.
pub fn broadcast(threads: usize, f: &(dyn Fn(usize) + Sync)) {
    let t = threads.max(1);
    if t == 1 || in_worker() {
        for slot in 0..t {
            f(slot);
        }
        return;
    }
    let latch = Latch::new(t - 1);
    {
        let mut pool = workers().lock().unwrap();
        while pool.len() < t - 1 {
            let idx = pool.len();
            pool.push(spawn_worker(idx));
        }
        // SAFETY: lifetime erasure of `f`. Workers read `f` only while
        // running their dispatched slot, and `latch.wait()` below does not
        // return until every dispatched slot has called `latch.complete`
        // (worker loop: `task.latch.complete(...)` runs after `task.f`
        // returns or panics). So every worker read of `f` happens-before
        // this frame returns — the same contract `std::thread::scope`
        // provides, erased to 'static because the channel `Task` type can
        // name no stack lifetime.
        let f_erased = unsafe { std::mem::transmute::<&(dyn Fn(usize) + Sync), TaskFn>(f) };
        // SAFETY: lifetime erasure of `latch`. A worker's last touch of the
        // latch is the `complete` call itself; `Latch::wait` returns only
        // after observing all `t - 1` completions (and `complete`'s
        // lock/notify releases the borrow before `wait` can observe the
        // final count). The latch therefore outlives every worker access,
        // even on the panic paths, because `wait` runs unconditionally
        // before this frame unwinds.
        let latch_erased = unsafe { std::mem::transmute::<&Latch, &'static Latch>(&latch) };
        for slot in 1..t {
            pool[slot - 1]
                .send(Task { f: f_erased, latch: latch_erased, slot })
                .expect("pool worker hung up");
        }
    }
    // The caller is slot 0. Even if it panics, wait for the workers first:
    // they still borrow `f` and `latch` from this frame.
    let own = catch_unwind(AssertUnwindSafe(|| f(0)));
    let worker_panic = latch.wait();
    if let Err(p) = own {
        resume_unwind(p);
    }
    if let Some(p) = worker_panic {
        resume_unwind(p);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn broadcast_runs_every_slot_exactly_once() {
        for t in [1usize, 2, 3, 8] {
            let hits: Vec<AtomicUsize> = (0..t).map(|_| AtomicUsize::new(0)).collect();
            broadcast(t, &|slot| {
                hits[slot].fetch_add(1, Ordering::SeqCst);
            });
            for (slot, h) in hits.iter().enumerate() {
                assert_eq!(h.load(Ordering::SeqCst), 1, "slot {slot} of {t}");
            }
        }
    }

    #[test]
    // Asserts *about* scheduling on purpose (clippy.toml bans it outside
    // the thread pool).
    #[allow(clippy::disallowed_methods)]
    fn broadcast_one_runs_on_caller_thread() {
        let caller = std::thread::current().id();
        broadcast(1, &|_| assert_eq!(std::thread::current().id(), caller));
    }

    #[test]
    fn nested_broadcast_runs_inline_without_deadlock() {
        let total = AtomicUsize::new(0);
        broadcast(4, &|_| {
            // Nested region: inline on whichever thread runs the slot.
            broadcast(4, &|_| {
                total.fetch_add(1, Ordering::SeqCst);
            });
        });
        assert_eq!(total.load(Ordering::SeqCst), 16);
    }

    #[test]
    fn worker_panic_propagates_to_caller() {
        let r = catch_unwind(AssertUnwindSafe(|| {
            broadcast(4, &|slot| {
                if slot == 2 {
                    panic!("slot 2 exploded");
                }
            });
        }));
        let p = r.expect_err("panic must propagate");
        let msg = p.downcast_ref::<&str>().copied().unwrap_or("");
        assert!(msg.contains("slot 2 exploded"), "got {msg:?}");
    }

    #[test]
    fn caller_slot_panic_still_waits_for_workers() {
        // The panic on slot 0 must not unwind before slots 1..4 finish
        // (they borrow the closure); afterwards every slot has run.
        let done = AtomicUsize::new(0);
        let r = catch_unwind(AssertUnwindSafe(|| {
            broadcast(4, &|slot| {
                if slot == 0 {
                    panic!("caller slot");
                }
                done.fetch_add(1, Ordering::SeqCst);
            });
        }));
        assert!(r.is_err());
        assert_eq!(done.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn concurrent_broadcasts_from_many_threads() {
        // Several user threads sharing the pool must all make progress.
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let sum = AtomicUsize::new(0);
                    for _ in 0..50 {
                        broadcast(3, &|slot| {
                            sum.fetch_add(slot + 1, Ordering::SeqCst);
                        });
                    }
                    assert_eq!(sum.load(Ordering::SeqCst), 50 * 6);
                });
            }
        });
    }
}
