//! Host-parallel execution layer: a lazily-initialized, persistent worker
//! pool shared by every crate in the workspace (std-only — no rayon, no
//! crossbeam — so hermetic builds need nothing from a registry).
//!
//! # Why a persistent pool
//!
//! The seed implementation spawned fresh OS threads on every large GEMM
//! via `crossbeam::scope`, and ran every other host-numerics hot path
//! (SpMM, elementwise, packing) on a single core. Thread spawn
//! costs microseconds-to-milliseconds; kernels at PiPAD's working shapes
//! run for comparable times, so per-call spawning forfeits most of the
//! win. Here worker threads are created once, on first parallel call, and
//! then parked on a condvar waiting for jobs.
//!
//! # Determinism contract
//!
//! Callers partition work **by disjoint output ranges** (rows, columns,
//! or elements). Each range is computed by exactly the same scalar code
//! as the serial path, in the same per-element accumulation order — bands
//! only decide *who* computes a row, never the order of float operations
//! *within* it. Consequently results are bit-identical for every thread
//! count, including 1, and the simulated-device timeline (which this
//! layer never touches) stays byte-for-byte unchanged.
//!
//! # Thread-count policy
//!
//! `max_threads()` is resolved once per process: the `PIPAD_THREADS` env
//! var if set (clamped to [1, 1024]), else `available_parallelism()`.
//! `PIPAD_THREADS=1` disables parallelism entirely — the pool is never
//! even created, so no threads are spawned. Tests use [`with_threads`] to
//! override the band count on the current thread without re-reading the
//! environment.
//!
//! Band counts are always clamped by the number of work items, so a
//! 1-row matrix never occupies more than one worker regardless of the
//! configured thread count.

use std::cell::Cell;
use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex, OnceLock};

// ---------------------------------------------------------------------------
// Thread-count resolution
// ---------------------------------------------------------------------------

static MAX_THREADS: OnceLock<usize> = OnceLock::new();

thread_local! {
    static THREAD_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
}

/// The process-wide worker budget: `PIPAD_THREADS` if set, else the OS
/// `available_parallelism()`. Resolved once and cached — the per-call
/// `available_parallelism()` syscall of the seed GEMM is gone.
pub fn max_threads() -> usize {
    *MAX_THREADS.get_or_init(|| {
        let from_env = std::env::var("PIPAD_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n >= 1);
        let n =
            from_env.unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
        n.clamp(1, 1024)
    })
}

/// The band budget for the current thread: the [`with_threads`] override
/// if one is active, else [`max_threads`].
pub fn current_threads() -> usize {
    THREAD_OVERRIDE.with(Cell::get).unwrap_or_else(max_threads)
}

/// Run `f` with the band budget forced to `n` on this thread. Used by the
/// bit-exactness suite (and benches) to compare thread counts inside one
/// process, where the `PIPAD_THREADS` env var has already been latched.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    assert!(n >= 1, "thread override must be >= 1");
    THREAD_OVERRIDE.with(|cell| {
        let prev = cell.replace(Some(n));
        // Restore on unwind too, so a panicking test does not poison the
        // override for later tests on the same test thread.
        struct Restore<'a>(&'a Cell<Option<usize>>, Option<usize>);
        impl Drop for Restore<'_> {
            fn drop(&mut self) {
                self.0.set(self.1);
            }
        }
        let _restore = Restore(cell, prev);
        f()
    })
}

// ---------------------------------------------------------------------------
// Band arithmetic
// ---------------------------------------------------------------------------

/// Number of bands for `len` work items when each band should hold at
/// least `min_per_band` items. Always in `[1, len.max(1)]`, so tiny
/// inputs (including the 1-row case) never fan out.
pub fn bands(len: usize, min_per_band: usize) -> usize {
    if len <= 1 {
        return 1;
    }
    let budget = current_threads();
    let cap = if min_per_band <= 1 {
        len
    } else {
        len.div_ceil(min_per_band)
    };
    budget.min(cap).min(len).max(1)
}

/// The half-open item range owned by band `b` of `n_bands` over `len`
/// items: contiguous, in band order, sizes differing by at most one.
pub fn band_range(len: usize, n_bands: usize, b: usize) -> Range<usize> {
    debug_assert!(b < n_bands);
    let base = len / n_bands;
    let rem = len % n_bands;
    let start = b * base + b.min(rem);
    let end = start + base + usize::from(b < rem);
    start..end
}

// ---------------------------------------------------------------------------
// The pool
// ---------------------------------------------------------------------------

/// One enqueued band of a scoped parallel region. The pointers refer to
/// stack data of the submitting thread, which blocks in
/// [`Latch::wait`] until every band has completed — so they are valid for
/// the job's whole lifetime.
struct Job {
    func: *const (dyn Fn(usize) + Sync),
    band: usize,
    latch: *const Latch,
}

// SAFETY: the submitting thread keeps the referents alive until the latch
// opens, and `func` is `Sync` so calling it from another thread is sound.
unsafe impl Send for Job {}

/// Countdown latch a parallel region waits on. Also records whether any
/// band panicked so the caller can re-raise.
struct Latch {
    remaining: Mutex<usize>,
    done: Condvar,
    panicked: AtomicBool,
}

impl Latch {
    fn new(count: usize) -> Self {
        Latch {
            remaining: Mutex::new(count),
            done: Condvar::new(),
            panicked: AtomicBool::new(false),
        }
    }

    fn complete_one(&self) {
        let mut left = self.remaining.lock().unwrap();
        *left -= 1;
        if *left == 0 {
            self.done.notify_all();
        }
    }

    fn wait(&self) {
        let mut left = self.remaining.lock().unwrap();
        while *left > 0 {
            left = self.done.wait(left).unwrap();
        }
    }
}

struct PoolShared {
    queue: Mutex<VecDeque<Job>>,
    work_ready: Condvar,
}

struct Pool {
    shared: &'static PoolShared,
    workers: usize,
}

static POOL: OnceLock<Pool> = OnceLock::new();

/// Execute one job, catching panics so a worker never dies and the latch
/// always opens.
fn run_job(job: Job) {
    // SAFETY: see `Job` — the submitter blocks until the latch opens.
    let result = catch_unwind(AssertUnwindSafe(|| unsafe { (*job.func)(job.band) }));
    // SAFETY: as above.
    let latch = unsafe { &*job.latch };
    if result.is_err() {
        latch.panicked.store(true, Ordering::Release);
    }
    latch.complete_one();
}

fn worker_loop(shared: &'static PoolShared) {
    loop {
        let job = {
            let mut queue = shared.queue.lock().unwrap();
            loop {
                if let Some(job) = queue.pop_front() {
                    break job;
                }
                queue = shared.work_ready.wait(queue).unwrap();
            }
        };
        run_job(job);
    }
}

fn pool() -> &'static Pool {
    POOL.get_or_init(|| {
        let shared: &'static PoolShared = Box::leak(Box::new(PoolShared {
            queue: Mutex::new(VecDeque::new()),
            work_ready: Condvar::new(),
        }));
        let workers = max_threads().saturating_sub(1);
        for i in 0..workers {
            std::thread::Builder::new()
                .name(format!("pipad-pool-{i}"))
                .spawn(move || worker_loop(shared))
                .expect("failed to spawn pool worker");
        }
        Pool { shared, workers }
    })
}

// ---------------------------------------------------------------------------
// Scoped parallel primitives
// ---------------------------------------------------------------------------

/// Run `f(0)`, `f(1)`, …, `f(n_bands - 1)` across the pool, returning
/// once all have finished. Band 0 runs on the calling thread; the caller
/// then helps drain the queue (so the region completes even with zero
/// workers) and finally blocks on the latch.
///
/// With `n_bands <= 1` this is exactly `f(0)` — no pool, no threads, no
/// synchronization — which is also the `PIPAD_THREADS=1` path.
pub fn parallel_bands(n_bands: usize, f: impl Fn(usize) + Sync) {
    if n_bands <= 1 {
        if n_bands == 1 {
            f(0);
        }
        return;
    }
    let pool = pool();
    if pool.workers == 0 {
        for band in 0..n_bands {
            f(band);
        }
        return;
    }

    let latch = Latch::new(n_bands - 1);
    // Erase the closure's lifetime (raw `*const dyn` spells `'static`);
    // soundness argument on `Job`.
    let func: &(dyn Fn(usize) + Sync) = &f;
    let func: *const (dyn Fn(usize) + Sync) = unsafe {
        std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(func)
    };
    {
        let mut queue = pool.shared.queue.lock().unwrap();
        for band in 1..n_bands {
            queue.push_back(Job {
                func,
                band,
                latch: &latch,
            });
        }
    }
    pool.shared.work_ready.notify_all();

    // Even if `f(0)` panics we MUST wait for the latch before unwinding:
    // outstanding jobs still alias our stack. The drop guard guarantees
    // the wait happens on the unwind path too.
    struct WaitOnDrop<'a>(&'a Latch);
    impl Drop for WaitOnDrop<'_> {
        fn drop(&mut self) {
            self.0.wait();
        }
    }
    {
        let _wait = WaitOnDrop(&latch);
        f(0);
        // Help drain: run any still-queued bands (ours or another
        // region's) instead of idling until workers get to them.
        loop {
            let job = pool.shared.queue.lock().unwrap().pop_front();
            match job {
                Some(job) => run_job(job),
                None => break,
            }
        }
    }
    if latch.panicked.load(Ordering::Acquire) {
        panic!("pipad-pool: a parallel band panicked");
    }
}

/// Parallel loop over `0..len`, partitioned into contiguous index ranges
/// with at least `min_per_band` items each. `f` receives each band's
/// range; with one band this degenerates to `f(0..len)` inline.
pub fn parallel_for(len: usize, min_per_band: usize, f: impl Fn(Range<usize>) + Sync) {
    if len == 0 {
        return;
    }
    let n_bands = bands(len, min_per_band);
    if n_bands == 1 {
        f(0..len);
        return;
    }
    parallel_bands(n_bands, |b| f(band_range(len, n_bands, b)));
}

/// A mutable slice shareable across bands that write **disjoint** ranges.
/// The unsafe `slice` method hands out aliasing-free `&mut` views; the
/// caller promises ranges handed to concurrent bands never overlap.
pub struct DisjointMut<'a, T> {
    ptr: *mut T,
    len: usize,
    _marker: std::marker::PhantomData<&'a mut [T]>,
}

// SAFETY: access is only through `slice`, whose contract requires the
// ranges used by concurrent threads to be disjoint.
unsafe impl<T: Send> Send for DisjointMut<'_, T> {}
unsafe impl<T: Send> Sync for DisjointMut<'_, T> {}

impl<'a, T> DisjointMut<'a, T> {
    pub fn new(data: &'a mut [T]) -> Self {
        DisjointMut {
            ptr: data.as_mut_ptr(),
            len: data.len(),
            _marker: std::marker::PhantomData,
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// # Safety
    /// `range` must be in bounds and must not overlap any range handed
    /// out to another thread that is still using it.
    // `&mut` out of `&self` is this type's whole purpose: the caller's
    // disjointness contract (above) is what makes it sound, which the
    // borrow checker cannot see.
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn slice(&self, range: Range<usize>) -> &mut [T] {
        debug_assert!(range.start <= range.end && range.end <= self.len);
        std::slice::from_raw_parts_mut(self.ptr.add(range.start), range.end - range.start)
    }
}

/// Parallel map over a slice, preserving order. Falls back to a plain
/// serial map when the band math says one band (few items, or
/// single-threaded config).
pub fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let n = items.len();
    let n_bands = bands(n, 1);
    if n_bands <= 1 {
        return items.iter().map(f).collect();
    }
    let mut out: Vec<Option<R>> = Vec::with_capacity(n);
    out.resize_with(n, || None);
    let shared = DisjointMut::new(&mut out);
    parallel_bands(n_bands, |b| {
        let range = band_range(n, n_bands, b);
        // SAFETY: bands own disjoint index ranges.
        let dst = unsafe { shared.slice(range.clone()) };
        for (slot, item) in dst.iter_mut().zip(&items[range]) {
            *slot = Some(f(item));
        }
    });
    out.into_iter()
        .map(|v| v.expect("band skipped a slot"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn band_ranges_tile_exactly() {
        for len in [0usize, 1, 2, 3, 7, 13, 64, 1000] {
            for n in 1..=8usize {
                if len == 0 {
                    continue;
                }
                let mut covered = Vec::new();
                for b in 0..n {
                    covered.extend(band_range(len, n, b));
                }
                assert_eq!(covered, (0..len).collect::<Vec<_>>(), "len={len} n={n}");
            }
        }
    }

    #[test]
    fn bands_clamp_to_work() {
        with_threads(8, || {
            assert_eq!(bands(0, 1), 1);
            assert_eq!(bands(1, 1), 1, "a 1-row matrix must never fan out");
            assert!(bands(2, 1) <= 2);
            assert_eq!(bands(100, 64), 2);
            assert_eq!(bands(100, 1000), 1);
            assert_eq!(bands(1000, 1), 8);
        });
        with_threads(1, || {
            assert_eq!(bands(1000, 1), 1);
        });
    }

    #[test]
    fn parallel_for_writes_every_index() {
        for t in [1usize, 2, 3, 7] {
            with_threads(t, || {
                let mut data = vec![0u64; 1003];
                let shared = DisjointMut::new(&mut data);
                parallel_for(1003, 1, |range| {
                    let dst = unsafe { shared.slice(range.clone()) };
                    for (off, i) in range.enumerate() {
                        dst[off] = (i * i) as u64;
                    }
                });
                assert!(data.iter().enumerate().all(|(i, &v)| v == (i * i) as u64));
            });
        }
    }

    #[test]
    fn par_map_preserves_order() {
        for t in [1usize, 2, 7] {
            with_threads(t, || {
                let items: Vec<usize> = (0..57).collect();
                let out = par_map(&items, |&x| x * 3);
                assert_eq!(out, (0..57).map(|x| x * 3).collect::<Vec<_>>());
            });
        }
    }

    #[test]
    fn empty_and_tiny_inputs() {
        with_threads(7, || {
            parallel_for(0, 1, |_| panic!("must not run"));
            let out: Vec<u32> = par_map(&[], |_: &u32| 1);
            assert!(out.is_empty());
        });
    }

    #[test]
    fn panic_in_band_propagates_and_pool_survives() {
        let caught = std::panic::catch_unwind(|| {
            with_threads(4, || {
                parallel_bands(4, |b| {
                    if b == 2 {
                        panic!("boom");
                    }
                });
            });
        });
        assert!(caught.is_err());
        // The pool must still work afterwards.
        with_threads(4, || {
            let items: Vec<u32> = (0..100).collect();
            assert_eq!(par_map(&items, |&x| x + 1).len(), 100);
        });
    }

    #[test]
    fn override_restores_after_panic() {
        let _ = std::panic::catch_unwind(|| {
            with_threads(3, || panic!("boom"));
        });
        assert_eq!(current_threads(), max_threads());
    }
}
