//! Persistent worker pool for per-round data parallelism.
//!
//! `std::thread::scope` creates and joins OS threads on every call; at
//! engine-round granularity a 20 000-round Theorem 1.4 run would pay
//! 40 000+ thread spawns (one scope per compose and consume phase). This
//! module instead keeps one process-wide set of workers parked on a
//! condvar and dispatches *chunk jobs* to them through a shared slot, so
//! the steady-state per-phase cost is a mutex lock and a wake-up — no
//! thread is ever spawned after the pool has warmed up
//! ([`threads_spawned`] is exposed so tests can assert exactly that).
//!
//! The pool executes closures that borrow the caller's stack (the round's
//! wire buffer, node states, and the user's compose/consume closures)
//! even though the worker threads are `'static`. Doing that requires
//! erasing the closure's lifetime, which is the one purpose the workspace
//! uses `unsafe` for; it is confined to this module (the crate is
//! `deny(unsafe_code)` with an allowance here) and justified below.
//!
//! # Safety argument
//!
//! [`pool_execute`] publishes `&f` with its lifetime erased and **does
//! not return until every chunk of the job has finished running**
//! (`pending == 0`, synchronized through the job's completion mutex), so
//! the erased reference never outlives the borrow it was created from.
//! Workers can only reach `f` by claiming a chunk index from the job's
//! atomic cursor; once the cursor is exhausted a worker never touches the
//! job's closure again, and stale workers that wake late see either an
//! exhausted cursor or no job at all. Worker panics are caught, recorded
//! on the job, and re-thrown on the dispatching thread *after* the
//! rendezvous, preserving the invariant.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Upper bound on chunks per dispatch ([`DisjointChunks`] tracks claims in
/// one `AtomicU64` bitmask, and more chunks than this buys nothing).
pub const MAX_CHUNKS: usize = 64;

/// Poison-tolerant lock: the pool's mutexes guard no invariants a panic
/// could corrupt (panics are captured per-job and re-thrown after the
/// rendezvous), so a poisoned lock — e.g. from `resume_unwind` unwinding
/// through the dispatch guard — is recovered rather than cascaded.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// One dispatched job: a lifetime-erased chunk function plus the atomic
/// bookkeeping workers use to claim and retire chunks.
struct Job {
    /// The chunk function. Lifetime erased; see the module safety
    /// argument — `pool_execute` outlives every use of this reference.
    func: &'static (dyn Fn(usize) + Sync),
    /// Total chunk count.
    chunks: usize,
    /// Worker seats left: `threads - 1` at dispatch (the dispatcher is the
    /// remaining executor). A woken worker must take a seat before it
    /// claims a chunk, which is what caps a job at `threads` executors
    /// however many workers earlier dispatches have spawned.
    seats: AtomicUsize,
    /// Next chunk index to claim.
    next: AtomicUsize,
    /// Chunks not yet finished; the job is complete at 0.
    pending: AtomicUsize,
    /// First worker panic, re-thrown by the dispatcher.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
    /// Completion rendezvous.
    done: Mutex<bool>,
    done_cv: Condvar,
}

impl Job {
    /// Take one worker seat, if any is left. `Relaxed`: the seat count
    /// publishes no data (chunk claims and completion synchronize through
    /// `next`, `pending` and `done`).
    fn take_seat(&self) -> bool {
        self.seats
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |s| s.checked_sub(1))
            .is_ok()
    }

    /// Claim and run chunks until the cursor is exhausted; flag completion
    /// when the last chunk retires. Runs on workers *and* the dispatcher.
    fn run_chunks(&self) {
        loop {
            let c = self.next.fetch_add(1, Ordering::Relaxed);
            if c >= self.chunks {
                return;
            }
            let func = self.func;
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| func(c))) {
                let mut slot = lock(&self.panic);
                slot.get_or_insert(payload);
            }
            if self.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
                let mut done = lock(&self.done);
                *done = true;
                self.done_cv.notify_all();
            }
        }
    }
}

/// Worker-visible pool state: the current job slot.
struct Shared {
    slot: Mutex<SlotState>,
    work_cv: Condvar,
}

struct SlotState {
    job: Option<Arc<Job>>,
    /// Bumped on every publish so workers distinguish jobs.
    generation: u64,
}

struct Pool {
    shared: Arc<Shared>,
    /// Serializes dispatches: one job in flight at a time.
    dispatch: Mutex<()>,
    /// Worker threads spawned so far (monotonic; exposed for tests).
    workers: AtomicUsize,
}

static POOL: OnceLock<Pool> = OnceLock::new();
static SPAWNED: AtomicU64 = AtomicU64::new(0);

fn pool() -> &'static Pool {
    POOL.get_or_init(|| Pool {
        shared: Arc::new(Shared {
            slot: Mutex::new(SlotState {
                job: None,
                generation: 0,
            }),
            work_cv: Condvar::new(),
        }),
        dispatch: Mutex::new(()),
        workers: AtomicUsize::new(0),
    })
}

fn worker_loop(shared: Arc<Shared>) {
    let mut seen = 0u64;
    loop {
        let job = {
            let mut s = lock(&shared.slot);
            loop {
                if s.generation != seen {
                    seen = s.generation;
                    if let Some(job) = s.job.clone() {
                        break job;
                    }
                }
                s = shared.work_cv.wait(s).unwrap_or_else(|e| e.into_inner());
            }
        };
        if job.take_seat() {
            job.run_chunks();
        }
    }
}

impl Pool {
    /// Grow the pool to at least `n` parked workers. Workers live for the
    /// rest of the process (they hold nothing but the shared slot).
    fn ensure_workers(&self, n: usize) {
        let mut have = self.workers.load(Ordering::Relaxed);
        while have < n {
            let shared = Arc::clone(&self.shared);
            std::thread::Builder::new()
                .name(format!("ldc-sim-worker-{have}"))
                .spawn(move || worker_loop(shared))
                .expect("spawn pool worker");
            SPAWNED.fetch_add(1, Ordering::Relaxed);
            have += 1;
        }
        self.workers.store(have, Ordering::Relaxed);
    }

    fn execute(&self, threads: usize, chunks: usize, f: &(dyn Fn(usize) + Sync)) {
        // One job in flight at a time. If a dispatch is already running —
        // possibly one this very thread is executing a chunk of (a solver
        // round inside a fleet job re-entering the pool) — blocking here
        // would deadlock the in-flight job, whose completion may be waiting
        // on this thread. The chunks of a nested dispatch simply run inline
        // instead: the pool is already saturated, so no parallelism is
        // lost, and chunk functions never depend on *how* they are run.
        let _serial = match self.dispatch.try_lock() {
            Ok(guard) => guard,
            Err(std::sync::TryLockError::Poisoned(e)) => e.into_inner(),
            Err(std::sync::TryLockError::WouldBlock) => {
                for c in 0..chunks {
                    f(c);
                }
                return;
            }
        };
        let seats = threads.min(chunks) - 1;
        self.ensure_workers(seats);
        // SAFETY: `execute` blocks on the completion rendezvous below until
        // `pending == 0`, i.e. until no thread will ever dereference `func`
        // again, so extending the borrow to `'static` cannot outlive `f`.
        #[allow(unsafe_code)]
        let func: &'static (dyn Fn(usize) + Sync) =
            unsafe { std::mem::transmute::<&(dyn Fn(usize) + Sync), _>(f) };
        let job = Arc::new(Job {
            func,
            chunks,
            seats: AtomicUsize::new(seats),
            next: AtomicUsize::new(0),
            pending: AtomicUsize::new(chunks),
            panic: Mutex::new(None),
            done: Mutex::new(false),
            done_cv: Condvar::new(),
        });
        {
            let mut s = lock(&self.shared.slot);
            s.job = Some(Arc::clone(&job));
            s.generation += 1;
        }
        self.shared.work_cv.notify_all();
        // The dispatcher participates: on a single-core host (or before
        // workers wake) it simply runs every chunk itself.
        job.run_chunks();
        let mut done = lock(&job.done);
        while !*done {
            done = job.done_cv.wait(done).unwrap_or_else(|e| e.into_inner());
        }
        drop(done);
        {
            let mut s = lock(&self.shared.slot);
            s.job = None;
        }
        let payload = lock(&job.panic).take();
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
    }
}

/// Run `f(chunk)` for every `chunk in 0..chunks` across the persistent
/// worker pool, using at most `threads` concurrent executors (the calling
/// thread participates, so at most `threads - 1` workers take a seat, even
/// when an earlier, wider dispatch has grown the pool past that).
/// Returns after every chunk has completed; worker panics propagate.
///
/// With `threads <= 1` or `chunks <= 1` the chunks run inline and the
/// pool is not touched at all.
pub fn pool_execute<F: Fn(usize) + Sync>(threads: usize, chunks: usize, f: F) {
    if threads <= 1 || chunks <= 1 {
        for c in 0..chunks {
            f(c);
        }
        return;
    }
    pool().execute(threads, chunks, &f);
}

/// Number of worker threads to use for data-parallel node stepping.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
}

/// Total pool worker threads ever spawned by this process (monotonic).
/// Steady-state engine rounds must not move this counter — asserted by the
/// `engine_modes` integration tests.
pub fn threads_spawned() -> u64 {
    SPAWNED.load(Ordering::Relaxed)
}

/// Disjoint mutable sub-slices of one `&mut [T]`, claimable by chunk index
/// from multiple threads.
///
/// `bounds` (length `chunks + 1`, non-decreasing) gives chunk `i` the
/// range `bounds[i]..bounds[i + 1]`. Each chunk can be taken exactly once
/// — enforced by an atomic claim bitmask, which is what makes the aliasing
/// story sound: two `take` calls can never return overlapping slices, even
/// racing from different threads. At most [`MAX_CHUNKS`] chunks.
///
/// This is the safe façade the engine uses to hand each pool worker
/// its slice of the round's wire buffer and state array without building a
/// per-round table of `n` slices.
pub struct DisjointChunks<'a, T> {
    base: *mut T,
    len: usize,
    bounds: &'a [usize],
    taken: AtomicU64,
    _marker: std::marker::PhantomData<&'a mut [T]>,
}

// SAFETY: `DisjointChunks` hands out access to disjoint `&mut [T]` ranges
// only (enforced by the claim bitmask), so sharing the handle across
// threads is exactly as safe as sending each sub-slice individually,
// which requires `T: Send`.
#[allow(unsafe_code)]
unsafe impl<T: Send> Send for DisjointChunks<'_, T> {}
#[allow(unsafe_code)]
unsafe impl<T: Send> Sync for DisjointChunks<'_, T> {}

impl<'a, T> DisjointChunks<'a, T> {
    /// Wrap `slice` with chunk boundaries `bounds`. Panics if `bounds` is
    /// not a non-decreasing sequence ending within the slice, or if it
    /// describes more than [`MAX_CHUNKS`] chunks.
    pub fn new(slice: &'a mut [T], bounds: &'a [usize]) -> Self {
        assert!(
            bounds.len() >= 2 && bounds.len() <= MAX_CHUNKS + 1,
            "need 1..={MAX_CHUNKS} chunks"
        );
        assert!(
            bounds.windows(2).all(|w| w[0] <= w[1]),
            "bounds must be non-decreasing"
        );
        assert_eq!(bounds[0], 0, "bounds must start at 0");
        assert!(
            *bounds.last().expect("non-empty") <= slice.len(),
            "bounds exceed slice"
        );
        DisjointChunks {
            base: slice.as_mut_ptr(),
            len: slice.len(),
            bounds,
            taken: AtomicU64::new(0),
            _marker: std::marker::PhantomData,
        }
    }

    /// Number of chunks.
    pub fn chunks(&self) -> usize {
        self.bounds.len() - 1
    }

    /// Claim chunk `i` and return its sub-slice. Panics if `i` is out of
    /// range or the chunk was already taken.
    pub fn take(&self, i: usize) -> &'a mut [T] {
        assert!(i < self.chunks(), "chunk {i} out of range");
        let bit = 1u64 << i;
        let prev = self.taken.fetch_or(bit, Ordering::AcqRel);
        assert_eq!(prev & bit, 0, "chunk {i} taken twice");
        let (lo, hi) = (self.bounds[i], self.bounds[i + 1]);
        debug_assert!(lo <= hi && hi <= self.len);
        // SAFETY: `lo..hi` is in bounds of the original slice (checked in
        // `new`), the borrow lives for `'a` (held by `_marker`), and the
        // claim bitmask guarantees this range is handed out exactly once,
        // so no other `&mut` to it exists.
        #[allow(unsafe_code)]
        unsafe {
            std::slice::from_raw_parts_mut(self.base.add(lo), hi - lo)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64 as TestCounter;

    #[test]
    fn pool_runs_every_chunk_once() {
        let hits = TestCounter::new(0);
        let sum = TestCounter::new(0);
        pool_execute(4, 16, |c| {
            hits.fetch_add(1, Ordering::Relaxed);
            sum.fetch_add(c as u64, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 16);
        assert_eq!(sum.load(Ordering::Relaxed), (0..16).sum::<u64>());
    }

    #[test]
    fn pool_reuses_workers_across_dispatches() {
        pool_execute(4, 8, |_| {});
        let before = threads_spawned();
        for _ in 0..50 {
            pool_execute(4, 8, |_| {});
        }
        assert_eq!(threads_spawned(), before, "no spawns after warm-up");
    }

    #[test]
    fn single_thread_or_chunk_runs_inline() {
        let before = threads_spawned();
        let hits = TestCounter::new(0);
        pool_execute(1, 100, |_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        pool_execute(8, 1, |_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        pool_execute(8, 0, |_| unreachable!("no chunks"));
        assert_eq!(hits.load(Ordering::Relaxed), 101);
        assert_eq!(threads_spawned(), before);
    }

    #[test]
    fn nested_dispatch_runs_inline_without_deadlock() {
        // A chunk that itself calls pool_execute (the fleet runner's jobs
        // contain engine rounds that may go parallel) must not deadlock on
        // the dispatch lock; the inner job's chunks run inline.
        let hits = TestCounter::new(0);
        pool_execute(4, 4, |_| {
            pool_execute(4, 4, |_| {
                hits.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(hits.load(Ordering::Relaxed), 16);
        // The pool stays usable for top-level dispatches afterwards.
        let after = TestCounter::new(0);
        pool_execute(4, 8, |_| {
            after.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(after.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn thread_cap_holds_after_the_pool_has_grown() {
        let nap = || std::thread::sleep(std::time::Duration::from_millis(1));
        // Grow the pool to 7 workers (other tests may hold the dispatch
        // lock, in which case a dispatch runs inline and spawns nothing).
        for _ in 0..100 {
            if threads_spawned() >= 7 {
                break;
            }
            pool_execute(8, 8, |_| nap());
        }
        let (live, peak) = (AtomicUsize::new(0), AtomicUsize::new(0));
        pool_execute(2, 64, |_| {
            let now = live.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            nap();
            live.fetch_sub(1, Ordering::SeqCst);
        });
        let peak = peak.into_inner();
        assert!(peak <= 2, "{peak} concurrent executors at threads = 2");
    }

    #[test]
    fn pool_propagates_panics() {
        let caught = std::panic::catch_unwind(|| {
            pool_execute(4, 8, |c| {
                if c == 3 {
                    panic!("chunk 3 exploded");
                }
            });
        });
        let payload = caught.expect_err("must propagate");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or("");
        assert!(msg.contains("chunk 3 exploded"), "got: {msg}");
        // The pool must remain usable after a panicked job.
        let hits = TestCounter::new(0);
        pool_execute(4, 8, |_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn disjoint_chunks_write_disjoint_ranges() {
        let mut data = vec![0u32; 100];
        let bounds = [0usize, 30, 30, 64, 100];
        let chunks = DisjointChunks::new(&mut data, &bounds);
        assert_eq!(chunks.chunks(), 4);
        pool_execute(4, 4, |c| {
            for (off, slot) in chunks.take(c).iter_mut().enumerate() {
                *slot = (bounds[c] + off) as u32;
            }
        });
        assert!(data.iter().enumerate().all(|(i, &x)| x == i as u32));
    }

    #[test]
    #[should_panic(expected = "taken twice")]
    fn disjoint_chunks_reject_double_take() {
        let mut data = vec![0u8; 8];
        let bounds = [0usize, 4, 8];
        let chunks = DisjointChunks::new(&mut data, &bounds);
        let _a = chunks.take(1);
        let _b = chunks.take(1);
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn disjoint_chunks_reject_bad_bounds() {
        let mut data = vec![0u8; 8];
        let bounds = [0usize, 6, 4, 8];
        let _ = DisjointChunks::new(&mut data, &bounds);
    }
}
