//! A dependency-free thread pool for the solver's embarrassingly
//! parallel loops.
//!
//! The saturation refuter and the automata batch evaluators fan the
//! same pure function out over a slice of independent work items
//! (clauses, pooled term ids). This crate gives them that fan-out on
//! plain `std` threads — no external dependency, matching the
//! workspace's offline-vendored build — with three properties the
//! solver's certified answers demand:
//!
//! 1. **Determinism by construction.** Work distribution uses a shared
//!    atomic cursor (a chunked work queue: whichever worker is free
//!    claims the next item), so the *schedule* is nondeterministic —
//!    but results are keyed by item index and handed back in input
//!    order. As long as the per-item function is pure, the returned
//!    `Vec` is byte-identical at any thread count.
//!
//! 2. **Inline 1-thread fallback.** With `threads <= 1` (or a single
//!    work item) no thread is ever spawned: the items run inline, in
//!    order, on the caller's stack. Single-threaded semantics are
//!    therefore byte-identical to a plain sequential loop — there is no
//!    "parallel runtime" between the caller and its closure.
//!
//! 3. **Panic propagation, never deadlock.** A panicking worker does
//!    not wedge the pool: remaining workers drain the queue, the call
//!    waits for every helper it engaged, and the first panic payload
//!    is re-raised on the caller's thread via
//!    [`std::panic::resume_unwind`].
//!
//! # The snapshot / delta / merge recipe
//!
//! Callers that *mutate* shared state (the saturation fact base) follow
//! the discipline the `ringen-core` saturation engine established:
//!
//! * **snapshot** — workers receive the shared structure frozen by
//!   `&`-borrow; nothing is written during the parallel phase;
//! * **delta** — each work item accumulates its writes in a private
//!   scratch structure (new facts interned into a thread-local
//!   [`ScratchPool`](../ringen_terms/pool/struct.ScratchPool.html));
//! * **merge** — after the barrier, the caller folds the deltas into
//!   the master structure *in item order*, which is a pure function of
//!   the per-item results and hence independent of how items were
//!   scheduled onto threads.
//!
//! Together with property 1 this makes the parallel engines bit-for-bit
//! equal to their sequential counterparts — a claim the differential
//! property tests in `ringen-core` enforce at 1, 2, 4 and 8 threads.
//!
//! # Configuration
//!
//! A [`Pool`] is a width: how many threads one call may use. Engines
//! take theirs from the solve's [`Guard`] ([`Guard::threads`]), which
//! reads `RINGEN_THREADS` (or the CPU count) once per process;
//! `RINGEN_THREADS=1` forces the inline path everywhere, which is the
//! switch CI uses to pin the parallel engines to their sequential
//! semantics. [`ParallelConfig`] names a width for callers without a
//! guard (the service's batch pool, benchmarks).
//!
//! # One executor per process
//!
//! Every `Pool` runs its calls on one process-wide executor: a lazily
//! grown cache of parked threads. A call of width *k* over *n > 1*
//! items hands the job to *min(k, n) − 1* parked threads, drains items
//! on the calling thread too, and returns once exactly those helpers
//! have checked out. A thread is spawned only when no parked one is free
//! ([`threads_spawned`] counts them), so a steady stream of calls
//! spawns nothing. Concurrent calls engage disjoint helpers and nested
//! calls (an item that calls `map_items` again) engage further ones:
//! neither serializes nor deadlocks. A helper whose call is done parks
//! again unless [`max_parked_threads`] (8 per CPU) are already parked,
//! in which case it exits; [`threads_parked`] reports the cache size.
//!
//! # Cancellation and panic isolation
//!
//! [`Pool::try_map_items`]/[`Pool::try_map_chunks`] accept a
//! [`Guard`] (re-exported from `ringen-guard`) and return
//! `Err(JobError::Cancelled)` as soon as the token trips — remaining
//! items are skipped and partial work is discarded. A panicking
//! closure is caught *per item* ([`std::panic::catch_unwind`]) and
//! surfaced as `Err(JobError::Panicked(msg))` instead of unwinding
//! through the executor. The untyped [`Pool::map_items`] re-raises the
//! first panic on the caller once every helper has checked out, so the
//! parked threads are never poisoned by one bad job.

use std::cell::UnsafeCell;
use std::fmt;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::Thread;

pub use ringen_guard::{
    deadline_ms_from_env, FaultPlan, FaultStats, Faults, Guard, Poller, Recorder, RecorderLimits,
    SharedRecorder, Span, SpanHandle, DEFAULT_POLL_PERIOD,
};

/// Worker-count policy for a [`Pool`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParallelConfig {
    /// Number of worker threads; `0` means "ask the OS"
    /// ([`std::thread::available_parallelism`]). `1` disables spawning
    /// entirely (the inline path).
    pub threads: usize,
}

impl ParallelConfig {
    /// The width `RINGEN_THREADS` selects, as every [`Guard`] reads it
    /// (once per process; unset, empty, unparsable, or `0` mean one
    /// worker per CPU). This is also [`ParallelConfig::default`].
    pub fn from_env() -> Self {
        ParallelConfig::with_threads(Guard::new().threads())
    }

    /// Exactly `n` workers (`0` = auto-detect).
    pub fn with_threads(n: usize) -> Self {
        ParallelConfig { threads: n }
    }

    /// The inline single-threaded configuration.
    pub fn sequential() -> Self {
        ParallelConfig { threads: 1 }
    }

    /// The concrete worker count this configuration resolves to.
    pub fn effective_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
    }
}

impl Default for ParallelConfig {
    fn default() -> Self {
        ParallelConfig::from_env()
    }
}

/// How a cancellable pool job ([`Pool::try_map_items`] /
/// [`Pool::try_map_chunks`]) ended early.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobError {
    /// The [`Guard`] tripped (explicit cancel, deadline, or ancestor
    /// cancellation); partial results were discarded.
    Cancelled,
    /// An item closure panicked; carries the first panic's message. The
    /// pool itself survives and serves subsequent calls.
    Panicked(String),
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobError::Cancelled => write!(f, "job cancelled"),
            JobError::Panicked(msg) => write!(f, "job panicked: {msg}"),
        }
    }
}

impl std::error::Error for JobError {}

/// Best-effort extraction of a panic payload's message (`panic!`
/// string literals and `format!`ed messages; anything else gets a
/// generic label).
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked".to_string()
    }
}

/// Items between guard consultations in the cancellable entry points:
/// one shared-counter tick per item, one real token check per period.
const JOB_POLL_PERIOD: usize = 16;

/// A fan-out width onto the process-wide executor (see the module
/// docs). Cloning is free; every clone and every `Pool` share the same
/// parked threads, and each `map_*` call blocks until the helpers it
/// engaged have finished it, so borrowed inputs need no `'static`
/// bound.
#[derive(Debug, Clone)]
pub struct Pool {
    threads: usize,
}

impl Pool {
    /// A pool of the configured (resolved) width. Spawns nothing: the
    /// executor's threads are engaged per call.
    pub fn persistent(cfg: &ParallelConfig) -> Self {
        Pool {
            threads: cfg.effective_threads().max(1),
        }
    }

    /// Resolved worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Whether calls run inline on the caller's thread.
    pub fn is_sequential(&self) -> bool {
        self.threads <= 1
    }

    /// Applies `f` to every item, returning results in item order.
    ///
    /// Items are claimed one at a time from a shared cursor, so uneven
    /// item costs balance across workers. If `f` is pure, the result is
    /// identical at any thread count; with `threads <= 1` (or fewer
    /// than two items) everything runs inline, in order, unspawned.
    ///
    /// # Panics
    ///
    /// Re-raises the first worker panic after every helper has checked
    /// out (the pool never deadlocks on a panicking task).
    pub fn map_items<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        if self.threads <= 1 || items.len() <= 1 {
            return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
        }
        let slots: Vec<Slot<R>> = (0..items.len())
            .map(|_| Slot(UnsafeCell::new(None)))
            .collect();
        run(self.threads.min(items.len()), items.len(), &|i| {
            let r = f(i, &items[i]);
            // SAFETY: index `i` is claimed by exactly one thread (the
            // shared cursor is fetch_add), so this write is exclusive;
            // reads happen only after every helper has checked out.
            unsafe { *slots[i].0.get() = Some(r) };
        });
        slots
            .into_iter()
            .map(|s| s.0.into_inner().expect("every item processed"))
            .collect()
    }

    /// Cancellable, panic-isolated [`Pool::map_items`].
    ///
    /// Workers consult `guard` every few items (amortized through a
    /// shared counter) and stop claiming work once it trips; the call
    /// then returns `Err(JobError::Cancelled)` with all partial results
    /// discarded. A panicking closure is caught per item and reported
    /// as `Err(JobError::Panicked(_))` — it never unwinds through the
    /// executor. On success the results come back in item order,
    /// bit-identical to [`Pool::map_items`] at any thread count.
    pub fn try_map_items<T, R, F>(
        &self,
        guard: &Guard,
        items: &[T],
        f: F,
    ) -> Result<Vec<R>, JobError>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        if guard.is_cancelled() {
            return Err(JobError::Cancelled);
        }
        let stop = AtomicBool::new(false);
        let first_panic: Mutex<Option<String>> = Mutex::new(None);
        let polls = AtomicUsize::new(0);
        let results = self.map_items(items, |i, t| {
            if stop.load(Ordering::Relaxed) {
                return None;
            }
            if polls
                .fetch_add(1, Ordering::Relaxed)
                .is_multiple_of(JOB_POLL_PERIOD)
                && guard.is_cancelled()
            {
                stop.store(true, Ordering::Relaxed);
                return None;
            }
            match catch_unwind(AssertUnwindSafe(|| f(i, t))) {
                Ok(r) => Some(r),
                Err(payload) => {
                    let mut slot = first_panic.lock().unwrap_or_else(PoisonError::into_inner);
                    if slot.is_none() {
                        *slot = Some(panic_message(payload.as_ref()));
                    }
                    stop.store(true, Ordering::Relaxed);
                    None
                }
            }
        });
        if let Some(msg) = first_panic
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
        {
            return Err(JobError::Panicked(msg));
        }
        if stop.into_inner() {
            return Err(JobError::Cancelled);
        }
        // `stop` was never set, so every slot is populated.
        Ok(results
            .into_iter()
            .map(|r| r.expect("uncancelled job completes every item"))
            .collect())
    }

    /// Cancellable, panic-isolated [`Pool::map_chunks`]: same chunking
    /// as the infallible version, same early-exit contract as
    /// [`Pool::try_map_items`].
    pub fn try_map_chunks<T, R, F>(
        &self,
        guard: &Guard,
        items: &[T],
        f: F,
    ) -> Result<Vec<R>, JobError>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &[T]) -> R + Sync,
    {
        if guard.is_cancelled() {
            return Err(JobError::Cancelled);
        }
        if items.is_empty() {
            return Ok(Vec::new());
        }
        let chunk = if self.threads <= 1 {
            items.len()
        } else {
            items.len().div_ceil(self.threads * 4).max(1)
        };
        let ranges: Vec<(usize, usize)> = (0..items.len())
            .step_by(chunk)
            .map(|s| (s, (s + chunk).min(items.len())))
            .collect();
        self.try_map_items(guard, &ranges, |_, &(a, b)| f(a, &items[a..b]))
    }

    /// Splits `items` into contiguous chunks and applies `f(start,
    /// chunk)` to each, returning per-chunk results in slice order.
    ///
    /// Chunk boundaries depend on the worker count (4 chunks per worker
    /// for load balance; one chunk inline), so `f` must be insensitive
    /// to how the slice is cut — per-item maps whose results are
    /// concatenated qualify; cross-item state does not. For exact
    /// item-order guarantees use [`Pool::map_items`].
    pub fn map_chunks<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &[T]) -> R + Sync,
    {
        if items.is_empty() {
            return Vec::new();
        }
        if self.threads <= 1 {
            return vec![f(0, items)];
        }
        let chunk = items.len().div_ceil(self.threads * 4).max(1);
        let ranges: Vec<(usize, usize)> = (0..items.len())
            .step_by(chunk)
            .map(|s| (s, (s + chunk).min(items.len())))
            .collect();
        self.map_items(&ranges, |_, &(a, b)| f(a, &items[a..b]))
    }

    /// [`Pool::map_chunks`] for side-effect-free per-chunk work whose
    /// results are not needed.
    pub fn for_each_chunk<T, F>(&self, items: &[T], f: F)
    where
        T: Sync,
        F: Fn(usize, &[T]) + Sync,
    {
        self.map_chunks(items, |start, chunk| f(start, chunk));
    }

    /// Maps every item and folds the results in item order. `fold` must
    /// be associative for the result to be independent of the worker
    /// count (chunk-local folds happen first, then the chunk results
    /// fold left-to-right). Returns `None` on an empty slice.
    pub fn map_reduce<T, A, M, F>(&self, items: &[T], map: M, fold: F) -> Option<A>
    where
        T: Sync,
        A: Send,
        M: Fn(&T) -> A + Sync,
        F: Fn(A, A) -> A + Sync,
    {
        self.map_chunks(items, |_, chunk| {
            chunk
                .iter()
                .map(&map)
                .reduce(&fold)
                .expect("chunks are nonempty")
        })
        .into_iter()
        .reduce(fold)
    }
}

// ---------------------------------------------------------------------
// The process-wide executor
// ---------------------------------------------------------------------

/// Parked threads per CPU that [`max_parked_threads`] allows.
const PARKED_PER_CPU: usize = 8;

/// How many idle threads the executor keeps parked: 8 per CPU
/// ([`std::thread::available_parallelism`]). A helper that finishes a
/// call while this many are parked exits instead of parking.
pub fn max_parked_threads() -> usize {
    static CAP: OnceLock<usize> = OnceLock::new();
    *CAP.get_or_init(|| {
        PARKED_PER_CPU * std::thread::available_parallelism().map_or(1, |n| n.get())
    })
}

/// Threads the executor has spawned since the process started.
pub fn threads_spawned() -> u64 {
    SPAWNED.load(Ordering::Relaxed)
}

/// Threads currently parked in the executor, waiting for a call.
pub fn threads_parked() -> usize {
    lock(&IDLE).len()
}

static SPAWNED: AtomicU64 = AtomicU64::new(0);

/// The parked threads' mailboxes, most recently parked last.
static IDLE: Mutex<Vec<Arc<Mailbox>>> = Mutex::new(Vec::new());

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One parked thread's inbox: it sleeps on `ready` until a caller
/// posts a job.
struct Mailbox {
    job: Mutex<Option<Job>>,
    ready: Condvar,
}

/// A call handed to a helper thread.
///
/// Soundness: `call` points at a [`Call`] on the stack frame of
/// [`run`], which does not return until `latch` reads zero. A helper
/// stops touching `call` before it counts itself out of the latch, and
/// the latch itself is shared by `Arc`, so no thread dereferences the
/// frame after it is gone.
struct Job {
    call: *const Call<'static>,
    latch: Arc<Latch>,
}

// SAFETY: `call` is only dereferenced between the post and the helper's
// check-out, while the caller's frame is pinned in `run` (see [`Job`]),
// and `Call` is `Sync`; `latch` is an `Arc` of atomics and a `Thread`,
// both `Send + Sync`.
unsafe impl Send for Job {}

/// Counts a call's engaged helpers out; the last one wakes the caller.
struct Latch {
    pending: AtomicUsize,
    caller: Thread,
}

impl Latch {
    /// The `Release` decrement pairs with the caller's `Acquire` load in
    /// [`run`]: everything the helper wrote for the call (result slots,
    /// a panic payload) is visible to the caller once it reads zero.
    fn check_out(&self) {
        if self.pending.fetch_sub(1, Ordering::Release) == 1 {
            self.caller.unpark();
        }
    }
}

/// The borrowed context of one call, shared by the caller and its
/// helpers.
struct Call<'a> {
    cursor: AtomicUsize,
    len: usize,
    /// First panic payload, re-raised on the caller after the helpers
    /// have checked out.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
    f: &'a (dyn Fn(usize) + Sync),
}

impl Call<'_> {
    /// Claims items off the cursor until it runs dry. A panicking
    /// thread stops claiming while the others keep draining; the first
    /// payload wins.
    fn drain(&self) {
        loop {
            let i = self.cursor.fetch_add(1, Ordering::Relaxed);
            if i >= self.len {
                break;
            }
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| (self.f)(i))) {
                lock(&self.panic).get_or_insert(payload);
                break;
            }
        }
    }
}

/// Runs `f(0..len)` on the calling thread plus `width - 1` helpers and
/// returns once every helper has checked out; re-raises the first
/// panic.
fn run(width: usize, len: usize, f: &(dyn Fn(usize) + Sync)) {
    let call = Call {
        cursor: AtomicUsize::new(0),
        len,
        panic: Mutex::new(None),
        f,
    };
    let helpers = width - 1;
    let latch = Arc::new(Latch {
        pending: AtomicUsize::new(helpers),
        caller: std::thread::current(),
    });
    // SAFETY (lifetime erasure): see [`Job`] — this frame outlives
    // every helper's use of the pointer.
    let ptr: *const Call<'static> = (&call as *const Call<'_>).cast();
    for _ in 0..helpers {
        let job = Job {
            call: ptr,
            latch: Arc::clone(&latch),
        };
        if !engage(job) {
            // No thread could be had: the caller drains its share.
            latch.pending.fetch_sub(1, Ordering::Relaxed);
        }
    }
    call.drain();
    while latch.pending.load(Ordering::Acquire) != 0 {
        std::thread::park();
    }
    if let Some(payload) = call
        .panic
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
    {
        resume_unwind(payload);
    }
}

/// Hands `job` to a parked thread, or to a new one when none is
/// parked. `false` if the OS refused the thread.
fn engage(job: Job) -> bool {
    let parked = lock(&IDLE).pop();
    if let Some(mailbox) = parked {
        *lock(&mailbox.job) = Some(job);
        mailbox.ready.notify_one();
        return true;
    }
    let mailbox = Arc::new(Mailbox {
        job: Mutex::new(Some(job)),
        ready: Condvar::new(),
    });
    // Detached on purpose: helpers live as long as the process (or
    // until the parked cache is full), and a helper never panics, since
    // `Call::drain` catches every item's panic for the caller.
    let spawned = std::thread::Builder::new()
        .name("ringen-worker".into())
        .spawn(move || helper(&mailbox));
    if spawned.is_ok() {
        SPAWNED.fetch_add(1, Ordering::Relaxed);
    }
    spawned.is_ok()
}

/// A helper thread: run the posted call, park again (or exit when the
/// cache is full), then check out — parking first, so the caller's
/// next call finds this thread idle instead of spawning another.
fn helper(mailbox: &Arc<Mailbox>) {
    loop {
        let job = {
            let mut slot = lock(&mailbox.job);
            loop {
                match slot.take() {
                    Some(job) => break job,
                    None => {
                        slot = mailbox
                            .ready
                            .wait(slot)
                            .unwrap_or_else(PoisonError::into_inner)
                    }
                }
            }
        };
        // SAFETY: the caller blocks in `run` until this helper's
        // check-out below, so the pointee outlives this use.
        unsafe { (*job.call).drain() };
        let parked = {
            let mut idle = lock(&IDLE);
            let room = idle.len() < max_parked_threads();
            if room {
                idle.push(Arc::clone(mailbox));
            }
            room
        };
        job.latch.check_out();
        if !parked {
            return;
        }
    }
}

/// One result cell, written by exactly one worker (cursor-claimed).
struct Slot<R>(UnsafeCell<Option<R>>);

// SAFETY: concurrent access is index-disjoint by the cursor protocol.
unsafe impl<R: Send> Sync for Slot<R> {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::AtomicU64;

    fn pool(n: usize) -> Pool {
        Pool::persistent(&ParallelConfig::with_threads(n))
    }

    fn pools() -> Vec<Pool> {
        [1usize, 2, 4, 8].into_iter().map(pool).collect()
    }

    #[test]
    fn map_items_preserves_order_at_any_thread_count() {
        let items: Vec<u64> = (0..257).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
        for pool in pools() {
            let got = pool.map_items(&items, |i, &x| {
                assert_eq!(items[i], x);
                x * x + 1
            });
            assert_eq!(got, expect, "threads = {}", pool.threads());
        }
    }

    #[test]
    fn map_items_handles_empty_and_singleton() {
        let pool = pool(4);
        let empty: Vec<u32> = Vec::new();
        assert!(pool.map_items(&empty, |_, &x| x).is_empty());
        assert_eq!(pool.map_items(&[7u32], |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn map_chunks_concatenation_is_chunking_insensitive() {
        let items: Vec<u32> = (0..1000).collect();
        let expect: Vec<u32> = items.iter().map(|x| x + 3).collect();
        for pool in pools() {
            let got: Vec<u32> = pool
                .map_chunks(&items, |_, chunk| {
                    chunk.iter().map(|x| x + 3).collect::<Vec<_>>()
                })
                .concat();
            assert_eq!(got, expect, "threads = {}", pool.threads());
        }
    }

    #[test]
    fn for_each_chunk_visits_every_item_once() {
        let items: Vec<u64> = (1..=500).collect();
        for pool in pools() {
            let sum = AtomicU64::new(0);
            pool.for_each_chunk(&items, |_, chunk| {
                sum.fetch_add(chunk.iter().sum::<u64>(), Ordering::Relaxed);
            });
            assert_eq!(sum.into_inner(), 500 * 501 / 2);
        }
    }

    #[test]
    fn map_reduce_folds_in_item_order() {
        // String concatenation is associative but not commutative: any
        // scheduling bug that reorders chunks changes the result.
        let items: Vec<String> = (0..64).map(|i| format!("{i};")).collect();
        let expect = items.concat();
        for pool in pools() {
            let got = pool
                .map_reduce(&items, |s| s.clone(), |a, b| a + &b)
                .expect("nonempty");
            assert_eq!(got, expect, "threads = {}", pool.threads());
        }
        let empty: Vec<String> = Vec::new();
        assert!(pool(1)
            .map_reduce(&empty, |s| s.clone(), |a, b| a + &b)
            .is_none());
    }

    #[test]
    fn panicking_worker_propagates_instead_of_deadlocking() {
        let items: Vec<u32> = (0..64).collect();
        for pool in pools() {
            let result = catch_unwind(AssertUnwindSafe(|| {
                pool.map_items(&items, |_, &x| {
                    if x == 13 {
                        panic!("boom at {x}");
                    }
                    x
                })
            }));
            let payload = result.expect_err("panic must propagate");
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default();
            assert!(msg.contains("boom at 13"), "got {msg:?}");
        }
    }

    #[test]
    fn repeated_calls_reuse_parked_threads() {
        let items: Vec<u64> = (0..513).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * 3 + 7).collect();
        for n in [1usize, 2, 4, 8] {
            let pool = pool(n);
            for _ in 0..3 {
                let got = pool.map_items(&items, |_, &x| x * 3 + 7);
                assert_eq!(got, expect, "threads = {n}");
            }
            // Chunked entry points ride the same executor.
            let got: Vec<u64> = pool
                .map_chunks(&items, |_, chunk| {
                    chunk.iter().map(|x| x * 3 + 7).collect::<Vec<_>>()
                })
                .concat();
            assert_eq!(got, expect, "threads = {n}");
        }
        assert!(threads_parked() <= max_parked_threads());
    }

    #[test]
    fn persistent_pool_propagates_panics_and_stays_usable() {
        let items: Vec<u32> = (0..64).collect();
        let pool = pool(4);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.map_items(&items, |_, &x| {
                if x == 21 {
                    panic!("boom at {x}");
                }
                x
            })
        }));
        let payload = result.expect_err("panic must propagate");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("boom at 21"), "got {msg:?}");
        // The executor survived the panic and serves the next call.
        let got = pool.map_items(&items, |_, &x| x + 1);
        assert_eq!(got, items.iter().map(|x| x + 1).collect::<Vec<_>>());
    }

    #[test]
    fn clones_run_on_the_shared_executor() {
        let items: Vec<u32> = (0..100).collect();
        let pool = pool(3);
        let clone = pool.clone();
        assert_eq!(
            clone.map_items(&items, |_, &x| x ^ 1),
            items.iter().map(|x| x ^ 1).collect::<Vec<_>>()
        );
        assert_eq!(
            pool.map_items(&items, |_, &x| x + 2),
            items.iter().map(|x| x + 2).collect::<Vec<_>>()
        );
    }

    #[test]
    fn concurrent_and_nested_calls_neither_serialize_nor_deadlock() {
        // Four caller threads at once, each item of each call calling
        // `map_items` again: helpers are engaged per call, so nested
        // calls find (or spawn) further threads instead of waiting on
        // their own caller's.
        let items: Vec<u64> = (0..6).collect();
        let inner: Vec<u64> = (0..3).collect();
        for n in [1usize, 2, 4, 8] {
            let pool = pool(n);
            std::thread::scope(|scope| {
                for c in 0u64..4 {
                    let pool = pool.clone();
                    let (items, inner) = (&items, &inner);
                    scope.spawn(move || {
                        for round in 0u64..5 {
                            let got = pool.map_items(items, |_, &x| {
                                pool.map_items(inner, |_, &y| x * y + c + round)
                                    .into_iter()
                                    .sum::<u64>()
                            });
                            let expect: Vec<u64> = items
                                .iter()
                                .map(|&x| inner.iter().map(|&y| x * y + c + round).sum())
                                .collect();
                            assert_eq!(got, expect, "threads {n} caller {c} round {round}");
                        }
                    });
                }
            });
        }
        assert!(threads_parked() <= max_parked_threads());
    }

    #[test]
    fn a_width_one_pool_spawns_no_thread() {
        // Other tests run concurrently in this process, so the claim is
        // checked on the call itself: every item runs on the caller.
        let caller = std::thread::current().id();
        let on_caller = pool(1).map_items(&[0u8; 64], |_, _| std::thread::current().id() == caller);
        assert!(on_caller.into_iter().all(|b| b));
    }

    #[test]
    fn try_map_items_matches_map_items_when_uncancelled() {
        let items: Vec<u64> = (0..257).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * 2 + 5).collect();
        let guard = Guard::new();
        for pool in pools() {
            let got = pool
                .try_map_items(&guard, &items, |_, &x| x * 2 + 5)
                .expect("no cancellation, no panic");
            assert_eq!(got, expect, "threads = {}", pool.threads());
        }
    }

    #[test]
    fn try_map_items_rejects_an_already_tripped_guard() {
        let guard = Guard::new();
        guard.cancel();
        let calls = AtomicU64::new(0);
        let got = pool(1).try_map_items(&guard, &[1u32, 2, 3], |_, &x| {
            calls.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(got, Err(JobError::Cancelled));
        assert_eq!(calls.into_inner(), 0, "closure must never run");
    }

    #[test]
    fn try_map_items_stops_early_on_mid_job_cancel() {
        let items: Vec<u32> = (0..10_000).collect();
        for pool in pools() {
            let guard = Guard::new();
            let calls = AtomicU64::new(0);
            let got = pool.try_map_items(&guard, &items, |i, &x| {
                calls.fetch_add(1, Ordering::Relaxed);
                if i == 40 {
                    guard.cancel();
                }
                x
            });
            assert_eq!(
                got,
                Err(JobError::Cancelled),
                "threads = {}",
                pool.threads()
            );
            // The whole slice must not have been processed: the guard
            // is consulted at least every JOB_POLL_PERIOD items per
            // worker, so work stops well before the end.
            assert!(
                calls.into_inner() < items.len() as u64,
                "threads = {}",
                pool.threads()
            );
        }
    }

    #[test]
    fn try_map_items_surfaces_panics_as_typed_errors() {
        let items: Vec<u32> = (0..64).collect();
        for pool in pools() {
            match pool.try_map_items(&Guard::new(), &items, |_, &x| {
                if x == 13 {
                    panic!("boom at {x}");
                }
                x
            }) {
                Err(JobError::Panicked(msg)) => {
                    assert!(msg.contains("boom at 13"), "got {msg:?}")
                }
                other => panic!("expected Panicked, got {other:?}"),
            }
        }
    }

    #[test]
    fn try_map_chunks_cancels_and_completes_like_map_chunks() {
        let items: Vec<u32> = (0..1000).collect();
        let expect: Vec<u32> = items.iter().map(|x| x + 3).collect();
        for pool in pools() {
            let got: Vec<u32> = pool
                .try_map_chunks(&Guard::new(), &items, |_, chunk| {
                    chunk.iter().map(|x| x + 3).collect::<Vec<_>>()
                })
                .expect("uncancelled")
                .concat();
            assert_eq!(got, expect, "threads = {}", pool.threads());
            let tripped = Guard::new();
            tripped.cancel();
            assert_eq!(
                pool.try_map_chunks(&tripped, &items, |_, chunk| chunk.len()),
                Err(JobError::Cancelled)
            );
        }
        let empty: Vec<u32> = Vec::new();
        assert_eq!(
            pool(1).try_map_chunks(&Guard::new(), &empty, |_, c| c.len()),
            Ok(Vec::new())
        );
    }

    #[test]
    fn deadline_guard_cancels_a_running_job() {
        let items: Vec<u32> = (0..100_000).collect();
        let pool = pool(2);
        let guard = Guard::with_deadline(std::time::Duration::from_millis(5));
        let got = pool.try_map_items(&guard, &items, |_, &x| {
            std::thread::sleep(std::time::Duration::from_micros(50));
            x
        });
        assert_eq!(got, Err(JobError::Cancelled));
        // The pool survives a deadline-cancelled call.
        assert_eq!(
            pool.try_map_items(&Guard::new(), &[1u32, 2], |_, &x| x),
            Ok(vec![1, 2])
        );
    }

    #[test]
    fn persistent_pool_survives_repeated_panics_across_call_styles() {
        // Reuse-after-panic, deeper than one round-trip: raw panicking
        // map_items calls interleaved with typed try_map_items failures
        // and chunked calls, all on the same executor.
        let items: Vec<u32> = (0..128).collect();
        let pool = pool(4);
        for round in 0..3 {
            // (a) untyped path: panic propagates to the caller...
            let result = catch_unwind(AssertUnwindSafe(|| {
                pool.map_items(&items, |_, &x| {
                    if x % 32 == 7 {
                        panic!("round {round} boom at {x}");
                    }
                    x
                })
            }));
            assert!(result.is_err(), "round {round}: panic must propagate");
            // (b) ...typed path: panic becomes a JobError...
            match pool.try_map_items(&Guard::new(), &items, |_, &x| {
                if x == 99 {
                    panic!("typed boom {round}");
                }
                x
            }) {
                Err(JobError::Panicked(msg)) => {
                    assert!(msg.contains("typed boom"), "round {round}: got {msg:?}")
                }
                other => panic!("round {round}: expected Panicked, got {other:?}"),
            }
            // (c) ...and the very next calls on the same executor are
            // clean, for both entry points.
            assert_eq!(
                pool.map_items(&items, |_, &x| x + round),
                items.iter().map(|x| x + round).collect::<Vec<_>>()
            );
            let chunked: Vec<u32> = pool
                .map_chunks(&items, |_, chunk| {
                    chunk.iter().map(|x| x * 2).collect::<Vec<_>>()
                })
                .concat();
            assert_eq!(chunked, items.iter().map(|x| x * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn persistent_pool_survives_panics_from_concurrent_clones() {
        // A panic in one caller's job must not wedge or corrupt its
        // siblings' concurrent calls.
        let pool = pool(3);
        let items: Vec<u64> = (0..100).collect();
        std::thread::scope(|scope| {
            for c in 0u64..4 {
                let pool = pool.clone();
                let items = &items;
                scope.spawn(move || {
                    for round in 0u64..10 {
                        if (c + round) % 3 == 0 {
                            let got = pool.try_map_items(&Guard::new(), items, |_, &x| {
                                if x == 50 {
                                    panic!("caller {c} round {round}");
                                }
                                x
                            });
                            assert!(
                                matches!(got, Err(JobError::Panicked(_))),
                                "caller {c} round {round}: {got:?}"
                            );
                        } else {
                            let got = pool.map_items(items, |_, &x| x * c + round);
                            let expect: Vec<u64> = items.iter().map(|x| x * c + round).collect();
                            assert_eq!(got, expect, "caller {c} round {round}");
                        }
                    }
                });
            }
        });
        // And the pool still serves a clean call afterwards.
        assert_eq!(
            pool.map_items(&items, |_, &x| x + 1),
            items.iter().map(|x| x + 1).collect::<Vec<_>>()
        );
    }

    #[test]
    fn env_config_parses_and_falls_back() {
        assert_eq!(ParallelConfig::sequential().effective_threads(), 1);
        assert_eq!(ParallelConfig::with_threads(5).effective_threads(), 5);
        // Auto-detect resolves to at least one worker.
        assert!(ParallelConfig::with_threads(0).effective_threads() >= 1);
        assert!(pool(0).threads() >= 1);
        assert!(pool(1).is_sequential());
    }
}
