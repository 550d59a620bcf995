//! Cooperative cancellation tokens for the `ringen` solver stack.
//!
//! Every engine in the workspace can diverge on an adversarial input, so
//! every long-running fixpoint accepts a [`Guard`]: a cheap,
//! `Arc<AtomicBool>`-backed cancellation token with optional wall-clock
//! deadline, deterministic fuel (for tests), and child derivation (a
//! portfolio racer hands each engine a child and cancels the losers).
//!
//! Polling discipline: `Guard::is_cancelled` is a relaxed atomic load plus,
//! when armed, an `Instant::now()` deadline comparison. Hot inner loops
//! should not even pay that — they wrap the guard in a [`Poller`], which
//! consults the token only every `period` iterations.
//!
//! The deadline knob used by binaries is the `RINGEN_DEADLINE_MS`
//! environment variable (see `ENVIRONMENT.md` at the workspace root);
//! [`Guard::from_env`] constructs the matching token.
//!
//! A guard also carries the solve's [`Recorder`] (`ringen-obs`): the
//! engines all take a `&Guard` already, so riding the token is how
//! observability reaches every fixpoint without another threaded
//! parameter. Children inherit the parent's recorder; the default is
//! the disabled recorder — or a live one when `RINGEN_TRACE` is set,
//! so the whole test suite can run instrumented.
//!
//! The guard carries the solve's worker count the same way: every
//! parallel loop under a guard fans out [`Guard::threads`] wide.
//! [`Guard::new`] and its siblings take the count from `RINGEN_THREADS`
//! (or the number of CPUs), read once per process; children inherit
//! it, and tests pin it with [`Guard::with_threads`].

use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

pub mod faults;

pub use faults::{FaultKind, FaultPlan, FaultSpec, FaultStats, Faults};
pub use ringen_obs::{ProbeHook, Recorder, RecorderLimits, SharedRecorder, Span, SpanHandle};

#[derive(Debug)]
struct Inner {
    cancelled: AtomicBool,
    deadline: Option<Instant>,
    /// Deterministic cancellation for tests: when >= 0, each
    /// `is_cancelled` call burns one unit and the guard trips once the
    /// tank is empty. Negative means "no fuel limit".
    fuel: AtomicI64,
    parent: Option<Arc<Inner>>,
}

impl Inner {
    fn is_cancelled(&self) -> bool {
        if self.cancelled.load(Ordering::Relaxed) {
            return true;
        }
        if self.fuel.load(Ordering::Relaxed) >= 0 && self.fuel.fetch_sub(1, Ordering::Relaxed) <= 0
        {
            self.cancelled.store(true, Ordering::Relaxed);
            return true;
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                self.cancelled.store(true, Ordering::Relaxed);
                return true;
            }
        }
        if let Some(parent) = &self.parent {
            if parent.is_cancelled() {
                self.cancelled.store(true, Ordering::Relaxed);
                return true;
            }
        }
        false
    }
}

/// A clonable cooperative cancellation token.
///
/// Clones share the same underlying flag; [`Guard::child`] derives a new
/// token that trips when either it or any ancestor is cancelled.
#[derive(Debug, Clone)]
pub struct Guard {
    inner: Arc<Inner>,
    recorder: Recorder,
    /// Worker count for the parallel loops under this guard (>= 1).
    threads: usize,
}

impl Default for Guard {
    fn default() -> Self {
        Guard::new()
    }
}

impl Guard {
    fn from_parts(deadline: Option<Instant>, fuel: i64, parent: Option<Arc<Inner>>) -> Self {
        Guard {
            inner: Arc::new(Inner {
                cancelled: AtomicBool::new(false),
                deadline,
                fuel: AtomicI64::new(fuel),
                parent,
            }),
            recorder: Recorder::from_env(),
            threads: threads_from_env(),
        }
    }

    /// A token that only trips on an explicit [`Guard::cancel`].
    pub fn new() -> Self {
        Guard::from_parts(None, -1, None)
    }

    /// A token that trips `timeout` from now (or on explicit cancel).
    pub fn with_deadline(timeout: Duration) -> Self {
        Guard::deadline_at(Instant::now() + timeout)
    }

    /// A token that trips at `deadline` (or on explicit cancel).
    pub fn deadline_at(deadline: Instant) -> Self {
        Guard::from_parts(Some(deadline), -1, None)
    }

    /// A deterministic token for tests: trips after `polls` calls to
    /// [`Guard::is_cancelled`], independent of wall clock.
    pub fn with_fuel(polls: u64) -> Self {
        Guard::from_parts(None, i64::try_from(polls).unwrap_or(i64::MAX), None)
    }

    /// Reads `RINGEN_DEADLINE_MS`: a parseable positive value yields a
    /// deadline token, anything else a plain one.
    pub fn from_env() -> Self {
        match deadline_ms_from_env() {
            Some(ms) => Guard::with_deadline(Duration::from_millis(ms)),
            None => Guard::new(),
        }
    }

    /// Derives a child token: cancelled when this token is, but
    /// cancelling the child leaves the parent (and siblings) running.
    /// The child records into the parent's recorder and inherits its
    /// worker count.
    pub fn child(&self) -> Self {
        self.child_at(None)
    }

    /// A child token with its own, tighter deadline.
    pub fn child_with_deadline(&self, timeout: Duration) -> Self {
        self.child_at(Some(Instant::now() + timeout))
    }

    fn child_at(&self, deadline: Option<Instant>) -> Self {
        Guard {
            recorder: self.recorder.clone(),
            threads: self.threads,
            ..Guard::from_parts(deadline, -1, Some(self.inner.clone()))
        }
    }

    /// This token recording into `recorder` instead: same cancellation
    /// state (the flag is shared through the `Arc`), new observer.
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// This token with its parallel loops fanned out `threads` wide:
    /// same cancellation state and recorder. `0` means one worker per
    /// CPU; `1` runs every loop inline on the calling thread.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = resolve_threads(threads);
        self
    }

    /// The worker count of the parallel loops under this guard (at
    /// least 1).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// This token with `faults` armed at its span-open probe points —
    /// shorthand for [`Faults::arm`].
    pub fn with_faults(self, faults: &Faults) -> Self {
        faults.arm(&self)
    }

    /// The recorder every engine under this guard reports into. The
    /// default (unless `RINGEN_TRACE` is set) is the disabled
    /// recorder, whose whole cost is one relaxed load per probe.
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Trips the token. Idempotent; never blocks.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Relaxed);
    }

    /// Whether the token has tripped (explicit cancel, deadline passed,
    /// fuel exhausted, or any ancestor cancelled). Cheap, but hot loops
    /// should amortize through a [`Poller`].
    pub fn is_cancelled(&self) -> bool {
        self.inner.is_cancelled()
    }

    /// The wall-clock deadline, if one was armed on this token.
    pub fn deadline(&self) -> Option<Instant> {
        self.inner.deadline
    }
}

/// Parses `RINGEN_DEADLINE_MS`; `0`, unset, or garbage mean "no deadline".
pub fn deadline_ms_from_env() -> Option<u64> {
    std::env::var("RINGEN_DEADLINE_MS")
        .ok()
        .and_then(|v| v.trim().parse::<u64>().ok())
        .filter(|&ms| ms > 0)
}

/// `RINGEN_THREADS` resolved to a worker count, read once per process:
/// unset, empty, unparsable or `0` mean one worker per CPU.
fn threads_from_env() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        resolve_threads(
            std::env::var("RINGEN_THREADS")
                .ok()
                .and_then(|s| s.trim().parse::<usize>().ok())
                .unwrap_or(0),
        )
    })
}

/// A requested worker count, with `0` resolved to the number of CPUs.
fn resolve_threads(threads: usize) -> usize {
    if threads > 0 {
        threads
    } else {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    }
}

/// Default amortization period for [`Poller`]: hot loops touch the
/// shared atomic (and the clock) once per this many iterations.
pub const DEFAULT_POLL_PERIOD: u32 = 128;

/// Amortized polling helper: `poll()` returns `true` (cancelled) at most
/// once per `period` calls, so inner loops pay one local increment per
/// iteration instead of an atomic load plus `Instant::now()`.
#[derive(Debug)]
pub struct Poller<'a> {
    guard: &'a Guard,
    period: u32,
    countdown: u32,
    tripped: bool,
}

impl<'a> Poller<'a> {
    /// A poller with the [`DEFAULT_POLL_PERIOD`].
    pub fn new(guard: &'a Guard) -> Self {
        Poller::with_period(guard, DEFAULT_POLL_PERIOD)
    }

    /// A poller consulting the guard every `period` calls (min 1).
    pub fn with_period(guard: &'a Guard, period: u32) -> Self {
        let period = period.max(1);
        Poller {
            guard,
            period,
            // Check on the first call so an already-cancelled guard is
            // noticed before any work happens.
            countdown: 1,
            tripped: false,
        }
    }

    /// `true` once the guard has tripped; sticky after the first hit.
    pub fn poll(&mut self) -> bool {
        if self.tripped {
            return true;
        }
        self.countdown -= 1;
        if self.countdown == 0 {
            self.countdown = self.period;
            if self.guard.is_cancelled() {
                self.tripped = true;
            }
        }
        self.tripped
    }

    /// Forces a guard check on the next [`Poller::poll`].
    pub fn arm(&mut self) {
        self.countdown = 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_guard_only_trips_on_cancel() {
        let g = Guard::new();
        for _ in 0..1_000 {
            assert!(!g.is_cancelled());
        }
        g.cancel();
        assert!(g.is_cancelled());
        g.cancel(); // idempotent
        assert!(g.is_cancelled());
    }

    #[test]
    fn clones_share_the_flag() {
        let g = Guard::new();
        let h = g.clone();
        h.cancel();
        assert!(g.is_cancelled());
    }

    #[test]
    fn deadline_trips_and_stays_tripped() {
        let g = Guard::with_deadline(Duration::from_millis(1));
        std::thread::sleep(Duration::from_millis(5));
        assert!(g.is_cancelled());
        assert!(g.is_cancelled());
    }

    #[test]
    fn zero_deadline_trips_immediately() {
        let g = Guard::with_deadline(Duration::ZERO);
        assert!(g.is_cancelled());
    }

    #[test]
    fn fuel_is_deterministic() {
        let g = Guard::with_fuel(3);
        assert!(!g.is_cancelled());
        assert!(!g.is_cancelled());
        assert!(!g.is_cancelled());
        assert!(g.is_cancelled());
        assert!(g.is_cancelled());
    }

    #[test]
    fn child_sees_parent_cancel_but_not_vice_versa() {
        let parent = Guard::new();
        let a = parent.child();
        let b = parent.child();
        a.cancel();
        assert!(a.is_cancelled());
        assert!(!b.is_cancelled());
        assert!(!parent.is_cancelled());
        parent.cancel();
        assert!(b.is_cancelled());
    }

    #[test]
    fn grandchild_chains_to_the_root() {
        let root = Guard::new();
        let mid = root.child();
        let leaf = mid.child();
        root.cancel();
        assert!(leaf.is_cancelled());
    }

    #[test]
    fn child_with_deadline_has_its_own_clock() {
        let parent = Guard::new();
        let child = parent.child_with_deadline(Duration::ZERO);
        assert!(child.is_cancelled());
        assert!(!parent.is_cancelled());
    }

    #[test]
    fn poller_amortizes_checks() {
        let g = Guard::with_fuel(0); // cancelled on the very first check
        let mut p = Poller::with_period(&g, 64);
        // First call checks (and trips); afterwards it is sticky.
        assert!(p.poll());
        assert!(p.poll());
    }

    #[test]
    fn poller_checks_every_period() {
        let g = Guard::new();
        let mut p = Poller::with_period(&g, 4);
        for _ in 0..7 {
            assert!(!p.poll());
        }
        g.cancel();
        // Next boundary is call #8 (1 + 4 + 4 pattern): at most `period`
        // further calls before the trip is observed.
        let mut seen = false;
        for _ in 0..4 {
            if p.poll() {
                seen = true;
                break;
            }
        }
        assert!(seen);
    }

    #[test]
    fn children_inherit_the_recorder() {
        let rec = Recorder::new();
        let parent = Guard::new().with_recorder(rec.clone());
        let child = parent.child().child_with_deadline(Duration::from_secs(60));
        {
            let _s = child.recorder().span("from-grandchild");
        }
        assert_eq!(rec.snapshot().spans.len(), 1);
    }

    #[test]
    fn children_and_armed_guards_inherit_the_worker_count() {
        let parent = Guard::new().with_threads(3);
        assert_eq!(parent.threads(), 3);
        assert_eq!(parent.child().threads(), 3);
        assert_eq!(
            parent
                .child_with_deadline(Duration::from_secs(60))
                .child()
                .threads(),
            3
        );
        let faults = Faults::new(FaultPlan::parse("delay@x:0").unwrap());
        assert_eq!(parent.with_faults(&faults).threads(), 3);
        // Zero resolves to the CPU count, never below one worker.
        assert!(Guard::new().with_threads(0).threads() >= 1);
        assert!(Guard::new().threads() >= 1);
    }

    #[test]
    fn env_parse_rules() {
        // Not using set_var: just exercise the parser on the raw strings.
        assert_eq!(
            "250".trim().parse::<u64>().ok().filter(|&m| m > 0),
            Some(250)
        );
        assert_eq!("0".trim().parse::<u64>().ok().filter(|&m| m > 0), None);
        assert_eq!("abc".trim().parse::<u64>().ok().filter(|&m| m > 0), None);
    }
}
