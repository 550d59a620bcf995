//! A panic-isolated portfolio racer over guarded solver engines.
//!
//! §8 of the paper conjectures that "a hybrid approach to infer
//! invariants in parts by automata and in parts by FOL should exhibit
//! the best performance"; the FMF companion paper runs its engines as a
//! wall-clock race rather than a chain. This module is the race
//! harness: each entrant is a [`Engine`] — a name plus a closure that
//! accepts a [`Guard`] and cooperatively returns an [`EngineVerdict`] —
//! and [`race`] runs them on a [`Pool`], cancels the losers the moment
//! one entrant answers SAT or UNSAT, catches per-engine panics, and
//! records every entrant's fate in a [`PortfolioStats`].
//!
//! The racer is *generic* in the engine payload: `ringen-core` sits
//! below the template solvers in the dependency order, so the concrete
//! elem/sizeelem/regelem/FMF wiring lives in `ringen-server`
//! (`Entrants`), the lowest crate that sees all four engines, together
//! with the per-race shared refute phase ([`crate::refute`]).
//!
//! The race's width is structural: one thread per entrant, since a
//! loser can only be cancelled while a sibling makes progress. A guard
//! of width 1 ([`Guard::threads`]) degrades gracefully to the sequential
//! hybrid chain — entrants run in order on the caller's thread, and
//! once one wins, the rest observe the tripped race token on their
//! first poll and report [`EngineStatus::Cancelled`] without doing any
//! work.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use ringen_obs::report::Section;
use ringen_parallel::{panic_message, Guard, ParallelConfig, Pool};

/// How the racer classifies an engine's answer. `Sat`/`Unsat` are
/// *definitive* — the first of either ends the race.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineVerdict {
    /// The engine certified the system safe.
    Sat,
    /// The engine refuted the system.
    Unsat,
    /// The engine exhausted its own budgets.
    Unknown,
    /// The engine observed its guard trip and stopped cooperatively.
    Interrupted,
}

impl EngineVerdict {
    /// `true` for [`EngineVerdict::Sat`] and [`EngineVerdict::Unsat`]:
    /// the verdicts that win a race.
    pub fn is_definitive(self) -> bool {
        matches!(self, EngineVerdict::Sat | EngineVerdict::Unsat)
    }
}

/// The boxed entry point an [`Engine`] runs when its slot is claimed.
pub type EngineFn<'a, T> = Box<dyn FnOnce(&Guard) -> (EngineVerdict, T) + Send + 'a>;

/// A race entrant: a display name plus a guarded, run-once solve.
///
/// The closure must honor its [`Guard`]: return
/// [`EngineVerdict::Interrupted`] promptly once the token trips. It may
/// panic — the racer isolates that to an [`EngineStatus::Panicked`]
/// report.
pub struct Engine<'a, T> {
    name: &'static str,
    run: EngineFn<'a, T>,
}

impl<'a, T> Engine<'a, T> {
    /// Wraps a guarded solve as a race entrant.
    pub fn new(
        name: &'static str,
        run: impl FnOnce(&Guard) -> (EngineVerdict, T) + Send + 'a,
    ) -> Self {
        Engine {
            name,
            run: Box::new(run),
        }
    }

    /// The entrant's display name.
    pub fn name(&self) -> &'static str {
        self.name
    }
}

/// An entrant's fate, as recorded in [`PortfolioStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineStatus {
    /// First to return a definitive verdict.
    Won,
    /// Returned a definitive verdict, but after the winner claimed.
    Lost,
    /// Observed the race token trip (a sibling won, or the caller
    /// cancelled) and stopped cooperatively.
    Cancelled,
    /// Observed the race token trip because the per-race deadline
    /// passed before anyone won.
    TimedOut,
    /// Panicked; the panic was caught and the race continued.
    Panicked,
    /// Ran to completion without a definitive verdict (own budgets
    /// exhausted).
    Unknown,
}

/// One entrant's line in the race report.
#[derive(Debug, Clone)]
pub struct EngineReport {
    /// The entrant's display name.
    pub name: &'static str,
    /// The entrant's fate.
    pub status: EngineStatus,
    /// The verdict it returned; `None` if it panicked.
    pub verdict: Option<EngineVerdict>,
    /// Wall-clock time the entrant ran for.
    pub elapsed: Duration,
    /// The panic message, for [`EngineStatus::Panicked`].
    pub panic: Option<String>,
}

/// The full race report: one [`EngineReport`] per entrant, in entry
/// order, plus the winner (if any) and total wall-clock.
#[derive(Debug, Clone)]
pub struct PortfolioStats {
    /// Per-entrant reports, in the order the engines were passed in.
    pub engines: Vec<EngineReport>,
    /// Index (into `engines`) of the winner, if the race was decided.
    pub winner: Option<usize>,
    /// Total wall-clock for the race.
    pub elapsed: Duration,
    /// The per-race deadline that was armed, if any.
    pub deadline: Option<Duration>,
}

impl PortfolioStats {
    /// The winner's report, if the race was decided.
    pub fn winner_report(&self) -> Option<&EngineReport> {
        self.winner.map(|i| &self.engines[i])
    }

    /// The report for the named entrant.
    pub fn report(&self, name: &str) -> Option<&EngineReport> {
        self.engines.iter().find(|r| r.name == name)
    }

    /// How many entrants were cancelled by a winning sibling (or an
    /// outer cancel).
    pub fn cancelled(&self) -> usize {
        self.count(EngineStatus::Cancelled)
    }

    /// How many entrants hit the per-race deadline.
    pub fn timed_out(&self) -> usize {
        self.count(EngineStatus::TimedOut)
    }

    /// How many entrants panicked (and were isolated).
    pub fn panicked(&self) -> usize {
        self.count(EngineStatus::Panicked)
    }

    fn count(&self, status: EngineStatus) -> usize {
        self.engines.iter().filter(|r| r.status == status).count()
    }

    /// Flattens the race into report [`Section`]s: one `race` section
    /// plus one `engine.<name>` section per entrant. Shared by the CLI
    /// report path and the server's per-query reports, so the two
    /// documents stay field-for-field compatible.
    pub fn sections(&self) -> Vec<Section> {
        let ms = |d: Duration| i64::try_from(d.as_millis()).unwrap_or(i64::MAX);
        let mut race = Section::new("race")
            .entry("entrants", self.engines.len() as i64)
            .entry("elapsed_ms", ms(self.elapsed))
            .entry(
                "winner",
                self.winner.map_or(-1, |i| i64::try_from(i).unwrap_or(-1)),
            );
        if let Some(d) = self.deadline {
            race = race.entry("deadline_ms", ms(d));
        }
        let mut out = vec![race];
        for (i, e) in self.engines.iter().enumerate() {
            out.push(
                Section::new(format!("engine.{}", e.name))
                    .entry("elapsed_ms", ms(e.elapsed))
                    .entry("won", i64::from(self.winner == Some(i)))
                    .entry(
                        "definitive",
                        i64::from(e.verdict.as_ref().is_some_and(|v| v.is_definitive())),
                    )
                    .entry("panicked", i64::from(e.panic.is_some())),
            );
        }
        out
    }
}

/// Race-level knobs. The race's width is not one of them: it is one
/// thread per entrant, or 1 under a guard of width 1.
#[derive(Debug, Clone, Default)]
pub struct RaceConfig {
    /// Wall-clock budget for the whole race; `None` races unbounded.
    pub deadline: Option<Duration>,
}

impl RaceConfig {
    /// Reads `RINGEN_DEADLINE_MS` (see `ENVIRONMENT.md` at the
    /// workspace root).
    pub fn from_env() -> Self {
        RaceConfig {
            deadline: ringen_parallel::deadline_ms_from_env().map(Duration::from_millis),
        }
    }
}

/// The race's overall outcome.
#[derive(Debug)]
pub enum RaceOutcome<T> {
    /// An entrant returned a definitive verdict first; `value` is its
    /// payload and `engine` indexes [`PortfolioStats::engines`].
    Decided {
        /// Index of the winning entrant.
        engine: usize,
        /// The winning verdict ([`EngineVerdict::Sat`] or
        /// [`EngineVerdict::Unsat`]).
        verdict: EngineVerdict,
        /// The winning entrant's payload.
        value: T,
    },
    /// Every entrant finished under its own power without a definitive
    /// verdict.
    Undecided,
    /// The deadline (or an outer cancel) cut the race short before any
    /// entrant could decide. The per-engine reports still carry every
    /// partial verdict — the "best partial answer" of a bounded race.
    Interrupted,
}

struct RunRecord<T> {
    verdict: Option<EngineVerdict>,
    value: Option<T>,
    elapsed: Duration,
    /// When the entrant came home.
    returned: Instant,
    panic: Option<String>,
}

/// Races `engines` under `guard`; first definitive SAT/UNSAT cancels
/// the rest. Never panics on an entrant's behalf: worker panics are
/// caught per engine and isolated into the stats.
pub fn race<T: Send>(
    engines: Vec<Engine<'_, T>>,
    cfg: &RaceConfig,
    guard: &Guard,
) -> (RaceOutcome<T>, PortfolioStats) {
    let start = Instant::now();
    let race_guard = match cfg.deadline {
        Some(d) => guard.child_with_deadline(d),
        None => guard.child(),
    };
    let rec = guard.recorder().clone();
    let mut race_span = rec.span("race");
    race_span.note("entrants", engines.len() as i64);
    // Entrant spans open on worker threads but nest under the race
    // span, so the race renders as one timeline row per entrant.
    let race_handle = race_span.handle();
    let names: Vec<&'static str> = engines.iter().map(|e| e.name).collect();
    // Each slot is taken exactly once by the pool job that claims it;
    // the Mutex is only there to move the FnOnce out of the shared
    // item list.
    let slots: Vec<Mutex<Option<Engine<'_, T>>>> =
        engines.into_iter().map(|e| Mutex::new(Some(e))).collect();
    // The winner's index and the instant it cancelled the field.
    let winner: Mutex<Option<(usize, Instant)>> = Mutex::new(None);

    let width = if guard.threads() > 1 {
        slots.len().max(1)
    } else {
        1
    };
    let pool = Pool::persistent(&ParallelConfig::with_threads(width));
    let mut records: Vec<RunRecord<T>> = pool.map_items(&slots, |i, slot| {
        let engine = slot
            .lock()
            .expect("engine slot lock")
            .take()
            .expect("each engine runs exactly once");
        let child = race_guard.child();
        // The entrant span closes when this job returns — the panic
        // is caught *inside* the job, so a crashed entrant still
        // records its lifetime (with every engine-internal span
        // closed by the unwind itself).
        let mut span = rec.span_under(engine.name, race_handle);
        let t0 = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| (engine.run)(&child)));
        let returned = Instant::now();
        let elapsed = returned - t0;
        match outcome {
            Ok((verdict, value)) => {
                if verdict.is_definitive() {
                    let mut w = winner.lock().expect("winner lock");
                    if w.is_none() {
                        // Stamped before the cancel, so every loser
                        // that comes home after it has a latency.
                        *w = Some((i, Instant::now()));
                        // Losers observe this on their next poll and
                        // come home as Interrupted.
                        race_guard.cancel();
                    }
                }
                span.note_str(
                    "verdict",
                    match verdict {
                        EngineVerdict::Sat => "sat",
                        EngineVerdict::Unsat => "unsat",
                        EngineVerdict::Unknown => "unknown",
                        EngineVerdict::Interrupted => "interrupted",
                    },
                );
                RunRecord {
                    verdict: Some(verdict),
                    value: Some(value),
                    elapsed,
                    returned,
                    panic: None,
                }
            }
            Err(payload) => {
                span.note_str("verdict", "panicked");
                RunRecord {
                    verdict: None,
                    value: None,
                    elapsed,
                    returned,
                    panic: Some(panic_message(payload.as_ref())),
                }
            }
        }
    });

    let decided = *winner.lock().expect("winner lock");
    let won = decided.map(|(i, _)| i);
    if let Some((i, cancelled_at)) = decided {
        race_span.note_str("winner", names[i]);
        // Cancellation latency: how long each loser still running at
        // the winner's cancel took to come home.
        for (j, r) in records.iter().enumerate() {
            if j == i {
                continue;
            }
            if let Some(late) = r.returned.checked_duration_since(cancelled_at) {
                rec.observe("race.cancel_latency", late.as_nanos() as u64);
            }
        }
    }
    let deadline_passed = race_guard.deadline().is_some_and(|at| Instant::now() >= at);
    let reports: Vec<EngineReport> = records
        .iter()
        .enumerate()
        .map(|(i, rec)| EngineReport {
            name: names[i],
            status: match rec.verdict {
                None => EngineStatus::Panicked,
                Some(v) if v.is_definitive() => {
                    if won == Some(i) {
                        EngineStatus::Won
                    } else {
                        EngineStatus::Lost
                    }
                }
                Some(EngineVerdict::Unknown) => EngineStatus::Unknown,
                Some(EngineVerdict::Interrupted) => {
                    if won.is_some() {
                        EngineStatus::Cancelled
                    } else if deadline_passed {
                        EngineStatus::TimedOut
                    } else {
                        EngineStatus::Cancelled
                    }
                }
                Some(_) => unreachable!("definitive verdicts matched above"),
            },
            verdict: rec.verdict,
            elapsed: rec.elapsed,
            panic: rec.panic.clone(),
        })
        .collect();

    let outcome = match won {
        Some(i) => {
            let rec = &mut records[i];
            RaceOutcome::Decided {
                engine: i,
                verdict: rec.verdict.expect("winner has a verdict"),
                value: rec.value.take().expect("winner has a payload"),
            }
        }
        // `Interrupted` is reserved for *race-level* cancellation (the
        // deadline or an outer cancel tripped the shared token) — the
        // caller may retry those. An entrant whose own child token
        // tripped (an injected fault, an engine-internal bail) without
        // the race being cancelled is just another loser: with every
        // entrant home and no decision, the race is definitively
        // `Undecided`, never a winner-slot hang.
        None if race_guard.is_cancelled()
            && records
                .iter()
                .any(|r| r.verdict == Some(EngineVerdict::Interrupted)) =>
        {
            RaceOutcome::Interrupted
        }
        None => RaceOutcome::Undecided,
    };
    let stats = PortfolioStats {
        engines: reports,
        winner: won,
        elapsed: start.elapsed(),
        deadline: cfg.deadline,
    };
    (outcome, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ringen_parallel::{Poller, Recorder};

    /// A plain guard of width `n`.
    fn threads(n: usize) -> Guard {
        Guard::new().with_threads(n)
    }

    /// An entrant that spins until its guard trips.
    fn diverging(name: &'static str) -> Engine<'static, u32> {
        Engine::new(name, |g: &Guard| {
            let mut poller = Poller::with_period(g, 8);
            loop {
                if poller.poll() {
                    return (EngineVerdict::Interrupted, 0);
                }
                std::thread::sleep(Duration::from_micros(50));
            }
        })
    }

    #[test]
    fn winner_cancels_the_divergent_sibling() {
        let engines = vec![
            Engine::new("fast", |_: &Guard| (EngineVerdict::Sat, 7)),
            diverging("slow"),
        ];
        let (outcome, stats) = race(engines, &RaceConfig::default(), &threads(2));
        match outcome {
            RaceOutcome::Decided {
                engine,
                verdict,
                value,
            } => {
                assert_eq!(engine, 0);
                assert_eq!(verdict, EngineVerdict::Sat);
                assert_eq!(value, 7);
            }
            other => panic!("expected Decided, got {other:?}"),
        }
        assert_eq!(stats.winner, Some(0));
        assert_eq!(stats.engines[0].status, EngineStatus::Won);
        assert_eq!(stats.engines[1].status, EngineStatus::Cancelled);
        assert_eq!(stats.cancelled(), 1);
    }

    #[test]
    fn every_cancelled_loser_records_its_cancel_latency() {
        for n in [1, 3] {
            let rec = Recorder::new();
            let guard = threads(n).with_recorder(rec.clone());
            let engines = vec![
                Engine::new("fast", |_: &Guard| (EngineVerdict::Sat, 7)),
                diverging("slow"),
                diverging("slower"),
            ];
            let (_, stats) = race(engines, &RaceConfig::default(), &guard);
            assert_eq!(stats.cancelled(), 2, "threads={n}");
            let trace = rec.snapshot();
            let latency = trace
                .histograms
                .iter()
                .find(|(name, _)| *name == "race.cancel_latency")
                .map(|(_, h)| h.count);
            assert_eq!(
                latency,
                Some(2),
                "threads={n}: one sample per cancelled loser"
            );
        }
    }

    #[test]
    fn one_thread_degenerates_to_the_sequential_chain() {
        // Entrants run in order; after the winner, the rest see a
        // tripped token on their very first poll.
        let engines = vec![
            Engine::new("first", |_: &Guard| (EngineVerdict::Unknown, 0)),
            Engine::new("second", |_: &Guard| (EngineVerdict::Unsat, 1)),
            diverging("third"),
        ];
        let (outcome, stats) = race(engines, &RaceConfig::default(), &threads(1));
        assert!(matches!(
            outcome,
            RaceOutcome::Decided {
                engine: 1,
                verdict: EngineVerdict::Unsat,
                value: 1
            }
        ));
        assert_eq!(stats.engines[0].status, EngineStatus::Unknown);
        assert_eq!(stats.engines[1].status, EngineStatus::Won);
        assert_eq!(stats.engines[2].status, EngineStatus::Cancelled);
    }

    #[test]
    fn deadline_times_the_whole_field_out() {
        for n in [1, 4] {
            let cfg = RaceConfig {
                deadline: Some(Duration::from_millis(20)),
            };
            let engines = vec![diverging("a"), diverging("b")];
            let (outcome, stats) = race(engines, &cfg, &threads(n));
            assert!(
                matches!(outcome, RaceOutcome::Interrupted),
                "threads={n}: expected Interrupted"
            );
            assert_eq!(stats.winner, None);
            assert_eq!(stats.timed_out(), 2, "threads={n}");
            // The race came home near the deadline, not hung.
            assert!(stats.elapsed < Duration::from_secs(10));
        }
    }

    #[test]
    fn panic_is_isolated_and_the_race_still_decides() {
        let engines = vec![
            Engine::new("crashy", |_: &Guard| -> (EngineVerdict, u32) {
                panic!("engine exploded: {}", 42)
            }),
            Engine::new("steady", |_: &Guard| (EngineVerdict::Sat, 9)),
        ];
        let (outcome, stats) = race(engines, &RaceConfig::default(), &threads(2));
        assert!(matches!(
            outcome,
            RaceOutcome::Decided {
                engine: 1,
                value: 9,
                ..
            }
        ));
        assert_eq!(stats.engines[0].status, EngineStatus::Panicked);
        let msg = stats.engines[0].panic.as_deref().unwrap_or("");
        assert!(msg.contains("engine exploded: 42"), "got {msg:?}");
        assert_eq!(stats.panicked(), 1);
        assert_eq!(stats.engines[1].status, EngineStatus::Won);
    }

    #[test]
    fn all_unknown_is_undecided_not_interrupted() {
        let engines = vec![
            Engine::new("a", |_: &Guard| (EngineVerdict::Unknown, 0)),
            Engine::new("b", |_: &Guard| (EngineVerdict::Unknown, 0)),
        ];
        let (outcome, stats) = race(engines, &RaceConfig::default(), &threads(2));
        assert!(matches!(outcome, RaceOutcome::Undecided));
        assert_eq!(stats.winner, None);
        assert!(stats
            .engines
            .iter()
            .all(|r| r.status == EngineStatus::Unknown));
    }

    #[test]
    fn all_entrants_panicking_is_a_definitive_undecided() {
        use ringen_parallel::{FaultPlan, Faults};
        // Each entrant opens an engine-internal span; the fault plan
        // panics every one of them, so the whole field crashes.
        let entrant = |name: &'static str, span: &'static str| {
            Engine::new(name, move |g: &Guard| -> (EngineVerdict, u32) {
                let _s = g.recorder().span(span);
                (EngineVerdict::Unknown, 0)
            })
        };
        for n in [1, 4] {
            let faults = Faults::new(FaultPlan::parse("panic@a.work, panic@b.work").unwrap());
            let guard = threads(n).with_faults(&faults);
            let engines = vec![entrant("a", "a.work"), entrant("b", "b.work")];
            let (outcome, stats) = race(engines, &RaceConfig::default(), &guard);
            // No winner slot to hang on: the race comes home Undecided
            // (a definitive Unknown), with every entrant's fate filed.
            assert!(
                matches!(outcome, RaceOutcome::Undecided),
                "threads={n}: expected Undecided, got {outcome:?}"
            );
            assert_eq!(stats.winner, None, "threads={n}");
            assert_eq!(stats.panicked(), 2, "threads={n}");
            assert_eq!(faults.stats().panics, 2, "threads={n}");
            for r in &stats.engines {
                assert_eq!(r.status, EngineStatus::Panicked, "threads={n}");
                assert!(r.panic.as_deref().unwrap_or("").contains("injected panic"));
            }
        }
    }

    #[test]
    fn self_interrupted_entrants_without_race_cancel_are_undecided() {
        use ringen_parallel::{FaultPlan, Faults};
        // A `cancel@…` fault trips each entrant's own child token —
        // NOT the race token — so every entrant comes home
        // Interrupted, yet the race itself was never cancelled. That
        // must read as a definitive Undecided, not Interrupted.
        let entrant = |name: &'static str, span: &'static str| {
            Engine::new(name, move |g: &Guard| -> (EngineVerdict, u32) {
                let faults = Faults::new(FaultPlan::parse("cancel@*").unwrap());
                let g = g.clone().with_faults(&faults);
                let _s = g.recorder().span(span);
                if g.is_cancelled() {
                    (EngineVerdict::Interrupted, 0)
                } else {
                    (EngineVerdict::Unknown, 0)
                }
            })
        };
        let engines = vec![entrant("a", "a.work"), entrant("b", "b.work")];
        let (outcome, stats) = race(engines, &RaceConfig::default(), &threads(2));
        assert!(
            matches!(outcome, RaceOutcome::Undecided),
            "expected Undecided, got {outcome:?}"
        );
        assert_eq!(stats.winner, None);
        assert_eq!(stats.cancelled(), 2);
    }

    #[test]
    fn outer_cancel_interrupts_the_race() {
        let guard = threads(2);
        guard.cancel();
        let engines = vec![diverging("a"), diverging("b")];
        let (outcome, stats) = race(engines, &RaceConfig::default(), &guard);
        assert!(matches!(outcome, RaceOutcome::Interrupted));
        // No deadline was armed, so a tripped token reads as Cancelled.
        assert_eq!(stats.cancelled(), 2);
    }
}
