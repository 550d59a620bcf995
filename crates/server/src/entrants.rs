//! The portfolio's four entrants, defined once.
//!
//! [`Entrants`] holds the engines' budgets and runs them as a race
//! ([`Entrants::race`]). Both `ringen --solver portfolio` (through
//! `ringen::portfolio`) and [`crate::SolveServer`] race through it;
//! they differ only in the budgets and race knobs they pass.
//!
//! Every engine is split into a refute phase and a search phase. A race
//! runs the refute phase once, through a per-race
//! [`SharedRefutation`] cell built from the `fmf` budgets' saturation
//! config: the first entrant to reach it refutes under its own guard
//! while the others wait, a refutation is handed to every entrant as
//! UNSAT, and otherwise each entrant goes on to its engine's search
//! phase (`search_guarded`, `search_elem_guarded`,
//! `search_size_elem_guarded`, `search_regelem_guarded`). An entrant
//! whose guard tripped during the refutation starts no search.

use ringen_automata::AutStore;
use ringen_chc::ChcSystem;
use ringen_core::portfolio::{
    race, Engine, EngineVerdict, PortfolioStats, RaceConfig, RaceOutcome,
};
use ringen_core::saturation::Refutation;
use ringen_core::{search_guarded, Answer, Refuted, RingenConfig, SharedRefutation};
use ringen_elem::{search_elem_guarded, ElemAnswer, ElemConfig};
use ringen_parallel::Guard;
use ringen_regelem::{search_regelem_guarded, RegElemAnswer, RegElemConfig};
use ringen_sizeelem::{search_size_elem_guarded, SizeElemAnswer, SizeElemConfig};

/// The four portfolio entrants, in default racing order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// Regular invariants by finite-model finding (the paper's tool).
    Fmf,
    /// Elementary templates.
    Elem,
    /// Size-extended elementary templates.
    SizeElem,
    /// Combined template-plus-membership search.
    RegElem,
}

impl EngineKind {
    /// Every entrant, in default order.
    pub const ALL: [EngineKind; 4] = [
        EngineKind::Fmf,
        EngineKind::Elem,
        EngineKind::SizeElem,
        EngineKind::RegElem,
    ];

    /// The racer's span/report name for this entrant.
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::Fmf => "fmf",
            EngineKind::Elem => "elem",
            EngineKind::SizeElem => "sizeelem",
            EngineKind::RegElem => "regelem",
        }
    }
}

/// An entrant's full answer, tagged by engine.
#[derive(Debug)]
pub enum EngineAnswer {
    /// The paper's tool: regular invariants by finite-model finding.
    Fmf(Answer),
    /// Elementary templates (the Spacer role).
    Elem(ElemAnswer),
    /// Size-extended elementary templates (the Eldarica role).
    SizeElem(SizeElemAnswer),
    /// The combined template-plus-membership search.
    RegElem(RegElemAnswer),
}

impl EngineAnswer {
    /// How the racer classifies this answer.
    pub fn verdict(&self) -> EngineVerdict {
        let (sat, unsat, interrupted) = match self {
            EngineAnswer::Fmf(a) => (a.is_sat(), a.is_unsat(), a.is_interrupted()),
            EngineAnswer::Elem(a) => (a.is_sat(), a.is_unsat(), a.is_interrupted()),
            EngineAnswer::SizeElem(a) => (a.is_sat(), a.is_unsat(), a.is_interrupted()),
            EngineAnswer::RegElem(a) => (a.is_sat(), a.is_unsat(), a.is_interrupted()),
        };
        if sat {
            EngineVerdict::Sat
        } else if unsat {
            EngineVerdict::Unsat
        } else if interrupted {
            EngineVerdict::Interrupted
        } else {
            EngineVerdict::Unknown
        }
    }
}

/// The entrants' budgets, one per engine; see the module docs.
///
/// [`Entrants::default`] gives every engine its default, finite
/// budgets (what a resident service wants: a terminating Unknown over
/// an open-ended sweep). [`Entrants::racing`] raises the sweep limits
/// so that an entrant effectively runs until cancelled.
#[derive(Debug, Clone, Default)]
pub struct Entrants {
    /// Budgets for the regular-invariant entrant. Its `saturation`
    /// config is also the race's shared refute phase.
    pub fmf: RingenConfig,
    /// Budgets for the elementary entrant.
    pub elem: ElemConfig,
    /// Budgets for the size-elementary entrant.
    pub sizeelem: SizeElemConfig,
    /// Budgets for the combined entrant.
    pub regelem: RegElemConfig,
}

impl Entrants {
    /// Racing budgets: sweep limits high enough that a loser keeps
    /// searching until the winner's cancel (or the deadline) stops it.
    pub fn racing() -> Self {
        let mut fmf = RingenConfig::default();
        // The model-size sweep grows exponentially; 64 total domain
        // elements is "until cancelled" in practice.
        fmf.finder.max_total_size = 64;
        Entrants {
            fmf,
            elem: ElemConfig {
                max_assignments: u64::MAX,
                ..ElemConfig::default()
            },
            sizeelem: SizeElemConfig {
                max_assignments: u64::MAX,
                ..SizeElemConfig::default()
            },
            regelem: RegElemConfig {
                max_assignments: u64::MAX,
                ..RegElemConfig::default()
            },
        }
    }

    /// Races the entrants named by `kinds` on `sys` under `guard`; the
    /// first definitive SAT/UNSAT cancels the rest. The refute phase
    /// runs once for the whole race (see the module docs).
    pub fn race(
        &self,
        sys: &ChcSystem,
        kinds: &[EngineKind],
        cfg: &RaceConfig,
        guard: &Guard,
    ) -> (RaceOutcome<EngineAnswer>, PortfolioStats) {
        let refutation = SharedRefutation::new(sys, &self.fmf.saturation);
        let engines = kinds
            .iter()
            .map(|&kind| {
                let refutation = &refutation;
                Engine::new(kind.name(), move |g: &Guard| {
                    let answer = self.run(kind, sys, refutation, g);
                    (answer.verdict(), answer)
                })
            })
            .collect();
        race(engines, cfg, guard)
    }

    /// One entrant: the shared refute phase, then its search phase.
    fn run(
        &self,
        kind: EngineKind,
        sys: &ChcSystem,
        refutation: &SharedRefutation<'_>,
        guard: &Guard,
    ) -> EngineAnswer {
        let refuted = refutation.refute(guard);
        match kind {
            EngineKind::Fmf => EngineAnswer::Fmf(then_search(
                refuted,
                Answer::Unsat,
                Answer::Interrupted,
                || {
                    // Each entrant owns its store: a cancelled engine
                    // must not leave a shared store mid-solve.
                    let mut store = AutStore::new();
                    search_guarded(sys, &self.fmf, &mut store, guard).0
                },
            )),
            EngineKind::Elem => EngineAnswer::Elem(then_search(
                refuted,
                ElemAnswer::Unsat,
                ElemAnswer::Interrupted,
                || search_elem_guarded(sys, &self.elem, guard).0,
            )),
            EngineKind::SizeElem => EngineAnswer::SizeElem(then_search(
                refuted,
                SizeElemAnswer::Unsat,
                SizeElemAnswer::Interrupted,
                || search_size_elem_guarded(sys, &self.sizeelem, guard).0,
            )),
            EngineKind::RegElem => EngineAnswer::RegElem(then_search(
                refuted,
                RegElemAnswer::Unsat,
                RegElemAnswer::Interrupted,
                || search_regelem_guarded(sys, &self.regelem, guard).0,
            )),
        }
    }
}

/// An engine's answer after the refute phase: UNSAT on a refutation,
/// Interrupted on a trip, otherwise whatever its search phase finds.
fn then_search<A>(
    refuted: Refuted,
    unsat: impl FnOnce(Refutation) -> A,
    interrupted: A,
    search: impl FnOnce() -> A,
) -> A {
    match refuted {
        Refuted::Unsat(r) => unsat(r),
        Refuted::Interrupted => interrupted,
        Refuted::NoRefutation => search(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ringen_benchgen::programs;
    use ringen_core::portfolio::EngineStatus;
    use ringen_parallel::{FaultPlan, Faults, ParallelConfig, Recorder};
    use std::time::Duration;

    /// Even with a reachable query: every entrant's answer is the
    /// shared refutation, whoever computes it.
    fn even_unsat() -> ChcSystem {
        ringen_chc::parse_str(
            "(declare-datatypes ((Nat 0)) (((Z) (S (pre Nat)))))
             (declare-fun even (Nat) Bool)
             (assert (even Z))
             (assert (forall ((x Nat)) (=> (even x) (even (S (S x))))))
             (assert (=> (even (S (S Z))) false))",
        )
        .expect("the system parses")
    }

    fn race_cfg(threads: usize, deadline: Duration) -> RaceConfig {
        RaceConfig {
            deadline: Some(deadline),
            parallel: ParallelConfig::with_threads(threads),
        }
    }

    fn count(rec: &Recorder, name: &str) -> usize {
        rec.snapshot()
            .spans
            .iter()
            .filter(|s| s.name == name)
            .count()
    }

    #[test]
    fn a_fault_free_race_saturates_once() {
        for threads in [1, 4] {
            for (sys, want) in [
                (programs::even(), EngineVerdict::Sat),
                (even_unsat(), EngineVerdict::Unsat),
            ] {
                let rec = Recorder::new();
                let guard = Guard::new().with_recorder(rec.clone());
                let cfg = race_cfg(threads, Duration::from_secs(60));
                let (outcome, _) = Entrants::racing().race(&sys, &EngineKind::ALL, &cfg, &guard);
                assert!(
                    matches!(outcome, RaceOutcome::Decided { verdict, .. } if verdict == want),
                    "threads={threads}: expected {want:?}, got {outcome:?}"
                );
                assert_eq!(count(&rec, "saturate"), 1, "threads={threads}");
            }
        }
    }

    /// [`Entrants::race`] with `faults` armed on each entrant's own
    /// guard, so an injected cancel trips that entrant alone.
    fn race_with_entrant_faults(
        entrants: &Entrants,
        sys: &ChcSystem,
        faults: &Faults,
        cfg: &RaceConfig,
    ) -> (RaceOutcome<EngineAnswer>, PortfolioStats) {
        let refutation = SharedRefutation::new(sys, &entrants.fmf.saturation);
        let engines = EngineKind::ALL
            .iter()
            .map(|&kind| {
                let refutation = &refutation;
                Engine::new(kind.name(), move |g: &Guard| {
                    let answer = entrants.run(kind, sys, refutation, &faults.arm(g));
                    (answer.verdict(), answer)
                })
            })
            .collect();
        race(engines, cfg, &Guard::new())
    }

    #[test]
    fn a_fault_on_the_refuting_entrant_leaves_the_others_unchanged() {
        let entrants = Entrants::racing();
        let sys = even_unsat();
        for threads in [1, 4] {
            let cfg = race_cfg(threads, Duration::from_secs(60));
            for (plan, faulted) in [
                ("panic@saturate#1", EngineStatus::Panicked),
                ("cancel@saturate#1", EngineStatus::Cancelled),
            ] {
                let faults = Faults::new(FaultPlan::parse(plan).expect("plan parses"));
                let (outcome, stats) = race_with_entrant_faults(&entrants, &sys, &faults, &cfg);
                assert_eq!(faults.stats().injected(), 1, "threads={threads} {plan}");
                assert!(
                    matches!(
                        outcome,
                        RaceOutcome::Decided {
                            verdict: EngineVerdict::Unsat,
                            ..
                        }
                    ),
                    "threads={threads} {plan}: got {outcome:?}"
                );
                // The refuting entrant took the fault; every other
                // entrant answered exactly as in a fault-free race.
                let hit: Vec<_> = stats
                    .engines
                    .iter()
                    .filter(|r| r.status == faulted)
                    .collect();
                assert_eq!(hit.len(), 1, "threads={threads} {plan}: {stats:?}");
                for r in stats.engines.iter().filter(|r| r.status != faulted) {
                    assert_eq!(
                        r.verdict,
                        Some(EngineVerdict::Unsat),
                        "threads={threads} {plan}: {}",
                        r.name
                    );
                }
            }
        }
    }

    #[test]
    fn a_guard_tripped_while_refuting_starts_no_search() {
        let entrants = Entrants::racing();
        let sys = programs::even();
        let searches = [
            "preprocess",
            "fmf.search",
            "elem.sweep",
            "sizeelem.sweep",
            "regelem.regular",
            "regelem.elem",
            "regelem.combined",
        ];
        for threads in [1, 4] {
            // An outer cancel, and a deadline that passes while the
            // refuter is held up.
            for (plan, deadline) in [
                ("cancel@saturate#1", Duration::from_secs(60)),
                ("delay@saturate#1:50", Duration::from_millis(10)),
            ] {
                let rec = Recorder::new();
                let faults = Faults::new(FaultPlan::parse(plan).expect("plan parses"));
                let guard = Guard::new().with_recorder(rec.clone()).with_faults(&faults);
                let cfg = race_cfg(threads, deadline);
                let (outcome, stats) = entrants.race(&sys, &EngineKind::ALL, &cfg, &guard);
                assert!(
                    matches!(outcome, RaceOutcome::Interrupted),
                    "threads={threads} {plan}: got {outcome:?}"
                );
                for r in &stats.engines {
                    assert!(
                        matches!(r.status, EngineStatus::Cancelled | EngineStatus::TimedOut),
                        "threads={threads} {plan}: {} came home {:?}",
                        r.name,
                        r.status
                    );
                    assert_eq!(r.verdict, Some(EngineVerdict::Interrupted));
                }
                for name in searches {
                    assert_eq!(count(&rec, name), 0, "threads={threads} {plan}: {name} ran");
                }
            }
        }
    }
}
