//! Span-tree integrity of the observability layer under the two hard
//! regimes: random cooperative cancellation (a guard tripping at an
//! arbitrary fuel level mid-solve) and entrant panics inside the
//! portfolio race. In both, every recorded span must come home closed,
//! uniquely identified, and properly nested under a parent whose
//! interval contains it — a trace that loads cleanly in Perfetto no
//! matter where the solve was cut.

use proptest::prelude::*;
use ringen::automata::AutStore;
use ringen::benchgen::programs;
use ringen::chc::{parse_str, ChcSystem};
use ringen::core::portfolio::{race, Engine, EngineVerdict, RaceConfig};
use ringen::core::{solve_guarded, Guard, Recorder, RingenConfig};
use ringen::obs::{ArgVal, SpanRec};
use ringen::portfolio::{solve_portfolio_guarded, PortfolioConfig};

const ENTRANTS: [&str; 4] = ["fmf", "elem", "sizeelem", "regelem"];

/// Every span closed (`end >= start`), ids unique, and every parent
/// reference resolving to a recorded span whose interval contains the
/// child's. Children always close before their parents (same-thread
/// nesting is RAII; the cross-thread race span closes after its
/// entrants), so containment must hold even for traces cut short by
/// cancellation or a panic.
fn assert_integrity(spans: &[SpanRec]) {
    let mut ids = std::collections::HashSet::new();
    for s in spans {
        assert!(ids.insert(s.id), "duplicate span id {} ({})", s.id, s.name);
        assert!(
            s.end_ns >= s.start_ns,
            "span {} closes before it opens",
            s.name
        );
    }
    for s in spans {
        if let Some(p) = s.parent {
            let parent = spans
                .iter()
                .find(|c| c.id == p)
                .unwrap_or_else(|| panic!("span {} has a dangling parent id {p}", s.name));
            assert!(
                parent.start_ns <= s.start_ns && s.end_ns <= parent.end_ns,
                "span {} [{}, {}] escapes its parent {} [{}, {}]",
                s.name,
                s.start_ns,
                s.end_ns,
                parent.name,
                parent.start_ns,
                parent.end_ns
            );
        }
    }
}

/// The `cancel_residue_prop` systems: SAT and UNSAT paths, plus a
/// multi-predicate join that keeps saturation busy for several rounds.
fn systems() -> Vec<ChcSystem> {
    let unsat = r#"
        (declare-datatypes ((Nat 0)) (((Z) (S (pre Nat)))))
        (declare-fun even (Nat) Bool)
        (assert (even Z))
        (assert (forall ((x Nat)) (=> (even x) (even (S (S x))))))
        (assert (=> (even (S (S (S (S Z))))) false))
    "#;
    vec![
        programs::even(),
        parse_str(unsat).expect("template parses"),
        programs::inc_dec(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A guard tripping at an arbitrary fuel level must leave a
    /// well-formed trace: the engines close their spans on the
    /// `Interrupted` exit path, never abandon them.
    #[test]
    fn cancelled_solve_leaves_a_balanced_span_tree(
        which in 0usize..3,
        fuel in 0u64..300,
        threads_idx in 0usize..2,
    ) {
        let threads = [1usize, 4][threads_idx];
        let sys = systems().swap_remove(which);
        let cfg = RingenConfig::quick();

        let recorder = Recorder::new();
        let g = Guard::with_fuel(fuel)
            .with_recorder(recorder.clone())
            .with_threads(threads);
        let mut store = AutStore::new();
        let (answer, _) = solve_guarded(&sys, &cfg, &mut store, &g);
        // The probe is itself a poll: after a solve that drained the
        // fuel exactly, it is the poll that trips the guard. Such a
        // solve ran to completion, and one unit less must interrupt it.
        let tripped = g.is_cancelled();
        if tripped && !answer.is_interrupted() {
            let short = Guard::with_fuel(fuel.saturating_sub(1)).with_threads(threads);
            let (again, _) = solve_guarded(&sys, &cfg, &mut AutStore::new(), &short);
            prop_assert!(
                again.is_interrupted(),
                "tripped guard must yield Interrupted, got {:?}",
                answer
            );
        }
        if !tripped {
            // The run completed: the phase chain must have recorded.
            prop_assert!(!recorder.snapshot().spans.is_empty());
        }
        assert_integrity(&recorder.snapshot().spans);
    }
}

/// A panicking entrant is isolated by the racer, and its span still
/// closes — tagged with the `panicked` verdict, nested under the race.
#[test]
fn panicking_entrant_still_records_its_span() {
    let recorder = Recorder::new();
    let guard = Guard::new().with_recorder(recorder.clone()).with_threads(2);
    let cfg = RaceConfig::default();
    let engines = vec![
        Engine::new("boom", |_: &Guard| -> (EngineVerdict, ()) {
            panic!("entrant crashed mid-solve")
        }),
        Engine::new("steady", |_: &Guard| (EngineVerdict::Sat, ())),
    ];
    let (_, stats) = race(engines, &cfg, &guard);
    assert_eq!(stats.panicked(), 1, "{stats:?}");

    let trace = recorder.snapshot();
    assert_integrity(&trace.spans);
    let race_span = trace
        .spans
        .iter()
        .find(|s| s.name == "race")
        .expect("race span");
    let boom = trace
        .spans
        .iter()
        .find(|s| s.name == "boom")
        .expect("panicked entrant must still record its span");
    assert_eq!(boom.parent, Some(race_span.id));
    assert!(
        boom.args
            .iter()
            .any(|(k, v)| *k == "verdict" && matches!(v, ArgVal::Str("panicked"))),
        "panicked entrant span lacks the verdict tag: {:?}",
        boom.args
    );
}

/// The acceptance shape of the tentpole: a portfolio solve records one
/// span per racing entrant under the race span, and the winner carries
/// per-phase child spans.
#[test]
fn portfolio_trace_shows_every_entrant_and_the_winners_phases() {
    let sys = programs::even();
    let recorder = Recorder::new();
    let guard = Guard::new().with_recorder(recorder.clone()).with_threads(4);
    let cfg = PortfolioConfig::default();
    let (answer, stats) = solve_portfolio_guarded(&sys, &cfg, &guard);
    assert!(!answer.is_interrupted(), "unbounded race cannot interrupt");

    let trace = recorder.snapshot();
    assert_integrity(&trace.spans);
    let race_span = trace
        .spans
        .iter()
        .find(|s| s.name == "race")
        .expect("race span");
    for name in ENTRANTS {
        assert!(
            trace
                .spans
                .iter()
                .any(|s| s.name == name && s.parent == Some(race_span.id)),
            "entrant {name} missing from the race span"
        );
    }
    // Losers may be cancelled before reaching any instrumented phase,
    // but the winner ran a full chain: it must have phase children.
    let winner = stats.winner_report().expect("Even is decided").name;
    let wspan = trace
        .spans
        .iter()
        .find(|s| s.name == winner && s.parent == Some(race_span.id))
        .expect("winner span");
    assert!(
        trace.spans.iter().any(|s| s.parent == Some(wspan.id)),
        "winning entrant {winner} recorded no phase spans"
    );
}
