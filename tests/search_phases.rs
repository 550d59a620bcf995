//! Each engine's search phase must stand alone: run without the refute
//! phase in front of it (as portfolio entrants and `RegElem`'s nested
//! phases run it), it may fail to decide, but it must never contradict
//! the ground truth.
//!
//! The predicate-free regression below is the case that once slipped
//! through: the template sweeps answered SAT on any system without
//! predicates, trusting a refuter that only tries a handful of terms.

use std::collections::BTreeSet;
use std::time::Duration;

use ringen::automata::AutStore;
use ringen::benchgen::{full_evaluation, Expected};
use ringen::chc::{parse_str, to_smtlib, ChcSystem};
use ringen::core::{search_guarded, solve_guarded, Guard, RingenConfig};
use ringen::elem::{search_elem_guarded, solve_elem_guarded, ElemConfig};
use ringen::induction::{solve_induction, InductionConfig};
use ringen::portfolio::{solve_portfolio, PortfolioConfig};
use ringen::regelem::{search_regelem_guarded, solve_regelem_guarded, RegElemConfig};
use ringen::server::{Query, QueryVerdict, ServerConfig, SolveServer};
use ringen::sizeelem::{search_size_elem_guarded, solve_size_elem_guarded, SizeElemConfig};
use ringen::verimap::{solve_verimap_guarded, VerimapConfig};

/// Wall-clock budget per engine per system.
const DEADLINE: Duration = Duration::from_millis(25);

/// `(sat, unsat)` of every search-only entry point on `sys`, each under
/// its own deadline.
fn search_verdicts(sys: &ChcSystem, deadline: Duration) -> [(&'static str, bool, bool); 4] {
    let g = || Guard::with_deadline(deadline);
    let mut store = AutStore::new();
    let (fmf, _) = search_guarded(sys, &RingenConfig::quick().finder, &mut store, &g());
    let (elem, _) = search_elem_guarded(sys, &ElemConfig::quick().search, &g());
    let (size, _) = search_size_elem_guarded(sys, &SizeElemConfig::quick(), &g());
    let (regelem, _) = search_regelem_guarded(sys, &RegElemConfig::quick(), &g());
    [
        ("fmf", fmf.is_sat(), fmf.is_unsat()),
        ("elem", elem.is_sat(), elem.is_unsat()),
        ("sizeelem", size.is_sat(), size.is_unsat()),
        ("regelem", regelem.is_sat(), regelem.is_unsat()),
    ]
}

#[test]
fn search_phases_never_contradict_ground_truth() {
    let mut seen = BTreeSet::new();
    for b in full_evaluation() {
        if !seen.insert(to_smtlib(&b.system)) {
            continue;
        }
        for (who, sat, unsat) in search_verdicts(&b.system, DEADLINE) {
            assert!(!unsat, "{who}: a search phase refuted {}", b.name);
            if b.expected == Expected::Unsat {
                assert!(!sat, "{who}: search phase proved unsatisfiable {}", b.name);
            }
        }
    }
    assert_eq!(seen.len(), 111, "the corpus has 111 distinct systems");
}

/// `∀x. x ∉ {Z, S(Z), …, S^(n-1)(Z)} → ⊥`: no predicates, one query
/// clause, unsatisfiable for every `n` (x = Sⁿ(Z) fires the query).
fn diseq_system(n: usize) -> ChcSystem {
    let nat = |k: usize| (0..k).fold("Z".to_string(), |t, _| format!("(S {t})"));
    let body: Vec<String> = (0..n).map(|k| format!("(not (= x {}))", nat(k))).collect();
    parse_str(&format!(
        "(declare-datatypes ((Nat 0)) (((Z) (S (pre Nat)))))\n\
         (assert (forall ((x Nat)) (=> (and {}) false)))",
        body.join(" ")
    ))
    .expect("the system parses")
}

/// `(sat, unsat)` of every full engine, the race and the service.
fn every_path(sys: &ChcSystem) -> Vec<(&'static str, bool, bool)> {
    let deadline = Duration::from_millis(500);
    let g = || Guard::with_deadline(deadline);
    let mut store = AutStore::new();
    let (fmf, _) = solve_guarded(sys, &RingenConfig::default(), &mut store, &g());
    let (elem, _) = solve_elem_guarded(sys, &ElemConfig::default(), &g());
    let (size, _) = solve_size_elem_guarded(sys, &SizeElemConfig::default(), &g());
    let (regelem, _) = solve_regelem_guarded(sys, &RegElemConfig::default(), &g());
    let (verimap, _) =
        solve_verimap_guarded(sys, &VerimapConfig::default(), &g()).expect("well-sorted");
    let (induction, _) = solve_induction(sys, &InductionConfig::default()).expect("well-sorted");
    let (race, _) = solve_portfolio(
        sys,
        &PortfolioConfig {
            deadline: Some(deadline),
            ..PortfolioConfig::default()
        },
    );
    let server = SolveServer::new(ServerConfig {
        query_deadline: Some(deadline),
        retries: 0,
        ..ServerConfig::default()
    });
    let served = server
        .submit(&Query::new("diseq", to_smtlib(sys)))
        .verdict()
        .expect("a well-formed query is solved");
    vec![
        ("fmf", fmf.is_sat(), fmf.is_unsat()),
        ("elem", elem.is_sat(), elem.is_unsat()),
        ("sizeelem", size.is_sat(), size.is_unsat()),
        ("regelem", regelem.is_sat(), regelem.is_unsat()),
        ("verimap", verimap.is_sat(), verimap.is_unsat()),
        ("induction", induction.is_sat(), induction.is_unsat()),
        ("portfolio", race.is_sat(), race.is_unsat()),
        (
            "server",
            served == QueryVerdict::Sat,
            served == QueryVerdict::Unsat,
        ),
    ]
}

#[test]
fn predicate_free_unsat_system_is_never_sat() {
    // Eight disequalities outrun the refuter's candidate terms, so no
    // path can refute it — but none may call it safe either.
    let sys = diseq_system(8);
    for (who, sat, _) in every_path(&sys) {
        assert!(!sat, "{who} answered sat on the 8-disequality system");
    }
    for (who, sat, _) in search_verdicts(&sys, Duration::from_millis(500)) {
        assert!(
            !sat,
            "{who} search answered sat on the 8-disequality system"
        );
    }
    // Five are within reach: every full path refutes it.
    let sys = diseq_system(5);
    for (who, _, unsat) in every_path(&sys) {
        assert!(unsat, "{who} did not refute the 5-disequality system");
    }
    for (who, sat, _) in search_verdicts(&sys, Duration::from_millis(500)) {
        assert!(
            !sat,
            "{who} search answered sat on the 5-disequality system"
        );
    }
}
