//! Differential property tests pinning the sharded parallel saturation
//! engine to its sequential (inline, `threads = 1`) semantics.
//!
//! The engine's contract (see the `saturation` module docs) is that the
//! outcome is a pure function of the system and the budgets — never of
//! the worker count or schedule. These tests draw small systems *and
//! small budgets* (mid-round step/fact cuts are where nondeterminism
//! would hide) and require, at 2, 4 and 8 workers:
//!
//! * the same [`SaturationOutcome`] variant;
//! * the same fact list, in the same derivation order, with the same
//!   reconstructed ground arguments;
//! * the same pool size (terms interned, not just facts kept);
//! * bit-for-bit equal refutation certificates, which also replay;
//! * identical [`SaturationStats`] (rounds, facts, steps, pooled
//!   terms).

use proptest::prelude::*;
use ringen_chc::{parse_str, ChcSystem, PredId};
use ringen_core::saturation::{
    check_refutation, saturate_guarded, Refutation, SaturationConfig, SaturationOutcome,
    SaturationStats,
};
use ringen_parallel::Guard;
use ringen_terms::GroundTerm;

/// Small systems covering the engine's paths: pooled fast path, diseq /
/// tester constraints, the eq-constraint legacy path, free-variable
/// enumeration, multi-clause joins, and both SAT and UNSAT shapes.
fn systems() -> Vec<ChcSystem> {
    let sources = [
        // 0: SAT — even numbers, non-firing query.
        r#"
        (declare-datatypes ((Nat 0)) (((Z) (S (pre Nat)))))
        (declare-fun even (Nat) Bool)
        (assert (even Z))
        (assert (forall ((x Nat)) (=> (even x) (even (S (S x))))))
        (assert (forall ((x Nat)) (=> (and (even x) (even (S x))) false)))
        "#,
        // 1: UNSAT — the query eventually fires.
        r#"
        (declare-datatypes ((Nat 0)) (((Z) (S (pre Nat)))))
        (declare-fun even (Nat) Bool)
        (assert (even Z))
        (assert (forall ((x Nat)) (=> (even x) (even (S (S x))))))
        (assert (=> (even (S (S (S (S Z))))) false))
        "#,
        // 2: multi-clause join system — many clauses per round, facts
        // flowing between predicates (the sharded case).
        r#"
        (declare-datatypes ((Nat 0)) (((Z) (S (pre Nat)))))
        (declare-fun p (Nat) Bool)
        (declare-fun q (Nat) Bool)
        (declare-fun r (Nat Nat) Bool)
        (assert (p Z))
        (assert (forall ((x Nat)) (=> (p x) (p (S x)))))
        (assert (forall ((x Nat)) (=> (p (S x)) (q x))))
        (assert (forall ((x Nat) (y Nat)) (=> (and (p x) (q y)) (r x y))))
        (assert (forall ((x Nat)) (=> (r (S x) x) (q (S x)))))
        "#,
        // 3: UNSAT through a join + disequality constraint.
        r#"
        (declare-datatypes ((Nat 0)) (((Z) (S (pre Nat)))))
        (declare-fun p (Nat) Bool)
        (assert (p Z))
        (assert (p (S Z)))
        (assert (forall ((x Nat)) (=> (and (p x) (distinct x Z)) false)))
        "#,
        // 4: equality constraint — the legacy substitution path.
        r#"
        (declare-datatypes ((Nat 0)) (((Z) (S (pre Nat)))))
        (declare-fun p (Nat) Bool)
        (declare-fun d (Nat) Bool)
        (assert (p Z))
        (assert (forall ((x Nat)) (=> (p x) (p (S x)))))
        (assert (forall ((x Nat) (y Nat)) (=> (and (p x) (= x (S y))) (d y))))
        "#,
        // 5: a head variable unbound by the body — the free-variable
        // enumeration path, feeding a second predicate.
        r#"
        (declare-datatypes ((Nat 0)) (((Z) (S (pre Nat)))))
        (declare-fun seed (Nat) Bool)
        (declare-fun top (Nat) Bool)
        (assert (seed Z))
        (assert (forall ((x Nat)) (=> (seed Z) (top (S x)))))
        (assert (forall ((x Nat)) (=> (top x) (top (S x)))))
        "#,
        // 6: trees — branching terms stress scratch-pool sharing.
        r#"
        (declare-datatypes ((Tree 0)) (((leaf) (node (l Tree) (r Tree)))))
        (declare-fun t (Tree) Bool)
        (declare-fun pair (Tree Tree) Bool)
        (assert (t leaf))
        (assert (forall ((a Tree) (b Tree)) (=> (and (t a) (t b)) (t (node a b)))))
        (assert (forall ((a Tree) (b Tree)) (=> (and (t a) (t b)) (pair a b))))
        "#,
    ];
    sources
        .iter()
        .map(|s| parse_str(s).expect("template parses"))
        .collect()
}

/// Everything observable about an outcome, in comparable form.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Fingerprint {
    variant: &'static str,
    facts: Vec<(PredId, Vec<GroundTerm>)>,
    pooled_terms: usize,
    refutation: Option<Refutation>,
}

fn fingerprint(outcome: &SaturationOutcome) -> Fingerprint {
    match outcome {
        SaturationOutcome::Refuted(r) => Fingerprint {
            variant: "refuted",
            facts: Vec::new(),
            pooled_terms: 0,
            refutation: Some(r.clone()),
        },
        SaturationOutcome::Saturated(base) => Fingerprint {
            variant: "saturated",
            facts: base.ground_facts().collect(),
            pooled_terms: base.pool().len(),
            refutation: None,
        },
        SaturationOutcome::Budget(base) => Fingerprint {
            variant: "budget",
            facts: base.ground_facts().collect(),
            pooled_terms: base.pool().len(),
            refutation: None,
        },
        // Unreachable: a plain guard never trips.
        SaturationOutcome::Interrupted(base) => Fingerprint {
            variant: "interrupted",
            facts: base.ground_facts().collect(),
            pooled_terms: base.pool().len(),
            refutation: None,
        },
    }
}

fn run(sys: &ChcSystem, cfg: &SaturationConfig, threads: usize) -> (Fingerprint, SaturationStats) {
    let (outcome, stats) = saturate_guarded(sys, cfg, &Guard::new().with_threads(threads));
    (fingerprint(&outcome), stats)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Parallel saturation is bit-for-bit the sequential engine, under
    /// budgets tight enough to cut rounds mid-merge.
    #[test]
    fn parallel_matches_sequential(
        which in 0usize..7,
        max_facts in 1usize..60,
        max_steps in 1u64..4_000,
        max_rounds in 1usize..12,
        max_term_height in 2usize..8,
        free_var_candidates in 1usize..4,
    ) {
        let sys = systems().swap_remove(which);
        let cfg = SaturationConfig {
            max_facts,
            max_rounds,
            max_term_height,
            free_var_candidates,
            max_steps,
            ..SaturationConfig::default()
        };
        let (expect, expect_stats) = run(&sys, &cfg, 1);
        if let Some(r) = &expect.refutation {
            prop_assert!(check_refutation(&sys, r).is_ok());
        }
        for threads in [2usize, 4, 8] {
            let (got, got_stats) = run(&sys, &cfg, threads);
            prop_assert_eq!(&got, &expect, "threads = {}", threads);
            prop_assert_eq!(got_stats, expect_stats, "threads = {}", threads);
        }
    }

    /// Refutations found in parallel replay against the original
    /// system, whatever the budgets were.
    #[test]
    fn parallel_refutations_replay(
        max_facts in 4usize..60,
        max_steps in 50u64..4_000,
        threads in 2usize..9,
    ) {
        let sys = systems().swap_remove(1);
        let cfg = SaturationConfig {
            max_facts,
            max_steps,
            ..SaturationConfig::default()
        };
        let (outcome, _) = saturate_guarded(&sys, &cfg, &Guard::new().with_threads(threads));
        if let SaturationOutcome::Refuted(r) = outcome {
            prop_assert!(check_refutation(&sys, &r).is_ok());
        }
    }
}

/// The canonical UNSAT example, checked exactly: every thread count
/// produces the *same certificate*, and it replays.
#[test]
fn thread_counts_agree_on_the_even_refutation() {
    let sys = systems().swap_remove(1);
    let cfg = SaturationConfig::default();
    let (expect, expect_stats) = run(&sys, &cfg, 1);
    assert_eq!(expect.variant, "refuted");
    let r = expect.refutation.as_ref().expect("refuted");
    assert!(check_refutation(&sys, r).is_ok());
    for threads in [2usize, 3, 4, 8, 16] {
        let (got, got_stats) = run(&sys, &cfg, threads);
        assert_eq!(got, expect, "threads = {threads}");
        assert_eq!(got_stats, expect_stats, "threads = {threads}");
    }
}

/// A saturating run keeps its full fact base identical across thread
/// counts, including derivation order and pool size.
#[test]
fn thread_counts_agree_on_the_join_fixpoint() {
    let sys = systems().swap_remove(2);
    let cfg = SaturationConfig {
        max_facts: 120,
        max_term_height: 6,
        ..SaturationConfig::default()
    };
    let (expect, expect_stats) = run(&sys, &cfg, 1);
    assert!(!expect.facts.is_empty());
    for threads in [2usize, 4, 8] {
        let (got, got_stats) = run(&sys, &cfg, threads);
        assert_eq!(got, expect, "threads = {threads}");
        assert_eq!(got_stats, expect_stats, "threads = {threads}");
    }
}
