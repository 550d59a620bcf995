//! Differential property tests pinning the semi-naive, delta-driven
//! saturation engine to the naive reference matcher
//! (`RINGEN_SAT_SEMINAIVE=0` / [`SaturationConfig::semi_naive`] =
//! `false`), at every thread count.
//!
//! The engines' contract (see the `saturation` module docs) is that
//! outcome variant, fact list (content *and* derivation order),
//! reconstructed ground arguments, pool size, refutation certificate,
//! and the `rounds`/`facts`/`pooled_terms` statistics are identical.
//! `steps` and `candidates` are intentionally *not* compared across
//! engines: they measure the matching work actually done, and doing
//! less of it is the semi-naive engine's entire purpose. For the same
//! reason the property tests keep `max_steps` generous — a step budget
//! that cuts one engine mid-round cannot cut the other at the same
//! place — while `max_facts`, `max_rounds`, and the height cap are
//! drawn tight (mid-round fact-cap truncation is exactly where the
//! dirty-clause replay logic must reproduce the naive engine).

use proptest::prelude::*;
use ringen_chc::{parse_str, ChcSystem, PredId};
use ringen_core::saturation::{
    check_refutation, saturate_guarded, Refutation, SaturationConfig, SaturationOutcome,
};
use ringen_parallel::Guard;
use ringen_terms::GroundTerm;

/// Small systems covering the engine's paths: pooled fast path, diseq /
/// tester constraints, the eq-constraint legacy path, free-variable
/// enumeration, multi-clause joins (including clauses that derive the
/// same facts — the cross-clause dedup the dirty replay depends on),
/// and both SAT and UNSAT shapes.
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
        // 1: UNSAT — the query eventually fires (multi-round delta).
        r#"
        (declare-datatypes ((Nat 0)) (((Z) (S (pre Nat)))))
        (declare-fun even (Nat) Bool)
        (assert (even Z))
        (assert (forall ((x Nat)) (=> (even x) (even (S (S x))))))
        (assert (=> (even (S (S (S (S Z))))) false))
        "#,
        // 2: multi-clause join system — several predicates feeding each
        // other, 1- and 2-atom bodies, a join whose variants overlap.
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
        // 6: trees — branching terms stress scratch-pool sharing and
        // the 2-atom variants' old × delta split.
        r#"
        (declare-datatypes ((Tree 0)) (((leaf) (node (l Tree) (r Tree)))))
        (declare-fun t (Tree) Bool)
        (declare-fun pair (Tree Tree) Bool)
        (assert (t leaf))
        (assert (forall ((a Tree) (b Tree)) (=> (and (t a) (t b)) (t (node a b)))))
        (assert (forall ((a Tree) (b Tree)) (=> (and (t a) (t b)) (pair a b))))
        "#,
        // 7: two clauses deriving overlapping facts into one predicate
        // — under a tight fact cap one clause's worker truncates while
        // the merge dedups below the cap, forcing the dirty replay.
        r#"
        (declare-datatypes ((Nat 0)) (((Z) (S (pre Nat)))))
        (declare-fun p (Nat) Bool)
        (declare-fun q (Nat) Bool)
        (assert (p Z))
        (assert (forall ((x Nat)) (=> (p x) (p (S x)))))
        (assert (forall ((x Nat)) (=> (p x) (q x))))
        (assert (forall ((x Nat)) (=> (p (S x)) (q x))))
        (assert (forall ((x Nat)) (=> (q x) (q (S x)))))
        "#,
    ];
    sources
        .iter()
        .map(|s| parse_str(s).expect("template parses"))
        .collect()
}

/// Everything the engines must agree on, in comparable form.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Fingerprint {
    variant: &'static str,
    facts: Vec<(PredId, Vec<GroundTerm>)>,
    pooled_terms: usize,
    refutation: Option<Refutation>,
    rounds: usize,
    fact_count: usize,
    stat_pooled_terms: usize,
}

fn run(sys: &ChcSystem, cfg: &SaturationConfig, semi: bool, threads: usize) -> Fingerprint {
    let cfg = SaturationConfig {
        semi_naive: semi,
        ..cfg.clone()
    };
    let (outcome, stats) = saturate_guarded(sys, &cfg, &Guard::new().with_threads(threads));
    let (variant, facts, pooled_terms, refutation) = match outcome {
        SaturationOutcome::Refuted(r) => ("refuted", Vec::new(), 0, Some(r)),
        SaturationOutcome::Saturated(base) => (
            "saturated",
            base.ground_facts().collect(),
            base.pool().len(),
            None,
        ),
        SaturationOutcome::Budget(base) => (
            "budget",
            base.ground_facts().collect(),
            base.pool().len(),
            None,
        ),
        // Unreachable: a plain guard never trips.
        SaturationOutcome::Interrupted(base) => (
            "interrupted",
            base.ground_facts().collect(),
            base.pool().len(),
            None,
        ),
    };
    Fingerprint {
        variant,
        facts,
        pooled_terms,
        refutation,
        rounds: stats.rounds,
        fact_count: stats.facts,
        stat_pooled_terms: stats.pooled_terms,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The semi-naive engine is the naive engine, observably — at
    /// every thread count, under budgets tight enough to truncate
    /// rounds mid-merge on the fact cap.
    #[test]
    fn semi_naive_matches_naive(
        which in 0usize..8,
        max_facts in 1usize..60,
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
            max_steps: 1_000_000,
            ..SaturationConfig::default()
        };
        let expect = run(&sys, &cfg, false, 1);
        if let Some(r) = &expect.refutation {
            prop_assert!(check_refutation(&sys, r).is_ok());
        }
        for threads in [1usize, 2, 4, 8] {
            let naive = run(&sys, &cfg, false, threads);
            prop_assert_eq!(&naive, &expect, "naive, threads = {}", threads);
            let semi = run(&sys, &cfg, true, threads);
            prop_assert_eq!(&semi, &expect, "semi-naive, threads = {}", threads);
        }
    }

    /// Semi-naive refutations replay against the original system,
    /// whatever the budgets were.
    #[test]
    fn semi_naive_refutations_replay(
        max_facts in 4usize..60,
        max_steps in 50u64..4_000,
        threads in 1usize..9,
    ) {
        let sys = systems().swap_remove(1);
        let cfg = SaturationConfig {
            max_facts,
            max_steps,
            semi_naive: true,
            ..SaturationConfig::default()
        };
        let (outcome, _) = saturate_guarded(&sys, &cfg, &Guard::new().with_threads(threads));
        if let SaturationOutcome::Refuted(r) = outcome {
            prop_assert!(check_refutation(&sys, &r).is_ok());
        }
    }
}

/// A 2-atom recursive clause (`p(x) ∧ e(x, y) → p(y)` over an edge
/// chain) derives each fact **exactly once** under the semi-naive
/// engine: the merged candidate count equals the fact count — no
/// derivation is ever re-attempted — while the naive engine re-derives
/// the whole closure every round.
#[test]
fn two_atom_recursion_derives_each_fact_exactly_once() {
    let sys = parse_str(
        r#"
        (declare-datatypes ((Nat 0)) (((Z) (S (pre Nat)))))
        (declare-fun e (Nat Nat) Bool)
        (declare-fun p (Nat) Bool)
        (assert (e Z (S Z)))
        (assert (e (S Z) (S (S Z))))
        (assert (e (S (S Z)) (S (S (S Z)))))
        (assert (e (S (S (S Z))) (S (S (S (S Z))))))
        (assert (p Z))
        (assert (forall ((x Nat) (y Nat)) (=> (and (p x) (e x y)) (p y))))
        "#,
    )
    .unwrap();
    let cfg = |semi: bool| SaturationConfig {
        semi_naive: semi,
        ..SaturationConfig::default()
    };
    let inline = Guard::new().with_threads(1);
    let (semi_outcome, semi_stats) = saturate_guarded(&sys, &cfg(true), &inline);
    let (naive_outcome, naive_stats) = saturate_guarded(&sys, &cfg(false), &inline);
    let (semi_base, naive_base) = match (semi_outcome, naive_outcome) {
        (SaturationOutcome::Saturated(a), SaturationOutcome::Saturated(b)) => (a, b),
        other => panic!("chain system must saturate, got {other:?}"),
    };
    assert_eq!(
        semi_base.ground_facts().collect::<Vec<_>>(),
        naive_base.ground_facts().collect::<Vec<_>>(),
    );
    // 4 edges + 5 p-facts, every one derived by a unique clause
    // instance: the semi-naive engine attempts each exactly once — no
    // duplicate delta attempts.
    assert_eq!(semi_stats.facts as u64, semi_stats.candidates);
    // The naive engine's per-round full rescans show up as matching
    // work: it rematches every old tuple each round, the semi-naive
    // engine never does.
    assert!(
        naive_stats.steps > semi_stats.steps,
        "semi-naive must do less matching work: naive {} vs semi {}",
        naive_stats.steps,
        semi_stats.steps,
    );
    assert_eq!(semi_stats.rounds, naive_stats.rounds);
    assert_eq!(semi_stats.facts, naive_stats.facts);
}

/// The canonical UNSAT example, checked exactly: both engines at every
/// thread count produce the *same certificate*, and it replays.
#[test]
fn engines_and_thread_counts_agree_on_the_even_refutation() {
    let sys = systems().swap_remove(1);
    let cfg = SaturationConfig::default();
    let expect = run(&sys, &cfg, false, 1);
    assert_eq!(expect.variant, "refuted");
    let r = expect.refutation.as_ref().expect("refuted");
    assert!(check_refutation(&sys, r).is_ok());
    for semi in [false, true] {
        for threads in [1usize, 2, 4, 8] {
            let got = run(&sys, &cfg, semi, threads);
            assert_eq!(got, expect, "semi = {semi}, threads = {threads}");
        }
    }
}

/// A tight fact cap that truncates a clause whose facts another clause
/// also derives: the dirty full-rescan replay must reproduce the naive
/// engine's recovery exactly (this is the hazard case for the
/// "all-old tuples derive nothing new" invariant).
#[test]
fn fact_cap_truncation_with_cross_clause_dedup_matches_naive() {
    let sys = systems().swap_remove(7);
    for max_facts in 1..40 {
        let cfg = SaturationConfig {
            max_facts,
            max_rounds: 10,
            max_term_height: 6,
            max_steps: 1_000_000,
            ..SaturationConfig::default()
        };
        let expect = run(&sys, &cfg, false, 1);
        for threads in [1usize, 4] {
            let got = run(&sys, &cfg, true, threads);
            assert_eq!(got, expect, "max_facts = {max_facts}, threads = {threads}");
        }
    }
}
