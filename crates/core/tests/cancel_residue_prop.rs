//! Cancellation leaves no residue.
//!
//! Property tests for the cooperative-cancellation contract: a solve
//! cut off by its [`Guard`] at an *arbitrary* point (random
//! deterministic fuel) must (a) come home as `Interrupted` rather than
//! panicking or corrupting anything, and (b) leave every piece of
//! shared state — the [`AutStore`] a solve verifies against, the term
//! pool inside the saturation fact base — in a state where re-running
//! the same system *uncancelled* is bit-identical to a fresh solve on
//! fresh state.

use proptest::prelude::*;
use ringen_automata::AutStore;
use ringen_chc::{parse_str, ChcSystem};
use ringen_core::saturation::{saturate_guarded, SaturationConfig, SaturationOutcome};
use ringen_core::{solve_guarded, Guard, RingenConfig};

/// Small systems exercising both SAT and UNSAT paths of the pipeline.
fn systems() -> Vec<ChcSystem> {
    let sources = [
        // SAT — even numbers, regular invariant.
        r#"
        (declare-datatypes ((Nat 0)) (((Z) (S (pre Nat)))))
        (declare-fun even (Nat) Bool)
        (assert (even Z))
        (assert (forall ((x Nat)) (=> (even x) (even (S (S x))))))
        (assert (forall ((x Nat)) (=> (and (even x) (even (S x))) false)))
        "#,
        // UNSAT — the query fires after a few rounds.
        r#"
        (declare-datatypes ((Nat 0)) (((Z) (S (pre Nat)))))
        (declare-fun even (Nat) Bool)
        (assert (even Z))
        (assert (forall ((x Nat)) (=> (even x) (even (S (S x))))))
        (assert (=> (even (S (S (S (S Z))))) false))
        "#,
        // SAT — multi-predicate joins keep the refuter busy for several
        // rounds before the finder takes over.
        r#"
        (declare-datatypes ((Nat 0)) (((Z) (S (pre Nat)))))
        (declare-fun p (Nat) Bool)
        (declare-fun q (Nat) Bool)
        (declare-fun r (Nat Nat) Bool)
        (assert (p Z))
        (assert (forall ((x Nat)) (=> (p x) (p (S x)))))
        (assert (forall ((x Nat)) (=> (p (S x)) (q x))))
        (assert (forall ((x Nat) (y Nat)) (=> (and (p x) (q y)) (r x y))))
        "#,
    ];
    sources
        .iter()
        .map(|s| parse_str(s).expect("template parses"))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Cancel a full solve at a random fuel level against a shared
    /// `AutStore`, then re-run uncancelled **on the same store**: the
    /// answer and statistics must be bit-identical (via their `Debug`
    /// forms, which expose every field) to a fresh solve on a fresh
    /// store. A cancelled run may warm the store's memo tables, but it
    /// must never change what a later run computes.
    #[test]
    fn cancelled_solve_leaves_the_store_without_residue(
        which in 0usize..3,
        fuel in 0u64..300,
        threads_idx in 0usize..2,
    ) {
        let threads = [1usize, 4][threads_idx];
        let sys = systems().swap_remove(which);
        let cfg = RingenConfig::quick();
        let fresh = || Guard::new().with_threads(threads);

        // Fresh solve on a fresh store: the reference result.
        let mut fresh_store = AutStore::new();
        let (expect_answer, expect_stats) =
            solve_guarded(&sys, &cfg, &mut fresh_store, &fresh());
        let expect = format!("{expect_answer:?} / {expect_stats:?}");

        // Cancelled solve at an arbitrary point, on the shared store.
        let mut store = AutStore::new();
        let g = Guard::with_fuel(fuel).with_threads(threads);
        let (cancelled_answer, _) = solve_guarded(&sys, &cfg, &mut store, &g);
        if g.is_cancelled() {
            prop_assert!(
                cancelled_answer.is_interrupted(),
                "tripped guard must yield Interrupted, got {:?}",
                cancelled_answer
            );
        } else {
            // Enough fuel: the run completed and must already match.
            let got = format!("{cancelled_answer:?}");
            let want = format!("{expect_answer:?}");
            prop_assert_eq!(got, want);
        }

        // Uncancelled re-run on the *same* store.
        let (answer, stats) = solve_guarded(&sys, &cfg, &mut store, &fresh());
        prop_assert_eq!(format!("{answer:?} / {stats:?}"), expect);
    }

    /// Cancel saturation alone at a random fuel level: the partial fact
    /// base is a *prefix* of the uncancelled run's fact list (whole
    /// in-flight rounds are discarded, never half-merged), and an
    /// uncancelled re-run reproduces the fresh result exactly.
    #[test]
    fn cancelled_saturation_facts_are_a_prefix_of_the_full_run(
        which in 0usize..3,
        fuel in 0u64..200,
        threads_idx in 0usize..2,
    ) {
        let threads = [1usize, 4][threads_idx];
        let sys = systems().swap_remove(which);
        let cfg = SaturationConfig::default();
        let (full, full_stats) = saturate_guarded(&sys, &cfg, &Guard::new().with_threads(threads));
        let full_facts = match &full {
            SaturationOutcome::Refuted(_) => None,
            SaturationOutcome::Saturated(base)
            | SaturationOutcome::Budget(base)
            | SaturationOutcome::Interrupted(base) => {
                Some(base.ground_facts().collect::<Vec<_>>())
            }
        };

        let g = Guard::with_fuel(fuel).with_threads(threads);
        let (cancelled, cancelled_stats) = saturate_guarded(&sys, &cfg, &g);
        match cancelled {
            SaturationOutcome::Interrupted(base) => {
                prop_assert!(g.is_cancelled());
                // Partial stats are consistent with the partial base.
                prop_assert_eq!(cancelled_stats.facts, base.len());
                if let Some(full_facts) = &full_facts {
                    let partial: Vec<_> = base.ground_facts().collect();
                    prop_assert!(partial.len() <= full_facts.len());
                    prop_assert_eq!(&partial[..], &full_facts[..partial.len()]);
                }
            }
            _ => {
                // Not cancelled in time: the outcome must equal the
                // fresh run's, bit for bit.
                prop_assert_eq!(
                    format!("{cancelled:?} / {cancelled_stats:?}"),
                    format!("{full:?} / {full_stats:?}")
                );
            }
        }

        // And a fresh, unguarded run afterwards is still identical —
        // cancellation touched nothing global.
        let (again, again_stats) = saturate_guarded(&sys, &cfg, &Guard::new().with_threads(threads));
        prop_assert_eq!(
            format!("{again:?} / {again_stats:?}"),
            format!("{full:?} / {full_stats:?}")
        );
    }
}
