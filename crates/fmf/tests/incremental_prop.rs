//! Differential property tests: the incremental (shared-solver,
//! assumption-selected, grown one element per size step) sweep against
//! the one-shot reference path (`RINGEN_FMF_INCREMENTAL=0`) on random
//! CHC systems.
//!
//! The contract: same verdict on every system, same first-model size
//! vector, same skip decisions — the extracted models may differ only
//! in which (equally minimal, when shrinking) witness they pick, and
//! both must satisfy the system. The wide-budget and two-sort cases
//! sweep totals of 12–16, so the lazy encoding crosses many growth
//! steps, on more than one sort, and past vectors the skip rule drops.

use proptest::prelude::*;

use ringen_chc::{ChcSystem, SystemBuilder};
use ringen_fmf::{find_model, FinderConfig, FmfOutcome};
use ringen_terms::Term;

/// A term of one sort: `succ^iters(base)` where the base is either the
/// sort's constant or one of the clause's variables of that sort. In a
/// two-sort system a `cross` term's base instead goes through the
/// other sort: `C(·)` or `D(·)` applied to a variable (or the constant)
/// of that sort. A base variable the sort lacks falls back to the
/// constant.
#[derive(Debug, Clone)]
struct TermDesc {
    base: Option<usize>,
    iters: usize,
    cross: bool,
}

#[derive(Debug, Clone)]
struct AtomDesc {
    pred: usize,
    args: Vec<TermDesc>,
}

#[derive(Debug, Clone)]
struct ClauseDesc {
    /// Variables per sort.
    nvars: [usize; 2],
    body: Vec<AtomDesc>,
    head: Option<AtomDesc>,
    /// An equality between two terms of the given sort.
    eq: Option<(usize, TermDesc, TermDesc)>,
}

/// Argument sorts of the predicates: sort 0 is `Nat` (`Z`, `S`, and
/// `C: Tok → Nat` in two-sort systems), sort 1 is `Tok` (`T`, `N`,
/// `D: Nat → Tok`). One-sort systems use only `p` and `q`.
const PRED_SORTS: [&[usize]; 4] = [&[0], &[0, 0], &[1], &[0, 1]];

fn term_desc(nvars: usize) -> impl Strategy<Value = TermDesc> {
    (0..=nvars, 0usize..=2, 0u8..4).prop_map(move |(b, iters, c)| TermDesc {
        base: b.checked_sub(1),
        iters,
        cross: c == 0,
    })
}

fn atom_desc(nvars: usize, sorts: usize) -> impl Strategy<Value = AtomDesc> {
    (0..2 * sorts).prop_flat_map(move |pred| {
        proptest::collection::vec(term_desc(nvars), PRED_SORTS[pred].len())
            .prop_map(move |args| AtomDesc { pred, args })
    })
}

fn clause_desc(sorts: usize) -> impl Strategy<Value = ClauseDesc> {
    (0usize..=2, 0..sorts).prop_flat_map(move |(nat_vars, tok_vars)| {
        let nvars = [nat_vars, tok_vars];
        let most = nat_vars.max(tok_vars);
        (
            proptest::collection::vec(atom_desc(most, sorts), 0..=2),
            proptest::option::of(atom_desc(most, sorts)),
            proptest::option::of((0..sorts, term_desc(most), term_desc(most))),
        )
            .prop_map(move |(body, head, eq)| ClauseDesc {
                nvars,
                body,
                head,
                eq,
            })
    })
}

fn build_system(clauses: &[ClauseDesc], sorts: usize) -> ChcSystem {
    let mut b = SystemBuilder::new();
    let mut sort_ids = vec![b.sort("Nat")];
    let mut ctors = vec![(
        b.ctor("Z", vec![], sort_ids[0]),
        b.ctor("S", vec![sort_ids[0]], sort_ids[0]),
    )];
    let mut cross = Vec::new();
    if sorts == 2 {
        sort_ids.push(b.sort("Tok"));
        ctors.push((
            b.ctor("T", vec![], sort_ids[1]),
            b.ctor("N", vec![sort_ids[1]], sort_ids[1]),
        ));
        cross.push(b.ctor("C", vec![sort_ids[1]], sort_ids[0]));
        cross.push(b.ctor("D", vec![sort_ids[0]], sort_ids[1]));
    }
    let names = ["p", "q", "r", "t"];
    let preds: Vec<_> = PRED_SORTS[..2 * sorts]
        .iter()
        .zip(names)
        .map(|(args, name)| b.pred(name, args.iter().map(|&s| sort_ids[s]).collect()))
        .collect();
    for cd in clauses {
        b.clause(|c| {
            let names = [["x0", "x1"], ["y0", "y1"]];
            let vars: Vec<Vec<_>> = (0..sorts)
                .map(|s| {
                    (0..cd.nvars[s])
                        .map(|i| c.var(names[s][i], sort_ids[s]))
                        .collect()
                })
                .collect();
            let leaf = |c: &ringen_chc::ClauseBuilder, s: usize, base: Option<usize>| -> Term {
                match base.filter(|&i| i < vars[s].len()) {
                    Some(i) => c.v(vars[s][i]),
                    None => c.app0(ctors[s].0),
                }
            };
            let term = |c: &ringen_chc::ClauseBuilder, s: usize, t: &TermDesc| -> Term {
                let base = if t.cross && sorts == 2 {
                    c.app(cross[s], vec![leaf(c, 1 - s, t.base)])
                } else {
                    leaf(c, s, t.base)
                };
                Term::iterate(ctors[s].1, base, t.iters)
            };
            let atom = |c: &ringen_chc::ClauseBuilder, a: &AtomDesc| -> Vec<Term> {
                a.args
                    .iter()
                    .zip(PRED_SORTS[a.pred])
                    .map(|(t, &s)| term(c, s, t))
                    .collect()
            };
            for a in &cd.body {
                let args = atom(c, a);
                c.body(preds[a.pred], args);
            }
            if let Some(a) = &cd.head {
                let args = atom(c, a);
                c.head(preds[a.pred], args);
            }
            if let Some((s, l, r)) = &cd.eq {
                let tl = term(c, *s, l);
                let tr = term(c, *s, r);
                c.eq(tl, tr);
            }
        });
    }
    b.finish()
}

fn config(incremental: bool, minimize: bool) -> FinderConfig {
    FinderConfig {
        max_total_size: 4,
        incremental,
        minimize,
        ..FinderConfig::default()
    }
}

fn verdict(o: &FmfOutcome) -> &'static str {
    match o {
        FmfOutcome::Model(_) => "model",
        FmfOutcome::Exhausted => "exhausted",
        FmfOutcome::Interrupted => "interrupted",
    }
}

/// Runs both sweeps under `cfg` (with `incremental` overridden) and
/// checks the differential contract.
fn sweeps_agree(sys: &ChcSystem, cfg: &FinderConfig) -> Result<(), TestCaseError> {
    let run = |incremental| {
        find_model(
            sys,
            &FinderConfig {
                incremental,
                ..cfg.clone()
            },
        )
        .unwrap()
    };
    let ((oi, si), (oo, so)) = (run(true), run(false));
    prop_assert_eq!(verdict(&oi), verdict(&oo));
    prop_assert_eq!(si.vectors_tried, so.vectors_tried);
    prop_assert_eq!(si.skipped_too_large, so.skipped_too_large);
    if let (FmfOutcome::Model(mi), FmfOutcome::Model(mo)) = (oi, oo) {
        prop_assert_eq!(mi.sizes(), mo.sizes());
        prop_assert!(mi.satisfies(sys));
        prop_assert!(mo.satisfies(sys));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Incremental and one-shot sweeps answer identically on random
    /// systems, with minimization on (the default configuration).
    #[test]
    fn incremental_matches_one_shot(clauses in proptest::collection::vec(clause_desc(1), 1..=5)) {
        sweeps_agree(&build_system(&clauses, 1), &config(true, true))?;
    }

    /// The agreement is independent of minimization: with shrinking off,
    /// the two paths still reach the same verdict at the same vector.
    #[test]
    fn agreement_survives_minimize_off(clauses in proptest::collection::vec(clause_desc(1), 1..=4)) {
        let sys = build_system(&clauses, 1);
        let (oi, si) = find_model(&sys, &config(true, false)).unwrap();
        let (oo, so) = find_model(&sys, &config(false, false)).unwrap();
        prop_assert_eq!(verdict(&oi), verdict(&oo));
        prop_assert_eq!(si.vectors_tried, so.vectors_tried);
        if let (FmfOutcome::Model(mi), FmfOutcome::Model(mo)) = (oi, oo) {
            prop_assert_eq!(mi.sizes(), mo.sizes());
            prop_assert!(mi.satisfies(&sys));
            prop_assert!(mo.satisfies(&sys));
        }
    }

    /// Minimization never changes the verdict or the first-model size
    /// vector — it only shrinks the predicate extension.
    #[test]
    fn minimization_preserves_the_verdict(clauses in proptest::collection::vec(clause_desc(1), 1..=4)) {
        let sys = build_system(&clauses, 1);
        let (om, sm) = find_model(&sys, &config(true, true)).unwrap();
        let (or, sr) = find_model(&sys, &config(true, false)).unwrap();
        prop_assert_eq!(verdict(&om), verdict(&or));
        prop_assert_eq!(sm.vectors_tried, sr.vectors_tried);
        if let (FmfOutcome::Model(mm), FmfOutcome::Model(mr)) = (om, or) {
            prop_assert_eq!(mm.sizes(), mr.sizes());
            let atoms = |m: &ringen_fmf::FiniteModel| -> usize {
                sys.rels.iter().map(|p| m.pred_table(p).count()).sum()
            };
            prop_assert!(atoms(&mm) <= atoms(&mr));
            prop_assert!(mm.satisfies(&sys));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Wide budgets on one sort: the sweep reaches totals of 12–16, so
    /// exhausting systems grow the encoding through every element. The
    /// instance bound keeps the one-shot reference's per-vector
    /// regrounding affordable; vectors above it are skipped by both.
    #[test]
    fn lazy_growth_matches_one_shot_on_wide_budgets(
        clauses in proptest::collection::vec(clause_desc(1), 1..=4),
        max_total_size in 12usize..=16,
    ) {
        let cfg = FinderConfig {
            max_total_size,
            max_ground_instances: 20_000,
            ..config(true, true)
        };
        sweeps_agree(&build_system(&clauses, 1), &cfg)?;
    }

    /// Two sorts grow independently, in the order the size vectors
    /// visit them, and a tight instance bound makes the skip rule drop
    /// many vectors — which must never grow the encoding.
    #[test]
    fn lazy_growth_matches_one_shot_over_two_sorts(
        clauses in proptest::collection::vec(clause_desc(2), 1..=5),
        max_total_size in 12usize..=16,
        tight in any::<bool>(),
    ) {
        let cfg = FinderConfig {
            max_total_size,
            max_ground_instances: if tight { 500 } else { 20_000 },
            ..config(true, true)
        };
        sweeps_agree(&build_system(&clauses, 2), &cfg)?;
    }
}
