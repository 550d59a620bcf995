//! The `RegElem` invariant solver.
//!
//! §8's discussion ends with the conjecture that "a hybrid approach to
//! infer invariants in parts by automata and in parts by FOL should
//! exhibit the best performance"; §7's future work names first-order
//! languages with regular membership predicates as the class that
//! subsumes both `Reg` and `Elem`. This solver realizes the
//! combination in three phases:
//!
//! 1. **Regular phase** — the RInGen pipeline's search phase
//!    (finite-model finding). A success embeds via
//!    [`RegElemInvariant::from_regular`].
//! 2. **Elementary phase** — the template sweep of `ringen-elem`.
//!    A success embeds via [`RegElemInvariant::from_elem`].
//! 3. **Combined phase** — genuinely mixed candidates `φ ∧ #i ∈ L`
//!    with `φ` from the elementary template pool and `L` from the
//!    enumerated language pool of [`crate::enumerate`], certified by
//!    the sound inductiveness check of [`crate::invariant`]. This is
//!    the phase that solves programs like `EvenDiag`, whose only safe
//!    inductive invariants live outside `Reg ∪ Elem ∪ SizeElem`.
//!
//! Unsafe systems are refuted up front, once, by the refute phase every
//! engine shares ([`ringen_core::refute`]); the three phases above are
//! search only. Every budget is a deterministic step count.

use std::collections::BTreeMap;

use ringen_automata::AutStore;
use ringen_chc::{ChcSystem, PredId};
use ringen_core::saturation::{Refutation, SaturationConfig};
use ringen_core::{
    refute_guarded, search_guarded as search_regular, Answer, FinderConfig, Guard, Poller, Refuted,
    RingenConfig,
};
use ringen_elem::search::for_each_composition;
use ringen_elem::{candidates, search_elem_guarded, ElemAnswer, ElemSearchConfig, TemplateConfig};
use ringen_parallel::{ParallelConfig, Pool};
use ringen_terms::{Term, VarId};

use crate::dp::DpBudget;
use crate::enumerate::{enumerate_langs_in, LangPoolConfig};
use crate::formula::{RegElemFormula, RegLiteral};
use crate::invariant::{check_inductive_in, RegElemCheck, RegElemInvariant};

/// Which phase produced a SAT answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Provenance {
    /// Finite-model finding (`Reg ⊆ RegElem`).
    Regular,
    /// Elementary templates (`Elem ⊆ RegElem`).
    Elementary,
    /// A genuinely mixed template-plus-membership candidate.
    Combined,
}

/// Budgets for [`solve_regelem`].
#[derive(Debug, Clone)]
pub struct RegElemConfig {
    /// Refuter budgets (shared with the other solvers).
    pub saturation: SaturationConfig,
    /// Run the regular phase, with these model-search budgets.
    pub regular: Option<FinderConfig>,
    /// Run the elementary phase, with these template-sweep budgets.
    pub elementary: Option<ElemSearchConfig>,
    /// Elementary template pool of the combined phase.
    pub templates: TemplateConfig,
    /// Language pool of the combined phase.
    pub langs: LangPoolConfig,
    /// Elementary templates that get membership conjuncts (taken from
    /// the front of the pool).
    pub combine_prefix: usize,
    /// Maximum candidate assignments in the combined phase.
    pub max_assignments: u64,
    /// DNF distribution cap during inductiveness checking.
    pub dnf_cap: usize,
    /// Resource guards of the cube procedure.
    pub dp_budget: DpBudget,
}

impl Default for RegElemConfig {
    fn default() -> Self {
        RegElemConfig {
            saturation: SaturationConfig::default(),
            regular: Some(RingenConfig::quick().finder),
            elementary: Some(ElemSearchConfig::quick()),
            templates: TemplateConfig::default(),
            langs: LangPoolConfig::default(),
            combine_prefix: 24,
            max_assignments: 50_000,
            dnf_cap: 64,
            dp_budget: DpBudget::default(),
        }
    }
}

impl RegElemConfig {
    /// Small-budget configuration for batch benchmarking.
    pub fn quick() -> Self {
        RegElemConfig {
            saturation: SaturationConfig {
                max_facts: 4_000,
                max_rounds: 32,
                max_term_height: 16,
                free_var_candidates: 6,
                max_steps: 400_000,
                ..SaturationConfig::default()
            },
            max_assignments: 20_000,
            ..RegElemConfig::default()
        }
    }
}

/// The solver's verdict.
#[derive(Debug, Clone)]
pub enum RegElemAnswer {
    /// Safe, with a certified `RegElem` invariant.
    Sat(Box<RegElemInvariant>, Provenance),
    /// Unsafe, with a ground refutation.
    Unsat(Refutation),
    /// Budgets exhausted.
    Unknown,
    /// The search was cancelled by its [`Guard`]; [`RegElemStats`]
    /// still reflects the work completed.
    Interrupted,
}

impl RegElemAnswer {
    /// `true` for [`RegElemAnswer::Sat`].
    pub fn is_sat(&self) -> bool {
        matches!(self, RegElemAnswer::Sat(..))
    }

    /// `true` for [`RegElemAnswer::Unsat`].
    pub fn is_unsat(&self) -> bool {
        matches!(self, RegElemAnswer::Unsat(_))
    }

    /// `true` for [`RegElemAnswer::Unknown`].
    pub fn is_unknown(&self) -> bool {
        matches!(self, RegElemAnswer::Unknown)
    }

    /// `true` for [`RegElemAnswer::Interrupted`].
    pub fn is_interrupted(&self) -> bool {
        matches!(self, RegElemAnswer::Interrupted)
    }
}

/// Search statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct RegElemStats {
    /// Combined-phase candidate assignments checked.
    pub assignments: u64,
    /// Size of the per-predicate candidate pools (product capped at
    /// `u64::MAX`).
    pub pool_total: u64,
    /// Languages enumerated across all argument positions.
    pub langs: usize,
    /// Automaton-store accounting for the whole solve (the evidence
    /// that the solver loop goes through the memoized Boolean algebra).
    pub store: ringen_automata::StoreStats,
}

/// Runs the three-phase solver. One [`AutStore`] handle is owned for
/// the whole solve: phase 1's invariant verification, the language
/// pool, and every combined-phase inductiveness check route their
/// automaton work through its memo tables (the returned
/// [`RegElemStats::store`] counters show the traffic).
///
/// # Panics
///
/// Panics if `sys` is not well-sorted.
pub fn solve_regelem(sys: &ChcSystem, cfg: &RegElemConfig) -> (RegElemAnswer, RegElemStats) {
    solve_regelem_guarded(sys, cfg, &Guard::new())
}

/// [`solve_regelem`] with cooperative cancellation: the shared refute
/// phase ([`refute_guarded`]), then [`search_regelem_guarded`]. A trip
/// yields [`RegElemAnswer::Interrupted`] with partial statistics; the
/// automaton store never caches a partial fixpoint, so the work done
/// so far stays sound.
///
/// # Panics
///
/// Same conditions as [`solve_regelem`].
pub fn solve_regelem_guarded(
    sys: &ChcSystem,
    cfg: &RegElemConfig,
    guard: &Guard,
) -> (RegElemAnswer, RegElemStats) {
    match refute_guarded(sys, &cfg.saturation, guard).0 {
        Refuted::Unsat(r) => (RegElemAnswer::Unsat(r), RegElemStats::default()),
        Refuted::Interrupted => (RegElemAnswer::Interrupted, RegElemStats::default()),
        Refuted::NoRefutation => search_regelem_guarded(sys, cfg, guard),
    }
}

/// The search phase alone: the regular, elementary and combined
/// phases, with no refutation attempt, so it never answers UNSAT. The
/// regular and elementary phases are the other engines' search phases
/// ([`ringen_core::search_guarded`], [`search_elem_guarded`]), so the
/// whole solve runs the refuter at most once. The guard is threaded
/// into every phase.
///
/// # Panics
///
/// Same conditions as [`solve_regelem`].
pub fn search_regelem_guarded(
    sys: &ChcSystem,
    cfg: &RegElemConfig,
    guard: &Guard,
) -> (RegElemAnswer, RegElemStats) {
    if let Err(e) = sys.well_sorted() {
        panic!("input system is not well-sorted: {e}");
    }
    let mut store = AutStore::new();
    let mut stats = RegElemStats::default();
    let answer = search_phases(sys, cfg, &mut store, guard, &mut stats);
    stats.store = store.stats();
    (answer, stats)
}

fn search_phases(
    sys: &ChcSystem,
    cfg: &RegElemConfig,
    store: &mut AutStore,
    guard: &Guard,
    stats: &mut RegElemStats,
) -> RegElemAnswer {
    let rec = guard.recorder().clone();

    // Phase 1: regular invariants by finite-model finding.
    if let Some(rcfg) = &cfg.regular {
        let mut span = rec.span("regelem.regular");
        let (answer, _) = search_regular(sys, rcfg, store, guard);
        match answer {
            Answer::Sat(sat) => {
                span.note_str("outcome", "sat");
                let inv = RegElemInvariant::from_regular_in(
                    &sat.preprocessed.system,
                    &sat.invariant,
                    store,
                );
                // Restrict to the original predicates (preprocessing may
                // have added diseq auxiliaries, whose ids extend the
                // original relation table).
                let formulas: BTreeMap<PredId, RegElemFormula> = sys
                    .rels
                    .iter()
                    .filter_map(|p| inv.formulas.get(&p).map(|f| (p, f.clone())))
                    .collect();
                return RegElemAnswer::Sat(
                    Box::new(RegElemInvariant { formulas }),
                    Provenance::Regular,
                );
            }
            Answer::Interrupted => {
                span.note_str("outcome", "interrupted");
                return RegElemAnswer::Interrupted;
            }
            Answer::Unsat(_) => unreachable!("a search phase never refutes"),
            Answer::Unknown(_) => span.note_str("outcome", "unknown"),
        }
    }

    // Phase 2: elementary invariants.
    if let Some(ecfg) = &cfg.elementary {
        let mut span = rec.span("regelem.elem");
        let (answer, _) = search_elem_guarded(sys, ecfg, guard);
        match answer {
            ElemAnswer::Sat(inv) => {
                span.note_str("outcome", "sat");
                return RegElemAnswer::Sat(
                    Box::new(RegElemInvariant::from_elem(&inv)),
                    Provenance::Elementary,
                );
            }
            ElemAnswer::Interrupted => {
                span.note_str("outcome", "interrupted");
                return RegElemAnswer::Interrupted;
            }
            ElemAnswer::Unsat(_) => unreachable!("a search phase never refutes"),
            ElemAnswer::Unknown => span.note_str("outcome", "unknown"),
        }
    }

    // Phase 3: combined candidates.
    let mut span = rec.span("regelem.combined");
    let answer = regelem_combined(sys, cfg, store, guard, stats);
    span.note("assignments", stats.assignments as i64);
    span.note("langs", stats.langs as i64);
    span.note("pool_total", stats.pool_total as i64);
    span.note_str(
        "outcome",
        match &answer {
            RegElemAnswer::Sat(..) => "sat",
            RegElemAnswer::Unsat(_) => "unsat",
            RegElemAnswer::Unknown => "unknown",
            RegElemAnswer::Interrupted => "interrupted",
        },
    );
    answer
}

/// Phase 3 of [`search_regelem_guarded`]: the genuinely mixed
/// template-plus-membership sweep.
fn regelem_combined(
    sys: &ChcSystem,
    cfg: &RegElemConfig,
    store: &mut AutStore,
    guard: &Guard,
    stats: &mut RegElemStats,
) -> RegElemAnswer {
    // The certification is universal-only, so ∀∃ systems stop here.
    if sys.clauses.iter().any(|c| !c.exist_vars.is_empty()) {
        return RegElemAnswer::Unknown;
    }
    // With no predicates the only candidate is the empty invariant:
    // Sat only if every clause's constraints are checked contradictory.
    let preds: Vec<PredId> = sys.rels.iter().collect();
    let par = Pool::persistent(&ParallelConfig::with_threads(guard.threads()));
    let pools: Vec<Vec<RegElemFormula>> = preds
        .iter()
        .map(|&p| {
            let pool = candidate_pool(sys, p, cfg, stats, store, &par);
            stats.pool_total = stats.pool_total.saturating_add(pool.len() as u64);
            pool
        })
        .collect();

    enum Stop {
        Budget,
        Interrupted,
    }
    let caps: Vec<usize> = pools.iter().map(|p| p.len() - 1).collect();
    let max_total: usize = caps.iter().sum();
    let mut idx = vec![0usize; preds.len()];
    let mut poller = Poller::new(guard);
    for total in 0..=max_total {
        let stop = for_each_composition(&caps, total, &mut idx, 0, &mut |idx| {
            if poller.poll() {
                return Some(Err(Stop::Interrupted));
            }
            stats.assignments += 1;
            if stats.assignments > cfg.max_assignments {
                return Some(Err(Stop::Budget));
            }
            let formulas: BTreeMap<PredId, RegElemFormula> = preds
                .iter()
                .zip(pools.iter().zip(idx))
                .map(|(&p, (pool, &i))| (p, pool[i].clone()))
                .collect();
            let inv = RegElemInvariant { formulas };
            if check_inductive_in(sys, &inv, cfg.dnf_cap, &cfg.dp_budget, store)
                == RegElemCheck::Inductive
            {
                return Some(Ok(inv));
            }
            None
        });
        match stop {
            Some(Ok(inv)) => return RegElemAnswer::Sat(Box::new(inv), Provenance::Combined),
            Some(Err(Stop::Budget)) => return RegElemAnswer::Unknown,
            Some(Err(Stop::Interrupted)) => return RegElemAnswer::Interrupted,
            None => {}
        }
    }
    RegElemAnswer::Unknown
}

/// Builds the combined-phase candidate pool for one predicate:
/// elementary templates first (cheapest), then bare membership atoms,
/// then template-plus-membership conjunctions.
fn candidate_pool(
    sys: &ChcSystem,
    p: PredId,
    cfg: &RegElemConfig,
    stats: &mut RegElemStats,
    store: &mut AutStore,
    par: &Pool,
) -> Vec<RegElemFormula> {
    let domain = &sys.rels.decl(p).domain;
    let elem_pool = candidates(&sys.sig, domain, &cfg.templates);
    let mut out: Vec<RegElemFormula> = elem_pool.iter().map(RegElemFormula::from_elem).collect();

    let lang_pools: Vec<_> = domain
        .iter()
        .map(|&s| enumerate_langs_in(&sys.sig, s, &cfg.langs, store, par))
        .collect();
    stats.langs += lang_pools.iter().map(Vec::len).sum::<usize>();

    for (i, langs) in lang_pools.iter().enumerate() {
        for l in langs {
            out.push(RegElemFormula::lit(RegLiteral::member(
                Term::var(VarId(i as u32)),
                l.clone(),
            )));
        }
    }
    // Mixed candidates: single-cube elementary prefixes with one
    // membership conjunct.
    for e in elem_pool.iter().take(cfg.combine_prefix) {
        if e.cubes.len() != 1 {
            continue;
        }
        for (i, langs) in lang_pools.iter().enumerate() {
            for l in langs {
                let mut cube: Vec<RegLiteral> =
                    e.cubes[0].iter().cloned().map(RegLiteral::from).collect();
                if cube.is_empty() {
                    continue; // ⊤ ∧ membership is the bare atom above
                }
                cube.push(RegLiteral::member(Term::var(VarId(i as u32)), l.clone()));
                out.push(RegElemFormula::cube(cube));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ringen_terms::GroundTerm;

    fn quick() -> RegElemConfig {
        // Unit tests exercise the combined phase directly; the regular
        // and elementary phases get their own budgets elsewhere.
        RegElemConfig {
            regular: None,
            elementary: None,
            ..RegElemConfig::quick()
        }
    }

    fn even_diag() -> ChcSystem {
        ringen_chc::parse_str(
            r#"
            (declare-datatypes ((Nat 0)) (((Z) (S (pre Nat)))))
            (declare-fun evenpair (Nat Nat) Bool)
            (assert (evenpair Z Z))
            (assert (forall ((x Nat) (y Nat))
              (=> (evenpair x y) (evenpair (S (S x)) (S (S y))))))
            (assert (forall ((x Nat) (y Nat))
              (=> (and (evenpair x y) (distinct x y)) false)))
            (assert (forall ((x Nat) (y Nat))
              (=> (and (evenpair x y) (evenpair (S x) (S y))) false)))
            "#,
        )
        .unwrap()
    }

    #[test]
    fn evendiag_needs_the_combined_phase() {
        let sys = even_diag();
        let (answer, stats) = solve_regelem(&sys, &quick());
        let (inv, provenance) = match answer {
            RegElemAnswer::Sat(inv, p) => (inv, p),
            other => panic!("expected SAT, got {other:?}"),
        };
        assert_eq!(provenance, Provenance::Combined);
        assert!(stats.assignments > 0);
        // The combined search demonstrably routes through the automaton
        // store: the language pool is interned, and the joint products
        // of the repeated cube checks answer from the memo tables.
        // (Skipped under RINGEN_AUT_CACHE=0, where the store is a
        // pass-through by design.)
        if std::env::var("RINGEN_AUT_CACHE").map_or(true, |v| v.trim() != "0") {
            assert!(stats.store.interned_dftas > 0, "language pool not interned");
            assert!(
                stats.store.memo_hits > stats.store.memo_misses,
                "warm cube checks must hit the joint-product memo (hits {}, misses {})",
                stats.store.memo_hits,
                stats.store.memo_misses,
            );
        }
        // Any certified invariant of EvenDiag contains the even
        // diagonal, excludes the odd diagonal (parity query) and stays
        // inside the diagonal (disequality query).
        let p = sys.rels.by_name("evenpair").unwrap();
        let z = sys.sig.func_by_name("Z").unwrap();
        let s = sys.sig.func_by_name("S").unwrap();
        let n = |k| GroundTerm::iterate(s, GroundTerm::leaf(z), k);
        assert!(inv.holds(p, &[n(4), n(4)]));
        assert!(!inv.holds(p, &[n(3), n(3)]));
        assert!(!inv.holds(p, &[n(2), n(4)]));
    }

    #[test]
    fn unsat_system_is_refuted_first() {
        let sys = ringen_chc::parse_str(
            r#"
            (declare-datatypes ((Nat 0)) (((Z) (S (pre Nat)))))
            (declare-fun p (Nat) Bool)
            (assert (p Z))
            (assert (=> (p Z) false))
            "#,
        )
        .unwrap();
        let (answer, _) = solve_regelem(&sys, &quick());
        assert!(answer.is_unsat());
    }

    #[test]
    fn regular_phase_takes_priority_when_enabled() {
        let sys = ringen_chc::parse_str(
            r#"
            (declare-datatypes ((Nat 0)) (((Z) (S (pre Nat)))))
            (declare-fun even (Nat) Bool)
            (assert (even Z))
            (assert (forall ((x Nat)) (=> (even x) (even (S (S x))))))
            (assert (forall ((x Nat)) (=> (and (even x) (even (S x))) false)))
            "#,
        )
        .unwrap();
        let (answer, _) = solve_regelem(&sys, &RegElemConfig::quick());
        let (inv, provenance) = match answer {
            RegElemAnswer::Sat(inv, p) => (inv, p),
            other => panic!("expected SAT, got {other:?}"),
        };
        assert_eq!(provenance, Provenance::Regular);
        let even = sys.rels.by_name("even").unwrap();
        let z = sys.sig.func_by_name("Z").unwrap();
        let s = sys.sig.func_by_name("S").unwrap();
        let n = |k| GroundTerm::iterate(s, GroundTerm::leaf(z), k);
        assert!(inv.holds(even, &[n(6)]));
        assert!(!inv.holds(even, &[n(7)]));
    }

    #[test]
    fn budget_exhaustion_reports_unknown() {
        let sys = even_diag();
        let mut cfg = quick();
        cfg.max_assignments = 1;
        let (answer, _) = solve_regelem(&sys, &cfg);
        assert!(answer.is_unknown());
    }
}
