//! The elementary-invariant solver (the paper's Z3/Spacer role).
//!
//! Property-directed reachability is replaced by a transparent,
//! deterministic procedure with the same observable envelope: it finds
//! elementary safe inductive invariants whenever one exists in the
//! bounded template space, refutes unsafe systems by bottom-up
//! saturation, and *diverges* (budget exhaustion) on systems whose only
//! invariants are non-elementary — which is precisely the phenomenon
//! §6/§8 measure (`Even`, `EvenLeft`, STLC, …).
//!
//! Inductiveness of a candidate assignment is decided exactly: for every
//! clause `φ ∧ R₁(t̄₁) ∧ … → H`, validity reduces to unsatisfiability of
//! the cube set `φ ∧ ⋀ inv(t̄ᵢ) ∧ ¬inv(t̄_H)`, decided by the Oppen-style
//! procedure of [`crate::dp`].

use std::collections::BTreeMap;

use ringen_chc::{ChcSystem, Clause, Constraint, PredId};
use ringen_core::saturation::{Refutation, SaturationConfig};
use ringen_core::{refute_guarded, Guard, Poller, Refuted};
use ringen_terms::GroundTerm;

use crate::dp::{check_cube, CubeSat};
use crate::lit::{Cube, ElemFormula, Literal};
use crate::search::for_each_composition;
use crate::template::{candidates, TemplateConfig};

/// Budgets for [`solve_elem`]: the refute phase and the search phase.
#[derive(Debug, Clone, Default)]
pub struct ElemConfig {
    /// Refuter budgets.
    pub saturation: SaturationConfig,
    /// Template-sweep budgets.
    pub search: ElemSearchConfig,
}

impl ElemConfig {
    /// Small-budget configuration for batch benchmarking.
    pub fn quick() -> Self {
        ElemConfig {
            saturation: SaturationConfig {
                max_facts: 4_000,
                max_rounds: 32,
                max_term_height: 16,
                free_var_candidates: 6,
                max_steps: 400_000,
                ..SaturationConfig::default()
            },
            search: ElemSearchConfig::quick(),
        }
    }
}

/// Budgets for the template sweep ([`search_elem_guarded`]).
#[derive(Debug, Clone)]
pub struct ElemSearchConfig {
    /// Template space.
    pub templates: TemplateConfig,
    /// Maximum candidate assignments to check (the "timeout").
    pub max_assignments: u64,
    /// Cap on DNF distribution size during clause checks; candidates
    /// that blow past it are skipped.
    pub dnf_cap: usize,
}

impl Default for ElemSearchConfig {
    fn default() -> Self {
        ElemSearchConfig {
            templates: TemplateConfig::default(),
            max_assignments: 200_000,
            dnf_cap: 64,
        }
    }
}

impl ElemSearchConfig {
    /// Small-budget sweep for batch benchmarking.
    pub fn quick() -> Self {
        ElemSearchConfig {
            max_assignments: 30_000,
            ..ElemSearchConfig::default()
        }
    }
}

/// An elementary invariant: one DNF formula per predicate.
#[derive(Debug, Clone)]
pub struct ElemInvariant {
    /// Formula per predicate, over parameters `#0 … #(arity-1)`.
    pub formulas: BTreeMap<PredId, ElemFormula>,
}

impl ElemInvariant {
    /// Evaluates the invariant on a ground tuple.
    ///
    /// # Panics
    ///
    /// Panics if `p` has no formula.
    pub fn holds(&self, p: PredId, args: &[GroundTerm]) -> bool {
        self.formulas[&p].eval_tuple(args)
    }
}

/// The solver's verdict.
#[derive(Debug, Clone)]
pub enum ElemAnswer {
    /// Safe, with an elementary safe inductive invariant.
    Sat(ElemInvariant),
    /// Unsafe, with a ground refutation.
    Unsat(Refutation),
    /// Budgets exhausted.
    Unknown,
    /// The search was cancelled by its [`Guard`]; [`ElemStats`] still
    /// reflects the work completed.
    Interrupted,
}

impl ElemAnswer {
    /// `true` for [`ElemAnswer::Sat`].
    pub fn is_sat(&self) -> bool {
        matches!(self, ElemAnswer::Sat(_))
    }

    /// `true` for [`ElemAnswer::Unsat`].
    pub fn is_unsat(&self) -> bool {
        matches!(self, ElemAnswer::Unsat(_))
    }

    /// `true` for [`ElemAnswer::Unknown`].
    pub fn is_unknown(&self) -> bool {
        matches!(self, ElemAnswer::Unknown)
    }

    /// `true` for [`ElemAnswer::Interrupted`].
    pub fn is_interrupted(&self) -> bool {
        matches!(self, ElemAnswer::Interrupted)
    }
}

/// Search statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct ElemStats {
    /// Candidate assignments checked.
    pub assignments: u64,
    /// Clause validity checks performed.
    pub clause_checks: u64,
    /// Cube satisfiability queries.
    pub cube_queries: u64,
}

/// Runs the solver.
///
/// # Panics
///
/// Panics if `sys` is not well-sorted.
pub fn solve_elem(sys: &ChcSystem, cfg: &ElemConfig) -> (ElemAnswer, ElemStats) {
    solve_elem_guarded(sys, cfg, &Guard::new())
}

/// [`solve_elem`] with cooperative cancellation: the shared refute
/// phase ([`refute_guarded`]), then [`search_elem_guarded`]. A trip
/// yields [`ElemAnswer::Interrupted`] with the statistics accumulated
/// so far.
///
/// # Panics
///
/// Same conditions as [`solve_elem`].
pub fn solve_elem_guarded(
    sys: &ChcSystem,
    cfg: &ElemConfig,
    guard: &Guard,
) -> (ElemAnswer, ElemStats) {
    match refute_guarded(sys, &cfg.saturation, guard).0 {
        Refuted::Unsat(r) => (ElemAnswer::Unsat(r), ElemStats::default()),
        Refuted::Interrupted => (ElemAnswer::Interrupted, ElemStats::default()),
        Refuted::NoRefutation => search_elem_guarded(sys, &cfg.search, guard),
    }
}

/// The search phase alone: the template sweep, with no refutation
/// attempt, so it never answers UNSAT. Candidate assignments are
/// enumerated in order of total index, mirroring the model finder's
/// size-vector sweep, and the guard is polled once per assignment.
///
/// # Panics
///
/// Same conditions as [`solve_elem`].
pub fn search_elem_guarded(
    sys: &ChcSystem,
    cfg: &ElemSearchConfig,
    guard: &Guard,
) -> (ElemAnswer, ElemStats) {
    if let Err(e) = sys.well_sorted() {
        panic!("input system is not well-sorted: {e}");
    }
    let mut stats = ElemStats::default();
    let mut span = guard.recorder().span("elem.sweep");
    let answer = elem_sweep(sys, cfg, guard, &mut stats);
    span.note("assignments", stats.assignments as i64);
    span.note("clause_checks", stats.clause_checks as i64);
    span.note("cube_queries", stats.cube_queries as i64);
    span.note_str(
        "outcome",
        match &answer {
            ElemAnswer::Sat(_) => "sat",
            ElemAnswer::Unsat(_) => "unsat",
            ElemAnswer::Unknown => "unknown",
            ElemAnswer::Interrupted => "interrupted",
        },
    );
    (answer, stats)
}

fn elem_sweep(
    sys: &ChcSystem,
    cfg: &ElemSearchConfig,
    guard: &Guard,
    stats: &mut ElemStats,
) -> ElemAnswer {
    // A ∀∃ query (the §5 STLC shape) rejects every candidate outright;
    // report divergence immediately instead of sweeping the template
    // space (observationally identical, much cheaper).
    if sys.clauses.iter().any(|c| !c.exist_vars.is_empty()) {
        return ElemAnswer::Unknown;
    }
    // With no predicates the only candidate is the empty assignment:
    // Sat only if every clause's constraints are checked contradictory.
    let preds: Vec<PredId> = sys.rels.iter().collect();
    let pools: Vec<Vec<ElemFormula>> = preds
        .iter()
        .map(|&p| candidates(&sys.sig, &sys.rels.decl(p).domain, &cfg.templates))
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
            let assignment: BTreeMap<PredId, &ElemFormula> = preds
                .iter()
                .zip(pools.iter().zip(idx))
                .map(|(&p, (pool, &i))| (p, &pool[i]))
                .collect();
            if is_inductive(sys, &assignment, cfg, stats) {
                let formulas = assignment.iter().map(|(&p, &f)| (p, f.clone())).collect();
                return Some(Ok(ElemInvariant { formulas }));
            }
            None
        });
        match stop {
            Some(Ok(inv)) => return ElemAnswer::Sat(inv),
            Some(Err(Stop::Budget)) => return ElemAnswer::Unknown,
            Some(Err(Stop::Interrupted)) => return ElemAnswer::Interrupted,
            None => {}
        }
    }
    ElemAnswer::Unknown
}

/// Exact inductiveness check of an assignment against every clause.
fn is_inductive(
    sys: &ChcSystem,
    assignment: &BTreeMap<PredId, &ElemFormula>,
    cfg: &ElemSearchConfig,
    stats: &mut ElemStats,
) -> bool {
    sys.clauses
        .iter()
        .all(|c| clause_valid(sys, c, assignment, cfg, stats))
}

fn clause_valid(
    sys: &ChcSystem,
    clause: &Clause,
    assignment: &BTreeMap<PredId, &ElemFormula>,
    cfg: &ElemSearchConfig,
    stats: &mut ElemStats,
) -> bool {
    stats.clause_checks += 1;
    // The template checker is universal-only; a ∀∃ clause (§5 STLC shape)
    // rejects every candidate, so the solver diverges — the behaviour the
    // paper reports for the elementary tools on the case study.
    if !clause.exist_vars.is_empty() {
        return false;
    }
    // Build the violation formula φ ∧ ⋀ inv(t̄ᵢ) ∧ ¬inv_H in DNF and check
    // each cube unsat.
    let mut constraint_cube: Cube = Vec::new();
    for k in &clause.constraints {
        constraint_cube.push(match k {
            Constraint::Eq(a, b) => Literal::Eq(a.clone(), b.clone()),
            Constraint::Neq(a, b) => Literal::Neq(a.clone(), b.clone()),
            Constraint::Tester {
                ctor,
                term,
                positive,
            } => Literal::Tester {
                ctor: *ctor,
                term: term.clone(),
                positive: *positive,
            },
        });
    }
    let mut violation = ElemFormula::cube(constraint_cube);
    for atom in &clause.body {
        let inst = assignment[&atom.pred].instantiate(&atom.args);
        match violation.and(&inst, cfg.dnf_cap) {
            Some(v) => violation = v,
            // Too expensive to decide: conservatively reject the
            // candidate (never claim inductiveness we cannot check).
            None => return false,
        }
    }
    if let Some(head) = &clause.head {
        let inst = assignment[&head.pred].instantiate(&head.args);
        let Some(neg) = inst.negated(cfg.dnf_cap) else {
            return false;
        };
        match violation.and(&neg, cfg.dnf_cap) {
            Some(v) => violation = v,
            None => return false,
        }
    }
    violation.cubes.iter().all(|cube| {
        stats.cube_queries += 1;
        check_cube(&sys.sig, &clause.vars, cube) == CubeSat::Unsat
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ringen_chc::parse_str;

    fn quick() -> ElemConfig {
        ElemConfig::quick()
    }

    #[test]
    fn incdec_has_the_successor_invariant() {
        let sys = parse_str(
            r#"
            (declare-datatypes ((Nat 0)) (((Z) (S (pre Nat)))))
            (declare-fun inc (Nat Nat) Bool)
            (declare-fun dec (Nat Nat) Bool)
            (assert (inc Z (S Z)))
            (assert (forall ((x Nat) (y Nat)) (=> (inc x y) (inc (S x) (S y)))))
            (assert (dec (S Z) Z))
            (assert (forall ((x Nat) (y Nat)) (=> (dec x y) (dec (S x) (S y)))))
            (assert (forall ((x Nat) (y Nat)) (=> (and (inc x y) (dec x y)) false)))
            "#,
        )
        .unwrap();
        let (answer, _) = solve_elem(&sys, &quick());
        let inv = match answer {
            ElemAnswer::Sat(inv) => inv,
            other => panic!("expected SAT, got {other:?}"),
        };
        // Spot-check semantics: inc(2,3) holds, inc(3,2) does not.
        let inc = sys.rels.by_name("inc").unwrap();
        let z = sys.sig.func_by_name("Z").unwrap();
        let s = sys.sig.func_by_name("S").unwrap();
        let n = |k| GroundTerm::iterate(s, GroundTerm::leaf(z), k);
        assert!(inv.holds(inc, &[n(2), n(3)]));
        assert!(!inv.holds(inc, &[n(3), n(2)]));
    }

    #[test]
    fn diag_has_the_equality_invariant() {
        let sys = parse_str(
            r#"
            (declare-datatypes ((Nat 0)) (((Z) (S (pre Nat)))))
            (declare-fun eq (Nat Nat) Bool)
            (declare-fun diseq (Nat Nat) Bool)
            (assert (forall ((x Nat)) (eq x x)))
            (assert (forall ((x Nat)) (diseq (S x) Z)))
            (assert (forall ((y Nat)) (diseq Z (S y))))
            (assert (forall ((x Nat) (y Nat)) (=> (diseq x y) (diseq (S x) (S y)))))
            (assert (forall ((x Nat) (y Nat)) (=> (and (eq x y) (diseq x y)) false)))
            "#,
        )
        .unwrap();
        let (answer, _) = solve_elem(&sys, &quick());
        let inv = match answer {
            ElemAnswer::Sat(inv) => inv,
            other => panic!("expected SAT, got {other:?}"),
        };
        let eq = sys.rels.by_name("eq").unwrap();
        let diseq = sys.rels.by_name("diseq").unwrap();
        let z = sys.sig.func_by_name("Z").unwrap();
        let s = sys.sig.func_by_name("S").unwrap();
        let n = |k| GroundTerm::iterate(s, GroundTerm::leaf(z), k);
        assert!(inv.holds(eq, &[n(3), n(3)]));
        assert!(inv.holds(diseq, &[n(1), n(4)]));
        assert!(!(inv.holds(eq, &[n(1), n(4)]) && inv.holds(diseq, &[n(1), n(4)])));
    }

    #[test]
    fn even_diverges() {
        // Prop. 1: Even ∉ Elem, so the solver must exhaust its budget.
        let sys = parse_str(
            r#"
            (declare-datatypes ((Nat 0)) (((Z) (S (pre Nat)))))
            (declare-fun even (Nat) Bool)
            (assert (even Z))
            (assert (forall ((x Nat)) (=> (even x) (even (S (S x))))))
            (assert (forall ((x Nat)) (=> (and (even x) (even (S x))) false)))
            "#,
        )
        .unwrap();
        let mut cfg = quick();
        cfg.search.max_assignments = 3_000;
        let (answer, stats) = solve_elem(&sys, &cfg);
        assert!(answer.is_unknown(), "Even ∉ Elem, got {answer:?}");
        assert!(stats.assignments > 0);
    }

    #[test]
    fn unsat_system_is_refuted() {
        let sys = parse_str(
            r#"
            (declare-datatypes ((Nat 0)) (((Z) (S (pre Nat)))))
            (declare-fun p (Nat) Bool)
            (assert (p Z))
            (assert (=> (p Z) false))
            "#,
        )
        .unwrap();
        let (answer, _) = solve_elem(&sys, &quick());
        assert!(answer.is_unsat());
    }
}
