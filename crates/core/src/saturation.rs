//! Bottom-up saturation: least-model computation and refutations.
//!
//! Finite-model finding only ever proves satisfiability. Unsatisfiability
//! of a CHC system is witnessed by a *ground derivation of ⊥*: a forward
//! chain of clause instances deriving facts until a query clause fires.
//! This module computes the least Herbrand model bottom-up (with
//! deterministic budgets) and, on refutation, returns a replayable
//! [`Refutation`] object that [`check_refutation`] validates from scratch
//! — UNSAT answers are certified, mirroring how SAT answers carry a
//! checkable [`crate::RegularInvariant`].
//!
//! Constraints are evaluated natively on ground terms (`=`, `≠`, testers)
//! so the refuter runs on the *original* system, independent of the
//! preprocessing pipeline it cross-validates.
//!
//! # The interned fact base
//!
//! Every derived term is hash-consed into one [`TermPool`] owned by the
//! [`FactBase`]: facts are `(PredId, args)` with [`TermId`] arguments,
//! the body join matches clause patterns directly against pooled ids
//! (variable bindings are `VarId → TermId` pairs — comparing a bound
//! variable against a candidate subterm is a `u32` compare, never a
//! tree walk), and the fact index is an open-addressing probe table
//! over the fact arena, so a fact is stored exactly once. Derived-term
//! heights come from the pool's memoized table. The boxed
//! [`GroundTerm`] representation only appears at the certificate
//! boundary ([`Refutation`] / [`check_refutation`]), which replays
//! derivations independently of the pool.
//!
//! # Sharded rounds: snapshot, delta, merge
//!
//! Within a round every clause matches against the **frozen snapshot**
//! of the fact base taken at the round's start (Jacobi iteration — a
//! clause never sees facts derived earlier in the *same* round). That
//! makes clauses independent, so the round shards the clause list
//! across a [`ringen_parallel::Pool`]: each worker joins its clauses
//! against the shared `&FactBase`, interning derived terms into a
//! thread-local [`ScratchPool`] and accumulating a private delta of
//! candidate facts. A sequential merge then folds the deltas **in
//! clause order** — re-interning scratch terms into the master pool
//! ([`TermPool::reintern`]), deduplicating, recording provenance, and
//! applying the fact/step budgets — so the outcome, the fact order, the
//! pool contents, and any refutation certificate are a pure function of
//! the per-clause results and therefore bit-for-bit identical at any
//! thread count (the guard's width, [`Guard::threads`]; a width of 1
//! forces the spawn-free inline path, and the differential property
//! tests in `tests/` pin 2, 4 and 8 workers to it). Budgets stay deterministic because each clause runs
//! under the budget remaining at the round's start, and the merge
//! re-applies the global caps clause by clause. An item that stops on
//! a cap bounds the merge to end by its clause, so the items of later
//! clauses are skipped, or abandoned at their next poll (`RoundCut`):
//! on a round the fact cap ends early that is most of the round's
//! work, and none of it would have been merged. Rounds run on the
//! process-wide executor's parked threads, so many-round instances pay
//! no per-round spawn latency.
//!
//! # Semi-naive rounds: delta-driven variants
//!
//! A naive round rematches every clause against the **whole** frozen
//! snapshot, so round `r` re-derives (and re-discards) everything
//! round `r-1` already found — the dominant cost on recursive systems.
//! The default engine is instead *semi-naive*: the fact base is
//! partitioned by the previous round's merge point into `old` rows and
//! last round's `delta` rows (rows are in insertion order, so the
//! partition is a binary search on the fact index, not a second
//! store), and a clause with `k` body atoms is scheduled as `k`
//! **variants** — variant `i` ranges atom `i` over the delta, atoms
//! `< i` over old rows, and atoms `> i` over old ∪ delta:
//!
//! ```text
//!        naive round                 semi-naive round (k = 3)
//!  ┌───────────────────┐    v0: Δ        × (old∪Δ) × (old∪Δ)
//!  │ all  × all  × all │    v1: old      × Δ       × (old∪Δ)
//!  └───────────────────┘    v2: old      × old     × Δ
//! ```
//!
//! Every derivation with at least one new premise is enumerated by
//! exactly one variant (the one whose index is its first delta
//! premise), and all-old tuples — whose conclusions were already
//! merged, deduplicated, or height-rejected in an earlier round — are
//! never rematched. Joins are additionally backed by a per-`(pred,
//! argument position, TermId)` **argument index** in [`FactBase`]:
//! when a body atom's argument is a variable the left-to-right join
//! has already bound, the matcher scans that id's posting list instead
//! of the whole predicate row (ids are hash-consed, so equality is id
//! equality). Variants shard across the worker pool exactly like
//! clauses did, and the sequential merge is extended from clause order
//! to **variant order**: each clause's candidates are merged sorted by
//! their premise tuple, which is precisely the order the naive
//! engine's nested left-to-right join emits them in — so outcome, fact
//! order, pool contents, and refutation certificates are identical to
//! the naive engine (and to themselves at any thread count). The one
//! intentional difference is [`SaturationStats::steps`] /
//! [`SaturationStats::candidates`], which measure the *work actually
//! done* — the entire point is that the semi-naive engine does less of
//! it, so a `max_steps` budget that cuts one engine mid-round may not
//! cut the other at the same fact.
//!
//! Two budget edge cases keep the engines aligned: (1) a worker that
//! exhausts the *step* budget always ends the run in that same round —
//! `Budget`, or `Refuted` when a sibling variant or earlier clause
//! fires a query first — so its truncated matches never leak into a
//! later round; (2) a worker truncated by the *fact* cap whose round
//! ends below the cap (possible when another clause merged the same
//! facts first) marks its clause **dirty**, and a dirty clause is
//! rescheduled as a full naive rescan next round — exactly how the
//! naive engine rediscovers the dropped candidates. Setting
//! `RINGEN_SAT_SEMINAIVE=0` (or [`SaturationConfig::semi_naive`] =
//! `false`) selects the naive matcher, kept verbatim as the
//! differential reference.

use std::error::Error;
use std::fmt;
use std::hash::Hasher;
use std::sync::atomic::{AtomicUsize, Ordering};

use ringen_chc::{Atom, ChcSystem, Clause, Constraint, PredId};
use ringen_parallel::{Guard, ParallelConfig, Pool, Recorder};
use ringen_terms::intern::InternTable;
use ringen_terms::{
    herbrand::terms_by_size, GroundTerm, ScratchNodes, ScratchPool, SortId, Substitution, Term,
    TermId, TermPool, VarId,
};
use rustc_hash::{FxHashMap, FxHashSet, FxHasher};
use smallvec::SmallVec;

/// Budgets for [`saturate`]. All limits are deterministic step counts,
/// never wall time, so results are reproducible.
#[derive(Debug, Clone)]
pub struct SaturationConfig {
    /// Stop after deriving this many facts.
    pub max_facts: usize,
    /// Stop after this many saturation rounds.
    pub max_rounds: usize,
    /// Discard derived facts containing a term higher than this.
    pub max_term_height: usize,
    /// How many candidate ground terms to enumerate per sort when a head
    /// variable is not bound by the body (e.g. `⊤ → p(c(x))`).
    pub free_var_candidates: usize,
    /// Abort once the merged body-match attempts reach this count. The
    /// cap is applied deterministically at clause boundaries of the
    /// round merge, and every clause of a round runs under the budget
    /// remaining at the *round's start* — so in the terminal round the
    /// engine may speculatively attempt (and then discard) up to
    /// `clauses × remaining` matches beyond the cap. A budget, not an
    /// exact step count.
    pub max_steps: u64,
    /// Use the delta-driven semi-naive round engine with
    /// argument-indexed joins (see the [module docs](self)). The
    /// default honors `RINGEN_SAT_SEMINAIVE` (`0` selects the naive
    /// reference matcher); outcomes, fact order, pool contents and
    /// certificates are identical either way — only
    /// [`SaturationStats::steps`] / [`SaturationStats::candidates`]
    /// reflect the engine's actual (smaller) workload.
    pub semi_naive: bool,
}

impl Default for SaturationConfig {
    fn default() -> Self {
        SaturationConfig {
            max_facts: 20_000,
            max_rounds: 64,
            max_term_height: 24,
            free_var_candidates: 8,
            max_steps: 2_000_000,
            semi_naive: std::env::var_os("RINGEN_SAT_SEMINAIVE").is_none_or(|v| v != *"0"),
        }
    }
}

/// A ground fact in the boxed certificate representation.
pub type Fact = (PredId, Vec<GroundTerm>);

/// Interned fact arguments: inline up to arity 4, ids into the base's
/// [`TermPool`].
pub type FactArgs = SmallVec<[TermId; 4]>;

/// Interned variable binding of one clause instance.
type Bind = SmallVec<[(VarId, TermId); 8]>;

/// Provenance of a derived fact: (clause index, pooled variable
/// binding, premise fact indices).
type Provenance = (usize, Vec<(VarId, TermId)>, Vec<usize>);

/// A fired query-clause instance awaiting certificate construction at
/// merge time: (pooled binding, premise fact indices).
type QueryFire = (Vec<(VarId, TermId)>, Vec<usize>);

/// One step of a ground derivation, in the boxed *view*
/// representation ([`Refutation::step`]): bindings and facts are
/// reconstructed [`GroundTerm`] trees, convenient for display and
/// independent replay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RefStep {
    /// Index of the applied clause in [`ChcSystem::clauses`].
    pub clause: usize,
    /// Ground instantiation of every clause variable.
    pub binding: Vec<(VarId, GroundTerm)>,
    /// Indices (into the step list) of the facts matching the body atoms,
    /// in body order.
    pub premises: Vec<usize>,
    /// The derived fact; `None` for the final ⊥ step of a query clause.
    pub fact: Option<Fact>,
}

/// One step of a ground derivation in the *stored* representation:
/// every term is a [`TermId`] into the certificate's own pool dump
/// ([`Refutation::pool`]). Large derivations share their subterms —
/// `S²ᵏ(Z)` chains cost one node apiece instead of one boxed tree per
/// step they appear in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PooledStep {
    /// Index of the applied clause in [`ChcSystem::clauses`].
    pub clause: usize,
    /// Ground instantiation of every clause variable, as pool ids.
    pub binding: Vec<(VarId, TermId)>,
    /// Indices (into the step list) of the facts matching the body atoms,
    /// in body order.
    pub premises: Vec<usize>,
    /// The derived fact; `None` for the final ⊥ step of a query clause.
    pub fact: Option<(PredId, Vec<TermId>)>,
}

/// A ground derivation of ⊥ — the UNSAT certificate.
///
/// Stored pooled: the steps carry [`TermId`]s plus **one** hash-consed
/// pool dump holding exactly the terms the derivation references (built
/// by [`TermPool::import`] at the certificate boundary, so the solver's
/// much larger working pool is never retained). The boxed
/// [`RefStep`] form is a lazy view ([`Refutation::step`] /
/// [`Refutation::boxed_steps`]) materialized only for display and
/// replay.
#[derive(Debug, Clone)]
pub struct Refutation {
    /// The certificate's private term pool; every [`PooledStep`] id
    /// points here.
    pub pool: TermPool,
    /// Derivation steps; the last step derives ⊥.
    pub steps: Vec<PooledStep>,
}

impl Refutation {
    /// Number of clause applications in the derivation.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether the derivation is empty (never true for real refutations).
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// The `i`-th step in the boxed view (terms reconstructed from the
    /// pool on demand).
    pub fn step(&self, i: usize) -> RefStep {
        let s = &self.steps[i];
        RefStep {
            clause: s.clause,
            binding: s
                .binding
                .iter()
                .map(|(v, id)| (*v, self.pool.to_ground(*id)))
                .collect(),
            premises: s.premises.clone(),
            fact: s
                .fact
                .as_ref()
                .map(|(p, args)| (*p, args.iter().map(|a| self.pool.to_ground(*a)).collect())),
        }
    }

    /// All steps in the boxed view, materialized lazily in order.
    pub fn boxed_steps(&self) -> impl Iterator<Item = RefStep> + '_ {
        (0..self.len()).map(|i| self.step(i))
    }
}

/// Semantic equality: two certificates are equal when their boxed views
/// are — independent of how each pool dump happens to be laid out.
impl PartialEq for Refutation {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && (0..self.len()).all(|i| self.step(i) == other.step(i))
    }
}

impl Eq for Refutation {}

/// Fx hash of a fact. Query slices and stored facts go through this one
/// function so probes agree.
#[inline]
fn fact_hash(pred: PredId, args: &[TermId]) -> u64 {
    let mut h = FxHasher::default();
    h.write_u32(pred.index() as u32);
    for a in args {
        h.write_u32(a.index() as u32);
    }
    h.finish()
}

/// The facts derived by a (partial) saturation, interned end to end.
#[derive(Debug, Clone, Default)]
pub struct FactBase {
    /// Hash-consing pool every fact argument (and subterm) lives in.
    pool: TermPool,
    facts: Vec<(PredId, FactArgs)>,
    /// Open-addressing index over `facts` — the fact arena *is* the
    /// storage; the index holds only `u32` slots.
    table: InternTable,
    by_pred: FxHashMap<PredId, Vec<u32>>,
    /// Argument index: `(pred, argument position, argument TermId)` →
    /// the rows of `pred` whose argument at that position *is* that id
    /// (ids are hash-consed, so equality is id equality). Lists are in
    /// insertion order — i.e. ascending fact index — so the semi-naive
    /// old/delta split applies to them by binary search, exactly as it
    /// does to `by_pred` rows. Maintained only when `index_args` is
    /// set (the semi-naive engine); the naive reference scans rows.
    arg_index: FxHashMap<(PredId, u32, TermId), Vec<u32>>,
    /// Whether inserts maintain `arg_index`.
    index_args: bool,
    /// For each fact: (clause index, binding, premise fact indices).
    provenance: Vec<Provenance>,
}

impl FactBase {
    /// The term pool all fact arguments are interned in.
    pub fn pool(&self) -> &TermPool {
        &self.pool
    }

    /// All facts in derivation order, as `(pred, pooled args)`.
    pub fn pooled_facts(&self) -> impl Iterator<Item = (PredId, &[TermId])> + '_ {
        self.facts.iter().map(|(p, args)| (*p, args.as_slice()))
    }

    /// All facts in derivation order, reconstructed as boxed terms.
    pub fn ground_facts(&self) -> impl Iterator<Item = Fact> + '_ {
        self.facts
            .iter()
            .map(|(p, args)| (*p, args.iter().map(|a| self.pool.to_ground(*a)).collect()))
    }

    /// The `i`-th derived fact, reconstructed.
    pub fn ground_fact(&self, i: usize) -> Fact {
        let (p, args) = &self.facts[i];
        (*p, args.iter().map(|a| self.pool.to_ground(*a)).collect())
    }

    /// Whether a fact has been derived.
    pub fn contains(&self, fact: &Fact) -> bool {
        let Some(args) = fact
            .1
            .iter()
            .map(|g| self.pool.find_term(g))
            .collect::<Option<FactArgs>>()
        else {
            // A fact whose terms were never interned cannot be present.
            return false;
        };
        self.find(fact.0, &args).is_some()
    }

    /// Index of the interned fact, if derived.
    fn find(&self, pred: PredId, args: &[TermId]) -> Option<u32> {
        self.table.find(fact_hash(pred, args), |i| {
            let (p, a) = &self.facts[i as usize];
            *p == pred && a.as_slice() == args
        })
    }

    /// Pooled argument tuples of one predicate's facts.
    pub fn of_pred(&self, p: PredId) -> impl Iterator<Item = &[TermId]> + '_ {
        self.by_pred
            .get(&p)
            .into_iter()
            .flatten()
            .map(move |&i| self.facts[i as usize].1.as_slice())
    }

    /// The row list of one predicate, in ascending fact-index order.
    fn pred_row(&self, p: PredId) -> &[u32] {
        self.by_pred.get(&p).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The argument-index posting list for `(pred, position, id)`, in
    /// ascending fact-index order; empty when no fact has that
    /// argument (or when the index is disabled — callers must not
    /// consult it then).
    fn arg_row(&self, p: PredId, pos: usize, id: TermId) -> &[u32] {
        debug_assert!(self.index_args, "argument index consulted but not built");
        self.arg_index
            .get(&(p, pos as u32, id))
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Number of facts.
    pub fn len(&self) -> usize {
        self.facts.len()
    }

    /// Whether no fact was derived.
    pub fn is_empty(&self) -> bool {
        self.facts.is_empty()
    }

    fn insert(
        &mut self,
        pred: PredId,
        args: FactArgs,
        clause: usize,
        binding: Vec<(VarId, TermId)>,
        premises: Vec<usize>,
    ) -> bool {
        let hash = fact_hash(pred, &args);
        let present = self
            .table
            .find(hash, |i| {
                let (p, a) = &self.facts[i as usize];
                *p == pred && *a == args
            })
            .is_some();
        if present {
            return false;
        }
        // `u32::MAX` is the probe table's empty sentinel — reject it
        // (not just overflow) so a full arena cannot corrupt the table.
        let i = u32::try_from(self.facts.len())
            .ok()
            .filter(|i| *i != u32::MAX)
            .expect("fact count fits the id space");
        self.by_pred.entry(pred).or_default().push(i);
        if self.index_args {
            for (pos, &arg) in args.iter().enumerate() {
                self.arg_index
                    .entry((pred, pos as u32, arg))
                    .or_default()
                    .push(i);
            }
        }
        self.facts.push((pred, args));
        self.provenance.push((clause, binding, premises));
        let FactBase { table, facts, .. } = self;
        table.insert_new(hash, i, |v| {
            let (p, a) = &facts[v as usize];
            fact_hash(*p, a)
        });
        true
    }
}

/// Join candidates between guard polls inside a worker's matcher (see
/// [`saturate_guarded`]).
pub const GUARD_STEP_PERIOD: u64 = 128;

/// The lowest clause whose work item hit a budget this round.
///
/// An item stopped by the fact cap holds `max_facts − snapshot`
/// distinct candidates, none of them in the snapshot; one stopped by
/// the step cap spent the whole step budget left at the round's start.
/// Either way the merge ends the run (`Budget`, or `Refuted` when a
/// query fires first) no later than that clause's deltas, so the items
/// of later clauses can never be merged: workers skip them, or abandon
/// them at their next poll. The outcome is unchanged; only speculative
/// work that the merge would discard is saved.
struct RoundCut(AtomicUsize);

impl RoundCut {
    fn new() -> Self {
        RoundCut(AtomicUsize::new(usize::MAX))
    }

    /// Items of `clause` can no longer be merged this round.
    fn passed(&self, clause: usize) -> bool {
        clause > self.0.load(Ordering::Relaxed)
    }

    fn budget_hit(&self, clause: usize) {
        self.0.fetch_min(clause, Ordering::Relaxed);
    }
}

/// Outcome of [`saturate`].
#[derive(Debug, Clone)]
pub enum SaturationOutcome {
    /// A query clause fired: the system is unsatisfiable.
    Refuted(Refutation),
    /// A fixed point was reached below every budget: the fact base *is*
    /// the least Herbrand model restricted to the explored space, and no
    /// query fires in it. (If budgets clipped term heights this is still
    /// only a half-answer; see [`SaturationOutcome::Budget`].)
    Saturated(FactBase),
    /// A budget was exhausted first; facts derived so far are returned.
    Budget(FactBase),
    /// The [`Guard`] tripped (cancellation or deadline). The fact base
    /// holds every *completed* round's facts — the in-flight round's
    /// deltas are discarded wholesale, so the state is exactly what a
    /// smaller `max_rounds` budget would have produced and is safe to
    /// reuse or resume from.
    Interrupted(FactBase),
}

/// Statistics from a [`saturate`] run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SaturationStats {
    /// Completed rounds.
    pub rounds: usize,
    /// Facts derived.
    pub facts: usize,
    /// Body-match attempts *merged into the result*: clauses past an
    /// early round cut (refutation or budget) ran speculatively against
    /// the snapshot, and their attempts are discarded with their
    /// deltas — deterministically, whatever the worker count. This
    /// measures the engine's *actual* matching work, so the semi-naive
    /// engine reports far fewer steps than the naive reference on the
    /// same system.
    pub steps: u64,
    /// Head-fact candidates the merge considered (after worker-side
    /// budget truncation, before cross-clause deduplication). A
    /// derivation re-attempted is a candidate re-counted, so on a
    /// system whose facts each have one derivation the semi-naive
    /// engine keeps this exactly equal to [`SaturationStats::facts`] —
    /// the "each fact derived once" contract the unit tests pin. (The
    /// naive engine's *rescan* cost shows up in
    /// [`SaturationStats::steps`], not here: its workers filter
    /// already-known heads against the snapshot before they become
    /// candidates.)
    pub candidates: u64,
    /// Distinct terms interned in the fact base's pool.
    pub pooled_terms: usize,
}

/// One scheduled unit of a round: a clause matched under a candidate
/// range restriction. The naive engine (and a semi-naive full rescan —
/// round 0, or a dirty clause) uses `delta_atom = None`; the
/// semi-naive variants pin one body atom to last round's delta rows.
#[derive(Debug, Clone, Copy)]
struct WorkItem {
    clause: usize,
    /// `None` = full rescan; `Some(i)` = semi-naive variant: atom `i`
    /// over the delta, atoms `< i` over old rows, atoms `> i` over all.
    delta_atom: Option<usize>,
}

/// One work item's contribution to a round: a private delta computed
/// against the frozen snapshot, merged deterministically afterwards.
struct ClauseRun {
    /// Body-match attempts spent by this item.
    steps: u64,
    /// A fired query clause: (binding in scratch ids, premise facts).
    refutation: Option<QueryFire>,
    /// Derived facts in derivation order, args/bindings in scratch ids.
    #[allow(clippy::type_complexity)]
    new_facts: Vec<(PredId, FactArgs, Bind, Vec<usize>)>,
    /// Terms this item interned beyond the snapshot.
    nodes: ScratchNodes,
    /// Enumerated free-variable candidates computed fresh (pure per
    /// sort; merged into the shared cache for later rounds).
    enum_terms: Vec<(SortId, Vec<GroundTerm>)>,
    /// The matcher stopped early on the fact cap: some candidates were
    /// dropped. The semi-naive merge marks the clause dirty so a full
    /// rescan next round rediscovers them (as the naive engine would).
    facts_capped: bool,
    /// The matcher observed a tripped guard; the whole round's deltas
    /// will be discarded.
    interrupted: bool,
    /// Skipped or abandoned past the [`RoundCut`]: never merged.
    cut: bool,
}

/// Runs one work item against the frozen snapshot. Pure: depends only
/// on the snapshot, the item, and the round-start step budget — never
/// on sibling items or the worker schedule.
#[allow(clippy::too_many_arguments)]
fn run_item(
    sys: &ChcSystem,
    cfg: &SaturationConfig,
    item: WorkItem,
    base: &FactBase,
    old_len: u32,
    use_index: bool,
    enum_cache: &FxHashMap<SortId, Vec<GroundTerm>>,
    step_budget: u64,
    guard: Option<&Guard>,
    round_cut: &RoundCut,
) -> ClauseRun {
    let clause = &sys.clauses[item.clause];
    let skipped = || ClauseRun {
        steps: 0,
        refutation: None,
        new_facts: Vec::new(),
        nodes: ScratchNodes::default(),
        enum_terms: Vec::new(),
        facts_capped: false,
        interrupted: false,
        cut: false,
    };
    // A query of the ∀∃ shape (§5) cannot be fired by a finite set of
    // facts; the refuter conservatively skips it.
    if !clause.exist_vars.is_empty() {
        return skipped();
    }
    if round_cut.passed(item.clause) {
        return ClauseRun {
            cut: true,
            ..skipped()
        };
    }
    let mut matcher = Matcher {
        sys,
        cfg,
        clause,
        base,
        delta_atom: item.delta_atom,
        old_len,
        use_index,
        scratch: base.pool.scratch(),
        enum_cache,
        enum_fresh: FxHashMap::default(),
        steps: 0,
        step_budget,
        budget_hit: false,
        facts_capped: false,
        guard,
        interrupted: false,
        clause_index: item.clause,
        round_cut,
        cut: false,
        refutation: None,
        new_facts: Vec::new(),
        new_index: FxHashSet::default(),
    };
    matcher.run();
    if matcher.budget_hit && !matcher.cut {
        round_cut.budget_hit(item.clause);
    }
    let mut enum_terms: Vec<(SortId, Vec<GroundTerm>)> = matcher.enum_fresh.into_iter().collect();
    enum_terms.sort_by_key(|(s, _)| *s);
    ClauseRun {
        steps: matcher.steps,
        refutation: matcher.refutation,
        new_facts: matcher.new_facts,
        nodes: matcher.scratch.into_nodes(),
        enum_terms,
        facts_capped: matcher.facts_capped,
        interrupted: matcher.interrupted,
        cut: matcher.cut,
    }
}

/// How a round's merge ended.
enum RoundEnd {
    /// All deltas merged below every budget.
    Done,
    /// A query clause fired; the certificate is already built.
    Refuted(Refutation),
    /// A budget was exhausted while merging.
    Budget,
}

/// Re-interns one scratch id into the master pool. Ids below the
/// round-start pool length are snapshot ids by construction and pass
/// through without touching the intern table (or the memo), so dedup
/// probes on snapshot-only tuples stay allocation- and probe-free.
#[inline]
fn remap(
    pool: &mut TermPool,
    nodes: &ScratchNodes,
    memo: &mut Vec<Option<TermId>>,
    id: TermId,
) -> TermId {
    if id.index() < nodes.split() {
        id
    } else {
        pool.reintern(nodes, memo, id)
    }
}

/// A pre-sized scratch-id → master-id memo for one delta: `reintern`
/// would otherwise grow it by repeated `resize` probes mid-merge.
#[inline]
fn presized_memo(nodes: &ScratchNodes) -> Vec<Option<TermId>> {
    vec![None; nodes.len()]
}

/// Folds the per-clause deltas into the base **in clause order** —
/// dedup, budgets, provenance and refutation selection are all decided
/// here, sequentially, which is what makes the engine deterministic at
/// any thread count. This is the naive engine's merge, kept verbatim
/// as the differential reference; the semi-naive engine merges through
/// [`merge_round_semi`].
fn merge_round(
    cfg: &SaturationConfig,
    base: &mut FactBase,
    enum_cache: &mut FxHashMap<SortId, Vec<GroundTerm>>,
    runs: Vec<ClauseRun>,
    stats: &mut SaturationStats,
    rec: &Recorder,
    round: usize,
) -> RoundEnd {
    for (ci, run) in runs.into_iter().enumerate() {
        debug_assert!(!run.cut, "clause {ci} was cut but reached the merge");
        if rec.text_enabled() {
            rec.text_line(format_args!(
                "round {round} clause {ci} facts={} steps={} (clause spent {} steps, {} candidates)",
                base.len(),
                stats.steps,
                run.steps,
                run.new_facts.len(),
            ));
        }
        stats.steps += run.steps;
        for (sort, terms) in run.enum_terms {
            enum_cache.entry(sort).or_insert(terms);
        }
        // Scratch-id → master-id memo, shared across this delta.
        let mut memo = presized_memo(&run.nodes);
        if let Some((bind, premises)) = run.refutation {
            let bind: Vec<(VarId, TermId)> = bind
                .into_iter()
                .map(|(v, id)| (v, remap(&mut base.pool, &run.nodes, &mut memo, id)))
                .collect();
            return RoundEnd::Refuted(build_refutation(base, ci, &bind, premises));
        }
        for (pred, args, bind, premises) in run.new_facts {
            let margs: FactArgs = args
                .iter()
                .map(|&a| remap(&mut base.pool, &run.nodes, &mut memo, a))
                .collect();
            stats.candidates += 1;
            // First derivation wins: a clause earlier in this round (or
            // an earlier round) already owns this fact and its
            // provenance.
            if base.find(pred, &margs).is_some() {
                continue;
            }
            if base.len() >= cfg.max_facts {
                return RoundEnd::Budget;
            }
            let bind: Vec<(VarId, TermId)> = bind
                .into_iter()
                .map(|(v, id)| (v, remap(&mut base.pool, &run.nodes, &mut memo, id)))
                .collect();
            base.insert(pred, margs, ci, bind, premises);
        }
        if stats.steps >= cfg.max_steps || base.len() >= cfg.max_facts {
            return RoundEnd::Budget;
        }
    }
    RoundEnd::Done
}

/// The semi-naive merge: folds per-**variant** deltas into the base in
/// clause order, and within a clause in **premise-tuple order** — the
/// exact order the naive engine's nested join emits candidates in, so
/// first-derivation-wins picks the same provenance, the fact list
/// comes out in the same order, and the fact cap truncates at the same
/// point. `snap_len` is the fact count at the round's start (the
/// worker-side cap threshold); `dirty` is updated for the next round.
#[allow(clippy::too_many_arguments)]
fn merge_round_semi(
    cfg: &SaturationConfig,
    base: &mut FactBase,
    enum_cache: &mut FxHashMap<SortId, Vec<GroundTerm>>,
    items: &[WorkItem],
    mut runs: Vec<ClauseRun>,
    dirty: &mut [bool],
    snap_len: usize,
    stats: &mut SaturationStats,
    rec: &Recorder,
    round: usize,
) -> RoundEnd {
    // The naive matcher retains at most this many clause-new candidates
    // before flagging the fact cap; replaying that truncation at merge
    // time is what keeps the engines' Budget behavior aligned.
    let clause_cap = cfg.max_facts.saturating_sub(snap_len);
    let mut start = 0;
    while start < runs.len() {
        let ci = items[start].clause;
        let end = start
            + items[start..]
                .iter()
                .position(|it| it.clause != ci)
                .unwrap_or(items.len() - start);
        let group = &mut runs[start..end];
        debug_assert!(
            group.iter().all(|r| !r.cut),
            "clause {ci} was cut but reached the merge"
        );
        let group_steps: u64 = group.iter().map(|r| r.steps).sum();
        if rec.text_enabled() {
            rec.text_line(format_args!(
                "round {round} clause {ci} facts={} steps={} ({} variants spent {} steps, {} candidates)",
                base.len(),
                stats.steps,
                group.len(),
                group_steps,
                group.iter().map(|r| r.new_facts.len()).sum::<usize>(),
            ));
        }
        stats.steps += group_steps;
        for run in group.iter_mut() {
            for (sort, terms) in std::mem::take(&mut run.enum_terms) {
                enum_cache.entry(sort).or_insert(terms);
            }
        }
        let mut memos: Vec<Vec<Option<TermId>>> =
            group.iter().map(|r| presized_memo(&r.nodes)).collect();

        // A fired query clause: the naive engine reports the join's
        // first firing, i.e. the premise-lexicographically least one.
        // Each variant short-circuited at its own least firing, so the
        // minimum over variants is the global least.
        let fire = group
            .iter_mut()
            .enumerate()
            .filter_map(|(vi, r)| r.refutation.take().map(|f| (vi, f)))
            .min_by(|(_, a), (_, b)| a.1.cmp(&b.1));
        if let Some((vi, (bind, premises))) = fire {
            let nodes = &group[vi].nodes;
            let bind: Vec<(VarId, TermId)> = bind
                .into_iter()
                .map(|(v, id)| (v, remap(&mut base.pool, nodes, &mut memos[vi], id)))
                .collect();
            return RoundEnd::Refuted(build_refutation(base, ci, &bind, premises));
        }

        // Candidates of all variants, in the naive join's emission
        // order. Premise tuples are unique per variant (a tuple's first
        // delta position *is* its variant) and emitted in ascending
        // order within one, so a stable sort on the tuple interleaves
        // the variants exactly; enumeration-path candidates that share
        // a tuple keep their in-variant order.
        let mut order: Vec<(usize, usize)> = group
            .iter()
            .enumerate()
            .flat_map(|(vi, r)| (0..r.new_facts.len()).map(move |fi| (vi, fi)))
            .collect();
        order.sort_by(|&(va, fa), &(vb, fb)| {
            group[va].new_facts[fa].3.cmp(&group[vb].new_facts[fb].3)
        });

        // Replay the naive worker's per-clause accounting: `clause_seen`
        // is its `new_index` (cross-variant duplicates were never
        // emitted by the naive matcher, so they are skipped *uncounted*)
        // and `processed` its retained-candidate count.
        let mut clause_seen: FxHashSet<(PredId, FactArgs)> = FxHashSet::default();
        let mut processed = 0usize;
        let mut truncated = false;
        for (vi, fi) in order {
            if processed >= clause_cap {
                // The naive worker hit the fact cap here: nothing past
                // this point was ever emitted (or its terms interned),
                // so stop before touching the pool. The remainder may
                // be cross-variant duplicates rather than dropped
                // facts — over-approximating the truncation only costs
                // a no-op rescan, never correctness.
                truncated = true;
                break;
            }
            let (pred, args, bind, premises) = {
                let entry = &mut group[vi].new_facts[fi];
                (
                    entry.0,
                    std::mem::take(&mut entry.1),
                    std::mem::take(&mut entry.2),
                    std::mem::take(&mut entry.3),
                )
            };
            let nodes = &group[vi].nodes;
            let margs: FactArgs = args
                .iter()
                .map(|&a| remap(&mut base.pool, nodes, &mut memos[vi], a))
                .collect();
            if !clause_seen.insert((pred, margs.clone())) {
                // The naive matcher's `new_index` suppressed this
                // cross-variant duplicate before it counted against
                // the cap; its terms are the first occurrence's, so
                // the remap above grew nothing.
                continue;
            }
            processed += 1;
            stats.candidates += 1;
            if base.find(pred, &margs).is_some() {
                continue;
            }
            if base.len() >= cfg.max_facts {
                return RoundEnd::Budget;
            }
            let bind: Vec<(VarId, TermId)> = bind
                .into_iter()
                .map(|(v, id)| (v, remap(&mut base.pool, nodes, &mut memos[vi], id)))
                .collect();
            base.insert(pred, margs, ci, bind, premises);
        }
        dirty[ci] = truncated || group.iter().any(|r| r.facts_capped);
        if stats.steps >= cfg.max_steps || base.len() >= cfg.max_facts {
            return RoundEnd::Budget;
        }
        start = end;
    }
    RoundEnd::Done
}

/// Computes the least model bottom-up; reports a [`Refutation`] as soon
/// as a query clause fires.
///
/// Rounds are sharded across the guard's [`Guard::threads`] workers
/// (see the [module docs](self)); the result is identical at any
/// worker count.
pub fn saturate(sys: &ChcSystem, cfg: &SaturationConfig) -> (SaturationOutcome, SaturationStats) {
    saturate_guarded(sys, cfg, &Guard::new())
}

/// [`saturate`] under a cooperative [`Guard`].
///
/// The token is polled between rounds and every [`GUARD_STEP_PERIOD`]
/// join candidates inside the workers. When it trips, the in-flight
/// round's deltas are discarded *wholesale* and
/// [`SaturationOutcome::Interrupted`] returns the fact base as of the
/// last completed round — never a torn half-merge — together with the
/// stats accumulated so far. With a never-tripping guard the run is
/// bit-identical to [`saturate`].
pub fn saturate_guarded(
    sys: &ChcSystem,
    cfg: &SaturationConfig,
    guard: &Guard,
) -> (SaturationOutcome, SaturationStats) {
    // `RINGEN_SAT_DEBUG` arms the recorder's human-readable text sink
    // (the env lookup happens once per call, never per clause); the
    // per-round trace itself goes through `Recorder::text_line`.
    let rec = if std::env::var_os("RINGEN_SAT_DEBUG").is_some() {
        guard.recorder().with_text()
    } else {
        guard.recorder().clone()
    };
    let mut span = rec.span("saturate");
    let (outcome, stats) = saturate_rounds(sys, cfg, guard, &rec);
    span.note("rounds", stats.rounds as i64);
    span.note("facts", stats.facts as i64);
    span.note("steps", stats.steps as i64);
    span.note("candidates", stats.candidates as i64);
    span.note_str(
        "outcome",
        match &outcome {
            SaturationOutcome::Refuted(_) => "refuted",
            SaturationOutcome::Saturated(_) => "saturated",
            SaturationOutcome::Budget(_) => "budget",
            SaturationOutcome::Interrupted(_) => "interrupted",
        },
    );
    rec.add("sat.rounds", stats.rounds as i64);
    rec.add("sat.facts", stats.facts as i64);
    rec.add("sat.candidates", stats.candidates as i64);
    (outcome, stats)
}

/// The round loop behind [`saturate_guarded`] (split out so the
/// wrapper can annotate one `saturate` span around the many returns).
fn saturate_rounds(
    sys: &ChcSystem,
    cfg: &SaturationConfig,
    guard: &Guard,
    rec: &Recorder,
) -> (SaturationOutcome, SaturationStats) {
    let pool = Pool::persistent(&ParallelConfig::with_threads(guard.threads()));
    let semi = cfg.semi_naive;
    let mut base = FactBase {
        index_args: semi,
        ..FactBase::default()
    };
    let mut stats = SaturationStats::default();
    let mut enum_cache: FxHashMap<SortId, Vec<GroundTerm>> = FxHashMap::default();
    // Clauses needing a full rescan next round (fact-cap truncation).
    let mut dirty = vec![false; sys.clauses.len()];
    // Fact count at the start of the *previous* round: everything at or
    // past it is the delta the semi-naive variants pivot on.
    let mut old_len = 0usize;

    let finalize = |stats: &mut SaturationStats, base: &mut FactBase| {
        stats.facts = base.len();
        stats.pooled_terms = base.pool.len();
        // The argument index is the round engine's private join
        // accelerator; outcomes hand the base to consumers that never
        // probe it, so don't make them carry its memory.
        base.arg_index = FxHashMap::default();
    };

    for round in 0..cfg.max_rounds {
        if guard.is_cancelled() {
            finalize(&mut stats, &mut base);
            return (SaturationOutcome::Interrupted(base), stats);
        }
        let mut round_span = rec.span("sat.round");
        round_span.note("round", round as i64);
        stats.rounds = round + 1;
        let before = base.len();
        // Round 0 has no delta (and must run the fact clauses), so the
        // semi-naive engine starts with one full rescan; afterwards a
        // clause is either dirty (full rescan) or scheduled as its
        // per-atom delta variants. Empty-body clauses have no variant:
        // their derivations have no new premise, so they can only
        // re-derive what round 0 merged (or a dirty pass recovers).
        let items: Vec<WorkItem> = if !semi || round == 0 {
            (0..sys.clauses.len())
                .map(|clause| WorkItem {
                    clause,
                    delta_atom: None,
                })
                .collect()
        } else {
            let mut items = Vec::new();
            for (clause, c) in sys.clauses.iter().enumerate() {
                if !c.exist_vars.is_empty() {
                    continue; // never matched by the refuter
                }
                if dirty[clause] {
                    items.push(WorkItem {
                        clause,
                        delta_atom: None,
                    });
                } else {
                    items.extend((0..c.body.len()).map(|a| WorkItem {
                        clause,
                        delta_atom: Some(a),
                    }));
                }
            }
            items
        };
        // Every item runs under the budget left at the round's start
        // (not reduced by sibling items — that would reintroduce a
        // cross-item order dependence); the merge re-applies the
        // global cap clause by clause.
        let step_budget = cfg.max_steps.saturating_sub(stats.steps);
        let round_cut = RoundCut::new();
        let runs: Vec<ClauseRun> = pool.map_items(&items, |_, &item| {
            run_item(
                sys,
                cfg,
                item,
                &base,
                old_len as u32,
                semi,
                &enum_cache,
                step_budget,
                Some(guard),
                &round_cut,
            )
        });
        // A tripped guard discards the whole round: merging a torn
        // subset of the deltas would leave a state no budget-bounded
        // run could produce. `stats.rounds` already counts this round
        // as started; facts/steps reflect only completed rounds.
        if runs.iter().any(|r| r.interrupted) || guard.is_cancelled() {
            round_span.note_str("end", "interrupted");
            stats.rounds = round;
            finalize(&mut stats, &mut base);
            return (SaturationOutcome::Interrupted(base), stats);
        }
        let end = if semi {
            merge_round_semi(
                cfg,
                &mut base,
                &mut enum_cache,
                &items,
                runs,
                &mut dirty,
                before,
                &mut stats,
                rec,
                round,
            )
        } else {
            merge_round(
                cfg,
                &mut base,
                &mut enum_cache,
                runs,
                &mut stats,
                rec,
                round,
            )
        };
        round_span.note("new_facts", (base.len() - before) as i64);
        match end {
            RoundEnd::Refuted(r) => {
                round_span.note_str("end", "refuted");
                finalize(&mut stats, &mut base);
                return (SaturationOutcome::Refuted(r), stats);
            }
            RoundEnd::Budget => {
                round_span.note_str("end", "budget");
                finalize(&mut stats, &mut base);
                return (SaturationOutcome::Budget(base), stats);
            }
            RoundEnd::Done => {}
        }
        if base.len() == before && !dirty.iter().any(|&d| d) {
            round_span.note_str("end", "saturated");
            finalize(&mut stats, &mut base);
            return (SaturationOutcome::Saturated(base), stats);
        }
        old_len = before;
    }
    finalize(&mut stats, &mut base);
    (SaturationOutcome::Budget(base), stats)
}

/// Looks up a variable in a pooled binding.
#[inline]
fn bind_get(bind: &Bind, v: VarId) -> Option<TermId> {
    bind.iter().find(|(w, _)| *w == v).map(|(_, id)| *id)
}

/// Matches a clause pattern against an interned ground term, extending
/// `bind`. Repeated variables compare by id — O(1), never a tree walk.
fn match_pooled(pool: &TermPool, pat: &Term, id: TermId, bind: &mut Bind) -> bool {
    match pat {
        Term::Var(v) => match bind_get(bind, *v) {
            Some(bound) => bound == id,
            None => {
                bind.push((*v, id));
                true
            }
        },
        Term::App(f, pats) => {
            if pool.func(id) != *f {
                return false;
            }
            let args = pool.args(id);
            debug_assert_eq!(args.len(), pats.len(), "well-sorted pattern arity");
            // Child ids are copied out so the recursion does not hold
            // the `args` borrow; patterns are clause-authored and
            // shallow, and arity ≤ 4 stays on the stack.
            let args: FactArgs = SmallVec::from_slice(args);
            pats.iter()
                .zip(args)
                .all(|(p, a)| match_pooled(pool, p, a, bind))
        }
    }
}

/// Instantiates a (fully bound) clause term directly into the worker's
/// scratch pool. `None` if a variable is unbound — the caller falls
/// back to the enumeration path.
fn intern_pattern(pool: &mut ScratchPool<'_>, pat: &Term, bind: &Bind) -> Option<TermId> {
    match pat {
        Term::Var(v) => bind_get(bind, *v),
        Term::App(f, pats) => {
            let ids: FactArgs = pats
                .iter()
                .map(|p| intern_pattern(pool, p, bind))
                .collect::<Option<_>>()?;
            Some(pool.intern(*f, &ids))
        }
    }
}

/// Height the instantiated pattern *would* have, without interning
/// anything — so over-budget heads are rejected before they pollute
/// the long-lived pool. `None` if a variable is unbound.
fn pattern_height(pool: &ScratchPool<'_>, pat: &Term, bind: &Bind) -> Option<usize> {
    match pat {
        Term::Var(v) => bind_get(bind, *v).map(|id| pool.height(id)),
        Term::App(_, pats) => {
            let mut max = 0usize;
            for p in pats {
                max = max.max(pattern_height(pool, p, bind)?);
            }
            Some(max + 1)
        }
    }
}

struct Matcher<'a> {
    sys: &'a ChcSystem,
    cfg: &'a SaturationConfig,
    clause: &'a Clause,
    /// The frozen snapshot. Shared — many matchers read it at once.
    base: &'a FactBase,
    /// Semi-naive variant: the body atom pinned to last round's delta
    /// rows (atoms before it range over old rows, atoms after it over
    /// all rows). `None` is a full naive rescan.
    delta_atom: Option<usize>,
    /// Fact-index partition point: facts below it are "old" (present
    /// before last round's merge), at or past it are the delta.
    old_len: u32,
    /// Consult the [`FactBase`] argument index for body atoms whose
    /// argument is an already-bound variable (the semi-naive engine;
    /// the naive reference keeps its plain row scans).
    use_index: bool,
    /// Thread-local extension of the snapshot's pool for derived terms.
    scratch: ScratchPool<'a>,
    /// Enumerated candidate terms per sort for unbound head variables:
    /// the shared cache from previous rounds…
    enum_cache: &'a FxHashMap<SortId, Vec<GroundTerm>>,
    /// …plus the entries this clause computed fresh (pure per sort).
    enum_fresh: FxHashMap<SortId, Vec<GroundTerm>>,
    /// Body-match attempts spent by this clause.
    steps: u64,
    /// Step budget remaining at the round's start.
    step_budget: u64,
    refutation: Option<QueryFire>,
    budget_hit: bool,
    /// `budget_hit` was (also) raised by the fact cap: candidates were
    /// dropped, which the semi-naive merge must repair via a dirty
    /// full rescan.
    facts_capped: bool,
    /// Cooperative cancellation token, polled every
    /// [`GUARD_STEP_PERIOD`] join candidates (`None` = never polled).
    guard: Option<&'a Guard>,
    /// The guard tripped; stop matching, the round will be discarded.
    interrupted: bool,
    /// This item's clause index, for the [`RoundCut`].
    clause_index: usize,
    round_cut: &'a RoundCut,
    /// An earlier clause hit a budget: stop, this item is never merged.
    cut: bool,
    #[allow(clippy::type_complexity)]
    new_facts: Vec<(PredId, FactArgs, Bind, Vec<usize>)>,
    /// Hash index over `new_facts` (the in-round dedup must not scan).
    new_index: FxHashSet<(PredId, FactArgs)>,
}

impl<'a> Matcher<'a> {
    fn run(&mut self) {
        self.match_body(0, Bind::new(), Vec::new());
    }

    /// The poll every [`GUARD_STEP_PERIOD`] steps: a tripped guard
    /// interrupts the item, a [`RoundCut`] past its clause abandons it
    /// (unwinding the join as a budget stop does).
    fn polled_stop(&mut self) -> bool {
        if self.guard.is_some_and(Guard::is_cancelled) {
            self.interrupted = true;
        } else if self.round_cut.passed(self.clause_index) {
            self.cut = true;
            self.budget_hit = true;
        }
        self.interrupted || self.cut
    }

    /// The candidate rows for body atom `k` under `bind`: the
    /// argument-indexed posting list when an argument is an
    /// already-bound variable (shortest list wins; a missing list
    /// means no fact can match), the full predicate row otherwise —
    /// then restricted to the variant's old/delta range. Every list is
    /// in ascending fact-index order, so the restriction is a binary
    /// search and the join's emission order is unchanged.
    fn candidates_for(&self, k: usize, bind: &Bind) -> &'a [u32] {
        let atom = &self.clause.body[k];
        let base = self.base;
        let mut list: &'a [u32] = base.pred_row(atom.pred);
        if self.use_index {
            for (pos, pat) in atom.args.iter().enumerate() {
                if let Term::Var(v) = pat {
                    if let Some(id) = bind_get(bind, *v) {
                        let indexed = base.arg_row(atom.pred, pos, id);
                        if indexed.len() < list.len() {
                            list = indexed;
                        }
                    }
                }
            }
        }
        match self.delta_atom {
            None => list,
            Some(i) => {
                let old = self.old_len;
                let split = list.partition_point(|&fi| fi < old);
                match k.cmp(&i) {
                    std::cmp::Ordering::Less => &list[..split],
                    std::cmp::Ordering::Equal => &list[split..],
                    std::cmp::Ordering::Greater => list,
                }
            }
        }
    }

    /// Joins body atoms left to right against the frozen snapshot,
    /// entirely on pooled ids: no term is cloned or reconstructed here.
    fn match_body(&mut self, k: usize, bind: Bind, premises: Vec<usize>) {
        if self.refutation.is_some() || self.budget_hit || self.interrupted {
            return;
        }
        if k == self.clause.body.len() {
            self.finish_constraints(bind, premises);
            return;
        }
        let atom = &self.clause.body[k];
        // The snapshot is never written during the round, so the
        // candidate row can be borrowed across the recursion — the old
        // `&mut`-aliasing clone is gone.
        let base = self.base;
        let candidates: &[u32] = self.candidates_for(k, &bind);
        for &fi in candidates {
            self.steps += 1;
            if self.steps >= self.step_budget {
                self.budget_hit = true;
                return;
            }
            if self.steps.is_multiple_of(GUARD_STEP_PERIOD) && self.polled_stop() {
                return;
            }
            let fi = fi as usize;
            let mut bind2 = bind.clone();
            let ok = {
                let fact_args = &base.facts[fi].1;
                atom.args
                    .iter()
                    .zip(fact_args)
                    .all(|(pat, id)| match_pooled(&base.pool, pat, *id, &mut bind2))
            };
            if ok {
                let mut premises2 = premises.clone();
                premises2.push(fi);
                self.match_body(k + 1, bind2, premises2);
            }
            if self.refutation.is_some() || self.budget_hit || self.interrupted {
                return;
            }
        }
    }

    /// After the body is matched: the common case — no constraints, all
    /// variables bound — derives the head fact without leaving the
    /// pool; otherwise fall back to the substitution machinery for
    /// constraint folding and free-variable enumeration.
    fn finish_constraints(&mut self, bind: Bind, premises: Vec<usize>) {
        let all_bound = self
            .clause
            .vars
            .vars()
            .all(|v| bind_get(&bind, v).is_some());
        if self.clause.constraints.is_empty() && all_bound {
            self.finish_pooled(bind, premises);
            return;
        }

        // Legacy path. Reconstruct a substitution from the pooled
        // binding (ids here come from body matching, so they are
        // snapshot ids); equalities may bind further variables
        // (clauses of the form `x = S(y) ∧ … → …` carry definitions in
        // constraints).
        let mut sub = Substitution::new();
        for (v, id) in &bind {
            sub.bind(*v, self.base.pool.to_term(*id));
        }
        for c in &self.clause.constraints {
            match c {
                Constraint::Eq(a, b) => {
                    let a = sub.apply_deep(a);
                    let b = sub.apply_deep(b);
                    match ringen_terms::unify(&a, &b) {
                        Ok(u) => sub.compose(&u),
                        Err(_) => return,
                    }
                }
                Constraint::Neq(..) | Constraint::Tester { .. } => {}
            }
        }
        // Bind any variable still free with enumerated ground terms.
        let free: Vec<VarId> = self
            .clause
            .vars
            .vars()
            .filter(|&v| !sub.apply_deep(&Term::var(v)).is_ground())
            .collect();
        self.bind_free(&free, 0, sub, premises);
    }

    /// Pooled head derivation: instantiate head arguments directly as
    /// interned ids (into the scratch extension), check the height
    /// budget from the memoized tables, dedup by id tuple.
    fn finish_pooled(&mut self, bind: Bind, premises: Vec<usize>) {
        let clause = self.clause;
        match &clause.head {
            None => {
                // ⊥ derived. The certificate is built at merge time,
                // against the master pool; stash the instance.
                self.refutation = Some((bind.into_vec(), premises));
            }
            Some(atom) => {
                // Height check *before* interning: rejected heads must
                // not grow the scratch (the old boxed path built a
                // transient term and dropped it).
                for t in &atom.args {
                    match pattern_height(&self.scratch, t, &bind) {
                        Some(h) if h > self.cfg.max_term_height => return,
                        Some(_) => {}
                        None => return,
                    }
                }
                let args: Option<FactArgs> = atom
                    .args
                    .iter()
                    .map(|t| intern_pattern(&mut self.scratch, t, &bind))
                    .collect();
                let Some(args) = args else { return };
                let pred = atom.pred;
                // Snapshot facts only reference snapshot ids, so a
                // tuple containing a scratch id correctly misses here.
                if self.base.find(pred, &args).is_none()
                    && !self.new_index.contains(&(pred, args.clone()))
                {
                    if self.base.len() + self.new_facts.len() >= self.cfg.max_facts {
                        self.budget_hit = true;
                        self.facts_capped = true;
                        return;
                    }
                    self.new_index.insert((pred, args.clone()));
                    self.new_facts.push((pred, args, bind, premises));
                }
            }
        }
    }

    fn bind_free(&mut self, free: &[VarId], k: usize, sub: Substitution, premises: Vec<usize>) {
        if self.refutation.is_some() || self.budget_hit || self.interrupted {
            return;
        }
        if k == free.len() {
            self.finish_ground(sub, premises);
            return;
        }
        let v = free[k];
        let sort = self.clause.vars.sort(v).expect("var in context");
        let cached = self
            .enum_cache
            .get(&sort)
            .or_else(|| self.enum_fresh.get(&sort))
            .cloned();
        let candidates = match cached {
            Some(v) => v,
            None => {
                let v = terms_by_size(&self.sys.sig, sort, self.cfg.free_var_candidates);
                self.enum_fresh.insert(sort, v.clone());
                v
            }
        };
        for t in candidates {
            self.steps += 1;
            if self.steps >= self.step_budget {
                self.budget_hit = true;
                return;
            }
            if self.steps.is_multiple_of(GUARD_STEP_PERIOD) && self.polled_stop() {
                return;
            }
            let mut sub2 = sub.clone();
            let mut single = Substitution::new();
            single.bind(v, Term::from(&t));
            sub2.compose(&single);
            self.bind_free(free, k + 1, sub2, premises.clone());
            if self.refutation.is_some() || self.budget_hit || self.interrupted {
                return;
            }
        }
    }

    /// End of the legacy path: every variable is ground under `sub`.
    /// Constraints are re-checked groundly, then the binding and head
    /// arguments are interned into the pool.
    fn finish_ground(&mut self, sub: Substitution, premises: Vec<usize>) {
        // Check remaining (now ground) constraints.
        for c in &self.clause.constraints {
            match c {
                Constraint::Eq(a, b) => {
                    // Already folded into the substitution; re-check
                    // groundly for safety.
                    let (Some(a), Some(b)) =
                        (sub.apply_deep(a).to_ground(), sub.apply_deep(b).to_ground())
                    else {
                        return;
                    };
                    if a != b {
                        return;
                    }
                }
                Constraint::Neq(a, b) => {
                    let (Some(a), Some(b)) =
                        (sub.apply_deep(a).to_ground(), sub.apply_deep(b).to_ground())
                    else {
                        return;
                    };
                    if a == b {
                        return;
                    }
                }
                Constraint::Tester {
                    ctor,
                    term,
                    positive,
                } => {
                    let Some(g) = sub.apply_deep(term).to_ground() else {
                        return;
                    };
                    if (g.func() == *ctor) != *positive {
                        return;
                    }
                }
            }
        }
        // Height-check the instantiated head transiently (boxed, then
        // dropped — as the pre-pool code did) before interning the
        // binding into the scratch extension.
        let clause = self.clause;
        if let Some(atom) = &clause.head {
            for t in &atom.args {
                let Some(g) = sub.apply_deep(t).to_ground() else {
                    return;
                };
                if g.height() > self.cfg.max_term_height {
                    return;
                }
            }
        }
        let binding: Bind = clause
            .vars
            .vars()
            .filter_map(|v| {
                sub.apply_deep(&Term::var(v))
                    .to_ground()
                    .map(|g| (v, self.scratch.intern_term(&g)))
            })
            .collect();
        self.finish_pooled(binding, premises);
    }
}

/// Extracts the sub-derivation ending in the ⊥ step. The certificate
/// gets its own pool dump: every term the derivation references is
/// [`TermPool::import`]ed once (shared subterms stay shared), instead
/// of re-boxing a [`GroundTerm`] tree per step. The binding must
/// already be in master-pool ids (the merge re-interns scratch
/// bindings before calling this).
fn build_refutation(
    base: &FactBase,
    query_clause: usize,
    binding: &[(VarId, TermId)],
    premises: Vec<usize>,
) -> Refutation {
    let mut pool = TermPool::new();
    let mut memo: Vec<Option<TermId>> = Vec::new();
    // Collect all transitively needed facts.
    let mut needed: Vec<usize> = Vec::new();
    let mut stack = premises.clone();
    while let Some(i) = stack.pop() {
        if !needed.contains(&i) {
            needed.push(i);
            stack.extend(base.provenance[i].2.iter().copied());
        }
    }
    needed.sort();
    let renumber: FxHashMap<usize, usize> =
        needed.iter().enumerate().map(|(k, &i)| (i, k)).collect();
    let mut steps: Vec<PooledStep> = Vec::with_capacity(needed.len() + 1);
    for &i in &needed {
        let (clause, bind, prem) = &base.provenance[i];
        let (pred, args) = &base.facts[i];
        steps.push(PooledStep {
            clause: *clause,
            binding: bind
                .iter()
                .map(|(v, id)| (*v, pool.import(&base.pool, &mut memo, *id)))
                .collect(),
            premises: prem.iter().map(|p| renumber[p]).collect(),
            fact: Some((
                *pred,
                args.iter()
                    .map(|a| pool.import(&base.pool, &mut memo, *a))
                    .collect(),
            )),
        });
    }
    steps.push(PooledStep {
        clause: query_clause,
        binding: binding
            .iter()
            .map(|(v, id)| (*v, pool.import(&base.pool, &mut memo, *id)))
            .collect(),
        premises: premises.iter().map(|p| renumber[p]).collect(),
        fact: None,
    });
    Refutation { pool, steps }
}

/// Why a refutation failed to replay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RefutationError {
    /// A step references a clause index outside the system.
    BadClause(usize),
    /// The binding does not ground every clause variable.
    UnboundVariable(usize),
    /// A ground constraint of the instantiated clause is false.
    FalseConstraint(usize),
    /// A premise index is out of range or derives the wrong fact.
    BadPremise(usize),
    /// The instantiated head disagrees with the recorded fact.
    WrongFact(usize),
    /// The final step does not apply a query clause.
    NoQuery,
}

impl fmt::Display for RefutationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RefutationError::BadClause(i) => write!(f, "step {i}: clause index out of range"),
            RefutationError::UnboundVariable(i) => {
                write!(f, "step {i}: binding leaves a clause variable free")
            }
            RefutationError::FalseConstraint(i) => {
                write!(f, "step {i}: instantiated constraint is false")
            }
            RefutationError::BadPremise(i) => write!(f, "step {i}: premise mismatch"),
            RefutationError::WrongFact(i) => {
                write!(f, "step {i}: instantiated head differs from recorded fact")
            }
            RefutationError::NoQuery => write!(f, "final step is not a query clause"),
        }
    }
}

impl Error for RefutationError {}

/// Replays a refutation against the system from scratch. Every UNSAT
/// answer the solver returns has passed this check.
///
/// # Errors
///
/// Returns the first [`RefutationError`] encountered.
pub fn check_refutation(sys: &ChcSystem, r: &Refutation) -> Result<(), RefutationError> {
    let mut derived: Vec<Fact> = Vec::with_capacity(r.len());
    for (si, step) in r.boxed_steps().enumerate() {
        let step = &step;
        let clause = sys
            .clauses
            .get(step.clause)
            .ok_or(RefutationError::BadClause(si))?;
        let bind: FxHashMap<VarId, &GroundTerm> =
            step.binding.iter().map(|(v, g)| (*v, g)).collect();
        let inst = |t: &Term| -> Option<GroundTerm> { instantiate(t, &bind) };
        // Variables may be missing from the binding only if unused.
        for c in &clause.constraints {
            let ok = match c {
                Constraint::Eq(a, b) => {
                    let (a, b) = (inst(a), inst(b));
                    match (a, b) {
                        (Some(a), Some(b)) => a == b,
                        _ => return Err(RefutationError::UnboundVariable(si)),
                    }
                }
                Constraint::Neq(a, b) => {
                    let (a, b) = (inst(a), inst(b));
                    match (a, b) {
                        (Some(a), Some(b)) => a != b,
                        _ => return Err(RefutationError::UnboundVariable(si)),
                    }
                }
                Constraint::Tester {
                    ctor,
                    term,
                    positive,
                } => match inst(term) {
                    Some(g) => (g.func() == *ctor) == *positive,
                    None => return Err(RefutationError::UnboundVariable(si)),
                },
            };
            if !ok {
                return Err(RefutationError::FalseConstraint(si));
            }
        }
        if step.premises.len() != clause.body.len() {
            return Err(RefutationError::BadPremise(si));
        }
        for (atom, &pi) in clause.body.iter().zip(&step.premises) {
            if pi >= si {
                return Err(RefutationError::BadPremise(si));
            }
            let expected =
                instantiate_atom(atom, &bind).ok_or(RefutationError::UnboundVariable(si))?;
            if derived[pi] != expected {
                return Err(RefutationError::BadPremise(si));
            }
        }
        match (&clause.head, &step.fact) {
            (None, None) => {
                if si + 1 != r.len() {
                    return Err(RefutationError::NoQuery);
                }
                return Ok(());
            }
            (Some(atom), Some(fact)) => {
                let expected =
                    instantiate_atom(atom, &bind).ok_or(RefutationError::UnboundVariable(si))?;
                if &expected != fact {
                    return Err(RefutationError::WrongFact(si));
                }
                derived.push(fact.clone());
            }
            _ => return Err(RefutationError::WrongFact(si)),
        }
    }
    Err(RefutationError::NoQuery)
}

fn instantiate(t: &Term, bind: &FxHashMap<VarId, &GroundTerm>) -> Option<GroundTerm> {
    match t {
        Term::Var(v) => bind.get(v).map(|g| (*g).clone()),
        Term::App(f, args) => {
            let args: Option<Vec<GroundTerm>> = args.iter().map(|a| instantiate(a, bind)).collect();
            Some(GroundTerm::app(*f, args?))
        }
    }
}

fn instantiate_atom(atom: &Atom, bind: &FxHashMap<VarId, &GroundTerm>) -> Option<Fact> {
    let args: Option<Vec<GroundTerm>> = atom.args.iter().map(|t| instantiate(t, bind)).collect();
    Some((atom.pred, args?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ringen_chc::parse_str;

    fn unsat_even() -> ChcSystem {
        // even(Z), even(x) → even(S(S(x))), even(S(S(Z))) → ⊥: unsat.
        parse_str(
            r#"
            (declare-datatypes ((Nat 0)) (((Z) (S (pre Nat)))))
            (declare-fun even (Nat) Bool)
            (assert (even Z))
            (assert (forall ((x Nat)) (=> (even x) (even (S (S x))))))
            (assert (=> (even (S (S Z))) false))
            "#,
        )
        .unwrap()
    }

    #[test]
    fn refutes_and_replays() {
        let sys = unsat_even();
        let (outcome, _) = saturate(&sys, &SaturationConfig::default());
        let r = match outcome {
            SaturationOutcome::Refuted(r) => r,
            other => panic!("expected refutation, got {other:?}"),
        };
        assert!(check_refutation(&sys, &r).is_ok());
        // Derivation: even(Z), even(S(S(Z))), ⊥.
        assert_eq!(r.len(), 3);
        // The certificate is pooled: one dump holding exactly the
        // shared chain Z, S(Z), S(S(Z)) — not one boxed tree per step.
        assert_eq!(r.pool.len(), 3);
        // The boxed view reconstructs every step coherently.
        let boxed: Vec<RefStep> = r.boxed_steps().collect();
        assert_eq!(boxed.len(), r.len());
        assert!(boxed[0].fact.is_some() && boxed[2].fact.is_none());
        assert_eq!(boxed[2].premises, vec![1]);
        // Semantic equality is pool-layout independent.
        assert_eq!(r.clone(), r);
    }

    #[test]
    fn tampered_refutation_is_rejected() {
        let sys = unsat_even();
        let (outcome, _) = saturate(&sys, &SaturationConfig::default());
        let mut r = match outcome {
            SaturationOutcome::Refuted(r) => r,
            other => panic!("expected refutation, got {other:?}"),
        };
        // Point the final step's premise at the wrong fact.
        let last = r.steps.len() - 1;
        r.steps[last].premises[0] = 0;
        assert!(check_refutation(&sys, &r).is_err());
    }

    #[test]
    fn sat_system_saturates_or_budgets() {
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
        let cfg = SaturationConfig {
            max_facts: 50,
            ..SaturationConfig::default()
        };
        let (outcome, stats) = saturate(&sys, &cfg);
        match outcome {
            SaturationOutcome::Budget(base) | SaturationOutcome::Saturated(base) => {
                assert!(!base.is_empty());
                let even = sys.rels.by_name("even").unwrap();
                assert!(base.of_pred(even).count() > 3);
                // Interned facts share subterms: S^{2k}(Z) facts need
                // only one chain of nodes in the pool.
                assert!(base.pool().len() <= 2 * base.len() + 2);
            }
            SaturationOutcome::Refuted(_) => panic!("even system is satisfiable"),
            SaturationOutcome::Interrupted(_) => panic!("unguarded saturate cannot trip"),
        }
        assert!(stats.steps > 0);
        assert!(stats.pooled_terms > 0);
    }

    #[test]
    fn a_budget_stop_cuts_the_later_clauses_of_its_round() {
        // Clause 2 squares p's row into q; clause 3 would fire a query.
        let sys = parse_str(
            r#"
            (declare-datatypes ((Nat 0)) (((Z) (S (pre Nat)))))
            (declare-fun p (Nat) Bool)
            (declare-fun q (Nat Nat) Bool)
            (assert (p Z))
            (assert (forall ((x Nat)) (=> (p x) (p (S x)))))
            (assert (forall ((x Nat) (y Nat)) (=> (and (p x) (p y)) (q x y))))
            (assert (forall ((x Nat)) (=> (p (S x)) false)))
            "#,
        )
        .unwrap();
        // A two-round snapshot (p(Z), p(S(Z)), q(Z, Z)), then a round
        // capped two facts on: the square has three new q facts.
        let seed = SaturationConfig {
            max_rounds: 2,
            ..SaturationConfig::default()
        };
        let (SaturationOutcome::Budget(base), _) = saturate(&sys, &seed) else {
            panic!("the query cannot fire before round 2");
        };
        let cfg = SaturationConfig {
            max_facts: base.len() + 2,
            ..SaturationConfig::default()
        };
        let cache = FxHashMap::default();
        let cut = RoundCut::new();
        let run = |clause| {
            let item = WorkItem {
                clause,
                delta_atom: None,
            };
            run_item(
                &sys,
                &cfg,
                item,
                &base,
                0,
                false,
                &cache,
                u64::MAX,
                None,
                &cut,
            )
        };
        // Nothing is cut before a budget stop.
        let query = run(3);
        assert!(!query.cut && query.refutation.is_some());
        let square = run(2);
        assert!(square.facts_capped && !square.cut);
        assert_eq!(square.new_facts.len(), 2);
        // The merge ends by clause 2 now: clause 3 is skipped, clause 1
        // still runs.
        let query = run(3);
        assert!(query.cut && query.refutation.is_none() && query.steps == 0);
        assert!(!run(1).cut);
    }

    #[test]
    fn diseq_constraints_filter_matches() {
        // p(Z), p(x) ∧ x ≠ Z → ⊥ is satisfiable; with p(S(Z)) it's not.
        let sys = parse_str(
            r#"
            (declare-datatypes ((Nat 0)) (((Z) (S (pre Nat)))))
            (declare-fun p (Nat) Bool)
            (assert (p Z))
            (assert (p (S Z)))
            (assert (forall ((x Nat)) (=> (and (p x) (distinct x Z)) false)))
            "#,
        )
        .unwrap();
        let (outcome, _) = saturate(&sys, &SaturationConfig::default());
        let r = match outcome {
            SaturationOutcome::Refuted(r) => r,
            other => panic!("expected refutation, got {other:?}"),
        };
        assert!(check_refutation(&sys, &r).is_ok());
    }

    #[test]
    fn fact_base_probes_ground_facts() {
        let sys = parse_str(
            r#"
            (declare-datatypes ((Nat 0)) (((Z) (S (pre Nat)))))
            (declare-fun even (Nat) Bool)
            (assert (even Z))
            (assert (forall ((x Nat)) (=> (even x) (even (S (S x))))))
            "#,
        )
        .unwrap();
        let cfg = SaturationConfig {
            max_facts: 8,
            ..SaturationConfig::default()
        };
        let (outcome, _) = saturate(&sys, &cfg);
        let base = match outcome {
            SaturationOutcome::Budget(b) | SaturationOutcome::Saturated(b) => b,
            SaturationOutcome::Refuted(_) => panic!("even system is satisfiable"),
            SaturationOutcome::Interrupted(_) => panic!("unguarded saturate cannot trip"),
        };
        let even = sys.rels.by_name("even").unwrap();
        let z = sys.sig.func_by_name("Z").unwrap();
        let s = sys.sig.func_by_name("S").unwrap();
        let two = GroundTerm::iterate(s, GroundTerm::leaf(z), 2);
        let one = GroundTerm::iterate(s, GroundTerm::leaf(z), 1);
        assert!(base.contains(&(even, vec![GroundTerm::leaf(z)])));
        assert!(base.contains(&(even, vec![two])));
        assert!(!base.contains(&(even, vec![one])));
        // Boxed and pooled views agree.
        for (i, fact) in base.ground_facts().enumerate() {
            assert_eq!(base.ground_fact(i), fact);
            assert!(base.contains(&fact));
        }
        assert_eq!(base.pooled_facts().count(), base.len());
    }
}
