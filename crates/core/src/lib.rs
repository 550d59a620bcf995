//! `ringen-core` — regular invariant inference for CHCs over algebraic
//! data types.
//!
//! This crate is the primary contribution of the reproduced paper,
//! *"Beyond the Elementary Representations of Program Invariants over
//! Algebraic Data Types"* (PLDI 2021): a solver that infers **regular**
//! (tree-automaton) inductive invariants by reducing CHC satisfiability
//! modulo ADTs to finite-model finding over EUF (Figure 1 / §4).
//!
//! * [`preprocess`] — §4.4 disequality elimination, §4.5
//!   tester/selector elimination, Theorem 5's equality elimination;
//! * [`solve`] — the end-to-end solver: UNSAT with a replayable
//!   [`Refutation`], SAT with a [`RegularInvariant`] re-verified by the
//!   decidable inductiveness check ([`check_inductive`]);
//! * [`refute`] — the refute phase every engine opens with, and the
//!   [`SharedRefutation`] cell that runs it once per portfolio race;
//! * [`definability`] — executable pumping lemmas (§6) and bounded
//!   regular-definability search (§7).
//!
//! # Example
//!
//! ```
//! use ringen_core::{solve, Answer, RingenConfig};
//!
//! let sys = ringen_chc::parse_str(r#"
//!   (declare-datatypes ((Nat 0)) (((Z) (S (pre Nat)))))
//!   (declare-fun even (Nat) Bool)
//!   (assert (even Z))
//!   (assert (forall ((x Nat)) (=> (even x) (even (S (S x))))))
//!   (assert (forall ((x Nat)) (=> (and (even x) (even (S x))) false)))
//! "#)?;
//! let (answer, stats) = solve(&sys, &RingenConfig::default());
//! match answer {
//!     Answer::Sat(sat) => {
//!         // The paper's two-state automaton from Example 1.
//!         assert_eq!(sat.invariant.state_count(), 2);
//!     }
//!     other => panic!("expected SAT, got {other:?}"),
//! }
//! assert_eq!(stats.model_size, Some(2));
//! # Ok::<(), ringen_chc::ParseError>(())
//! ```

pub mod definability;
pub mod inductive;
pub mod invariant;
pub mod portfolio;
pub mod preprocess;
pub mod refute;
pub mod saturation;
pub mod solve;

pub use inductive::{
    check_inductive, check_inductive_guarded, check_inductive_with, InductiveCheck, Violation,
};
pub use invariant::{DisplayInvariant, RegularInvariant};
pub use preprocess::{preprocess, PreprocessStats, Preprocessed};
pub use refute::{refute_guarded, Refuted, SharedRefutation};
pub use ringen_fmf::FinderConfig;
pub use ringen_parallel::{
    deadline_ms_from_env, FaultPlan, FaultStats, Faults, Guard, Poller, Recorder, RecorderLimits,
    SharedRecorder, Span, SpanHandle,
};
pub use saturation::{
    check_refutation, saturate, saturate_guarded, FactBase, Refutation, RefutationError,
    SaturationConfig, SaturationOutcome,
};
pub use solve::{
    search_guarded, solve, solve_guarded, solve_with_store, Answer, Divergence, RingenConfig,
    SatAnswer, SolveStats,
};
