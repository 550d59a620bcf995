//! `ringen` — regular invariants for constrained Horn clauses over
//! algebraic data types.
//!
//! A from-scratch Rust reproduction of *"Beyond the Elementary
//! Representations of Program Invariants over Algebraic Data Types"*
//! (Kostyukov, Mordvinov, Fedyukovich; PLDI 2021). This facade crate
//! re-exports the whole workspace:
//!
//! * [`terms`] — many-sorted first-order terms, ADT signatures, the
//!   Herbrand universe, paths and pumping substitutions (§3, §6);
//! * [`chc`] — constrained Horn clauses, SMT-LIB parser/printer (§3);
//! * [`automata`] — deterministic finite tree (tuple) automata, the
//!   `Reg` representation class (Definitions 2–3);
//! * [`sat`] — a CDCL SAT solver (substrate);
//! * [`fmf`] — a MACE-style finite-model finder over EUF (§4.1–4.2);
//! * [`core`] — the RInGen pipeline: preprocessing (§4.4–4.5),
//!   model → automaton (Theorem 1), certified SAT/UNSAT answers, and
//!   the executable pumping lemmas (§6);
//! * [`elem`], [`sizeelem`] — the `Elem` and `SizeElem` representation
//!   classes with their own solvers (the Spacer/Eldarica roles, §8);
//! * [`regelem`] — the §7-future-work class of first-order formulas
//!   with regular membership predicates, subsuming `Reg ∪ Elem`, with
//!   a three-phase hybrid solver (§8's concluding conjecture);
//! * [`induction`], [`verimap`] — the remaining evaluation baselines;
//! * [`benchgen`] — generators for every workload of §8;
//! * [`parallel`] — the dependency-free, process-wide thread pool
//!   behind the sharded saturation rounds, the model finder's
//!   grounding and automata batch evaluation (`RINGEN_THREADS` sets
//!   the guard's worker count; results are bit-for-bit identical at
//!   any value);
//! * [`portfolio`] — the four representation-class engines raced
//!   concurrently with cooperative cancellation, wall-clock deadlines
//!   (`RINGEN_DEADLINE_MS`), and per-engine panic isolation;
//! * [`server`] — a long-lived concurrent solve service over the
//!   racer: bounded admission with typed shedding, per-query
//!   deadlines, a retry ladder with panic quarantine, a shared
//!   verdict memo, deterministic fault injection (`RINGEN_FAULTS`),
//!   and a machine-readable health snapshot;
//! * [`obs`] — dependency-free structured spans and a counter/gauge
//!   registry, threaded through every engine via its [`core::Guard`];
//! * [`report`] — assembles the recorder's trace and the engines'
//!   statistics into the machine-readable `SolveReport` behind the
//!   CLI's `--report-json` flag and the `RINGEN_TRACE` knob.
//!
//! # Quickstart
//!
//! ```
//! use ringen::core::{solve, Answer, RingenConfig};
//!
//! // Example 1 of the paper: no two consecutive Peano numbers are even.
//! let sys = ringen::chc::parse_str(r#"
//!   (declare-datatypes ((Nat 0)) (((Z) (S (pre Nat)))))
//!   (declare-fun even (Nat) Bool)
//!   (assert (even Z))
//!   (assert (forall ((x Nat)) (=> (even x) (even (S (S x))))))
//!   (assert (forall ((x Nat)) (=> (and (even x) (even (S x))) false)))
//! "#)?;
//! let (answer, _) = solve(&sys, &RingenConfig::default());
//! match answer {
//!     Answer::Sat(sat) => assert_eq!(sat.invariant.state_count(), 2),
//!     other => panic!("expected SAT, got {other:?}"),
//! }
//! # Ok::<(), ringen::chc::ParseError>(())
//! ```

pub mod portfolio;
pub mod report;

pub use ringen_automata as automata;
pub use ringen_benchgen as benchgen;
pub use ringen_chc as chc;
pub use ringen_core as core;
pub use ringen_elem as elem;
pub use ringen_fmf as fmf;
pub use ringen_induction as induction;
pub use ringen_obs as obs;
pub use ringen_parallel as parallel;
pub use ringen_regelem as regelem;
pub use ringen_sat as sat;
pub use ringen_server as server;
pub use ringen_sizeelem as sizeelem;
pub use ringen_terms as terms;
pub use ringen_verimap as verimap;
