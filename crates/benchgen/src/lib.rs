//! `ringen-benchgen` — deterministic generators for every workload the
//! paper evaluates (§8): the five §7 programs, the §5 STLC case study
//! with its 23 hand-written companions, and the three benchmark suites
//! of Table 1 (`PositiveEq`, `Diseq`, TIP-like).
//!
//! The paper's external suites are not shipped; the generated ones
//! reproduce their *composition* — which solver profile should solve
//! which fraction, as recorded in Table 1 — with genuine CHC systems
//! (see [`suites`]).
//!
//! # Example
//!
//! ```
//! use ringen_benchgen::{programs, suites};
//!
//! let even = programs::even();
//! assert!(even.well_sorted().is_ok());
//! assert_eq!(suites::tip_suite().len(), 454);
//! ```

pub mod programs;
pub mod shapes;
pub mod stlc;
pub mod suites;

pub use stlc::{handwritten_suite, type_check_system, TypeExpr};
pub use suites::{diseq_suite, positive_eq_suite, tip_suite, Benchmark, Expected, Family};

/// Every benchmark of the evaluation: the three Table 1 suites plus the
/// hand-written §8 problems and the five §7 programs.
pub fn full_evaluation() -> Vec<Benchmark> {
    let mut out = positive_eq_suite();
    out.extend(diseq_suite());
    out.extend(tip_suite());
    for (name, system) in handwritten_suite() {
        out.push(Benchmark {
            name,
            system,
            family: Family::Handwritten,
            expected: Expected::Sat,
        });
    }
    for (name, system) in [
        ("program/even", programs::even()),
        ("program/incdec", programs::inc_dec()),
        ("program/evenleft", programs::even_left()),
        ("program/diag", programs::diag()),
        ("program/ltgt", programs::lt_gt()),
    ] {
        out.push(Benchmark {
            name: name.to_string(),
            system,
            family: Family::Program,
            expected: Expected::Sat,
        });
    }
    out
}
