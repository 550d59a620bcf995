//! The concrete portfolio race: FMF-backed regular invariants, `Elem`,
//! `SizeElem`, and `RegElem` run concurrently on one system; the first
//! definitive SAT/UNSAT cancels the rest.
//!
//! This is §8's hybrid conjecture run as a *race* instead of the
//! chained phases of `ringen_regelem::solve_regelem`: each
//! representation class gets its own engine with effectively unbounded
//! sweep budgets, so a loser keeps searching until the winner's cancel
//! (or the per-race deadline) trips its [`Guard`].
//!
//! The entrants — `fmf`, `elem`, `sizeelem`, `regelem` — share one
//! refute phase. The first entrant to start runs the bounded
//! saturation refuter (with the `fmf` budgets' saturation config) under
//! its own guard while the others wait on a per-race cell; a
//! refutation is replay-checked once and every entrant answers UNSAT
//! with it. Otherwise each entrant runs only its engine's search
//! phase: the finite-model search, the elementary and size-elementary
//! template sweeps, and `RegElem`'s regular, elementary and combined
//! phases. An entrant that was cancelled or panicked while refuting
//! leaves the cell to the next one, and no search starts once the race
//! has been cancelled.
//!
//! The generic harness lives in [`ringen_core::portfolio`], the shared
//! refute phase in [`ringen_core::refute`], and the entrant definition
//! in [`Entrants`] (`ringen_server`), which the solve service races
//! too; this module only adds the racing configuration and the
//! overall verdict.
//!
//! ```no_run
//! use ringen::portfolio::{solve_portfolio, PortfolioConfig};
//!
//! let sys = ringen::benchgen::programs::even_diag();
//! let (answer, stats) = solve_portfolio(&sys, &PortfolioConfig::default());
//! assert!(answer.is_sat()); // RegElem wins; the other three are cancelled
//! for report in &stats.engines {
//!     println!("{:<10} {:?} after {:?}", report.name, report.status, report.elapsed);
//! }
//! ```

use std::time::Duration;

use ringen_chc::ChcSystem;
use ringen_core::portfolio::{EngineVerdict, RaceConfig, RaceOutcome};
use ringen_core::Guard;

pub use ringen_core::portfolio::{EngineReport, EngineStatus, PortfolioStats};
pub use ringen_server::{EngineAnswer, EngineKind, Entrants};

/// The race's overall verdict.
#[derive(Debug)]
pub enum PortfolioAnswer {
    /// Some engine certified the system safe; its answer is attached.
    Sat(EngineAnswer),
    /// Some engine refuted the system; its answer is attached.
    Unsat(EngineAnswer),
    /// Every engine exhausted its own budgets.
    Unknown,
    /// The deadline (or an outer cancel) cut the race short. The
    /// [`PortfolioStats`] still carry every engine's partial outcome.
    Interrupted,
}

impl PortfolioAnswer {
    /// `true` for [`PortfolioAnswer::Sat`].
    pub fn is_sat(&self) -> bool {
        matches!(self, PortfolioAnswer::Sat(_))
    }

    /// `true` for [`PortfolioAnswer::Unsat`].
    pub fn is_unsat(&self) -> bool {
        matches!(self, PortfolioAnswer::Unsat(_))
    }

    /// `true` for [`PortfolioAnswer::Unknown`].
    pub fn is_unknown(&self) -> bool {
        matches!(self, PortfolioAnswer::Unknown)
    }

    /// `true` for [`PortfolioAnswer::Interrupted`].
    pub fn is_interrupted(&self) -> bool {
        matches!(self, PortfolioAnswer::Interrupted)
    }
}

/// Budgets and knobs for [`solve_portfolio`].
///
/// The engine budgets default to [`Entrants::racing`]: sweep limits
/// high enough that an entrant effectively runs until cancelled. A
/// race with one worker thread and no deadline therefore degenerates to
/// the sequential chain *and* inherits its divergence — bound it with
/// [`PortfolioConfig::deadline`] (or `RINGEN_DEADLINE_MS` via
/// [`PortfolioConfig::from_env`]).
///
/// No thread count is configured here. The race runs one thread per
/// entrant — race concurrency is structural, not hardware-bound, and a
/// loser can only be *cancelled* while a sibling makes progress — and
/// the engines' inner sweeps fan out as wide as the caller's [`Guard`]
/// ([`Guard::threads`]: `RINGEN_THREADS`, or the CPU count). A guard of
/// width 1 (`RINGEN_THREADS=1`) makes the race the sequential chain.
#[derive(Debug, Clone)]
pub struct PortfolioConfig {
    /// Wall-clock budget for the whole race; `None` races unbounded.
    pub deadline: Option<Duration>,
    /// The entrants' budgets.
    pub entrants: Entrants,
}

impl Default for PortfolioConfig {
    fn default() -> Self {
        PortfolioConfig {
            deadline: None,
            entrants: Entrants::racing(),
        }
    }
}

impl PortfolioConfig {
    /// Default racing budgets plus the `RINGEN_DEADLINE_MS` environment
    /// knob (see `ENVIRONMENT.md`).
    pub fn from_env() -> Self {
        PortfolioConfig {
            deadline: ringen_core::deadline_ms_from_env().map(Duration::from_millis),
            ..PortfolioConfig::default()
        }
    }
}

/// Races the four engines on `sys`; see the module docs.
pub fn solve_portfolio(
    sys: &ChcSystem,
    cfg: &PortfolioConfig,
) -> (PortfolioAnswer, PortfolioStats) {
    solve_portfolio_guarded(sys, cfg, &Guard::new())
}

/// [`solve_portfolio`] under an outer [`Guard`]: cancelling it cancels
/// every entrant.
pub fn solve_portfolio_guarded(
    sys: &ChcSystem,
    cfg: &PortfolioConfig,
    guard: &Guard,
) -> (PortfolioAnswer, PortfolioStats) {
    let race_cfg = RaceConfig {
        deadline: cfg.deadline,
    };
    let (outcome, stats) = cfg.entrants.race(sys, &EngineKind::ALL, &race_cfg, guard);
    let answer = match outcome {
        RaceOutcome::Decided { verdict, value, .. } => match verdict {
            EngineVerdict::Sat => PortfolioAnswer::Sat(value),
            EngineVerdict::Unsat => PortfolioAnswer::Unsat(value),
            _ => unreachable!("a race is only decided by a definitive verdict"),
        },
        RaceOutcome::Undecided => PortfolioAnswer::Unknown,
        RaceOutcome::Interrupted => PortfolioAnswer::Interrupted,
    };
    (answer, stats)
}
