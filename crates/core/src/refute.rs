//! The refute phase every engine shares.
//!
//! Each solver — the FMF pipeline of [`crate::solve`], `Elem`,
//! `SizeElem`, `RegElem` — opens with the same cheap bottom-up
//! refutation attempt before its own invariant search. This module is
//! that phase, once: [`refute_guarded`] runs [`saturate_guarded`],
//! replays a found refutation with [`check_refutation`], and tells the
//! caller whether to report UNSAT, stop, or go on searching.
//!
//! A portfolio race runs the phase once for all its entrants through a
//! [`SharedRefutation`] cell: the first entrant to arrive computes it
//! under its own guard while the others wait, and every entrant reads
//! the same answer. Only a completed answer is shared — an entrant
//! that was cancelled or panicked mid-refutation leaves the cell empty
//! and the next one recomputes under *its* guard, so a fault stays
//! scoped to the entrant it hit.

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

use ringen_chc::ChcSystem;
use ringen_parallel::Guard;

use crate::saturation::{
    check_refutation, saturate_guarded, Refutation, SaturationConfig, SaturationOutcome,
    SaturationStats,
};

/// What the refute phase decided.
#[derive(Debug, Clone)]
pub enum Refuted {
    /// A replay-checked ground refutation: the system is UNSAT.
    Unsat(Refutation),
    /// No refutation within the budgets, and the guard is still clear:
    /// the engine's search phase decides.
    NoRefutation,
    /// The guard tripped; no search should start.
    Interrupted,
}

/// The refute phase: bounded saturation, under a `refute` span.
///
/// A refutation is replayed with [`check_refutation`] before it is
/// returned. [`Refuted::NoRefutation`] is only returned while `guard`
/// is clear, so a caller that starts its search on it never searches
/// past a tripped deadline.
///
/// # Panics
///
/// Panics if `sys` is not well-sorted, or if the refuter produces a
/// refutation that fails to replay (a bug, not a user error).
pub fn refute_guarded(
    sys: &ChcSystem,
    cfg: &SaturationConfig,
    guard: &Guard,
) -> (Refuted, SaturationStats) {
    if let Err(e) = sys.well_sorted() {
        panic!("input system is not well-sorted: {e}");
    }
    let mut span = guard.recorder().span("refute");
    let (outcome, stats) = saturate_guarded(sys, cfg, guard);
    let refuted = match outcome {
        SaturationOutcome::Refuted(r) => {
            if let Err(e) = check_refutation(sys, &r) {
                panic!("refuter produced an invalid refutation: {e}");
            }
            Refuted::Unsat(r)
        }
        SaturationOutcome::Interrupted(_) => Refuted::Interrupted,
        SaturationOutcome::Saturated(_) | SaturationOutcome::Budget(_) => {
            clear_or_interrupted(guard)
        }
    };
    span.note_str("outcome", outcome_name(&refuted));
    (refuted, stats)
}

fn clear_or_interrupted(guard: &Guard) -> Refuted {
    if guard.is_cancelled() {
        Refuted::Interrupted
    } else {
        Refuted::NoRefutation
    }
}

fn outcome_name(r: &Refuted) -> &'static str {
    match r {
        Refuted::Unsat(_) => "refuted",
        Refuted::NoRefutation => "no_refutation",
        Refuted::Interrupted => "interrupted",
    }
}

enum Cell {
    /// Nobody holds a completed answer; the next caller computes.
    Empty,
    /// One caller is computing.
    Running,
    /// The completed answer: `Some` refutation, or `None` for none.
    Done(Option<Refutation>),
}

/// One refute phase shared by every entrant of a race; see the module
/// docs.
pub struct SharedRefutation<'a> {
    sys: &'a ChcSystem,
    cfg: &'a SaturationConfig,
    cell: Mutex<Cell>,
    filled: Condvar,
}

impl<'a> SharedRefutation<'a> {
    /// An empty cell for `sys`, refuting with `cfg`'s budgets.
    pub fn new(sys: &'a ChcSystem, cfg: &'a SaturationConfig) -> Self {
        SharedRefutation {
            sys,
            cfg,
            cell: Mutex::new(Cell::Empty),
            filled: Condvar::new(),
        }
    }

    /// The refute phase for one entrant running under `guard`.
    ///
    /// Reads the shared answer if there is one; otherwise computes it
    /// with [`refute_guarded`] under `guard` if nobody is, or waits
    /// (under a `refute.wait` span) for whoever is. As with
    /// [`refute_guarded`], [`Refuted::NoRefutation`] is only returned
    /// while `guard` is clear.
    pub fn refute(&self, guard: &Guard) -> Refuted {
        let mut wait_span = None;
        let mut cell = self.lock();
        loop {
            match &*cell {
                Cell::Done(Some(r)) => return Refuted::Unsat(r.clone()),
                Cell::Done(None) => return clear_or_interrupted(guard),
                _ if guard.is_cancelled() => return Refuted::Interrupted,
                Cell::Running if wait_span.is_none() => {
                    // Span opens are fault-injection sites: never open
                    // one while holding the cell.
                    drop(cell);
                    wait_span = Some(guard.recorder().span("refute.wait"));
                    cell = self.lock();
                }
                // No timeout: a race-wide trip reaches the computing
                // entrant too, which then empties the cell and wakes
                // everyone; a trip of this guard alone is seen when
                // the answer arrives.
                Cell::Running => {
                    cell = self
                        .filled
                        .wait(cell)
                        .unwrap_or_else(PoisonError::into_inner);
                }
                Cell::Empty => break,
            }
        }
        *cell = Cell::Running;
        drop(cell);
        drop(wait_span);
        // Until an answer is stored, a panic or an interrupted run
        // hands the cell back empty so a sibling can take over.
        let mut reset = ResetOnDrop(Some(self));
        let (refuted, _) = refute_guarded(self.sys, self.cfg, guard);
        let done = match &refuted {
            Refuted::Unsat(r) => Some(r.clone()),
            Refuted::NoRefutation => None,
            Refuted::Interrupted => return refuted,
        };
        reset.0 = None;
        *self.lock() = Cell::Done(done);
        self.filled.notify_all();
        refuted
    }

    fn lock(&self) -> MutexGuard<'_, Cell> {
        // Every update is a single assignment and no span (no fault
        // site) opens under the lock, so even a poisoned cell holds a
        // valid state.
        self.cell.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

struct ResetOnDrop<'s, 'a>(Option<&'s SharedRefutation<'a>>);

impl Drop for ResetOnDrop<'_, '_> {
    fn drop(&mut self) {
        if let Some(shared) = self.0 {
            *shared.lock() = Cell::Empty;
            shared.filled.notify_all();
        }
    }
}
