//! Steady-state thread traffic of the solve path: once the process-wide
//! executor holds as many parked threads as one race can engage at
//! once, further races and server queries spawn nothing.
//!
//! The spawn counter is process-wide, so this file holds a single test:
//! its own binary, with no sibling test spawning threads concurrently.
//! The claim needs the race's demand to fit the parked-thread bound (8
//! per CPU); a `RINGEN_THREADS` far above the CPU count exceeds it, and
//! the test then only checks that the solve path still works.

use std::sync::Barrier;
use std::time::Duration;

use ringen_benchgen::programs;
use ringen_chc::ChcSystem;
use ringen_core::portfolio::{EngineVerdict, RaceConfig, RaceOutcome};
use ringen_parallel::{max_parked_threads, threads_spawned, Guard, ParallelConfig, Pool};
use ringen_server::{EngineKind, Entrants, Query, QueryVerdict, ServerConfig, SolveServer};

/// Even with a reachable query: refuted by the shared refute phase.
fn even_unsat() -> ChcSystem {
    ringen_chc::parse_str(
        "(declare-datatypes ((Nat 0)) (((Z) (S (pre Nat)))))
         (declare-fun even (Nat) Bool)
         (assert (even Z))
         (assert (forall ((x Nat)) (=> (even x) (even (S (S x))))))
         (assert (=> (even (S (S Z))) false))",
    )
    .expect("the system parses")
}

fn pool(width: usize) -> Pool {
    Pool::persistent(&ParallelConfig::with_threads(width))
}

/// Engages, all at once, as many threads as one race can: the race
/// runs one thread per entrant, and each entrant runs at most one
/// parallel loop at a time at the guard's width. A barrier holds every
/// participant until all of them are running, so each of them must be
/// a distinct thread; afterwards they park. Returns how many helper
/// threads that took.
fn engage_one_race_worth_of_threads(width: usize) -> usize {
    let entrants = if width > 1 { EngineKind::ALL.len() } else { 1 };
    let barrier = Barrier::new(entrants * width);
    pool(entrants).map_items(&vec![(); entrants], |_, _| {
        pool(width).map_items(&vec![(); width], |_, _| {
            barrier.wait();
        })
    });
    entrants * width - 1
}

fn race(sys: &ChcSystem, want: EngineVerdict) {
    let cfg = RaceConfig {
        deadline: Some(Duration::from_secs(60)),
    };
    let (outcome, _) = Entrants::racing().race(sys, &EngineKind::ALL, &cfg, &Guard::new());
    assert!(
        matches!(outcome, RaceOutcome::Decided { verdict, .. } if verdict == want),
        "expected {want:?}, got {outcome:?}"
    );
}

#[test]
fn warm_races_and_server_queries_spawn_no_thread() {
    let width = Guard::new().threads();
    let sat = programs::even();
    let unsat = even_unsat();

    // Warm-up: the executor's peak demand, then one race of each kind.
    let demand = engage_one_race_worth_of_threads(width);
    race(&sat, EngineVerdict::Sat);
    race(&unsat, EngineVerdict::Unsat);
    let fits = demand <= max_parked_threads();

    let warm = threads_spawned();
    let check = |what: &str, round: usize| {
        if fits {
            assert_eq!(threads_spawned(), warm, "{what} {round} spawned");
        }
    };
    for round in 0..20 {
        race(&sat, EngineVerdict::Sat);
        race(&unsat, EngineVerdict::Unsat);
        check("race round", round);
    }
    let server = SolveServer::new(ServerConfig::default());
    let query = Query::new("even", ringen_chc::to_smtlib(&sat));
    for round in 0..20 {
        assert_eq!(server.submit(&query).verdict(), Some(QueryVerdict::Sat));
        check("server query", round);
    }
    let health = server.health();
    assert_eq!(health.pool_threads_spawned, threads_spawned());
    assert!(health.pool_threads_parked <= health.pool_max_parked);

    // At width 1 every race is the sequential chain and nothing is
    // ever spawned.
    if width == 1 {
        assert_eq!(warm, 0);
    }
}
