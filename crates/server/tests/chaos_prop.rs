//! Chaos property: the solve service under randomized fault injection
//! still terminates every query with a definitive outcome, never
//! reports a wrong verdict, and — the load-bearing determinism claim —
//! a fault-free rerun of the same batch on the *same shared state*
//! (memo intact, faults disarmed) is bit-identical to a fresh,
//! never-faulted server: same verdict per query, same sorted memo
//! snapshot.
//!
//! Fault schedules mix the targeted grammar (`panic@span`,
//! `cancel@span`, `delay@span`) with the seeded random mode
//! (`SEED:RATE`), hitting both the racer's entrant spans (which unwind
//! the whole attempt into the quarantine) and engine-internal spans
//! (which the racer isolates per entrant).

use proptest::prelude::*;

use ringen_benchgen::programs;
use ringen_chc::{to_smtlib, ChcSystem};
use ringen_parallel::{FaultPlan, ParallelConfig};
use ringen_server::{Query, QueryOutcome, QueryVerdict, ServerConfig, SolveServer};
use std::time::Duration;

/// Deterministic splitmix-style generator so every case replays from
/// its proptest seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Millisecond-scale showcase programs only: the chaos batch must owe
/// its interruptions to the fault plan, not to a divergent sweep or a
/// contended deadline — a tripped deadline makes the clean baseline
/// nondeterministic. (`lt_gt` and the `*_diag` family diverge under
/// default budgets, and `even_left` runs seconds per engine, which on
/// a small box under race contention can cross any sane deadline;
/// those live in the deadline smoke instead.)
fn program_pool() -> Vec<(&'static str, ChcSystem)> {
    vec![("even", programs::even()), ("inc_dec", programs::inc_dec())]
}

fn quick_config() -> ServerConfig {
    ServerConfig {
        parallel: ParallelConfig::with_threads(2),
        backoff: Duration::ZERO,
        ..ServerConfig::default()
    }
}

/// A randomized schedule: a few targeted faults at racer and engine
/// spans, plus (sometimes) the seeded random mode at a modest rate.
fn random_plan(rng: &mut Rng) -> FaultPlan {
    // Entrant spans ("fmf", "elem", ...) unwind the attempt; the
    // engine-internal spans exercise per-engine isolation; `*` and
    // random mode spray everywhere.
    const TARGETS: &[&str] = &["fmf", "elem", "sizeelem", "regelem", "finder", "saturation"];
    const KINDS: &[&str] = &["panic", "cancel", "delay"];
    let mut specs: Vec<String> = Vec::new();
    for _ in 0..rng.below(3) {
        let kind = KINDS[rng.below(KINDS.len())];
        let target = TARGETS[rng.below(TARGETS.len())];
        let nth = rng.below(3) + 1;
        specs.push(format!("{kind}@{target}#{nth}"));
    }
    if rng.below(2) == 0 {
        // 0.5%..8% of all span opens; delays stay at the 1ms default.
        let rate = 0.005 + (rng.below(16) as f64) * 0.005;
        specs.push(format!("{}:{rate}", rng.next()));
    }
    let src = specs.join(", ");
    FaultPlan::parse(&src).unwrap_or_else(|e| panic!("generated plan {src:?} must parse: {e}"))
}

fn verdicts(outcomes: &[QueryOutcome]) -> Vec<QueryVerdict> {
    outcomes
        .iter()
        .map(|o| o.verdict().expect("valid wire input always solves"))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn faulted_service_stays_sound_and_reruns_bit_identical(seed in any::<u64>()) {
        let mut rng = Rng(seed);
        let pool = program_pool();

        // A batch of 3..=6 queries, duplicates allowed (they exercise
        // the shared memo under faults).
        let len = 3 + rng.below(4);
        let batch: Vec<Query> = (0..len)
            .map(|i| {
                let (name, sys) = &pool[rng.below(pool.len())];
                Query::new(format!("q{i}-{name}"), to_smtlib(sys))
            })
            .collect();

        // Ground truth: a fresh server that never sees a fault.
        let clean = SolveServer::new(quick_config());
        let clean_verdicts = verdicts(&clean.submit_batch(&batch));

        // The chaos run: same batch, randomized fault schedule.
        let plan = random_plan(&mut rng);
        let chaotic = SolveServer::new(ServerConfig {
            faults: plan,
            ..quick_config()
        });
        let faulted_verdicts = verdicts(&chaotic.submit_batch(&batch));

        // 1. Every query terminated (we got here) with a typed verdict,
        //    and no fault ever flipped a definitive answer: soundness.
        for (i, (f, c)) in faulted_verdicts.iter().zip(&clean_verdicts).enumerate() {
            if *f != QueryVerdict::Unknown {
                prop_assert_eq!(
                    f, c,
                    "query {} ({}): faulted definitive verdict must match clean",
                    i, batch[i].name
                );
            }
        }

        // 2. The memo only ever holds definitive verdicts, all agreeing
        //    with the clean server's memo for the same canonical text.
        let clean_memo = clean.memo_snapshot();
        for (text, verdict) in chaotic.memo_snapshot() {
            prop_assert!(verdict != QueryVerdict::Unknown, "Unknown must never memoize");
            let clean_entry = clean_memo.iter().find(|(t, _)| *t == text);
            prop_assert_eq!(clean_entry.map(|(_, v)| *v), Some(verdict));
        }

        // 3. Disarm injection and rerun the same batch on the same
        //    shared state: bit-identical to the never-faulted server.
        chaotic.set_faults(FaultPlan::default());
        let rerun_verdicts = verdicts(&chaotic.submit_batch(&batch));
        prop_assert_eq!(&rerun_verdicts, &clean_verdicts);
        prop_assert_eq!(chaotic.memo_snapshot(), clean.memo_snapshot());

        // 4. Health accounting stayed coherent through the chaos.
        let health = chaotic.health();
        prop_assert_eq!(health.queued, 0);
        prop_assert_eq!(health.in_flight, 0);
        prop_assert_eq!(health.sheds, 0);
        prop_assert_eq!(health.invalid, 0);
        prop_assert_eq!(health.completed, 2 * batch.len() as u64);
        prop_assert_eq!(health.admitted, health.completed);
    }
}
