//! Per-layer numbers from the program's own traces and race stats.
//!
//! Every figure is summed over the traced races and divided by their
//! count, so it reads "per traced race". A server query keeps only the
//! trace of its last attempt, so on the server workloads a traced race
//! is a query's last attempt (see `trace.last_attempt_share`).

use std::collections::HashMap;

use ringen::core::portfolio::{EngineStatus, PortfolioStats};
use ringen::obs::{SpanRec, Trace};

use crate::stats::{ms, per, percentile, Rng};

/// The racing entrants, in the order the per-engine metrics list them.
pub const ENGINES: [&str; 4] = ["fmf", "elem", "sizeelem", "regelem"];

/// A metric name and the span names it covers.
type SpanLayer = (&'static str, fn(&str) -> bool);

/// Busy time per layer: spans matching the predicate, counting only the
/// outermost of nested matches so a layer is never counted twice.
const SPAN_LAYERS: [SpanLayer; 9] = [
    ("saturation.ms", |n| {
        n == "saturate" || n.ends_with(".refute")
    }),
    ("fmf.search_ms", |n| n == "fmf.search"),
    ("inductive_check_ms", |n| n == "inductive_check"),
    ("aut.ms", |n| n.starts_with("aut.")),
    ("elem.sweep_ms", |n| n == "elem.sweep"),
    ("sizeelem.sweep_ms", |n| n == "sizeelem.sweep"),
    ("regelem.regular_ms", |n| n == "regelem.regular"),
    ("regelem.elem_ms", |n| n == "regelem.elem"),
    ("regelem.combined_ms", |n| n == "regelem.combined"),
];

/// Program counters, renamed: the saturation engine's `sat.*` counters
/// become `saturation.*` and the CDCL solver's become `cdcl.*`.
const COUNTERS: [(&str, &str); 7] = [
    ("sat.rounds", "saturation.rounds"),
    ("sat.facts", "saturation.facts"),
    ("sat.candidates", "saturation.candidates"),
    ("sat.conflicts", "cdcl.conflicts"),
    ("sat.decisions", "cdcl.decisions"),
    ("sat.propagations", "cdcl.propagations"),
    ("sat.restarts", "cdcl.restarts"),
];

#[derive(Debug, Default)]
pub struct Layers {
    traces: u64,
    dropped: u64,
    sums: HashMap<&'static str, f64>,
    entrant_ms: [f64; 4],
    entrant_self_ms: [f64; 4],
    decided: u64,
    wins: [u64; 4],
    join_wait_ms: Vec<f64>,
    cancel_ms: Vec<f64>,
    overshoot_ms: Vec<f64>,
}

fn span_ms(s: &SpanRec) -> f64 {
    s.end_ns.saturating_sub(s.start_ns) as f64 / 1e6
}

/// Milliseconds of `[start, end)` covered by the union of `intervals`.
fn covered_ms(start: u64, end: u64, intervals: &mut [(u64, u64)]) -> f64 {
    intervals.sort_unstable();
    let (mut total, mut reach) = (0u64, start);
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(end));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total as f64 / 1e6
}

impl Layers {
    fn add(&mut self, key: &'static str, v: f64) {
        *self.sums.entry(key).or_insert(0.0) += v;
    }

    /// Folds in one race's trace.
    pub fn add_trace(&mut self, t: &Trace) {
        self.traces += 1;
        self.dropped += t.dropped.total();
        let index: HashMap<u64, &SpanRec> = t.spans.iter().map(|s| (s.id, s)).collect();
        let nested_in = |s: &SpanRec, pred: fn(&str) -> bool| {
            let mut up = s.parent;
            while let Some(p) = up.and_then(|id| index.get(&id)) {
                if pred(p.name) {
                    return true;
                }
                up = p.parent;
            }
            false
        };
        for (key, pred) in SPAN_LAYERS {
            let busy: f64 = t
                .spans
                .iter()
                .filter(|s| pred(s.name) && !nested_in(s, pred))
                .map(span_ms)
                .sum();
            self.add(key, busy);
        }
        let count = |name: &str| t.spans.iter().filter(|s| s.name == name).count() as f64;
        self.add("saturation.runs_per_query", count("saturate"));
        self.add("fmf.sizes_tried", count("fmf.size"));
        // `fmf.search` self time not inside any `fmf.size`: encoding.
        for search in t.spans.iter().filter(|s| s.name == "fmf.search") {
            let mut sizes: Vec<(u64, u64)> = t
                .spans
                .iter()
                .filter(|s| s.name == "fmf.size")
                .map(|s| (s.start_ns, s.end_ns))
                .collect();
            let covered = covered_ms(search.start_ns, search.end_ns, &mut sizes);
            self.add("fmf.encode_ms", span_ms(search) - covered);
        }
        for s in &t.spans {
            let parent_is_race = s
                .parent
                .and_then(|id| index.get(&id))
                .is_some_and(|p| p.name == "race");
            let Some(e) = ENGINES.iter().position(|&n| n == s.name) else {
                continue;
            };
            if !parent_is_race {
                continue;
            }
            let mut children: Vec<(u64, u64)> = t
                .spans
                .iter()
                .filter(|c| c.parent == Some(s.id))
                .map(|c| (c.start_ns, c.end_ns))
                .collect();
            self.entrant_ms[e] += span_ms(s);
            self.entrant_self_ms[e] += span_ms(s) - covered_ms(s.start_ns, s.end_ns, &mut children);
        }
        for (from, to) in COUNTERS {
            if let Some(&(_, v)) = t.counters.iter().find(|(n, _)| *n == from) {
                self.add(to, v as f64);
            }
        }
        for name in ["aut.memo_hits", "aut.memo_misses"] {
            if let Some(&(_, v)) = t.counters.iter().find(|(n, _)| *n == name) {
                self.add(name, v as f64);
            }
        }
    }

    /// Folds in one race's outcome: join wait, cancellation latency,
    /// deadline overshoot and the winning engine.
    pub fn add_race(&mut self, s: &PortfolioStats) {
        if let Some(w) = s.winner_report() {
            self.decided += 1;
            if let Some(e) = ENGINES.iter().position(|&n| n == w.name) {
                self.wins[e] += 1;
            }
            self.join_wait_ms
                .push(ms(s.elapsed.saturating_sub(w.elapsed)));
            for e in s
                .engines
                .iter()
                .filter(|e| e.status == EngineStatus::Cancelled)
            {
                self.cancel_ms.push(ms(e.elapsed.saturating_sub(w.elapsed)));
            }
        } else if let Some(d) = s.deadline.filter(|_| s.timed_out() > 0) {
            self.overshoot_ms.push(ms(s.elapsed.saturating_sub(d)));
        }
    }

    /// Spans the bounded trace rings dropped; must be 0 for the
    /// per-layer numbers to be whole.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The metrics, as `(name, unit, value)`.
    pub fn metrics(&self) -> Vec<(String, &'static str, f64)> {
        let sum = |k: &str| self.sums.get(k).copied().unwrap_or(0.0);
        let pct = |v: &[f64], p: f64| percentile(v, p).unwrap_or(0.0);
        let max = |v: &[f64]| v.iter().copied().fold(0.0, f64::max);
        let mut out: Vec<(String, &'static str, f64)> = vec![
            (
                "race.join_wait_ms_p50".into(),
                "ms",
                pct(&self.join_wait_ms, 50.0),
            ),
            (
                "race.join_wait_ms_p90".into(),
                "ms",
                pct(&self.join_wait_ms, 90.0),
            ),
            (
                "race.cancel_ms_p90".into(),
                "ms",
                pct(&self.cancel_ms, 90.0),
            ),
            ("race.cancel_ms_max".into(), "ms", max(&self.cancel_ms)),
            (
                "race.overshoot_ms_p50".into(),
                "ms",
                pct(&self.overshoot_ms, 50.0),
            ),
            (
                "race.overshoot_ms_p90".into(),
                "ms",
                pct(&self.overshoot_ms, 90.0),
            ),
            (
                "race.overshoot_ms_max".into(),
                "ms",
                max(&self.overshoot_ms),
            ),
        ];
        for (e, name) in ENGINES.iter().enumerate() {
            out.push((
                format!("race.win_share.{name}"),
                "ratio",
                per(self.wins[e] as f64, self.decided),
            ));
        }
        for (key, _) in SPAN_LAYERS {
            out.push((key.into(), "ms", per(sum(key), self.traces)));
        }
        out.push((
            "fmf.encode_ms".into(),
            "ms",
            per(sum("fmf.encode_ms"), self.traces),
        ));
        out.push((
            "saturation.runs_per_query".into(),
            "count",
            per(sum("saturation.runs_per_query"), self.traces),
        ));
        out.push((
            "fmf.sizes_tried".into(),
            "count",
            per(sum("fmf.sizes_tried"), self.traces),
        ));
        for (_, to) in COUNTERS {
            out.push((to.into(), "count", per(sum(to), self.traces)));
        }
        let (hits, misses) = (sum("aut.memo_hits"), sum("aut.memo_misses"));
        let lookups = hits + misses;
        out.push((
            "aut.memo_hit_share".into(),
            "ratio",
            if lookups > 0.0 { hits / lookups } else { 0.0 },
        ));
        for (e, name) in ENGINES.iter().enumerate() {
            let share = if self.entrant_ms[e] > 0.0 {
                self.entrant_self_ms[e] / self.entrant_ms[e]
            } else {
                0.0
            };
            out.push((format!("entrant.self_share.{name}"), "ratio", share));
        }
        out.push(("trace.dropped_spans".into(), "count", self.dropped as f64));
        out
    }
}

/// Median microseconds to spawn a 4-thread persistent pool and run a
/// 4-item map on it: the per-race pool cost.
pub fn pool_spawn_us(reps: usize) -> f64 {
    use ringen::parallel::{ParallelConfig, Pool};
    let cfg = ParallelConfig::with_threads(4);
    let items = [1u64, 2, 3, 4];
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = std::time::Instant::now();
            let pool = Pool::persistent(&cfg);
            let out = pool.map_items(&items, |_, x| std::hint::black_box(*x));
            drop(pool);
            std::hint::black_box(out);
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    crate::stats::median(&samples).unwrap_or(0.0)
}

/// Median microseconds of the `chc` front end over `texts`: parsing,
/// and printing the canonical form the server keys its memo by.
pub fn chc_front_end_us(texts: &[String], reps: usize, rng: &mut Rng) -> (f64, f64) {
    use ringen::chc::{parse_str, to_smtlib};
    let (mut parse, mut canon) = (Vec::new(), Vec::new());
    for _ in 0..reps {
        let text = &texts[rng.below(texts.len())];
        let t = std::time::Instant::now();
        let sys = parse_str(std::hint::black_box(text)).expect("corpus texts parse");
        parse.push(t.elapsed().as_secs_f64() * 1e6);
        let t = std::time::Instant::now();
        std::hint::black_box(to_smtlib(&sys));
        canon.push(t.elapsed().as_secs_f64() * 1e6);
    }
    (
        crate::stats::median(&parse).unwrap_or(0.0),
        crate::stats::median(&canon).unwrap_or(0.0),
    )
}
