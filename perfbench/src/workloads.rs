//! The three workloads. Each is a closed loop driven by one client
//! thread: the next request goes out when the previous one returns.

use std::collections::{BTreeMap, HashMap};
use std::time::{Duration, Instant};

use ringen::benchgen::{full_evaluation, programs, Expected};
use ringen::chc::{parse_str, to_smtlib, ChcSystem};
use ringen::obs::Recorder;
use ringen::parallel::{Guard, ParallelConfig};
use ringen::portfolio::{solve_portfolio_guarded, PortfolioAnswer, PortfolioConfig};
use ringen::server::{Query, QueryOutcome, QueryResult, QueryVerdict, ServerConfig, SolveServer};

use crate::layers::{self, Layers, ENGINES};
use crate::stats::{beyond, geomean, median, ms, per, percentile, trimmed_geomean, Rng};
use crate::{Args, Report};

/// Per-attempt deadline on the server workloads: the paper's 300 s
/// per-query timeout, scaled down.
const QUERY_DEADLINE: Duration = Duration::from_millis(100);
/// Queries per `submit_batch` on replay; at most `ServerConfig::queue`.
const REPLAY_BATCH: usize = 32;
/// Verdicts per first-sight slice: enough for ten beyond the p90.
const MIN_DECIDED: usize = 100;
/// Verdicts per replay slice (400 batches).
const REPLAY_SLICE: usize = 400 * REPLAY_BATCH;
/// Deadline of each showcase race.
const RACE_DEADLINE: Duration = Duration::from_secs(10);
/// Samples the `chc` front-end and pool probes time in a traced run.
const PROBE_REPS: usize = 2000;

/// CPU time used so far by every thread of this process.
fn cpu_time() -> Duration {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) and `clock_gettime` writes only to it.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU clock is always readable");
    Duration::new(
        u64::try_from(ts.tv_sec).expect("CPU time is not negative"),
        u32::try_from(ts.tv_nsec).expect("nanoseconds below 10^9"),
    )
}

/// Wall and CPU time of one call.
fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration, Duration) {
    let (t, c) = (Instant::now(), cpu_time());
    let out = f();
    (out, t.elapsed(), cpu_time().saturating_sub(c))
}

/// Runs `f` `reps` times, keeping the last result and the median time.
fn timed_setup<T>(reps: usize, mut f: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        let t = Instant::now();
        last = Some(f());
        times.push(t.elapsed().as_secs_f64());
    }
    let shown: Vec<String> = times.iter().take(8).map(|t| format!("{t:.6}")).collect();
    println!(
        "# set-up times (s): {}{}",
        shown.join(" "),
        if reps > 8 { " ..." } else { "" }
    );
    (
        last.expect("at least one set-up"),
        median(&times).expect("at least one set-up"),
    )
}

/// One distinct system of the evaluation corpus.
struct Item {
    name: String,
    text: String,
    expected: QueryVerdict,
}

/// `full_evaluation()` deduplicated by the canonical text the server
/// keys its memo by, in canonical-text order.
fn distinct_corpus() -> Result<Vec<Item>, String> {
    let mut by_text: BTreeMap<String, (String, QueryVerdict)> = BTreeMap::new();
    for b in full_evaluation() {
        let wire = to_smtlib(&b.system);
        let sys = parse_str(&wire).map_err(|e| format!("{}: {e}", b.name))?;
        let want = match b.expected {
            Expected::Sat => QueryVerdict::Sat,
            Expected::Unsat => QueryVerdict::Unsat,
        };
        let (first, seen) = by_text
            .entry(to_smtlib(&sys))
            .or_insert((b.name.clone(), want));
        if *seen != want {
            return Err(format!(
                "{first} and {} share a text but not a label",
                b.name
            ));
        }
    }
    Ok(by_text
        .into_iter()
        .map(|(text, (name, expected))| Item {
            name,
            text,
            expected,
        })
        .collect())
}

/// Scores one server outcome against the expected verdict; returns the
/// result when the query ran or hit the memo.
fn score<'a>(r: &mut Report, out: &'a QueryOutcome, want: QueryVerdict) -> Option<&'a QueryResult> {
    r.attempted += 1;
    match out {
        QueryOutcome::Solved(res) => {
            match res.verdict {
                QueryVerdict::Unknown if res.quarantined > 0 => r.failed += 1,
                QueryVerdict::Unknown => {}
                v if v != want => r.wrong += 1,
                _ => {}
            }
            Some(res)
        }
        QueryOutcome::Rejected { .. } | QueryOutcome::Invalid { .. } => {
            r.failed += 1;
            None
        }
    }
}

/// One stretch of a run: the wall and CPU time of each verdict, the
/// same per system, and the stretch's own wall and CPU time.
#[derive(Default)]
struct Slice {
    wall_ms: Vec<f64>,
    cpu_ms: Vec<f64>,
    wall_by_key: BTreeMap<usize, Vec<f64>>,
    cpu_by_key: BTreeMap<usize, Vec<f64>>,
    wall: Duration,
    cpu: Duration,
}

impl Slice {
    fn record(&mut self, key: usize, wall_ms: f64, cpu_ms: f64) {
        self.wall_ms.push(wall_ms);
        self.cpu_ms.push(cpu_ms);
        self.wall_by_key.entry(key).or_default().push(wall_ms);
        self.cpu_by_key.entry(key).or_default().push(cpu_ms);
    }

    fn absorb(&mut self, other: Slice) {
        self.wall_ms.extend(other.wall_ms);
        self.cpu_ms.extend(other.cpu_ms);
        for (k, v) in other.wall_by_key {
            self.wall_by_key.entry(k).or_default().extend(v);
        }
        for (k, v) in other.cpu_by_key {
            self.cpu_by_key.entry(k).or_default().extend(v);
        }
        self.wall += other.wall;
        self.cpu += other.cpu;
    }
}

/// A run's verdicts cut into consecutive slices. Each figure is
/// computed per slice and the median over slices reported, so a burst
/// of outside load that slows one slice does not move the result.
#[derive(Default)]
struct Slices {
    done: Vec<Slice>,
    open: Slice,
}

impl Slices {
    /// Closes the open slice once it holds at least `min` verdicts.
    fn cut(&mut self, min: usize) {
        if !self.open.wall_ms.is_empty() && self.open.wall_ms.len() >= min {
            self.done.push(std::mem::take(&mut self.open));
        }
    }

    /// All slices, the open one folded into the last when it is short.
    fn finish(mut self, min: usize) -> Vec<Slice> {
        let open = std::mem::take(&mut self.open);
        match self.done.last_mut() {
            Some(last) if open.wall_ms.len() < min => last.absorb(open),
            _ if !open.wall_ms.is_empty() => self.done.push(open),
            _ => {}
        }
        self.done
    }
}

/// Geometric mean over keys of each key's trimmed geometric mean, so
/// every system weighs the same however often it was sampled.
fn geomean_per_key(samples: &BTreeMap<usize, Vec<f64>>) -> f64 {
    let centres: Vec<f64> = samples
        .values()
        .filter_map(|v| trimmed_geomean(v))
        .collect();
    geomean(&centres).unwrap_or(0.0)
}

/// The slice figures of one clock: median over slices of the p50 and
/// p90 per verdict, and the geometric mean per system with each
/// system's samples pooled over the run (a long race runs once per
/// slice, too few for a centre of its own).
fn clock_figures(
    slices: &[Slice],
    samples: fn(&Slice) -> &Vec<f64>,
    by_key: fn(&Slice) -> &BTreeMap<usize, Vec<f64>>,
) -> (f64, f64, f64) {
    let med = |p: f64| {
        let per_slice: Vec<f64> = slices
            .iter()
            .filter_map(|s| percentile(samples(s), p))
            .collect();
        median(&per_slice).unwrap_or(0.0)
    };
    let mut pooled: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for s in slices {
        for (k, v) in by_key(s) {
            pooled.entry(*k).or_default().extend(v);
        }
    }
    (med(50.0), med(90.0), geomean_per_key(&pooled))
}

/// Median over slices of verdicts per second of `clock`.
fn rate(slices: &[Slice], clock: fn(&Slice) -> Duration) -> f64 {
    let per_slice: Vec<f64> = slices
        .iter()
        .map(|s| s.wall_ms.len() as f64 / clock(s).as_secs_f64())
        .collect();
    median(&per_slice).unwrap_or(0.0)
}

/// The end-to-end metrics: CPU time per verdict and verdicts per CPU
/// second. Wall-clock figures are printed too, and are per-layer
/// metrics of the traced run (see the README for why). Each slice's
/// p90 must have ten samples beyond it.
fn end_to_end(r: &mut Report, slices: &[Slice], wall_qps: Option<f64>) {
    if slices.is_empty() {
        r.faults.push("no verdicts".into());
    }
    if let Some(short) = slices.iter().find(|s| beyond(s.wall_ms.len(), 90.0) < 10) {
        r.faults.push(format!(
            "a slice of {} verdicts has fewer than ten beyond p90",
            short.wall_ms.len()
        ));
    }
    let sizes: Vec<usize> = slices.iter().map(|s| s.wall_ms.len()).collect();
    println!("# {} slices, verdicts per slice: {sizes:?}", slices.len());
    let (p50, p90, gm) = clock_figures(slices, |s| &s.cpu_ms, |s| &s.cpu_by_key);
    r.metric("cpu_ms_p50", "ms", p50);
    r.metric("cpu_ms_p90", "ms", p90);
    r.metric("cpu_ms_geomean", "ms", gm);
    r.metric("verdicts_per_cpu_s", "1/s", rate(slices, |s| s.cpu));
    let wall = wall_metrics(slices, wall_qps);
    let shown: Vec<String> = wall
        .iter()
        .map(|(n, u, v)| format!("{n}={v:.4} {u}"))
        .collect();
    println!("# wall clock: {}", shown.join(", "));
}

/// Wall-clock `qps` (the slices' median unless given) and verdict
/// latency p50, p90 and geometric mean per system.
fn wall_metrics(slices: &[Slice], qps: Option<f64>) -> Vec<(String, &'static str, f64)> {
    let (p50, p90, gm) = clock_figures(slices, |s| &s.wall_ms, |s| &s.wall_by_key);
    vec![
        (
            "qps".into(),
            "1/s",
            qps.unwrap_or_else(|| rate(slices, |s| s.wall)),
        ),
        ("verdict_ms_p50".into(), "ms", p50),
        ("verdict_ms_p90".into(), "ms", p90),
        ("verdict_ms_geomean".into(), "ms", gm),
    ]
}

/// Server-side accounting shared by the two server workloads.
#[derive(Default)]
struct ServerTally {
    queries: u64,
    hits: u64,
    attempts: u64,
    decided_runs: u64,
    sleep_ms: f64,
    attempt_hist: BTreeMap<u32, u64>,
    key_bytes: f64,
    busy: Duration,
    batch_ms: Vec<f64>,
    unknown_ms: Vec<f64>,
    /// Race over winner elapsed, per system.
    over_winner: BTreeMap<usize, Vec<f64>>,
    layers: Layers,
}

impl ServerTally {
    /// Folds in one result. Traces are read only on traced runs.
    fn note(&mut self, cfg: &ServerConfig, res: &QueryResult, text_len: usize, traced: bool) {
        self.queries += 1;
        self.key_bytes += text_len as f64;
        if res.cached {
            self.hits += 1;
            return;
        }
        self.attempts += u64::from(res.attempts);
        if res.verdict != QueryVerdict::Unknown {
            self.decided_runs += 1;
        }
        // Every retry sleeps first: backoff * 2^(k-1), capped.
        for k in 1..res.attempts {
            let wait = cfg.backoff.saturating_mul(1 << (k - 1).min(16));
            self.sleep_ms += ms(wait.min(cfg.backoff_cap));
        }
        *self.attempt_hist.entry(res.attempts).or_insert(0) += 1;
        if traced {
            self.layers.add_trace(&res.report.trace);
            if let Some(stats) = &res.stats {
                self.layers.add_race(stats);
            }
        }
    }

    /// The `server.*` metrics, and the latencies only a server shows.
    fn server_metrics(&self, r: &mut Report, memo: &[(String, QueryVerdict)], wall: Duration) {
        let ran = self.queries - self.hits;
        let key_kb = memo.iter().map(|(k, _)| k.len()).sum::<usize>() as f64 / 1024.0;
        r.metric(
            "server.memo_hit_share",
            "ratio",
            per(self.hits as f64, self.queries),
        );
        r.metric("server.memo_entries", "count", memo.len() as f64);
        r.metric("server.memo_key_kb", "KiB", key_kb);
        r.metric(
            "server.attempts_per_query",
            "count",
            per(self.attempts as f64, self.queries),
        );
        r.metric(
            "server.wasted_attempt_share",
            "ratio",
            per((self.attempts - self.decided_runs) as f64, self.attempts),
        );
        r.metric("server.ladder_sleep_ms", "ms", per(self.sleep_ms, ran));
        r.metric(
            "server.batch_busy_share",
            "ratio",
            self.busy.as_secs_f64() / wall.as_secs_f64(),
        );
        r.metric(
            "unknown_ms_p50",
            "ms",
            percentile(&self.unknown_ms, 50.0).unwrap_or(0.0),
        );
        r.metric(
            "batch_ms_p99",
            "ms",
            percentile(&self.batch_ms, 99.0).unwrap_or(0.0),
        );
    }

    /// The trace metrics of a server run: a query's trace covers its
    /// last attempt only, and the server always traces.
    fn trace_metrics(&self, r: &mut Report) {
        println!(
            "# traces cover the last attempt; queries by attempts run: {:?}",
            self.attempt_hist
        );
        let ran = self.queries - self.hits;
        r.metric(
            "trace.last_attempt_share",
            "ratio",
            per(ran as f64, self.attempts),
        );
        r.metric("trace.overhead_share", "ratio", 0.0);
    }
}

/// Everything a traced run reports besides the `server.*` metrics:
/// the `chc` probes, the pool probe, the layer figures from the traces,
/// and the wall-clock view of the run.
#[allow(clippy::too_many_arguments)]
fn per_layer(
    r: &mut Report,
    layers: &Layers,
    texts: &[String],
    key_bytes_mean: f64,
    wall: Vec<(String, &'static str, f64)>,
    over_winner: f64,
    utilization: f64,
    rng: &mut Rng,
) {
    let (parse_us, canon_us) = layers::chc_front_end_us(texts, PROBE_REPS, rng);
    r.metric("chc.parse_us_p50", "us", parse_us);
    r.metric("chc.canon_us_p50", "us", canon_us);
    r.metric("chc.key_bytes_mean", "bytes", key_bytes_mean);
    r.metric(
        "pool.spawn_us",
        "us",
        layers::pool_spawn_us(PROBE_REPS / 10),
    );
    r.metrics.extend(layers.metrics());
    r.metrics.extend(wall);
    r.metric("race_over_winner", "ratio", over_winner);
    r.metric("cpu.utilization", "ratio", utilization);
    if layers.dropped() > 0 {
        r.faults
            .push(format!("{} trace spans were dropped", layers.dropped()));
    }
}

fn server_config() -> ServerConfig {
    ServerConfig {
        query_deadline: Some(QUERY_DEADLINE),
        ..ServerConfig::default()
    }
}

/// Every distinct corpus system, in a seeded order, one at a time to a
/// fresh server, so every query misses the memo. One full pass gives
/// `solved`, the wall-clock `qps` and the Unknown latency; further
/// passes over the systems that pass decided, each on a fresh server,
/// fill the run with verdicts.
pub fn first_sight(args: &Args) -> Report {
    let mut r = Report::default();
    let (corpus, setup_s) = timed_setup(9, distinct_corpus);
    let corpus = match corpus {
        Ok(c) => c,
        Err(e) => {
            r.faults.push(e);
            return r;
        }
    };
    let cfg = server_config();
    println!("# distinct systems={} server config: {cfg:?}", corpus.len());
    let mut rng = Rng::new(args.seed);
    let mut order: Vec<usize> = (0..corpus.len()).collect();
    rng.shuffle(&mut order);

    let mut tally = ServerTally::default();
    let mut slices = Slices::default();
    let pass = |server: &SolveServer,
                order: &[usize],
                r: &mut Report,
                tally: &mut ServerTally,
                slices: &mut Slices| {
        let mut decided = Vec::new();
        for &i in order {
            let item = &corpus[i];
            let query = Query::new(item.name.clone(), item.text.clone());
            let (out, wall, cpu) = timed(|| server.submit(&query));
            tally.busy += wall;
            tally.batch_ms.push(ms(wall));
            slices.open.wall += wall;
            slices.open.cpu += cpu;
            let Some(res) = score(r, &out, item.expected) else {
                continue;
            };
            tally.note(&cfg, res, item.text.len(), args.trace);
            if res.verdict == QueryVerdict::Unknown {
                tally.unknown_ms.push(ms(wall));
                continue;
            }
            decided.push(i);
            slices.open.record(i, ms(wall), ms(cpu));
            if let Some(stats) = &res.stats {
                if let Some(w) = stats.winner_report() {
                    let ratio = stats.elapsed.as_secs_f64() / w.elapsed.as_secs_f64().max(1e-9);
                    tally.over_winner.entry(i).or_default().push(ratio);
                }
            }
        }
        decided
    };

    let (started, cpu_started) = (Instant::now(), cpu_time());
    let first = SolveServer::new(cfg.clone());
    let mut decided = pass(&first, &order, &mut r, &mut tally, &mut slices);
    let full_pass = started.elapsed();
    let solved = decided.len();
    // The full pass is mostly deadline-bound Unknowns; the slices hold
    // only the passes over decided systems.
    slices = Slices::default();
    let mut passes = 1;
    while !decided.is_empty() && (started.elapsed() < args.seconds || slices.done.is_empty()) {
        rng.shuffle(&mut decided);
        let server = SolveServer::new(cfg.clone());
        pass(&server, &decided, &mut r, &mut tally, &mut slices);
        passes += 1;
        slices.cut(MIN_DECIDED);
    }
    let (wall, cpu) = (started.elapsed(), cpu_time().saturating_sub(cpu_started));
    println!(
        "# full pass: {solved} of {} decided in {:.3} s; {passes} passes",
        corpus.len(),
        full_pass.as_secs_f64(),
    );
    let slices = slices.finish(MIN_DECIDED);
    let qps = corpus.len() as f64 / full_pass.as_secs_f64();
    if args.trace {
        let texts: Vec<String> = corpus.iter().map(|c| c.text.clone()).collect();
        tally.server_metrics(&mut r, &first.memo_snapshot(), wall);
        tally.trace_metrics(&mut r);
        per_layer(
            &mut r,
            &tally.layers,
            &texts,
            per(tally.key_bytes, tally.queries),
            wall_metrics(&slices, Some(qps)),
            geomean_per_key(&tally.over_winner),
            cpu.as_secs_f64() / wall.as_secs_f64(),
            &mut rng,
        );
    } else {
        r.metric("solved", "count", solved as f64);
        end_to_end(&mut r, &slices, Some(qps));
        r.metric("setup_s", "s", setup_s);
    }
    r
}

/// A warm, long-lived server answering seeded uniform draws from the
/// texts it memoized, in batches: every query is a memo hit.
pub fn replay(args: &Args, nproc: usize) -> Report {
    let mut r = Report::default();
    let cfg = ServerConfig {
        parallel: ParallelConfig::with_threads(nproc),
        ..server_config()
    };
    println!("# server config: {cfg:?}");
    // Set-up: build the corpus and a server, and warm it with one pass
    // over the distinct systems.
    let (built, setup_s) = timed_setup(2, || {
        let corpus = distinct_corpus()?;
        let server = SolveServer::new(cfg.clone());
        let queries: Vec<Query> = corpus
            .iter()
            .map(|c| Query::new(c.name.clone(), c.text.clone()))
            .collect();
        let mut warm = Report::default();
        for (chunk, items) in queries
            .chunks(REPLAY_BATCH)
            .zip(corpus.chunks(REPLAY_BATCH))
        {
            for (out, item) in server.submit_batch(chunk).iter().zip(items) {
                score(&mut warm, out, item.expected);
            }
        }
        Ok::<_, String>((corpus, server, warm))
    });
    let (corpus, server, warm) = match built {
        Ok(b) => b,
        Err(e) => {
            r.faults.push(e);
            return r;
        }
    };
    r.attempted += warm.attempted;
    r.failed += warm.failed;
    r.wrong += warm.wrong;

    let expected: HashMap<&str, QueryVerdict> = corpus
        .iter()
        .map(|c| (c.text.as_str(), c.expected))
        .collect();
    let mut served: Vec<(Query, QueryVerdict)> = Vec::new();
    for (text, verdict) in server.memo_snapshot() {
        match expected.get(text.as_str()) {
            Some(&want) if want == verdict => served.push((Query::new("replay", text), want)),
            Some(_) => r.wrong += 1,
            None => r
                .faults
                .push("the memo holds a text not in the corpus".into()),
        }
    }
    println!(
        "# warm-up: {} distinct systems, {} memoized",
        corpus.len(),
        served.len()
    );
    if served.is_empty() {
        r.faults.push("nothing memoized to replay".into());
        return r;
    }

    let mut rng = Rng::new(args.seed);
    let mut tally = ServerTally::default();
    let mut slices = Slices::default();
    let mut misses = 0u64;
    let (started, cpu_started) = (Instant::now(), cpu_time());
    while started.elapsed() < args.seconds {
        let (turn, turn_cpu) = (Instant::now(), cpu_time());
        let draws: Vec<usize> = (0..REPLAY_BATCH).map(|_| rng.below(served.len())).collect();
        let batch: Vec<Query> = draws.iter().map(|&i| served[i].0.clone()).collect();
        let (outs, wall, cpu) = timed(|| server.submit_batch(&batch));
        tally.busy += wall;
        tally.batch_ms.push(ms(wall));
        // A query's verdict reaches the caller when its batch returns;
        // the batch's CPU time is shared among its queries.
        let cpu_each = ms(cpu) / batch.len() as f64;
        for (&i, out) in draws.iter().zip(&outs) {
            let (query, want) = &served[i];
            if let Some(res) = score(&mut r, out, *want) {
                misses += u64::from(!res.cached);
                tally.note(&cfg, res, query.text.len(), args.trace);
            }
            slices.open.record(i, ms(wall), cpu_each);
        }
        slices.open.wall += turn.elapsed();
        slices.open.cpu += cpu_time().saturating_sub(turn_cpu);
        slices.cut(REPLAY_SLICE);
    }
    let (wall, cpu) = (started.elapsed(), cpu_time().saturating_sub(cpu_started));
    println!(
        "# replayed {} queries in {} batches over {:.3} s; {misses} memo misses",
        tally.queries,
        tally.batch_ms.len(),
        wall.as_secs_f64()
    );
    let slices = slices.finish(REPLAY_SLICE);
    if args.trace {
        let texts: Vec<String> = served.iter().map(|(q, _)| q.text.clone()).collect();
        tally.server_metrics(&mut r, &server.memo_snapshot(), wall);
        tally.trace_metrics(&mut r);
        per_layer(
            &mut r,
            &tally.layers,
            &texts,
            per(tally.key_bytes, tally.queries),
            wall_metrics(&slices, None),
            0.0,
            cpu.as_secs_f64() / wall.as_secs_f64(),
            &mut rng,
        );
    } else {
        r.metric("solved", "count", served.len() as f64);
        end_to_end(&mut r, &slices, None);
        r.metric("setup_s", "s", setup_s);
    }
    r
}

/// A showcase program: name, constructor, and races per round.
type Program = (&'static str, fn() -> ChcSystem, usize);

/// The showcase programs with the races each gets per round: the fast
/// ones more, so each has a steady centre and a round holds more than
/// 100 races.
const SHOWCASE: [Program; 7] = [
    ("Even", programs::even, 24),
    ("IncDec", programs::inc_dec, 24),
    ("EvenLeft", programs::even_left, 1),
    ("Diag", programs::diag, 24),
    ("LtGt", programs::lt_gt, 24),
    ("EvenDiag", programs::even_diag, 24),
    ("EvenLeftDiag", programs::even_left_diag, 1),
];

/// Per-program samples of the showcase race.
#[derive(Default)]
struct ProgramRow {
    race_ms: Vec<f64>,
    cpu_ms: Vec<f64>,
    traced_ms: Vec<f64>,
    over_winner: Vec<f64>,
    wins: [u64; 4],
}

/// The §7 programs through `solve_portfolio_guarded` (the CLI's
/// `--solver portfolio` path) with the default racing budgets, in
/// rounds until the time is up. Every program is safe.
pub fn showcase_race(args: &Args) -> Report {
    let mut r = Report::default();
    // Set-up: the CLI's input path (SMT-LIB text, parsed) and the
    // racing configuration.
    let (inputs, setup_s) = timed_setup(101, || {
        let systems: Result<Vec<ChcSystem>, String> = SHOWCASE
            .iter()
            .map(|(name, build, _)| {
                parse_str(&to_smtlib(&build())).map_err(|e| format!("{name}: {e}"))
            })
            .collect();
        let cfg = PortfolioConfig {
            deadline: Some(RACE_DEADLINE),
            ..PortfolioConfig::default()
        };
        systems.map(|s| (s, cfg))
    });
    let (systems, cfg) = match inputs {
        Ok(i) => i,
        Err(e) => {
            r.faults.push(e);
            return r;
        }
    };
    println!("# portfolio config: {cfg:?}");
    let mut rng = Rng::new(args.seed);
    let mut rows: Vec<ProgramRow> = SHOWCASE.iter().map(|_| ProgramRow::default()).collect();
    let mut layers = Layers::default();
    let mut slices = Slices::default();
    let mut schedule: Vec<usize> = SHOWCASE
        .iter()
        .enumerate()
        .flat_map(|(p, &(_, _, reps))| std::iter::repeat_n(p, reps))
        .collect();

    let mut race = |p: usize, traced: bool, r: &mut Report, layers: &mut Layers| {
        let guard = if traced {
            Guard::new().with_recorder(Recorder::new())
        } else {
            Guard::new()
        };
        let ((answer, stats), wall, cpu) =
            timed(|| solve_portfolio_guarded(&systems[p], &cfg, &guard));
        r.attempted += 1;
        match answer {
            PortfolioAnswer::Sat(_) => {}
            PortfolioAnswer::Unsat(_) => r.wrong += 1,
            PortfolioAnswer::Unknown | PortfolioAnswer::Interrupted => r.failed += 1,
        }
        let row = &mut rows[p];
        if let Some(w) = stats.winner_report() {
            row.over_winner
                .push(stats.elapsed.as_secs_f64() / w.elapsed.as_secs_f64().max(1e-9));
            if let Some(e) = ENGINES.iter().position(|&n| n == w.name) {
                row.wins[e] += 1;
            }
        }
        if traced {
            layers.add_trace(&guard.recorder().snapshot());
            layers.add_race(&stats);
            row.traced_ms.push(ms(wall));
        } else {
            row.race_ms.push(ms(wall));
            row.cpu_ms.push(ms(cpu));
        }
        (wall, cpu)
    };

    let (started, cpu_started) = (Instant::now(), cpu_time());
    let (mut plain, mut traced) = (Duration::ZERO, Duration::ZERO);
    let mut round = 0usize;
    let mut last_round = Duration::ZERO;
    // Whole rounds only, so every run weighs the programs alike; stop
    // before a round that would overrun. Each round is one slice.
    while round == 0 || started.elapsed() + last_round <= args.seconds {
        let round_start = Instant::now();
        rng.shuffle(&mut schedule);
        for &p in &schedule {
            if args.trace {
                // Alternate which side goes first, so neither always
                // runs on a cooler cache.
                let traced_first = (round + p).is_multiple_of(2);
                for traced_now in [traced_first, !traced_first] {
                    let (wall, _) = race(p, traced_now, &mut r, &mut layers);
                    if traced_now {
                        traced += wall;
                    } else {
                        plain += wall;
                    }
                }
            } else {
                let (wall, cpu) = race(p, false, &mut r, &mut layers);
                slices.open.record(p, ms(wall), ms(cpu));
                slices.open.wall += wall;
                slices.open.cpu += cpu;
            }
        }
        round += 1;
        last_round = round_start.elapsed();
        slices.cut(0);
    }
    let (wall, cpu) = (started.elapsed(), cpu_time().saturating_sub(cpu_started));

    for (row, (name, _, _)) in rows.iter().zip(SHOWCASE) {
        let wins: Vec<String> = ENGINES
            .iter()
            .zip(row.wins)
            .filter(|(_, n)| *n > 0)
            .map(|(e, n)| format!("{e}={n}"))
            .collect();
        println!(
            "# {name}: races={} race_ms_p50={:.3} cpu_ms_p50={:.3} traced_ms_p50={:.3} \
             race_over_winner={:.3} wins: {}",
            row.race_ms.len(),
            median(&row.race_ms).unwrap_or(0.0),
            median(&row.cpu_ms).unwrap_or(0.0),
            median(&row.traced_ms).unwrap_or(0.0),
            trimmed_geomean(&row.over_winner).unwrap_or(0.0),
            wins.join(" ")
        );
    }
    if args.trace {
        let texts: Vec<String> = systems.iter().map(to_smtlib).collect();
        let bytes: usize = SHOWCASE
            .iter()
            .zip(&texts)
            .map(|((_, _, reps), t)| reps * t.len())
            .sum();
        // No server on this path: its metrics read zero.
        ServerTally::default().server_metrics(&mut r, &[], wall);
        // Every race is traced whole.
        r.metric("trace.last_attempt_share", "ratio", 1.0);
        r.metric(
            "trace.overhead_share",
            "ratio",
            traced.as_secs_f64() / plain.as_secs_f64() - 1.0,
        );
        // Wall-clock figures from the untraced half of each pair.
        let mut untraced = Slice::default();
        for (p, row) in rows.iter().enumerate() {
            for (&w, &c) in row.race_ms.iter().zip(&row.cpu_ms) {
                untraced.record(p, w, c);
            }
        }
        untraced.wall = plain;
        let over_winner: Vec<f64> = rows
            .iter()
            .filter_map(|row| trimmed_geomean(&row.over_winner))
            .collect();
        per_layer(
            &mut r,
            &layers,
            &texts,
            bytes as f64 / schedule.len() as f64,
            wall_metrics(&[untraced], None),
            geomean(&over_winner).unwrap_or(0.0),
            cpu.as_secs_f64() / wall.as_secs_f64(),
            &mut rng,
        );
    } else {
        let decided = rows
            .iter()
            .filter(|row| !row.over_winner.is_empty())
            .count();
        r.metric("solved", "count", decided as f64);
        end_to_end(&mut r, &slices.finish(0), None);
        r.metric("setup_s", "s", setup_s);
    }
    r
}
