//! CI validator for solve-trace exports (`scripts/trace_smoke.sh`).
//!
//! Reads a report written by `ringen --report-json` (or
//! `RINGEN_TRACE`), re-parses it with `ringen-obs`'s own JSON parser,
//! and asserts the structural contract the observability layer
//! promises: schema tag, a definitive verdict string, a non-empty span
//! forest rooted at `solve`, a populated counter registry, and the
//! histogram/dropped-span analytics keys. With `--portfolio` it
//! additionally requires the `race` span to carry all four entrants as
//! children, each annotated with its verdict — the "race renders as a
//! timeline" acceptance shape.
//!
//! With `--chrome` the input is instead validated as a Chrome
//! `trace_event` document (`RINGEN_TRACE_FORMAT=chrome`): a metadata
//! event first, then one complete (`"X"`) event per span on `pid` 1
//! with monotone non-negative timestamps, unique span ids, and every
//! child's interval inside its parent's. `--chrome --portfolio`
//! requires exactly one complete event per entrant, each on a
//! timeline row.
//!
//! With `--health` the input is a `ringen-server-health-v1` snapshot
//! (written by `ringen --serve --health-json`): schema tag, the
//! queue/cache/fault/pool sub-objects, non-negative counters, and the
//! service-level accounting identities — a drained queue, everything
//! admitted accounted for, cache hits only out of cached entries, and
//! no more parked executor threads than the bound or than were ever
//! spawned.
//!
//! ```text
//! trace_check [--portfolio] [--chrome] [--health] TRACE.json
//! ```
//!
//! Exits 0 when every check passes, 1 with a diagnostic otherwise.

use std::process::ExitCode;

use ringen::obs::json::{parse, Json};
use ringen::report::SCHEMA;

const ENTRANTS: [&str; 4] = ["fmf", "elem", "sizeelem", "regelem"];

fn fail(msg: &str) -> ExitCode {
    eprintln!("trace_check: {msg}");
    ExitCode::FAILURE
}

fn span_count(span: &Json) -> usize {
    1 + span
        .get("children")
        .and_then(Json::as_arr)
        .map_or(0, |kids| kids.iter().map(span_count).sum())
}

/// The `--chrome` leg: validates a `trace_event` export.
fn check_chrome(doc: &Json, path: &str, portfolio: bool) -> ExitCode {
    let Some(events) = doc.get("traceEvents").and_then(Json::as_arr) else {
        return fail("traceEvents missing or not an array");
    };
    let [meta, spans @ ..] = events else {
        return fail("traceEvents is empty");
    };
    if meta.get("ph").and_then(Json::as_str) != Some("M") {
        return fail("first event is not the process metadata record");
    }
    if spans.is_empty() {
        return fail("no span events — was the recorder enabled?");
    }

    // Timestamps are µs floats; containment tolerates sub-nanosecond
    // float slop, nothing more.
    const EPS: f64 = 1e-3;
    let mut intervals: Vec<(i64, f64, f64)> = Vec::with_capacity(spans.len());
    let mut last_ts = f64::MIN;
    for (i, e) in spans.iter().enumerate() {
        if e.get("ph").and_then(Json::as_str) != Some("X") {
            return fail(&format!("event {i}: ph is not \"X\""));
        }
        if e.get("pid").and_then(Json::as_i64) != Some(1) {
            return fail(&format!("event {i}: pid is not 1"));
        }
        let (Some(ts), Some(dur)) = (
            e.get("ts").and_then(Json::as_f64),
            e.get("dur").and_then(Json::as_f64),
        ) else {
            return fail(&format!("event {i}: ts/dur missing"));
        };
        if ts < 0.0 || dur < 0.0 {
            return fail(&format!("event {i}: negative ts or dur"));
        }
        if ts < last_ts {
            return fail(&format!("event {i}: ts not monotone non-decreasing"));
        }
        last_ts = ts;
        let Some(id) = e
            .get("args")
            .and_then(|a| a.get("id"))
            .and_then(Json::as_i64)
        else {
            return fail(&format!("event {i}: args.id missing"));
        };
        if intervals.iter().any(|&(other, _, _)| other == id) {
            return fail(&format!("event {i}: duplicate span id {id}"));
        }
        intervals.push((id, ts, dur));
    }
    for (i, e) in spans.iter().enumerate() {
        let Some(parent) = e
            .get("args")
            .and_then(|a| a.get("parent"))
            .and_then(Json::as_i64)
        else {
            continue;
        };
        // Parents can be absent from a bounded (ring/sampled) export;
        // containment applies when both ends are present.
        let Some(&(_, pts, pdur)) = intervals.iter().find(|&&(id, _, _)| id == parent) else {
            continue;
        };
        let (_, ts, dur) = intervals[i];
        if ts + EPS < pts || ts + dur > pts + pdur + EPS {
            return fail(&format!(
                "event {i}: interval [{ts}, {}] escapes parent {parent}'s [{pts}, {}]",
                ts + dur,
                pts + pdur
            ));
        }
    }

    if portfolio {
        // Each entrant must be exactly one complete event with a
        // timeline row. Distinct tids are NOT required: the race pool
        // hands entrants to whichever worker is free, so a fast
        // entrant's worker can legitimately pick up a second one.
        for name in ENTRANTS {
            let rows: Vec<&Json> = spans
                .iter()
                .filter(|e| e.get("name").and_then(Json::as_str) == Some(name))
                .collect();
            let [row] = rows.as_slice() else {
                return fail(&format!(
                    "--portfolio: expected exactly one `{name}` event, found {}",
                    rows.len()
                ));
            };
            if row.get("tid").and_then(Json::as_i64).is_none() {
                return fail(&format!("--portfolio: entrant `{name}` has no tid"));
            }
        }
    }

    println!(
        "trace_check OK: {path} (chrome, {} span events)",
        spans.len()
    );
    ExitCode::SUCCESS
}

/// The `--health` leg: validates a `ringen-server-health-v1` snapshot.
fn check_health(doc: &Json, path: &str) -> ExitCode {
    if doc.get("schema").and_then(Json::as_str) != Some(ringen::server::HEALTH_SCHEMA) {
        return fail(&format!(
            "schema key missing or not {:?}",
            ringen::server::HEALTH_SCHEMA
        ));
    }
    let field = |obj: &Json, key: &str| -> Result<i64, String> {
        match obj.get(key).and_then(Json::as_i64) {
            Some(v) if v >= 0 => Ok(v),
            Some(v) => Err(format!("{key} is negative: {v}")),
            None => Err(format!("{key} missing or not an integer")),
        }
    };
    let (Some(queue), Some(cache), Some(faults), Some(pool)) = (
        doc.get("queue"),
        doc.get("cache"),
        doc.get("faults"),
        doc.get("pool"),
    ) else {
        return fail("queue/cache/faults/pool sub-objects missing");
    };
    let get = |obj: &Json, key: &str| -> i64 {
        match field(obj, key) {
            Ok(v) => v,
            Err(msg) => {
                eprintln!("trace_check: {msg}");
                std::process::exit(1);
            }
        }
    };
    let capacity = get(queue, "capacity");
    let depth = get(queue, "depth");
    let in_flight = get(queue, "in_flight");
    let sheds = get(queue, "sheds");
    let admitted = get(doc, "admitted");
    let completed = get(doc, "completed");
    let retries = get(doc, "retries");
    let quarantined = get(doc, "quarantined");
    let hits = get(cache, "hits");
    let entries = get(cache, "entries");
    let invalid = get(doc, "invalid");
    for key in ["panics", "delays", "cancels"] {
        get(faults, key);
    }
    get(doc, "uptime_ms");
    let spawned = get(pool, "threads_spawned");
    let parked = get(pool, "threads_parked");
    let max_parked = get(pool, "max_parked");
    if parked > max_parked {
        return fail(&format!(
            "{parked} parked threads exceed the bound {max_parked}"
        ));
    }
    if parked > spawned {
        return fail(&format!(
            "{parked} parked threads but only {spawned} ever spawned"
        ));
    }
    if capacity < 1 {
        return fail("queue capacity is zero");
    }
    if depth > capacity {
        return fail(&format!("queue depth {depth} exceeds capacity {capacity}"));
    }
    if in_flight > depth {
        return fail(&format!(
            "in_flight {in_flight} exceeds queue depth {depth}"
        ));
    }
    // Accounting identities: admitted work is either done or still
    // holding a slot, invalid queries are a subset of completions, and
    // a hit needs a cached entry (or at least one eviction-free write).
    if completed + depth < admitted {
        return fail(&format!(
            "admitted {admitted} exceeds completed {completed} + queued {depth}"
        ));
    }
    if invalid > completed {
        return fail(&format!("invalid {invalid} exceeds completed {completed}"));
    }
    if hits > 0 && entries == 0 {
        return fail("cache hits reported with an empty memo");
    }
    if quarantined > 0 && retries + 1 < quarantined {
        // Each quarantined rung past a query's last is preceded by a
        // retry; wildly more quarantines than retries means the
        // counters drifted.
        return fail(&format!(
            "quarantined {quarantined} not explained by retries {retries}"
        ));
    }
    println!(
        "trace_check OK: {path} (health: {admitted} admitted, {completed} completed, \
         {sheds} shed, {retries} retries, {quarantined} quarantined, \
         {spawned} threads spawned, {parked} parked)"
    );
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let mut portfolio = false;
    let mut chrome = false;
    let mut health = false;
    let mut path = None;
    for a in std::env::args().skip(1) {
        match a.as_str() {
            "--portfolio" => portfolio = true,
            "--chrome" => chrome = true,
            "--health" => health = true,
            _ if path.is_none() => path = Some(a),
            other => return fail(&format!("unexpected argument {other}")),
        }
    }
    let Some(path) = path else {
        return fail("usage: trace_check [--portfolio] [--chrome] [--health] TRACE.json");
    };
    let src = match std::fs::read_to_string(&path) {
        Ok(s) => s,
        Err(e) => return fail(&format!("cannot read {path}: {e}")),
    };
    let doc = match parse(&src) {
        Ok(d) => d,
        Err(e) => return fail(&format!("{path} is not valid JSON: {e:?}")),
    };

    if health {
        return check_health(&doc, &path);
    }
    if chrome {
        return check_chrome(&doc, &path, portfolio);
    }

    if doc.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
        return fail(&format!("schema key missing or not {SCHEMA:?}"));
    }
    match doc.get("verdict").and_then(Json::as_str) {
        Some("sat" | "unsat" | "unknown" | "interrupted") => {}
        other => return fail(&format!("bad verdict {other:?}")),
    }
    if doc.get("wall_ms").is_none() {
        return fail("wall_ms missing");
    }
    for key in [
        "program",
        "solver",
        "stats",
        "counters",
        "gauges",
        "histograms",
        "dropped_spans",
    ] {
        if doc.get(key).is_none() {
            return fail(&format!("{key} missing"));
        }
    }

    let Some(spans) = doc.get("spans").and_then(Json::as_arr) else {
        return fail("spans missing or not an array");
    };
    if spans.is_empty() {
        return fail("span forest is empty — was the recorder enabled?");
    }
    let root = &spans[0];
    if root.get("name").and_then(Json::as_str) != Some("solve") {
        return fail("first root span is not `solve`");
    }
    let total: usize = spans.iter().map(span_count).sum();
    if total < 2 {
        return fail("span tree has no phase spans under the root");
    }
    let counters = doc.get("counters").and_then(Json::as_obj);
    if counters.is_none_or(|c| c.is_empty()) {
        return fail("counter registry is empty");
    }
    // Every span name must have fed the histogram registry; `solve`
    // always ran.
    if doc
        .get("histograms")
        .and_then(|h| h.get("solve"))
        .and_then(|s| s.get("count"))
        .and_then(Json::as_i64)
        .is_none_or(|c| c < 1)
    {
        return fail("histograms carry no `solve` entry");
    }

    if portfolio {
        let Some(race) = root
            .get("children")
            .and_then(Json::as_arr)
            .and_then(|kids| {
                kids.iter()
                    .find(|k| k.get("name").and_then(Json::as_str) == Some("race"))
            })
        else {
            return fail("--portfolio: no `race` span under the root");
        };
        let entrants = race.get("children").and_then(Json::as_arr);
        for name in ENTRANTS {
            let Some(entrant) = entrants.and_then(|kids| {
                kids.iter()
                    .find(|k| k.get("name").and_then(Json::as_str) == Some(name))
            }) else {
                return fail(&format!("--portfolio: entrant `{name}` missing from race"));
            };
            if entrant
                .get("args")
                .and_then(|a| a.get("verdict"))
                .and_then(Json::as_str)
                .is_none()
            {
                return fail(&format!("--portfolio: entrant `{name}` has no verdict"));
            }
        }
        for section in ENTRANTS.map(|n| format!("engine.{n}")) {
            if doc.get("stats").and_then(|s| s.get(&section)).is_none() {
                return fail(&format!("--portfolio: stats section `{section}` missing"));
            }
        }
    }

    println!(
        "trace_check OK: {path} ({total} spans, {} counters)",
        counters.map_or(0, <[_]>::len)
    );
    ExitCode::SUCCESS
}
