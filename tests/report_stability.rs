//! Byte-stability of the `ringen-solve-report-v1` serialization — the
//! property `trace_diff` relies on: two identical runs must produce
//! documents that differ *only* in measured numbers, and section
//! insertion order must not leak into the output.

use ringen::automata::AutStore;
use ringen::benchgen::programs;
use ringen::core::{solve_guarded, Guard, Recorder, RingenConfig};
use ringen::obs::json::Json;
use ringen::obs::report::Section;
use ringen::report::{solve_sections, store_section, SolveReport};

/// Replaces every float leaf with zero, leaving structure, strings,
/// and integers (counters, ids, stats) untouched — the parts of a
/// report that must be run-independent.
fn zero_nums(j: &mut Json) {
    match j {
        Json::Num(f) => *f = 0.0,
        Json::Arr(items) => items.iter_mut().for_each(zero_nums),
        Json::Obj(pairs) => pairs.iter_mut().for_each(|(_, v)| zero_nums(v)),
        _ => {}
    }
}

/// One deterministic, single-threaded, fully instrumented solve.
fn run_once() -> SolveReport {
    let sys = programs::even();
    let cfg = RingenConfig::quick();
    let recorder = Recorder::new();
    let guard = Guard::new().with_recorder(recorder.clone()).with_threads(1);
    let mut store = AutStore::new();
    let (answer, stats) = solve_guarded(&sys, &cfg, &mut store, &guard);
    let mut sections = solve_sections(&stats);
    sections.push(store_section(&store.stats()));
    SolveReport {
        program: "even".to_string(),
        solver: "ringen".to_string(),
        verdict: if answer.is_interrupted() {
            "interrupted".to_string()
        } else {
            "sat".to_string()
        },
        wall_ms: 1.0,
        trace: recorder.snapshot(),
        sections,
    }
}

#[test]
fn identical_runs_serialize_identically_modulo_timings() {
    let a = run_once();
    let b = run_once();
    // Raw documents differ only in measured floats: zeroing every
    // float leaf must make them byte-equal — same keys, same order,
    // same span ids, same counters.
    let mut da = a.to_json();
    let mut db = b.to_json();
    zero_nums(&mut da);
    zero_nums(&mut db);
    assert_eq!(
        da.to_pretty(),
        db.to_pretty(),
        "two identical single-threaded runs disagree structurally"
    );
}

#[test]
fn section_insertion_order_does_not_leak_into_the_document() {
    let mut report = run_once();
    let baseline = report.to_json_string();
    report.sections.reverse();
    assert_eq!(
        report.to_json_string(),
        baseline,
        "section order changed the serialized document"
    );
    // And a freshly appended out-of-order section lands sorted, not
    // last.
    report
        .sections
        .push(Section::new("aaa_first").entry("x", 1));
    let doc = report.to_json();
    let stats = doc.get("stats").unwrap();
    let keys: Vec<&str> = stats
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    let mut sorted = keys.clone();
    sorted.sort_unstable();
    assert_eq!(keys, sorted, "stats sections not in sorted order");
    assert_eq!(keys.first().copied(), Some("aaa_first"));
}

#[test]
fn flame_export_is_stable_across_identical_runs() {
    let a = run_once();
    let b = run_once();
    let paths = |r: &SolveReport| -> Vec<String> {
        r.to_collapsed_stacks()
            .lines()
            .map(|l| l.rsplit_once(' ').expect("weighted line").0.to_string())
            .collect()
    };
    assert_eq!(
        paths(&a),
        paths(&b),
        "collapsed-stack paths differ between identical runs"
    );
}
