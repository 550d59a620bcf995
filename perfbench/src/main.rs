//! End-to-end benchmark of ringen through its production paths: the
//! `SolveServer` service on the generated evaluation corpus, and the
//! `--solver portfolio` race on the §7 programs.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload first-sight|replay|showcase-race --seed N --seconds S --trace 0|1
//! ```
//!
//! Lines starting with `#` describe the run; the last line is one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`. With
//! `--trace 0` the metrics are the end-to-end ones, with `--trace 1`
//! the per-layer ones. See `perfbench/README.md` for what each means.

mod layers;
mod stats;
mod workloads;

use std::process::ExitCode;
use std::time::Duration;

/// Parsed command line.
#[derive(Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

/// One run's result: verdict accounting plus `(name, unit, value)`
/// metrics in output order.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub wrong: u64,
    pub metrics: Vec<(String, &'static str, f64)>,
    /// Extra reasons the run is not correct (e.g. dropped spans).
    pub faults: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        self.metrics.push((name.into(), unit, value));
    }
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: Duration::from_secs(seconds.ok_or("--seconds is required")?.max(1)),
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The default configs read `RINGEN_*` variables silently (threads,
/// FMF mode, caches, faults, deadlines); a run under any of them would
/// not measure the defaults, so refuse it.
fn check_environment() -> Result<(), String> {
    let set: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("RINGEN_"))
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "refusing to run with {} set: the benchmark measures the default configuration",
            set.join(", ")
        ))
    }
}

/// Peak resident set size of this process, in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn json_line(r: &Report) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|(name, unit, value)| {
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.wrong == 0 && r.faults.is_empty(),
        r.attempted.max(1),
        r.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args().and_then(|a| check_environment().map(|()| a)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "# workload={} seed={} seconds={} trace={} nproc={nproc}",
        args.workload,
        args.seed,
        args.seconds.as_secs(),
        u8::from(args.trace)
    );
    let mut report = match args.workload.as_str() {
        "first-sight" => workloads::first_sight(&args),
        "replay" => workloads::replay(&args, nproc),
        "showcase-race" => workloads::showcase_race(&args),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    if args.trace {
        // Per-layer: the peak moves with thread timing (allocator
        // arenas, how far engines get before a deadline) too much for
        // an end-to-end bound.
        report.metric("peak_rss_mb", "MB", peak_rss_mb());
    }
    println!(
        "# attempted={} failed={} wrong={} failed_share={:.4}",
        report.attempted,
        report.failed,
        report.wrong,
        report.failed as f64 / report.attempted.max(1) as f64
    );
    for fault in &report.faults {
        println!("# not correct: {fault}");
    }
    println!("{}", json_line(&report));
    ExitCode::SUCCESS
}
