//! `perfbench`: the repository's benchmark.
//!
//! ```text
//! perfbench --workload <sweep|simulate-fresh> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it sets the workload up, runs a closed loop of
//! checked operations for `--seconds`, and prints the end-to-end metrics.
//! With `--trace 1` it instead runs the traced pass twice, each in a
//! process of its own, and prints the per-layer metrics. The last line
//! of standard output is always the result object; the line before it
//! is a report naming the host, the seed, the scales and the sample
//! counts. See `README.md` beside this package for the metric
//! definitions.

// The one foreign call, pinning to a CPU, is in `host`.
#![deny(unsafe_code)]

mod e2e;
mod host;
mod stats;
mod stream;
mod traced;

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use jouppi_serve::json::Json;

use crate::e2e::Workload;

/// Set-ups measured per untraced run: this process's own and four in
/// fresh processes, two just before the timed window and two just after
/// it, so that they fall in different phases of a host whose speed
/// drifts. `setup_s` is their median.
const SETUP_REPEATS: usize = 5;

/// Failure messages kept for the report.
const MAX_REPORTED_FAILURES: usize = 8;

/// Parsed command line.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Internal: run one set-up (`setup`) or one traced pass (`traced`)
    /// and print it, as a child of the main run.
    child: Option<String>,
    /// CPUs the process may use when it starts (`nproc`).
    nproc: usize,
    /// The CPU the process is pinned to, if pinning worked.
    cpu: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut child = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: '{value}' is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload '{value}'"))?,
                );
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not '{value}'")),
                }
            }
            "--child" => child = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10).max(1),
        trace,
        child,
        nproc: std::thread::available_parallelism().map_or(0, |n| n.get()),
        cpu: None,
    })
}

/// One metric as the result line prints it.
pub fn metric(value: f64, unit: &str) -> Json {
    Json::obj([("value", Json::Float(value)), ("unit", Json::str(unit))])
}

/// Prints the report line and the result line.
fn print_result(report: Json, correct: bool, attempted: u64, failed: u64, metrics: Json) {
    println!("{}", report.encode());
    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(attempted as i64)),
        ("failed", Json::Int(failed as i64)),
        ("metrics", metrics),
    ]);
    println!("{}", result.encode());
}

/// Runs this executable again with `args` and returns the last line of
/// its standard output parsed as JSON.
pub fn run_child(args: &[String]) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(args)
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "child {args:?} failed: {}",
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().ok_or("child printed nothing")?;
    Json::parse(last).map_err(|e| format!("child output: {e}"))
}

/// The command line of a child run of `args` in role `child`.
fn child_args(args: &Args, child: &str) -> Vec<String> {
    vec![
        "--workload".to_owned(),
        args.workload.name().to_owned(),
        "--seed".to_owned(),
        args.seed.to_string(),
        "--seconds".to_owned(),
        args.seconds.to_string(),
        "--child".to_owned(),
        child.to_owned(),
    ]
}

/// The untraced run: set-up, the timed closed loop, deferred checks,
/// extra set-ups, and the end-to-end metrics.
fn run_untraced(args: &Args, process_start: Instant) -> Result<(), String> {
    let mut lp = e2e::setup(args.workload, args.seed)?;
    let setup_s = process_start.elapsed().as_secs_f64();
    if args.child.as_deref() == Some("setup") {
        println!(
            "{}",
            Json::obj([("setup_s", Json::Float(setup_s))]).encode()
        );
        return Ok(());
    }

    let mut setups = vec![setup_s];
    let child_setup = |setups: &mut Vec<f64>| -> Result<(), String> {
        let child = run_child(&child_args(args, "setup"))?;
        let s = child.get("setup_s").and_then(Json::as_f64);
        setups.push(s.ok_or("setup child printed no setup_s")?);
        Ok(())
    };
    for _ in 0..(SETUP_REPEATS - 1) / 2 {
        child_setup(&mut setups)?;
    }

    let window = Duration::from_secs(args.seconds);
    let mut latencies = Vec::new();
    let mut by_kind: BTreeMap<&str, Vec<u64>> = BTreeMap::new();
    let mut failures = Vec::new();
    let mut attempted = 0u64;
    let ticks_before = host::cpu_ticks(args.cpu);
    let start = Instant::now();
    // The window closes after `--seconds`, but not before p90 has its
    // samples; a window that has to stretch says so in the report.
    while start.elapsed() < window
        || (latencies.len() < stats::MIN_SAMPLES && start.elapsed() < 3 * window)
    {
        let outcome = lp.op(attempted);
        attempted += 1;
        match outcome.check {
            Ok(()) => {
                latencies.push(outcome.ns);
                by_kind.entry(outcome.kind).or_default().push(outcome.ns);
            }
            Err(e) => failures.push(e),
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    let steal = host::steal_share(ticks_before, host::cpu_ticks(args.cpu));
    // The program's peak, read before the benchmark's own deferred
    // checks can raise it.
    let peak_rss_mib = host::peak_rss_mib().ok_or("cannot read VmHWM")?;
    let deferred = lp.finish();
    drop(lp);
    let completed = latencies.len() as u64 - deferred.len() as u64;
    failures.extend(deferred);

    while setups.len() < SETUP_REPEATS {
        child_setup(&mut setups)?;
    }
    let setup_median = stats::median(&setups).expect("at least one set-up");

    let (p50, p90) = stats::p50_p90(&latencies);
    let percentile_json = |p: Option<stats::Percentile>| match p {
        Some(p) => Json::obj([
            ("value", Json::Float(p.ms)),
            ("unit", Json::str("ms")),
            ("samples", Json::Int(p.samples as i64)),
            ("beyond", Json::Int(p.beyond as i64)),
        ]),
        None => Json::Null,
    };
    let failed = failures.len() as u64;
    let report = Json::obj([
        ("workload", Json::str(args.workload.name())),
        ("seed", Json::Int(args.seed as i64)),
        ("seconds", Json::Int(args.seconds as i64)),
        ("scales", args.workload.scales()),
        ("host", host::describe(args.nproc, args.cpu)),
        ("attempted", Json::Int(attempted as i64)),
        ("failed", Json::Int(failed as i64)),
        ("wall_s", Json::Float(wall_s)),
        ("steal_share", steal.map_or(Json::Null, Json::Float)),
        (
            "setup_s_samples",
            Json::Arr(setups.iter().map(|&s| Json::Float(s)).collect()),
        ),
        ("p50_ms", percentile_json(p50)),
        ("p90_ms", percentile_json(p90)),
        (
            "by_kind",
            Json::Obj(
                by_kind
                    .iter()
                    .map(|(kind, ns)| {
                        let ms: Vec<f64> = ns.iter().map(|&n| n as f64 / 1e6).collect();
                        let summary = Json::obj([
                            ("ops", Json::Int(ns.len() as i64)),
                            ("median_ms", Json::Float(stats::median(&ms).unwrap_or(0.0))),
                        ]);
                        ((*kind).to_owned(), summary)
                    })
                    .collect(),
            ),
        ),
        (
            "failures",
            Json::Arr(
                failures
                    .iter()
                    .take(MAX_REPORTED_FAILURES)
                    .map(Json::str)
                    .collect(),
            ),
        ),
    ]);
    let Some(p90) = p90 else {
        println!("{}", report.encode());
        return Err(format!(
            "{} checked operations are too few for p90 (need {} beyond it)",
            latencies.len(),
            stats::MIN_BEYOND
        ));
    };
    let metrics = Json::obj([
        ("setup_s", metric(setup_median, "s")),
        ("ops_per_s", metric(completed as f64 / wall_s, "1/s")),
        ("p90_ms", metric(p90.ms, "ms")),
        ("peak_rss_mib", metric(peak_rss_mib, "MiB")),
    ]);
    print_result(report, failed == 0, attempted, failed, metrics);
    Ok(())
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let mut args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // One calling thread end to end, on one CPU: the sweep engine runs
    // sequentially, so the numbers measure the simulator rather than the
    // scheduler.
    jouppi_experiments::sweep::set_thread_count(1);
    args.cpu = host::pin_to_one_cpu();
    if args.cpu.is_none() {
        eprintln!("perfbench: could not pin to one CPU; running unpinned");
    }
    let outcome = if args.trace || args.child.as_deref() == Some("traced") {
        traced::run(&args)
    } else {
        run_untraced(&args, process_start)
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
