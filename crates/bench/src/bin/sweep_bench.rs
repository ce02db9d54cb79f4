//! Times the paper's experiment sweeps, each on its default engine, at
//! one and two sweep-engine threads, and writes `BENCH_sweep.json`.
//!
//! Usage: `sweep-bench [--smoke] [SCALE] [OUT_PATH]`
//!
//! * `--smoke` — at a small scale, check that `geometry_grid`'s
//!   single-pass engine equals its per-cell oracle and that `fig_3_1` is
//!   stable across repeat runs; exit nonzero on any divergence. No
//!   report is written.
//! * `SCALE` — instructions per benchmark trace (default 60000).
//! * `OUT_PATH` — where to write the JSON report (default
//!   `BENCH_sweep.json` in the current directory).
//!
//! Each row's `mode` is the engine the sweep ran on, named as
//! `jouppi_serve::sweeps::engines_for` names it: `single_pass` for the
//! geometry grid, `classify` for fig_3_1, and `fused` for the augmented
//! sweeps, whose (benchmark, side) jobs classify once and then replay
//! each configuration back to back.
//!
//! Traces are recorded once up front (the refs count needs them), so
//! every timed run replays the memoized trace set — the numbers measure
//! simulation throughput, not workload generation. Refs are counted as
//! *work delivered*: configuration cells covered × trace references. The
//! single-pass engine delivers its cells from one traversal per
//! (benchmark, side, policy), so its refs/s is far above the replaying
//! sweeps'.

#![deny(clippy::cast_possible_truncation)]
#![expect(clippy::print_stderr, reason = "a binary does the printing")]

use std::process::ExitCode;
use std::time::Instant;

use jouppi_bench::{bench_config, render_json, Measurement};
use jouppi_experiments::common::{record_traces, ExperimentConfig};
use jouppi_experiments::{conflict_sweep, fig_3_1, single_pass, stream_sweep, sweep};
use jouppi_serve::sweeps::engines_for;
use jouppi_workloads::Scale;

fn time_sweep(
    name: &'static str,
    threads: usize,
    cells: u64,
    total_trace_refs: u64,
    run: &dyn Fn(),
) -> Measurement {
    sweep::set_thread_count(threads);
    let threads = sweep::thread_count();
    let start = Instant::now();
    run();
    let wall_ms = start.elapsed().as_secs_f64() * 1000.0;
    sweep::set_thread_count(0);
    let m = Measurement {
        sweep: name,
        mode: engines_for(name)[0],
        threads,
        cells,
        refs: cells * total_trace_refs,
        wall_ms,
    };
    eprintln!(
        "{:>16} {:>11} ({} thread{}): {:>9.1} ms, {:>12.0} refs/s",
        m.sweep,
        m.mode,
        m.threads,
        if m.threads == 1 { "" } else { "s" },
        m.wall_ms,
        m.refs_per_sec()
    );
    m
}

/// `--smoke`: cross-check at small scale, fail loudly on divergence.
fn smoke() -> ExitCode {
    let cfg = ExperimentConfig::with_scale(8_000);
    let mut failures = 0usize;
    let mut check = |label: &str, ok: bool| {
        eprintln!("{} {label}", if ok { "ok  " } else { "FAIL" });
        if !ok {
            failures += 1;
        }
    };
    check(
        "geometry_grid: single_pass == per_cell",
        single_pass::run(&cfg) == single_pass::run_per_cell(&cfg),
    );
    check(
        "fig_3_1: stable across repeat runs",
        fig_3_1::run(&cfg) == fig_3_1::run(&cfg),
    );
    if failures == 0 {
        eprintln!("smoke: all checks agree");
        ExitCode::SUCCESS
    } else {
        eprintln!("smoke: {failures} divergence(s)");
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let mut smoke_run = false;
    let mut positional = Vec::new();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--smoke" => smoke_run = true,
            _ => positional.push(arg),
        }
    }
    if smoke_run {
        return smoke();
    }
    let mut positional = positional.into_iter();
    let mut cfg = bench_config();
    if let Some(raw) = positional.next() {
        let n: u64 = raw.parse().expect("SCALE must be an integer");
        cfg = ExperimentConfig {
            scale: Scale::new(n),
            ..cfg
        };
    }
    let out = positional
        .next()
        .unwrap_or_else(|| "BENCH_sweep.json".to_owned());

    // Every replay of a cache side touches each of that side's references
    // exactly once, so refs-per-sweep is (cells covered) × trace size.
    // This also warms the memoized trace store for the timed runs.
    let total: u64 = record_traces(&cfg)
        .iter()
        .map(|(_, t)| t.len() as u64)
        .sum();
    let grid = || {
        single_pass::run(&cfg);
    };
    let fig31 = || {
        fig_3_1::run(&cfg);
    };
    let victim = || {
        conflict_sweep::run(&cfg, conflict_sweep::Mechanism::VictimCache, 4);
    };
    let stream = || {
        stream_sweep::run(&cfg, 1, 8);
    };
    // Cells per sweep: the grid's geometry points, fig_3_1's one
    // classification, and for the augmented sweeps the classification
    // plus one cell per configuration.
    let sweeps: [(&'static str, u64, &dyn Fn()); 4] = [
        ("geometry_grid", single_pass::cells_per_side(), &grid),
        ("fig_3_1", 1, &fig31),
        ("victim_cache_4", 5, &victim),
        ("stream_single_8", 10, &stream),
    ];
    let runs: Vec<Measurement> = sweeps
        .iter()
        .flat_map(|&(name, cells, run)| {
            [1, 2].map(|threads| time_sweep(name, threads, cells, total, run))
        })
        .collect();

    let report = render_json(sweep::available_cores(), &cfg, &runs);
    std::fs::write(&out, &report).expect("failed to write the benchmark report");
    eprintln!("wrote {out}");
    ExitCode::SUCCESS
}
