//! Reproduce the paper's headline result end to end: run all six
//! benchmarks through the §2 baseline machine and the §5 improved machine
//! (victim cache + stream buffers) and report the speedups — Figure 5-1.
//!
//! Run with `cargo run --release --example improved_system`.

#![expect(clippy::print_stdout, reason = "an example prints its results")]

use jouppi::report::{percent, Table};
use jouppi::system::{SystemConfig, SystemModel};
use jouppi::workloads::{Benchmark, Scale};

fn main() {
    let scale = Scale::new(300_000);
    let mut table = Table::new(["program", "baseline", "improved", "speedup"]);
    let mut improvements = Vec::new();

    for b in Benchmark::ALL {
        let src = b.source(scale, 42);
        let base = SystemModel::new(SystemConfig::baseline()).run(&src);
        let improved = SystemModel::new(SystemConfig::improved()).run(&src);
        let speedup = improved.time.speedup_over(&base.time);
        improvements.push(100.0 * (speedup - 1.0));
        table.row([
            b.name().to_owned(),
            percent(base.performance_fraction()),
            percent(improved.performance_fraction()),
            format!("{speedup:.2}x"),
        ]);
    }

    println!("Figure 5-1: improved system performance\n");
    println!("{table}");
    let avg = improvements.iter().sum::<f64>() / improvements.len() as f64;
    println!("average improvement: {avg:.0}% (the paper reports 143%)");
}
