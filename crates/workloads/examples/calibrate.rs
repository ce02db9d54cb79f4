//! Calibration harness: measures each synthetic workload's baseline
//! 4KB/16B miss rates and conflict fractions against the paper's
//! Table 2-2 / Figure 3-1 targets.
//!
//! Run with `cargo run --release -p jouppi-workloads --example calibrate`.

#![expect(clippy::print_stdout, reason = "an example prints its table")]

use jouppi_cache::{CacheGeometry, ClassifiedCache};
use jouppi_trace::TraceSource;
use jouppi_workloads::{Benchmark, Scale};

fn main() {
    let scale = Scale::new(
        std::env::args()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or(500_000),
    );
    let geom = CacheGeometry::direct_mapped(4096, 16).expect("valid geometry");
    println!(
        "{:<8} {:>8} {:>8} | {:>8} {:>8} | {:>7} {:>7}",
        "bench", "I-miss", "paper", "D-miss", "paper", "I-conf%", "D-conf%"
    );
    for b in Benchmark::ALL {
        let src = b.source(scale, 42);
        let mut icache = ClassifiedCache::new(geom);
        let mut dcache = ClassifiedCache::new(geom);
        for r in src.refs() {
            if r.kind.is_instr() {
                icache.access(r.addr);
            } else {
                dcache.access(r.addr);
            }
        }
        let row = b.paper_row();
        println!(
            "{:<8} {:>8.4} {:>8.4} | {:>8.4} {:>8.4} | {:>7.1} {:>7.1}",
            b.name(),
            icache.stats().miss_rate(),
            row.baseline_instr_miss_rate,
            dcache.stats().miss_rate(),
            row.baseline_data_miss_rate,
            100.0 * icache.breakdown().conflict_fraction(),
            100.0 * dcache.breakdown().conflict_fraction(),
        );
    }
}
