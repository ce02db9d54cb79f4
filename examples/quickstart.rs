//! Quickstart: measure what a victim cache and a stream buffer do to a
//! direct-mapped cache's miss rate on one workload.
//!
//! Run with `cargo run --release --example quickstart`.

#![expect(clippy::print_stdout, reason = "an example prints its results")]

use jouppi::cache::CacheGeometry;
use jouppi::core::{AugmentedCache, AugmentedConfig, StreamBufferConfig};
use jouppi::trace::TraceSource;
use jouppi::workloads::{Benchmark, Scale};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The paper's baseline first-level data cache: 4KB direct-mapped,
    // 16-byte lines.
    let geom = CacheGeometry::direct_mapped(4096, 16)?;

    // Three organizations from the paper, §3-§4.
    let configs = [
        ("bare direct-mapped", AugmentedConfig::new(geom)),
        (
            "+ 4-entry victim cache",
            AugmentedConfig::new(geom).victim_cache(4),
        ),
        (
            "+ 4-way stream buffer",
            AugmentedConfig::new(geom).multi_way_stream_buffer(4, StreamBufferConfig::new(4)),
        ),
        (
            "+ both (the paper's improved data cache)",
            AugmentedConfig::new(geom)
                .victim_cache(4)
                .multi_way_stream_buffer(4, StreamBufferConfig::new(4)),
        ),
    ];

    // One synthetic ccom trace (a C-compiler-like workload), data side.
    let workload = Benchmark::Ccom.source(Scale::new(500_000), 42);
    println!("workload: {} ({} instructions)", workload.name(), 500_000);
    println!();
    println!(
        "{:<42} {:>10} {:>12}",
        "organization", "miss rate", "removed"
    );
    for (name, cfg) in configs {
        let mut cache = AugmentedCache::new(cfg);
        for r in workload.refs().filter(|r| r.kind.is_data()) {
            cache.access(r.addr);
        }
        let s = cache.stats();
        println!(
            "{:<42} {:>10.4} {:>11.1}%",
            name,
            s.demand_miss_rate(),
            100.0 * s.removed_fraction()
        );
    }
    Ok(())
}
