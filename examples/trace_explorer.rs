//! Trace explorer: classify one benchmark's misses (compulsory /
//! capacity / conflict) across a range of cache sizes — the three-C
//! analysis the paper's §3 rests on.
//!
//! Run with `cargo run --release --example trace_explorer -- [bench]`.

#![expect(clippy::print_stdout, reason = "an example prints its results")]

use jouppi::cache::{CacheGeometry, ClassifiedCache, StackDistanceProfile};
use jouppi::report::Table;
use jouppi::trace::TraceSource;
use jouppi::workloads::{Benchmark, Scale};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let name = std::env::args().nth(1).unwrap_or_else(|| "met".to_owned());
    let bench = Benchmark::from_name(&name).ok_or_else(|| {
        format!("unknown benchmark '{name}' (try ccom, grr, yacc, met, linpack, liver)")
    })?;

    let src = bench.source(Scale::new(300_000), 42);
    // One pass gives the fully-associative LRU miss rate for EVERY size
    // (Mattson's stack-distance algorithm).
    let mut profile = StackDistanceProfile::new();
    for r in src.refs().filter(|r| r.kind.is_data()) {
        profile.observe(r.addr.line(16));
    }
    println!("three-C data-miss classification for {}\n", bench.name());
    let mut table = Table::new([
        "cache size",
        "miss rate",
        "FA-LRU rate",
        "compulsory",
        "capacity",
        "conflict",
        "conflict %",
    ]);
    for exp in 0..8 {
        let size = 1024u64 << exp;
        let geom = CacheGeometry::direct_mapped(size, 16)?;
        let mut cache = ClassifiedCache::new(geom);
        for r in src.refs().filter(|r| r.kind.is_data()) {
            cache.access(r.addr);
        }
        let b = cache.breakdown();
        table.row([
            format!("{}KB", size / 1024),
            format!("{:.4}", cache.stats().miss_rate()),
            format!(
                "{:.4}",
                profile.miss_rate_for_capacity((size / 16) as usize)
            ),
            b.compulsory.to_string(),
            b.capacity.to_string(),
            b.conflict.to_string(),
            format!("{:.1}%", 100.0 * b.conflict_fraction()),
        ]);
    }
    println!("{table}");
    println!("(conflict misses are what victim caches remove; capacity and");
    println!(" compulsory misses are what stream buffers remove)");
    Ok(())
}
