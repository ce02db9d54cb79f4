//! Beyond the paper: stride-detecting stream buffers on non-unit-stride
//! code — the §5 future-work item.
//!
//! Walks a column-major matrix along the row dimension (every reference
//! one full column apart) and shows the paper's sequential stream buffer
//! failing where the stride-detecting extension succeeds.
//!
//! Run with `cargo run --release --example stride_prefetch`.

#![expect(clippy::print_stdout, reason = "an example prints its results")]

use jouppi::cache::CacheGeometry;
use jouppi::core::{AugmentedCache, AugmentedConfig, StreamBufferConfig};
use jouppi::report::Table;
use jouppi::trace::Addr;

/// References the matrix row-major-wise over column-major storage:
/// element (i, j) at `base + j*lda*8 + i*8`, walking j fastest.
fn row_walk(base: u64, n: u64, lda: u64, passes: u64) -> impl Iterator<Item = Addr> {
    (0..passes)
        .flat_map(move |_| (0..n).flat_map(move |i| (0..n).map(move |j| (i, j))))
        .map(move |(i, j)| Addr::new(base + j * lda * 8 + i * 8))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let geom = CacheGeometry::direct_mapped(4096, 16)?;
    let n = 96;
    let lda = 100; // column stride: 800 bytes = 50 cache lines
    let configs: [(&str, AugmentedConfig); 3] = [
        ("no prefetch", AugmentedConfig::new(geom)),
        (
            "sequential 4-way stream buffer (the paper's)",
            AugmentedConfig::new(geom).multi_way_stream_buffer(4, StreamBufferConfig::new(4)),
        ),
        (
            "stride-detecting 4-way stream buffer (extension)",
            AugmentedConfig::new(geom).strided_stream_buffer(4, StreamBufferConfig::new(4), 128),
        ),
    ];

    println!("row-wise walk of a column-major {n}x{n} matrix (lda {lda}):");
    println!("every access jumps 50 cache lines — zero spatial locality\n");
    let mut t = Table::new(["organization", "miss rate", "misses removed"]);
    for (name, cfg) in configs {
        let mut cache = AugmentedCache::new(cfg);
        for addr in row_walk(0x1000_0000, n, lda, 4) {
            cache.access(addr);
        }
        let s = cache.stats();
        t.row([
            name.to_owned(),
            format!("{:.4}", s.demand_miss_rate()),
            format!("{:.1}%", 100.0 * s.removed_fraction()),
        ]);
    }
    println!("{t}");
    println!("§4.1 predicted the sequential buffer would be \"of little");
    println!("benefit\" here; a two-miss stride detector fixes it.");
    Ok(())
}
