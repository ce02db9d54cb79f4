//! Design-space exploration: sweep victim-cache sizes and stream-buffer
//! ways across all six workloads and print a recommendation, the way an
//! architect would use this library to size the paper's structures.
//!
//! Run with `cargo run --release --example design_space`.

#![expect(clippy::print_stdout, reason = "an example prints its results")]

use jouppi::cache::CacheGeometry;
use jouppi::core::{AugmentedCache, AugmentedConfig, StreamBufferConfig};
use jouppi::report::Table;
use jouppi::trace::TraceSource;
use jouppi::workloads::{Benchmark, Scale};

/// Simple cost model: fully-associative entries are expensive, stream
/// buffer ways moderately so. Returns an area estimate in "entry units".
fn area_cost(vc_entries: usize, sb_ways: usize) -> usize {
    2 * vc_entries + 3 * sb_ways
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let geom = CacheGeometry::direct_mapped(4096, 16)?;
    let scale = Scale::new(200_000);

    let mut table = Table::new(["VC entries", "SB ways", "avg D-miss", "area", "miss x area"]);
    let mut best: Option<(usize, usize, f64)> = None;

    for vc in [0usize, 1, 2, 4, 8] {
        for ways in [0usize, 1, 2, 4] {
            let mut rates = Vec::new();
            for b in Benchmark::ALL {
                let mut cfg = AugmentedConfig::new(geom);
                if vc > 0 {
                    cfg = cfg.victim_cache(vc);
                }
                if ways > 0 {
                    cfg = cfg.multi_way_stream_buffer(ways, StreamBufferConfig::new(4));
                }
                let mut cache = AugmentedCache::new(cfg);
                for r in b.source(scale, 7).refs().filter(|r| r.kind.is_data()) {
                    cache.access(r.addr);
                }
                rates.push(cache.stats().demand_miss_rate());
            }
            let avg = rates.iter().sum::<f64>() / rates.len() as f64;
            let area = area_cost(vc, ways);
            let score = avg * (1.0 + area as f64 / 40.0);
            table.row([
                vc.to_string(),
                ways.to_string(),
                format!("{avg:.4}"),
                area.to_string(),
                format!("{score:.4}"),
            ]);
            if best.is_none_or(|(_, _, s)| score < s) {
                best = Some((vc, ways, score));
            }
        }
    }

    println!("design-space sweep over all six workloads (data side)\n");
    println!("{table}");
    let (vc, ways, _) = best.expect("sweep is nonempty");
    println!("best miss-rate/area tradeoff: {vc}-entry victim cache + {ways}-way stream buffer");
    println!("(the paper settles on 4 + 4 — see Figure 5-1)");
    Ok(())
}
