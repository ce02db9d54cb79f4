//! The single-pass multi-geometry engines must be exactly equal to the
//! demoted per-cell simulator — miss count for miss count, across the
//! full geometry grid, under both LRU and FIFO.
//!
//! Three layers of pinning:
//! * the full [`jouppi_experiments::single_pass`] sweep on real
//!   benchmark traces against its per-cell oracle;
//! * the fig_3_1 three-C breakdowns of the classifying simulator against
//!   an independent test-local oracle that reads them off stack depths;
//! * the raw engines on adversarial synthetic streams (cyclic thrash,
//!   Belady's-anomaly stream, conflict-heavy strides) against
//!   [`jouppi_cache::Cache`] oracles cell by cell.

use jouppi_cache::{Cache, CacheGeometry, FifoSweep, LruSweep, MissBreakdown, ReplacementPolicy};
use jouppi_experiments::common::{baseline_l1, record_traces, ExperimentConfig, Side};
use jouppi_experiments::{fig_3_1, single_pass};
use jouppi_trace::LineAddr;

fn smoke_cfg() -> ExperimentConfig {
    ExperimentConfig::with_scale(12_000)
}

#[test]
fn geometry_sweep_single_pass_equals_per_cell() {
    let cfg = smoke_cfg();
    assert_eq!(single_pass::run(&cfg), single_pass::run_per_cell(&cfg));
}

/// Three-C breakdown of a direct-mapped cache read off stack depths, with
/// no classifier code: one [`LruSweep`] over levels {1, `num_sets`}.
/// Compulsory ⇔ first touch; a direct-mapped miss ⇔ cold or within-set
/// depth > associativity; capacity ⇔ a non-cold miss whose *global*
/// depth exceeds the cache's line count (a fully-associative LRU cache
/// of the same size would also have missed); conflict otherwise.
fn stack_depth_breakdown(lines: &[LineAddr], geom: CacheGeometry) -> MissBreakdown {
    let mut sweep = LruSweep::for_set_counts(&[1, geom.num_sets()]).expect("powers of two");
    let mut breakdown = MissBreakdown::new();
    for &line in lines {
        let (cold, depths) = sweep.observe_depths(line);
        if cold {
            breakdown.compulsory += 1;
        } else if u64::from(depths[1]) > geom.associativity() {
            if u64::from(depths[0]) > geom.num_lines() {
                breakdown.capacity += 1;
            } else {
                breakdown.conflict += 1;
            }
        }
    }
    breakdown
}

#[test]
fn fig_3_1_classifier_equals_stack_depth_oracle() {
    let cfg = smoke_cfg();
    let geom = baseline_l1();
    let traces = record_traces(&cfg);
    let fig = fig_3_1::run(&cfg);
    for ((b, trace), (row_b, instr, data)) in traces.iter().zip(&fig.rows) {
        assert_eq!(b, row_b);
        for (side, got) in [(Side::Instruction, instr), (Side::Data, data)] {
            let lines = side
                .view(trace)
                .lines_for(geom.line_size())
                .expect("baseline line size is pre-derived");
            assert_eq!(
                *got,
                stack_depth_breakdown(lines, geom),
                "{b} {}",
                side.label()
            );
        }
    }
}

/// Adversarial line streams: cyclic LRU thrash just past each capacity
/// class, the textbook Belady-anomaly stream, a conflict-heavy stride
/// that floods one set, and a phase-shifting pseudo-random mix.
fn adversarial_streams() -> Vec<Vec<LineAddr>> {
    let belady = vec![1u64, 2, 3, 4, 1, 2, 5, 1, 2, 3, 4, 5];
    let cyclic: Vec<u64> = (0..2_000).map(|i| i % 65).collect();
    let strided: Vec<u64> = (0..2_000).map(|i| (i % 9) * 64).collect();
    let mixed: Vec<u64> = (0..4_000)
        .map(|i: u64| (i * 31 + i / 7) % 211)
        .chain((0..500).flat_map(|i| [i % 40, (i * 17) % 160]))
        .collect();
    [belady, cyclic, strided, mixed]
        .into_iter()
        .map(|s| s.into_iter().map(LineAddr::new).collect())
        .collect()
}

#[test]
fn engines_match_cache_oracle_on_adversarial_streams() {
    let cells: Vec<(u64, u64)> = single_pass::grid()
        .iter()
        .map(|g| (g.num_sets(), g.associativity()))
        .collect();
    let set_counts: Vec<u64> = cells.iter().map(|&(s, _)| s).collect();
    for stream in adversarial_streams() {
        // Both LRU backends: the production bounded sweep and the
        // exact Fenwick sweep must each equal the oracle.
        let mut lru_exact = LruSweep::for_set_counts(&set_counts).expect("valid");
        let mut lru_bounded = LruSweep::bounded(&cells).expect("valid");
        let mut fifo = FifoSweep::new(&cells).expect("valid");
        for &line in &stream {
            lru_exact.observe(line);
            lru_bounded.observe(line);
            fifo.observe(line);
        }
        for geom in single_pass::grid() {
            for policy in [ReplacementPolicy::Lru, ReplacementPolicy::Fifo] {
                let mut cache = Cache::with_policy(geom, policy);
                let mut misses = 0u64;
                for &line in &stream {
                    if cache.access_line(line).is_miss() {
                        misses += 1;
                    }
                }
                let engines = match policy {
                    ReplacementPolicy::Lru => vec![
                        lru_exact.misses_for_geometry(&geom),
                        lru_bounded.misses_for_geometry(&geom),
                    ],
                    _ => vec![fifo.misses_for_geometry(&geom)],
                };
                for engine in engines {
                    assert_eq!(
                        engine,
                        Some(misses),
                        "{policy:?} at {}B {}-way on a {}-ref stream",
                        geom.size(),
                        geom.associativity(),
                        stream.len()
                    );
                }
            }
        }
    }
}

#[test]
fn engines_match_oracle_beyond_the_grid() {
    // Geometries the named sweep does not include (tiny, very wide,
    // fully associative) — the engines are general, not grid-shaped.
    let extra = [
        CacheGeometry::new(256, 16, 1).expect("valid"),
        CacheGeometry::new(512, 16, 16).expect("valid"),
        CacheGeometry::fully_associative(1024, 16).expect("valid"),
    ];
    let stream: Vec<LineAddr> = (0..3_000u64)
        .map(|i| LineAddr::new((i * 13 + i / 5) % 151))
        .collect();
    let cells: Vec<(u64, u64)> = extra
        .iter()
        .map(|g| (g.num_sets(), g.associativity()))
        .collect();
    let mut lru = LruSweep::for_set_counts(&cells.iter().map(|&(s, _)| s).collect::<Vec<_>>())
        .expect("valid");
    let mut fifo = FifoSweep::new(&cells).expect("valid");
    for &line in &stream {
        lru.observe(line);
        fifo.observe(line);
    }
    for geom in extra {
        for policy in [ReplacementPolicy::Lru, ReplacementPolicy::Fifo] {
            let mut cache = Cache::with_policy(geom, policy);
            let mut misses = 0u64;
            for &line in &stream {
                if cache.access_line(line).is_miss() {
                    misses += 1;
                }
            }
            let engine = match policy {
                ReplacementPolicy::Lru => lru.misses_for_geometry(&geom),
                _ => fifo.misses_for_geometry(&geom),
            };
            assert_eq!(engine, Some(misses), "{policy:?} {geom:?}");
        }
    }
}
