//! Property tests over the core data structures and their paper
//! invariants, driven by random reference streams.
//!
//! Each property runs over [`CASES`] random cases drawn from the
//! workspace's own seeded xoshiro PRNG (`jouppi_trace::SmallRng`), so a
//! failure names its case and reproduces exactly.

use jouppi::cache::{
    Cache, CacheGeometry, Displaced, FifoSweep, LruMap, LruSweep, MissClassifier,
    ReplacementPolicy, StackDistanceProfile,
};
use jouppi::core::{AugmentedCache, AugmentedConfig, MissCache, StreamBufferConfig, VictimCache};
use jouppi::trace::{LineAddr, SmallRng};

/// Random cases per property.
const CASES: usize = 256;

/// Runs `property` on [`CASES`] cases, each with the case index and a
/// generator seeded from the property's own `seed`.
fn check(seed: u64, mut property: impl FnMut(usize, &mut SmallRng)) {
    let mut rng = SmallRng::seed_from_u64(seed);
    for case in 0..CASES {
        property(case, &mut rng);
    }
}

/// A random line stream of length `1..len` over `0..max_line`: values are
/// small so conflicts and reuse actually occur.
fn line_stream(rng: &mut SmallRng, max_line: u64, len: usize) -> Vec<u64> {
    let n = rng.gen_range(1..len);
    (0..n).map(|_| rng.gen_range(0..max_line)).collect()
}

/// An `LruMap` line set never exceeds capacity and evicts exactly the
/// LRU line, against a naive MRU-first vector model.
#[test]
fn lru_map_respects_capacity() {
    check(1, |case, rng| {
        let stream = line_stream(rng, 64, 200);
        let cap = rng.gen_range(1usize..10);
        let mut lru: LruMap<LineAddr, ()> = LruMap::new(cap);
        let mut reference: Vec<u64> = Vec::new(); // MRU at front
        for &n in &stream {
            let evicted = match lru.insert(LineAddr::new(n), ()) {
                Displaced::Evicted(v, ()) => Some(v.get()),
                Displaced::None | Displaced::Replaced(()) => None,
            };
            // Maintain the reference model.
            if let Some(pos) = reference.iter().position(|&x| x == n) {
                reference.remove(pos);
                assert!(evicted.is_none(), "case {case}: hit evicted");
            } else if reference.len() == cap {
                let lru_line = reference.pop().expect("full");
                assert_eq!(evicted, Some(lru_line), "case {case}");
            } else {
                assert!(evicted.is_none(), "case {case}: evicted below capacity");
            }
            reference.insert(0, n);
            assert!(lru.len() <= cap);
            assert_eq!(lru.len(), reference.len(), "case {case}");
        }
        // Final MRU→LRU order matches the reference model.
        let order: Vec<u64> = lru.keys().map(|l| l.get()).collect();
        assert_eq!(order, reference, "case {case}");
    });
}

/// A fully-associative `Cache` with LRU equals a `MissCache` of the same
/// size on the same stream (same hits, same residency).
#[test]
fn fully_associative_cache_equals_miss_cache() {
    check(2, |case, rng| {
        let stream = line_stream(rng, 128, 300);
        let geom = CacheGeometry::fully_associative(8 * 16, 16).unwrap(); // 8 lines
        let mut cache = Cache::new(geom);
        let mut mc = MissCache::new(8);
        for &n in &stream {
            let line = LineAddr::new(n);
            let mc_hit = mc.probe_and_touch(line);
            if !mc_hit {
                mc.insert(line);
            }
            let cache_hit = cache.access_line(line).is_hit();
            assert_eq!(cache_hit, mc_hit, "case {case}, line {n}");
            assert_eq!(cache.probe(line), mc.contains(line));
            assert!(cache.resident_count() <= 8);
        }
        let mut resident: Vec<u64> = mc.iter().map(|l| l.get()).collect();
        let mut expected: Vec<u64> = cache.resident_lines().map(|l| l.get()).collect();
        resident.sort_unstable();
        expected.sort_unstable();
        assert_eq!(resident, expected, "case {case}");
    });
}

/// The three miss classes partition total misses, and compulsory
/// misses equal the number of distinct lines that missed first.
#[test]
fn three_c_partition() {
    check(3, |case, rng| {
        let stream = line_stream(rng, 96, 400);
        let geom = CacheGeometry::direct_mapped(16 * 16, 16).unwrap(); // 16 lines
        let mut cache = Cache::new(geom);
        let mut cls = MissClassifier::new(geom);
        let mut misses = 0u64;
        for &n in &stream {
            let line = LineAddr::new(n);
            let miss = cache.access_line(line).is_miss();
            if miss {
                misses += 1;
            }
            cls.observe(line, miss);
        }
        let b = cls.breakdown();
        assert_eq!(b.total(), misses, "case {case}");
        let distinct: std::collections::HashSet<_> = stream.iter().collect();
        assert_eq!(b.compulsory as usize, distinct.len(), "case {case}");
    });
}

/// LRU stack property: a larger fully-associative LRU cache never
/// misses more than a smaller one on the same stream.
#[test]
fn lru_inclusion_property() {
    check(4, |case, rng| {
        let stream = line_stream(rng, 256, 400);
        let mut misses_by_size = Vec::new();
        for lines in [4u64, 8, 16, 32] {
            let geom = CacheGeometry::fully_associative(lines * 16, 16).unwrap();
            let mut cache = Cache::new(geom);
            let mut misses = 0;
            for &n in &stream {
                if cache.access_line(LineAddr::new(n)).is_miss() {
                    misses += 1;
                }
            }
            misses_by_size.push(misses);
        }
        for w in misses_by_size.windows(2) {
            assert!(
                w[1] <= w[0],
                "case {case}: bigger LRU cache missed more: {misses_by_size:?}"
            );
        }
    });
}

/// Victim-cache exclusivity and the L1-miss invariance across
/// organizations, on arbitrary streams.
#[test]
fn victim_cache_invariants() {
    check(5, |case, rng| {
        let stream = line_stream(rng, 64, 400);
        let entries = rng.gen_range(1usize..6);
        let geom = CacheGeometry::direct_mapped(8 * 16, 16).unwrap(); // 8 sets
        let bare = {
            let mut c = AugmentedCache::new(AugmentedConfig::new(geom));
            for &n in &stream {
                c.access_line(LineAddr::new(n));
            }
            c.stats().l1_misses()
        };
        let mut c = AugmentedCache::new(AugmentedConfig::new(geom).victim_cache(entries));
        for &n in &stream {
            c.access_line(LineAddr::new(n));
        }
        assert!(c.exclusivity_holds(), "case {case}");
        assert_eq!(c.stats().l1_misses(), bare, "case {case}");
        assert_eq!(
            c.stats().l1_misses(),
            c.stats().victim_hits + c.stats().full_misses,
            "case {case}"
        );
    });
}

/// Larger victim caches never service fewer misses on-chip.
#[test]
fn victim_cache_monotone_in_entries() {
    check(6, |case, rng| {
        let stream = line_stream(rng, 48, 300);
        let geom = CacheGeometry::direct_mapped(8 * 16, 16).unwrap();
        let mut prev = 0u64;
        for entries in [1usize, 2, 4, 8, 16] {
            let mut c = AugmentedCache::new(AugmentedConfig::new(geom).victim_cache(entries));
            for &n in &stream {
                c.access_line(LineAddr::new(n));
            }
            let hits = c.stats().victim_hits;
            assert!(
                hits >= prev,
                "case {case}, {entries} entries: {hits} < {prev}"
            );
            prev = hits;
        }
    });
}

/// Raw VictimCache structure: a swap-hit removes the line and the
/// set's size never exceeds capacity.
#[test]
fn raw_victim_cache_size_bound() {
    check(7, |case, rng| {
        let ops = rng.gen_range(1usize..200);
        let cap = rng.gen_range(1usize..6);
        let mut vc = VictimCache::new(cap);
        for _ in 0..ops {
            let req = LineAddr::new(rng.gen_range(0u64..32));
            let vic = LineAddr::new(rng.gen_range(0u64..32));
            if req != vic {
                if !vc.probe_swap(req, Some(vic)) {
                    vc.insert_victim(vic);
                }
                assert!(!vc.contains(req), "case {case}: swapped line stayed");
            }
            assert!(vc.len() <= cap, "case {case}");
        }
    });
}

/// Stream buffers never *add* misses: full misses with a buffer are
/// at most the bare cache's misses.
#[test]
fn stream_buffer_never_hurts() {
    check(8, |case, rng| {
        let stream = line_stream(rng, 200, 400);
        let ways = rng.gen_range(1usize..5);
        let geom = CacheGeometry::direct_mapped(8 * 16, 16).unwrap();
        let bare = {
            let mut c = AugmentedCache::new(AugmentedConfig::new(geom));
            for &n in &stream {
                c.access_line(LineAddr::new(n));
            }
            c.stats().full_misses
        };
        let mut c = AugmentedCache::new(
            AugmentedConfig::new(geom).multi_way_stream_buffer(ways, StreamBufferConfig::new(4)),
        );
        for &n in &stream {
            c.access_line(LineAddr::new(n));
        }
        assert!(c.stats().full_misses <= bare, "case {case}");
    });
}

/// The stack-distance profile predicts FA-LRU misses exactly
/// (Mattson), for every capacity, on arbitrary streams.
#[test]
fn stack_distance_predicts_fa_lru() {
    check(9, |case, rng| {
        let stream = line_stream(rng, 96, 400);
        let mut profile = StackDistanceProfile::new();
        for &n in &stream {
            profile.observe(LineAddr::new(n));
        }
        for lines in [1u64, 2, 4, 8, 32] {
            let geom = CacheGeometry::fully_associative(lines * 16, 16).unwrap();
            let mut cache = Cache::new(geom);
            let mut misses = 0u64;
            for &n in &stream {
                if cache.access_line(LineAddr::new(n)).is_miss() {
                    misses += 1;
                }
            }
            assert_eq!(
                profile.misses_for_capacity(lines as usize),
                misses,
                "case {case}, {lines} lines"
            );
        }
        // Compulsory count equals distinct lines.
        let distinct: std::collections::HashSet<_> = stream.iter().collect();
        assert_eq!(profile.cold_refs() as usize, distinct.len(), "case {case}");
    });
}

/// Set refinement: the within-set stack distance at S sets predicts
/// an S-set A-way LRU cache's hit/miss per reference (hit ⇔ not a
/// first touch and depth ≤ A), on arbitrary streams.
#[test]
fn within_set_depth_predicts_set_assoc_lru() {
    check(10, |case, rng| {
        let stream = line_stream(rng, 128, 400);
        for (sets, assoc) in [(1u64, 4u64), (4, 1), (4, 2), (8, 4), (16, 2)] {
            let geom = CacheGeometry::new(sets * assoc * 16, 16, assoc).unwrap();
            let mut cache = Cache::new(geom);
            let mut sweep = LruSweep::for_set_counts(&[sets]).unwrap();
            for &n in &stream {
                let line = LineAddr::new(n);
                let (cold, depths) = sweep.observe_depths(line);
                let predicted_hit = !cold && u64::from(depths[0]) <= assoc;
                assert_eq!(
                    cache.access_line(line).is_hit(),
                    predicted_hit,
                    "case {case}: {sets} sets x {assoc} ways at line {n}"
                );
            }
            assert_eq!(
                sweep.misses(sets, assoc),
                Some(cache.stats().misses),
                "case {case}"
            );
        }
    });
}

/// The bounded LRU backend equals the exact Fenwick backend at every
/// associativity up to each level's bound, and declines to answer
/// beyond it, on arbitrary streams.
#[test]
fn bounded_lru_sweep_matches_exact_within_bounds() {
    check(11, |case, rng| {
        let stream = line_stream(rng, 128, 400);
        let cells = [(1u64, 6u64), (2, 3), (8, 2), (16, 1)];
        let counts: Vec<u64> = cells.iter().map(|&(s, _)| s).collect();
        let mut exact = LruSweep::for_set_counts(&counts).unwrap();
        let mut bounded = LruSweep::bounded(&cells).unwrap();
        for &n in &stream {
            exact.observe(LineAddr::new(n));
            bounded.observe(LineAddr::new(n));
        }
        for (sets, bound) in cells {
            for assoc in 1..=bound {
                assert_eq!(
                    bounded.misses(sets, assoc),
                    exact.misses(sets, assoc),
                    "case {case}: {sets} sets x {assoc} ways (bound {bound})"
                );
            }
            assert_eq!(bounded.misses(sets, bound + 1), None, "case {case}");
        }
        assert_eq!(bounded.cold_refs(), exact.cold_refs(), "case {case}");
        assert_eq!(
            bounded.distinct_lines(),
            exact.distinct_lines(),
            "case {case}"
        );
    });
}

/// The one-pass FIFO curves equal per-cell FIFO simulation exactly,
/// for every tracked (set count, associativity) cell, on arbitrary
/// streams.
#[test]
fn fifo_sweep_matches_per_cell_fifo() {
    check(12, |case, rng| {
        let stream = line_stream(rng, 160, 400);
        let cells = [(1u64, 2u64), (1, 8), (2, 4), (4, 1), (8, 2), (16, 1)];
        let mut sweep = FifoSweep::new(&cells).unwrap();
        for &n in &stream {
            sweep.observe(LineAddr::new(n));
        }
        for (sets, assoc) in cells {
            let geom = CacheGeometry::new(sets * assoc * 16, 16, assoc).unwrap();
            let mut cache = Cache::with_policy(geom, ReplacementPolicy::Fifo);
            for &n in &stream {
                cache.access_line(LineAddr::new(n));
            }
            assert_eq!(
                sweep.misses(sets, assoc),
                Some(cache.stats().misses),
                "case {case}: {sets} sets x {assoc} ways"
            );
        }
    });
}

/// Set-associative caches with FIFO/Random still respect capacity and
/// never "lose" lines spuriously (a resident line probed right after
/// insertion is present).
#[test]
fn policies_respect_capacity() {
    check(13, |case, rng| {
        let stream = line_stream(rng, 64, 300);
        for policy in [
            ReplacementPolicy::Lru,
            ReplacementPolicy::Fifo,
            ReplacementPolicy::Random,
        ] {
            let geom = CacheGeometry::new(4 * 16 * 2, 16, 2).unwrap(); // 4 sets, 2-way
            let mut cache = Cache::with_policy(geom, policy);
            for &n in &stream {
                let line = LineAddr::new(n);
                cache.access_line(line);
                assert!(cache.probe(line), "case {case}, {policy}: line vanished");
                assert!(cache.resident_count() <= 8, "case {case}");
            }
        }
    });
}
