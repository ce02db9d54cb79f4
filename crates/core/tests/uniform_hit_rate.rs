//! A closed-form oracle for fully-associative LRU structures.
//!
//! Under independent references drawn uniformly from `N` lines, a warm
//! `C`-entry fully-associative LRU structure always holds exactly `C`
//! distinct lines, and the next reference is one of them with probability
//! `C / N` whatever the history. Hits are therefore independent
//! Bernoulli(`C / N`) trials, and over `R` references the hit count is
//! binomial with mean `R·C/N` and standard deviation
//! `sqrt(R·(C/N)·(1 − C/N))`.
//!
//! The check shares no code with the simulators it tests: the expected
//! value is arithmetic, and the stream comes from the workspace's seeded
//! `SmallRng`. It covers the miss cache (on `LruMap`) and a
//! fully-associative `Cache` with LRU replacement.
//!
//! What it pins is capacity and hit accounting: a structure holding one
//! line too many or too few is off by `R/N` hits, dozens of σ here. It
//! cannot see the eviction order — under independent references any
//! policy that keeps `C` lines hits at `C / N` — which the model tests of
//! `LruMap` and `Cache` pin instead.

use jouppi_cache::{Cache, CacheGeometry};
use jouppi_core::MissCache;
use jouppi_trace::{LineAddr, SmallRng};

const LINES: u64 = 64;
const WARMUP: usize = 10_000;
const MEASURED: usize = 200_000;

/// Asserts `hits` over [`MEASURED`] references is within 5σ of the
/// binomial mean for a `capacity`-entry structure.
fn assert_binomial(label: &str, capacity: u64, hits: u64) {
    let p = capacity as f64 / LINES as f64;
    let n = MEASURED as f64;
    let mean = n * p;
    let sigma = (n * p * (1.0 - p)).sqrt();
    let z = (hits as f64 - mean) / sigma;
    assert!(
        z.abs() <= 5.0,
        "{label} with {capacity} entries: {hits} hits, expected {mean:.0} ± {sigma:.0} (z = {z:.2})"
    );
}

/// Drives `access` (returns `true` on a hit) with `WARMUP` then
/// `MEASURED` uniform references, returning the measured hits.
fn measured_hits(seed: u64, mut access: impl FnMut(LineAddr) -> bool) -> u64 {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut next = || LineAddr::new(rng.gen_range(0..LINES));
    for _ in 0..WARMUP {
        access(next());
    }
    (0..MEASURED).filter(|_| access(next())).count() as u64
}

#[test]
fn miss_cache_hits_with_probability_c_over_n() {
    for capacity in [1u64, 4, 16] {
        let mut mc = MissCache::new(capacity as usize);
        let hits = measured_hits(0x5eed + capacity, |line| {
            let hit = mc.probe_and_touch(line);
            if !hit {
                mc.insert(line);
            }
            hit
        });
        assert_eq!(mc.len() as u64, capacity, "warm structure is full");
        assert_binomial("MissCache", capacity, hits);
    }
}

#[test]
fn fully_associative_lru_cache_hits_with_probability_c_over_n() {
    for capacity in [1u64, 4, 16] {
        let geom = CacheGeometry::fully_associative(capacity * 16, 16).expect("valid geometry");
        let mut cache = Cache::new(geom);
        let hits = measured_hits(0xfa + capacity, |line| cache.access_line(line).is_hit());
        assert_eq!(
            cache.resident_count() as u64,
            capacity,
            "warm cache is full"
        );
        assert_binomial("fully-associative LRU Cache", capacity, hits);
    }
}
