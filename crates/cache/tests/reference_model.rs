//! Property tests pitting `Cache` against a naive reference
//! implementation: a per-set vector with explicit recency bookkeeping.
//!
//! Each property runs over [`CASES`] random cases drawn from the
//! workspace's seeded xoshiro PRNG (`jouppi_trace::SmallRng`), so a
//! failure names its case and reproduces exactly.

use jouppi_cache::{AccessResult, Cache, CacheGeometry, ReplacementPolicy};
use jouppi_trace::{LineAddr, SmallRng};

/// Random cases per property.
const CASES: usize = 256;

/// Runs `property` on [`CASES`] cases from a generator seeded by `seed`.
fn check(seed: u64, mut property: impl FnMut(usize, &mut SmallRng)) {
    let mut rng = SmallRng::seed_from_u64(seed);
    for case in 0..CASES {
        property(case, &mut rng);
    }
}

/// A deliberately simple model of a set-associative LRU cache.
struct NaiveLru {
    sets: Vec<Vec<LineAddr>>, // each set ordered MRU-first
    assoc: usize,
    num_sets: u64,
}

impl NaiveLru {
    fn new(num_sets: u64, assoc: usize) -> Self {
        NaiveLru {
            sets: vec![Vec::new(); num_sets as usize],
            assoc,
            num_sets,
        }
    }

    fn access(&mut self, line: LineAddr) -> (bool, Option<LineAddr>) {
        let set = &mut self.sets[(line.get() % self.num_sets) as usize];
        if let Some(pos) = set.iter().position(|&l| l == line) {
            set.remove(pos);
            set.insert(0, line);
            (true, None)
        } else {
            set.insert(0, line);
            let victim = (set.len() > self.assoc).then(|| set.pop().expect("overfull"));
            (false, victim)
        }
    }
}

/// A random line stream of length `1..len` over `0..max_line`.
fn line_stream(rng: &mut SmallRng, max_line: u64, len: usize) -> Vec<u64> {
    let n = rng.gen_range(1..len);
    (0..n).map(|_| rng.gen_range(0..max_line)).collect()
}

#[test]
fn set_associative_lru_matches_naive_model() {
    check(1, |case, rng| {
        let stream = line_stream(rng, 256, 500);
        let assoc = 1u64 << rng.gen_range(0u32..4);
        let sets = 1u64 << rng.gen_range(0u32..4);
        let line_size = 16u64;
        let geom = CacheGeometry::new(sets * assoc * line_size, line_size, assoc).unwrap();
        let mut cache = Cache::new(geom);
        let mut model = NaiveLru::new(sets, assoc as usize);
        for &n in &stream {
            let line = LineAddr::new(n);
            let (model_hit, model_victim) = model.access(line);
            match cache.access_line(line) {
                AccessResult::Hit => assert!(model_hit, "case {case}: cache hit, model missed"),
                AccessResult::Miss { victim } => {
                    assert!(!model_hit, "case {case}: cache missed, model hit");
                    assert_eq!(victim, model_victim, "case {case}: victim mismatch");
                }
            }
        }
        // Residency agrees exactly.
        let mut ours: Vec<u64> = cache.resident_lines().map(|l| l.get()).collect();
        let mut theirs: Vec<u64> = model.sets.iter().flatten().map(|l| l.get()).collect();
        ours.sort_unstable();
        theirs.sort_unstable();
        assert_eq!(ours, theirs, "case {case}");
    });
}

#[test]
fn stats_count_exactly_the_observed_outcomes() {
    check(2, |case, rng| {
        let stream = line_stream(rng, 64, 300);
        let geom = CacheGeometry::direct_mapped(16 * 16, 16).unwrap();
        let mut cache = Cache::new(geom);
        let (mut hits, mut misses, mut evictions) = (0u64, 0u64, 0u64);
        for &n in &stream {
            match cache.access_line(LineAddr::new(n)) {
                AccessResult::Hit => hits += 1,
                AccessResult::Miss { victim } => {
                    misses += 1;
                    if victim.is_some() {
                        evictions += 1;
                    }
                }
            }
        }
        let s = cache.stats();
        assert_eq!(s.hits, hits, "case {case}");
        assert_eq!(s.misses, misses, "case {case}");
        assert_eq!(s.evictions, evictions, "case {case}");
        assert_eq!(s.accesses, hits + misses, "case {case}");
    });
}

#[test]
fn fifo_eviction_order_is_insertion_order() {
    check(3, |case, rng| {
        let stream = line_stream(rng, 64, 300);
        // In a 1-set FIFO cache, victims must come out in exactly the
        // order their lines were first inserted (reinsertions after
        // eviction count anew).
        let geom = CacheGeometry::new(4 * 16, 16, 4).unwrap(); // 1 set, 4-way
        let mut cache = Cache::with_policy(geom, ReplacementPolicy::Fifo);
        let mut inserted: Vec<u64> = Vec::new(); // queue of resident lines
        for &n in &stream {
            match cache.access_line(LineAddr::new(n)) {
                AccessResult::Hit => {}
                AccessResult::Miss { victim } => {
                    if let Some(v) = victim {
                        let expected = inserted.remove(0);
                        assert_eq!(v.get(), expected, "case {case}");
                    }
                    inserted.push(n);
                }
            }
        }
    });
}

#[test]
fn invalidate_then_access_always_misses() {
    check(4, |case, rng| {
        let stream = line_stream(rng, 32, 100);
        let geom = CacheGeometry::direct_mapped(8 * 16, 16).unwrap();
        let mut cache = Cache::new(geom);
        for &n in &stream {
            let line = LineAddr::new(n);
            cache.access_line(line);
            cache.invalidate(line);
            assert!(!cache.probe(line), "case {case}");
            assert!(cache.access_line(line).is_miss(), "case {case}");
        }
    });
}
