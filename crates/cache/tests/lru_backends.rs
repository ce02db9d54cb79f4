//! Randomized equivalence of the two `LruMap` backends on line sets.
//!
//! `LruMap` picks a compact ordered-vector backend for capacities up to
//! `SMALL_CAPACITY_MAX` and a hash-map + intrusive-list backend above it.
//! The backend is an implementation detail: driving both with the same
//! operation sequence must produce identical hits, evictions, recency
//! order, and observer results at every step. The small backend is the
//! sweep hot path (the miss cache's `LruMap<LineAddr, ()>`), so
//! divergence here would silently skew every paper figure.

use jouppi_cache::{Displaced, LruMap, SMALL_CAPACITY_MAX};
use jouppi_trace::{LineAddr, SmallRng};

type LineSet = LruMap<LineAddr, ()>;

/// Resident lines from MRU to LRU.
fn order(set: &LineSet) -> Vec<LineAddr> {
    set.keys().copied().collect()
}

/// One randomized op applied to both backends, with full observer checks.
fn step(rng: &mut SmallRng, small: &mut LineSet, hashed: &mut LineSet, line_space: u64) {
    let line = LineAddr::new(rng.below(line_space as usize) as u64);
    match rng.below(5) {
        0 => assert_eq!(small.get(&line), hashed.get(&line), "get {line:?}"),
        1 => assert_eq!(
            small.insert(line, ()),
            hashed.insert(line, ()),
            "insert {line:?}"
        ),
        2 => assert_eq!(small.remove(&line), hashed.remove(&line), "remove {line:?}"),
        _ => assert_eq!(small.peek(&line), hashed.peek(&line), "peek {line:?}"),
    }
    assert_eq!(small.len(), hashed.len());
    assert_eq!(small.keys().next(), hashed.keys().next(), "MRU diverged");
    assert_eq!(small.keys().last(), hashed.keys().last(), "LRU diverged");
}

#[test]
fn backends_agree_on_random_op_sequences() {
    let mut rng = SmallRng::seed_from_u64(0x1a2b_3c4d);
    for capacity in [1usize, 2, 3, 4, 8, 15, 64] {
        assert!(capacity <= SMALL_CAPACITY_MAX);
        let mut small = LineSet::new(capacity);
        let mut hashed = LineSet::new_hashed(capacity);
        assert!(small.is_small_backend());
        assert!(!hashed.is_small_backend());
        // Line space ~2× capacity keeps eviction pressure high.
        let line_space = (2 * capacity).max(4) as u64;
        for _ in 0..20_000 {
            step(&mut rng, &mut small, &mut hashed, line_space);
        }
        // Final recency order must match element for element.
        assert_eq!(
            order(&small),
            order(&hashed),
            "capacity {capacity}: iteration order diverged"
        );
    }
}

#[test]
fn backends_agree_under_sparse_addresses() {
    // Widely spread line addresses exercise hashing rather than the dense
    // low-value keys of the main test.
    let mut rng = SmallRng::seed_from_u64(7);
    let mut small = LineSet::new(8);
    let mut hashed = LineSet::new_hashed(8);
    for _ in 0..20_000 {
        let line = LineAddr::new((rng.below(32) as u64) << 40 | rng.below(16) as u64);
        assert_eq!(small.insert(line, ()), hashed.insert(line, ()));
    }
    assert_eq!(order(&small), order(&hashed));
}

#[test]
fn capacity_switch_point_is_respected() {
    assert!(LineSet::new(SMALL_CAPACITY_MAX).is_small_backend());
    assert!(!LineSet::new(SMALL_CAPACITY_MAX + 1).is_small_backend());
    // Forcing the hash backend at a small capacity is what this test
    // suite relies on; make sure the override holds.
    assert!(!LineSet::new_hashed(2).is_small_backend());
}

#[test]
fn clear_resets_both_backends_identically() {
    let mut small = LineSet::new(4);
    let mut hashed = LineSet::new_hashed(4);
    for n in 0..10 {
        small.insert(LineAddr::new(n), ());
        hashed.insert(LineAddr::new(n), ());
    }
    small.clear();
    hashed.clear();
    assert!(small.is_empty() && hashed.is_empty());
    let line = LineAddr::new(99);
    assert_eq!(small.insert(line, ()), Displaced::None);
    assert_eq!(hashed.insert(line, ()), Displaced::None);
    assert_eq!(small.len(), hashed.len());
}
