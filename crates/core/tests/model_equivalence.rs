//! Cross-structure equivalence properties for the paper's mechanisms.
//!
//! Each property runs over [`CASES`] random cases drawn from the
//! workspace's seeded xoshiro PRNG (`jouppi_trace::SmallRng`), so a
//! failure names its case and reproduces exactly.

use jouppi_cache::CacheGeometry;
use jouppi_core::stride::StridedMultiWayBuffer;
use jouppi_core::{
    AugmentedCache, AugmentedConfig, MissCache, MultiWayStreamBuffer, StreamBuffer,
    StreamBufferConfig, StreamProbe,
};
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

fn l(n: u64) -> LineAddr {
    LineAddr::new(n)
}

/// A random line stream of length `1..len` over `0..max_line`.
fn line_stream(rng: &mut SmallRng, max_line: u64, len: usize) -> Vec<u64> {
    let n = rng.gen_range(1..len);
    (0..n).map(|_| rng.gen_range(0..max_line)).collect()
}

/// A naive stream-buffer model: remembers the expected next lines of the
/// current run and the remaining budget.
struct NaiveStream {
    expected: Vec<u64>, // the full future of the run, front = head-ish
    depth: usize,
    max_run: usize,
}

impl NaiveStream {
    fn new(depth: usize, max_run: usize) -> Self {
        NaiveStream {
            expected: Vec::new(),
            depth,
            max_run,
        }
    }

    fn restart(&mut self, miss: u64) {
        self.expected = (1..=self.max_run as u64).map(|i| miss + i).collect();
    }

    /// Mirrors "only the head has a comparator" with a `depth`-entry FIFO:
    /// a hit requires the probed line to be the next expected line AND
    /// within what the FIFO has fetched (always true once started, since
    /// the FIFO refills as it drains — depth only matters under latency).
    fn probe_consume(&mut self, line: u64) -> bool {
        let _ = self.depth;
        if self.expected.first() == Some(&line) {
            self.expected.remove(0);
            true
        } else {
            false
        }
    }
}

/// The real FIFO stream buffer with zero latency is equivalent to the
/// naive "expected next line with budget" model.
#[test]
fn stream_buffer_matches_naive_model() {
    check(1, |case, rng| {
        let stream = line_stream(rng, 64, 400);
        let depth = rng.gen_range(1usize..6);
        let max_run = rng.gen_range(0usize..20);
        let cfg = StreamBufferConfig::new(depth).max_run(max_run);
        let mut sb = StreamBuffer::new(cfg);
        let mut model = NaiveStream::new(depth, max_run);
        for (t, &n) in stream.iter().enumerate() {
            let real = sb.probe_consume(l(n), t as u64).is_hit();
            let expect = model.probe_consume(n);
            assert_eq!(real, expect, "case {case}: ref {t} (line {n})");
            if !real {
                sb.restart(l(n), t as u64);
                model.restart(n);
            }
        }
    });
}

/// A 1-way MultiWayStreamBuffer behaves exactly like a single
/// StreamBuffer.
#[test]
fn one_way_multi_equals_single() {
    check(2, |case, rng| {
        let stream = line_stream(rng, 128, 400);
        let cfg = StreamBufferConfig::new(4);
        let mut single = StreamBuffer::new(cfg);
        let mut multi = MultiWayStreamBuffer::new(1, cfg);
        for (t, &n) in stream.iter().enumerate() {
            let a = single.probe_consume(l(n), t as u64);
            let b = multi.probe_consume(l(n), t as u64);
            assert_eq!(a, b, "case {case}: ref {t}");
            if a == StreamProbe::Miss {
                single.restart(l(n), t as u64);
                multi.handle_miss(l(n), t as u64);
            }
        }
    });
}

/// With stride detection enabled, a purely sequential stream behaves
/// identically to the plain multi-way buffer (the detector confirms
/// stride 1 and allocates unit streams).
#[test]
fn strided_buffer_equals_plain_on_unit_streams() {
    check(3, |case, rng| {
        let start = rng.gen_range(0u64..1000);
        let len = rng.gen_range(10usize..200);
        let cfg = StreamBufferConfig::new(4);
        let mut plain = MultiWayStreamBuffer::new(4, cfg);
        let mut strided = StridedMultiWayBuffer::new(4, cfg, 64);
        for (t, n) in (start..start + len as u64).enumerate() {
            let a = plain.probe_consume(l(n), t as u64);
            let b = strided.probe_consume(l(n), t as u64);
            assert_eq!(a, b, "case {case}: diverged at {n}");
            if a == StreamProbe::Miss {
                plain.handle_miss(l(n), t as u64);
                strided.handle_miss(l(n), t as u64);
            }
        }
    });
}

/// Miss cache as reference model: an L1+miss-cache composite's
/// miss-cache hits equal a hand-rolled simulation of §3.1's rules.
#[test]
fn miss_cache_composite_matches_manual_rules() {
    check(4, |case, rng| {
        let stream = line_stream(rng, 48, 400);
        let entries = rng.gen_range(1usize..6);
        let geom = CacheGeometry::direct_mapped(8 * 16, 16).unwrap();
        let mut composite = AugmentedCache::new(AugmentedConfig::new(geom).miss_cache(entries));
        // Manual: plain DM cache + MissCache structure.
        let mut dm = jouppi_cache::Cache::new(geom);
        let mut mc = MissCache::new(entries);
        let mut manual_mc_hits = 0u64;
        for &n in &stream {
            let line = l(n);
            composite.access_line(line);
            if dm.access_line(line).is_miss() {
                if mc.probe_and_touch(line) {
                    manual_mc_hits += 1;
                } else {
                    mc.insert(line);
                }
            }
        }
        assert_eq!(
            composite.stats().miss_cache_hits,
            manual_mc_hits,
            "case {case}"
        );
    });
}

/// Victim-cache composite: total lines tracked (L1 + VC) never exceeds
/// L1 capacity + VC capacity, and the VC only ever holds lines that
/// were once evicted from L1.
#[test]
fn victim_composite_conservation() {
    check(5, |case, rng| {
        let stream = line_stream(rng, 64, 400);
        let entries = rng.gen_range(1usize..6);
        let geom = CacheGeometry::direct_mapped(8 * 16, 16).unwrap();
        let mut c = AugmentedCache::new(AugmentedConfig::new(geom).victim_cache(entries));
        for &n in &stream {
            c.access_line(l(n));
        }
        assert!(c.exclusivity_holds(), "case {case}");
    });
}

/// Outcome counters always sum to accesses, for arbitrary composite
/// configurations.
#[test]
fn outcome_counters_partition_accesses() {
    check(6, |case, rng| {
        let stream = line_stream(rng, 200, 400);
        let vc = rng.gen_range(0usize..5);
        let ways = rng.gen_range(0usize..5);
        let stride_detect = rng.gen_bool(0.5);
        let geom = CacheGeometry::direct_mapped(8 * 16, 16).unwrap();
        let mut cfg = AugmentedConfig::new(geom);
        if vc > 0 {
            cfg = cfg.victim_cache(vc);
        }
        if ways > 0 {
            cfg = if stride_detect {
                cfg.strided_stream_buffer(ways, StreamBufferConfig::new(4), 32)
            } else {
                cfg.multi_way_stream_buffer(ways, StreamBufferConfig::new(4))
            };
        }
        let mut c = AugmentedCache::new(cfg);
        for &n in &stream {
            c.access_line(l(n));
        }
        let s = c.stats();
        assert_eq!(
            s.accesses,
            s.l1_hits + s.victim_hits + s.miss_cache_hits + s.stream_hits + s.full_misses,
            "case {case}"
        );
    });
}
