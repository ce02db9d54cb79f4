//! Property test: din-format serialization round-trips arbitrary traces.
//!
//! Each property runs over [`CASES`] random traces drawn from the
//! crate's seeded xoshiro PRNG ([`SmallRng`]), so a failure names its
//! case and reproduces exactly.

use jouppi_trace::io::{read_din, write_din};
use jouppi_trace::{AccessKind, Addr, MemRef, RecordedTrace, SmallRng};

/// Random cases per property.
const CASES: usize = 256;

/// A reference with a uniformly random 64-bit address and kind.
fn arb_ref(rng: &mut SmallRng) -> MemRef {
    let kind = match rng.below(3) {
        0 => AccessKind::Load,
        1 => AccessKind::Store,
        _ => AccessKind::InstrFetch,
    };
    MemRef::new(Addr::new(rng.next_u64()), kind)
}

fn arb_refs(rng: &mut SmallRng, len: std::ops::Range<usize>) -> Vec<MemRef> {
    let n = rng.gen_range(len);
    (0..n).map(|_| arb_ref(rng)).collect()
}

#[test]
fn write_then_read_is_identity() {
    let mut rng = SmallRng::seed_from_u64(1);
    for case in 0..CASES {
        let trace = RecordedTrace::from_refs("t", arb_refs(&mut rng, 0..200));
        let mut buf = Vec::new();
        write_din(&trace, &mut buf).expect("writing to a Vec cannot fail");
        let back = read_din(buf.as_slice(), "t").expect("own output must parse");
        assert_eq!(back.as_slice(), trace.as_slice(), "case {case}");
    }
}

#[test]
fn output_is_line_per_ref_ascii() {
    let mut rng = SmallRng::seed_from_u64(2);
    for case in 0..CASES {
        let refs = arb_refs(&mut rng, 1..100);
        let trace = RecordedTrace::from_refs("t", refs.clone());
        let mut buf = Vec::new();
        write_din(&trace, &mut buf).unwrap();
        let text = String::from_utf8(buf).expect("din output is UTF-8");
        assert!(text.is_ascii(), "case {case}");
        assert_eq!(text.lines().count(), refs.len(), "case {case}");
        for line in text.lines() {
            let mut parts = line.split_whitespace();
            let label = parts.next().expect("label");
            assert!(matches!(label, "0" | "1" | "2"), "case {case}: {line}");
            let addr = parts.next().expect("address");
            assert!(u64::from_str_radix(addr, 16).is_ok(), "case {case}: {line}");
            assert!(parts.next().is_none(), "case {case}: {line}");
        }
    }
}
