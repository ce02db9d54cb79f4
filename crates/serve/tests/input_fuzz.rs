//! Seeded fuzzing of the two parsers that face untrusted bytes: the
//! depth-guarded JSON parser behind every request body, and the HTTP/1.1
//! head/body reader behind every connection.
//!
//! Each suite feeds byte soup, truncated well-formed inputs, and
//! mutated well-formed inputs, and asserts:
//!
//! 1. **No panic** — every input comes back as a value or a typed
//!    error (the test finishing is the proof).
//! 2. **Bounded buffering** (HTTP) — no returned body exceeds
//!    [`Limits::max_body_bytes`], no returned head exceeds
//!    [`Limits::max_head_bytes`] by more than the one read during which
//!    it completed, and the connection never buffers more than
//!    head + body limits plus two reads.
//! 3. **Canonical round trip** (JSON) — for any text that parses,
//!    `encode_canonical` → `parse` → `encode_canonical` is a fixed
//!    point, which is what the result cache's content keys rely on.
//!
//! Randomness comes from the workspace's seeded xoshiro PRNG
//! (`jouppi_trace::SmallRng`), so every failure reproduces from the
//! printed round number.

use std::io::{self, Read};

use jouppi_serve::http::{HttpConn, HttpError, Limits};
use jouppi_serve::json::Json;
use jouppi_trace::SmallRng;

fn mutate<T: Copy>(rng: &mut SmallRng, seed: &[T], noise: &[T]) -> Vec<T> {
    let mut out = seed.to_vec();
    for _ in 0..rng.below(4) + 1 {
        let pick = noise[rng.below(noise.len())];
        let at = rng.below(out.len() + 1);
        match rng.below(3) {
            0 if at < out.len() => out[at] = pick,
            1 if at < out.len() => {
                out.remove(at);
            }
            _ => out.insert(at, pick),
        }
    }
    out
}

// -------------------------------------------------------------------
// JSON
// -------------------------------------------------------------------

/// Well-formed documents covering every value kind, escapes, surrogate
/// pairs, and number edge cases (negative zero, huge and tiny floats,
/// integers past i64).
const JSON_SEEDS: [&str; 6] = [
    r#"{"workload":"ccom","scale":200000,"seed":7,"victim":4,"stream":{"ways":4,"depth":4}}"#,
    r#"{"sweep":"fig_3_1","scale":60000,"workloads":["ccom","grr","yacc","met","linpack","liver"]}"#,
    r#"[null,true,false,-0,-0.0,1e308,1.5e-7,123456789012345678901,29.0,-42]"#,
    r#"{"s":"tab\there \"quoted\" \\ \/ é 🦀 \u0001","k":{},"a":[]}"#,
    r#"{"z":1,"a":{"y":[{"b":2,"a":1}],"x":0},"z":2}"#,
    "[[[[[[[[[[[[[[[[{\"deep\":[[[[[[[[1]]]]]]]]}]]]]]]]]]]]]]]]]",
];

/// Characters the JSON mutator splices in: structure, number and escape
/// syntax, whitespace, and multibyte characters.
const JSON_NOISE: [char; 30] = [
    '{', '}', '[', ']', ',', ':', '"', '\\', 'u', 'n', 't', 'f', 'e', 'E', '.', '-', '+', '0', '1',
    '9', ' ', '\n', '\t', 'a', 'd', '8', 'é', '→', '🦀', '\u{1}',
];

fn json_soup(rng: &mut SmallRng) -> String {
    (0..rng.below(200))
        .map(|_| JSON_NOISE[rng.below(JSON_NOISE.len())])
        .collect()
}

fn json_truncated(rng: &mut SmallRng) -> String {
    let chars: Vec<char> = JSON_SEEDS[rng.below(JSON_SEEDS.len())].chars().collect();
    chars[..rng.below(chars.len() + 1)].iter().collect()
}

fn json_mutated(rng: &mut SmallRng) -> String {
    let seed: Vec<char> = JSON_SEEDS[rng.below(JSON_SEEDS.len())].chars().collect();
    mutate(rng, &seed, &JSON_NOISE).into_iter().collect()
}

/// Nesting around the parser's depth guard, balanced or not.
fn json_nested(rng: &mut SmallRng) -> String {
    let open = rng.below(160);
    let close = if rng.gen_bool(0.5) {
        open
    } else {
        rng.below(160)
    };
    format!("{}1{}", "[".repeat(open), "]".repeat(close))
}

/// Asserts the canonical fixed point for one input that parsed.
fn assert_canonical_fixed_point(round: usize, text: &str, value: &Json) {
    let once = value.encode_canonical();
    let reparsed = Json::parse(&once).unwrap_or_else(|e| {
        panic!("round {round}: canonical text fails to re-parse ({e}): {once}\ninput: {text}")
    });
    assert_eq!(
        reparsed.encode_canonical(),
        once,
        "round {round}: canonical encoding is not a fixed point\ninput: {text}"
    );
}

#[test]
fn json_parse_never_panics_and_canonical_text_is_a_fixed_point() {
    let mut rng = SmallRng::seed_from_u64(0x6a73_6f6e_6675_7a7a); // "jsonfuzz"
    let mut parsed = 0;
    for round in 0..2_000 {
        let text = match round % 4 {
            0 => json_soup(&mut rng),
            1 => json_truncated(&mut rng),
            2 => json_mutated(&mut rng),
            _ => json_nested(&mut rng),
        };
        if let Ok(value) = Json::parse(&text) {
            parsed += 1;
            assert_canonical_fixed_point(round, &text, &value);
        }
    }
    // Sanity anchor: the mix must reach the round-trip assertion often,
    // or the property above would pass vacuously on a parser that
    // rejects everything.
    assert!(parsed > 100, "only {parsed} fuzz inputs parsed");
}

#[test]
fn json_seeds_parse_and_round_trip() {
    for (i, seed) in JSON_SEEDS.iter().enumerate() {
        let value = Json::parse(seed).unwrap_or_else(|e| panic!("seed {i}: {e}"));
        assert_canonical_fixed_point(i, seed, &value);
    }
}

// -------------------------------------------------------------------
// HTTP
// -------------------------------------------------------------------

/// Small limits, so the fuzz inputs cross them often.
const LIMITS: Limits = Limits {
    max_head_bytes: 256,
    max_body_bytes: 512,
};

/// The most bytes the scripted reader hands over per `read` call.
const MAX_READ: usize = 64;

/// Well-formed request streams: bodies, pipelining, keep-alive, and a
/// body exactly at the limit.
fn http_seeds() -> Vec<Vec<u8>> {
    let body = r#"{"workload":"ccom","scale":20000,"victim":4}"#;
    let at_limit = "x".repeat(LIMITS.max_body_bytes);
    [
        "GET /healthz HTTP/1.1\r\nHost: localhost\r\n\r\n".to_owned(),
        format!(
            "POST /v1/simulate HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        ),
        format!(
            "POST /v1/simulate HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}\
             GET /metrics?x=1 HTTP/1.1\r\nConnection: close\r\n\r\n",
            body.len()
        ),
        format!(
            "POST /v1/sweep HTTP/1.0\r\nContent-Length: {}\r\n\r\n{at_limit}",
            at_limit.len()
        ),
    ]
    .into_iter()
    .map(String::into_bytes)
    .collect()
}

/// Bytes the HTTP mutator splices in: framing, header syntax, digits for
/// lengths, and a non-UTF-8 byte.
const HTTP_NOISE: [u8; 16] = [
    b'\r', b'\n', b':', b' ', b'0', b'1', b'9', b'/', b'?', b'G', b'P', b'H', b'T', b'x', b'-',
    0xff,
];

/// An oversized or mis-declared request: a head padded past the limit
/// half the time, and a body up to twice the limit whose
/// Content-Length is honest, beyond `usize`, or a random size.
fn http_oversized(rng: &mut SmallRng) -> Vec<u8> {
    let pad = if rng.gen_bool(0.5) {
        "a".repeat(rng.below(3 * LIMITS.max_head_bytes))
    } else {
        String::new()
    };
    let body = "b".repeat(rng.below(2 * LIMITS.max_body_bytes));
    let length = match rng.below(3) {
        0 => body.len().to_string(),
        1 => "99999999999999999999999".to_owned(),
        _ => rng.below(2 * LIMITS.max_body_bytes).to_string(),
    };
    format!("POST /v1/simulate HTTP/1.1\r\nX-Pad: {pad}\r\nContent-Length: {length}\r\n\r\n{body}")
        .into_bytes()
}

fn http_input(round: usize, rng: &mut SmallRng) -> Vec<u8> {
    let seeds = http_seeds();
    let seed = &seeds[rng.below(seeds.len())];
    match round % 4 {
        0 => (0..rng.below(600))
            .map(|_| HTTP_NOISE[rng.below(HTTP_NOISE.len())])
            .collect(),
        1 => seed[..rng.below(seed.len() + 1)].to_vec(),
        2 => mutate(rng, seed, &HTTP_NOISE),
        _ => http_oversized(rng),
    }
}

/// A socket stand-in: hands `data` over in random-sized reads, sometimes
/// timing out first, and counts what it delivered.
struct Scripted {
    data: Vec<u8>,
    delivered: usize,
    rng: SmallRng,
}

impl Read for Scripted {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.rng.below(8) == 0 {
            return Err(io::Error::new(io::ErrorKind::WouldBlock, "tick"));
        }
        let n = (self.rng.below(MAX_READ) + 1)
            .min(buf.len())
            .min(self.data.len() - self.delivered);
        buf[..n].copy_from_slice(&self.data[self.delivered..self.delivered + n]);
        self.delivered += n;
        Ok(n)
    }
}

/// Index just past the first `\r\n\r\n` in `bytes`.
fn head_end(bytes: &[u8]) -> Option<usize> {
    bytes
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map(|i| i + 4)
}

/// Serves one input to completion the way the server loop does:
/// retrying timeouts, stopping at a clean close or the first error.
/// Returns how many requests were accepted.
fn drive(round: usize, input: &[u8], rng: &mut SmallRng) -> usize {
    let reader = Scripted {
        data: input.to_vec(),
        delivered: 0,
        rng: SmallRng::seed_from_u64(rng.next_u64()),
    };
    let mut conn = HttpConn::new(reader, LIMITS);
    // Offset in `input` of the first byte not yet returned as a request.
    let mut consumed = 0;
    let mut accepted = 0;
    // Every call either reads at least one byte, times out, or ends the
    // connection; a timeout comes at most once per successful read on
    // average, so this bound only trips on a parser that stops
    // progressing.
    for _ in 0..8 * (input.len() + 8) {
        let outcome = conn.read_request(None);
        let buffered = conn.inner_mut().delivered - consumed;
        assert!(
            buffered <= LIMITS.max_head_bytes + LIMITS.max_body_bytes + 2 * MAX_READ,
            "round {round}: {buffered} bytes buffered, beyond the limits"
        );
        match outcome {
            Ok(Some(request)) => {
                assert!(
                    request.body.len() <= LIMITS.max_body_bytes,
                    "round {round}: accepted a {}-byte body",
                    request.body.len()
                );
                let head = head_end(&input[consumed..])
                    .unwrap_or_else(|| panic!("round {round}: accepted a request with no head"));
                // The head limit is checked between reads, so a head may
                // complete inside the read that crosses it.
                assert!(
                    head <= LIMITS.max_head_bytes + MAX_READ,
                    "round {round}: accepted a {head}-byte head"
                );
                consumed += head + request.body.len();
                accepted += 1;
            }
            Err(HttpError::Timeout) => {}
            Ok(None) | Err(_) => return accepted,
        }
    }
    panic!("round {round}: the parser stopped making progress");
}

#[test]
fn http_reader_never_panics_and_stays_within_limits() {
    let mut rng = SmallRng::seed_from_u64(0x6874_7470_6675_7a7a); // "httpfuzz"
    let mut accepted = 0;
    for round in 0..1_200 {
        let input = http_input(round, &mut rng);
        accepted += drive(round, &input, &mut rng);
    }
    assert!(accepted > 100, "only {accepted} fuzz requests accepted");
}

#[test]
fn http_seeds_are_accepted_whole() {
    let mut rng = SmallRng::seed_from_u64(1);
    let expected = [1, 1, 2, 1];
    for (i, (seed, want)) in http_seeds().iter().zip(expected).enumerate() {
        assert_eq!(drive(i, seed, &mut rng), want, "seed {i}");
    }
}
