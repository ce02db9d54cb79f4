//! The seeded `simulate-fresh` request stream and the trace scales.
//!
//! Every request the server receives is generated here from the
//! benchmark's `--seed`: the same seed gives the same requests, in the
//! same order, on every run.

use jouppi_serve::json::Json;
use jouppi_workloads::Benchmark;

/// Trace scale of every `sweep` round.
pub const SWEEP_SCALE: u64 = 60_000;

/// Trace scale of every `/v1/simulate` body.
pub const SIMULATE_SCALE: u64 = 400_000;

/// The four cache organizations every simulate body cycles through.
const ORGANIZATIONS: [&str; 4] = ["victim_4", "miss_cache_2", "stream_4x4", "bare"];

/// One request to the program, as the client sends it.
#[derive(Clone, Debug, PartialEq)]
pub struct Request {
    /// The JSON body.
    pub body: Json,
    /// `body` encoded: the bytes on the wire and the identity of the
    /// request (equal text means an equal result-cache key).
    pub text: String,
}

impl Request {
    /// A `/v1/simulate` request with `body`.
    pub fn simulate(body: Json) -> Request {
        let text = body.encode();
        Request { body, text }
    }

    /// The complete HTTP/1.1 request, ready to write to a keep-alive
    /// connection.
    pub fn wire(&self) -> Vec<u8> {
        format!(
            "POST /v1/simulate HTTP/1.1\r\nHost: localhost\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{}",
            self.text.len(),
            self.text
        )
        .into_bytes()
    }
}

/// A `/v1/simulate` body: benchmark `bench`, organization `org` (an index
/// into the four organizations), classification on or off, trace seed
/// `seed`, trace scale `scale`.
pub fn simulate_body(bench: Benchmark, org: usize, classify: bool, seed: u64, scale: u64) -> Json {
    let mut fields = vec![
        ("workload".to_owned(), Json::str(bench.name())),
        ("scale".to_owned(), Json::Int(scale as i64)),
        ("seed".to_owned(), Json::Int(seed as i64)),
    ];
    match ORGANIZATIONS[org % ORGANIZATIONS.len()] {
        "victim_4" => fields.push(("victim".to_owned(), Json::Int(4))),
        "miss_cache_2" => fields.push(("miss_cache".to_owned(), Json::Int(2))),
        "stream_4x4" => fields.push((
            "stream".to_owned(),
            Json::obj([("ways", Json::Int(4)), ("depth", Json::Int(4))]),
        )),
        _ => {}
    }
    fields.push(("classify".to_owned(), Json::Bool(classify)));
    Json::Obj(fields)
}

/// Request `index` of the `simulate-fresh` stream.
///
/// Every 48 consecutive requests cover each (benchmark, organization,
/// classify) combination once, with classification on every other
/// request. The trace seed is `seed + index`, so no two requests share
/// a result-cache key.
pub fn simulate_fresh(seed: u64, index: u64) -> Request {
    let bench = Benchmark::ALL[(index / 2) as usize % Benchmark::ALL.len()];
    let org = (index / 12) as usize % ORGANIZATIONS.len();
    let body = simulate_body(
        bench,
        org,
        index % 2 == 1,
        seed.wrapping_add(index),
        SIMULATE_SCALE,
    );
    Request::simulate(body)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_requests() {
        let a: Vec<_> = (0..96).map(|i| simulate_fresh(7, i)).collect();
        let b: Vec<_> = (0..96).map(|i| simulate_fresh(7, i)).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seed_different_requests() {
        let a: Vec<_> = (0..48).map(|i| simulate_fresh(7, i).text).collect();
        let b: Vec<_> = (0..48).map(|i| simulate_fresh(8, i).text).collect();
        assert!(a.iter().zip(&b).all(|(x, y)| x != y));
    }

    #[test]
    fn simulate_fresh_keys_are_all_distinct() {
        let texts: std::collections::HashSet<_> =
            (0..480).map(|i| simulate_fresh(1, i).text).collect();
        assert_eq!(texts.len(), 480);
    }

    #[test]
    fn simulate_fresh_covers_every_combination_per_48() {
        let combos: std::collections::HashSet<_> = (0..48)
            .map(|i| {
                let body = simulate_fresh(3, i).body;
                let mut b = body.clone();
                if let Json::Obj(fields) = &mut b {
                    fields.retain(|(k, _)| k != "seed");
                }
                b.encode()
            })
            .collect();
        assert_eq!(combos.len(), 48);
        let classified = (0..48)
            .filter(|&i| simulate_fresh(3, i).body.get("classify") == Some(&Json::Bool(true)))
            .count();
        assert_eq!(classified, 24);
    }

    #[test]
    fn wire_format_carries_the_body() {
        let r = simulate_fresh(1, 0);
        let wire = String::from_utf8(r.wire()).unwrap();
        assert!(wire.starts_with("POST /v1/simulate HTTP/1.1\r\n"));
        assert!(wire.ends_with(&r.text));
        assert!(wire.contains(&format!("Content-Length: {}\r\n", r.text.len())));
    }
}
