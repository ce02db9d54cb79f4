//! The untraced workloads: set-up, a closed loop of checked operations,
//! and the checks that must wait until the timed window has closed.

use std::time::Instant;

use jouppi_experiments::common::ExperimentConfig;
use jouppi_serve::json::Json;
use jouppi_serve::sweeps::{self, NAMED_SWEEPS};
use jouppi_serve::{sim, Client, ClientResponse, Server, ServerConfig, ServerHandle};
use jouppi_trace::SmallRng;

use crate::stream::{self, Request, SWEEP_SCALE};

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The six named sweeps, round-robin, in-process.
    Sweep,
    /// Never-repeated `/v1/simulate` bodies over one connection.
    SimulateFresh,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 2] = [Workload::Sweep, Workload::SimulateFresh];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Sweep => "sweep",
            Workload::SimulateFresh => "simulate-fresh",
        }
    }

    /// Parses a command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The trace scales the workload's requests use.
    pub fn scales(self) -> Json {
        match self {
            Workload::Sweep => Json::obj([("sweep_scale", Json::Int(SWEEP_SCALE as i64))]),
            Workload::SimulateFresh => Json::obj([(
                "simulate_scale",
                Json::Int(stream::SIMULATE_SCALE as i64),
            )]),
        }
    }
}

/// The sweep configuration of the `sweep` workload.
pub fn sweep_config(seed: u64) -> ExperimentConfig {
    sweeps::sweep_config(SWEEP_SCALE, seed).expect("the benchmark's sweep scale is valid")
}

/// One operation's outcome.
pub struct Outcome {
    /// Latency in nanoseconds: the request and its complete response,
    /// nothing else.
    pub ns: u64,
    /// What kind of operation it was (a sweep round or a benchmark
    /// name), for the report's breakdown.
    pub kind: &'static str,
    /// Whether its output checked.
    pub check: Result<(), String>,
}

/// A workload after set-up, ready to run operations.
pub trait Loop {
    /// Runs operation `i` of the timed window.
    fn op(&mut self, i: u64) -> Outcome;

    /// Checks deferred past the timed window; returns the failures.
    fn finish(&mut self) -> Vec<String> {
        Vec::new()
    }
}

/// Sets up `workload` for `seed`: everything the first timed operation
/// may rely on.
///
/// # Errors
///
/// A message when set-up fails or its own checks do.
pub fn setup(workload: Workload, seed: u64) -> Result<Box<dyn Loop>, String> {
    Ok(match workload {
        Workload::Sweep => Box::new(SweepLoop::setup(seed)?),
        Workload::SimulateFresh => Box::new(SimulateLoop::setup(seed)?),
    })
}

/// Nanoseconds since `start`.
pub fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Checks that `geometry_grid`'s single-pass engine agrees with its
/// per-cell oracle on `cfg`.
///
/// # Errors
///
/// A message naming the disagreement.
pub fn check_geometry_oracle(cfg: &ExperimentConfig) -> Result<(), String> {
    let fast = sweeps::run_named_engine("geometry_grid", cfg, "single_pass");
    let oracle = sweeps::run_named_engine("geometry_grid", cfg, "per_cell");
    match (fast, oracle) {
        (Some(fast), Some(oracle)) if fast.get("rows") == oracle.get("rows") => Ok(()),
        _ => Err("geometry_grid: single_pass rows differ from the per_cell oracle".to_owned()),
    }
}

/// Runs one named sweep on its default engine and encodes it.
pub fn run_sweep(name: &str, cfg: &ExperimentConfig) -> Option<String> {
    sweeps::run_named(name, cfg).map(|doc| doc.encode())
}

/// `sweep`: the six named sweeps in a fixed order on one thread. One
/// operation is one round of all six, the paper sweep set a user waits
/// for. Traces are recorded in set-up, so every operation is engine
/// work plus encoding.
struct SweepLoop {
    cfg: ExperimentConfig,
    reference: Vec<String>,
}

impl SweepLoop {
    fn setup(seed: u64) -> Result<SweepLoop, String> {
        let cfg = sweep_config(seed);
        jouppi_experiments::common::record_traces(&cfg);
        check_geometry_oracle(&cfg)?;
        // The warm round: its documents are the reference every later
        // round must reproduce byte for byte.
        let reference = NAMED_SWEEPS
            .iter()
            .map(|name| run_sweep(name, &cfg).ok_or_else(|| format!("{name}: unknown sweep")))
            .collect::<Result<_, _>>()?;
        Ok(SweepLoop { cfg, reference })
    }
}

impl Loop for SweepLoop {
    fn op(&mut self, _: u64) -> Outcome {
        let start = Instant::now();
        let texts: Vec<_> = NAMED_SWEEPS
            .iter()
            .map(|name| run_sweep(name, &self.cfg))
            .collect();
        let ns = elapsed_ns(start);
        let check = NAMED_SWEEPS
            .iter()
            .zip(texts.iter().zip(&self.reference))
            .find(|(_, (text, reference))| text.as_ref() != Some(reference))
            .map_or(Ok(()), |(name, _)| {
                Err(format!("{name}: document differs from the warm round"))
            });
        Outcome {
            ns,
            kind: "round",
            check,
        }
    }
}

/// A server in this process and one keep-alive connection to it.
pub struct Connection {
    client: Option<Client>,
    handle: Option<ServerHandle>,
}

impl Connection {
    /// Boots the server with its default configuration, except for a
    /// single sweep worker, and connects.
    ///
    /// With one connection at most one sweep is ever in flight, so a
    /// second worker adds no throughput; it only lets either thread take
    /// a job, which makes the allocator's per-thread arenas, and with
    /// them the peak resident set, differ from run to run.
    ///
    /// # Errors
    ///
    /// The boot or connect failure.
    pub fn open() -> Result<Connection, String> {
        let cfg = ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        };
        let handle = Server::start(cfg).map_err(|e| format!("server start: {e}"))?;
        let client = Client::connect(handle.addr()).map_err(|e| format!("connect: {e}"))?;
        Ok(Connection {
            client: Some(client),
            handle: Some(handle),
        })
    }

    /// Sends one request and returns the response and its latency.
    ///
    /// # Errors
    ///
    /// The I/O failure.
    pub fn send(&mut self, wire: &[u8]) -> Result<(ClientResponse, u64), String> {
        let client = self.client.as_mut().ok_or("connection closed")?;
        let start = Instant::now();
        let resp = client.send_raw(wire).map_err(|e| format!("request: {e}"))?;
        Ok((resp, elapsed_ns(start)))
    }

    /// Scrapes one counter or gauge from `/metrics`.
    ///
    /// # Errors
    ///
    /// The request failure, or a missing metric.
    pub fn metric(&mut self, name: &str) -> Result<u64, String> {
        let wire = b"GET /metrics HTTP/1.1\r\nHost: localhost\r\nContent-Length: 0\r\n\r\n";
        let (resp, _) = self.send(wire)?;
        resp.text()
            .lines()
            .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.trim().parse().ok())
            .ok_or_else(|| format!("/metrics has no {name}"))
    }
}

impl Drop for Connection {
    fn drop(&mut self) {
        // Close the connection first so shutdown need not wait out its
        // idle timer.
        self.client = None;
        if let Some(handle) = self.handle.take() {
            handle.shutdown();
        }
    }
}

/// Checks one simulate response body: the outcome counts must add up.
///
/// # Errors
///
/// A message naming the failed check.
pub fn check_simulate_body(body: &[u8]) -> Result<(), String> {
    let text = std::str::from_utf8(body).map_err(|_| "response is not UTF-8")?;
    let doc = Json::parse(text.trim_end()).map_err(|e| format!("response JSON: {e}"))?;
    let field = |k: &str| {
        doc.get(k)
            .and_then(Json::as_i64)
            .ok_or_else(|| format!("response lacks '{k}'"))
    };
    let parts = field("l1_hits")?
        + field("victim_hits")?
        + field("miss_cache_hits")?
        + field("stream_hits")?
        + field("full_misses")?;
    let accesses = field("accesses")?;
    if accesses == parts {
        Ok(())
    } else {
        Err(format!("accesses {accesses} != outcome sum {parts}"))
    }
}

/// Checks the status and the result-cache miss header of a response.
fn check_miss(resp: &ClientResponse) -> Result<(), String> {
    if resp.status != 200 {
        return Err(format!("status {}: {}", resp.status, resp.text()));
    }
    match resp.header("x-jouppi-cache") {
        Some("miss") => Ok(()),
        note => Err(format!("x-jouppi-cache {note:?}, expected \"miss\"")),
    }
}

/// Whether request `index` of `seed`'s `simulate-fresh` stream is in the
/// sample checked against in-process `sim::simulate`: one in sixteen.
fn sampled(seed: u64, index: u64) -> bool {
    SmallRng::seed_from_u64(seed ^ index.rotate_left(32))
        .next_u64()
        .is_multiple_of(16)
}

/// Requests sent in `simulate-fresh`'s set-up before the timed window.
const SIMULATE_WARMUP: u64 = 4;

/// Stream index of the first warm-up request: past any timed window's
/// reach, so the timed stream still starts at request 0 and never
/// repeats a warm-up key.
const WARMUP_INDEX: u64 = 1 << 40;

/// `simulate-fresh`: every request is new, so every one misses the
/// result cache.
struct SimulateLoop {
    conn: Connection,
    seed: u64,
    deferred: Vec<(Request, Vec<u8>)>,
}

impl SimulateLoop {
    fn setup(seed: u64) -> Result<SimulateLoop, String> {
        let mut lp = SimulateLoop {
            conn: Connection::open()?,
            seed,
            deferred: Vec::new(),
        };
        for i in 0..SIMULATE_WARMUP {
            let index = WARMUP_INDEX + i;
            lp.request(stream::simulate_fresh(seed, index), index)
                .check?;
        }
        Ok(lp)
    }

    fn request(&mut self, req: Request, index: u64) -> Outcome {
        let kind = req
            .body
            .get("workload")
            .and_then(Json::as_str)
            .and_then(jouppi_workloads::Benchmark::from_name)
            .map_or("?", jouppi_workloads::Benchmark::name);
        let (resp, ns) = match self.conn.send(&req.wire()) {
            Ok(sent) => sent,
            Err(e) => {
                return Outcome {
                    ns: 0,
                    kind,
                    check: Err(e),
                }
            }
        };
        let check = check_miss(&resp).and_then(|()| check_simulate_body(&resp.body));
        if check.is_ok() && sampled(self.seed, index) {
            self.deferred.push((req, resp.body));
        }
        Outcome { ns, kind, check }
    }
}

impl Loop for SimulateLoop {
    fn op(&mut self, i: u64) -> Outcome {
        self.request(stream::simulate_fresh(self.seed, i), i)
    }

    fn finish(&mut self) -> Vec<String> {
        self.deferred
            .drain(..)
            .filter_map(|(req, body)| {
                let local = sim::simulate(&req.body).map(|doc| doc.encode() + "\n");
                match local {
                    Ok(text) if text.as_bytes() == body.as_slice() => None,
                    _ => Some(format!(
                        "served document differs from sim::simulate for {}",
                        req.text
                    )),
                }
            })
            .collect()
    }
}

