//! The traced run: per-layer metrics, timed from the benchmark's own
//! code around calls into each layer's public functions.
//!
//! The main process runs the traced pass twice, each in a fresh process
//! (`--child traced`), so process-wide state (the trace memo, the
//! experiment counters) starts empty both times. Each pass replays a
//! fixed list of the workload's operations step by step through the
//! layers, twice per operation — once with spans off and once with spans
//! on, alternating which goes first — and, on `simulate-fresh`, also
//! sends each one to the server and requires identical bytes back.
//! Probes then time the layers the workload's operations do not reach,
//! on the workload's own seed, so every metric is measured on every
//! workload. The main process checks that the two passes' exact counts
//! agree and prints the metrics.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use jouppi_cache::{CacheGeometry, MissClassifier};
use jouppi_core::{AugmentedCache, AugmentedConfig, AugmentedStats, StreamBufferConfig};
use jouppi_experiments::common::{
    self, baseline_l1, record_traces, run_side_gang, ExperimentConfig, Side, TraceSet,
};
use jouppi_experiments::conflict_sweep::{self, Mechanism};
use jouppi_experiments::sweep::{cells_executed, single_pass_refs};
use jouppi_experiments::{fig_3_1, single_pass, stream_sweep};
use jouppi_serve::json::Json;
use jouppi_serve::result_cache::{content_key, Lookup, ResultCache};
use jouppi_serve::sweeps::{self, NAMED_SWEEPS};
use jouppi_serve::{sim, ServerConfig};
use jouppi_trace::{MemRef, RecordedTrace, TraceSource};
use jouppi_workloads::{Benchmark, Scale, WorkloadSource};

use crate::e2e::{self, elapsed_ns, Connection, Workload};
use crate::stream::{self, Request, SWEEP_SCALE};
use crate::{metric, print_result, run_child, stats, Args};

/// `simulate-fresh` operations per traced pass: each (benchmark,
/// organization, classify) combination once.
const SIMULATE_OPS: u64 = 48;

/// `sweep` rounds per traced pass.
const SWEEP_ROUNDS: u64 = 4;

/// Rounds of direct experiment calls in the experiments probe.
const PROBE_ROUNDS: usize = 2;

/// References generated per timed chunk when a trace is recorded.
const CHUNK: usize = 4096;

/// Least share of operation time the layer spans must account for.
const MIN_COVERAGE: f64 = 0.9;

/// One span: a timed call into a layer.
#[derive(Clone, Copy, Debug)]
struct Span {
    name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    start: u64,
    end: u64,
    parent: Option<usize>,
    /// The operation the span belongs to.
    op: u64,
}

/// Operation id of spans recorded outside any operation (set-up and
/// probes).
const NO_OP: u64 = u64::MAX;

/// First operation id of the serving probe, clear of the workload's own.
const PROBE_OP_BASE: u64 = 1 << 32;

/// Span recorder. When off, [`Tracer::span`] only runs its closure, so
/// the same code measures the untraced cost.
struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Tracer {
    fn new(on: bool, epoch: Instant) -> Tracer {
        Tracer {
            on,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
            op: NO_OP,
        }
    }

    fn now(&self) -> u64 {
        elapsed_ns(self.epoch)
    }

    /// Runs `f` inside a span named `name`.
    fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let start = self.now();
        self.push(name, start, start);
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end = self.now();
        out
    }

    /// Records an already-timed span under the innermost open span.
    fn push(&mut self, name: &'static str, start: u64, end: u64) {
        if self.on {
            let parent = self.open.last().copied();
            let op = self.op;
            self.spans.push(Span {
                name,
                start,
                end,
                parent,
                op,
            });
        }
    }

    /// Runs operation `op` inside an `op` span and returns its duration.
    fn op<R>(&mut self, op: u64, f: impl FnOnce(&mut Tracer) -> R) -> (R, u64) {
        let start = Instant::now();
        self.op = op;
        let out = self.span("op", f);
        self.op = NO_OP;
        (out, elapsed_ns(start))
    }

    /// Each span's self time: its duration minus what its children
    /// cover.
    fn self_times(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end - s.start;
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| (s.end - s.start).saturating_sub(c))
            .collect()
    }

    /// Writes every span as one JSON line to `path`.
    fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let line = Json::obj([
                ("id", Json::Int(i as i64)),
                ("name", Json::str(s.name)),
                ("start_ns", Json::Int(s.start as i64)),
                ("end_ns", Json::Int(s.end as i64)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::Int(p as i64)),
                ),
                (
                    "op",
                    if s.op == NO_OP {
                        Json::Null
                    } else {
                        Json::Int(s.op as i64)
                    },
                ),
            ]);
            writeln!(out, "{}", line.encode())?;
        }
        out.flush()
    }
}

/// A benchmark's trace source that generates in chunks and keeps how
/// long each chunk took, so recording's own cost can be told apart from
/// generation's.
struct ChunkedSource {
    inner: WorkloadSource,
    epoch: Instant,
    chunks: RefCell<Vec<(u64, u64)>>,
}

impl TraceSource for ChunkedSource {
    fn refs(&self) -> Box<dyn Iterator<Item = MemRef> + '_> {
        let mut refs = self.inner.refs();
        let mut buf: Vec<MemRef> = Vec::with_capacity(CHUNK);
        let mut pos = 0;
        Box::new(std::iter::from_fn(move || {
            if pos == buf.len() {
                let start = elapsed_ns(self.epoch);
                buf.clear();
                buf.extend(refs.by_ref().take(CHUNK));
                let end = elapsed_ns(self.epoch);
                self.chunks.borrow_mut().push((start, end));
                pos = 0;
            }
            let r = buf.get(pos).copied();
            pos += 1;
            r
        }))
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// Exact counts a pass must repeat.
type Counts = BTreeMap<&'static str, u64>;

fn add(counts: &mut Counts, name: &'static str, n: u64) {
    *counts.entry(name).or_default() += n;
}

/// Records `bench` at `scale`/`seed` step by step: `trace.record` with
/// a `workloads.generate` child per chunk, then, if `partition`,
/// `trace.partition`.
fn record(
    tr: &mut Tracer,
    counts: &mut Counts,
    bench: Benchmark,
    (scale, seed): (u64, u64),
    partition: bool,
) -> RecordedTrace {
    let source = ChunkedSource {
        inner: bench.source(Scale::new(scale), seed),
        epoch: tr.epoch,
        chunks: RefCell::new(Vec::new()),
    };
    let trace = tr.span("trace.record", |tr| {
        let trace = RecordedTrace::record(&source);
        for (start, end) in source.chunks.take() {
            tr.push("workloads.generate", start, end);
        }
        trace
    });
    if partition {
        tr.span("trace.partition", |_| trace.materialize_sides());
    }
    add(counts, "workloads.refs_generated", trace.len() as u64);
    trace
}

/// The fields of one of the benchmark's own simulate bodies.
struct SimRequest {
    bench: Benchmark,
    scale: u64,
    seed: u64,
    cfg: AugmentedConfig,
    geometry: CacheGeometry,
    classify: bool,
}

fn sim_request(body: &Json) -> Result<SimRequest, String> {
    let int = |v: Option<&Json>, what: &str| {
        v.and_then(Json::as_i64)
            .and_then(|n| u64::try_from(n).ok())
            .ok_or_else(|| format!("simulate body lacks '{what}'"))
    };
    let bench = body
        .get("workload")
        .and_then(Json::as_str)
        .and_then(Benchmark::from_name)
        .ok_or("simulate body lacks 'workload'")?;
    let geometry = baseline_l1();
    let mut cfg = AugmentedConfig::new(geometry);
    if let Some(v) = body.get("victim") {
        cfg = cfg.victim_cache(int(Some(v), "victim")? as usize);
    }
    if let Some(m) = body.get("miss_cache") {
        cfg = cfg.miss_cache(int(Some(m), "miss_cache")? as usize);
    }
    if let Some(s) = body.get("stream") {
        let ways = int(s.get("ways"), "stream.ways")? as usize;
        let depth = int(s.get("depth"), "stream.depth")? as usize;
        cfg = cfg.multi_way_stream_buffer(ways, StreamBufferConfig::new(depth));
    }
    Ok(SimRequest {
        bench,
        scale: int(body.get("scale"), "scale")?,
        seed: int(body.get("seed"), "seed")?,
        cfg,
        geometry,
        classify: body
            .get("classify")
            .and_then(Json::as_bool)
            .unwrap_or(false),
    })
}

/// `sim::simulate`, step by step through the layers, for the
/// benchmark's own bodies (data side, baseline geometry). Like
/// `sim::simulate`, it replays the recorded trace without partitioning
/// it.
fn simulate_steps(tr: &mut Tracer, counts: &mut Counts, body: &Json) -> Result<Json, String> {
    let req = sim_request(body)?;
    tr.span("serve.simulate", |tr| {
        let trace = record(tr, counts, req.bench, (req.scale, req.seed), false);
        let (stats, misses) = tr.span("core.replay", |_| {
            let mut cache = AugmentedCache::new(req.cfg);
            let mut misses = Vec::new();
            for r in trace.as_slice().iter().filter(|r| r.kind.is_data()) {
                let outcome = cache.access(r.addr);
                if req.classify {
                    misses.push((r.addr, !outcome.is_l1_hit()));
                }
            }
            (*cache.stats(), misses)
        });
        common::note_refs_simulated(stats.accesses);
        let breakdown = req.classify.then(|| {
            tr.span("cache.classify", |_| {
                let mut classifier = MissClassifier::new(req.geometry);
                for &(addr, miss) in &misses {
                    classifier.observe(req.geometry.line_of(addr), miss);
                }
                classifier.breakdown()
            })
        });
        count_outcomes(counts, &stats);
        Ok(simulate_doc(&req, &stats, breakdown))
    })
}

fn count_outcomes(counts: &mut Counts, s: &AugmentedStats) {
    add(counts, "core.refs_replayed", s.accesses);
    add(counts, "core.l1_hit", s.l1_hits);
    add(counts, "core.victim_hit", s.victim_hits);
    add(counts, "core.miss_cache_hit", s.miss_cache_hits);
    add(counts, "core.stream_hit", s.stream_hits);
    add(counts, "core.full_miss", s.full_misses);
    add(counts, "core.stream_stall_ticks", s.stream_stall_ticks);
}

/// The document `sim::simulate` returns, from the step-by-step results.
fn simulate_doc(
    req: &SimRequest,
    s: &AugmentedStats,
    breakdown: Option<jouppi_cache::MissBreakdown>,
) -> Json {
    let int = |n: u64| Json::Int(n as i64);
    let mut out = vec![
        ("workload".to_owned(), Json::str(req.bench.name())),
        ("scale".to_owned(), int(req.scale)),
        ("seed".to_owned(), int(req.seed)),
        ("geometry".to_owned(), Json::str(req.geometry.to_string())),
        ("side".to_owned(), Json::str("d")),
        ("accesses".to_owned(), int(s.accesses)),
        ("l1_hits".to_owned(), int(s.l1_hits)),
        ("l1_misses".to_owned(), int(s.l1_misses())),
        ("victim_hits".to_owned(), int(s.victim_hits)),
        ("miss_cache_hits".to_owned(), int(s.miss_cache_hits)),
        ("stream_hits".to_owned(), int(s.stream_hits)),
        ("full_misses".to_owned(), int(s.full_misses)),
        ("l1_miss_rate".to_owned(), Json::Float(s.l1_miss_rate())),
        (
            "demand_miss_rate".to_owned(),
            Json::Float(s.demand_miss_rate()),
        ),
        (
            "removed_pct".to_owned(),
            Json::Float(100.0 * s.removed_fraction()),
        ),
    ];
    if let Some(b) = breakdown {
        out.push((
            "classification".to_owned(),
            Json::obj([
                ("compulsory", int(b.compulsory)),
                ("capacity", int(b.capacity)),
                ("conflict", int(b.conflict)),
            ]),
        ));
    }
    Json::Obj(out)
}

/// One simulate request handled in-process the way the server handles
/// it: parse, key, result-cache lookup, compute on a miss, encode.
/// Traced, a miss runs step by step through the layers; untraced, it
/// runs `sim::simulate` itself. Returns the response body and whether the
/// lookup hit.
fn handle(
    tr: &mut Tracer,
    counts: &mut Counts,
    mirror: &Arc<ResultCache>,
    req: &Request,
) -> Result<(String, bool), String> {
    let body = tr.span("serve.json_parse", |_| Json::parse(&req.text));
    let body = body.map_err(|e| format!("parse: {e}"))?;
    let key = tr.span("serve.content_key", |_| content_key("simulate", &body));
    let lookup = tr.span("serve.result_cache", |_| mirror.begin(key, false));
    let (doc, hit) = match lookup {
        Lookup::Hit(doc) => (doc, true),
        Lookup::Miss(leader) => {
            let doc = if tr.on {
                simulate_steps(tr, counts, &body)?
            } else {
                sim::simulate(&body)?
            };
            let doc = Arc::new(doc);
            tr.span("serve.result_cache", |_| leader.complete(&doc));
            (doc, false)
        }
        _ => return Err("result cache neither hit nor missed".to_owned()),
    };
    let text = tr.span("serve.encode", |_| doc.encode() + "\n");
    Ok((text, hit))
}

/// Which earlier `record_traces` results a pass has seen, to tell memo
/// hits (the same shared set again) from misses (a fresh recording).
#[derive(Default)]
struct MemoWatch {
    seen: Vec<(ExperimentConfig, TraceSet)>,
}

impl MemoWatch {
    /// Calls `record_traces` and counts a hit when it returns the set
    /// it returned last time for `cfg`.
    fn observe(&mut self, counts: &mut Counts, cfg: &ExperimentConfig) -> TraceSet {
        let set = record_traces(cfg);
        let earlier = self.seen.iter_mut().find(|(c, _)| c == cfg);
        let hit = earlier.as_ref().is_some_and(|(_, s)| Arc::ptr_eq(s, &set));
        let name = if hit {
            "experiments.record_traces.hits"
        } else {
            "experiments.record_traces.misses"
        };
        add(counts, name, 1);
        match earlier {
            Some((_, s)) => *s = set.clone(),
            None => self.seen.push((*cfg, set.clone())),
        }
        set
    }
}

/// `Ok` when `ok`, else `what` as the failure.
fn ensure(ok: bool, what: &str) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(what.to_owned())
    }
}

/// `a / b`, or 0 when `b` is 0.
fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// The two in-process result caches: one for untraced, one for traced
/// handling, each mirroring the server's.
type Mirrors = (Arc<ResultCache>, Arc<ResultCache>);

fn mirrors() -> Mirrors {
    let cfg = ServerConfig::default().cache;
    (ResultCache::new(cfg), ResultCache::new(cfg))
}

/// Everything one traced pass measures.
struct Pass {
    tr: Tracer,
    counts: Counts,
    failures: Vec<String>,
    /// Per operation: traced duration, untraced duration.
    op_ns: Vec<(u64, u64)>,
    /// Per served operation: latency over HTTP minus in-process handler
    /// time.
    http_ns: Vec<i64>,
    memo: MemoWatch,
}

impl Pass {
    fn new() -> Pass {
        Pass {
            tr: Tracer::new(true, Instant::now()),
            // Every reported count is present, zero until counted.
            counts: COUNT_METRICS.iter().map(|&name| (name, 0)).collect(),
            failures: Vec::new(),
            op_ns: Vec::new(),
            http_ns: Vec::new(),
            memo: MemoWatch::default(),
        }
    }

    fn check(&mut self, what: &str, ok: Result<(), String>) {
        if let Err(e) = ok {
            self.failures.push(format!("{what}: {e}"));
        }
    }

    /// Runs operation `op` twice, untraced and traced, alternating which
    /// goes first. Only the traced run's counts are kept. Returns both
    /// results and the untraced duration.
    fn both<R>(
        &mut self,
        op: u64,
        mut f: impl FnMut(&mut Tracer, &mut Counts) -> R,
    ) -> (R, R, u64) {
        let epoch = self.tr.epoch;
        let untraced = |f: &mut dyn FnMut(&mut Tracer, &mut Counts) -> R| {
            let start = Instant::now();
            let out = f(&mut Tracer::new(false, epoch), &mut Counts::new());
            (out, elapsed_ns(start))
        };
        let ((u, u_ns), (t, t_ns)) = if op.is_multiple_of(2) {
            let u = untraced(&mut f);
            (u, self.tr.op(op, |tr| f(tr, &mut self.counts)))
        } else {
            let t = self.tr.op(op, |tr| f(tr, &mut self.counts));
            (untraced(&mut f), t)
        };
        if op < PROBE_OP_BASE {
            self.op_ns.push((t_ns, u_ns));
            add(&mut self.counts, "bench.traced_ops", 1);
        }
        (u, t, u_ns)
    }

    /// Sends `req` to the server, then handles it in-process; the bytes
    /// and the cache verdict must agree.
    fn served(
        &mut self,
        op: u64,
        conn: &mut Connection,
        mirrors: &Mirrors,
        req: &Request,
    ) -> Result<(), String> {
        let (resp, latency) = conn.send(&req.wire())?;
        ensure(resp.status == 200, "status is not 200")?;
        let verdict = resp.header("x-jouppi-cache");
        e2e::check_simulate_body(&resp.body)?;
        let (untraced, traced, handler_ns) = self.both(op, |tr, counts| {
            let mirror = if tr.on { &mirrors.1 } else { &mirrors.0 };
            handle(tr, counts, mirror, req)
        });
        let (text, hit) = traced?;
        ensure(
            untraced? == (text.clone(), hit),
            "step-by-step handling differs from the program's own path",
        )?;
        ensure(
            text.as_bytes() == resp.body.as_slice(),
            "in-process handling differs from the server's response",
        )?;
        let ours = if hit { "hit" } else { "miss" };
        ensure(
            verdict == Some(ours),
            "the mirror's hit/miss differs from the server's",
        )?;
        self.http_ns.push(latency as i64 - handler_ns as i64);
        Ok(())
    }

    /// Scrapes the server's result-cache counters and checks the
    /// mirrors agree with them.
    fn scrape(&mut self, conn: &mut Connection, mirrors: &Mirrors) -> Result<(), String> {
        for (ours, theirs) in [
            ("serve.result_cache.hits", "hits_total"),
            ("serve.result_cache.misses", "misses_total"),
            ("serve.result_cache.coalesced", "coalesced_total"),
            ("serve.result_cache.evictions", "evictions_total"),
            ("serve.result_cache.bytes_resident", "bytes_resident"),
        ] {
            let v = conn.metric(&format!("jouppi_result_cache_{theirs}"))?;
            add(&mut self.counts, ours, v);
        }
        let served = (
            self.counts["serve.result_cache.hits"],
            self.counts["serve.result_cache.misses"],
        );
        for mirror in [&mirrors.0, &mirrors.1] {
            let c = mirror.counters();
            ensure(
                (c.hits, c.misses) == served,
                "a mirror's hit/miss counts differ from the server's",
            )?;
        }
        Ok(())
    }

    /// Direct calls into the experiments layer: each named sweep's
    /// experiment, `PROBE_ROUNDS` times, on `cfg`; with `with_serve`,
    /// each also through `sweeps::run_named`.
    fn probe_experiments(&mut self, cfg: &ExperimentConfig, with_serve: bool) {
        let traces = self.memo.observe(&mut self.counts, cfg);
        let trace_refs: u64 = traces.iter().map(|(_, t)| t.len() as u64).sum();
        let cells_per_traversal = single_pass::cells_per_side() / 2;
        for _ in 0..PROBE_ROUNDS {
            for name in NAMED_SWEEPS {
                let before = (
                    common::refs_simulated(),
                    single_pass_refs(),
                    cells_executed(),
                );
                run_experiment(&mut self.tr, name, cfg);
                let one_pass = single_pass_refs() - before.1;
                let cell_refs =
                    common::refs_simulated() - before.0 + cells_per_traversal * one_pass;
                add(
                    &mut self.counts,
                    "experiments.cells",
                    cells_executed() - before.2,
                );
                add(&mut self.counts, "experiments.trace_refs", trace_refs);
                add(&mut self.counts, "experiments.cell_refs", cell_refs);
                if name == "geometry_grid" {
                    add(&mut self.counts, "cache.single_pass_refs", one_pass);
                }
                if with_serve {
                    self.tr
                        .span("serve.sweep", |_| sweeps::run_named(name, cfg));
                }
            }
        }
    }

    /// Records every benchmark at `scale` step by step, partition
    /// included: the trace layer as `record_traces` uses it.
    fn probe_trace(&mut self, scale: u64, seed: u64) {
        for bench in Benchmark::ALL {
            record(&mut self.tr, &mut self.counts, bench, (scale, seed), true);
        }
    }

    /// `run_side_gang` over every trace side, on the victim_cache_4 and
    /// stream_single_8 configurations.
    fn probe_gang(&mut self, cfg: &ExperimentConfig) {
        let traces = record_traces(cfg);
        let victim: Vec<_> = (1..=4)
            .map(|n| AugmentedConfig::new(baseline_l1()).victim_cache(n))
            .collect();
        let stream: Vec<_> = (0..common::GANG_WIDTH)
            .map(|run| {
                AugmentedConfig::new(baseline_l1())
                    .stream_buffer(StreamBufferConfig::new(4).max_run(run))
            })
            .collect();
        for (_, trace) in traces.iter() {
            for side in Side::BOTH {
                for gang in [&victim, &stream] {
                    self.tr
                        .span("core.gang", |_| run_side_gang(trace, side, gang));
                    add(
                        &mut self.counts,
                        "core.gang_refs",
                        side.view(trace).len() as u64,
                    );
                }
            }
        }
    }

    /// The serving layers on a short fixed list of simulate bodies at
    /// `scale`, sent twice (misses, then hits), for workloads whose
    /// operations never reach the server.
    fn probe_serving(&mut self, seed: u64, scale: u64) -> Result<(), String> {
        let mut conn = Connection::open()?;
        let mirrors = mirrors();
        let reqs: Vec<Request> = (0..12u64)
            .map(|i| {
                let bench = Benchmark::ALL[i as usize % Benchmark::ALL.len()];
                let org = i as usize % 4;
                let body =
                    stream::simulate_body(bench, org, i % 2 == 0, seed.wrapping_add(i), scale);
                Request::simulate(body)
            })
            .collect();
        for (i, req) in reqs.iter().chain(&reqs).enumerate() {
            self.served(PROBE_OP_BASE + i as u64, &mut conn, &mirrors, req)?;
        }
        self.scrape(&mut conn, &mirrors)
    }
}

/// The experiment behind each named sweep's default engine, in a span
/// named after the sweep.
fn run_experiment(tr: &mut Tracer, name: &str, cfg: &ExperimentConfig) {
    use std::hint::black_box;
    match name {
        "fig_3_1" => tr.span("experiments.fig_3_1", |_| {
            drop(black_box(fig_3_1::run(cfg)))
        }),
        "miss_cache_4" => tr.span("experiments.miss_cache_4", |_| {
            drop(black_box(conflict_sweep::run(cfg, Mechanism::MissCache, 4)))
        }),
        "victim_cache_4" => tr.span("experiments.victim_cache_4", |_| {
            drop(black_box(conflict_sweep::run(
                cfg,
                Mechanism::VictimCache,
                4,
            )))
        }),
        "stream_single_8" => tr.span("experiments.stream_single_8", |_| {
            drop(black_box(stream_sweep::run(cfg, 1, 8)))
        }),
        "stream_four_8" => tr.span("experiments.stream_four_8", |_| {
            drop(black_box(stream_sweep::run(cfg, 4, 8)))
        }),
        _ => tr.span("experiments.geometry_grid", |_| {
            drop(black_box(single_pass::run(cfg)))
        }),
    }
}

/// Span names of the six experiments.
const EXPERIMENT_SPANS: [&str; 6] = [
    "experiments.fig_3_1",
    "experiments.miss_cache_4",
    "experiments.victim_cache_4",
    "experiments.stream_single_8",
    "experiments.stream_four_8",
    "experiments.geometry_grid",
];

/// One `sweep` operation: the six named sweeps, each encoded.
fn sweep_round(tr: &mut Tracer, cfg: &ExperimentConfig) -> Vec<String> {
    NAMED_SWEEPS
        .iter()
        .map(|name| {
            let doc = tr.span("serve.sweep", |_| sweeps::run_named(name, cfg));
            tr.span("serve.encode", |_| {
                doc.map(|d| d.encode()).unwrap_or_default()
            })
        })
        .collect()
}

/// One traced pass of `workload`.
fn pass(workload: Workload, seed: u64) -> Result<Pass, String> {
    let mut p = Pass::new();
    let base_cfg = e2e::sweep_config(seed);
    match workload {
        Workload::Sweep => {
            // Set-up, step by step: record each benchmark; the memoized
            // recording must hold the same traces.
            let mine: Vec<RecordedTrace> = Benchmark::ALL
                .iter()
                .map(|&b| record(&mut p.tr, &mut p.counts, b, (SWEEP_SCALE, seed), true))
                .collect();
            let memo = p.memo.observe(&mut p.counts, &base_cfg);
            let same = memo.iter().map(|(_, t)| t).eq(mine.iter());
            p.check(
                "set-up",
                ensure(same, "step-by-step traces differ from record_traces"),
            );
            drop(mine);
            e2e::check_geometry_oracle(&base_cfg)?;
            let reference: Vec<String> = NAMED_SWEEPS
                .iter()
                .map(|name| e2e::run_sweep(name, &base_cfg).unwrap_or_default())
                .collect();
            for round in 0..SWEEP_ROUNDS {
                p.memo.observe(&mut p.counts, &base_cfg);
                let (untraced, traced, _) = p.both(round, |tr, _| sweep_round(tr, &base_cfg));
                let ok = untraced == reference && traced == reference;
                p.check(
                    "sweep round",
                    ensure(ok, "a document differs from the warm round"),
                );
            }
            p.probe_experiments(&base_cfg, false);
            p.probe_gang(&base_cfg);
            p.probe_serving(seed, SWEEP_SCALE)?;
        }
        Workload::SimulateFresh => {
            let mut conn = Connection::open()?;
            let mirrors = mirrors();
            for i in 0..SIMULATE_OPS {
                let req = stream::simulate_fresh(seed, i);
                let res = p.served(i, &mut conn, &mirrors, &req);
                p.check(&format!("request {i}"), res);
            }
            p.scrape(&mut conn, &mirrors)?;
            drop(conn);
            p.probe_trace(stream::SIMULATE_SCALE, seed);
            p.probe_experiments(&base_cfg, true);
            p.probe_gang(&base_cfg);
        }
    }
    Ok(p)
}

/// Where span files go: the build directory, which version control
/// ignores.
fn span_path(workload: Workload, seed: u64) -> std::path::PathBuf {
    let dir = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| "perfbench/target".into(), std::path::PathBuf::from);
    dir.join("perfbench-spans").join(format!(
        "{}-seed{}-pid{}.jsonl",
        workload.name(),
        seed,
        std::process::id()
    ))
}

/// Sums per operation of each span name's time (inclusive, or self time
/// for `trace.record`), then the median over operations that have it.
fn layer_medians(tr: &Tracer) -> BTreeMap<&'static str, f64> {
    let self_ns = tr.self_times();
    let mut per_op: BTreeMap<(&'static str, u64), u64> = BTreeMap::new();
    for (i, s) in tr.spans.iter().enumerate() {
        let ns = if s.name == "trace.record" {
            self_ns[i]
        } else {
            s.end - s.start
        };
        // Outside operations (set-up, probes), each outermost span is a
        // call of its own.
        let key = if s.op == NO_OP {
            let mut root = i;
            while let Some(p) = tr.spans[root].parent {
                root = p;
            }
            root as u64 | 1 << 63
        } else {
            s.op
        };
        *per_op.entry((s.name, key)).or_default() += ns;
    }
    let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for ((name, _), ns) in per_op {
        by_name.entry(name).or_default().push(ns as f64 / 1e6);
    }
    by_name
        .into_iter()
        .filter_map(|(name, ms)| Some((name, stats::median(&ms)?)))
        .collect()
}

/// Total time of the spans named `name`, in seconds.
fn total_s(tr: &Tracer, name: &str) -> f64 {
    tr.spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.end - s.start) as f64 / 1e9)
        .sum()
}

/// Share of operation time covered by layer spans.
fn coverage(tr: &Tracer) -> f64 {
    let (mut op_ns, mut op_self) = (0u64, 0u64);
    for (s, own) in tr.spans.iter().zip(tr.self_times()) {
        if s.name == "op" {
            op_ns += s.end - s.start;
            op_self += own;
        }
    }
    1.0 - ratio(op_self as f64, op_ns as f64)
}

/// Spans whose per-operation time is reported as `<name>.ms`.
const TIMED_SPANS: [&str; 10] = [
    "workloads.generate",
    "trace.record",
    "trace.partition",
    "core.replay",
    "cache.classify",
    "serve.json_parse",
    "serve.content_key",
    "serve.simulate",
    "serve.sweep",
    "serve.encode",
];

/// Runs one pass and prints its counts and metrics as one JSON line
/// (the child side).
fn child(args: &Args) -> Result<(), String> {
    let p = pass(args.workload, args.seed)?;
    if let Err(e) = p.tr.write(&span_path(args.workload, args.seed)) {
        eprintln!("perfbench: spans not written: {e}");
    }
    let mut m: BTreeMap<String, f64> = BTreeMap::new();
    let medians = layer_medians(&p.tr);
    for name in TIMED_SPANS.iter().chain(&EXPERIMENT_SPANS) {
        let v = medians
            .get(name)
            .ok_or_else(|| format!("no {name} span was recorded"))?;
        m.insert(format!("{name}.ms"), *v);
    }
    let c = |k: &str| p.counts.get(k).copied().unwrap_or(0) as f64;
    let span_s = |name: &str| total_s(&p.tr, name);
    let experiments_s: f64 = EXPERIMENT_SPANS.iter().map(|n| span_s(n)).sum();
    for (name, v) in [
        (
            "workloads.generate.refs_per_s",
            ratio(c("workloads.refs_generated"), span_s("workloads.generate")),
        ),
        (
            "core.replay.refs_per_s",
            ratio(c("core.refs_replayed"), span_s("core.replay")),
        ),
        (
            "core.gang.refs_per_s",
            ratio(c("core.gang_refs"), span_s("core.gang")),
        ),
        (
            "cache.single_pass.refs_per_s",
            ratio(
                c("cache.single_pass_refs"),
                span_s("experiments.geometry_grid"),
            ),
        ),
        (
            "experiments.trace_refs_per_s",
            ratio(c("experiments.trace_refs"), experiments_s),
        ),
        (
            "experiments.cell_refs_per_s",
            ratio(c("experiments.cell_refs"), experiments_s),
        ),
        (
            "core.removed_ratio",
            ratio(
                c("core.victim_hit") + c("core.miss_cache_hit") + c("core.stream_hit"),
                c("core.refs_replayed") - c("core.l1_hit"),
            ),
        ),
        (
            "serve.result_cache.hit_ratio",
            ratio(
                c("serve.result_cache.hits"),
                c("serve.result_cache.hits")
                    + c("serve.result_cache.misses")
                    + c("serve.result_cache.coalesced"),
            ),
        ),
    ] {
        m.insert(name.to_owned(), v);
    }
    let http_ms: Vec<f64> = p.http_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
    let http = stats::median(&http_ms).ok_or("no request went over HTTP")?;
    m.insert("serve.http.ms".to_owned(), http);
    let traced_s: f64 = p.op_ns.iter().map(|&(t, _)| t as f64 / 1e9).sum();
    let untraced_s: f64 = p.op_ns.iter().map(|&(_, u)| u as f64 / 1e9).sum();
    let ops = p.op_ns.len() as f64;
    m.insert("bench.traced_ops_per_s".to_owned(), ratio(ops, traced_s));
    m.insert(
        "bench.untraced_ops_per_s".to_owned(),
        ratio(ops, untraced_s),
    );
    m.insert(
        "bench.traced_over_untraced".to_owned(),
        ratio(untraced_s, traced_s),
    );
    let cover = coverage(&p.tr);
    m.insert("bench.span_coverage".to_owned(), cover);
    let mut failures = p.failures;
    if cover < MIN_COVERAGE {
        failures.push(format!(
            "layer spans cover {cover:.3} of operation time, below {MIN_COVERAGE}"
        ));
    }
    let out = Json::obj([
        (
            "counts",
            Json::Obj(
                p.counts
                    .iter()
                    .map(|(k, v)| ((*k).to_owned(), Json::Int(*v as i64)))
                    .collect(),
            ),
        ),
        (
            "metrics",
            Json::Obj(m.into_iter().map(|(k, v)| (k, Json::Float(v))).collect()),
        ),
        (
            "failures",
            Json::Arr(failures.iter().map(Json::str).collect()),
        ),
    ]);
    println!("{}", out.encode());
    Ok(())
}

/// Exact counts reported as per-layer metrics (unit `count`).
const COUNT_METRICS: [&str; 13] = [
    "core.l1_hit",
    "core.victim_hit",
    "core.miss_cache_hit",
    "core.stream_hit",
    "core.full_miss",
    "core.stream_stall_ticks",
    "experiments.cells",
    "experiments.record_traces.hits",
    "experiments.record_traces.misses",
    "serve.result_cache.hits",
    "serve.result_cache.misses",
    "serve.result_cache.coalesced",
    "serve.result_cache.evictions",
];

/// The unit of a measured (non-count) per-layer metric.
fn unit(name: &str) -> &'static str {
    if name.ends_with(".ms") {
        "ms"
    } else if name.ends_with("_per_s") {
        "1/s"
    } else {
        "ratio"
    }
}

/// The traced run: two passes in fresh processes, compared, then the
/// per-layer metrics.
pub fn run(args: &Args) -> Result<(), String> {
    if args.child.as_deref() == Some("traced") {
        return child(args);
    }
    let passes = [
        run_child(&crate::child_args(args, "traced"))?,
        run_child(&crate::child_args(args, "traced"))?,
    ];
    let mut failures: Vec<String> = passes
        .iter()
        .filter_map(|p| p.get("failures").and_then(Json::as_arr))
        .flatten()
        .filter_map(|f| f.as_str().map(str::to_owned))
        .collect();
    let counts = passes[0]
        .get("counts")
        .ok_or("traced pass printed no counts")?;
    if passes[1].get("counts") != Some(counts) {
        failures.push("exact counts differ between the two traced passes".to_owned());
    }
    let count = |k: &str| {
        counts
            .get(k)
            .and_then(Json::as_i64)
            .ok_or_else(|| format!("traced pass has no count {k}"))
    };
    let mut metrics: Vec<(String, Json)> = Vec::new();
    for name in COUNT_METRICS {
        metrics.push((name.to_owned(), metric(count(name)? as f64, "count")));
    }
    let bytes = count("serve.result_cache.bytes_resident")?;
    metrics.push((
        "serve.result_cache.bytes_resident".to_owned(),
        metric(bytes as f64, "bytes"),
    ));
    // Measured metrics: the mean of the two passes.
    let Some(Json::Obj(fields)) = passes[0].get("metrics") else {
        return Err("traced pass printed no metrics".to_owned());
    };
    for (name, _) in fields {
        let vals: Vec<f64> = passes
            .iter()
            .filter_map(|p| p.get("metrics")?.get(name)?.as_f64())
            .collect();
        let mean = vals.iter().sum::<f64>() / vals.len() as f64;
        metrics.push((name.clone(), metric(mean, unit(name))));
    }
    let report = Json::obj([
        ("workload", Json::str(args.workload.name())),
        ("seed", Json::Int(args.seed as i64)),
        ("scales", args.workload.scales()),
        ("host", crate::host::describe(args.nproc, args.cpu)),
        ("passes", Json::Arr(passes.to_vec())),
    ]);
    let attempted = 2 * count("bench.traced_ops")? as u64;
    let failed = (failures.len() as u64).min(attempted);
    print_result(report, failed == 0, attempted, failed, Json::Obj(metrics));
    Ok(())
}
