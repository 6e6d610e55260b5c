//! The traced run: the workload's seeded stream replayed single-
//! threaded, in process, with a span around each call the harness
//! makes into a layer. Spans are kept in memory and written out when
//! the run ends; the report gives each layer's self time.
//!
//! Wire workloads first send the stream over loopback (one reader, for
//! a third of the run) to record client latency, then replay the same
//! requests against two freshly opened catalogs: once without spans
//! (the tracing-off baseline) and once with them. Each read's span tree
//! is
//!
//! ```text
//! request
//!   net.decode            Request encode + decode (client → server)
//!   net.handle            catalog lookup, strategy and XPath parsing
//!   service.execute_with  TwigService::execute_with
//!   net.encode            Response encode + decode (server → client)
//! ```
//!
//! and every read that missed the result cache gets a second tree
//! replaying its engine work through the public engine calls:
//!
//! ```text
//! engine
//!   core.compile          QueryEngine::compile
//!   core.execute          QueryEngine::answer_compiled_traced
//!     opt.resolve, core.run, core.step.{probe,join,inlj}, core.step.materialize
//! opt.rank                QueryEngine::rank_strategies (a root of its own)
//! ```
//!
//! `engine-paper` has no wire or service layer; its reads get only the
//! engine tree, under a `request` root.

use std::collections::{BTreeMap, HashMap};
use std::io::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use xtwig_core::{QueryEngine, Strategy, Trace};
use xtwig_net::{Frame, Request, Response, TraceContext};
use xtwig_service::{Catalog, RequestCtx, TwigService, UpdateOp};
use xtwig_xml::{TwigPattern, XmlForest};

use crate::check::{digest, Oracle, ReadSample};
use crate::report::Report;
use crate::stats::{mean, median, ratio};
use crate::stream::{paper_xpaths, PaperStream, Read};
use crate::wire::{self, PersonIds, Served, INDEX};
use crate::{paper, setup, Args, Workload};

/// Span records written to the span file at most (the rest are still
/// aggregated).
const MAX_WRITTEN_SPANS: usize = 50_000;
/// Distinct reads priced under every strategy for `opt.pick_regret`.
const REGRET_READS: usize = 200;

/// One finished span.
#[derive(Debug, Clone)]
pub struct SpanRec {
    pub name: &'static str,
    pub request: u64,
    pub parent: Option<usize>,
    /// Offset from the recorder's epoch. Spans grafted from an engine
    /// `Trace` carry only a wall time; they start with their parent.
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// In-memory span recorder.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<SpanRec>,
    open: Vec<(usize, Instant)>,
}

impl Default for Recorder {
    fn default() -> Recorder {
        Recorder { epoch: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }
}

impl Recorder {
    pub fn begin(&mut self, name: &'static str, request: u64) {
        let now = Instant::now();
        self.open.push((self.spans.len(), now));
        self.spans.push(SpanRec {
            name,
            request,
            parent: self.open.iter().rev().nth(1).map(|&(i, _)| i),
            start_ns: now.duration_since(self.epoch).as_nanos() as u64,
            dur_ns: 0,
        });
    }

    /// Closes the innermost open span and returns its duration.
    pub fn end(&mut self) -> Duration {
        let (idx, started) = self.open.pop().expect("end matches begin");
        let d = started.elapsed();
        self.spans[idx].dur_ns = d.as_nanos() as u64;
        d
    }

    /// Attaches an engine [`Trace`] under the innermost open span,
    /// renaming its stages into this report's layer names.
    pub fn graft(&mut self, trace: &Trace, request: u64) {
        let root = self.open.last().map(|&(i, _)| i);
        let start_ns = root.map_or(0, |i| self.spans[i].start_ns);
        let mut at_depth: Vec<usize> = Vec::new();
        for s in trace.spans() {
            at_depth.truncate(s.depth);
            let parent = at_depth.last().copied().or(root);
            let name = match s.name {
                "resolve" => "opt.resolve",
                "execute" => "core.run",
                "materialize" => "core.step.materialize",
                "step" if s.detail.contains("inlj") => "core.step.inlj",
                "step" if s.detail.contains("join") => "core.step.join",
                "step" if s.detail.contains("probe") => "core.step.probe",
                "step" => "core.step.skipped",
                _ => "core.other",
            };
            at_depth.push(self.spans.len());
            self.spans.push(SpanRec {
                name,
                request,
                parent,
                start_ns,
                dur_ns: s.wall.as_nanos() as u64,
            });
        }
    }

    /// Self time per span: its duration minus its children's.
    pub fn self_times(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.dur_ns;
            }
        }
        self.spans.iter().zip(child).map(|(s, c)| s.dur_ns.saturating_sub(c)).collect()
    }

    /// Total self time per span name, in microseconds.
    pub fn self_by_name(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(self.self_times()) {
            *out.entry(s.name).or_insert(0.0) += t as f64 / 1e3;
        }
        out
    }

    /// Durations (µs) of every span with this name.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.dur_ns as f64 / 1e3).collect()
    }

    /// Writes the spans as JSON lines (name, request, parent, start,
    /// end, self time).
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let selfs = self.self_times();
        for (i, (s, t)) in self.spans.iter().zip(selfs).enumerate().take(MAX_WRITTEN_SPANS) {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": {:?}, \"request\": {}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {t}}}",
                s.name,
                s.request,
                s.start_ns,
                s.start_ns + s.dur_ns,
            )?;
        }
        out.flush()
    }
}

/// Where a replay's spans go: a [`Recorder`] when traced, nowhere
/// (and at no cost) when not.
pub trait Spans {
    fn begin(&mut self, name: &'static str, request: u64);
    /// Closes the innermost open span and returns its duration.
    fn end(&mut self) -> Duration;
    /// Replays a read's engine work (traced runs only).
    fn engine(&mut self, _engine: &QueryEngine, _twig: &TwigPattern, _read: Read, _id: u64) {}
}

/// Tracing off.
pub struct Off;

impl Spans for Off {
    fn begin(&mut self, _name: &'static str, _request: u64) {}
    fn end(&mut self) -> Duration {
        Duration::ZERO
    }
}

/// Tracing on: spans plus the engine readings of the shadow trees.
#[derive(Default)]
pub struct Traced {
    pub rec: Recorder,
    totals: EngineTotals,
}

impl Spans for Traced {
    fn begin(&mut self, name: &'static str, request: u64) {
        self.rec.begin(name, request);
    }
    fn end(&mut self) -> Duration {
        self.rec.end()
    }
    fn engine(&mut self, engine: &QueryEngine, twig: &TwigPattern, read: Read, id: u64) {
        engine_tree(engine, twig, read, id, self, "engine");
    }
}

/// Engine-layer readings from one replay's shadow executions.
#[derive(Default)]
struct EngineTotals {
    executed: u64,
    probes: u64,
    rows_fetched: u64,
    results: u64,
    /// Occurrences of each executed read and the strategy auto chose.
    picks: Vec<(Read, Strategy)>,
}

/// Runs one read's engine work through the public engine calls under
/// a `root` span: compile, then `answer_compiled_traced` (which
/// resolves auto itself). `rank_strategies` is timed as a root of its
/// own, so the tree's time stays the engine's traced path alone.
fn engine_tree(
    engine: &QueryEngine,
    twig: &TwigPattern,
    read: Read,
    id: u64,
    t: &mut Traced,
    root: &'static str,
) {
    t.rec.begin(root, id);
    t.rec.begin("core.compile", id);
    let compiled = engine.compile(twig);
    t.rec.end();
    let Ok((compiled, plan)) = compiled else {
        t.rec.end();
        return;
    };
    t.rec.begin("core.execute", id);
    let mut trace = Trace::new();
    let answer = engine.answer_compiled_traced(&compiled, &plan, Strategy::Auto, None, &mut trace);
    t.rec.graft(&trace, id);
    t.rec.end();
    t.rec.end();
    t.rec.begin("opt.rank", id);
    std::hint::black_box(engine.rank_strategies(&compiled, &plan));
    t.rec.end();
    let totals = &mut t.totals;
    totals.executed += 1;
    totals.probes += answer.metrics.probes;
    totals.rows_fetched += answer.metrics.rows_fetched;
    totals.results += answer.ids.len() as u64;
    totals.picks.push((read, answer.strategy));
}

/// `opt.pick_regret`: for up to [`REGRET_READS`] distinct reads, the
/// logical reads of the strategy auto chose over the fewest any built
/// strategy needs, weighted by how often each read ran.
fn pick_regret(engine: &QueryEngine, picks: &[(Read, Strategy)]) -> (f64, usize) {
    let paper = paper_xpaths();
    let mut weight: HashMap<(Read, Strategy), u64> = HashMap::new();
    let mut order = Vec::new();
    for &p in picks {
        let w = weight.entry(p).or_insert(0);
        if *w == 0 {
            order.push(p);
        }
        *w += 1;
    }
    let (mut sum, mut n) = (0.0, 0.0);
    for &(read, chosen) in order.iter().take(REGRET_READS) {
        let Ok(twig) = xtwig_core::parse_xpath(&read.xpath(&paper)) else { continue };
        let reads = |s| engine.answer(&twig, s).metrics.logical_reads;
        let best = Strategy::ALL.iter().map(|&s| reads(s)).min().unwrap_or(0);
        let mine = reads(chosen);
        let r = if best == 0 {
            if mine == 0 {
                1.0
            } else {
                continue;
            }
        } else {
            mine as f64 / best as f64
        };
        let w = weight[&(read, chosen)] as f64;
        sum += r * w;
        n += w;
    }
    (ratio(sum, n), order.len().min(REGRET_READS))
}

fn add_engine_metrics(r: &mut Report, rec: &Recorder, t: &EngineTotals) {
    let n = t.executed as usize;
    let per = |name: &str| mean(&rec.durations(name));
    r.add("core.compile_us", per("core.compile"), "us", rec.durations("core.compile").len());
    r.add("opt.rank_us", per("opt.rank"), "us", n);
    r.add("core.execute_us", per("core.execute"), "us", n);
    let selfs = rec.self_by_name();
    for (metric, span) in [
        ("core.step.probe_us", "core.step.probe"),
        ("core.step.join_us", "core.step.join"),
        ("core.step.inlj_us", "core.step.inlj"),
        ("core.step.materialize_us", "core.step.materialize"),
    ] {
        r.add(metric, ratio(selfs.get(span).copied().unwrap_or(0.0), n as f64), "us", n);
    }
    r.add("core.rows_per_result", ratio(t.rows_fetched as f64, t.results as f64), "ratio", n);
    r.add("btree.probes_per_query", ratio(t.probes as f64, n as f64), "count", n);
}

/// Self time per layer (crate), summed over every span, as notes.
fn add_layer_split(r: &mut Report, rec: &Recorder, requests: usize) {
    let mut layers: BTreeMap<&str, f64> = BTreeMap::new();
    for (name, us) in rec.self_by_name() {
        let layer = name.split('.').next().unwrap_or(name);
        *layers.entry(layer).or_insert(0.0) += us;
    }
    let total: f64 = layers.values().sum();
    for (layer, us) in layers {
        r.note(format!(
            "self time {layer:<8} {:>10.2} us/request  {:>5.1}%",
            us / requests.max(1) as f64,
            100.0 * ratio(us, total)
        ));
    }
}

fn span_path(args: &Args) -> std::path::PathBuf {
    Path::new(".bench_out").join("spans").join(format!(
        "{}-seed{}.jsonl",
        args.workload.name(),
        args.seed
    ))
}

pub fn run(args: &Args, dir: &Path) -> Result<Report, String> {
    let data = setup::generate(args.seed);
    let mut r = Report::default();
    let traced = match args.workload {
        Workload::EnginePaper => run_paper(args, dir, &data, &mut r)?,
        Workload::ServeMix | Workload::ServeUpdate => run_wire(args, dir, &data, &mut r)?,
    };
    let path = span_path(args);
    traced.rec.write(&path).map_err(|e| format!("writing spans: {e}"))?;
    r.note(format!(
        "{} spans written to {}",
        traced.rec.spans.len().min(MAX_WRITTEN_SPANS),
        path.display()
    ));
    Ok(r)
}

/// Adds the checked reads to the report's operation counts.
fn count_checked(r: &mut Report, forest: &XmlForest, reads: &[ReadSample]) {
    let mut oracle = Oracle::new(forest);
    let v = oracle.verify(reads);
    r.attempted += v.reads;
    r.failed += v.failed();
    r.unexpected_wrong += v.unexpected;
    for line in v.listing {
        r.note(line);
    }
}

fn run_paper(
    args: &Args,
    dir: &Path,
    data: &setup::Data,
    r: &mut Report,
) -> Result<Traced, String> {
    let path = dir.join("paper.xtwig");
    let t = Instant::now();
    let (forest, engine, times) = paper::setup_once(data, &path)?;
    crate::add_setup(r, data, t.elapsed().as_secs_f64(), &times, 1, true);
    let twigs = paper::paper_twigs();

    // Tracing off: the untraced window's loop for a third of the run.
    let (off, _, _) = paper::window(&engine, args.seed, args.seconds / 3.0);
    drop(engine);
    let n = off.len();

    // Tracing on, on a freshly opened engine, over the same reads.
    let engine = QueryEngine::open(&path).map_err(|e| format!("open: {e}"))?;
    let before = paper::pool_totals(&engine);
    let mut traced = Traced::default();
    let mut stream = PaperStream::new(args.seed);
    for id in 0..n as u64 {
        let read = stream.next_read();
        let Read::Paper(i) = read else { unreachable!("paper stream") };
        engine_tree(&engine, &twigs[usize::from(i)], read, id, &mut traced, "request");
    }
    let io = paper::pool_totals(&engine).since(&before);
    add_engine_metrics(r, &traced.rec, &traced.totals);
    let (regret, priced) = pick_regret(&engine, &traced.totals.picks);
    r.add("opt.pick_regret", regret, "ratio", priced);
    r.add(
        "storage.miss_rate",
        ratio(io.physical_reads as f64, io.logical_reads as f64),
        "ratio",
        n,
    );
    r.add(
        "storage.physical_reads_per_query",
        ratio(io.physical_reads as f64, n as f64),
        "count",
        n,
    );
    let p50_off = median(&off.iter().map(|s| s.latency_ns as f64 / 1e3).collect::<Vec<_>>());
    let p50_on = median(&traced.rec.durations("request"));
    r.add("obs.trace_overhead", ratio(p50_on, p50_off), "ratio", n);
    add_layer_split(r, &traced.rec, n);
    count_checked(r, &forest, &off);
    Ok(traced)
}

/// One replayed request: a read, or (on `serve-update`) a commit.
#[derive(Clone, Copy)]
enum Op {
    Read(Read),
    Commit(u64),
}

/// What a replay measured, per read and per commit.
#[derive(Default)]
struct Replay {
    latency_us: Vec<f64>,
    samples: Vec<ReadSample>,
    codec_us: Vec<f64>,
    overhead_us: Vec<f64>,
    commit_ms: Vec<f64>,
}

/// Replays `ops` in process against `catalog`'s index, reads through
/// the server's query path and commits through `apply_update`.
fn replay<S: Spans>(
    catalog: &Catalog,
    ids: &PersonIds,
    ops: &[Op],
    spans: &mut S,
) -> Result<Replay, String> {
    let paper = paper_xpaths();
    let svc = catalog.get(INDEX).map_err(|e| e.to_string())?;
    let mut out = Replay::default();
    for (id, op) in ops.iter().enumerate() {
        let id = id as u64 + 1;
        match *op {
            Op::Commit(k) => {
                let resolved = resolve_ops(&svc, ids, k)?;
                let t = Instant::now();
                spans.begin("service.apply_update", id);
                svc.apply_update(resolved);
                spans.end();
                out.commit_ms.push(t.elapsed().as_secs_f64() * 1e3);
            }
            Op::Read(read) => {
                let xpath = read.xpath(&paper);
                let t = Instant::now();
                spans.begin("request", id);
                let (sample, codec, overhead) = serve_read(catalog, read, &xpath, id, spans)?;
                spans.end();
                out.latency_us.push(t.elapsed().as_nanos() as f64 / 1e3);
                out.codec_us.push(codec);
                out.overhead_us.push(overhead);
                if !sample.from_cache {
                    if let Ok(twig) = xtwig_core::parse_xpath(&xpath) {
                        svc.with_engine(|e| spans.engine(e, &twig, read, id));
                    }
                }
                out.samples.push(sample);
            }
        }
    }
    Ok(out)
}

/// The server's query path, call by call: decode, handle, execute,
/// encode. Returns the sample, the codec time and the service's own
/// time beyond engine execution (µs; zero with tracing off).
fn serve_read<S: Spans>(
    catalog: &Catalog,
    read: Read,
    xpath: &str,
    id: u64,
    spans: &mut S,
) -> Result<(ReadSample, f64, f64), String> {
    spans.begin("net.decode", id);
    let req = Request::Query {
        index: INDEX.to_owned(),
        xpath: xpath.to_owned(),
        strategy: "auto".to_owned(),
    };
    let (opcode, payload) = req.encode_enveloped(TraceContext { request_id: id, sample: false });
    let (_, req) = Request::decode_enveloped(&Frame { opcode, payload }).map_err(|e| e.0)?;
    let mut codec = spans.end();
    let Request::Query { index, xpath, strategy } = req else {
        return Err("decoded a non-query".into());
    };

    spans.begin("net.handle", id);
    let svc = catalog.get(&index).map_err(|e| e.to_string())?;
    let strategy: Strategy = strategy.parse().map_err(|_| "bad strategy label".to_owned())?;
    let twig = xtwig_core::parse_xpath(&xpath).map_err(|e| e.to_string())?;
    spans.end();

    spans.begin("service.execute_with", id);
    let ctx = RequestCtx { request_id: id, ..RequestCtx::default() };
    let answer = svc.execute_with(&twig, strategy, &ctx).map_err(|e| e.to_string())?;
    let exec = spans.end();
    let overhead = exec.saturating_sub(answer.metrics.elapsed).as_nanos() as f64 / 1e3;

    spans.begin("net.encode", id);
    let resp = Response::Answer {
        strategy: answer.strategy.label().to_owned(),
        plan: format!("{:?}", answer.plan),
        from_cache: answer.from_cache,
        micros: answer.metrics.elapsed.as_micros() as u64,
        ids: answer.ids.iter().copied().collect(),
    };
    let (opcode, payload) = resp.encode_enveloped(id);
    let (_, resp) = Response::decode_enveloped(&Frame { opcode, payload }).map_err(|e| e.0)?;
    codec += spans.end();
    let Response::Answer { ids, .. } = resp else {
        return Err("decoded a non-answer".into());
    };
    let sample = ReadSample {
        read,
        latency_ns: 0,
        server_us: answer.metrics.elapsed.as_micros() as u64,
        n_ids: ids.len() as u32,
        digest: digest(ids.iter().copied()),
        strategy: Some(answer.strategy),
        from_cache: answer.from_cache,
        error: None,
        probe: None,
    };
    Ok((sample, codec.as_nanos() as f64 / 1e3, overhead))
}

/// The writer's commit `k` as engine ops (tag names resolved through
/// the index's dictionary, as the server does).
fn resolve_ops(svc: &TwigService, ids: &PersonIds, k: u64) -> Result<Vec<UpdateOp>, String> {
    svc.with_engine(|engine| {
        let dict = engine.forest().dict();
        ids.commit_ops(k)
            .into_iter()
            .map(|op| {
                let tags = op
                    .tags
                    .iter()
                    .map(|t| dict.lookup(t).ok_or(format!("unknown tag {t}")))
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(if op.insert {
                    UpdateOp::InsertPath { tags, ids: op.ids, value: op.value }
                } else {
                    UpdateOp::DeletePath { tags, ids: op.ids, value: op.value }
                })
            })
            .collect()
    })
}

/// A freshly opened catalog over the index, already attached.
fn open_catalog(path: &Path) -> Result<Arc<Catalog>, String> {
    let catalog = wire::catalog(path);
    catalog.get(INDEX).map_err(|e| e.to_string())?;
    Ok(catalog)
}

/// The wire pass: the stream over loopback, one reader (and on
/// `serve-update` the writer beside it). Returns the reads, the same
/// requests as replay ops, and the admission refusals.
fn wire_pass(
    args: &Args,
    served: &Served,
    data: &setup::Data,
    ids: &PersonIds,
    seconds: f64,
) -> Result<(Vec<ReadSample>, Vec<Op>, u64), String> {
    let w = if args.workload == Workload::ServeMix {
        wire::mix_window(served, data, args.seed, seconds, 1)?
    } else {
        wire::update_window(served, data, ids, args.seed, seconds)?
    };
    // Commits replay just before the first read that began after their
    // acknowledgement.
    let mut ops = Vec::new();
    let mut commits = w.commits.iter().map(|c| c.acked_after_reads).enumerate().peekable();
    for (j, s) in w.reads.iter().enumerate() {
        while let Some((k, _)) = commits.next_if(|&(_, after)| after <= j as u64) {
            ops.push(Op::Commit(k as u64));
        }
        ops.push(Op::Read(s.read));
    }
    ops.extend(commits.map(|(k, _)| Op::Commit(k as u64)));
    Ok((w.reads, ops, w.after.overloaded - w.before.overloaded))
}

fn run_wire(args: &Args, dir: &Path, data: &setup::Data, r: &mut Report) -> Result<Traced, String> {
    let path = wire::index_path(dir);
    let t = Instant::now();
    let (forest, served, times) = wire::setup_once(data, &path)?;
    crate::add_setup(r, data, t.elapsed().as_secs_f64(), &times, 1, true);
    let ids = PersonIds::of(&forest);

    // The empty round trip.
    let mut client = served.connect()?;
    let mut pings = Vec::new();
    for _ in 0..200 {
        let t = Instant::now();
        client.ping().map_err(|e| e.to_string())?;
        pings.push(t.elapsed().as_nanos() as f64 / 1e3);
    }
    drop(client);
    let (wire_reads, ops, refused) = wire_pass(args, &served, data, &ids, args.seconds / 3.0)?;
    drop(served);

    // Tracing off, then on, each on a freshly opened catalog.
    let off = replay(open_catalog(&path)?.as_ref(), &ids, &ops, &mut Off)?;
    let catalog = open_catalog(&path)?;
    let svc = catalog.get(INDEX).map_err(|e| e.to_string())?;
    let s0 = svc.stats();
    let mut traced = Traced::default();
    let on = replay(&catalog, &ids, &ops, &mut traced)?;
    let s1 = svc.stats();
    let reads = on.samples.len();

    // net
    let (small, large) = crate::residuals(&wire_reads);
    r.add("net.residual_us.le8k", median(&small), "us", small.len());
    r.add("net.residual_us.gt8k", median(&large), "us", large.len());
    r.add("net.ping_us", median(&pings), "us", pings.len());
    r.add("net.codec_us", mean(&on.codec_us), "us", reads);
    let bytes: Vec<f64> = wire_reads
        .iter()
        .filter(|s| s.error.is_none())
        .map(|s| wire::answer_bytes(s.n_ids, s.strategy) as f64)
        .collect();
    r.add("net.response_bytes", mean(&bytes), "bytes", bytes.len());

    // service
    let d = |a: u64, b: u64| b.saturating_sub(a) as f64;
    let (rc0, rc1) = (&s0.result_cache, &s1.result_cache);
    let (pc0, pc1) = (&s0.plan_cache, &s1.plan_cache);
    let rlook = d(rc0.hits, rc1.hits) + d(rc0.misses, rc1.misses);
    let plook = d(pc0.hits, pc1.hits) + d(pc0.misses, pc1.misses);
    r.add("service.result_hit_rate", ratio(d(rc0.hits, rc1.hits), rlook), "ratio", rlook as usize);
    r.add("service.plan_hit_rate", ratio(d(pc0.hits, pc1.hits), plook), "ratio", plook as usize);
    r.add("service.overhead_us", median(&on.overhead_us), "us", reads);
    let commits = on.commit_ms.len();
    if commits > 0 {
        // The result cache drops stale entries when a read finds them,
        // so invalidations are counted over the replay, per commit.
        let invalidated = d(rc0.invalidated, rc1.invalidated) / commits as f64;
        r.add("service.invalidated_per_commit", invalidated, "count", commits);
        r.add("service.commit_ms", median(&on.commit_ms), "ms", commits);
    }
    r.add("service.refused", refused as f64, "count", wire_reads.len());

    // opt, core, btree
    add_engine_metrics(r, &traced.rec, &traced.totals);
    let (regret, priced) = svc.with_engine(|e| pick_regret(e, &traced.totals.picks));
    r.add("opt.pick_regret", regret, "ratio", priced);

    // storage: the service's own cost counters survive epoch forks.
    let (l0, p0) = wire::cost_totals(&s0);
    let (l1, p1) = wire::cost_totals(&s1);
    r.add("storage.miss_rate", ratio(d(p0, p1), d(l0, l1)), "ratio", reads);
    r.add("storage.physical_reads_per_query", ratio(d(p0, p1), reads as f64), "count", reads);

    // obs
    let overhead = ratio(median(&on.latency_us), median(&off.latency_us));
    r.add("obs.trace_overhead", overhead, "ratio", reads);
    let unexplained: Vec<f64> = wire_reads
        .iter()
        .zip(traced.rec.durations("request"))
        .map(|(c, layers)| c.latency_ns as f64 / 1e3 - layers)
        .collect();
    r.add("obs.unexplained_us", median(&unexplained), "us", unexplained.len());
    add_layer_split(r, &traced.rec, reads);

    count_checked(r, &forest, &on.samples);
    Ok(traced)
}
