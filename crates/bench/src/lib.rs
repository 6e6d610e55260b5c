//! Shared harness for the figure/table reproduction binaries.
//!
//! Every binary in `src/bin` regenerates one table or figure of the
//! paper's evaluation (see DESIGN.md's per-experiment index). They share
//! dataset construction, engine building, repeated-measurement helpers
//! and result output through this module.
//!
//! Scale control: pass `--scale <f>` or set `XTWIG_SCALE`; the default
//! 0.02 keeps every binary under a minute on a laptop while preserving
//! the selectivity ratios of the paper's 100 MB/50 MB datasets.

use std::time::{Duration, Instant};
use xtwig_core::engine::{EngineOptions, QueryEngine, Strategy};
use xtwig_datagen::{
    generate_dblp, generate_xmark, DblpConfig, DblpProfile, XmarkConfig, XmarkProfile,
};
use xtwig_xml::{TwigPattern, XmlForest};

/// Default scale relative to the paper's datasets.
pub const DEFAULT_SCALE: f64 = 0.02;
/// Buffer-pool pages per structure (40 MiB, matching §5.1.1).
pub const POOL_PAGES: usize = 5_120;
/// Warm-cache repetitions, matching the paper's "total query execution
/// time of 10 independent runs with a warm cache".
pub const RUNS: usize = 10;

/// Reads the scale from argv/env.
pub fn scale_from_args() -> f64 {
    let args: Vec<String> = std::env::args().collect();
    if let Some(pos) = args.iter().position(|a| a == "--scale") {
        if let Some(v) = args.get(pos + 1).and_then(|v| v.parse().ok()) {
            return v;
        }
    }
    std::env::var("XTWIG_SCALE").ok().and_then(|v| v.parse().ok()).unwrap_or(DEFAULT_SCALE)
}

/// Reads the index-build shard count from argv/env (`--shards <n>` or
/// `XTWIG_SHARDS`; default 1 = the sequential build). Every figure
/// binary builds its engine through [`engine`], so the flag applies
/// uniformly; sharded and sequential builds produce byte-identical
/// indexes (`QueryEngine::build_parallel`), so measurements are
/// comparable either way.
///
/// A present-but-unparsable value exits with an error rather than
/// silently falling back to the sequential build — a typo must not
/// produce a "parallel" measurement that secretly ran sequentially.
pub fn shards_from_args() -> usize {
    let args: Vec<String> = std::env::args().collect();
    if let Some(pos) = args.iter().position(|a| a == "--shards") {
        match args.get(pos + 1).and_then(|v| v.parse().ok()) {
            Some(v) if v >= 1 => return v,
            _ => {
                eprintln!(
                    "--shards requires a positive integer, got {:?}",
                    args.get(pos + 1).map(String::as_str).unwrap_or("<missing>")
                );
                std::process::exit(2);
            }
        }
    }
    match std::env::var("XTWIG_SHARDS") {
        Err(_) => 1,
        Ok(v) => match v.parse() {
            Ok(n) if n >= 1 => n,
            _ => {
                eprintln!("XTWIG_SHARDS must be a positive integer, got {v:?}");
                std::process::exit(2);
            }
        },
    }
}

/// Threads the host makes available — recorded in bench snapshots
/// (`BENCH_build.json`, `BENCH_service.json`) so cross-host comparisons
/// of parallel results stay honest.
pub fn host_parallelism() -> usize {
    std::thread::available_parallelism().map(usize::from).unwrap_or(1)
}

/// Generates the XMark-like dataset at `scale`.
pub fn xmark_forest(scale: f64) -> (XmlForest, XmarkProfile) {
    let mut forest = XmlForest::new();
    let profile = generate_xmark(&mut forest, XmarkConfig { scale, seed: 0xA0C });
    (forest, profile)
}

/// Generates the DBLP-like dataset at `scale`.
pub fn dblp_forest(scale: f64) -> (XmlForest, DblpProfile) {
    let mut forest = XmlForest::new();
    let profile = generate_dblp(&mut forest, DblpConfig { scale, seed: 0xD0B5 });
    (forest, profile)
}

/// Builds an engine with the given strategies and the 40 MiB pool,
/// honoring the `--shards` / `XTWIG_SHARDS` build-parallelism flag
/// (shard count 1 is the sequential build).
pub fn engine<'f>(forest: &'f XmlForest, strategies: &[Strategy]) -> QueryEngine<&'f XmlForest> {
    QueryEngine::build_parallel(
        forest,
        EngineOptions {
            strategies: strategies.to_vec(),
            pool_pages: POOL_PAGES,
            ..Default::default()
        },
        shards_from_args(),
    )
}

/// One measured cell of a results table.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Strategy label (RP, DP, …).
    pub strategy: String,
    /// Query or series label.
    pub label: String,
    /// Result cardinality.
    pub results: u64,
    /// Total wall time of [`RUNS`] warm runs, in microseconds.
    pub total_micros: u64,
    /// Index probes per run.
    pub probes: u64,
    /// Match rows fetched per run.
    pub rows: u64,
    /// Logical page reads per run.
    pub logical_reads: u64,
    /// Plan kind that executed.
    pub plan: String,
}

/// Runs `twig` `RUNS` times warm (after one discarded warm-up run) and
/// aggregates.
pub fn measure(
    engine: &QueryEngine<&XmlForest>,
    twig: &TwigPattern,
    strategy: Strategy,
    label: &str,
) -> Measurement {
    let warmup = engine.answer(twig, strategy);
    let mut total = Duration::ZERO;
    for _ in 0..RUNS {
        let start = Instant::now();
        let a = engine.answer(twig, strategy);
        total += start.elapsed();
        debug_assert_eq!(a.ids.len(), warmup.ids.len());
    }
    Measurement {
        strategy: strategy.to_string(),
        label: label.to_owned(),
        results: warmup.ids.len() as u64,
        total_micros: total.as_micros() as u64,
        probes: warmup.metrics.probes,
        rows: warmup.metrics.rows_fetched,
        logical_reads: warmup.metrics.logical_reads,
        plan: format!("{:?}", warmup.plan),
    }
}

/// Prints a table of measurements grouped by label.
pub fn print_table(title: &str, rows: &[Measurement]) {
    println!("\n### {title}");
    println!(
        "{:<22} {:<8} {:>8} {:>12} {:>9} {:>9} {:>12}  plan",
        "query", "strategy", "results", "t(10 runs)", "probes", "rows", "logical I/O"
    );
    for m in rows {
        println!(
            "{:<22} {:<8} {:>8} {:>9}µs {:>9} {:>9} {:>12}  {}",
            m.label,
            m.strategy,
            m.results,
            m.total_micros,
            m.probes,
            m.rows,
            m.logical_reads,
            m.plan
        );
    }
}

/// Escapes a string for inclusion in a JSON document.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

impl Measurement {
    /// Renders the measurement as a pretty-printed JSON object (the
    /// build has no network access for a serde dependency, so the — flat
    /// and stable — schema is emitted by hand).
    pub fn to_json(&self, indent: &str) -> String {
        format!(
            "{indent}{{\n\
             {indent}  \"strategy\": \"{}\",\n\
             {indent}  \"label\": \"{}\",\n\
             {indent}  \"results\": {},\n\
             {indent}  \"total_micros\": {},\n\
             {indent}  \"probes\": {},\n\
             {indent}  \"rows\": {},\n\
             {indent}  \"logical_reads\": {},\n\
             {indent}  \"plan\": \"{}\"\n\
             {indent}}}",
            json_escape(&self.strategy),
            json_escape(&self.label),
            self.results,
            self.total_micros,
            self.probes,
            self.rows,
            self.logical_reads,
            json_escape(&self.plan),
        )
    }
}

/// Writes measurements as JSON under `target/xtwig-results/`.
pub fn dump_json(name: &str, rows: &[Measurement]) {
    let dir = std::path::Path::new("target/xtwig-results");
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    let path = dir.join(format!("{name}.json"));
    let body: Vec<String> = rows.iter().map(|m| m.to_json("  ")).collect();
    let json = format!("[\n{}\n]\n", body.join(",\n"));
    let _ = std::fs::write(&path, json);
    println!("\n[results written to {}]", path.display());
}

/// Wall times of `iters` runs of `f` after `warmup` untimed runs
/// (caches hot, branch predictors settled), as (min, mean).
pub fn time_loop(warmup: usize, iters: usize, mut f: impl FnMut()) -> (Duration, Duration) {
    for _ in 0..warmup {
        f();
    }
    let mut samples = Vec::with_capacity(iters);
    for _ in 0..iters {
        let start = Instant::now();
        f();
        samples.push(start.elapsed());
    }
    min_mean(&samples)
}

/// (min, mean) of a set of wall-time samples; zero when empty.
pub fn min_mean(samples: &[Duration]) -> (Duration, Duration) {
    let min = samples.iter().copied().min().unwrap_or(Duration::ZERO);
    let total: Duration = samples.iter().sum();
    (min, total / samples.len().max(1) as u32)
}

/// Timing rows of one figure, written as the `group`/`bench`/`min_ns`
/// results file `bench_check` gates (`target/xtwig-results/<group>.json`).
pub struct Timings {
    group: &'static str,
    iters: usize,
    warmup: usize,
    rows: Vec<(String, Duration, Duration)>,
}

impl Timings {
    /// An empty table for `group`; `iters`/`warmup` are recorded with
    /// every row.
    pub fn new(group: &'static str, iters: usize, warmup: usize) -> Self {
        Timings { group, iters, warmup, rows: Vec::new() }
    }

    /// Prints and keeps one row.
    pub fn record(&mut self, bench: impl Into<String>, (min, mean): (Duration, Duration)) {
        let bench = bench.into();
        println!(
            "{bench:<20} min {:>9.1} us   mean {:>9.1} us",
            min.as_secs_f64() * 1e6,
            mean.as_secs_f64() * 1e6
        );
        self.rows.push((bench, min, mean));
    }

    /// Writes the results file: `scale`, the host's parallelism, the
    /// `extra` top-level counters, then the rows.
    pub fn write(&self, scale: f64, extra: &[(&str, u64)]) {
        let body: Vec<String> = self
            .rows
            .iter()
            .map(|(bench, min, mean)| {
                format!(
                    "  {{\n    \"group\": \"{}\",\n    \"bench\": \"{}\",\n    \
                     \"min_ns\": {},\n    \"mean_ns\": {},\n    \"iters\": {},\n    \
                     \"warmup\": {}\n  }}",
                    self.group,
                    json_escape(bench),
                    min.as_nanos(),
                    mean.as_nanos(),
                    self.iters,
                    self.warmup
                )
            })
            .collect();
        let extra: String = extra.iter().map(|(k, v)| format!("  \"{k}\": {v},\n")).collect();
        let json = format!(
            "{{\n  \"scale\": {scale},\n  \"host_parallelism\": {},\n{extra}  \
             \"results\": [\n{}\n  ]\n}}\n",
            host_parallelism(),
            body.join(",\n"),
        );
        let dir = std::path::Path::new("target/xtwig-results");
        if std::fs::create_dir_all(dir).is_ok() {
            let path = dir.join(format!("{}.json", self.group));
            let _ = std::fs::write(&path, &json);
            println!("[results written to {}]", path.display());
        }
    }
}

/// Splits `items` into `threads` contiguous slices, answers each on its
/// own scoped caller thread with `answer`, and returns the answers in
/// `items` order.
pub fn fan_out<T: Sync, A: Send>(
    items: &[T],
    threads: usize,
    answer: impl Fn(&[T]) -> Vec<A> + Sync,
) -> Vec<A> {
    let per_thread = items.len().div_ceil(threads.max(1)).max(1);
    let answer = &answer;
    std::thread::scope(|scope| {
        let handles: Vec<_> =
            items.chunks(per_thread).map(|chunk| scope.spawn(move || answer(chunk))).collect();
        handles.into_iter().flat_map(|h| h.join().expect("caller thread panicked")).collect()
    })
}

/// Megabyte formatting helper.
pub fn mb(bytes: u64) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}
