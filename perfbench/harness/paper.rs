//! `engine-paper`: the paper's own workload. One caller answers
//! Q1x–Q15x through `QueryEngine::answer(…, Auto)` on a reopened index
//! whose pool keeps the paper's pool-to-document ratio, so DATAPATHS
//! and JI exceed it and storage misses are real.

use std::path::Path;
use std::time::{Duration, Instant};

use xtwig_core::{QueryEngine, Strategy};
use xtwig_storage::IoStatsSnapshot;
use xtwig_xml::{TwigPattern, XmlForest};

use crate::check::{digest, ReadSample};
use crate::setup::{self, Data, SetupTimes};
use crate::stream::{paper_xpaths, PaperStream, Read};

/// The 15 paper twigs, parsed once.
pub fn paper_twigs() -> Vec<TwigPattern> {
    paper_xpaths().iter().map(|x| xtwig_core::parse_xpath(x).expect("paper query parses")).collect()
}

/// One set-up: parse, build with the paper's pool, persist, reopen,
/// and the first answer.
pub fn setup_once(
    data: &Data,
    path: &Path,
) -> Result<(XmlForest, QueryEngine, SetupTimes), String> {
    let pool = setup::paper_pool_pages(&data.xml);
    let (forest, mut times) = setup::parse_build_persist(&data.xml, pool, path)?;
    let t = Instant::now();
    let engine = QueryEngine::open(path).map_err(|e| format!("open: {e}"))?;
    engine.answer(&paper_twigs()[0], Strategy::Auto);
    times.open_s = t.elapsed().as_secs_f64();
    Ok((forest, engine, times))
}

/// Sum of every structure pool's counters (snapshot values: the
/// handles themselves are live).
pub fn pool_totals(engine: &QueryEngine) -> IoStatsSnapshot {
    let mut total = IoStatsSnapshot::default();
    for (_, c) in engine.pool_counters() {
        let s = c.snapshot();
        total.logical_reads += s.logical_reads;
        total.physical_reads += s.physical_reads;
    }
    total
}

/// Runs the timed window: a single caller, so each query's read counts
/// are its own. Returns the samples, each read's logical page reads
/// (`QueryMetrics.logical_reads`), and the window's length.
pub fn window(engine: &QueryEngine, seed: u64, seconds: f64) -> (Vec<ReadSample>, Vec<u64>, f64) {
    let twigs = paper_twigs();
    let mut stream = PaperStream::new(seed);
    let mut samples = Vec::with_capacity(1 << 16);
    let mut page_reads = Vec::with_capacity(1 << 16);
    let start = Instant::now();
    let until = start + Duration::from_secs_f64(seconds);
    while Instant::now() < until {
        let read = stream.next_read();
        let Read::Paper(i) = read else { unreachable!("paper stream") };
        let t = Instant::now();
        let answer = engine.answer(&twigs[usize::from(i)], Strategy::Auto);
        let latency_ns = t.elapsed().as_nanos() as u64;
        samples.push(ReadSample {
            read,
            latency_ns,
            server_us: 0,
            n_ids: answer.ids.len() as u32,
            digest: digest(answer.ids.iter().copied()),
            strategy: Some(answer.strategy),
            from_cache: false,
            error: None,
            probe: None,
        });
        page_reads.push(answer.metrics.logical_reads);
    }
    (samples, page_reads, start.elapsed().as_secs_f64())
}
