//! Data and set-up: the seeded XMark document as XML text, and the
//! timed path from that text to a persisted index.

use std::path::{Path, PathBuf};
use std::time::Instant;

use xtwig_core::engine::EngineOptions;
use xtwig_core::{QueryEngine, Strategy};
use xtwig_datagen::xmark::{generate_xmark, XmarkConfig};
use xtwig_storage::PAGE_SIZE;
use xtwig_xml::serialize::serialize_forest;
use xtwig_xml::{parse_document, XmlForest};

/// XMark scale: 0.1 of the paper's 100 MB profile (about 119k nodes,
/// 2.7 MB of XML).
pub const SCALE: f64 = 0.1;

/// Buffer-pool frames per structure for the served workloads, as
/// `xtwig build` uses: the whole index fits.
pub const SERVE_POOL_PAGES: usize = 5_120;

/// The paper's buffer-pool to document ratio (40 MB : 100 MB, §5.1.1).
pub const PAPER_POOL_RATIO: f64 = 0.4;

/// The generated document, as text handed to the program.
pub struct Data {
    pub xml: String,
    pub persons: u64,
    pub items: u64,
}

/// Generates the document for `seed` and serializes it.
pub fn generate(seed: u64) -> Data {
    let mut forest = XmlForest::new();
    let profile = generate_xmark(&mut forest, XmarkConfig { scale: SCALE, seed });
    Data { xml: serialize_forest(&forest), persons: profile.persons, items: profile.items }
}

/// Pool frames giving the paper's pool-to-document ratio for `xml`.
pub fn paper_pool_pages(xml: &str) -> usize {
    ((xml.len() as f64 * PAPER_POOL_RATIO / PAGE_SIZE as f64).round() as usize).max(2)
}

/// Where a run keeps its index files: inside the checkout, ignored by
/// git, one directory per process.
pub fn work_dir() -> std::io::Result<PathBuf> {
    let dir = Path::new(".bench_out").join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// Seconds spent in each set-up phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub parse_s: f64,
    pub build_s: f64,
    pub persist_s: f64,
    /// Open or attach plus the first answer.
    pub open_s: f64,
    pub file_bytes: u64,
}

impl SetupTimes {
    pub fn total_s(&self) -> f64 {
        self.parse_s + self.build_s + self.persist_s + self.open_s
    }
}

/// Parses `xml`, builds all seven strategies with `pool_pages` frames
/// per structure, and persists them to `path`. Returns the parsed
/// forest (the oracle's input) and the phase times; the caller times
/// the open and first answer into `open_s`.
pub fn parse_build_persist(
    xml: &str,
    pool_pages: usize,
    path: &Path,
) -> Result<(XmlForest, SetupTimes), String> {
    let t = Instant::now();
    let mut forest = XmlForest::new();
    parse_document(&mut forest, xml).map_err(|e| format!("parse: {e}"))?;
    let parse_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let engine = QueryEngine::build(
        &forest,
        EngineOptions { strategies: Strategy::ALL.to_vec(), pool_pages, ..Default::default() },
    );
    let build_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let report = engine.persist(path).map_err(|e| format!("persist: {e}"))?;
    let persist_s = t.elapsed().as_secs_f64();
    drop(engine);
    Ok((
        forest,
        SetupTimes { parse_s, build_s, persist_s, open_s: 0.0, file_bytes: report.file_bytes },
    ))
}

/// Resident set size in MiB, from `/proc/self/status`.
pub fn rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_is_a_pure_function_of_the_seed() {
        let a = generate(11);
        assert_eq!(a.xml, generate(11).xml);
        assert_ne!(a.xml, generate(12).xml);
        assert_eq!((a.persons, a.items), (2_550, 3_000));
        // The paper's 40:100 pool ratio at scale 0.1.
        let pages = paper_pool_pages(&a.xml);
        assert!((120..150).contains(&pages), "{pages} pages");
    }
}
