//! xtwig benchmark: three workloads over seeded XMark data at scale
//! 0.1, each measured untraced (end-to-end metrics) or traced (the
//! per-layer split).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-mix|engine-paper|serve-update --seed N --seconds S --trace 0|1
//! ```
//!
//! Prints one line per metric (name, value, unit, sample count), then
//! one JSON line: `{"correct", "attempted", "failed", "metrics"}`.
//! See `perfbench/WORKLOADS.md` for why each workload exists.

mod check;
mod paper;
mod report;
mod setup;
mod stats;
mod stream;
mod trace;
mod wire;

use std::time::Instant;

use check::{Oracle, ReadSample, Verdict};
use report::Report;
use setup::{Data, SetupTimes};
use stats::{mean, median, percentile, ratio};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Reads a run must complete, so p99 has ten samples beyond it.
const MIN_READS: usize = 1_000;
/// Commits `serve-update` must complete, so p90 has ten beyond it.
const MIN_COMMITS: usize = 100;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ServeMix,
    EnginePaper,
    ServeUpdate,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "serve-mix" => Some(Workload::ServeMix),
            "engine-paper" => Some(Workload::EnginePaper),
            "serve-update" => Some(Workload::ServeUpdate),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeMix => "serve-mix",
            Workload::EnginePaper => "engine-paper",
            Workload::ServeUpdate => "serve-update",
        }
    }
}

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| -> Result<String, String> {
        let at = args.iter().position(|a| a == name).ok_or(format!("missing {name}"))?;
        args.get(at + 1).cloned().ok_or(format!("{name} needs a value"))
    };
    let workload = flag("--workload")?;
    Ok(Args {
        workload: Workload::parse(&workload).ok_or(format!("unknown workload {workload:?}"))?,
        seed: flag("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: flag("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?,
        trace: match flag("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
        },
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload serve-mix|engine-paper|serve-update \
                 --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    let dir = match setup::work_dir() {
        Ok(d) => d,
        Err(e) => {
            eprintln!("perfbench: cannot create the work directory: {e}");
            std::process::exit(1);
        }
    };
    let result = if args.trace { trace::run(&args, &dir) } else { run_untraced(&args, &dir) };
    let _ = std::fs::remove_dir_all(&dir);
    match result {
        Ok(report) => {
            print!("{}", report.render(args.workload.name(), args.trace));
            let names: &[&str] = if args.trace { &report::PER_LAYER } else { &report::END_TO_END };
            match report.json_line(names) {
                Ok(line) => println!("{line}"),
                Err(e) => {
                    eprintln!("perfbench: {e}");
                    std::process::exit(1);
                }
            }
        }
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload.name());
            std::process::exit(1);
        }
    }
}

/// Runs [`SETUP_REPS`] set-ups and keeps the last one's products.
/// Returns them with the median wall time and the per-phase medians.
fn repeated_setup<T>(
    reps: usize,
    mut once: impl FnMut() -> Result<(T, SetupTimes), String>,
) -> Result<(T, f64, SetupTimes), String> {
    let mut walls = Vec::new();
    let mut phases: Vec<SetupTimes> = Vec::new();
    let mut kept = None;
    for _ in 0..reps {
        drop(kept.take());
        let t = Instant::now();
        let (product, times) = once()?;
        walls.push(t.elapsed().as_secs_f64());
        phases.push(times);
        kept = Some(product);
    }
    let pick = |f: fn(&SetupTimes) -> f64| median(&phases.iter().map(f).collect::<Vec<_>>());
    let times = SetupTimes {
        parse_s: pick(|t| t.parse_s),
        build_s: pick(|t| t.build_s),
        persist_s: pick(|t| t.persist_s),
        open_s: pick(|t| t.open_s),
        file_bytes: phases.last().map_or(0, |t| t.file_bytes),
    };
    Ok((kept.expect("at least one set-up"), median(&walls), times))
}

/// Adds the set-up metrics every run reports.
pub fn add_setup(
    r: &mut Report,
    data: &Data,
    setup_s: f64,
    t: &SetupTimes,
    reps: usize,
    traced: bool,
) {
    if traced {
        r.add("xml.parse_s", t.parse_s, "s", reps);
        r.add("core.build_s", t.build_s, "s", reps);
        r.add("core.persist_s", t.persist_s, "s", reps);
        r.add("core.open_s", t.open_s, "s", reps);
    } else {
        r.add("setup_s", setup_s, "s", reps);
    }
    r.add("space_ratio", t.file_bytes as f64 / data.xml.len() as f64, "ratio", 1);
}

/// Latency percentiles and throughput over the checked reads of a
/// `seconds`-long window.
fn add_read_metrics(
    r: &mut Report,
    reads: &[ReadSample],
    v: &Verdict,
    seconds: f64,
) -> Result<(), String> {
    let mut lat: Vec<f64> =
        reads.iter().filter(|s| s.error.is_none()).map(|s| s.latency_ns as f64 / 1e3).collect();
    let n = lat.len();
    if n < MIN_READS {
        return Err(format!("only {n} reads completed; a run needs {MIN_READS}"));
    }
    lat.sort_by(f64::total_cmp);
    r.add("query_p50_us", percentile("reads", &lat, 50.0).map_err(|e| e.to_string())?, "us", n);
    r.add("query_p99_us", percentile("reads", &lat, 99.0).map_err(|e| e.to_string())?, "us", n);
    r.add("qps", v.correct as f64 / seconds, "1/s", v.correct as usize);
    Ok(())
}

fn add_verdict(r: &mut Report, v: &Verdict, oracle_distinct: usize) {
    r.attempted += v.reads;
    r.failed += v.failed();
    r.unexpected_wrong += v.unexpected;
    r.note(format!(
        "checked {} reads ({} distinct document reads against xml::naive): {} correct, \
         {} errors, {} unexpected wrong",
        v.reads, oracle_distinct, v.correct, v.errors, v.unexpected
    ));
    for line in &v.listing {
        r.note(line.clone());
    }
}

/// Reports `serve-update`'s known-defect check: the probes after the
/// window. They are not the workload's operations, so they stay out of
/// `attempted`, `failed` and `error_rate`; a wrong answer the defect
/// does not explain still makes the run incorrect.
fn add_probe_check(r: &mut Report, v: &Verdict) {
    r.unexpected_wrong += v.unexpected;
    r.add(
        "update.stale_probe_rate",
        ratio(v.stale as f64, v.reads as f64),
        "ratio",
        v.reads as usize,
    );
    r.note(format!(
        "probed {} inserted persons under auto after the window: {} correct, {} stale, \
         {} unexpected wrong",
        v.reads, v.correct, v.stale, v.unexpected
    ));
    if v.stale > 0 {
        r.note(format!(
            "KNOWN DEFECT: {} auto probes returned the pre-update answer from a strategy \
             updates do not maintain (ROADMAP known defect 1)",
            v.stale
        ));
    }
    for line in &v.listing {
        r.note(line.clone());
    }
}

fn run_untraced(args: &Args, dir: &std::path::Path) -> Result<Report, String> {
    let data = setup::generate(args.seed);
    let mut r = Report::default();
    let rss_before = setup::rss_mb();
    match args.workload {
        Workload::EnginePaper => {
            let path = dir.join("paper.xtwig");
            let ((forest, engine), setup_s, times) = repeated_setup(SETUP_REPS, || {
                paper::setup_once(&data, &path).map(|(f, e, t)| ((f, e), t))
            })?;
            let (reads, page_reads, seconds) = paper::window(&engine, args.seed, args.seconds);
            let rss = setup::rss_mb() - rss_before;
            drop(engine);
            let mut oracle = Oracle::new(&forest);
            let v = oracle.verify(&reads);
            add_setup(&mut r, &data, setup_s, &times, SETUP_REPS, false);
            add_read_metrics(&mut r, &reads, &v, seconds)?;
            // `QueryMetrics.logical_reads`, exact per read.
            let logical: Vec<f64> = page_reads.iter().map(|&n| n as f64).collect();
            r.add("page_reads_per_query", mean(&logical), "count", logical.len());
            r.add("rss_mb", rss, "MiB", 1);
            add_verdict(&mut r, &v, oracle.distinct());
        }
        Workload::ServeMix | Workload::ServeUpdate => {
            let path = wire::index_path(dir);
            let ((forest, served), setup_s, times) = repeated_setup(SETUP_REPS, || {
                wire::setup_once(&data, &path).map(|(f, s, t)| ((f, s), t))
            })?;
            let ids = wire::PersonIds::of(&forest);
            let w = if args.workload == Workload::ServeMix {
                wire::mix_window(&served, &data, args.seed, args.seconds, wire::MIX_CONNECTIONS)?
            } else {
                wire::update_window(&served, &data, &ids, args.seed, args.seconds)?
            };
            let rss = setup::rss_mb() - rss_before;
            let probes = if args.workload == Workload::ServeUpdate {
                wire::probe_touched(&served, &ids, &w.commits)?
            } else {
                Vec::new()
            };
            drop(served);
            let mut oracle = Oracle::new(&forest);
            let v = oracle.verify(&w.reads);
            add_setup(&mut r, &data, setup_s, &times, SETUP_REPS, false);
            add_read_metrics(&mut r, &w.reads, &v, w.seconds)?;
            // The service's own cost counters survive the epoch forks a
            // commit makes; pool counters restart in each fork.
            let (l0, _) = wire::cost_totals(&w.before);
            let (l1, _) = wire::cost_totals(&w.after);
            let completed = w.reads.iter().filter(|s| s.error.is_none()).count();
            let per_read = ratio(l1.saturating_sub(l0) as f64, completed as f64);
            r.add("page_reads_per_query", per_read, "count", completed);
            r.add("rss_mb", rss, "MiB", 1);
            if args.workload == Workload::ServeUpdate {
                add_commit_metrics(&mut r, &w.commits)?;
            }
            add_wire_notes(&mut r, &w);
            add_verdict(&mut r, &v, oracle.distinct());
            if args.workload == Workload::ServeUpdate {
                add_probe_check(&mut r, &oracle.verify(&probes));
            }
        }
    }
    // Transport errors, typed refusals and wrong answers, over every
    // read and commit attempted.
    let ops = r.attempted as usize;
    r.add("error_rate", ratio(r.failed as f64, r.attempted as f64), "ratio", ops);
    Ok(r)
}

fn add_commit_metrics(r: &mut Report, commits: &[wire::CommitSample]) -> Result<(), String> {
    let failed = commits.iter().filter(|c| c.error.is_some()).count() as u64;
    let mut lat: Vec<f64> =
        commits.iter().filter(|c| c.error.is_none()).map(|c| c.latency_ns as f64 / 1e6).collect();
    if lat.len() < MIN_COMMITS {
        return Err(format!(
            "only {} commits completed; serve-update needs {MIN_COMMITS}",
            lat.len()
        ));
    }
    lat.sort_by(f64::total_cmp);
    let n = lat.len();
    r.add("update_p50_ms", percentile("commits", &lat, 50.0).map_err(|e| e.to_string())?, "ms", n);
    r.add("update_p90_ms", percentile("commits", &lat, 90.0).map_err(|e| e.to_string())?, "ms", n);
    let lag = commits.iter().map(|c| c.lag_ns).max().unwrap_or(0) as f64 / 1e6;
    r.add("update.max_send_lag_ms", lag, "ms", commits.len());
    r.attempted += commits.len() as u64;
    r.failed += failed;
    Ok(())
}

/// Wire-only layer readings available from the untraced run itself.
fn add_wire_notes(r: &mut Report, w: &wire::Window) {
    let (rc0, rc1) = (&w.before.result_cache, &w.after.result_cache);
    let (pc0, pc1) = (&w.before.plan_cache, &w.after.plan_cache);
    let rh = (rc1.hits - rc0.hits) as f64;
    let rm = (rc1.misses - rc0.misses) as f64;
    let ph = (pc1.hits - pc0.hits) as f64;
    let pm = (pc1.misses - pc0.misses) as f64;
    r.add("service.result_hit_rate", ratio(rh, rh + rm), "ratio", (rh + rm) as usize);
    r.add("service.plan_hit_rate", ratio(ph, ph + pm), "ratio", (ph + pm) as usize);
    if !w.commits.is_empty() {
        let inv = (rc1.invalidated - rc0.invalidated) as f64;
        r.add(
            "service.invalidated_per_commit",
            inv / w.commits.len() as f64,
            "count",
            w.commits.len(),
        );
    }
    let (small, large) = residuals(&w.reads);
    r.add("net.residual_us.le8k", median(&small), "us", small.len());
    r.add("net.residual_us.gt8k", median(&large), "us", large.len());
}

/// Client latency minus server-reported execution time, split at an
/// 8 KiB encoded answer.
pub fn residuals(reads: &[ReadSample]) -> (Vec<f64>, Vec<f64>) {
    let mut small = Vec::new();
    let mut large = Vec::new();
    for s in reads.iter().filter(|s| s.error.is_none()) {
        let resid = s.latency_ns as f64 / 1e3 - s.server_us as f64;
        if wire::answer_bytes(s.n_ids, s.strategy) > wire::LARGE_ANSWER_BYTES {
            large.push(resid);
        } else {
            small.push(resid);
        }
    }
    (small, large)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::Read;

    fn reads(n: usize) -> Vec<ReadSample> {
        (0..n)
            .map(|i| ReadSample {
                read: Read::Paper(0),
                latency_ns: 1_000 * (i as u64 + 1),
                server_us: 0,
                n_ids: 0,
                digest: 0,
                strategy: None,
                from_cache: false,
                error: None,
                probe: None,
            })
            .collect()
    }

    #[test]
    fn thin_runs_fail_loudly() {
        let v = Verdict::default();
        let mut r = Report::default();
        let err = add_read_metrics(&mut r, &reads(999), &v, 1.0).unwrap_err();
        assert!(err.contains("999 reads"), "{err}");
        assert!(add_read_metrics(&mut r, &reads(1_000), &v, 1.0).is_ok());
        assert_eq!(r.get("query_p99_us").map(|m| m.value), Some(990.0));

        let commits = |n: usize| {
            (0..n)
                .map(|_| wire::CommitSample {
                    latency_ns: 1,
                    lag_ns: 0,
                    acked_after_reads: 0,
                    error: None,
                })
                .collect::<Vec<_>>()
        };
        let err = add_commit_metrics(&mut r, &commits(99)).unwrap_err();
        assert!(err.contains("99 commits"), "{err}");
        assert!(add_commit_metrics(&mut r, &commits(100)).is_ok());
    }
}
