//! `fig_service` — serving-layer scaling figure (no paper counterpart;
//! the ROADMAP's production north star): queries/sec through
//! `xtwig-service` vs. the number of caller threads dispatching at once
//! (the `workers` column), result cache off and on, plus a
//! batched-execution row, at XMark scale.
//!
//! Every configuration's answers are checked byte-for-byte against
//! sequential execution on the same engine before its row is recorded.
//! JSON lands in `target/xtwig-results/fig_service.json`; the repo's
//! `BENCH_service.json` is a snapshot of that file.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;
use xtwig_bench::{fan_out, scale_from_args, POOL_PAGES};
use xtwig_core::engine::{EngineOptions, QueryEngine, Strategy};
use xtwig_datagen::{generate_xmark, Dataset, XmarkConfig};
use xtwig_service::{ServiceOptions, SharedEngine, TwigService};
use xtwig_xml::{TwigPattern, XmlForest};

const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];
const REPS: usize = 24; // stream = queries x REPS, round-robin

struct Row {
    mode: &'static str,
    workers: usize,
    cache: bool,
    queries: usize,
    /// Untimed full-stream warm-up passes before measurement.
    warmup: usize,
    /// Timed passes; `elapsed_micros` is the best (min) of these.
    iters: usize,
    elapsed_micros: u128,
    qps: f64,
    plan_hit_rate: f64,
    result_hit_rate: f64,
    memo_hits: u64,
    memo_misses: u64,
}

fn build_engine(forest: &Arc<XmlForest>) -> SharedEngine {
    QueryEngine::build(
        forest.clone(),
        EngineOptions {
            strategies: vec![Strategy::RootPaths, Strategy::DataPaths],
            pool_pages: POOL_PAGES,
            ..Default::default()
        },
    )
}

fn serialize(ids: &BTreeSet<u64>) -> Vec<u8> {
    ids.iter().flat_map(|id| id.to_le_bytes()).collect()
}

/// Hit rate over a counter delta window; 0 when idle.
fn delta_rate(hits: u64, misses: u64) -> f64 {
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

fn main() {
    let scale = scale_from_args();
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    println!("# fig_service: service throughput vs workers (XMark scale {scale}, {cores} core(s))");
    let mut forest = XmlForest::new();
    let profile = generate_xmark(&mut forest, XmarkConfig { scale, seed: 0xA0C });
    println!("dataset: {} items", profile.items);
    let forest = Arc::new(forest);

    let twigs: Vec<TwigPattern> = xtwig_datagen::xmark_queries()
        .iter()
        .filter(|q| q.dataset == Dataset::Xmark)
        .take(8)
        .map(|q| q.twig())
        .collect();
    let stream: Vec<(TwigPattern, Strategy)> = (0..twigs.len() * REPS)
        .map(|i| {
            let s = if i % 2 == 0 { Strategy::RootPaths } else { Strategy::DataPaths };
            (twigs[i % twigs.len()].clone(), s)
        })
        .collect();

    // Sequential baseline (also the correctness oracle for every row).
    let baseline: Vec<Vec<u8>> = {
        let engine = build_engine(&forest);
        stream.iter().map(|(t, s)| serialize(&engine.answer(t, *s).ids)).collect()
    };

    let mut rows: Vec<Row> = Vec::new();
    for &cache in &[false, true] {
        for &workers in &WORKER_COUNTS {
            let service = TwigService::over(
                build_engine(&forest),
                ServiceOptions {
                    result_cache_capacity: if cache { 4096 } else { 0 },
                    ..Default::default()
                },
            );
            // Warm-up pass (index pools + plan cache), then best-of-3
            // timed passes (min wall time damps scheduler noise, which
            // dominates on small hosts). Cache-hit rates are computed
            // from post-warm-up deltas so they reflect steady state.
            for (t, s) in &stream {
                let _ = service.execute(t, *s).unwrap();
            }
            let warm = service.stats();
            let mut elapsed = None;
            for _ in 0..3 {
                let start = Instant::now();
                let answers = fan_out(&stream, workers, |chunk| {
                    chunk.iter().map(|(t, s)| service.execute(t, *s).unwrap()).collect()
                });
                let pass = start.elapsed();
                if elapsed.is_none_or(|best| pass < best) {
                    elapsed = Some(pass);
                }
                for (i, a) in answers.iter().enumerate() {
                    assert_eq!(
                        serialize(&a.ids),
                        baseline[i],
                        "{workers}w cache={cache}: answer {i} diverged from sequential"
                    );
                }
            }
            let elapsed = elapsed.unwrap();
            let stats = service.stats();
            let qps = stream.len() as f64 / elapsed.as_secs_f64();
            let plan_rate = delta_rate(
                stats.plan_cache.hits - warm.plan_cache.hits,
                stats.plan_cache.misses - warm.plan_cache.misses,
            );
            let result_rate = delta_rate(
                stats.result_cache.hits - warm.result_cache.hits,
                stats.result_cache.misses - warm.result_cache.misses,
            );
            println!(
                "single  workers={workers} cache={cache:<5} {:>8.0} q/s  plan_hits={plan_rate:.2} result_hits={result_rate:.2}",
                qps,
            );
            rows.push(Row {
                mode: "single",
                workers,
                cache,
                queries: stream.len(),
                warmup: 1,
                iters: 3,
                elapsed_micros: elapsed.as_micros(),
                qps,
                plan_hit_rate: plan_rate,
                result_hit_rate: result_rate,
                memo_hits: stats.memo_hits,
                memo_misses: stats.memo_misses,
            });
        }
    }

    // Batched execution: same stream, strategy-homogeneous chunks of 32.
    {
        let service = TwigService::over(
            build_engine(&forest),
            ServiceOptions { result_cache_capacity: 0, ..Default::default() },
        );
        let rp_stream: Vec<TwigPattern> =
            (0..twigs.len() * REPS).map(|i| twigs[i % twigs.len()].clone()).collect();
        let rp_baseline: Vec<Vec<u8>> = service.with_engine(|e| {
            rp_stream.iter().map(|t| serialize(&e.answer(t, Strategy::RootPaths).ids)).collect()
        });
        let start = Instant::now();
        let batches: Vec<&[TwigPattern]> = rp_stream.chunks(32).collect();
        let answers = fan_out(&batches, 4, |mine| {
            mine.iter()
                .flat_map(|b| service.execute_batch(b, Strategy::RootPaths).unwrap())
                .collect()
        });
        let elapsed = start.elapsed();
        for (i, a) in answers.iter().enumerate() {
            assert_eq!(serialize(&a.ids), rp_baseline[i], "batch answer {i} diverged");
        }
        let stats = service.stats();
        let qps = rp_stream.len() as f64 / elapsed.as_secs_f64();
        println!(
            "batch   workers=4 chunks=32  {:>8.0} q/s  memo_hits={} memo_misses={}",
            qps, stats.memo_hits, stats.memo_misses
        );
        rows.push(Row {
            mode: "batch32",
            workers: 4,
            cache: false,
            queries: rp_stream.len(),
            warmup: 0,
            iters: 1,
            elapsed_micros: elapsed.as_micros(),
            qps,
            plan_hit_rate: stats.plan_cache.hit_rate(),
            result_hit_rate: 0.0,
            memo_hits: stats.memo_hits,
            memo_misses: stats.memo_misses,
        });
    }

    let speedup = |cache: bool, from: usize, to: usize| -> f64 {
        let get = |w| {
            rows.iter()
                .find(|r| r.mode == "single" && r.workers == w && r.cache == cache)
                .map(|r| r.qps)
                .unwrap_or(0.0)
        };
        if get(from) > 0.0 {
            get(to) / get(from)
        } else {
            0.0
        }
    };
    println!(
        "\nspeedup 1->4 workers: cache off {:.2}x, cache on {:.2}x",
        speedup(false, 1, 4),
        speedup(true, 1, 4)
    );
    if cores < 2 {
        println!(
            "(single-core host: worker scaling cannot exceed 1x here; \
             rerun on a multicore machine for the scaling figure)"
        );
    } else if speedup(false, 1, 4) <= 1.0 {
        println!("WARNING: no speedup from 1->4 workers despite {cores} cores");
    }

    // Hand-rolled JSON (no serde in the offline build).
    let body: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "  {{\n    \"mode\": \"{}\",\n    \"workers\": {},\n    \"result_cache\": {},\n    \
                 \"queries\": {},\n    \"warmup\": {},\n    \"iters\": {},\n    \
                 \"elapsed_micros\": {},\n    \"qps\": {:.1},\n    \
                 \"plan_hit_rate\": {:.4},\n    \"result_hit_rate\": {:.4},\n    \
                 \"memo_hits\": {},\n    \"memo_misses\": {}\n  }}",
                r.mode,
                r.workers,
                r.cache,
                r.queries,
                r.warmup,
                r.iters,
                r.elapsed_micros,
                r.qps,
                r.plan_hit_rate,
                r.result_hit_rate,
                r.memo_hits,
                r.memo_misses
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"scale\": {scale},\n  \"host_parallelism\": {cores},\n  \
         \"speedup_1_to_4_cache_off\": {:.4},\n  \"speedup_1_to_4_cache_on\": {:.4},\n  \
         \"rows\": [\n{}\n  ]\n}}\n",
        speedup(false, 1, 4),
        speedup(true, 1, 4),
        body.join(",\n"),
    );
    let dir = std::path::Path::new("target/xtwig-results");
    if std::fs::create_dir_all(dir).is_ok() {
        let path = dir.join("fig_service.json");
        let _ = std::fs::write(&path, &json);
        println!("[results written to {}]", path.display());
    }
}
