//! Criterion bench for the `xtwig-service` serving layer: queries/sec
//! through `TwigService::execute` from increasing numbers of caller
//! threads (the `Nw` label), with the result cache off (every query
//! executes) and on (steady-state hits).
//!
//! Complements `fig_service`, which records absolute qps and cache hit
//! rates as JSON; this bench tracks regressions in the serving hot path
//! (admission, cache lookups, execution) under the stub harness.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::sync::Arc;
use std::time::Duration;
use xtwig_bench::{fan_out, POOL_PAGES};
use xtwig_core::engine::{EngineOptions, QueryEngine, Strategy};
use xtwig_datagen::{generate_xmark, Dataset, XmarkConfig};
use xtwig_service::{ServiceOptions, TwigService};
use xtwig_xml::{TwigPattern, XmlForest};

const SCALE: f64 = 0.005; // small: the bench measures serving, not scans
const STREAM: usize = 64;

fn stream(twigs: &[TwigPattern]) -> Vec<TwigPattern> {
    (0..STREAM).map(|i| twigs[i % twigs.len()].clone()).collect()
}

fn bench_throughput(c: &mut Criterion) {
    let mut forest = XmlForest::new();
    generate_xmark(&mut forest, XmarkConfig { scale: SCALE, seed: 0xA0C });
    let forest = Arc::new(forest);
    let twigs: Vec<TwigPattern> = xtwig_datagen::xmark_queries()
        .iter()
        .filter(|q| q.dataset == Dataset::Xmark)
        .take(8)
        .map(|q| q.twig())
        .collect();
    let queries = stream(&twigs);

    let mut group = c.benchmark_group("service_throughput");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_millis(300));
    for &workers in &[1usize, 2, 4, 8] {
        for &cached in &[false, true] {
            let engine = QueryEngine::build(
                forest.clone(),
                EngineOptions {
                    // Only RP is queried below; building more would just
                    // pad the CI smoke's setup time.
                    strategies: vec![Strategy::RootPaths],
                    pool_pages: POOL_PAGES,
                    ..Default::default()
                },
            );
            let service = TwigService::over(
                engine,
                ServiceOptions {
                    result_cache_capacity: if cached { 1024 } else { 0 },
                    ..Default::default()
                },
            );
            let label = if cached { "cache_on" } else { "cache_off" };
            group.bench_with_input(
                BenchmarkId::new(label, format!("{workers}w/{STREAM}q")),
                &queries,
                |b, queries| {
                    b.iter(|| {
                        fan_out(queries, workers, |mine| {
                            mine.iter()
                                .map(|t| service.execute(t, Strategy::RootPaths).unwrap().ids.len())
                                .collect()
                        })
                        .into_iter()
                        .sum::<usize>()
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_throughput);
criterion_main!(benches);
