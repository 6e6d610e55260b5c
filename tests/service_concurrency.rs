//! Integration: the concurrent query service (`xtwig-service`).
//!
//! Guards the serving-layer contract: many caller threads over one shared
//! engine answer exactly like the naive matcher and like sequential
//! execution, across all seven §5.1.2 strategies; and the §7 updates
//! path invalidates cached results via the generation counter.

use std::collections::BTreeSet;
use std::sync::Arc;
use xtwig::prelude::*;
use xtwig::xml::naive;

fn library_forest() -> XmlForest {
    let mut f = XmlForest::new();
    for i in 0..6 {
        let mut b = f.builder();
        b.open("book");
        b.leaf("title", if i % 2 == 0 { "XML" } else { "SQL" });
        b.leaf("year", if i < 3 { "2000" } else { "2005" });
        b.open("allauthors");
        for j in 0..3 {
            b.open("author");
            b.leaf("fn", ["jane", "john", "mary"][(i + j) % 3]);
            b.leaf("ln", ["doe", "poe"][(i * j) % 2]);
            b.close();
        }
        b.close();
        b.open("chapter");
        b.leaf("title", "Intro");
        b.open("section");
        b.leaf("head", if i == 0 { "Origins" } else { "Basics" });
        b.close();
        b.close();
        b.close();
        b.finish();
    }
    f
}

const QUERIES: [&str; 8] = [
    "/book[title='XML']//author[fn='jane'][ln='doe']",
    "/book[title='XML']/year",
    "//author[fn='john']/ln",
    "//author[fn='mary']",
    "/book[year='2000']/chapter/title",
    "/book//section[head='Origins']",
    "//section/head",
    "/book[title='SQL']//ln[. = 'poe']",
];

#[test]
fn concurrent_submissions_agree_with_naive_across_all_strategies() {
    let forest = library_forest();
    let expected: Vec<BTreeSet<u64>> = QUERIES
        .iter()
        .map(|q| {
            let twig = parse_xpath(q).unwrap();
            naive::select(&forest, &twig).into_iter().map(|n| n.0).collect()
        })
        .collect();
    let service = TwigService::build(
        forest,
        EngineOptions { pool_pages: 512, ..Default::default() },
        ServiceOptions::default(),
    );
    // Two passes so the second round exercises the result cache; the
    // answers must be identical either way.
    for round in 0..2 {
        // One caller thread per query, all dispatching at once.
        let answers: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = QUERIES
                .iter()
                .map(|q| {
                    let service = &service;
                    scope.spawn(move || {
                        let twig = parse_xpath(q).unwrap();
                        Strategy::ALL
                            .iter()
                            .map(|s| service.execute(&twig, *s).unwrap())
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles.into_iter().flat_map(|h| h.join().unwrap()).collect()
        });
        for (i, answer) in answers.into_iter().enumerate() {
            let (qi, s) = (i / Strategy::ALL.len(), Strategy::ALL[i % Strategy::ALL.len()]);
            assert_eq!(
                *answer.ids, expected[qi],
                "round {round}: {s} disagrees with naive on {}",
                QUERIES[qi]
            );
        }
    }
    let stats = service.stats();
    assert_eq!(stats.submitted, 2 * (QUERIES.len() * Strategy::ALL.len()) as u64);
    assert_eq!(stats.completed, stats.submitted);
    assert!(stats.result_cache.hits >= (QUERIES.len() * Strategy::ALL.len()) as u64);
}

#[test]
fn eight_workers_match_sequential_execution_byte_for_byte() {
    let forest = library_forest();
    let service = TwigService::build(
        forest,
        EngineOptions { pool_pages: 512, ..Default::default() },
        // Result cache off: every concurrent answer is a real execution.
        ServiceOptions { result_cache_capacity: 0, ..Default::default() },
    );
    let twigs: Vec<TwigPattern> = QUERIES.iter().map(|q| parse_xpath(q).unwrap()).collect();
    // Sequential baseline through the same engine.
    let sequential: Vec<Vec<u8>> = service.with_engine(|engine| {
        twigs
            .iter()
            .flat_map(|t| Strategy::ALL.iter().map(|s| serialize(&engine.answer(t, *s).ids)))
            .collect()
    });
    // Concurrent submission from multiple submitter threads.
    let service = Arc::new(service);
    let mut all: Vec<(usize, Vec<u8>)> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for (qi, twig) in twigs.iter().enumerate() {
            let service = service.clone();
            handles.push(scope.spawn(move || {
                let mut out = Vec::new();
                for (si, s) in Strategy::ALL.iter().enumerate() {
                    let a = service.execute(twig, *s).unwrap();
                    out.push((qi * Strategy::ALL.len() + si, serialize(&a.ids)));
                }
                out
            }));
        }
        handles.into_iter().flat_map(|h| h.join().unwrap()).collect()
    });
    all.sort_by_key(|(i, _)| *i);
    for (i, bytes) in all {
        assert_eq!(bytes, sequential[i], "answer {i} not byte-identical");
    }
}

/// Canonical byte encoding of an answer (sorted ids, fixed-width LE).
fn serialize(ids: &BTreeSet<u64>) -> Vec<u8> {
    ids.iter().flat_map(|id| id.to_le_bytes()).collect()
}

#[test]
fn update_invalidates_cached_results_after_generation_bump() {
    let service = TwigService::build(
        library_forest(),
        EngineOptions {
            strategies: vec![Strategy::RootPaths, Strategy::DataPaths],
            pool_pages: 512,
            ..Default::default()
        },
        ServiceOptions::default(),
    );
    let twig = parse_xpath("//author[fn='ada']").unwrap();
    // Prime the cache with the (empty) answer, twice to confirm a hit.
    assert!(service.execute(&twig, Strategy::RootPaths).unwrap().ids.is_empty());
    assert!(service.execute(&twig, Strategy::RootPaths).unwrap().from_cache);
    assert_eq!(service.generation(), 0);
    // §7: insert /book/allauthors/author[fn='ada'].
    let tags: Vec<_> = service.with_engine(|engine| {
        let dict = engine.forest().dict();
        ["book", "allauthors", "author", "fn"].iter().map(|t| dict.lookup(t).unwrap()).collect()
    });
    service.apply_update(vec![
        UpdateOp::InsertPath { tags: tags[..3].to_vec(), ids: vec![1, 3, 7_000], value: None },
        UpdateOp::InsertPath { tags, ids: vec![1, 3, 7_000, 7_001], value: Some("ada".into()) },
    ]);
    assert_eq!(service.generation(), 1);
    let after = service.execute(&twig, Strategy::RootPaths).unwrap();
    assert!(!after.from_cache, "generation bump must stale the cached empty result");
    assert_eq!(after.ids.iter().copied().collect::<Vec<_>>(), vec![7_000]);
    let stats = service.stats();
    assert_eq!(stats.updates, 1);
    assert!(stats.result_cache.invalidated >= 1);
}

#[test]
fn batched_stream_agrees_with_singles_and_saves_probes() {
    let forest = library_forest();
    let service = TwigService::build(
        forest,
        EngineOptions {
            strategies: vec![Strategy::RootPaths],
            pool_pages: 512,
            ..Default::default()
        },
        ServiceOptions { result_cache_capacity: 0, ..Default::default() },
    );
    let twigs: Vec<TwigPattern> = QUERIES.iter().map(|q| parse_xpath(q).unwrap()).collect();
    let batched = service.execute_batch(&twigs, Strategy::RootPaths).unwrap();
    for (twig, answer) in twigs.iter().zip(&batched) {
        let single = service.execute(twig, Strategy::RootPaths).unwrap();
        assert_eq!(answer.ids, single.ids, "batch answer differs on {twig}");
    }
    let stats = service.stats();
    assert_eq!(stats.batches, 1);
    assert_eq!(stats.batch_queries, QUERIES.len() as u64);
}
