//! Integration: snapshot-isolated MVCC maintenance (`xtwig-service`).
//!
//! Guards the concurrency contract this layer exists for: readers pin
//! an engine epoch and never block on writers; every committed
//! `apply_update` survives any interleaving of concurrent rebuilds
//! (journal replay — the lost-update fix); and answers under load are
//! byte-identical to a sequential oracle across all seven strategies.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use xtwig::prelude::*;
use xtwig::xml::TagId;

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
        b.close();
        b.finish();
    }
    f
}

fn service() -> TwigService {
    TwigService::build(
        library_forest(),
        EngineOptions { pool_pages: 512, ..Default::default() },
        ServiceOptions::default(),
    )
}

fn author_tags(svc: &TwigService) -> Vec<TagId> {
    svc.with_engine(|e| {
        let dict = e.forest().dict();
        ["book", "allauthors", "author", "fn"].iter().map(|t| dict.lookup(t).unwrap()).collect()
    })
}

/// The ops inserting one author node (id `10_000 + 2k`) whose fn leaf
/// holds the unique value `w{k}` — each committed round is a distinct,
/// individually checkable update.
fn round_ops(tags: &[TagId], k: u64) -> Vec<UpdateOp> {
    let author = 10_000 + 2 * k;
    vec![
        UpdateOp::InsertPath { tags: tags[..3].to_vec(), ids: vec![1, 3, author], value: None },
        UpdateOp::InsertPath {
            tags: tags.to_vec(),
            ids: vec![1, 3, author, author + 1],
            value: Some(format!("w{k}")),
        },
    ]
}

/// Canonical byte encoding of an answer (sorted ids, fixed-width LE).
fn serialize(ids: &BTreeSet<u64>) -> Vec<u8> {
    ids.iter().flat_map(|id| id.to_le_bytes()).collect()
}

#[test]
fn concurrent_updates_rebuilds_and_readers_lose_nothing() {
    // The PR's acceptance stress: a writer committing updates, a
    // rebuild storm, and reader threads all interleave freely. Zero
    // committed updates may be lost, and every in-flight answer must be
    // a consistent snapshot: either empty (epoch predates the commit)
    // or exactly the committed id — never a torn in-between.
    const ROUNDS: u64 = 24;
    let svc = Arc::new(service());
    let tags = author_tags(&svc);
    let committed = Arc::new(AtomicU64::new(0));
    let stop = Arc::new(AtomicBool::new(false));

    let writer = {
        let (svc, tags, committed) = (svc.clone(), tags.clone(), committed.clone());
        std::thread::spawn(move || {
            for k in 0..ROUNDS {
                svc.apply_update(round_ops(&tags, k));
                committed.store(k + 1, Ordering::SeqCst);
            }
        })
    };
    let rebuilder = {
        let (svc, stop) = (svc.clone(), stop.clone());
        std::thread::spawn(move || {
            let mut rebuilds = 0u32;
            while !stop.load(Ordering::SeqCst) {
                svc.rebuild_parallel(EngineOptions { pool_pages: 512, ..Default::default() }, 3);
                rebuilds += 1;
            }
            rebuilds
        })
    };
    let readers: Vec<_> = (0..3)
        .map(|r| {
            let (svc, stop, committed) = (svc.clone(), stop.clone(), committed.clone());
            std::thread::spawn(move || {
                let mut checked = 0u64;
                while !stop.load(Ordering::SeqCst) {
                    let horizon = committed.load(Ordering::SeqCst);
                    if horizon == 0 {
                        std::thread::yield_now();
                        continue;
                    }
                    let k = (checked + r) % horizon;
                    let twig = parse_xpath(&format!("//author[fn='w{k}']")).unwrap();
                    let a = svc.execute(&twig, Strategy::RootPaths).unwrap();
                    let got: Vec<u64> = a.ids.iter().copied().collect();
                    assert!(
                        got.is_empty() || got == vec![10_000 + 2 * k],
                        "reader {r}: torn snapshot for w{k}: {got:?}"
                    );
                    checked += 1;
                }
                checked
            })
        })
        .collect();

    writer.join().unwrap();
    // One more rebuild *after* the last commit, then stop: the final
    // engine is a rebuild product, so the zero-lost-updates check below
    // exercises the journal replay, not just the fork path.
    svc.rebuild_parallel(EngineOptions { pool_pages: 512, ..Default::default() }, 3);
    stop.store(true, Ordering::SeqCst);
    let rebuilds = rebuilder.join().unwrap();
    for r in readers {
        assert!(r.join().unwrap() > 0, "reader did useful work");
    }

    // Zero lost updates, on every maintainable structure.
    for k in 0..ROUNDS {
        let twig = parse_xpath(&format!("//author[fn='w{k}']")).unwrap();
        for s in [Strategy::RootPaths, Strategy::DataPaths] {
            let a = svc.execute(&twig, s).unwrap();
            assert_eq!(
                a.ids.iter().copied().collect::<Vec<_>>(),
                vec![10_000 + 2 * k],
                "{s}: update w{k} lost (rebuild raced apply_update)"
            );
        }
    }
    let stats = svc.stats();
    assert_eq!(stats.updates, ROUNDS);
    assert_eq!(stats.journal_ops, 2 * ROUNDS);
    assert!(stats.rebuilds >= 1);
    assert!(
        stats.replayed_ops >= 2 * ROUNDS,
        "the post-commit rebuild must have replayed the full journal"
    );
    eprintln!("stress: {} rebuilds raced {} updates", rebuilds + 1, stats.updates);
    assert!(Arc::try_unwrap(svc).is_ok(), "service still shared");
}

#[test]
fn deterministic_update_rebuild_interleaving_keeps_every_update() {
    // The minimal lost-update reproduction, with no scheduler luck
    // involved: strictly alternate apply_update and rebuild_parallel.
    // Before the journal-replay fix, every rebuild discarded all
    // earlier updates (it re-read only the static forest).
    let svc = service();
    let tags = author_tags(&svc);
    for k in 0..4 {
        svc.apply_update(round_ops(&tags, k));
        svc.rebuild_parallel(EngineOptions { pool_pages: 512, ..Default::default() }, 2);
    }
    for k in 0..4u64 {
        let twig = parse_xpath(&format!("//author[fn='w{k}']")).unwrap();
        for s in [Strategy::RootPaths, Strategy::DataPaths] {
            let a = svc.execute(&twig, s).unwrap();
            assert_eq!(
                a.ids.iter().copied().collect::<Vec<_>>(),
                vec![10_000 + 2 * k],
                "{s}: w{k} lost after {} interleaved rebuilds",
                4 - k
            );
        }
    }
    let stats = svc.stats();
    assert_eq!(stats.rebuilds, 4);
    // Rebuild r replays the 2(r+1) ops journaled so far: 2+4+6+8.
    assert_eq!(stats.replayed_ops, 20);
}

#[test]
fn answers_under_concurrent_writes_match_the_sequential_oracle() {
    // Queries whose answers the writer's inserts do NOT touch must be
    // byte-identical to a pre-computed sequential oracle across all
    // seven strategies, no matter how many epochs publish mid-flight.
    const QUERIES: [&str; 5] = [
        "/book[title='XML']//author[fn='jane'][ln='doe']",
        "/book[title='XML']/year",
        "//author[fn='john']/ln",
        "/book[year='2000']/chapter/title",
        "/book[title='SQL']//ln[. = 'poe']",
    ];
    let svc = Arc::new(TwigService::build(
        library_forest(),
        EngineOptions { pool_pages: 512, ..Default::default() },
        // Result cache off: every answer is a real execution against
        // whatever epoch the caller pinned.
        ServiceOptions { result_cache_capacity: 0, ..Default::default() },
    ));
    let tags = author_tags(&svc);
    let twigs: Vec<TwigPattern> = QUERIES.iter().map(|q| parse_xpath(q).unwrap()).collect();
    let oracle: Vec<Vec<u8>> = svc.with_engine(|engine| {
        twigs
            .iter()
            .flat_map(|t| Strategy::ALL.iter().map(|s| serialize(&engine.answer(t, *s).ids)))
            .collect()
    });
    let stop = Arc::new(AtomicBool::new(false));
    let writer = {
        let (svc, stop) = (svc.clone(), stop.clone());
        std::thread::spawn(move || {
            let mut k = 0;
            while !stop.load(Ordering::SeqCst) {
                svc.apply_update(round_ops(&tags, k));
                k += 1;
            }
            k
        })
    };
    for round in 0..4 {
        // One caller thread per twig, all racing the writer.
        let answers: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = twigs
                .iter()
                .map(|t| {
                    let svc = &svc;
                    scope.spawn(move || {
                        Strategy::ALL
                            .iter()
                            .map(|s| svc.execute(t, *s).unwrap())
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles.into_iter().flat_map(|h| h.join().unwrap()).collect()
        });
        for (i, a) in answers.into_iter().enumerate() {
            assert_eq!(
                serialize(&a.ids),
                oracle[i],
                "round {round}: answer {i} diverged from the sequential oracle"
            );
        }
    }
    stop.store(true, Ordering::SeqCst);
    let commits = writer.join().unwrap();
    assert!(commits > 0, "the writer must actually have raced the readers");
    assert!(Arc::try_unwrap(svc).is_ok(), "service still shared");
}

#[test]
fn service_persist_folds_updates_and_reopens_for_serving() {
    // update → persist (fold) → TwigService::open: the reopened service
    // serves the folded updates on every strategy that can see them,
    // and the untouched corpus on all seven.
    let dir = std::env::temp_dir().join(format!(
        "xtwig-mvcc-fold-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let path: PathBuf = dir.join("svc.xtwig");
    let svc = service();
    let tags = author_tags(&svc);
    svc.apply_update(round_ops(&tags, 0));
    svc.apply_update(round_ops(&tags, 1));
    svc.persist(&path).unwrap();
    assert_eq!(svc.stats().folds, 1);

    let reopened = TwigService::open(&path, ServiceOptions::default()).unwrap();
    for k in 0..2u64 {
        let twig = parse_xpath(&format!("//author[fn='w{k}']")).unwrap();
        for s in [Strategy::RootPaths, Strategy::DataPaths] {
            let a = reopened.execute(&twig, s).unwrap();
            assert_eq!(
                a.ids.iter().copied().collect::<Vec<_>>(),
                vec![10_000 + 2 * k],
                "{s}: folded update w{k} missing after reopen"
            );
        }
    }
    let jane = parse_xpath("//author[fn='jane']").unwrap();
    let expected = reopened.with_engine(|e| e.answer(&jane, Strategy::RootPaths).ids);
    for s in Strategy::ALL {
        let a = reopened.execute(&jane, s).unwrap();
        assert_eq!(*a.ids, expected, "{s}: corpus answer diverged after fold+reopen");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
