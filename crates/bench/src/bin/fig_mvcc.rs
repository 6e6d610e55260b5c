//! `fig_mvcc` — snapshot-isolated maintenance figure (no paper
//! counterpart; the ROADMAP's MVCC item): what concurrent index
//! maintenance costs the readers.
//!
//! The paper's §7 discusses update mechanics but never runs queries
//! *during* maintenance. This figure does: a reader thread streams
//! queries through the service while a writer commits `UpdateOp`
//! batches as fast as it can, and the recorded rows compare reader
//! latency with the writer absent vs. present. Under the epoch design
//! readers pin a snapshot and never wait on the writer, so the two
//! distributions should sit close together — a gap is the cost of
//! sharing cores, not of sharing locks. Timing rows:
//!
//! * `reader/solo` — per-query service latency, no maintenance running;
//! * `reader/with_writer` — the same stream while a writer publishes
//!   epochs continuously;
//! * `update/commit` — one `apply_update` round trip (fork, apply,
//!   journal, publish).
//!
//! Rows are emitted with `group`/`bench`/`min_ns` fields so
//! `bench_check` can gate them against the committed `BENCH_mvcc.json`
//! snapshot (`--allow-missing-baseline` keeps CI green until one is
//! recorded).
//!
//! Flags: `--scale <f>` (default 0.01), `--quick` (smaller scale and
//! fewer iterations — the CI smoke).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use xtwig_bench::{
    host_parallelism, scale_from_args, time_loop, xmark_forest, Timings, POOL_PAGES,
};
use xtwig_core::engine::EngineOptions;
use xtwig_core::{parse_xpath, Strategy};
use xtwig_service::{ServiceOptions, TwigService, UpdateOp};
use xtwig_xml::TagId;

/// The ops inserting one synthetic person (node ids derived from `k`)
/// whose name leaf holds a unique value — every commit is a distinct
/// update the final lost-update check can look for.
fn round_ops(tags: &[TagId], k: u64) -> Vec<UpdateOp> {
    let person = 1_000_000 + 2 * k;
    vec![
        UpdateOp::InsertPath { tags: tags[..3].to_vec(), ids: vec![1, 2, person], value: None },
        UpdateOp::InsertPath {
            tags: tags.to_vec(),
            ids: vec![1, 2, person, person + 1],
            value: Some(format!("mvcc-writer-{k}")),
        },
    ]
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let scale = if args.iter().any(|a| a == "--scale") || std::env::var_os("XTWIG_SCALE").is_some()
    {
        scale_from_args()
    } else if quick {
        0.002
    } else {
        0.01
    };
    let iters = if quick { 60 } else { 500 };
    let warmup = if quick { 5 } else { 25 };
    let cores = host_parallelism();
    println!(
        "# fig_mvcc: reader latency under concurrent maintenance \
         (XMark scale {scale}, {cores} core(s))"
    );

    let (forest, profile) = xmark_forest(scale);
    println!("dataset: {} nodes", profile.nodes);
    let svc = Arc::new(TwigService::build(
        forest,
        EngineOptions {
            strategies: vec![Strategy::RootPaths, Strategy::DataPaths],
            pool_pages: POOL_PAGES,
            ..Default::default()
        },
        // Result cache off: every reader latency sample is a real
        // execution against the epoch the caller pinned.
        ServiceOptions { result_cache_capacity: 0, ..Default::default() },
    ));
    let tags: Vec<TagId> = svc.with_engine(|e| {
        let dict = e.forest().dict();
        ["site", "people", "person", "name"]
            .iter()
            .map(|t| dict.lookup(t).expect("xmark tag"))
            .collect()
    });
    let twig = parse_xpath("//person/name").expect("query parses");

    let mut timings = Timings::new("fig_mvcc", iters, warmup);

    // Baseline: the reader stream with no maintenance anywhere.
    timings.record(
        "reader/solo",
        time_loop(warmup, iters, || {
            let a = svc.execute(&twig, Strategy::RootPaths).unwrap();
            assert!(!a.ids.is_empty());
        }),
    );

    // One apply_update round trip: fork the epoch, apply, journal,
    // publish. This is the full writer-side commit cost. (No untimed
    // warmup: each commit mutates state, and the first fork is as real
    // a cost as the last.)
    let mut commit_k = 0u64;
    timings.record(
        "update/commit",
        time_loop(0, iters.min(200), || {
            svc.apply_update(round_ops(&tags, commit_k));
            commit_k += 1;
        }),
    );

    // The contended case: the writer publishes epochs continuously
    // while the reader streams the same workload. Snapshot isolation
    // means the reader never waits on the writer's locks.
    let stop = Arc::new(AtomicBool::new(false));
    let commits = Arc::new(AtomicU64::new(0));
    let writer = {
        let (svc, stop, commits) = (svc.clone(), stop.clone(), commits.clone());
        let tags = tags.clone();
        std::thread::spawn(move || {
            let mut k = commit_k;
            while !stop.load(Ordering::SeqCst) {
                svc.apply_update(round_ops(&tags, k));
                commits.store(k - commit_k + 1, Ordering::SeqCst);
                k += 1;
            }
            k - 1
        })
    };
    while commits.load(Ordering::SeqCst) == 0 {
        std::thread::yield_now(); // writer warm before sampling
    }
    let contended = time_loop(warmup, iters, || {
        let a = svc.execute(&twig, Strategy::RootPaths).unwrap();
        assert!(!a.ids.is_empty());
    });
    stop.store(true, Ordering::SeqCst);
    let last_k = writer.join().unwrap();
    timings.record("reader/with_writer", contended);
    println!("writer committed {} updates during the contended window", last_k - commit_k + 1);

    // Lost-update check: every commit the writer made must be visible
    // now that its epoch is published (the bench doubles as a stress).
    for k in [0, commit_k.saturating_sub(1), last_k] {
        let probe = parse_xpath(&format!("//person[name='mvcc-writer-{k}']")).expect("probe");
        let a = svc.execute(&probe, Strategy::RootPaths).unwrap();
        assert_eq!(
            a.ids.iter().copied().collect::<Vec<_>>(),
            vec![1_000_000 + 2 * k],
            "committed update {k} lost"
        );
    }
    let stats = svc.stats();
    println!(
        "journal: {} ops across {} updates, generation {}",
        stats.journal_ops, stats.updates, stats.generation
    );

    timings.write(scale, &[("updates", stats.updates)]);
}
