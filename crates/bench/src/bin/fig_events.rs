//! `fig_events` — the observability tax (no paper counterpart; PR-10's
//! gate): what the event journal and request sampling add to the
//! serving path.
//!
//! The tentpole claim is that observability is free until asked for:
//! the journal is a bounded ring behind one short mutex, and trace
//! capture happens only for sampled or slow requests. Timing rows:
//!
//! * `exec/plain` — `TwigService::execute_with` under a default
//!   (unsampled) request context, result cache off: the exact dispatch
//!   path a connection thread runs per query. This must sit within
//!   noise of the pre-journal dispatch cost.
//! * `exec/sampled` — the same call with `sample = true`: pays a full
//!   traced re-execution plus a slow-ring record. The gap to
//!   `exec/plain` is the *opt-in* price of one sampled request.
//! * `events/emit` — one journal append (lock, push, counter): the
//!   inline cost every connection/maintenance event pays.
//! * `events/since` — one cursor read of a full 256-entry ring: what
//!   an `Events` wire request costs the server.
//!
//! Rows carry `group`/`bench`/`min_ns` for `bench_check` gating
//! against `BENCH_events.json`.
//!
//! Flags: `--scale <f>` (default 0.01), `--quick` (smaller scale and
//! fewer iterations — the CI smoke).

use xtwig_bench::{
    host_parallelism, scale_from_args, time_loop, xmark_forest, Timings, POOL_PAGES,
};
use xtwig_core::engine::EngineOptions;
use xtwig_core::{parse_xpath, QueryEngine, Strategy};
use xtwig_service::{Event, EventJournal, RequestCtx, ServiceOptions, TwigService};

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
        "# fig_events: journal + sampling overhead on the serving path \
         (XMark scale {scale}, {cores} core(s))"
    );

    let (forest, profile) = xmark_forest(scale);
    println!("dataset: {} nodes", profile.nodes);
    let engine = QueryEngine::build(
        std::sync::Arc::new(forest),
        EngineOptions {
            strategies: vec![Strategy::RootPaths, Strategy::DataPaths],
            pool_pages: POOL_PAGES,
            ..Default::default()
        },
    );
    // Result cache off so every sample is a real execution; slow
    // threshold unset so `exec/plain` never captures a trace.
    let svc = TwigService::over(
        engine,
        ServiceOptions { result_cache_capacity: 0, ..Default::default() },
    );
    let twig = parse_xpath("//person/name").expect("query parses");
    let expected = svc.execute(&twig, Strategy::RootPaths).expect("warm answer").ids.len();
    println!("query //person/name: {expected} result(s)");

    let mut timings = Timings::new("fig_events", iters, warmup);

    // The unsampled dispatch path — what every ordinary wire query pays.
    let plain_ctx = RequestCtx::default();
    timings.record(
        "exec/plain",
        time_loop(warmup, iters, || {
            let a = svc.execute_with(&twig, Strategy::RootPaths, &plain_ctx).expect("execute");
            assert_eq!(a.ids.len(), expected);
        }),
    );

    // The opt-in path: sample=true re-executes traced and records into
    // the slow ring, so this row prices one sampled request end to end.
    let mut next_id = 1u64;
    timings.record(
        "exec/sampled",
        time_loop(warmup, iters, || {
            let ctx = RequestCtx { request_id: next_id, sample: true, peer: "bench:0".to_owned() };
            next_id += 1;
            let a = svc.execute_with(&twig, Strategy::RootPaths, &ctx).expect("execute sampled");
            assert_eq!(a.ids.len(), expected);
        }),
    );
    assert!(
        svc.find_trace(next_id - 1).is_some(),
        "sampled request must leave a retrievable trace"
    );

    // One journal append: the inline cost of every emitted event.
    let journal = EventJournal::new(256);
    timings.record(
        "events/emit",
        time_loop(warmup * 100, iters * 100, || {
            journal.emit(Event::SlowQuery {
                query: "//person/name".to_owned(),
                micros: 1,
                request_id: 1,
                peer: "bench:0".to_owned(),
            });
        }),
    );

    // One cursor read over a full ring: an `Events` request's server cost.
    timings.record(
        "events/since",
        time_loop(warmup, iters, || {
            let page = journal.since(0, 256);
            assert!(!page.is_empty());
        }),
    );

    timings.write(scale, &[]);
}
