//! `fig_net` — the wire's cost (no paper counterpart; the ROADMAP's
//! server item): what serving a twig query over TCP adds on top of
//! in-process dispatch.
//!
//! The network suite proves wire answers are byte-identical to
//! in-process execution; this figure prices the layer. An XMark index
//! is persisted, served through a [`Catalog`] by a real `Server` on a
//! loopback socket, and the same query stream is timed through both
//! doors. Timing rows:
//!
//! * `inproc/query` — `TwigService::execute` on the caller's thread,
//!   the exact dispatch path a server connection thread uses;
//! * `wire/ping` — an empty protocol round trip (frame encode + TCP
//!   loopback + frame decode), the floor the transport imposes;
//! * `wire/query` — the full client round trip: encode, send, execute
//!   on the connection thread, encode ids, decode. The gap to
//!   `inproc/query` minus `wire/ping` is id-serialization cost;
//! * `wire/query_large` — the same round trip for an answer whose
//!   encoded frame is over 8 KiB (1,500 ids from a generated shelf
//!   index). A frame written in two pieces on a Nagle socket stalls
//!   here on the peer's delayed ACK, about 40 ms a round trip; one
//!   write per frame on a no-delay socket leaves only the execution
//!   and id-encoding cost.
//!
//! Result caching is off so every sample is a real execution; the
//! wire and in-process answers are asserted identical each iteration,
//! so the figure doubles as an end-to-end smoke. Rows carry
//! `group`/`bench`/`min_ns` for `bench_check` gating against
//! `BENCH_net.json` (`--allow-missing-baseline` keeps CI green until
//! a snapshot is recorded).
//!
//! Flags: `--scale <f>` (default 0.01), `--quick` (smaller scale and
//! fewer iterations — the CI smoke).

use std::sync::Arc;
use xtwig_bench::{
    host_parallelism, scale_from_args, time_loop, xmark_forest, Timings, POOL_PAGES,
};
use xtwig_core::engine::EngineOptions;
use xtwig_core::{parse_xpath, QueryEngine, Strategy};
use xtwig_net::{Client, Server};
use xtwig_service::{Catalog, CatalogOptions, ServiceOptions};
use xtwig_xml::XmlForest;

/// Ids in the `wire/query_large` answer: 1,500 × 8 bytes is well over
/// 8 KiB.
const LARGE_ANSWER_IDS: usize = 1500;

/// A shelf of `n` books: `//book` answers with `n` ids.
fn shelf_forest(n: usize) -> XmlForest {
    let mut f = XmlForest::new();
    let mut b = f.builder();
    b.open("shelf");
    for i in 0..n {
        b.leaf("book", &format!("b{i}"));
    }
    b.close();
    b.finish();
    f
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
        "# fig_net: wire round-trip cost vs in-process dispatch \
         (XMark scale {scale}, {cores} core(s))"
    );

    // Persist the index, then serve it through the catalog exactly the
    // way `xtwig serve` does — open-on-demand, zero rebuild.
    let (forest, profile) = xmark_forest(scale);
    println!("dataset: {} nodes", profile.nodes);
    let dir = std::env::temp_dir().join(format!("xtwig-fig-net-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("tmpdir");
    let engine = QueryEngine::build(
        forest,
        EngineOptions {
            strategies: vec![Strategy::RootPaths, Strategy::DataPaths],
            pool_pages: POOL_PAGES,
            ..Default::default()
        },
    );
    engine.persist(dir.join("xmark.xtwig")).expect("persist");
    drop(engine);
    let shelf = QueryEngine::build(
        shelf_forest(LARGE_ANSWER_IDS),
        EngineOptions {
            strategies: vec![Strategy::RootPaths],
            pool_pages: POOL_PAGES,
            ..Default::default()
        },
    );
    shelf.persist(dir.join("shelf.xtwig")).expect("persist shelf");
    drop(shelf);

    // Result cache off: every sample through either door is a real
    // execution, so the wire/inproc gap is transport, not cache luck.
    let catalog = Arc::new(Catalog::new(CatalogOptions {
        service: ServiceOptions { result_cache_capacity: 0, ..Default::default() },
        ..Default::default()
    }));
    catalog.register("xmark", dir.join("xmark.xtwig"));
    catalog.register("shelf", dir.join("shelf.xtwig"));
    let server = Server::bind("127.0.0.1:0", catalog.clone()).expect("bind");
    let handle = server.handle().expect("handle");
    let server_thread = std::thread::spawn(move || server.run());
    let mut client = Client::connect(handle.addr()).expect("connect");

    let twig = parse_xpath("//person/name").expect("query parses");
    let svc = catalog.get("xmark").expect("open persisted index");
    let expected: Vec<u64> = svc
        .execute(&twig, Strategy::RootPaths)
        .expect("in-process answer")
        .ids
        .iter()
        .copied()
        .collect();
    println!("query //person/name: {} result(s)", expected.len());

    let mut timings = Timings::new("fig_net", iters, warmup);

    // Baseline: the dispatch path a connection thread runs, minus the
    // socket — direct execution on this thread.
    timings.record(
        "inproc/query",
        time_loop(warmup, iters, || {
            let a = svc.execute(&twig, Strategy::RootPaths).expect("execute");
            assert_eq!(a.ids.len(), expected.len());
        }),
    );

    // The transport floor: an empty protocol round trip.
    timings.record(
        "wire/ping",
        time_loop(warmup, iters, || {
            client.ping().expect("ping");
        }),
    );

    // The full wire round trip, answer identity asserted every time.
    timings.record(
        "wire/query",
        time_loop(warmup, iters, || {
            let a = client.query("xmark", "//person/name", "RP").expect("wire query");
            assert_eq!(a.ids, expected, "wire answer drifted from in-process");
        }),
    );

    // An answer too large for one socket-buffer-sized write.
    let books = parse_xpath("//book").expect("query parses");
    let shelf = catalog.get("shelf").expect("open persisted shelf");
    let large: Vec<u64> = shelf
        .execute(&books, Strategy::RootPaths)
        .expect("in-process answer")
        .ids
        .iter()
        .copied()
        .collect();
    assert_eq!(large.len(), LARGE_ANSWER_IDS);
    println!("query //book on the shelf: {} result(s)", large.len());
    timings.record(
        "wire/query_large",
        time_loop(warmup, iters, || {
            let a = client.query("shelf", "//book", "RP").expect("wire query");
            assert_eq!(a.ids, large, "wire answer drifted from in-process");
        }),
    );

    client.shutdown().expect("graceful shutdown");
    server_thread.join().expect("server thread").expect("server run");
    let _ = std::fs::remove_dir_all(&dir);

    timings.write(scale, &[]);
}
