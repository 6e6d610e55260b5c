//! `fig_obs` — tracing-overhead figure (no paper counterpart; the
//! ROADMAP's observability item): what span tracing costs when it is
//! on, and that it costs nothing when it is off.
//!
//! The engine has one executor body, generic over a tracer:
//! `answer_compiled_with` runs it with the no-op `NoTrace`, whose hooks
//! are all empty, and `answer_compiled_traced` runs it with a `Trace`
//! that opens a span per pipeline stage. Tracing-off overhead is
//! therefore zero *by construction* — the untraced instance compiles
//! no tracing work at all — and this figure measures the remaining
//! question: the cost of the traced path itself, which
//! `explain --analyze`, the slow-query log, and `advise` all pay. The
//! `*/off` rows also guard the untraced instance against regressions.
//!
//! Both workloads interleave off/on samples (so frequency scaling and
//! cache state hit both sides equally) and assert after every pair
//! that the traced answer is identical — same result ids, same probe
//! and row counts — to the untraced one.
//!
//! Rows are emitted with `group`/`bench`/`min_ns` fields so
//! `bench_check` can gate them against the committed `BENCH_obs.json`
//! snapshot (`--allow-missing-baseline` keeps CI green until one is
//! recorded).
//!
//! Flags: `--scale <f>` (default 0.02), `--quick` (smaller scale and
//! fewer iterations — the CI smoke).

use std::time::{Duration, Instant};
use xtwig_bench::{engine, host_parallelism, min_mean, scale_from_args, xmark_forest, Timings};
use xtwig_core::engine::Strategy;
use xtwig_core::{parse_xpath, Trace};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let scale = if args.iter().any(|a| a == "--scale") || std::env::var_os("XTWIG_SCALE").is_some()
    {
        scale_from_args()
    } else if quick {
        0.002
    } else {
        0.02
    };
    let iters = if quick { 40 } else { 200 };
    let warmup = if quick { 5 } else { 20 };
    let cores = host_parallelism();
    println!("# fig_obs: span-tracing overhead (XMark scale {scale}, {cores} core(s))");

    let (forest, profile) = xmark_forest(scale);
    println!("dataset: {} nodes", profile.nodes);
    // One scan-family and one walk-family strategy: the Edge family's
    // deferred-counter drain is the traced path's most intrusive edit,
    // so it must be under the overhead measurement.
    let engine = engine(&forest, &[Strategy::RootPaths, Strategy::Edge]);

    let workloads: [(&str, &str, Strategy); 2] = [
        ("single_path", "//person/name", Strategy::RootPaths),
        ("twig", "/site//item[quantity = '2']/location", Strategy::Edge),
    ];

    let mut timings = Timings::new("fig_obs", iters, warmup);
    for (name, xpath, strategy) in workloads {
        let twig = parse_xpath(xpath).expect("workload query parses");
        let (compiled, plan) = engine.compile(&twig).expect("workload tags exist");

        for _ in 0..warmup {
            let _ = engine.answer_compiled_with(&compiled, &plan, strategy, None);
            let mut trace = Trace::new();
            let _ = engine.answer_compiled_traced(&compiled, &plan, strategy, None, &mut trace);
        }

        let mut off: Vec<Duration> = Vec::with_capacity(iters);
        let mut on: Vec<Duration> = Vec::with_capacity(iters);
        for _ in 0..iters {
            let start = Instant::now();
            let a = engine.answer_compiled_with(&compiled, &plan, strategy, None);
            off.push(start.elapsed());

            let mut trace = Trace::new();
            let start = Instant::now();
            let b = engine.answer_compiled_traced(&compiled, &plan, strategy, None, &mut trace);
            on.push(start.elapsed());

            // Tracing must be purely observational.
            assert_eq!(a.ids, b.ids, "{name}: traced ids diverged");
            assert_eq!(a.metrics.probes, b.metrics.probes, "{name}: traced probes diverged");
            assert_eq!(
                a.metrics.rows_fetched, b.metrics.rows_fetched,
                "{name}: traced rows diverged"
            );
            assert!(!trace.is_empty(), "{name}: traced run produced no spans");
        }

        let (off_min, off_mean) = min_mean(&off);
        let (on_min, on_mean) = min_mean(&on);
        let overhead =
            (on_mean.as_secs_f64() - off_mean.as_secs_f64()) / off_mean.as_secs_f64() * 100.0;
        println!(
            "{name:<12} [{}] off min {:>9.1} us mean {:>9.1} us | on min {:>9.1} us mean {:>9.1} us | tracing-on overhead {overhead:+.1}%",
            strategy.label(),
            off_min.as_secs_f64() * 1e6,
            off_mean.as_secs_f64() * 1e6,
            on_min.as_secs_f64() * 1e6,
            on_mean.as_secs_f64() * 1e6,
        );
        timings.record(format!("{name}/off"), (off_min, off_mean));
        timings.record(format!("{name}/on"), (on_min, on_mean));
    }
    println!(
        "tracing-off overhead: 0% by construction — the untraced path runs \
         `execute` with the empty `NoTrace` hooks, so no tracing work is compiled into it"
    );

    timings.write(scale, &[]);
}
