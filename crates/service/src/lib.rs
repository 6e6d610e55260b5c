//! # xtwig-service — a concurrent twig query service
//!
//! The paper evaluates ROOTPATHS/DATAPATHS one query at a time inside a
//! relational engine; this crate is the serving layer a production
//! deployment puts in front of those indexes. A [`TwigService`] owns a
//! shared [`QueryEngine`](xtwig_core::QueryEngine) (over an
//! `Arc<XmlForest>`, so the engine is `Send + Sync`) and answers many
//! concurrent twig queries, each on its caller's thread:
//!
//! * **Dispatch + admission control** — [`TwigService::execute`]
//!   answers on the caller's thread against a pinned epoch (the network
//!   front end's one-connection-one-dispatcher model; in-process
//!   callers share the service across their own threads). Every call,
//!   single or batch, draws from one bounded [`Admission`] budget that
//!   sheds load with a typed [`ServiceError::Overloaded`] instead of
//!   letting load pile up without bound.
//! * **Plan cache** — keyed by canonicalized twig *shape* (tags, axes,
//!   value-predicate structure, output node), so repeated shapes skip
//!   `decompose`/`choose_plan` and differ only in the literals rebound
//!   into the cached cover (parameterized-plan semantics; the shape
//!   reuse argument follows the tree-pattern survey literature).
//! * **Result cache** — an LRU over exact queries with generation-based
//!   invalidation: every committed [`TwigService::apply_update`]
//!   publishes a new generation, atomically staling every cached
//!   result (and the cache refuses to let a slow writer's stale answer
//!   clobber a newer generation's entry).
//! * **Batched execution** — [`TwigService::execute_batch`] evaluates a
//!   group of queries with a shared probe memo, so queries sharing a
//!   PCsubpath (same tags/anchoring/value) hit the indexes once.
//! * **Snapshot-isolated maintenance** — [`TwigService::apply_update`]
//!   commits a batch of [`UpdateOp`]s by forking the current engine
//!   (copy-on-write — no page copies) and publishing the fork as the
//!   next epoch; readers pin an epoch and never block on a writer.
//!   Every op is journaled, and [`TwigService::rebuild_parallel`]
//!   replays the journal onto the freshly built engine before swapping
//!   it in, so rebuilds cannot lose concurrent updates.
//!   [`TwigService::persist`] folds the accumulated overlay pages into
//!   a new base image on disk.
//! * **Stats** — [`TwigService::stats`] snapshots cache hit rates,
//!   queries in flight, per-strategy latency histograms, and per-strategy
//!   cost counters (probes, rows fetched, logical/physical page reads,
//!   optimizer picks), and renders them as JSON for the bench harness.
//! * **Auto strategy selection** — queries may name
//!   [`Strategy::Auto`](xtwig_core::Strategy::Auto): the service
//!   resolves it through the engine's cost model (memoized per shape in
//!   the plan cache), keys the result cache on the resolved concrete
//!   strategy, and counts each pick in the stats.
//! * **Multi-index catalog** — a [`Catalog`] serves many persisted
//!   `.xtwig` indexes by name, opening them on demand and keeping an
//!   LRU of attached services (eviction never cuts off in-flight
//!   holders; they keep their `Arc`).
//!
//! ## Quickstart
//!
//! ```
//! use xtwig_service::{ServiceOptions, TwigService};
//! use xtwig_core::{parse_xpath, Strategy};
//! use xtwig_core::engine::EngineOptions;
//! use xtwig_xml::tree::fig1_book_document;
//!
//! let service = TwigService::build(
//!     fig1_book_document(),
//!     EngineOptions { pool_pages: 256, ..Default::default() },
//!     ServiceOptions::default(),
//! );
//! let twig = parse_xpath("/book[title='XML']//author[fn='jane'][ln='doe']").unwrap();
//! let answer = service.execute(&twig, Strategy::RootPaths).unwrap();
//! assert_eq!(answer.ids.len(), 1);
//! ```

pub mod admission;
pub mod cache;
pub mod catalog;
pub mod events;
pub mod metrics;
pub mod service;
pub mod shape;
pub mod stats;

pub use admission::{Admission, Permit};
pub use cache::{CacheStats, PlanCache, ResultCache};
pub use catalog::{Catalog, CatalogEntry, CatalogError, CatalogOptions, CatalogStats};
pub use events::{Event, EventJournal, JournalEntry, EVENT_KINDS};
pub use metrics::{render_metrics, MetricsRegistry, SlowQuery};
pub use service::{
    RequestCtx, ServiceAnswer, ServiceError, ServiceOptions, SharedEngine, TwigService, UpdateOp,
};
pub use shape::{exact_key, shape_key};
pub use stats::{
    json_escape, LatencySnapshot, ServiceSnapshot, ServiceStats, StrategyCostSnapshot,
};
