//! The twig query engine: builds the seven index configurations of §5.1.2
//! and evaluates query twigs against any of them.
//!
//! Each strategy gets its own buffer pool so the harness can attribute
//! logical/physical I/O per configuration (the paper uses one DB2 buffer
//! pool but reports per-configuration timings; separate pools give the
//! same attribution without cross-strategy cache pollution). Shared base
//! structures follow the paper's setup: the DG+Edge, IF+Edge, and Join
//! Index strategies use the Edge table's value/link indexes for the parts
//! their primary structure cannot answer.
//!
//! Execution follows §3: decompose the twig into PCsubpaths, evaluate
//! each with the strategy's probe pattern, and stitch the matches with
//! joins on ids extracted from IdLists (merge plan) or with BoundIndex
//! probes (index-nested-loop plan, DATAPATHS only).

use crate::asr::AccessSupportRelations;
use crate::dataguide::DataGuide;
use crate::datapaths::{DataPaths, DataPathsOptions};
use crate::decompose::{decompose, CompiledTwig, UnknownTag};
use crate::edge::EdgeTable;
use crate::fabric::IndexFabric;
use crate::family::{
    value_needs_recheck, BoundIndex, FreeIndex, PathIndex, PathMatch, PcSubpathQuery,
};
use crate::joinindex::JoinIndices;
use crate::parallel::ShardPlan;
use crate::paths::PathStats;
use crate::plan::{choose_plan, JoinHow, PlanKind, ProbeSpec, QueryPlan};
use crate::rootpaths::{RootPaths, RootPathsOptions};
use std::borrow::Borrow;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};
use xtwig_obs::{SpanCounters, SpanToken, Trace};
use xtwig_opt::{CalibrationLog, CalibrationSample};
use xtwig_storage::{BufferPool, IoStatsSnapshot, PoolCounters};
use xtwig_xml::{NodeId, TagId, TwigPattern, XmlForest};

// The strategy menu lives in `xtwig-opt` — the cost-based decision
// layer ranks `Strategy` values, and the engine re-exports the type so
// `xtwig_core::Strategy` paths keep working. `Strategy::Auto` is the
// optimizer-resolved pseudo-strategy; every execution path below
// resolves it to a concrete configuration before touching an index
// (see [`QueryEngine::resolve_strategy`] in `crate::auto`).
pub use xtwig_opt::{ParseStrategyError, Strategy};

/// Build options for [`QueryEngine`].
#[derive(Clone)]
pub struct EngineOptions {
    /// Which strategies to materialize. Listing [`Strategy::Auto`]
    /// requests **every** concrete configuration — auto is a
    /// query-time directive, and resolving it needs the full menu
    /// built (a bare `--strategies auto` must not silently persist an
    /// index with nothing in it).
    pub strategies: Vec<Strategy>,
    /// Buffer-pool frames per structure pool (default 2048 = 16 MiB; the
    /// harness uses 5120 = 40 MiB, matching §5.1.1).
    pub pool_pages: usize,
    /// ROOTPATHS options.
    pub rp: RootPathsOptions,
    /// DATAPATHS options.
    pub dp: DataPathsOptions,
    /// §4.3 HeadId pruning: retain only DATAPATHS rows headed at these
    /// tags (None = keep everything).
    pub head_filter_tags: Option<HashSet<String>>,
    /// Stitch `//` edges with the stack-based structural join
    /// ([`crate::stitch`]) instead of IdList-ancestor unnesting — the §6
    /// alternative the paper could not run inside DB2.
    pub structural_ad_joins: bool,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions {
            strategies: Strategy::ALL.to_vec(),
            pool_pages: 2048,
            rp: RootPathsOptions::default(),
            dp: DataPathsOptions::default(),
            head_filter_tags: None,
            structural_ad_joins: false,
        }
    }
}

/// Per-query metrics.
#[derive(Debug, Clone, Copy, Default)]
pub struct QueryMetrics {
    /// Index probes issued (every B+-tree lookup counts as one).
    pub probes: u64,
    /// Match rows fetched from indexes.
    pub rows_fetched: u64,
    /// Buffer-pool page requests during the query.
    pub logical_reads: u64,
    /// Pages read from the backend (cold portion).
    pub physical_reads: u64,
    /// Wall-clock time.
    pub elapsed: Duration,
}

/// A query result.
#[derive(Debug, Clone)]
pub struct QueryAnswer {
    /// Distinct ids bound to the twig's output node.
    pub ids: BTreeSet<u64>,
    /// The plan kind that ran.
    pub plan: PlanKind,
    /// The concrete strategy that executed — the optimizer's pick when
    /// the query was submitted with [`Strategy::Auto`] (or the
    /// requested strategy verbatim when nothing executed at all, e.g.
    /// an unknown-tag twig).
    pub strategy: Strategy,
    /// Cost metrics.
    pub metrics: QueryMetrics,
}

impl QueryAnswer {
    /// The canonical answer for a twig that cannot match — e.g. it
    /// names a tag absent from the data (§2.2) — with nothing executed
    /// and all metrics zero.
    pub fn empty(strategy: Strategy) -> Self {
        QueryAnswer {
            ids: BTreeSet::new(),
            plan: PlanKind::Merge,
            strategy,
            metrics: QueryMetrics::default(),
        }
    }
}

/// Memo key: strategy, subpath pattern, interior-ids-needed flag.
type MemoKey = (Strategy, PcSubpathQuery, bool);
/// Memo value: shared matches plus the full-root-IdList flag.
type MemoEntry = (Arc<Vec<PathMatch>>, bool);

/// Memoized FreeIndex subpath lookups, shared across the queries of one
/// batch (see [`QueryEngine::answer_batch`]). Keyed by `(strategy,
/// pattern, interior-needed)` — different strategies return differently
/// shaped matches (full IdLists vs. leaf-only), so entries never cross
/// strategies.
#[derive(Default)]
pub struct ProbeMemo {
    map: HashMap<MemoKey, MemoEntry>,
    hits: u64,
    misses: u64,
}

impl ProbeMemo {
    /// An empty memo.
    pub fn new() -> Self {
        ProbeMemo::default()
    }

    /// Hit/miss counts so far.
    pub fn stats(&self) -> ProbeMemoStats {
        ProbeMemoStats { hits: self.hits, misses: self.misses }
    }
}

/// Hit/miss statistics of a [`ProbeMemo`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ProbeMemoStats {
    /// Subpath lookups answered from the memo (index probes saved).
    pub hits: u64,
    /// Subpath lookups that went to the index.
    pub misses: u64,
}

/// The engine owning all built index configurations for one forest.
///
/// Generic over how the forest is held: `QueryEngine<&XmlForest>`
/// borrows it (the historical single-threaded shape), while
/// `QueryEngine<Arc<XmlForest>>` — the default — owns a shared handle
/// and is `Send + Sync`, so one engine can serve concurrent queries
/// from many threads (`answer` takes `&self` throughout; see
/// `xtwig-service`). The only `&mut self` surface is index maintenance
/// ([`QueryEngine::rootpaths_mut`] / [`QueryEngine::datapaths_mut`]);
/// rather than serializing maintenance against readers with a lock,
/// callers fork the engine ([`QueryEngine::fork`] — a copy-on-write
/// snapshot that copies no pages), mutate the fork, and publish it,
/// leaving the original to serve concurrent readers as a frozen
/// snapshot.
///
/// Concurrency note on metrics: result sets are always exact, but the
/// per-query `probes`/`logical_reads` attribution drains shared
/// counters, so it is only exact when queries against the *same*
/// strategy do not overlap in time.
pub struct QueryEngine<F: Borrow<XmlForest> = Arc<XmlForest>> {
    // Fields are crate-visible for `crate::persist`, which flushes each
    // structure's pool into an index file and reconstructs the engine
    // from the stored catalog on open.
    pub(crate) forest: F,
    pub(crate) stats: PathStats,
    pub(crate) rp: Option<(RootPaths, Arc<BufferPool>)>,
    pub(crate) dp: Option<(DataPaths, Arc<BufferPool>)>,
    pub(crate) pruned_tags: Option<HashSet<TagId>>,
    pub(crate) edge: Option<(EdgeTable, Arc<BufferPool>)>,
    pub(crate) dg: Option<(DataGuide, Arc<BufferPool>)>,
    pub(crate) fab: Option<(IndexFabric, Arc<BufferPool>)>,
    pub(crate) asr: Option<(AccessSupportRelations, Arc<BufferPool>)>,
    pub(crate) ji: Option<(JoinIndices, Arc<BufferPool>)>,
    pub(crate) structural_ad_joins: bool,
    // Optimizer-feedback ring fed by traced executions; forks share the
    // parent's log so samples accumulate across snapshots.
    pub(crate) calibration: Arc<CalibrationLog>,
}

/// A partial result row: per-twig-node bindings plus captured ancestor
/// lists for segment roots (used by `//` joins).
#[derive(Debug, Clone)]
struct Row {
    bind: Vec<u64>,
    anc: Vec<(usize, Arc<Vec<u64>>)>,
}

const UNBOUND: u64 = u64::MAX;

impl Row {
    fn new(n: usize) -> Self {
        Row { bind: vec![UNBOUND; n], anc: Vec::new() }
    }

    fn ancestors_of(&self, node: usize) -> Option<&Arc<Vec<u64>>> {
        self.anc.iter().find(|(n, _)| *n == node).map(|(_, a)| a)
    }
}

impl<F: Borrow<XmlForest>> QueryEngine<F> {
    /// Builds the selected index configurations over `forest`.
    pub fn build(forest: F, options: EngineOptions) -> Self {
        let plan = ShardPlan::sequential(forest.borrow());
        Self::build_with_plan(forest, options, &plan)
    }

    /// Builds the selected configurations with a shard-parallel pass:
    /// the forest is partitioned into up to `shards` whole-document
    /// ranges and each structure's rows are enumerated and sorted on a
    /// worker pool, then merged into one deterministic bulk load per
    /// B+-tree. The resulting structures are **byte-identical** to
    /// [`QueryEngine::build`]'s — same page images, same answers — as
    /// asserted via [`QueryEngine::structure_digest`] in the
    /// `parallel_build` suite. `shards <= 1` degenerates to the
    /// sequential build.
    pub fn build_parallel(forest: F, options: EngineOptions, shards: usize) -> Self {
        let plan = ShardPlan::new(forest.borrow(), shards);
        Self::build_with_plan(forest, options, &plan)
    }

    /// [`QueryEngine::build_parallel`] with an explicit [`ShardPlan`]
    /// (tests pin shard boundaries and worker counts through this).
    pub fn build_with_plan(forest: F, options: EngineOptions, plan: &ShardPlan) -> Self {
        let f: &XmlForest = forest.borrow();
        let want = |s: Strategy| {
            options.strategies.contains(&s) || options.strategies.contains(&Strategy::Auto)
        };
        let needs_edge = want(Strategy::Edge)
            || want(Strategy::DataGuideEdge)
            || want(Strategy::IndexFabricEdge)
            || want(Strategy::JoinIndex);
        let pool = || Arc::new(BufferPool::in_memory(options.pool_pages));
        let stats = PathStats::build_sharded(f, plan);
        let pruned_tags = options
            .head_filter_tags
            .as_ref()
            .map(|names| names.iter().filter_map(|n| f.dict().lookup(n)).collect::<HashSet<_>>());
        let dp = want(Strategy::DataPaths).then(|| {
            let p = pool();
            let dp = match &pruned_tags {
                None => DataPaths::build_sharded(f, p.clone(), options.dp, plan),
                Some(tags) => DataPaths::build_filtered_sharded(
                    f,
                    p.clone(),
                    options.dp,
                    Some(&|_head, path_tags: &[TagId]| tags.contains(&path_tags[0])),
                    plan,
                ),
            };
            (dp, p)
        });
        let rp = want(Strategy::RootPaths).then(|| {
            let p = pool();
            (RootPaths::build_sharded(f, p.clone(), options.rp, plan), p)
        });
        let edge = needs_edge.then(|| {
            let p = pool();
            (EdgeTable::build_sharded(f, p.clone(), plan), p)
        });
        let dg = want(Strategy::DataGuideEdge).then(|| {
            let p = pool();
            (DataGuide::build_sharded(f, p.clone(), plan), p)
        });
        let fab = want(Strategy::IndexFabricEdge).then(|| {
            let p = pool();
            (IndexFabric::build_sharded(f, p.clone(), plan), p)
        });
        let asr = want(Strategy::Asr).then(|| {
            let p = pool();
            (AccessSupportRelations::build_sharded(f, p.clone(), plan), p)
        });
        let ji = want(Strategy::JoinIndex).then(|| {
            let p = pool();
            (JoinIndices::build_sharded(f, p.clone(), plan), p)
        });
        QueryEngine {
            forest,
            stats,
            rp,
            dp,
            pruned_tags,
            edge,
            dg,
            fab,
            asr,
            ji,
            structural_ad_joins: options.structural_ad_joins,
            calibration: Arc::new(CalibrationLog::new(CalibrationLog::DEFAULT_CAPACITY)),
        }
    }

    /// The forest under query.
    pub fn forest(&self) -> &XmlForest {
        self.forest.borrow()
    }

    /// A clone of the forest handle — e.g. the `Arc<XmlForest>` a
    /// background rebuild shares without copying the data (see
    /// `TwigService::rebuild_parallel`).
    pub fn forest_handle(&self) -> F
    where
        F: Clone,
    {
        self.forest.clone()
    }

    /// True when `strategy`'s structures were built (querying an
    /// unbuilt strategy panics; services check this up front).
    /// [`Strategy::Auto`] is available as soon as any concrete strategy
    /// is — the optimizer only ranks built configurations.
    pub fn has_strategy(&self, strategy: Strategy) -> bool {
        match strategy {
            Strategy::RootPaths => self.rp.is_some(),
            Strategy::DataPaths => self.dp.is_some(),
            Strategy::Edge => self.edge.is_some(),
            Strategy::DataGuideEdge => self.dg.is_some() && self.edge.is_some(),
            Strategy::IndexFabricEdge => self.fab.is_some() && self.edge.is_some(),
            Strategy::Asr => self.asr.is_some(),
            Strategy::JoinIndex => self.ji.is_some() && self.edge.is_some(),
            Strategy::Auto => Strategy::ALL.iter().any(|&s| self.has_strategy(s)),
        }
    }

    /// Mutable access to ROOTPATHS for the §7 maintenance path. Callers
    /// holding the engine behind a lock (see `xtwig-service`) must
    /// invalidate any cached results after mutating.
    pub fn rootpaths_mut(&mut self) -> Option<&mut RootPaths> {
        self.rp.as_mut().map(|(i, _)| i)
    }

    /// Mutable access to DATAPATHS; see [`QueryEngine::rootpaths_mut`].
    pub fn datapaths_mut(&mut self) -> Option<&mut DataPaths> {
        self.dp.as_mut().map(|(i, _)| i)
    }

    /// Path statistics (selectivity estimates).
    pub fn stats(&self) -> &PathStats {
        &self.stats
    }

    /// The built ROOTPATHS index, if any.
    pub fn rootpaths(&self) -> Option<&RootPaths> {
        self.rp.as_ref().map(|(i, _)| i)
    }

    /// The built DATAPATHS index, if any.
    pub fn datapaths(&self) -> Option<&DataPaths> {
        self.dp.as_ref().map(|(i, _)| i)
    }

    /// The built Edge configuration, if any.
    pub fn edge(&self) -> Option<&EdgeTable> {
        self.edge.as_ref().map(|(i, _)| i)
    }

    /// Space used by a strategy (Fig. 9): the primary structure plus any
    /// Edge structures it relies on. [`Strategy::Auto`] owns no
    /// structures of its own and reports zero.
    pub fn space_bytes(&self, strategy: Strategy) -> u64 {
        let edge = self.edge.as_ref().map_or(0, |(e, _)| e.space_bytes());
        match strategy {
            Strategy::RootPaths => self.rp.as_ref().map_or(0, |(i, _)| i.space_bytes()),
            Strategy::DataPaths => self.dp.as_ref().map_or(0, |(i, _)| i.space_bytes()),
            Strategy::Edge => edge,
            Strategy::DataGuideEdge => self.dg.as_ref().map_or(0, |(i, _)| i.space_bytes()) + edge,
            Strategy::IndexFabricEdge => {
                self.fab.as_ref().map_or(0, |(i, _)| i.space_bytes()) + edge
            }
            Strategy::Asr => self.asr.as_ref().map_or(0, |(i, _)| i.space_bytes()),
            Strategy::JoinIndex => self.ji.as_ref().map_or(0, |(i, _)| i.space_bytes()) + edge,
            Strategy::Auto => 0,
        }
    }

    pub(crate) fn pools_for(&self, strategy: Strategy) -> Vec<&Arc<BufferPool>> {
        let mut pools = Vec::new();
        match strategy {
            Strategy::RootPaths => {
                if let Some((_, p)) = &self.rp {
                    pools.push(p);
                }
            }
            Strategy::DataPaths => {
                if let Some((_, p)) = &self.dp {
                    pools.push(p);
                }
            }
            Strategy::Edge => {
                if let Some((_, p)) = &self.edge {
                    pools.push(p);
                }
            }
            Strategy::DataGuideEdge => {
                if let Some((_, p)) = &self.dg {
                    pools.push(p);
                }
                if let Some((_, p)) = &self.edge {
                    pools.push(p);
                }
            }
            Strategy::IndexFabricEdge => {
                if let Some((_, p)) = &self.fab {
                    pools.push(p);
                }
                if let Some((_, p)) = &self.edge {
                    pools.push(p);
                }
            }
            Strategy::Asr => {
                if let Some((_, p)) = &self.asr {
                    pools.push(p);
                }
            }
            Strategy::JoinIndex => {
                if let Some((_, p)) = &self.ji {
                    pools.push(p);
                }
                if let Some((_, p)) = &self.edge {
                    pools.push(p);
                }
            }
            // Auto owns no pools; metric attribution happens against
            // the concrete strategy it resolved to.
            Strategy::Auto => {}
        }
        pools
    }

    /// FNV-1a digest over the raw page images of every buffer pool
    /// backing `strategy` (the primary structure's pool, plus the Edge
    /// pool for the strategies that lean on it). Two engines built from
    /// the same forest and options digest equal iff their index pages
    /// are byte-identical — the acceptance check for
    /// [`QueryEngine::build_parallel`].
    pub fn structure_digest(&self, strategy: Strategy) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for p in self.pools_for(strategy) {
            h ^= p.content_hash();
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// Drops every cached page of the strategy's pools (flushes dirty
    /// pages first) so the next query runs cold — the paper's omitted
    /// cold-cache setting, used by the buffer-pool ablation bench.
    pub fn clear_caches(&self, strategy: Strategy) {
        for p in self.pools_for(strategy) {
            p.clear_cache();
        }
    }

    /// The engine's optimizer-feedback ring: one [`CalibrationSample`]
    /// per traced execution (see [`QueryEngine::answer_traced`]).
    /// Forks share the parent's log so samples accumulate across
    /// snapshots; indexes reopened from disk start with a fresh one.
    pub fn calibration_log(&self) -> &CalibrationLog {
        &self.calibration
    }

    /// Cheap shared counter handles, one per built structure's buffer
    /// pool: cumulative page reads, misses, and pins since build. The
    /// handles clone an `Arc` around the pool's atomics, so a metrics
    /// scraper can poll them without touching the query surface.
    pub fn pool_counters(&self) -> Vec<(&'static str, PoolCounters)> {
        let mut out = Vec::new();
        if let Some((_, p)) = &self.rp {
            out.push(("rootpaths", p.counters()));
        }
        if let Some((_, p)) = &self.dp {
            out.push(("datapaths", p.counters()));
        }
        if let Some((_, p)) = &self.edge {
            out.push(("edge", p.counters()));
        }
        if let Some((_, p)) = &self.dg {
            out.push(("dataguide", p.counters()));
        }
        if let Some((_, p)) = &self.fab {
            out.push(("fabric", p.counters()));
        }
        if let Some((_, p)) = &self.asr {
            out.push(("asr", p.counters()));
        }
        if let Some((_, p)) = &self.ji {
            out.push(("joinindex", p.counters()));
        }
        out
    }

    fn snapshot(&self, strategy: Strategy) -> IoStatsSnapshot {
        let mut total = IoStatsSnapshot::default();
        for p in self.pools_for(strategy) {
            let s = p.stats().snapshot();
            total.logical_reads += s.logical_reads;
            total.physical_reads += s.physical_reads;
            total.physical_writes += s.physical_writes;
        }
        total
    }

    fn drain_baseline_counters(&self, strategy: Strategy) -> u64 {
        let mut probes = 0;
        match strategy {
            Strategy::Edge => {
                if let Some((e, _)) = &self.edge {
                    probes += e.take_lookups();
                }
            }
            Strategy::DataGuideEdge => {
                if let Some((d, _)) = &self.dg {
                    probes += d.take_lookups();
                }
                if let Some((e, _)) = &self.edge {
                    probes += e.take_lookups();
                }
            }
            Strategy::IndexFabricEdge => {
                if let Some((f, _)) = &self.fab {
                    probes += f.take_lookups();
                }
                if let Some((e, _)) = &self.edge {
                    probes += e.take_lookups();
                }
            }
            Strategy::Asr => {
                if let Some((a, _)) = &self.asr {
                    probes += a.take_lookups();
                }
            }
            Strategy::JoinIndex => {
                if let Some((j, _)) = &self.ji {
                    probes += j.take_lookups();
                }
                if let Some((e, _)) = &self.edge {
                    probes += e.take_lookups();
                }
            }
            _ => {}
        }
        probes
    }

    /// Compiles and plans a twig in one step: the decompose/choose_plan
    /// front half of [`QueryEngine::answer`], exposed so plan caches
    /// (see `xtwig-service`) can skip it on repeated twig shapes.
    pub fn compile(&self, twig: &TwigPattern) -> Result<(CompiledTwig, QueryPlan), UnknownTag> {
        let compiled = decompose(twig, self.forest().dict())?;
        let plan = choose_plan(&compiled, &self.stats, self.forest().dict());
        Ok((compiled, plan))
    }

    /// Compiles and plans a twig (exposed for the harness' plan reports).
    pub fn plan(&self, twig: &TwigPattern) -> Option<QueryPlan> {
        self.compile(twig).ok().map(|(_, p)| p)
    }

    /// Answers `twig` with `strategy`. [`Strategy::Auto`] is resolved
    /// to the cheapest built configuration by the cost model first (see
    /// [`QueryEngine::resolve_strategy`]); the answer's `strategy`
    /// field reports what actually ran.
    ///
    /// # Panics
    /// Panics if the strategy's structures were not built.
    pub fn answer(&self, twig: &TwigPattern, strategy: Strategy) -> QueryAnswer {
        match self.compile(twig) {
            // Unknown tag: the result is necessarily empty (§2.2).
            Err(_) => QueryAnswer::empty(strategy),
            Ok((compiled, plan)) => self.answer_compiled(&compiled, &plan, strategy),
        }
    }

    /// Answers an already-compiled twig — the execution back half of
    /// [`QueryEngine::answer`], taking the plan from a cache.
    pub fn answer_compiled(
        &self,
        compiled: &CompiledTwig,
        plan: &QueryPlan,
        strategy: Strategy,
    ) -> QueryAnswer {
        self.answer_compiled_with(compiled, plan, strategy, None)
    }

    /// [`QueryEngine::answer_compiled`] with an optional cross-query
    /// [`ProbeMemo`]: structurally identical FreeIndex subpath lookups
    /// within one batch are issued once and their matches reused.
    pub fn answer_compiled_with(
        &self,
        compiled: &CompiledTwig,
        plan: &QueryPlan,
        strategy: Strategy,
        memo: Option<&mut ProbeMemo>,
    ) -> QueryAnswer {
        self.run_compiled(compiled, plan, strategy, memo, NoTrace)
    }

    /// [`QueryEngine::answer`] with pipeline tracing: returns the
    /// answer plus a [`Trace`] — a span tree covering planning,
    /// auto-resolution, every plan step (index probe, structural join,
    /// or INLJ extension), and output materialization, each with wall
    /// time, buffer-pool logical/physical read deltas, probe counts,
    /// and rows.
    ///
    /// The result and counter totals are identical to
    /// [`QueryEngine::answer`] (pinned by the `observability` suite):
    /// both run the one executor body, and the untraced instance's
    /// tracing hooks are empty, so tracing *off* costs nothing. Tracing
    /// *on* additionally ranks the strategy menu to capture the cost
    /// model's estimate and records one [`CalibrationSample`] into
    /// [`QueryEngine::calibration_log`].
    ///
    /// # Panics
    /// Panics if the strategy's structures were not built.
    pub fn answer_traced(&self, twig: &TwigPattern, strategy: Strategy) -> (QueryAnswer, Trace) {
        let mut trace = Trace::new();
        let q = trace.begin("query", strategy.label());
        let p = trace.begin("plan", "");
        match self.compile(twig) {
            Err(_) => {
                trace.annotate(p, "unknown tag: empty result");
                trace.end(p, SpanCounters::default());
                trace.end(q, SpanCounters::default());
                (QueryAnswer::empty(strategy), trace)
            }
            Ok((compiled, plan)) => {
                trace.annotate(p, format!("{:?}, {} steps", plan.kind, plan.steps.len()));
                trace.end(
                    p,
                    SpanCounters { rows: plan.steps.len() as u64, ..SpanCounters::default() },
                );
                let answer =
                    self.answer_compiled_traced(&compiled, &plan, strategy, None, &mut trace);
                let m = &answer.metrics;
                trace.end(
                    q,
                    SpanCounters {
                        logical_reads: m.logical_reads,
                        physical_reads: m.physical_reads,
                        probes: m.probes,
                        rows: answer.ids.len() as u64,
                    },
                );
                (answer, trace)
            }
        }
    }

    /// The execution back half of [`QueryEngine::answer_traced`],
    /// taking an already-compiled twig (the service's slow-query log
    /// re-executes cached plans through this). Appends `resolve`,
    /// `execute`, `step`, and `materialize` spans to `trace`; results
    /// and counter totals match [`QueryEngine::answer_compiled_with`].
    pub fn answer_compiled_traced(
        &self,
        compiled: &CompiledTwig,
        plan: &QueryPlan,
        strategy: Strategy,
        memo: Option<&mut ProbeMemo>,
        trace: &mut Trace,
    ) -> QueryAnswer {
        self.run_compiled(compiled, plan, strategy, memo, trace)
    }

    /// The execution back half both answer paths share: resolve the
    /// strategy, run [`QueryEngine::execute`], and measure the run.
    fn run_compiled<T: StepTracer>(
        &self,
        compiled: &CompiledTwig,
        plan: &QueryPlan,
        requested: Strategy,
        memo: Option<&mut ProbeMemo>,
        mut tracer: T,
    ) -> QueryAnswer {
        // Auto resolves to a concrete strategy before any index (or
        // metric counter) is touched.
        let resolving = tracer.resolve_begin();
        let strategy = self.resolve_strategy(requested, compiled, plan);
        let run = tracer.resolved(resolving, self, requested, strategy, compiled, plan);
        let before = self.snapshot(strategy);
        self.drain_baseline_counters(strategy);
        let start = Instant::now();
        let mut metrics = QueryMetrics::default();
        let ids = self.execute(compiled, plan, strategy, memo, &mut metrics, &mut tracer);
        metrics.elapsed = start.elapsed();
        metrics.probes += self.drain_baseline_counters(strategy);
        let delta = self.snapshot(strategy).since(&before);
        metrics.logical_reads = delta.logical_reads;
        metrics.physical_reads = delta.physical_reads;
        tracer.executed(run, self, compiled, strategy, &metrics);
        QueryAnswer { ids, plan: plan.kind, strategy, metrics }
    }

    /// Answers a batch of twigs against one strategy, deduplicating
    /// FreeIndex probes across the batch: queries sharing a PCsubpath
    /// (same tags/anchoring/value) hit the index once. Returns the
    /// per-query answers plus the memo's hit/miss statistics.
    pub fn answer_batch(
        &self,
        twigs: &[TwigPattern],
        strategy: Strategy,
    ) -> (Vec<QueryAnswer>, ProbeMemoStats) {
        let mut memo = ProbeMemo::new();
        let answers = twigs
            .iter()
            .map(|t| match self.compile(t) {
                Err(_) => QueryAnswer::empty(strategy),
                Ok((compiled, plan)) => {
                    self.answer_compiled_with(&compiled, &plan, strategy, Some(&mut memo))
                }
            })
            .collect();
        (answers, memo.stats())
    }

    /// Twig nodes whose ids the execution actually consumes: the output
    /// node, nodes shared between subpaths (join keys), probe anchors,
    /// and the endpoints of `//` edges. Interior ids outside this set
    /// need not be materialized — which is what lets the Index Fabric
    /// answer a fully-specified single-path query in one probe (§5.2.1)
    /// while still paying the per-step walks on branching queries.
    pub(crate) fn needed_nodes(&self, compiled: &CompiledTwig, plan: &QueryPlan) -> HashSet<usize> {
        let mut needed: HashSet<usize> = HashSet::new();
        needed.insert(compiled.twig.output);
        let mut seen: HashMap<usize, usize> = HashMap::new();
        for sp in &compiled.subpaths {
            for &node in &sp.nodes {
                *seen.entry(node).or_insert(0) += 1;
            }
        }
        needed.extend(seen.iter().filter(|(_, &c)| c > 1).map(|(&n, _)| n));
        for seg in &compiled.segments {
            if let Some((upper, _)) = seg.parent {
                needed.insert(upper);
                needed.insert(seg.root);
            }
        }
        for step in &plan.steps {
            if let Some(probe) = &step.probe {
                needed.insert(probe.anchor);
            }
        }
        needed
    }

    /// The executor: runs `plan`'s steps (index probe, structural join,
    /// or INLJ extension) and projects the output node's ids, adding
    /// probes and fetched rows to `metrics`. `tracer` observes each
    /// step; with [`NoTrace`] every hook is empty and compiles away.
    fn execute<T: StepTracer>(
        &self,
        compiled: &CompiledTwig,
        plan: &QueryPlan,
        strategy: Strategy,
        mut memo: Option<&mut ProbeMemo>,
        metrics: &mut QueryMetrics,
        tracer: &mut T,
    ) -> BTreeSet<u64> {
        let n = compiled.twig.len();
        let use_inlj = plan.kind == PlanKind::IndexNestedLoop
            && strategy == Strategy::DataPaths
            && self.dp.is_some();
        let needed = self.needed_nodes(compiled, plan);
        let interior_needed = |sp: &crate::decompose::SubpathSpec| {
            sp.nodes[..sp.nodes.len() - 1].iter().any(|n| needed.contains(n))
        };
        let mut rows: Vec<Row> = Vec::new();
        for (i, step) in plan.steps.iter().enumerate() {
            let sp = &compiled.subpaths[step.subpath];
            let observed = tracer.step_begin(self, strategy, metrics);
            let how;
            if i == 0 {
                let (matches, full) = self.eval_free_memo(
                    strategy,
                    &sp.q,
                    interior_needed(sp),
                    &mut metrics.probes,
                    memo.as_deref_mut(),
                );
                metrics.rows_fetched += matches.len() as u64;
                rows = self.rows_from_matches(n, sp.nodes.as_slice(), &sp.q, &matches, full);
                how = "probe";
            } else {
                if rows.is_empty() {
                    tracer.step_skipped(observed, i);
                    return BTreeSet::new();
                }
                // A branch is a pure existence filter when none of the
                // bindings it would add are consumed later: run it as a
                // semi-join (the relational plan for an EXISTS predicate).
                let (keep, _) = self.keep_after(compiled, plan, i);
                let join = step.join.as_ref().expect("non-first steps carry joins");
                let already: HashSet<usize> = match join {
                    JoinHow::SharedNode { shared, .. } => shared.iter().copied().collect(),
                    JoinHow::AncestorOf { .. } | JoinHow::DescendantBound { .. } => HashSet::new(),
                };
                let semi =
                    sp.nodes.iter().all(|node| already.contains(node) || !keep.contains(node));
                let probe_ok = use_inlj
                    && step.probe.as_ref().is_some_and(|p| self.probe_head_allowed(compiled, p));
                if probe_ok {
                    let probe = step.probe.as_ref().unwrap();
                    rows = self.inlj_extend(
                        compiled,
                        rows,
                        probe,
                        semi,
                        &mut metrics.probes,
                        &mut metrics.rows_fetched,
                    );
                    how = if semi { "inlj semi-join" } else { "inlj" };
                } else {
                    let (matches, full) = self.eval_free_memo(
                        strategy,
                        &sp.q,
                        interior_needed(sp),
                        &mut metrics.probes,
                        memo.as_deref_mut(),
                    );
                    metrics.rows_fetched += matches.len() as u64;
                    let new_rows =
                        self.rows_from_matches(n, sp.nodes.as_slice(), &sp.q, &matches, full);
                    rows = self.join(rows, new_rows, join, semi, &mut metrics.probes);
                    how = if semi { "semi-join" } else { "join" };
                }
            }
            // Early projection + duplicate elimination: existence
            // predicates must not enumerate full match tuples (a
            // relational engine would run these joins as semi-joins).
            // Keep only bindings that later steps or the output consume.
            self.project_rows(compiled, plan, i, &mut rows);
            tracer.step_end(observed, self, strategy, (i, step.subpath, how), metrics);
        }
        let out = compiled.twig.output;
        let materializing = tracer.materialize_begin(out);
        let ids: BTreeSet<u64> =
            rows.into_iter().map(|r| r.bind[out]).filter(|&id| id != UNBOUND).collect();
        tracer.materialized(materializing, ids.len());
        ids
    }

    /// Twig nodes consumed by steps after `done`, plus the output node;
    /// the second set lists segment roots whose ancestor lists later
    /// `//` joins need.
    fn keep_after(
        &self,
        compiled: &CompiledTwig,
        plan: &QueryPlan,
        done: usize,
    ) -> (HashSet<usize>, HashSet<usize>) {
        let mut keep: HashSet<usize> = HashSet::new();
        keep.insert(compiled.twig.output);
        let mut keep_anc: HashSet<usize> = HashSet::new();
        for step in &plan.steps[done + 1..] {
            let sp = &compiled.subpaths[step.subpath];
            keep.extend(sp.nodes.iter().copied());
            if let Some(probe) = &step.probe {
                keep.insert(probe.anchor);
            }
            match &step.join {
                Some(JoinHow::SharedNode { shared, deepest }) => {
                    keep.insert(*deepest);
                    keep.extend(shared.iter().copied());
                }
                Some(JoinHow::AncestorOf { upper, seg_root }) => {
                    keep.insert(*upper);
                    keep.insert(*seg_root);
                }
                Some(JoinHow::DescendantBound { upper, seg_root }) => {
                    keep.insert(*upper);
                    keep.insert(*seg_root);
                    keep_anc.insert(*seg_root);
                }
                None => {}
            }
        }
        (keep, keep_anc)
    }

    /// Projects away twig-node bindings no later step consumes, then
    /// deduplicates rows. `done` is the index of the just-executed step.
    fn project_rows(
        &self,
        compiled: &CompiledTwig,
        plan: &QueryPlan,
        done: usize,
        rows: &mut Vec<Row>,
    ) {
        let (keep, keep_anc) = self.keep_after(compiled, plan, done);
        for row in rows.iter_mut() {
            for (node, bind) in row.bind.iter_mut().enumerate() {
                if !keep.contains(&node) {
                    *bind = UNBOUND;
                }
            }
            row.anc.retain(|(node, _)| keep_anc.contains(node));
        }
        // Dedup by bindings; ancestor lists are functionally determined
        // by the segment-root binding, so keeping the first is safe.
        let mut seen: HashSet<Vec<u64>> = HashSet::with_capacity(rows.len());
        rows.retain(|r| seen.insert(r.bind.clone()));
    }

    /// §4.3: a pruned DATAPATHS index only supports probes on retained
    /// head tags.
    fn probe_head_allowed(&self, compiled: &CompiledTwig, probe: &ProbeSpec) -> bool {
        match &self.pruned_tags {
            None => true,
            Some(tags) => self
                .forest()
                .dict()
                .lookup(&compiled.twig.nodes[probe.anchor].tag)
                .is_some_and(|t| tags.contains(&t)),
        }
    }

    /// [`QueryEngine::eval_free`] behind the batch memo: a hit returns
    /// the shared match vector without touching any index (and without
    /// charging probes — that is the point of deduplication).
    fn eval_free_memo(
        &self,
        strategy: Strategy,
        q: &PcSubpathQuery,
        interior: bool,
        probes: &mut u64,
        memo: Option<&mut ProbeMemo>,
    ) -> (Arc<Vec<PathMatch>>, bool) {
        let Some(memo) = memo else {
            let (matches, full) = self.eval_free(strategy, q, interior, probes);
            return (Arc::new(matches), full);
        };
        let key = (strategy, q.clone(), interior);
        if let Some((matches, full)) = memo.map.get(&key) {
            memo.hits += 1;
            return (matches.clone(), *full);
        }
        let (matches, full) = self.eval_free(strategy, q, interior, probes);
        let matches = Arc::new(matches);
        memo.misses += 1;
        memo.map.insert(key, (matches.clone(), full));
        (matches, full)
    }

    /// Evaluates one PCsubpath with the strategy's probe pattern.
    /// Returns the matches and whether they carry full root IdLists.
    fn eval_free(
        &self,
        strategy: Strategy,
        q: &PcSubpathQuery,
        interior: bool,
        probes: &mut u64,
    ) -> (Vec<PathMatch>, bool) {
        match strategy {
            Strategy::RootPaths => {
                *probes += 1;
                (self.rp.as_ref().expect("ROOTPATHS not built").0.lookup_free(q), true)
            }
            Strategy::DataPaths => {
                *probes += 1;
                (self.dp.as_ref().expect("DATAPATHS not built").0.lookup_free(q), true)
            }
            Strategy::Edge => {
                // The Edge chain must walk every step regardless: interior
                // tags are only verifiable through backward-link probes.
                let (e, _) = self.edge.as_ref().expect("Edge not built");
                (e.eval_pcsubpath(q), false)
            }
            Strategy::DataGuideEdge => (self.eval_dataguide_edge(q, interior), false),
            Strategy::IndexFabricEdge => (self.eval_fabric_edge(q, interior), false),
            Strategy::Asr => {
                let (a, _) = self.asr.as_ref().expect("ASR not built");
                (a.eval_pcsubpath(q), true)
            }
            Strategy::JoinIndex => (self.eval_join_index(q, interior), false),
            Strategy::Auto => unreachable!("Auto resolves before execution"),
        }
    }

    /// DG+Edge (§5.1.2): the DataGuide answers anchored structural paths;
    /// values come from the Edge value index and are joined on node id;
    /// interior ids are recovered with backward-link walks; `//` patterns
    /// fall back to the Edge chain entirely.
    fn eval_dataguide_edge(&self, q: &PcSubpathQuery, interior: bool) -> Vec<PathMatch> {
        let (dg, _) = self.dg.as_ref().expect("DataGuide not built");
        let (edge, _) = self.edge.as_ref().expect("Edge not built");
        if !q.anchored {
            return edge.eval_pcsubpath(q);
        }
        let path_ids = dg.path_instances(&q.tags);
        let leaf_ids: Vec<u64> = match &q.value {
            None => path_ids,
            Some(v) => {
                let valued: HashSet<u64> =
                    edge.nodes_with(*q.tags.last().unwrap(), Some(v)).into_iter().collect();
                path_ids.into_iter().filter(|id| valued.contains(id)).collect()
            }
        };
        if interior {
            self.materialize_by_walking(edge, q, leaf_ids)
        } else {
            leaf_only_matches(q, leaf_ids)
        }
    }

    /// IF+Edge (§5.1.2): the fabric answers valued root-to-leaf paths in
    /// one probe; everything else falls back to the Edge chain.
    fn eval_fabric_edge(&self, q: &PcSubpathQuery, interior: bool) -> Vec<PathMatch> {
        let (fab, _) = self.fab.as_ref().expect("IndexFabric not built");
        let (edge, _) = self.edge.as_ref().expect("Edge not built");
        match (&q.value, q.anchored) {
            (Some(v), true) => {
                let leaf_ids = fab.leaf_instances(&q.tags, v);
                if interior {
                    self.materialize_by_walking(edge, q, leaf_ids)
                } else {
                    // The paper's Fig. 11 case: a fully-specified valued
                    // path is one fabric probe, nothing else.
                    leaf_only_matches(q, leaf_ids)
                }
            }
            _ => edge.eval_pcsubpath(q),
        }
    }

    /// Join Indices (§5.2.6): constants resolve through the Edge value
    /// index; endpoints and interior positions come from the per-path
    /// table pairs.
    fn eval_join_index(&self, q: &PcSubpathQuery, interior: bool) -> Vec<PathMatch> {
        let (ji, _) = self.ji.as_ref().expect("JoinIndices not built");
        match &q.value {
            Some(v) => {
                let (edge, _) = self.edge.as_ref().expect("Edge not built");
                let leaves = edge.nodes_with(*q.tags.last().unwrap(), Some(v));
                if interior {
                    ji.eval_pcsubpath_with_leaves(q, &leaves)
                } else {
                    // Path membership still needs one backward probe per
                    // candidate per matching expression; interior
                    // positions are skipped.
                    let mut out = Vec::new();
                    for (path, split) in ji.matching_expressions(q) {
                        for &leaf in &leaves {
                            if q.tags.len() == 1 || !ji.first_ids(&path, split, leaf).is_empty() {
                                out.push(PathMatch {
                                    head: 0,
                                    tags: vec![*q.tags.last().unwrap()],
                                    ids: vec![leaf],
                                });
                            }
                        }
                    }
                    out.sort_by(|a, b| a.ids.cmp(&b.ids));
                    out.dedup_by(|a, b| a.ids == b.ids);
                    out
                }
            }
            None => ji.eval_pcsubpath_structural(q),
        }
    }

    /// Recovers interior step ids for known root-anchored leaf matches by
    /// backward-link walks (one probe per step per candidate).
    fn materialize_by_walking(
        &self,
        edge: &EdgeTable,
        q: &PcSubpathQuery,
        leaf_ids: Vec<u64>,
    ) -> Vec<PathMatch> {
        let k = q.tags.len();
        leaf_ids
            .into_iter()
            .filter_map(|leaf| {
                let mut ids = vec![0u64; k];
                ids[k - 1] = leaf;
                let mut cur = leaf;
                for i in (0..k - 1).rev() {
                    let (parent, _) = edge.parent_of(cur)?;
                    ids[i] = parent;
                    cur = parent;
                }
                Some(PathMatch { head: 0, tags: q.tags.clone(), ids })
            })
            .collect()
    }

    /// Converts matches into binding rows; applies long-value rechecks;
    /// captures ancestor lists for segment roots when available.
    fn rows_from_matches(
        &self,
        n: usize,
        nodes: &[usize],
        q: &PcSubpathQuery,
        matches: &[PathMatch],
        full_root: bool,
    ) -> Vec<Row> {
        let k = nodes.len();
        let recheck = q.value.as_deref().filter(|v| value_needs_recheck(v));
        let mut rows = Vec::with_capacity(matches.len());
        for m in matches {
            // Leaf-only matches (interior positions skipped) bind just the
            // final step; full matches bind every step.
            let bound = m.ids.len().min(k);
            let tail = &m.ids[m.ids.len() - bound..];
            let nodes = &nodes[k - bound..];
            if let Some(v) = recheck {
                let leaf = NodeId(*tail.last().unwrap());
                if self.forest().value_str(leaf) != Some(v) {
                    continue;
                }
            }
            let mut row = Row::new(n);
            for (&node, &id) in nodes.iter().zip(tail) {
                row.bind[node] = id;
            }
            if full_root && m.ids.len() > bound {
                row.anc.push((nodes[0], Arc::new(m.ids[..m.ids.len() - bound].to_vec())));
            } else if full_root {
                row.anc.push((nodes[0], Arc::new(Vec::new())));
            }
            rows.push(row);
        }
        rows
    }

    /// Ancestors of `id`, preferring the captured IdList prefix, falling
    /// back to backward-link walks (Edge-family) or the base tree.
    fn ancestor_ids(&self, row: &Row, node: usize, probes: &mut u64) -> Arc<Vec<u64>> {
        if let Some(anc) = row.ancestors_of(node) {
            return anc.clone();
        }
        let id = row.bind[node];
        debug_assert_ne!(id, UNBOUND);
        if let Some((edge, _)) = &self.edge {
            return Arc::new(edge.ancestors_of(id));
        }
        // Base-data fallback: one lookup per ancestor step, equivalent in
        // cost to the backward-link walk.
        let mut path = self.forest().root_path_ids(NodeId(id));
        path.pop(); // drop the node itself
        *probes += path.len() as u64;
        path.reverse();
        Arc::new(path.into_iter().map(|n| n.0).collect())
    }

    fn join(
        &self,
        left: Vec<Row>,
        right: Vec<Row>,
        how: &JoinHow,
        semi: bool,
        probes: &mut u64,
    ) -> Vec<Row> {
        match how {
            JoinHow::SharedNode { deepest, shared } => {
                if semi {
                    // Existence filter: keep each left row once if any
                    // consistent right row exists.
                    let mut table: HashMap<u64, Vec<&Row>> = HashMap::new();
                    for r in &right {
                        table.entry(r.bind[*deepest]).or_default().push(r);
                    }
                    return left
                        .into_iter()
                        .filter(|r1| {
                            table.get(&r1.bind[*deepest]).is_some_and(|bucket| {
                                bucket.iter().any(|r2| {
                                    shared.iter().all(|&s| {
                                        r1.bind[s] == UNBOUND
                                            || r2.bind[s] == UNBOUND
                                            || r1.bind[s] == r2.bind[s]
                                    })
                                })
                            })
                        })
                        .collect();
                }
                let mut table: HashMap<u64, Vec<&Row>> = HashMap::new();
                for r in &left {
                    table.entry(r.bind[*deepest]).or_default().push(r);
                }
                let mut out = Vec::new();
                for r2 in &right {
                    let Some(bucket) = table.get(&r2.bind[*deepest]) else { continue };
                    for r1 in bucket {
                        if shared.iter().all(|&s| {
                            r1.bind[s] == UNBOUND
                                || r2.bind[s] == UNBOUND
                                || r1.bind[s] == r2.bind[s]
                        }) {
                            out.push(merge_rows(r1, r2));
                        }
                    }
                }
                out
            }
            JoinHow::AncestorOf { upper, seg_root } => {
                if semi {
                    // Keep left rows whose `upper` binding is an ancestor
                    // of some right segment root.
                    let mut anc_union: HashSet<u64> = HashSet::new();
                    for r2 in &right {
                        anc_union.extend(self.ancestor_ids(r2, *seg_root, probes).iter());
                    }
                    return left
                        .into_iter()
                        .filter(|r| anc_union.contains(&r.bind[*upper]))
                        .collect();
                }
                if self.structural_ad_joins {
                    return self.structural_join(left, right, *upper, *seg_root);
                }
                // left rows bind `upper`; right rows bind the segment
                // root; unnest right's ancestors and equi-join.
                let mut table: HashMap<u64, Vec<&Row>> = HashMap::new();
                for r in &left {
                    table.entry(r.bind[*upper]).or_default().push(r);
                }
                let mut out = Vec::new();
                for r2 in &right {
                    let ancs = self.ancestor_ids(r2, *seg_root, probes);
                    for &a in ancs.iter() {
                        if let Some(bucket) = table.get(&a) {
                            for r1 in bucket {
                                out.push(merge_rows(r1, r2));
                            }
                        }
                    }
                }
                out
            }
            JoinHow::DescendantBound { upper, seg_root } => {
                if semi {
                    // Keep left rows with some right `upper` among their
                    // segment root's ancestors.
                    let uppers: HashSet<u64> = right.iter().map(|r| r.bind[*upper]).collect();
                    return left
                        .into_iter()
                        .filter(|r1| {
                            self.ancestor_ids(r1, *seg_root, probes)
                                .iter()
                                .any(|a| uppers.contains(a))
                        })
                        .collect();
                }
                if self.structural_ad_joins {
                    return self.structural_join(right, left, *upper, *seg_root);
                }
                // left rows bind the lower segment root; right rows bind
                // `upper`.
                let mut table: HashMap<u64, Vec<&Row>> = HashMap::new();
                for r in &right {
                    table.entry(r.bind[*upper]).or_default().push(r);
                }
                let mut out = Vec::new();
                for r1 in &left {
                    let ancs = self.ancestor_ids(r1, *seg_root, probes);
                    for &a in ancs.iter() {
                        if let Some(bucket) = table.get(&a) {
                            for r2 in bucket {
                                out.push(merge_rows(r1, r2));
                            }
                        }
                    }
                }
                out
            }
        }
    }

    /// Stitches an ancestor-descendant edge with the stack-based
    /// structural join (§6's alternative): one merge pass over the
    /// interval-sorted binding sets instead of ancestor unnesting.
    fn structural_join(
        &self,
        upper_rows: Vec<Row>,
        lower_rows: Vec<Row>,
        upper: usize,
        seg_root: usize,
    ) -> Vec<Row> {
        let upper_ids: Vec<u64> = upper_rows.iter().map(|r| r.bind[upper]).collect();
        let lower_ids: Vec<u64> = lower_rows.iter().map(|r| r.bind[seg_root]).collect();
        let pairs = crate::stitch::containment_join(self.forest(), &upper_ids, &lower_ids);
        let mut by_upper: HashMap<u64, Vec<&Row>> = HashMap::new();
        for r in &upper_rows {
            by_upper.entry(r.bind[upper]).or_default().push(r);
        }
        let mut by_lower: HashMap<u64, Vec<&Row>> = HashMap::new();
        for r in &lower_rows {
            by_lower.entry(r.bind[seg_root]).or_default().push(r);
        }
        let mut out = Vec::new();
        for (a, d) in pairs {
            if let (Some(us), Some(ls)) = (by_upper.get(&a), by_lower.get(&d)) {
                for u in us {
                    for l in ls {
                        out.push(merge_rows(u, l));
                    }
                }
            }
        }
        out
    }

    /// The index-nested-loop extension (§3.3): group rows by the anchor
    /// binding, issue one BoundIndex probe per distinct head, and fan the
    /// results back out.
    fn inlj_extend(
        &self,
        compiled: &CompiledTwig,
        rows: Vec<Row>,
        probe: &ProbeSpec,
        semi: bool,
        probes: &mut u64,
        rows_fetched: &mut u64,
    ) -> Vec<Row> {
        let (dp, _) = self.dp.as_ref().expect("INLJ requires DATAPATHS");
        let anchor_tag = self
            .forest()
            .dict()
            .lookup(&compiled.twig.nodes[probe.anchor].tag)
            .expect("anchor tag resolved during decompose");
        let recheck = probe.pattern.value.as_deref().filter(|v| value_needs_recheck(v));
        let mut by_head: HashMap<u64, Vec<Row>> = HashMap::new();
        for r in rows {
            by_head.entry(r.bind[probe.anchor]).or_default().push(r);
        }
        let mut out = Vec::new();
        for (head, group) in by_head {
            debug_assert_ne!(head, UNBOUND);
            *probes += 1;
            let matches = dp.lookup_bound(head, anchor_tag, &probe.pattern);
            *rows_fetched += matches.len() as u64;
            if semi {
                // Existence probe: the head survives if any match passes
                // the (rare) long-value recheck.
                let hit = matches.iter().any(|m| match recheck {
                    None => true,
                    Some(v) => self.forest().value_str(NodeId(*m.ids.last().unwrap())) == Some(v),
                });
                if hit {
                    out.extend(group);
                }
                continue;
            }
            for m in matches {
                let k = probe.step_nodes.len();
                let tail = &m.ids[m.ids.len() - k..];
                if let Some(v) = recheck {
                    if self.forest().value_str(NodeId(*tail.last().unwrap())) != Some(v) {
                        continue;
                    }
                }
                for r in &group {
                    let mut nr = r.clone();
                    for (&node, &id) in probe.step_nodes.iter().zip(tail) {
                        nr.bind[node] = id;
                    }
                    out.push(nr);
                }
            }
        }
        out
    }
}

/// Observation hooks of the one executor body
/// ([`QueryEngine::execute`], run by `run_compiled`). [`NoTrace`] keeps
/// every hook empty, so the untraced instance compiles to the bare
/// algorithm; `&mut Trace` records the `resolve`, `execute`, `step`,
/// and `materialize` spans. Everything only tracing needs — pool
/// snapshots, per-step counter drains, span details, the cost model's
/// estimate, the calibration sample — lives inside these hooks.
trait StepTracer {
    /// An open span (`resolve` or `materialize`).
    type Span;
    /// What a run carries from `resolved` to `executed`.
    type Run;
    /// What one plan step carries from `step_begin` to its end.
    type Step;

    /// Strategy resolution is about to start.
    fn resolve_begin(&mut self) -> Self::Span;

    /// `requested` resolved to `strategy`; execution is about to start.
    fn resolved<F: Borrow<XmlForest>>(
        &mut self,
        span: Self::Span,
        engine: &QueryEngine<F>,
        requested: Strategy,
        strategy: Strategy,
        compiled: &CompiledTwig,
        plan: &QueryPlan,
    ) -> Self::Run;

    /// Execution finished with the run's final `metrics`.
    fn executed<F: Borrow<XmlForest>>(
        &mut self,
        run: Self::Run,
        engine: &QueryEngine<F>,
        compiled: &CompiledTwig,
        strategy: Strategy,
        metrics: &QueryMetrics,
    );

    /// A plan step is about to run; `metrics` holds the totals so far.
    fn step_begin<F: Borrow<XmlForest>>(
        &mut self,
        engine: &QueryEngine<F>,
        strategy: Strategy,
        metrics: &QueryMetrics,
    ) -> Self::Step;

    /// Step `i` had no input rows, so execution stops with no answer.
    fn step_skipped(&mut self, step: Self::Step, i: usize);

    /// Step `label.0` over subpath `label.1` ran as `label.2`.
    fn step_end<F: Borrow<XmlForest>>(
        &mut self,
        step: Self::Step,
        engine: &QueryEngine<F>,
        strategy: Strategy,
        label: (usize, usize, &'static str),
        metrics: &mut QueryMetrics,
    );

    /// The output node's ids are about to be collected.
    fn materialize_begin(&mut self, output: usize) -> Self::Span;

    /// `ids` distinct output ids were collected.
    fn materialized(&mut self, span: Self::Span, ids: usize);
}

/// The untraced executor's tracer: every hook is empty.
struct NoTrace;

impl StepTracer for NoTrace {
    type Span = ();
    type Run = ();
    type Step = ();

    fn resolve_begin(&mut self) {}

    fn resolved<F: Borrow<XmlForest>>(
        &mut self,
        _: (),
        _: &QueryEngine<F>,
        _: Strategy,
        _: Strategy,
        _: &CompiledTwig,
        _: &QueryPlan,
    ) {
    }

    fn executed<F: Borrow<XmlForest>>(
        &mut self,
        _: (),
        _: &QueryEngine<F>,
        _: &CompiledTwig,
        _: Strategy,
        _: &QueryMetrics,
    ) {
    }

    fn step_begin<F: Borrow<XmlForest>>(
        &mut self,
        _: &QueryEngine<F>,
        _: Strategy,
        _: &QueryMetrics,
    ) {
    }

    fn step_skipped(&mut self, _: (), _: usize) {}

    fn step_end<F: Borrow<XmlForest>>(
        &mut self,
        _: (),
        _: &QueryEngine<F>,
        _: Strategy,
        _: (usize, usize, &'static str),
        _: &mut QueryMetrics,
    ) {
    }

    fn materialize_begin(&mut self, _: usize) {}

    fn materialized(&mut self, _: (), _: usize) {}
}

impl StepTracer for &mut Trace {
    type Span = SpanToken;
    /// The open `execute` span and the cost model's read estimate.
    type Run = (SpanToken, Option<f64>);
    /// The open `step` span and the pool/probe/row totals at its start.
    type Step = (SpanToken, IoStatsSnapshot, QueryMetrics);

    fn resolve_begin(&mut self) -> SpanToken {
        self.begin("resolve", "")
    }

    fn resolved<F: Borrow<XmlForest>>(
        &mut self,
        span: SpanToken,
        engine: &QueryEngine<F>,
        requested: Strategy,
        strategy: Strategy,
        compiled: &CompiledTwig,
        plan: &QueryPlan,
    ) -> (SpanToken, Option<f64>) {
        let est_reads = engine
            .rank_strategies(compiled, plan)
            .into_iter()
            .find(|c| c.strategy == strategy)
            .map(|c| c.est_page_reads);
        if requested == Strategy::Auto {
            self.annotate(span, format!("auto\u{2192}{}", strategy.label()));
        } else {
            self.annotate(span, strategy.label());
        }
        self.end(span, SpanCounters::default());
        (self.begin("execute", strategy.label()), est_reads)
    }

    fn executed<F: Borrow<XmlForest>>(
        &mut self,
        (span, est_reads): (SpanToken, Option<f64>),
        engine: &QueryEngine<F>,
        compiled: &CompiledTwig,
        strategy: Strategy,
        metrics: &QueryMetrics,
    ) {
        self.end(
            span,
            SpanCounters {
                logical_reads: metrics.logical_reads,
                physical_reads: metrics.physical_reads,
                probes: metrics.probes,
                rows: metrics.rows_fetched,
            },
        );
        engine.calibration.record(CalibrationSample {
            shape: twig_shape(&compiled.twig),
            strategy,
            est_reads: est_reads.unwrap_or(0.0),
            actual_reads: metrics.physical_reads,
            micros: metrics.elapsed.as_micros() as u64,
        });
    }

    fn step_begin<F: Borrow<XmlForest>>(
        &mut self,
        engine: &QueryEngine<F>,
        strategy: Strategy,
        metrics: &QueryMetrics,
    ) -> Self::Step {
        let io = engine.snapshot(strategy);
        (self.begin("step", String::new()), io, *metrics)
    }

    fn step_skipped(&mut self, (span, ..): Self::Step, i: usize) {
        self.annotate(span, format!("#{i} skipped: empty input"));
        self.end(span, SpanCounters::default());
    }

    fn step_end<F: Borrow<XmlForest>>(
        &mut self,
        (span, io_before, before): Self::Step,
        engine: &QueryEngine<F>,
        strategy: Strategy,
        (i, subpath, how): (usize, usize, &'static str),
        metrics: &mut QueryMetrics,
    ) {
        // Attribute the Edge family's deferred lookup counters to the
        // step that issued them; the run's final drain then collects
        // nothing, so the query total matches the untraced path exactly.
        metrics.probes += engine.drain_baseline_counters(strategy);
        let io = engine.snapshot(strategy).since(&io_before);
        self.annotate(span, format!("#{i} subpath {subpath} {how}"));
        self.end(
            span,
            SpanCounters {
                logical_reads: io.logical_reads,
                physical_reads: io.physical_reads,
                probes: metrics.probes - before.probes,
                rows: metrics.rows_fetched - before.rows_fetched,
            },
        );
    }

    fn materialize_begin(&mut self, output: usize) -> SpanToken {
        self.begin("materialize", format!("output node {output}"))
    }

    fn materialized(&mut self, span: SpanToken, ids: usize) {
        self.end(span, SpanCounters { rows: ids as u64, ..SpanCounters::default() });
    }
}

/// Shape of a twig for calibration-sample keys: tags and axes with
/// value literals elided (`=?`) and the output node starred, so
/// repeated queries differing only in constants aggregate together.
pub fn twig_shape(twig: &TwigPattern) -> String {
    fn node(t: &TwigPattern, i: usize, out: &mut String) {
        let n = &t.nodes[i];
        out.push_str(&n.tag);
        if n.value.is_some() {
            out.push_str("=?");
        }
        if i == t.output {
            out.push('*');
        }
        for (axis, c) in &n.children {
            out.push('[');
            out.push_str(&axis.to_string());
            node(t, *c, out);
            out.push(']');
        }
    }
    let mut s = twig.root_axis.to_string();
    node(twig, 0, &mut s);
    s
}

/// Matches carrying only the final step's id (interior skipped).
fn leaf_only_matches(q: &PcSubpathQuery, leaf_ids: Vec<u64>) -> Vec<PathMatch> {
    let leaf_tag = *q.tags.last().unwrap();
    leaf_ids
        .into_iter()
        .map(|id| PathMatch { head: 0, tags: vec![leaf_tag], ids: vec![id] })
        .collect()
}

fn merge_rows(r1: &Row, r2: &Row) -> Row {
    let mut bind = r1.bind.clone();
    for (i, &v) in r2.bind.iter().enumerate() {
        if v != UNBOUND {
            bind[i] = v;
        }
    }
    let mut anc = r1.anc.clone();
    for (n, a) in &r2.anc {
        if !anc.iter().any(|(m, _)| m == n) {
            anc.push((*n, a.clone()));
        }
    }
    Row { bind, anc }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::xpath::parse_xpath;
    use xtwig_xml::naive;
    use xtwig_xml::tree::fig1_book_document;

    fn engine(forest: &XmlForest) -> QueryEngine<&XmlForest> {
        QueryEngine::build(forest, EngineOptions { pool_pages: 1024, ..Default::default() })
    }

    fn check_all_strategies(engine: &QueryEngine<&XmlForest>, xpath: &str) {
        let twig = parse_xpath(xpath).unwrap();
        let expected: BTreeSet<u64> =
            naive::select(engine.forest(), &twig).into_iter().map(|n| n.0).collect();
        for s in Strategy::ALL {
            let got = engine.answer(&twig, s);
            assert_eq!(
                got.ids,
                expected,
                "strategy {} disagrees with oracle on {xpath}",
                s.label()
            );
        }
    }

    #[test]
    fn all_strategies_answer_the_intro_query() {
        let f = fig1_book_document();
        let e = engine(&f);
        check_all_strategies(&e, "/book[title='XML']//author[fn='jane'][ln='doe']");
    }

    #[test]
    fn single_path_queries() {
        let f = fig1_book_document();
        let e = engine(&f);
        for q in [
            "/book/title[. = 'XML']",
            "/book/allauthors/author/fn[. = 'jane']",
            "/book/allauthors/author",
            "/book",
            "//title",
            "//author/ln[. = 'doe']",
            "//section/head",
        ] {
            check_all_strategies(&e, q);
        }
    }

    #[test]
    fn branching_queries() {
        let f = fig1_book_document();
        let e = engine(&f);
        for q in [
            "/book[year = '2000']/chapter/title",
            "//author[fn = 'jane'][ln = 'doe']",
            "//author[fn = 'jane']/ln",
            "/book[title = 'XML'][year = '2000']//section/head",
            "//chapter[title = 'XML']/section/head",
        ] {
            check_all_strategies(&e, q);
        }
    }

    #[test]
    fn recursive_edges_inside_twig() {
        let f = fig1_book_document();
        let e = engine(&f);
        for q in [
            "/book//head",
            "/book//author[fn = 'john']",
            "/book[title = 'XML']//section[head = 'Origins']",
            "//allauthors//ln[. = 'doe']",
            "/book//contact/detail",
        ] {
            check_all_strategies(&e, q);
        }
    }

    #[test]
    fn empty_results_are_consistent() {
        let f = fig1_book_document();
        let e = engine(&f);
        for q in [
            "/book/title[. = 'JSON']",
            "//author[fn = 'jane'][ln = 'poe']/nickname[. = 'nobody']",
            "/chapter/title", // chapter is not a document root
            "//unknown_tag_never_seen",
        ] {
            check_all_strategies(&e, q);
        }
    }

    #[test]
    fn inlj_and_merge_agree() {
        let f = fig1_book_document();
        let e = engine(&f);
        // Low branch point with a selective branch: //author[fn='john']/nickname
        let twig = parse_xpath("//author[fn = 'john']/nickname").unwrap();
        let expected: BTreeSet<u64> = naive::select(&f, &twig).into_iter().map(|n| n.0).collect();
        let dp = e.answer(&twig, Strategy::DataPaths);
        let rp = e.answer(&twig, Strategy::RootPaths);
        assert_eq!(dp.ids, expected);
        assert_eq!(rp.ids, expected);
    }

    #[test]
    fn metrics_populate() {
        let f = fig1_book_document();
        let e = engine(&f);
        let twig = parse_xpath("//author[fn = 'jane'][ln = 'doe']").unwrap();
        let a = e.answer(&twig, Strategy::RootPaths);
        assert!(a.metrics.probes >= 2, "two subpath lookups");
        assert!(a.metrics.rows_fetched >= 2);
        assert!(a.metrics.logical_reads > 0);
        let edge = e.answer(&twig, Strategy::Edge);
        assert!(
            edge.metrics.probes > a.metrics.probes,
            "Edge must probe more than ROOTPATHS ({} vs {})",
            edge.metrics.probes,
            a.metrics.probes
        );
    }

    #[test]
    fn space_report_orders_like_fig9() {
        let f = fig1_book_document();
        let e = engine(&f);
        let rp = e.space_bytes(Strategy::RootPaths);
        let dp = e.space_bytes(Strategy::DataPaths);
        assert!(rp > 0 && dp > 0);
        assert!(dp >= rp, "DATAPATHS at least as large as ROOTPATHS");
        let ji = e.space_bytes(Strategy::JoinIndex);
        let asr = e.space_bytes(Strategy::Asr);
        assert!(ji > asr, "Fig 9: JI is the largest configuration");
    }

    #[test]
    fn pruned_engine_still_answers_off_workload_queries() {
        let f = fig1_book_document();
        let workload = vec![parse_xpath("/book[title='XML']//author[fn='jane']").unwrap()];
        let filter = crate::compress::workload_head_filter(&workload);
        let e = QueryEngine::build(
            &f,
            EngineOptions {
                strategies: vec![Strategy::DataPaths],
                pool_pages: 1024,
                head_filter_tags: Some(filter),
                ..Default::default()
            },
        );
        // Off-workload branching query must still be answered (merge plan
        // via the retained FreeIndex rows).
        let twig = parse_xpath("//chapter[title = 'XML']/section").unwrap();
        let expected: BTreeSet<u64> = naive::select(&f, &twig).into_iter().map(|n| n.0).collect();
        let got = e.answer(&twig, Strategy::DataPaths);
        assert_eq!(got.ids, expected);
    }

    #[test]
    fn shared_engine_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<QueryEngine<Arc<XmlForest>>>();
        assert_send_sync::<QueryAnswer>();
    }

    #[test]
    fn auto_in_build_options_materializes_every_strategy() {
        // `--strategies auto` must mean "build the full menu", not
        // "build nothing and persist an empty index".
        let f = fig1_book_document();
        let e = QueryEngine::build(
            &f,
            EngineOptions {
                strategies: vec![Strategy::Auto],
                pool_pages: 1024,
                ..Default::default()
            },
        );
        for s in Strategy::ALL {
            assert!(e.has_strategy(s), "{s}");
        }
        check_all_strategies(&e, "/book[title='XML']//author[fn='jane'][ln='doe']");
    }

    #[test]
    fn strategy_display_fromstr_roundtrip() {
        for s in Strategy::ALL {
            assert_eq!(s.to_string(), s.label());
            assert_eq!(s.label().parse::<Strategy>(), Ok(s));
            assert_eq!(s.label().to_lowercase().parse::<Strategy>(), Ok(s));
        }
        assert_eq!("ROOTPATHS".parse::<Strategy>(), Ok(Strategy::RootPaths));
        assert_eq!("dataguide".parse::<Strategy>(), Ok(Strategy::DataGuideEdge));
        assert!("nope".parse::<Strategy>().is_err());
    }

    #[test]
    fn arc_owned_engine_answers_like_borrowed() {
        let f = Arc::new(fig1_book_document());
        let e: QueryEngine =
            QueryEngine::build(f.clone(), EngineOptions { pool_pages: 1024, ..Default::default() });
        let twig = parse_xpath("/book[title='XML']//author[fn='jane'][ln='doe']").unwrap();
        let expected: BTreeSet<u64> = naive::select(&f, &twig).into_iter().map(|n| n.0).collect();
        for s in Strategy::ALL {
            assert!(e.has_strategy(s));
            assert_eq!(e.answer(&twig, s).ids, expected, "{s}");
        }
    }

    #[test]
    fn compile_then_answer_compiled_matches_answer() {
        let f = fig1_book_document();
        let e = engine(&f);
        let twig = parse_xpath("//author[fn = 'jane']/ln").unwrap();
        let (compiled, plan) = e.compile(&twig).unwrap();
        let direct = e.answer(&twig, Strategy::RootPaths);
        let precompiled = e.answer_compiled(&compiled, &plan, Strategy::RootPaths);
        assert_eq!(direct.ids, precompiled.ids);
        assert_eq!(direct.plan, precompiled.plan);
    }

    #[test]
    fn batch_dedupes_shared_subpath_probes() {
        let f = fig1_book_document();
        let e = engine(&f);
        let twigs: Vec<TwigPattern> = [
            "//author[fn = 'jane']/ln",
            "//author[fn = 'jane']/ln", // identical: every subpath memoized
            "//author[fn = 'jane']",    // shares the fn='jane' subpath
        ]
        .iter()
        .map(|q| parse_xpath(q).unwrap())
        .collect();
        let (answers, stats) = e.answer_batch(&twigs, Strategy::RootPaths);
        assert_eq!(answers.len(), 3);
        for (t, a) in twigs.iter().zip(&answers) {
            let expected: BTreeSet<u64> = naive::select(&f, t).into_iter().map(|n| n.0).collect();
            assert_eq!(a.ids, expected, "{t}");
        }
        assert!(stats.hits >= 3, "duplicate subpaths must hit the memo: {stats:?}");
        // Memo hits issue no probes: the duplicate query is free.
        assert_eq!(answers[1].metrics.probes, 0);
    }

    #[test]
    fn batch_agrees_across_all_strategies() {
        let f = fig1_book_document();
        let e = engine(&f);
        let twigs: Vec<TwigPattern> =
            ["/book[title = 'XML']/year", "/book[title = 'XML']//section/head", "//section/head"]
                .iter()
                .map(|q| parse_xpath(q).unwrap())
                .collect();
        for s in Strategy::ALL {
            let (answers, _) = e.answer_batch(&twigs, s);
            for (t, a) in twigs.iter().zip(&answers) {
                let expected: BTreeSet<u64> =
                    naive::select(&f, t).into_iter().map(|n| n.0).collect();
                assert_eq!(a.ids, expected, "{s} on {t}");
            }
        }
    }

    #[test]
    fn parallel_build_is_byte_identical_and_answers_agree() {
        let mut f = XmlForest::new();
        for i in 0..7 {
            let mut b = f.builder();
            b.open("book");
            b.leaf("title", if i % 2 == 0 { "XML" } else { "SQL" });
            b.open("allauthors");
            b.open("author");
            b.leaf("fn", "jane");
            b.leaf("ln", if i == 3 { "doe" } else { "poe" });
            b.close();
            b.close();
            b.close();
            b.finish();
        }
        let opts = || EngineOptions { pool_pages: 1024, ..Default::default() };
        let seq = QueryEngine::build(&f, opts());
        for shards in [1, 2, 3, 7] {
            let par = QueryEngine::build_parallel(&f, opts(), shards);
            for s in Strategy::ALL {
                assert_eq!(
                    par.structure_digest(s),
                    seq.structure_digest(s),
                    "{s} pages differ at {shards} shards"
                );
            }
            let twig = parse_xpath("/book[title='XML']//author[fn='jane'][ln='doe']").unwrap();
            for s in Strategy::ALL {
                assert_eq!(par.answer(&twig, s).ids, seq.answer(&twig, s).ids, "{s}");
            }
        }
    }

    #[test]
    fn multi_document_queries() {
        let mut f = XmlForest::new();
        for i in 0..5 {
            let mut b = f.builder();
            b.open("book");
            b.leaf("title", if i % 2 == 0 { "XML" } else { "SQL" });
            b.open("allauthors");
            b.open("author");
            b.leaf("fn", "jane");
            b.leaf("ln", if i == 2 { "doe" } else { "poe" });
            b.close();
            b.close();
            b.close();
            b.finish();
        }
        let e = engine(&f);
        check_all_strategies(&e, "/book[title='XML']//author[fn='jane'][ln='doe']");
        check_all_strategies(&e, "/book/title[. = 'SQL']");
        check_all_strategies(&e, "//author[ln = 'poe']");
    }
}
