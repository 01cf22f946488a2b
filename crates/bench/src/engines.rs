//! Query execution adapters: run one (engine, query, dataset) combination
//! functionally and return the recorded work traces.

use blaze_sync::Arc;

use blaze_algorithms::{self as algo, ExecMode, Query};
use blaze_baselines::{FlashGraphEngine, FlashGraphOptions, GrapheneEngine, GrapheneOptions};
use blaze_core::{BlazeEngine, EngineOptions, GraphEngine};
use blaze_graph::{Csr, DiskGraph};
use blaze_storage::StripedStorage;
use blaze_types::{IterationTrace, VertexId};

use crate::datasets::PreparedGraph;

/// Options shared by the query runners.
#[derive(Debug, Clone)]
pub struct BenchQueryOptions {
    /// Devices in the Blaze RAID-0 array.
    pub blaze_devices: usize,
    /// Real threads used by the functional Blaze engine (does not affect
    /// traces; kept small because trace collection is what matters).
    pub blaze_threads: usize,
    /// FlashGraph computation threads (affects the message-skew trace).
    pub flashgraph_threads: usize,
    /// FlashGraph page-cache capacity in pages; 0 = auto (1/8 of the
    /// graph's pages, min 64) — proportional to the paper's multi-GB SAFS
    /// cache against multi-GB graphs.
    pub flashgraph_cache_pages: usize,
    /// Graphene disk-array size.
    pub graphene_disks: usize,
    /// PageRank-delta threshold.
    pub pr_epsilon: f64,
    /// PageRank-delta iteration cap.
    pub pr_max_iters: usize,
}

impl Default for BenchQueryOptions {
    fn default() -> Self {
        Self {
            blaze_devices: 1,
            blaze_threads: 2,
            flashgraph_threads: 16,
            flashgraph_cache_pages: 0,
            graphene_disks: 8,
            pr_epsilon: 0.01,
            pr_max_iters: 30,
        }
    }
}

/// Root choice for traversal queries: the highest-out-degree vertex, which
/// reaches the giant component.
pub fn traversal_root(g: &Csr) -> VertexId {
    (0..g.num_vertices() as VertexId)
        .max_by_key(|&v| g.degree(v))
        .unwrap_or(0)
}

/// Runs `query` on engines built by `build` (the transpose engine too, for
/// WCC and BC) and returns the per-iteration traces `traces` collects, in
/// execution order.
fn run_query<E: GraphEngine>(
    query: Query,
    g: &PreparedGraph,
    mode: ExecMode,
    opts: &BenchQueryOptions,
    build: impl Fn(&Csr) -> E,
    traces: impl Fn(&E) -> Vec<IterationTrace>,
) -> Vec<IterationTrace> {
    let engine = build(&g.csr);
    match query {
        Query::Bfs => {
            algo::bfs(&engine, traversal_root(&g.csr), mode).expect("bfs");
        }
        Query::PageRank => {
            let cfg = algo::PageRankConfig {
                epsilon: opts.pr_epsilon,
                max_iters: opts.pr_max_iters,
                ..Default::default()
            };
            algo::pagerank_delta(&engine, cfg, mode).expect("pagerank");
        }
        Query::SpMV => {
            let x: Vec<f64> = (0..g.csr.num_vertices())
                .map(|i| 1.0 / (i + 1) as f64)
                .collect();
            algo::spmv(&engine, &x, mode).expect("spmv");
        }
        Query::Wcc => {
            let in_engine = build(&g.transpose);
            algo::wcc(&engine, &in_engine, mode).expect("wcc");
            // Interleave out/in traces in execution order (one per EdgeMap).
            return traces(&engine)
                .into_iter()
                .zip(traces(&in_engine))
                .flat_map(|(x, y)| [x, y])
                .collect();
        }
        Query::Bc => {
            let in_engine = build(&g.transpose);
            algo::bc(&engine, &in_engine, traversal_root(&g.csr), mode).expect("bc");
            let mut out = traces(&engine);
            out.extend(traces(&in_engine));
            return out;
        }
    }
    traces(&engine)
}

fn blaze_engine(csr: &Csr, opts: &BenchQueryOptions) -> BlazeEngine {
    let storage = Arc::new(StripedStorage::in_memory(opts.blaze_devices).expect("storage"));
    let graph = Arc::new(DiskGraph::create(csr, storage).expect("disk graph"));
    let engine_opts = EngineOptions::default().with_compute_workers(opts.blaze_threads.max(2), 0.5);
    BlazeEngine::new(graph, engine_opts).expect("engine")
}

/// Runs `query` on the Blaze engine (binned or sync) and returns the
/// per-iteration traces.
pub fn run_blaze_query(
    query: Query,
    g: &PreparedGraph,
    mode: ExecMode,
    opts: &BenchQueryOptions,
) -> Vec<IterationTrace> {
    run_query(
        query,
        g,
        mode,
        opts,
        |csr| blaze_engine(csr, opts),
        BlazeEngine::take_traces,
    )
}

fn flashgraph_engine(csr: &Csr, opts: &BenchQueryOptions) -> FlashGraphEngine {
    let storage = Arc::new(StripedStorage::in_memory(1).expect("storage"));
    let graph = Arc::new(DiskGraph::create(csr, storage).expect("disk graph"));
    let cache_pages = if opts.flashgraph_cache_pages > 0 {
        opts.flashgraph_cache_pages
    } else {
        (graph.num_pages() as usize / 8).max(64)
    };
    FlashGraphEngine::new(
        graph,
        FlashGraphOptions {
            num_threads: opts.flashgraph_threads,
            cache_pages,
        },
    )
}

/// Runs `query` on the FlashGraph-like engine.
pub fn run_flashgraph_query(
    query: Query,
    g: &PreparedGraph,
    opts: &BenchQueryOptions,
) -> Vec<IterationTrace> {
    run_query(
        query,
        g,
        ExecMode::Binned,
        opts,
        |csr| flashgraph_engine(csr, opts),
        FlashGraphEngine::take_traces,
    )
}

/// Runs `query` on the Graphene-like engine. Returns `None` for BC
/// (Graphene does not implement it — Section V-B) and runs a single
/// full-frontier iteration for PR (Graphene lacks selective scheduling
/// for PR).
pub fn run_graphene_query(
    query: Query,
    g: &PreparedGraph,
    opts: &BenchQueryOptions,
) -> Option<Vec<IterationTrace>> {
    let graphene_opts = GrapheneOptions {
        num_disks: opts.graphene_disks,
        ..Default::default()
    };
    let build = |csr: &Csr| GrapheneEngine::new(csr, graphene_opts.clone()).expect("graphene");
    match query {
        Query::Bc => None,
        Query::PageRank => {
            let engine = build(&g.csr);
            algo::pagerank_one_iteration(&engine).expect("pagerank");
            Some(engine.take_traces())
        }
        _ => Some(run_query(
            query,
            g,
            ExecMode::Binned,
            opts,
            build,
            GrapheneEngine::take_traces,
        )),
    }
}
