//! One conformance suite for every `GraphEngine`: each query is written
//! once, so each engine must give the reference answer for it.
//!
//! Engines: the Blaze engine in binned, sync and combined mode; clusters
//! of 1, 2 and 3 shards; the FlashGraph-like and Graphene-like baselines.
//! Queries: BFS (a valid tree with the reference levels), PageRank-delta
//! (1e-6 relative), WCC (exact labels) and SpMV on an integer vector
//! (exact). The Blaze engine and the clusters also run a degree-reordered
//! graph; an engine that cannot run a mode must say so with
//! `BlazeError::Config`.

use std::path::Path;
use std::sync::Arc;

use blaze::algorithms::{
    bc, bfs, pagerank_delta, pagerank_delta_combined, reference, spmv, wcc, ExecMode,
    PageRankConfig,
};
use blaze::baselines::{FlashGraphEngine, FlashGraphOptions, GrapheneEngine, GrapheneOptions};
use blaze::engine::{BlazeEngine, EngineOptions, GraphEngine};
use blaze::graph::disk::{save_files_with_layout, LayoutMeta};
use blaze::graph::gen::{rmat, RmatConfig};
use blaze::graph::{Csr, DiskGraph, VertexLayout};
use blaze::scaleout::Cluster;
use blaze::storage::StripedStorage;
use blaze::types::BlazeError;

const ROOT: u32 = 0;

fn graph() -> Csr {
    rmat(&RmatConfig::new(8))
}

fn assert_close(got: &[f64], want: &[f64], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (x, y)) in got.iter().zip(want).enumerate() {
        let scale = x.abs().max(y.abs()).max(1e-12);
        assert!((x - y).abs() / scale < 1e-6, "{what}: rank[{i}] {x} vs {y}");
    }
}

/// Runs BFS, PageRank, WCC and SpMV over `out`/`inn` (the graph and its
/// transpose) and checks each against the in-memory reference on `g`.
/// `combine` runs the combined PageRank instead of the plain one.
fn conforms<E: GraphEngine>(what: &str, g: &Csr, out: &E, inn: &E, mode: ExecMode, combine: bool) {
    let parents = bfs(out, ROOT, mode).unwrap().to_vec();
    assert_eq!(
        reference::check_bfs_tree(g, ROOT, &parents),
        Ok(()),
        "{what}: bfs"
    );

    let cfg = PageRankConfig::default();
    let ranks = if combine {
        pagerank_delta_combined(out, cfg)
    } else {
        pagerank_delta(out, cfg, mode)
    };
    assert_close(
        &ranks.unwrap().to_vec(),
        &reference::pagerank_delta(g, cfg.damping, cfg.epsilon, cfg.max_iters),
        &format!("{what}: pagerank"),
    );

    let labels = wcc(out, inn, mode).unwrap().to_vec();
    assert_eq!(labels, reference::wcc_labels(g), "{what}: wcc");

    let x: Vec<f64> = (0..g.num_vertices()).map(|v| (v % 17) as f64).collect();
    let y = spmv(out, &x, mode).unwrap().to_vec();
    assert_eq!(y, reference::spmv(g, &x), "{what}: spmv");
}

/// The graph and its transpose written under one `layout` permutation (as
/// the dataset tools write them), opened as two Blaze engines.
fn blaze_pair(g: &Csr, layout: VertexLayout, dir: &Path) -> (BlazeEngine, BlazeEngine) {
    let (perm, hot_vertices) = layout.plan(g);
    let phys = perm.permute_csr(g);
    let meta = LayoutMeta {
        kind: layout,
        hot_vertices,
        perm,
    };
    let open = |csr: &Csr, name: &str| {
        let (index, adj) = save_files_with_layout(csr, dir, name, 2, Some(&meta)).unwrap();
        let graph = Arc::new(DiskGraph::open_files(&index, &adj).unwrap());
        BlazeEngine::new(graph, EngineOptions::default()).unwrap()
    };
    (open(&phys, "g.gr"), open(&phys.transpose(), "g.tgr"))
}

/// Graph and transpose clusters of `shards` sharing one `layout`
/// permutation.
fn cluster_pair(g: &Csr, layout: VertexLayout, shards: usize) -> (Cluster, Cluster) {
    let (perm, _hot) = layout.plan(g);
    let phys = perm.permute_csr(g);
    let build = |csr: &Csr| {
        Cluster::build_physical(csr, perm.clone(), shards, 1, EngineOptions::default()).unwrap()
    };
    (build(&phys), build(&phys.transpose()))
}

#[test]
fn blaze_engine_conforms_in_every_barriered_mode_and_layout() {
    let g = graph();
    for layout in [VertexLayout::None, VertexLayout::Degree] {
        let dir = tempfile::tempdir().unwrap();
        let (out, inn) = blaze_pair(&g, layout, dir.path());
        assert_eq!(out.layout().is_identity(), layout == VertexLayout::None);
        for (mode_name, mode, combine) in [
            ("binned", ExecMode::Binned, false),
            ("sync", ExecMode::Sync, false),
            ("combined", ExecMode::Binned, true),
        ] {
            let what = format!("{mode_name}/{}", layout.name());
            conforms(&what, &g, &out, &inn, mode, combine);
        }
        assert!(out.stats().records_combined > 0, "combined PageRank ran");
    }
}

#[test]
fn clusters_conform_for_one_two_and_three_shards() {
    let g = graph();
    for layout in [VertexLayout::None, VertexLayout::Degree] {
        for shards in [1, 2, 3] {
            let (out, inn) = cluster_pair(&g, layout, shards);
            let what = format!("{shards} shards/{}", layout.name());
            for combine in [false, true] {
                conforms(&what, &g, &out, &inn, ExecMode::Binned, combine);
            }
            let stats = out.stats();
            assert_eq!(stats.per_shard.len(), shards);
            assert_eq!(stats.exchange_messages > 0, shards > 1, "{what}");
        }
    }
}

#[test]
fn baselines_conform() {
    let g = graph();
    let t = g.transpose();
    let flashgraph = |csr: &Csr| {
        let storage = Arc::new(StripedStorage::in_memory(1).unwrap());
        FlashGraphEngine::new(
            Arc::new(DiskGraph::create(csr, storage).unwrap()),
            FlashGraphOptions::default(),
        )
    };
    let (fo, fi) = (flashgraph(&g), flashgraph(&t));
    conforms("flashgraph", &g, &fo, &fi, ExecMode::Binned, false);
    let graphene = |csr: &Csr| GrapheneEngine::new(csr, GrapheneOptions::default()).unwrap();
    let (go, gi) = (graphene(&g), graphene(&t));
    conforms("graphene", &g, &go, &gi, ExecMode::Binned, false);

    // Brandes BC (forward sweep over the graph, backward over the
    // transpose) on the FlashGraph engine, which implements it in the
    // paper's comparison.
    let scores = bc(&fo, &fi, ROOT, ExecMode::Binned).unwrap().to_vec();
    let want = reference::bc_scores(&g, ROOT);
    for (v, (x, y)) in scores.iter().zip(&want).enumerate() {
        assert!(
            (x - y).abs() < 1e-9 * x.abs().max(1.0),
            "bc[{v}]: {x} vs {y}"
        );
    }
}

#[test]
fn engines_reject_modes_they_cannot_run() {
    let g = graph();
    let t = g.transpose();
    let (out, inn) = cluster_pair(&g, VertexLayout::None, 2);
    let config = |r: blaze::types::Result<_>| matches!(r, Err(BlazeError::Config(_)));
    assert!(config(bfs(&out, ROOT, ExecMode::Sync).map(drop)));
    assert!(config(bfs(&out, ROOT, ExecMode::Async).map(drop)));
    assert!(config(wcc(&out, &inn, ExecMode::Sync).map(drop)));
    assert!(config(wcc(&out, &inn, ExecMode::Async).map(drop)));
    assert_eq!(out.stats().rounds, 0, "a rejected mode runs no round");

    let go = GrapheneEngine::new(&g, GrapheneOptions::default()).unwrap();
    let gi = GrapheneEngine::new(&t, GrapheneOptions::default()).unwrap();
    assert!(config(bfs(&go, ROOT, ExecMode::Async).map(drop)));
    assert!(config(wcc(&go, &gi, ExecMode::Async).map(drop)));
}

#[test]
#[should_panic(expected = "share one vertex layout")]
fn wcc_rejects_engines_with_different_layouts() {
    let g = graph();
    let out = Cluster::build_with_layout(&g, VertexLayout::Degree, 2, 1, EngineOptions::default())
        .unwrap();
    let inn = Cluster::build(&g.transpose(), 2, 1, EngineOptions::default()).unwrap();
    let _ = wcc(&out, &inn, ExecMode::Binned);
}
