//! Property tests pinning the queries run over a cluster to the
//! single-engine semantics: the concurrent destination-partitioned cluster
//! must return the *same answer* as one engine over the whole graph, for
//! every shard count — BFS parents a valid tree with the oracle's levels,
//! WCC labels bit-identical, SpMV on integer vectors exact, PageRank within
//! 1e-6 (floating-point summation order legitimately shifts low bits
//! across partitionings).
//!
//! Axes: shard counts {1, 2, 3, 8} x graph shapes (random edge sets, a
//! super-vertex hub absorbing most in-edges, generated R-MAT) x physical
//! layouts (identity and degree-reordered).

use proptest::prelude::*;

use blaze_algorithms::{bfs, pagerank_delta, reference, spmv, wcc, ExecMode, PageRankConfig};
use blaze_core::{BlazeEngine, EngineOptions, GraphEngine};
use blaze_graph::gen::{rmat, RmatConfig};
use blaze_graph::{Csr, DiskGraph, GraphBuilder, VertexLayout};
use blaze_scaleout::Cluster;
use blaze_storage::StripedStorage;
use blaze_sync::Arc;

const N: u32 = 48;
const SHARDS: [usize; 4] = [1, 2, 3, 8];
const LAYOUTS: [VertexLayout; 2] = [VertexLayout::None, VertexLayout::Degree];

fn build(edges: Vec<(u32, u32)>) -> Csr {
    let mut b = GraphBuilder::new(N as usize);
    b.extend(edges);
    b.build()
}

/// Random edges or a hub-heavy super-vertex shape — the skew that makes
/// destination partitioning earn its repair pass.
fn arb_graph() -> impl Strategy<Value = Csr> {
    (
        any::<bool>(),
        proptest::collection::vec((0..N, 0..N), 1..300),
        0..N,
        proptest::collection::vec(0..N, 40..200),
    )
        .prop_map(|(hubby, edges, hub, sources)| {
            if hubby {
                build(
                    sources
                        .into_iter()
                        .map(|s| (s, hub))
                        .chain(edges.into_iter().take(40))
                        .collect(),
                )
            } else {
                build(edges)
            }
        })
}

fn opts() -> EngineOptions {
    EngineOptions::default()
}

/// Graph + transpose clusters sharing ONE permutation (the transpose must
/// not re-plan its own degree order), as the WCC driver requires.
fn cluster_pair(g: &Csr, layout: VertexLayout, shards: usize) -> (Cluster, Cluster) {
    let (perm, _hot) = layout.plan(g);
    let phys = perm.permute_csr(g);
    let phys_t = phys.transpose();
    let oc = Cluster::build_physical(&phys, perm.clone(), shards, 1, opts()).unwrap();
    let ic = Cluster::build_physical(&phys_t, perm, shards, 1, opts()).unwrap();
    (oc, ic)
}

fn assert_close(a: &[f64], b: &[f64], tol: f64, what: &str) {
    assert_eq!(a.len(), b.len());
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        let scale = x.abs().max(y.abs()).max(1e-12);
        assert!((x - y).abs() / scale < tol, "{what}[{i}]: {x} vs {y}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// BFS parents form a valid tree whose levels equal the reference's,
    /// for every shard count and layout. (Which in-neighbor wins a vertex
    /// depends on gather order, which partitioning changes; the levels do
    /// not.)
    #[test]
    fn bfs_levels_match_for_every_shard_count(g in arb_graph(), root in 0..N) {
        for layout in LAYOUTS {
            for shards in SHARDS {
                let c = Cluster::build_with_layout(&g, layout, shards, 1, opts()).unwrap();
                let parents = bfs(&c, root, ExecMode::Binned).unwrap().to_vec();
                prop_assert_eq!(
                    reference::check_bfs_tree(&g, root, &parents), Ok(()),
                    "tree with {} shards under {} layout", shards, layout.name()
                );
            }
        }
    }

    /// WCC labels (minimum original id per component) are bit-identical to
    /// the reference for every shard count and layout.
    #[test]
    fn wcc_labels_match_for_every_shard_count(g in arb_graph()) {
        let want = reference::wcc_labels(&g);
        for layout in LAYOUTS {
            for shards in SHARDS {
                let (oc, ic) = cluster_pair(&g, layout, shards);
                let ids = wcc(&oc, &ic, ExecMode::Binned).unwrap().to_vec();
                prop_assert_eq!(
                    &ids, &want,
                    "labels with {} shards under {} layout", shards, layout.name()
                );
            }
        }
    }

    /// SpMV on an integer-valued vector is EXACT for every shard count:
    /// each destination's sum runs entirely on the one shard owning it, so
    /// partitioning cannot even reorder the accumulation.
    #[test]
    fn integer_spmv_is_exact_for_every_shard_count(g in arb_graph(), seed in 0u64..1000) {
        let x: Vec<f64> = (0..g.num_vertices())
            .map(|i| ((i as u64).wrapping_mul(seed + 1) % 23) as f64)
            .collect();
        let want = reference::spmv(&g, &x);
        for layout in LAYOUTS {
            for shards in SHARDS {
                let c = Cluster::build_with_layout(&g, layout, shards, 1, opts()).unwrap();
                let y = spmv(&c, &x, ExecMode::Binned).unwrap().to_vec();
                prop_assert_eq!(
                    &y, &want,
                    "spmv with {} shards under {} layout", shards, layout.name()
                );
            }
        }
    }

    /// PageRank ranks agree with the reference to 1e-6 relative for every
    /// shard count.
    #[test]
    fn pagerank_tracks_reference_for_every_shard_count(g in arb_graph()) {
        let cfg = PageRankConfig::default();
        let want = reference::pagerank_delta(&g, cfg.damping, cfg.epsilon, cfg.max_iters);
        for layout in LAYOUTS {
            for shards in SHARDS {
                let c = Cluster::build_with_layout(&g, layout, shards, 1, opts()).unwrap();
                let p = pagerank_delta(&c, cfg, ExecMode::Binned).unwrap().to_vec();
                assert_close(
                    &p, &want, 1e-6,
                    &format!("{} shards, {} layout", shards, layout.name()),
                );
            }
        }
    }
}

/// R-MAT at scale 8 (power-law, the shape destination partitioning
/// targets): all four queries on a cluster against the single-engine oracle on
/// 8 shards with a degree layout — the deepest configuration the proptest
/// axes reach, held bit-identical where the output is deterministic.
#[test]
fn rmat_sharded_queries_match_single_engine_oracle() {
    let g = rmat(&RmatConfig::new(8));
    let t = g.transpose();

    // Single-engine oracle runs (identity layout; outputs in original ids).
    let engine = |graph: &Csr| -> BlazeEngine {
        let storage = Arc::new(StripedStorage::in_memory(2).unwrap());
        BlazeEngine::new(Arc::new(DiskGraph::create(graph, storage).unwrap()), opts()).unwrap()
    };
    let oracle_wcc = wcc(&engine(&g), &engine(&t), ExecMode::Binned)
        .unwrap()
        .to_vec();
    let pr_cfg = PageRankConfig::default();
    let oracle_pr = reference::pagerank_delta(&g, pr_cfg.damping, pr_cfg.epsilon, pr_cfg.max_iters);
    let x: Vec<f64> = (0..g.num_vertices()).map(|v| (v % 13) as f64).collect();
    let oracle_y = reference::spmv(&g, &x);

    for layout in LAYOUTS {
        let c = Cluster::build_with_layout(&g, layout, 8, 1, opts()).unwrap();
        if layout == VertexLayout::Degree {
            assert!(!c.layout().is_identity(), "rmat must reorder under degree");
        }
        let parents = bfs(&c, 0, ExecMode::Binned).unwrap().to_vec();
        assert_eq!(reference::check_bfs_tree(&g, 0, &parents), Ok(()));
        assert_eq!(spmv(&c, &x, ExecMode::Binned).unwrap().to_vec(), oracle_y);
        assert_close(
            &pagerank_delta(&c, pr_cfg, ExecMode::Binned)
                .unwrap()
                .to_vec(),
            &oracle_pr,
            1e-6,
            layout.name(),
        );
        let (oc, ic) = cluster_pair(&g, layout, 8);
        assert_eq!(
            wcc(&oc, &ic, ExecMode::Binned).unwrap().to_vec(),
            oracle_wcc
        );
        // The cluster genuinely ran distributed: every round crossed the
        // fabric and every shard's engine did real work.
        let stats = c.stats();
        assert!(stats.exchange_messages > 0 && stats.exchange_bytes > 0);
        assert_eq!(stats.per_shard.len(), 8);
    }
}
