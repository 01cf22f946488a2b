//! Sharded drivers: the paper's queries re-expressed over a scale-out
//! [`Cluster`] instead of a single engine.
//!
//! Each driver runs the same superstep loop as its single-engine
//! counterpart, but every `EdgeMap` is a distributed round: the shards
//! exchange frontier deltas, gather machine-locally over their destination
//! partitions, and the union of their outputs becomes the next frontier.
//! `VertexMap` (APPLYFILTER) stays on the calling thread — vertex state is
//! replicated, only edges are partitioned — exactly as the paper's
//! Section VI sketch prescribes.
//!
//! Determinism: BFS levels, WCC labels, and SpMV sums over exactly
//! representable inputs are *bit-identical* to a single engine built with
//! the same layout, for any shard count — the per-destination gather runs
//! entirely on the one shard owning that destination, so partitioning only
//! reorders work *between* vertices, never within one vertex's
//! accumulation across shards. PageRank accumulates floating-point mass in
//! a bin order that differs between shard counts, so ranks agree to
//! rounding (the equivalence suite pins 1e-6 relative).
//!
//! All drivers speak *original* vertex ids at the boundary, like the
//! single-engine queries: inputs are translated through the cluster's
//! layout on entry, results on exit.

use std::borrow::Cow;

use blaze_core::{vertex_map, VertexArray};
use blaze_frontier::VertexSubset;
use blaze_scaleout::Cluster;
use blaze_types::{Result, VertexId};

use crate::pagerank::PageRankConfig;
use crate::translate::to_original_order;
use crate::wcc::canonicalize_labels;

/// Sharded BFS from `root` (an original-space id). Returns per-vertex
/// *levels* (hop distance; `-1` unreached), indexed by original id.
///
/// Levels, not parents: the level of a vertex is a property of the graph,
/// identical for every shard count, while the parent that wins the claim
/// depends on gather order within a round — which shard partitioning
/// changes. The deterministic output is what the equivalence suite (and a
/// routed point query) can hold bit-identical.
pub fn sharded_bfs(cluster: &Cluster, root: VertexId) -> Result<VertexArray<i64>> {
    let n = cluster.num_vertices();
    assert!((root as usize) < n, "root out of range");
    let root = cluster.layout().to_physical(root);
    let level = VertexArray::<i64>::new(n, -1);
    level.set(root as usize, 0);
    let mut frontier = VertexSubset::single(n, root);
    let mut depth = 0i64;
    while !frontier.is_empty() {
        depth += 1;
        let d = depth;
        frontier = cluster.edge_map(
            &frontier,
            // The activation itself is the message; no payload needed.
            |_s: VertexId, _d: VertexId| 0u32,
            |dst: VertexId, _v: u32| {
                if level.get(dst as usize) == -1 {
                    level.set(dst as usize, d);
                    true
                } else {
                    false
                }
            },
            |dst: VertexId| level.get(dst as usize) == -1,
            true,
            4,
        )?;
    }
    Ok(to_original_order(cluster.layout(), level, -1))
}

/// Sharded PageRank-delta (Algorithm 2 over the cluster). Returns the rank
/// vector indexed by original id.
///
/// Scatter normalizes by the *global* out-degree from
/// [`Cluster::out_degrees`] — each shard's subgraph only keeps the
/// neighbors it gathers for, so the local degree under-counts.
pub fn sharded_pagerank(cluster: &Cluster, config: PageRankConfig) -> Result<VertexArray<f64>> {
    let n = cluster.num_vertices();
    let degrees = cluster.out_degrees();
    let p = VertexArray::<f64>::new(n, 0.0);
    // contrib[v] = delta[v] / degree(v), as in the single-engine driver.
    let contrib = VertexArray::<f64>::from_fn(n, |v| (1.0 / n as f64) / degrees[v] as f64);
    let ngh_sum = VertexArray::<f64>::new(n, 0.0);
    let mut frontier = VertexSubset::full(n);
    let threads = apply_threads(cluster);

    // SCATTER: normalized delta of the source (Algorithm 2, line 7).
    let scatter = |s: VertexId, _d: VertexId| contrib.get(s as usize);
    let cond = |_d: VertexId| true;

    for _ in 0..config.max_iters {
        if frontier.is_empty() {
            break;
        }
        // GATHER accumulates into ngh_sum. Bin exclusivity holds per shard,
        // and destinations are partitioned, so plain read-modify-write.
        let touched = cluster.edge_map(
            &frontier,
            scatter,
            |d: VertexId, v: f64| {
                ngh_sum.set(d as usize, ngh_sum.get(d as usize) + v);
                true
            },
            cond,
            true,
            8,
        )?;
        // APPLYFILTER (Algorithm 2, lines 20-29), identical to the
        // single-engine driver.
        frontier = vertex_map(
            &touched,
            |i: VertexId| {
                let i = i as usize;
                let nd = ngh_sum.get(i) * config.damping;
                contrib.set(i, nd / degrees[i] as f64);
                ngh_sum.set(i, 0.0);
                if nd.abs() > config.epsilon * p.get(i) {
                    p.set(i, p.get(i) + nd);
                    true
                } else {
                    false
                }
            },
            threads,
        );
    }
    Ok(to_original_order(cluster.layout(), p, 0.0))
}

/// Sharded WCC (Algorithm 3 over two clusters: the graph and its
/// transpose, so labels flow along the undirected view). Returns per-vertex
/// labels — the minimum original id of each component — indexed by
/// original id, bit-identical to the single-engine run.
///
/// Both clusters must be built from the same vertex layout; their
/// destination partitions may differ (the transpose has its own in-degree
/// distribution), which is harmless because the exchanged frontier is
/// global.
pub fn sharded_wcc(out_cluster: &Cluster, in_cluster: &Cluster) -> Result<VertexArray<u32>> {
    let n = out_cluster.num_vertices();
    assert_eq!(
        n,
        in_cluster.num_vertices(),
        "transpose must match the graph"
    );
    assert_eq!(
        out_cluster.layout(),
        in_cluster.layout(),
        "graph and transpose clusters must share one vertex layout"
    );
    let ids = VertexArray::<u32>::new(n, 0);
    let prev_ids = VertexArray::<u32>::new(n, 0);
    for v in 0..n {
        ids.set(v, v as u32);
        prev_ids.set(v, v as u32);
    }
    let mut frontier = VertexSubset::full(n);
    let threads = apply_threads(out_cluster);

    let scatter = |s: VertexId, _d: VertexId| ids.get(s as usize);
    let gather = |d: VertexId, v: u32| {
        if v < ids.get(d as usize) {
            ids.set(d as usize, v);
            true
        } else {
            false
        }
    };
    let cond = |_d: VertexId| true;

    while !frontier.is_empty() {
        // Propagate along out-edges, then in-edges (Algorithm 3 lines 36-37).
        let touched_out = out_cluster.edge_map(&frontier, scatter, gather, cond, true, 4)?;
        let touched_in = in_cluster.edge_map(&frontier, scatter, gather, cond, true, 4)?;
        let candidates = VertexSubset::from_members(
            n,
            touched_out
                .members()
                .into_iter()
                .chain(touched_in.members()),
        );
        // APPLYFILTER: shortcut (pointer jump) and keep only changed ids.
        frontier = vertex_map(
            &candidates,
            |i: VertexId| {
                let i = i as usize;
                let id = ids.get(ids.get(i) as usize);
                if ids.get(i) != id {
                    ids.set(i, id);
                }
                if prev_ids.get(i) != ids.get(i) {
                    prev_ids.set(i, ids.get(i));
                    true
                } else {
                    false
                }
            },
            threads,
        );
    }
    Ok(canonicalize_labels(out_cluster.layout(), ids))
}

/// Sharded SpMV: `y = Aᵀ·x` accumulated along out-edges into destinations.
/// `x` and the returned `y` are indexed by original id.
pub fn sharded_spmv(cluster: &Cluster, x: &[f64]) -> Result<VertexArray<f64>> {
    let n = cluster.num_vertices();
    assert_eq!(x.len(), n, "input vector must have one entry per vertex");
    let layout = cluster.layout();
    // Boundary translation in: physical slot p reads x[orig(p)].
    let px: Cow<'_, [f64]> = match layout.phys_to_orig() {
        Some(map) => map.iter().map(|&orig| x[orig as usize]).collect(),
        None => Cow::Borrowed(x),
    };
    let x = px.as_ref();
    let y = VertexArray::<f64>::new(n, 0.0);
    let frontier = VertexSubset::full(n);
    cluster.edge_map(
        &frontier,
        |s: VertexId, _d: VertexId| x[s as usize],
        |d: VertexId, v: f64| {
            y.set(d as usize, y.get(d as usize) + v);
            false
        },
        |_d: VertexId| true,
        false,
        8,
    )?;
    Ok(to_original_order(cluster.layout(), y, 0.0))
}

/// APPLYFILTER thread count: mirror what the shard engines were configured
/// with so the sharded and single-engine drivers split vertex work alike.
fn apply_threads(cluster: &Cluster) -> usize {
    cluster.machines()[0].engine.options().compute_workers()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use blaze_core::EngineOptions;
    use blaze_graph::gen::{rmat, RmatConfig};

    #[test]
    fn sharded_bfs_levels_match_reference() {
        let g = rmat(&RmatConfig::new(8));
        let cluster = Cluster::build(&g, 3, 1, EngineOptions::default()).unwrap();
        let levels = sharded_bfs(&cluster, 0).unwrap();
        assert_eq!(levels.to_vec(), reference::bfs_levels(&g, 0));
    }

    #[test]
    fn sharded_wcc_labels_match_reference() {
        let g = rmat(&RmatConfig::new(8));
        let t = g.transpose();
        let oc = Cluster::build(&g, 2, 1, EngineOptions::default()).unwrap();
        let ic = Cluster::build(&t, 2, 1, EngineOptions::default()).unwrap();
        let ids = sharded_wcc(&oc, &ic).unwrap();
        assert_eq!(ids.to_vec(), reference::wcc_labels(&g));
    }

    #[test]
    fn sharded_spmv_is_exact_on_integer_vectors() {
        let g = rmat(&RmatConfig::new(8));
        let cluster = Cluster::build(&g, 4, 1, EngineOptions::default()).unwrap();
        let x: Vec<f64> = (0..g.num_vertices()).map(|v| (v % 17) as f64).collect();
        let y = sharded_spmv(&cluster, &x).unwrap();
        assert_eq!(y.to_vec(), reference::spmv(&g, &x));
    }

    #[test]
    fn sharded_pagerank_tracks_reference_within_rounding() {
        let g = rmat(&RmatConfig::new(8));
        let cluster = Cluster::build(&g, 2, 1, EngineOptions::default()).unwrap();
        let cfg = PageRankConfig::default();
        let p = sharded_pagerank(&cluster, cfg).unwrap();
        let expect = reference::pagerank_delta(&g, cfg.damping, cfg.epsilon, cfg.max_iters);
        for (i, (a, b)) in p.to_vec().iter().zip(&expect).enumerate() {
            let scale = a.abs().max(b.abs()).max(1e-12);
            assert!(
                (a - b).abs() / scale < 1e-6,
                "rank mismatch at {i}: {a} vs {b}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "share one vertex layout")]
    fn wcc_rejects_mismatched_layouts() {
        let g = rmat(&RmatConfig::new(7));
        let t = g.transpose();
        let oc = Cluster::build_with_layout(
            &g,
            blaze_graph::VertexLayout::Degree,
            2,
            1,
            EngineOptions::default(),
        )
        .unwrap();
        let ic = Cluster::build(&t, 2, 1, EngineOptions::default()).unwrap();
        let _ = sharded_wcc(&oc, &ic);
    }
}
