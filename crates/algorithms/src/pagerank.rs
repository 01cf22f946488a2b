//! PageRank, delta variant — Algorithm 2 of the paper.
//!
//! Vertices stay active only while their rank keeps changing by more than
//! `epsilon * p[v]`; EDGEMAP propagates normalized deltas and VERTEXMAP
//! applies the damping factor and filters the next frontier.

use blaze_core::{EdgeMap, ExecMode, GraphEngine, VertexArray};
use blaze_frontier::VertexSubset;
use blaze_types::{Result, VertexId};

use crate::translate::to_original_order;

/// PageRank-delta parameters.
#[derive(Debug, Clone, Copy)]
pub struct PageRankConfig {
    /// Damping factor `D` (0.85 in the paper).
    pub damping: f64,
    /// Activation threshold `e`.
    pub epsilon: f64,
    /// Safety cap on iterations.
    pub max_iters: usize,
}

impl Default for PageRankConfig {
    fn default() -> Self {
        Self {
            damping: 0.85,
            epsilon: 0.01,
            max_iters: 100,
        }
    }
}

/// Out-of-core PageRank-delta. Returns the rank vector `p`, indexed by
/// original vertex id.
pub fn pagerank_delta<E: GraphEngine>(
    engine: &E,
    config: PageRankConfig,
    mode: ExecMode,
) -> Result<VertexArray<f64>> {
    run_pagerank(engine, config, mode, false)
}

/// [`pagerank_delta`] with scatter-side record combining (binned mode
/// only): same-destination delta contributions inside one staging window
/// are summed before they reach the bins, so hub vertices on power-law
/// graphs cost one bin record per window instead of one per in-edge. The
/// combine operator is the same addition `gather` performs, so ranks match
/// the uncombined path up to floating-point summation order (the
/// `combine_equivalence` property test pins exact agreement on
/// integer-valued workloads).
pub fn pagerank_delta_combined<E: GraphEngine>(
    engine: &E,
    config: PageRankConfig,
) -> Result<VertexArray<f64>> {
    run_pagerank(engine, config, ExecMode::Binned, true)
}

fn run_pagerank<E: GraphEngine>(
    engine: &E,
    config: PageRankConfig,
    mode: ExecMode,
    combined: bool,
) -> Result<VertexArray<f64>> {
    if mode == ExecMode::Async {
        // Rank accumulation is not a monotone relaxation: applying a delta
        // twice (a stale async re-delivery) changes the sum.
        return Err(blaze_types::BlazeError::Config(
            "pagerank is not monotone; async mode supports BFS/SSSP/WCC/k-core/labelprop".into(),
        ));
    }
    let n = engine.num_vertices();
    let p = VertexArray::<f64>::new(n, 0.0);
    // contrib[v] = delta[v] / degree(v): the normalized delta of Algorithm 2,
    // line 7, divided once per vertex when delta changes instead of once
    // per out-edge. A zero-degree vertex holds 0/0 but has no edge to
    // scatter it along. The degree is the whole graph's, which a cluster
    // shard's filtered subgraph would under-count.
    let contrib = VertexArray::<f64>::from_fn(n, |v| {
        (1.0 / n as f64) / engine.out_degree(v as VertexId) as f64
    });
    let ngh_sum = VertexArray::<f64>::new(n, 0.0);

    let mut frontier = VertexSubset::full(n);

    // SCATTER: normalized delta of the source (Algorithm 2, line 7).
    let scatter = |s: VertexId, _d: VertexId| contrib.get(s as usize);
    let cond = |_d: VertexId| true;

    for _ in 0..config.max_iters {
        if frontier.is_empty() {
            break;
        }
        // GATHER accumulates into ngh_sum; `output` marks every vertex that
        // received mass so APPLYFILTER can visit it.
        // Bin exclusivity: plain read-modify-write, no CAS.
        let gather = |d: VertexId, v: f64| {
            ngh_sum.set(d as usize, ngh_sum.get(d as usize) + v);
            true
        };
        let spec = EdgeMap::new(scatter, gather, cond).with_output();
        let touched = match mode {
            ExecMode::Binned if combined => {
                engine.edge_map(&frontier, spec.combine(|a: f64, b: f64| a + b))?
            }
            ExecMode::Binned => engine.edge_map(&frontier, spec)?,
            ExecMode::Sync => {
                let gather = |d: VertexId, v: f64| {
                    ngh_sum.fetch_add(d as usize, v);
                    true
                };
                engine.edge_map(
                    &frontier,
                    EdgeMap::new(scatter, gather, cond).sync().with_output(),
                )?
            }
            ExecMode::Async => unreachable!("rejected at entry"),
        };
        // APPLYFILTER (Algorithm 2, lines 20-29).
        frontier = engine.vertex_map(&touched, |v: VertexId| {
            let i = v as usize;
            let nd = ngh_sum.get(i) * config.damping;
            contrib.set(i, nd / engine.out_degree(v) as f64);
            ngh_sum.set(i, 0.0);
            if nd.abs() > config.epsilon * p.get(i) {
                p.set(i, p.get(i) + nd);
                true
            } else {
                false
            }
        });
    }
    // Boundary translation: ranks computed in physical order come back
    // indexed by original vertex id (no-op on identity layouts).
    Ok(to_original_order(engine.layout(), p, 0.0))
}

/// One PageRank iteration over the full frontier: every vertex scatters
/// `1 / (n · degree)` and the result is each vertex's received mass. The
/// paper compares against Graphene with "1 PR iteration" because Graphene
/// lacks selective scheduling for PageRank (Section V-B).
pub fn pagerank_one_iteration<E: GraphEngine>(engine: &E) -> Result<VertexArray<f64>> {
    let n = engine.num_vertices();
    let contribution = VertexArray::<f64>::new(n, 0.0);
    let spec = EdgeMap::new(
        |s: VertexId, _d: VertexId| 1.0 / (n as f64 * engine.out_degree(s) as f64),
        |d: VertexId, v: f64| {
            contribution.set(d as usize, contribution.get(d as usize) + v);
            false
        },
        |_d: VertexId| true,
    );
    engine.edge_map(&VertexSubset::full(n), spec)?;
    Ok(to_original_order(engine.layout(), contribution, 0.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use blaze_core::{BlazeEngine, EngineOptions};
    use blaze_graph::gen::{rmat, RmatConfig};
    use blaze_graph::{Csr, DiskGraph};
    use blaze_storage::StripedStorage;
    use std::sync::Arc;

    fn engine(g: &Csr, devices: usize) -> BlazeEngine {
        let storage = Arc::new(StripedStorage::in_memory(devices).unwrap());
        BlazeEngine::new(
            Arc::new(DiskGraph::create(g, storage).unwrap()),
            EngineOptions::default(),
        )
        .unwrap()
    }

    fn assert_close(a: &[f64], b: &[f64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            let scale = x.abs().max(y.abs()).max(1e-12);
            assert!(
                (x - y).abs() / scale < tol,
                "rank mismatch at {i}: {x} vs {y}"
            );
        }
    }

    #[test]
    fn binned_matches_reference() {
        let g = rmat(&RmatConfig::new(8));
        let e = engine(&g, 1);
        let cfg = PageRankConfig::default();
        let p = pagerank_delta(&e, cfg, ExecMode::Binned).unwrap();
        let expect = reference::pagerank_delta(&g, cfg.damping, cfg.epsilon, cfg.max_iters);
        assert_close(&p.to_vec(), &expect, 1e-6);
    }

    #[test]
    fn sync_matches_reference() {
        let g = rmat(&RmatConfig::new(8));
        let e = engine(&g, 2);
        let cfg = PageRankConfig::default();
        let p = pagerank_delta(&e, cfg, ExecMode::Sync).unwrap();
        let expect = reference::pagerank_delta(&g, cfg.damping, cfg.epsilon, cfg.max_iters);
        assert_close(&p.to_vec(), &expect, 1e-6);
    }

    #[test]
    fn combined_matches_reference() {
        let g = rmat(&RmatConfig::new(8));
        let e = engine(&g, 2);
        let cfg = PageRankConfig::default();
        let p = pagerank_delta_combined(&e, cfg).unwrap();
        let expect = reference::pagerank_delta(&g, cfg.damping, cfg.epsilon, cfg.max_iters);
        assert_close(&p.to_vec(), &expect, 1e-6);
        assert!(
            e.stats().records_combined > 0,
            "an R-MAT graph must combine some hub records"
        );
    }

    #[test]
    fn zero_degree_vertices_match_reference() {
        // Drop the out-edges of every third vertex: those sinks still
        // receive mass, so APPLYFILTER writes their 0/0-style `contrib`,
        // which must never reach an edge.
        let g = rmat(&RmatConfig::new(8));
        let mut offsets = vec![0u64];
        let mut neighbors = Vec::new();
        for v in 0..g.num_vertices() as VertexId {
            if v % 3 != 0 {
                neighbors.extend_from_slice(g.neighbors(v));
            }
            offsets.push(neighbors.len() as u64);
        }
        let g = Csr::from_parts(offsets, neighbors);
        let t = g.transpose();
        assert!(
            (0..g.num_vertices() as VertexId).any(|v| g.degree(v) == 0 && t.degree(v) > 0),
            "the graph must have sinks that receive mass"
        );
        let cfg = PageRankConfig::default();
        let expect = reference::pagerank_delta(&g, cfg.damping, cfg.epsilon, cfg.max_iters);
        let e = engine(&g, 2);
        let cluster = blaze_scaleout::Cluster::build(&g, 2, 1, EngineOptions::default()).unwrap();
        let runs = [
            ("binned", pagerank_delta(&e, cfg, ExecMode::Binned).unwrap()),
            ("sync", pagerank_delta(&e, cfg, ExecMode::Sync).unwrap()),
            ("combined", pagerank_delta_combined(&e, cfg).unwrap()),
            (
                "2-shard",
                pagerank_delta(&cluster, cfg, ExecMode::Binned).unwrap(),
            ),
        ];
        for (mode, p) in runs {
            let p = p.to_vec();
            assert!(p.iter().all(|x| x.is_finite()), "{mode}: non-finite rank");
            assert_close(&p, &expect, 1e-6);
        }
    }

    #[test]
    fn hub_vertices_rank_highest() {
        let g = rmat(&RmatConfig::new(9));
        let e = engine(&g, 1);
        let p = pagerank_delta(&e, PageRankConfig::default(), ExecMode::Binned).unwrap();
        let ranks = p.to_vec();
        // The top-ranked vertex should be among the highest in-degree ones.
        let t = g.transpose();
        let best = ranks
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0 as u32;
        let best_in_deg = t.degree(best);
        let max_in_deg = (0..t.num_vertices() as u32)
            .map(|v| t.degree(v))
            .max()
            .unwrap();
        assert!(
            best_in_deg as f64 >= 0.5 * max_in_deg as f64,
            "top rank vertex has in-degree {best_in_deg}, max is {max_in_deg}"
        );
    }

    #[test]
    fn converges_before_max_iters() {
        let g = rmat(&RmatConfig::new(8));
        let e = engine(&g, 1);
        let cfg = PageRankConfig {
            epsilon: 0.05,
            ..Default::default()
        };
        pagerank_delta(&e, cfg, ExecMode::Binned).unwrap();
        let iters = e.stats().iterations;
        assert!(iters < cfg.max_iters, "needed {iters} iterations");
        assert!(iters >= 2);
    }
}
