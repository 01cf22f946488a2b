//! Forward min-label propagation: every vertex converges to the minimum
//! original vertex id among itself and its directed ancestors.
//!
//! Unlike WCC this runs over *one* direction only and does no pointer
//! jumping — it is the plain monotone-relaxation benchmark: labels start
//! at each vertex's original id and min-relax along out-edges until the
//! fixpoint, which is unique and therefore identical across all three
//! execution modes and all physical layouts.

use blaze_core::{BlazeEngine, EdgeMap, ExecMode, GraphEngine, VertexArray};
use blaze_frontier::VertexSubset;
use blaze_types::{Result, VertexId};

use crate::translate::to_original_order;

/// Out-of-core forward label propagation. Returns per-vertex labels indexed
/// by original vertex id; the label values are original ids too (the
/// initial labels are original ids, so no re-valuing is needed at the
/// boundary — only re-indexing).
pub fn label_propagation(engine: &BlazeEngine, mode: ExecMode) -> Result<VertexArray<u32>> {
    let layout = engine.graph().layout();
    let n = engine.num_vertices();
    let labels = VertexArray::<u32>::new(n, 0);
    // Labels carry original ids so the fixpoint is layout-invariant.
    for p in 0..n {
        labels.set(p, layout.to_original(p as VertexId));
    }

    let scatter = |s: VertexId, _d: VertexId| labels.get(s as usize);
    let cond = |_d: VertexId| true;

    match mode {
        ExecMode::Async => {
            let nb = engine.options().async_buckets as u64;
            let seeds: Vec<VertexId> = (0..n as VertexId).collect();
            // Small labels win the min-fixpoint; spread them first.
            engine.edge_map_async(
                &seeds,
                EdgeMap::new(
                    scatter,
                    |d: VertexId, v: u32| {
                        if v < labels.get(d as usize) {
                            labels.set(d as usize, v);
                            true
                        } else {
                            false
                        }
                    },
                    cond,
                ),
                |v: VertexId| {
                    u64::from(labels.get(v as usize)).saturating_mul(nb) / (n.max(1) as u64)
                },
            )?;
        }
        ExecMode::Binned => {
            let mut frontier = VertexSubset::full(n);
            while !frontier.is_empty() {
                frontier = engine.edge_map(
                    &frontier,
                    EdgeMap::new(
                        scatter,
                        |d: VertexId, v: u32| {
                            if v < labels.get(d as usize) {
                                labels.set(d as usize, v);
                                true
                            } else {
                                false
                            }
                        },
                        cond,
                    )
                    .with_output(),
                )?;
            }
        }
        ExecMode::Sync => {
            let mut frontier = VertexSubset::full(n);
            while !frontier.is_empty() {
                frontier = engine.edge_map(
                    &frontier,
                    EdgeMap::new(
                        scatter,
                        |d: VertexId, v: u32| {
                            labels
                                .fetch_update(d as usize, |cur| (v < cur).then_some(v))
                                .is_ok()
                        },
                        cond,
                    )
                    .sync()
                    .with_output(),
                )?;
            }
        }
    }
    Ok(to_original_order(layout, labels, 0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use blaze_core::EngineOptions;
    use blaze_graph::gen::{rmat, uniform, RmatConfig};
    use blaze_graph::{Csr, DiskGraph, GraphBuilder};
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

    #[test]
    fn binned_matches_reference() {
        let g = rmat(&RmatConfig::new(8));
        let e = engine(&g, 1);
        let labels = label_propagation(&e, ExecMode::Binned).unwrap();
        assert_eq!(labels.to_vec(), reference::labelprop_labels(&g));
    }

    #[test]
    fn sync_matches_reference() {
        let g = uniform(8, 6, 41);
        let e = engine(&g, 2);
        let labels = label_propagation(&e, ExecMode::Sync).unwrap();
        assert_eq!(labels.to_vec(), reference::labelprop_labels(&g));
    }

    #[test]
    fn async_matches_reference() {
        let g = rmat(&RmatConfig::new(8));
        let e = engine(&g, 2);
        let labels = label_propagation(&e, ExecMode::Async).unwrap();
        assert_eq!(labels.to_vec(), reference::labelprop_labels(&g));
        assert!(e.stats().async_rounds >= 1, "async mode must trace rounds");
    }

    #[test]
    fn labels_follow_edge_direction() {
        // 1 -> 0 cannot lower 0; 0 -> 2 -> 3 pulls label 0 downstream.
        let mut b = GraphBuilder::new(5);
        b.extend([(1, 0), (0, 2), (2, 3)]);
        let g = b.build();
        let e = engine(&g, 1);
        let labels = label_propagation(&e, ExecMode::Binned).unwrap();
        assert_eq!(labels.to_vec(), vec![0, 1, 0, 0, 4]);
    }
}
