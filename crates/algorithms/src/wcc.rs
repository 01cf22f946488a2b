//! Weakly Connected Components — Algorithm 3 of the paper: label
//! propagation with shortcutting (pointer jumping), run over both the CSR
//! and its transpose so labels flow along the undirected view.

use blaze_core::{EdgeMap, ExecMode, GraphEngine, VertexArray};
use blaze_frontier::{PriorityFrontier, VertexSubset};
use blaze_types::{Result, VertexId};

/// Out-of-core WCC. `out_engine` runs over the graph, `in_engine` over its
/// transpose (the `.tgr` files of the artifact). Returns per-vertex labels:
/// the minimum *original* vertex id of each weakly connected component,
/// independent of the physical layout the graph was written with.
///
/// Both engines must share one vertex layout; their edge partitioning may
/// differ (a transpose cluster has its own in-degree distribution), which
/// is harmless because every round's frontier is global.
pub fn wcc<E: GraphEngine>(
    out_engine: &E,
    in_engine: &E,
    mode: ExecMode,
) -> Result<VertexArray<u32>> {
    let n = out_engine.num_vertices();
    assert_eq!(
        n,
        in_engine.num_vertices(),
        "transpose must match the graph"
    );
    assert_eq!(
        out_engine.layout(),
        in_engine.layout(),
        "graph and transpose must share one vertex layout"
    );
    let ids = VertexArray::<u32>::from_fn(n, |v| v as u32);

    if mode == ExecMode::Async {
        run_async(out_engine, in_engine, &ids, n)?;
        return Ok(canonicalize_labels(out_engine.layout(), ids));
    }

    let prev_ids = VertexArray::<u32>::from_fn(n, |v| v as u32);
    let mut frontier = VertexSubset::full(n);
    while !frontier.is_empty() {
        // Propagate along out-edges, then in-edges (Algorithm 3 lines 36-37).
        let touched_out = run_direction(out_engine, &frontier, &ids, mode)?;
        let touched_in = run_direction(in_engine, &frontier, &ids, mode)?;
        let candidates = VertexSubset::from_members(
            n,
            touched_out
                .members()
                .into_iter()
                .chain(touched_in.members()),
        );
        // APPLYFILTER: shortcut (pointer jump) and keep only changed ids.
        frontier = out_engine.vertex_map(&candidates, |i: VertexId| {
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
        });
    }
    Ok(canonicalize_labels(out_engine.layout(), ids))
}

/// Barrier-free WCC: every vertex seeds one shared priority frontier
/// (bucketed by scaled label — small labels spread first, since they are
/// the ones that survive the min-fixpoint), and each drained batch scatters
/// over *both* directions before completing, so labels flow along the
/// undirected view exactly as in the barriered rounds. No pointer jumping:
/// quiescence of the frontier *is* the fixpoint, and min-label relaxation
/// is order-independent, so the converged labels — the minimum physical id
/// per component — are bit-identical to the barriered modes'.
fn run_async<E: GraphEngine>(
    out_engine: &E,
    in_engine: &E,
    ids: &VertexArray<u32>,
    n: usize,
) -> Result<()> {
    let (buckets, batch_max) = out_engine.async_batching()?;
    let nb = buckets as u64;
    let pf = PriorityFrontier::new(n, buckets);
    let priority =
        |v: VertexId| u64::from(ids.get(v as usize)).saturating_mul(nb) / (n.max(1) as u64);
    for v in 0..n as u32 {
        pf.push(v, priority(v));
    }
    let spec = EdgeMap::new(
        |s: VertexId, _d: VertexId| ids.get(s as usize),
        |d: VertexId, v: u32| {
            if v < ids.get(d as usize) {
                ids.set(d as usize, v);
                true
            } else {
                false
            }
        },
        |_d: VertexId| true,
    );
    while let Some((bucket, batch)) = pf.pop_batch(batch_max) {
        let round = out_engine
            .edge_map_async_batch(&batch, bucket, &pf, spec, &priority)
            .and_then(|()| in_engine.edge_map_async_batch(&batch, bucket, &pf, spec, &priority));
        pf.complete_batch();
        round?;
    }
    debug_assert!(pf.is_quiescent(), "drained frontier must be quiescent");
    Ok(())
}

/// Boundary translation for WCC. Propagation converges to the minimum
/// *physical* id per component, and labels are used as array indices along
/// the way — so the run itself must stay physical. Afterwards each
/// component is relabeled to the minimum *original* id of its members and
/// the array re-indexed to original order, matching the unreordered run
/// exactly. Identity layouts skip the pass: physical == original there.
fn canonicalize_labels(
    layout: &blaze_graph::VertexPermutation,
    ids: VertexArray<u32>,
) -> VertexArray<u32> {
    let Some(map) = layout.phys_to_orig() else {
        return ids;
    };
    let n = map.len();
    // Pass 1: minimum original id per component representative.
    let mut comp_min = vec![VertexId::MAX; n];
    for (p, &orig) in map.iter().enumerate() {
        let rep = ids.get(p) as usize;
        comp_min[rep] = comp_min[rep].min(orig);
    }
    // Pass 2: re-index to original order with the canonical label.
    let out = VertexArray::<u32>::new(n, 0);
    for (p, &orig) in map.iter().enumerate() {
        out.set(orig as usize, comp_min[ids.get(p) as usize]);
    }
    out
}

/// One EDGEMAP over one direction: scatter the source's label, gather the
/// minimum into the destination, activating destinations whose label
/// shrank.
fn run_direction<E: GraphEngine>(
    engine: &E,
    frontier: &VertexSubset,
    ids: &VertexArray<u32>,
    mode: ExecMode,
) -> Result<VertexSubset> {
    let scatter = |s: VertexId, _d: VertexId| ids.get(s as usize);
    let cond = |_d: VertexId| true;
    match mode {
        ExecMode::Binned => {
            let gather = |d: VertexId, v: u32| {
                if v < ids.get(d as usize) {
                    ids.set(d as usize, v);
                    true
                } else {
                    false
                }
            };
            engine.edge_map(frontier, EdgeMap::new(scatter, gather, cond).with_output())
        }
        ExecMode::Sync => {
            let gather = |d: VertexId, v: u32| {
                ids.fetch_update(d as usize, |cur| (v < cur).then_some(v))
                    .is_ok()
            };
            engine.edge_map(
                frontier,
                EdgeMap::new(scatter, gather, cond).sync().with_output(),
            )
        }
        ExecMode::Async => unreachable!("async WCC runs through run_async"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use blaze_core::{BlazeEngine, EngineOptions};
    use blaze_graph::gen::{rmat, uniform, RmatConfig};
    use blaze_graph::{Csr, DiskGraph, GraphBuilder};
    use blaze_storage::StripedStorage;
    use blaze_sync::Arc;

    fn engines(g: &Csr, devices: usize) -> (BlazeEngine, BlazeEngine) {
        let t = g.transpose();
        let s1 = Arc::new(StripedStorage::in_memory(devices).unwrap());
        let s2 = Arc::new(StripedStorage::in_memory(devices).unwrap());
        (
            BlazeEngine::new(
                Arc::new(DiskGraph::create(g, s1).unwrap()),
                EngineOptions::default(),
            )
            .unwrap(),
            BlazeEngine::new(
                Arc::new(DiskGraph::create(&t, s2).unwrap()),
                EngineOptions::default(),
            )
            .unwrap(),
        )
    }

    #[test]
    fn labels_match_union_find_on_rmat() {
        let g = rmat(&RmatConfig::new(8));
        let (oe, ie) = engines(&g, 1);
        let ids = wcc(&oe, &ie, ExecMode::Binned).unwrap();
        assert_eq!(ids.to_vec(), reference::wcc_labels(&g));
    }

    #[test]
    fn sync_mode_matches_too() {
        let g = uniform(8, 4, 9);
        let (oe, ie) = engines(&g, 2);
        let ids = wcc(&oe, &ie, ExecMode::Sync).unwrap();
        assert_eq!(ids.to_vec(), reference::wcc_labels(&g));
    }

    #[test]
    fn async_mode_matches_union_find() {
        let g = rmat(&RmatConfig::new(8));
        let (oe, ie) = engines(&g, 1);
        let ids = wcc(&oe, &ie, ExecMode::Async).unwrap();
        assert_eq!(ids.to_vec(), reference::wcc_labels(&g));
        assert!(oe.stats().async_rounds >= 1);
        assert!(ie.stats().async_rounds >= 1, "both directions run async");
    }

    #[test]
    fn disconnected_components_keep_separate_labels() {
        let mut b = GraphBuilder::new(7);
        // Component {0,1,2}, component {3,4} (via directed edge), isolated 5, 6.
        b.extend([(1, 0), (2, 1), (4, 3)]);
        let g = b.build();
        let (oe, ie) = engines(&g, 1);
        let ids = wcc(&oe, &ie, ExecMode::Binned).unwrap();
        assert_eq!(ids.to_vec(), vec![0, 0, 0, 3, 3, 5, 6]);
    }

    #[test]
    fn direction_does_not_matter_for_weak_connectivity() {
        // A directed chain is weakly connected regardless of orientation.
        let mut b = GraphBuilder::new(5);
        b.extend([(1, 0), (1, 2), (3, 2), (3, 4)]);
        let g = b.build();
        let (oe, ie) = engines(&g, 1);
        let ids = wcc(&oe, &ie, ExecMode::Binned).unwrap();
        assert!(ids.to_vec().iter().all(|&l| l == 0));
    }
}
