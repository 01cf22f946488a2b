//! Breadth-First Search — Algorithm 1 of the paper.

use blaze_core::{EdgeMap, ExecMode, GraphEngine, VertexArray};
use blaze_frontier::VertexSubset;
use blaze_types::{Result, VertexId};

/// Out-of-core BFS from `root`.
///
/// Returns the parent array: `parent[v]` is the BFS-tree parent of `v`, the
/// root's parent is itself, and unreachable vertices hold `-1` — exactly
/// the state of Algorithm 1. Both `root` and the returned parents are
/// original vertex ids regardless of the graph's physical layout; the
/// traversal itself runs in physical space.
///
/// [`ExecMode::Async`] runs barrier-free: levels are min-relaxed from a
/// priority frontier bucketed by level, so low levels drain first and the
/// fixpoint — the unique shortest unweighted distance — is reached without
/// supersteps. Levels derived from the returned parents are bit-identical
/// to the barriered modes; the parents themselves are one valid BFS tree
/// (as in any mode, ties go to an arbitrary in-neighbor one level up).
pub fn bfs<E: GraphEngine>(engine: &E, root: VertexId, mode: ExecMode) -> Result<VertexArray<i64>> {
    let layout = engine.layout();
    let root = layout.to_physical(root);
    let n = engine.num_vertices();
    let parent = VertexArray::<i64>::new(n, -1);
    parent.set(root as usize, root as i64);

    if mode == ExecMode::Async {
        // Level array drives both the min-relaxation and the priority.
        let level = VertexArray::<i64>::new(n, -1);
        level.set(root as usize, 0);
        let spec = EdgeMap::new(
            // Pack candidate level and source: the gather must accept or
            // reject both atomically with respect to its own re-reads.
            |s: VertexId, _d: VertexId| (((level.get(s as usize) + 1) as u64) << 32) | u64::from(s),
            |d: VertexId, packed: u64| {
                let lvl = (packed >> 32) as i64;
                let cur = level.get(d as usize);
                if cur == -1 || lvl < cur {
                    level.set(d as usize, lvl);
                    parent.set(d as usize, (packed & 0xffff_ffff) as i64);
                    true
                } else {
                    false
                }
            },
            |_d: VertexId| true,
        );
        engine.edge_map_async(&[root], spec, |v: VertexId| {
            level.get(v as usize).max(0) as u64
        })?;
        return Ok(finish_bfs(layout, parent, n));
    }

    let mut frontier = VertexSubset::single(n, root);

    // SCATTER returns the source id; COND visits unvisited destinations
    // only; GATHER claims the destination and activates it.
    let scatter = |s: VertexId, _d: VertexId| s;
    let cond = |d: VertexId| parent.get(d as usize) == -1;

    while !frontier.is_empty() {
        frontier = match mode {
            ExecMode::Binned => {
                let gather = |d: VertexId, v: VertexId| {
                    if parent.get(d as usize) == -1 {
                        parent.set(d as usize, v as i64);
                        true
                    } else {
                        false
                    }
                };
                engine.edge_map(&frontier, EdgeMap::new(scatter, gather, cond).with_output())?
            }
            ExecMode::Sync => {
                // compare-and-swap claims the vertex exactly once.
                let gather = |d: VertexId, v: VertexId| {
                    parent.compare_exchange(d as usize, -1, v as i64).is_ok()
                };
                let spec = EdgeMap::new(scatter, gather, cond).sync().with_output();
                engine.edge_map(&frontier, spec)?
            }
            ExecMode::Async => unreachable!("handled above"),
        };
    }
    Ok(finish_bfs(layout, parent, n))
}

/// Boundary translation: parents are vertex-valued, so both the index and
/// the stored id must come back to original space.
fn finish_bfs(
    layout: &blaze_graph::VertexPermutation,
    parent: VertexArray<i64>,
    n: usize,
) -> VertexArray<i64> {
    let Some(map) = layout.phys_to_orig() else {
        return parent;
    };
    let out = VertexArray::<i64>::new(n, -1);
    for (p, &orig) in map.iter().enumerate() {
        let pv = parent.get(p);
        if pv >= 0 {
            out.set(orig as usize, i64::from(map[pv as usize]));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use blaze_core::{BlazeEngine, EngineOptions};
    use blaze_graph::gen::{rmat, uniform, RmatConfig};
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

    fn assert_valid_bfs(g: &Csr, root: u32, parent: &VertexArray<i64>) {
        assert_eq!(reference::check_bfs_tree(g, root, &parent.to_vec()), Ok(()));
    }

    #[test]
    fn binned_bfs_is_a_valid_bfs_tree() {
        let g = rmat(&RmatConfig::new(9));
        let e = engine(&g, 1);
        let parent = bfs(&e, 0, ExecMode::Binned).unwrap();
        assert_valid_bfs(&g, 0, &parent);
    }

    #[test]
    fn sync_bfs_is_a_valid_bfs_tree() {
        let g = rmat(&RmatConfig::new(9));
        let e = engine(&g, 2);
        let parent = bfs(&e, 0, ExecMode::Sync).unwrap();
        assert_valid_bfs(&g, 0, &parent);
    }

    #[test]
    fn bfs_on_uniform_graph_striped() {
        let g = uniform(9, 8, 17);
        let e = engine(&g, 4);
        let parent = bfs(&e, 5, ExecMode::Binned).unwrap();
        assert_valid_bfs(&g, 5, &parent);
    }

    #[test]
    fn async_bfs_is_a_valid_bfs_tree_with_oracle_levels() {
        let g = rmat(&RmatConfig::new(9));
        let e = engine(&g, 2);
        let parent = bfs(&e, 0, ExecMode::Async).unwrap();
        // assert_valid_bfs checks reached-set AND per-vertex levels against
        // the reference, which is the bit-identical part of the contract.
        assert_valid_bfs(&g, 0, &parent);
        assert!(e.stats().async_rounds >= 1, "async mode must trace rounds");
    }

    #[test]
    fn bfs_from_isolated_vertex_reaches_nothing() {
        let mut b = blaze_graph::GraphBuilder::new(10);
        b.add_edge(1, 2);
        let g = b.build();
        let e = engine(&g, 1);
        let parent = bfs(&e, 0, ExecMode::Binned).unwrap();
        assert_eq!(parent.get(0), 0);
        for v in 1..10 {
            assert_eq!(parent.get(v), -1);
        }
    }
}
