//! In-memory reference implementations used to validate the out-of-core
//! engines. Deliberately simple and sequential.

use blaze_graph::Csr;
use blaze_types::VertexId;

/// BFS levels from `root`; `-1` for unreachable vertices.
pub fn bfs_levels(g: &Csr, root: VertexId) -> Vec<i64> {
    let mut level = vec![-1i64; g.num_vertices()];
    level[root as usize] = 0;
    let mut frontier = vec![root];
    let mut depth = 0i64;
    while !frontier.is_empty() {
        depth += 1;
        let mut next = Vec::new();
        for &v in &frontier {
            for &d in g.neighbors(v) {
                if level[d as usize] == -1 {
                    level[d as usize] = depth;
                    next.push(d);
                }
            }
        }
        frontier = next;
    }
    level
}

/// Checks that `parents` (as `bfs` returns them) is a BFS tree of `g` from
/// `root`: the root is its own parent, exactly the vertices reachable from
/// `root` have a parent, and every other parent is an in-neighbor one
/// level closer to the root, so the tree's levels equal [`bfs_levels`].
/// Returns the first violation found.
pub fn check_bfs_tree(g: &Csr, root: VertexId, parents: &[i64]) -> Result<(), String> {
    let levels = bfs_levels(g, root);
    for (v, (&p, &level)) in parents.iter().zip(&levels).enumerate() {
        let v = v as VertexId;
        let ok = match (level, p) {
            (-1, p) => p == -1,
            (_, p) if v == root => p == i64::from(root),
            (_, p) if p < 0 => false,
            (level, p) => {
                g.neighbors(p as VertexId).contains(&v) && levels[p as usize] + 1 == level
            }
        };
        if !ok {
            return Err(format!("vertex {v} (level {level}) has parent {p}"));
        }
    }
    if parents.len() != levels.len() {
        return Err(format!(
            "{} parents for {} vertices",
            parents.len(),
            levels.len()
        ));
    }
    Ok(())
}

/// Sequential PageRank-delta, mirroring Algorithm 2 exactly (same damping,
/// same filter, same iteration structure), so the out-of-core result can be
/// compared bit-for-shape.
pub fn pagerank_delta(g: &Csr, damping: f64, epsilon: f64, max_iters: usize) -> Vec<f64> {
    let n = g.num_vertices();
    let mut p = vec![0.0f64; n];
    let mut delta = vec![1.0 / n as f64; n];
    let mut ngh_sum = vec![0.0f64; n];
    let mut frontier: Vec<VertexId> = (0..n as VertexId).collect();
    for _ in 0..max_iters {
        if frontier.is_empty() {
            break;
        }
        for &s in &frontier {
            let deg = g.degree(s);
            if deg == 0 {
                continue;
            }
            let contribution = delta[s as usize] / deg as f64;
            for &d in g.neighbors(s) {
                ngh_sum[d as usize] += contribution;
            }
        }
        // Apply-filter over every vertex that received mass.
        let mut touched: Vec<VertexId> = (0..n as VertexId)
            .filter(|&v| ngh_sum[v as usize] != 0.0)
            .collect();
        let mut next = Vec::new();
        for &i in &touched {
            delta[i as usize] = ngh_sum[i as usize] * damping;
            ngh_sum[i as usize] = 0.0;
            if delta[i as usize].abs() > epsilon * p[i as usize] {
                p[i as usize] += delta[i as usize];
                next.push(i);
            }
        }
        touched.clear();
        frontier = next;
    }
    p
}

/// Component labels: every vertex gets the minimum vertex id of its weakly
/// connected component (computed with union-find over the undirected view).
pub fn wcc_labels(g: &Csr) -> Vec<u32> {
    let n = g.num_vertices();
    let mut parent: Vec<u32> = (0..n as u32).collect();
    fn find(parent: &mut [u32], mut x: u32) -> u32 {
        while parent[x as usize] != x {
            parent[x as usize] = parent[parent[x as usize] as usize];
            x = parent[x as usize];
        }
        x
    }
    for (s, d) in g.edges() {
        let (rs, rd) = (find(&mut parent, s), find(&mut parent, d));
        if rs != rd {
            // Union by smaller id so roots are component minima.
            let (lo, hi) = if rs < rd { (rs, rd) } else { (rd, rs) };
            parent[hi as usize] = lo;
        }
    }
    (0..n as u32).map(|v| find(&mut parent, v)).collect()
}

/// Dijkstra shortest distances from `root` under the deterministic
/// [`crate::sssp::edge_weight`] weights; `u64::MAX` for unreachable
/// vertices.
pub fn sssp_distances(g: &Csr, root: VertexId) -> Vec<u64> {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let n = g.num_vertices();
    let mut dist = vec![u64::MAX; n];
    dist[root as usize] = 0;
    let mut heap = BinaryHeap::new();
    heap.push(Reverse((0u64, root)));
    while let Some(Reverse((d, v))) = heap.pop() {
        if d > dist[v as usize] {
            continue;
        }
        for &u in g.neighbors(v) {
            let nd = d + crate::sssp::edge_weight(v, u);
            if nd < dist[u as usize] {
                dist[u as usize] = nd;
                heap.push(Reverse((nd, u)));
            }
        }
    }
    dist
}

/// k-core membership over the undirected view: `1` iff the vertex survives
/// iterated removal of vertices whose undirected degree (in + out, each
/// directed edge counted at both endpoints, self-loops twice) drops below
/// `k`.
pub fn kcore_alive(g: &Csr, k: i64) -> Vec<u32> {
    let n = g.num_vertices();
    let mut deg = vec![0i64; n];
    let mut in_adj: Vec<Vec<VertexId>> = vec![Vec::new(); n];
    for (s, d) in g.edges() {
        deg[s as usize] += 1;
        deg[d as usize] += 1;
        in_adj[d as usize].push(s);
    }
    let mut alive = vec![1u32; n];
    let mut queue: Vec<VertexId> = (0..n as VertexId)
        .filter(|&v| deg[v as usize] < k)
        .collect();
    for &v in &queue {
        alive[v as usize] = 0;
    }
    let mut head = 0;
    while head < queue.len() {
        let v = queue[head];
        head += 1;
        let neighbors = g
            .neighbors(v)
            .iter()
            .chain(in_adj[v as usize].iter())
            .copied()
            .collect::<Vec<_>>();
        for u in neighbors {
            deg[u as usize] -= 1;
            if alive[u as usize] == 1 && deg[u as usize] < k {
                alive[u as usize] = 0;
                queue.push(u);
            }
        }
    }
    alive
}

/// Forward min-label propagation fixpoint: every vertex gets the minimum
/// vertex id among itself and all its ancestors along directed edges.
pub fn labelprop_labels(g: &Csr) -> Vec<u32> {
    let n = g.num_vertices();
    let mut label: Vec<u32> = (0..n as u32).collect();
    let mut changed = true;
    while changed {
        changed = false;
        for (s, d) in g.edges() {
            if label[s as usize] < label[d as usize] {
                label[d as usize] = label[s as usize];
                changed = true;
            }
        }
    }
    label
}

/// y = Aᵀ·x over the out-edge representation: `y[d] = Σ_{(s,d) ∈ E} x[s]`.
pub fn spmv(g: &Csr, x: &[f64]) -> Vec<f64> {
    let mut y = vec![0.0f64; g.num_vertices()];
    for (s, d) in g.edges() {
        y[d as usize] += x[s as usize];
    }
    y
}

/// Single-source Brandes betweenness-centrality contribution: dependency
/// scores `delta[v]` accumulated from shortest paths out of `root`.
pub fn bc_scores(g: &Csr, root: VertexId) -> Vec<f64> {
    let n = g.num_vertices();
    let mut sigma = vec![0.0f64; n];
    let mut depth = vec![-1i64; n];
    sigma[root as usize] = 1.0;
    depth[root as usize] = 0;
    let mut levels: Vec<Vec<VertexId>> = vec![vec![root]];
    // Forward sweep: count shortest paths level by level.
    while let Some(current) = levels.last() {
        let d = levels.len() as i64;
        let mut next = Vec::new();
        let mut sigma_add: Vec<(VertexId, f64)> = Vec::new();
        for &v in current {
            for &w in g.neighbors(v) {
                if depth[w as usize] == -1 {
                    depth[w as usize] = d;
                    next.push(w);
                }
                if depth[w as usize] == d {
                    sigma_add.push((w, sigma[v as usize]));
                }
            }
        }
        for (w, add) in sigma_add {
            sigma[w as usize] += add;
        }
        if next.is_empty() {
            break;
        }
        levels.push(next);
    }
    // Backward sweep: accumulate dependencies.
    let mut delta = vec![0.0f64; n];
    for l in (1..levels.len()).rev() {
        for &w in &levels[l] {
            // Predecessors v of w: in-neighbors at depth l-1.
            // Scan forward edges of level l-1 instead (cheap for tests).
            let _ = w;
        }
        for &v in &levels[l - 1] {
            let mut acc = 0.0;
            for &w in g.neighbors(v) {
                if depth[w as usize] == l as i64 {
                    acc += (1.0 + delta[w as usize]) / sigma[w as usize];
                }
            }
            delta[v as usize] += sigma[v as usize] * acc;
        }
    }
    delta
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bfs_tree_check_rejects_wrong_trees() {
        let mut b = GraphBuilder::new(5);
        b.extend([(0, 1), (0, 2), (1, 3), (2, 3)]);
        let g = b.build();
        assert_eq!(check_bfs_tree(&g, 0, &[0, 0, 0, 1, -1]), Ok(()));
        assert_eq!(check_bfs_tree(&g, 0, &[0, 0, 0, 2, -1]), Ok(()));
        for wrong in [
            [0, 0, 1, 1, -1],  // 1 -> 2 is not an edge
            [0, 0, 0, 1, 0],   // unreachable vertex with a parent
            [0, 0, -1, 1, -1], // reachable vertex without one
            [1, 0, 0, 1, -1],  // root not its own parent
            [0, 0, 0, 3, -1],  // self-parent off the root
        ] {
            assert!(check_bfs_tree(&g, 0, &wrong).is_err(), "{wrong:?}");
        }
        assert!(check_bfs_tree(&g, 0, &[0, 0, 0]).is_err(), "short array");
    }
    use blaze_graph::GraphBuilder;

    fn diamond() -> Csr {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3, 3 -> 4
        let mut b = GraphBuilder::new(5);
        b.extend([(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)]);
        b.build()
    }

    #[test]
    fn bfs_levels_on_diamond() {
        assert_eq!(bfs_levels(&diamond(), 0), vec![0, 1, 1, 2, 3]);
    }

    #[test]
    fn wcc_singletons_and_components() {
        let mut b = GraphBuilder::new(6);
        b.extend([(0, 1), (1, 2), (4, 3)]);
        let labels = wcc_labels(&b.build());
        assert_eq!(labels, vec![0, 0, 0, 3, 3, 5]);
    }

    #[test]
    fn spmv_on_diamond() {
        let y = spmv(&diamond(), &[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(y, vec![0.0, 1.0, 1.0, 5.0, 4.0]);
    }

    #[test]
    fn bc_on_diamond() {
        let delta = bc_scores(&diamond(), 0);
        // Vertex 3 lies on both 0->4 paths; sigma[3]=2, delta[3]=1.
        // Vertices 1 and 2 each carry half of the paths through 3 plus
        // their own shortest path: delta = sigma_v * (1+delta_3)/sigma_3.
        assert!((delta[3] - 1.0).abs() < 1e-12);
        assert!((delta[1] - 1.0).abs() < 1e-12);
        assert!((delta[2] - 1.0).abs() < 1e-12);
        assert_eq!(delta[4], 0.0);
    }

    #[test]
    fn sssp_distances_respect_triangle_inequality() {
        let g = diamond();
        let dist = sssp_distances(&g, 0);
        assert_eq!(dist[0], 0);
        for (s, d) in g.edges() {
            let w = crate::sssp::edge_weight(s, d);
            if dist[s as usize] != u64::MAX {
                assert!(dist[d as usize] <= dist[s as usize] + w);
            }
        }
        assert!(dist.iter().all(|&d| d != u64::MAX), "diamond is connected");
    }

    #[test]
    fn kcore_peels_a_pendant_chain() {
        // Triangle {0,1,2} plus a pendant path 2 -> 3 -> 4.
        let mut b = GraphBuilder::new(5);
        b.extend([(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)]);
        let alive = kcore_alive(&b.build(), 2);
        assert_eq!(alive, vec![1, 1, 1, 0, 0]);
    }

    #[test]
    fn labelprop_follows_direction() {
        // 1 -> 0 lowers nothing (0 is already minimal); 0 -> 2 -> 3 pulls
        // label 0 downstream; 4 is isolated.
        let mut b = GraphBuilder::new(5);
        b.extend([(1, 0), (0, 2), (2, 3)]);
        assert_eq!(labelprop_labels(&b.build()), vec![0, 1, 0, 0, 4]);
    }

    #[test]
    fn pagerank_mass_is_bounded() {
        let g = diamond();
        let p = pagerank_delta(&g, 0.85, 0.01, 50);
        assert!(p.iter().all(|&v| v >= 0.0));
        let total: f64 = p.iter().sum();
        assert!(total > 0.0 && total < 2.0, "total {total}");
    }
}
