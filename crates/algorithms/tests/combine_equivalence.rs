//! Property tests pinning scatter-side combining to the uncombined
//! semantics: for associative operators, an `EdgeMap` with `combine` must produce
//! results *identical* to the uncombined binned path, the sync (CAS) path,
//! and an in-memory reference — on both R-MAT-like random graphs and
//! super-vertex graphs where nearly every edge targets one hub (the
//! combining-heaviest shape).
//!
//! Exactness is deliberate, not tolerance-based: the payloads are either
//! `u32` (`min` for labels/levels) or integer-valued `f64` (sums stay well
//! below 2^53, so floating-point addition is exact and order-independent).

use proptest::prelude::*;

use blaze_algorithms::reference;
use blaze_algorithms::{pagerank_delta, pagerank_delta_combined, ExecMode, PageRankConfig};
use blaze_core::{BlazeEngine, EdgeMap, EngineOptions, GraphEngine, VertexArray};
use blaze_frontier::VertexSubset;
use blaze_graph::{Csr, DiskGraph, GraphBuilder};
use blaze_storage::StripedStorage;
use blaze_sync::Arc;
use blaze_types::VertexId;

const N: u32 = 64;

fn build(edges: Vec<(u32, u32)>) -> Csr {
    let mut b = GraphBuilder::new(N as usize);
    b.extend(edges);
    b.build()
}

/// Random edges — the R-MAT-shaped case (duplicates allowed; they exercise
/// repeated-destination windows too).
fn arb_random() -> impl Strategy<Value = Csr> {
    proptest::collection::vec((0..N, 0..N), 1..500).prop_map(build)
}

/// Either a random-edge graph or a super-vertex graph where most edges
/// point at one hub — the combining-heaviest shape, every staging window
/// full of same-destination records.
fn arb_graph() -> impl Strategy<Value = Csr> {
    (
        proptest::sample::select(vec![0usize, 1]),
        proptest::collection::vec((0..N, 0..N), 1..500),
        0..N,
        proptest::collection::vec(0..N, 50..400),
    )
        .prop_map(|(kind, edges, hub, sources)| {
            if kind == 0 {
                build(edges)
            } else {
                let hub_edges = sources
                    .into_iter()
                    .map(|s| (s, hub))
                    .chain(edges.into_iter().take(50))
                    .collect();
                build(hub_edges)
            }
        })
}

fn engine(g: &Csr, devices: usize) -> BlazeEngine {
    let storage = Arc::new(StripedStorage::in_memory(devices).unwrap());
    BlazeEngine::new(
        Arc::new(DiskGraph::create(g, storage).unwrap()),
        EngineOptions::default(),
    )
    .unwrap()
}

/// SpMV with integer-valued `f64` entries, in all four flavors.
fn spmv_all_paths(g: &Csr, x: &[f64]) -> [Vec<f64>; 4] {
    let e = engine(g, 2);
    let frontier = VertexSubset::full(g.num_vertices());
    let run = |path: usize| {
        let y = VertexArray::<f64>::new(g.num_vertices(), 0.0);
        let scatter = |s: VertexId, _d: VertexId| x[s as usize];
        let gather = |d: VertexId, v: f64| {
            y.set(d as usize, y.get(d as usize) + v);
            false
        };
        match path {
            0 => e
                .edge_map(
                    &frontier,
                    EdgeMap::new(scatter, gather, |_| true).combine(|a, b| a + b),
                )
                .unwrap(),
            1 => e
                .edge_map(&frontier, EdgeMap::new(scatter, gather, |_| true))
                .unwrap(),
            _ => e
                .edge_map(
                    &frontier,
                    EdgeMap::new(
                        scatter,
                        |d: VertexId, v: f64| {
                            y.fetch_add(d as usize, v);
                            false
                        },
                        |_| true,
                    )
                    .sync(),
                )
                .unwrap(),
        };
        y.to_vec()
    };
    [run(0), run(1), run(2), reference::spmv(g, x)]
}

/// One full WCC by label propagation (out-direction only on an undirected
/// doubled edge set would need a transpose engine; instead we fold both
/// directions into the graph itself so one engine suffices).
fn undirect(g: &Csr) -> Csr {
    let mut b = GraphBuilder::new(g.num_vertices()).dedup(true);
    b.extend(g.edges());
    b.extend(g.edges().map(|(s, d)| (d, s)));
    b.build()
}

/// Label-propagation WCC over one (already undirected) engine, with the
/// given edge-map flavor: 0 combined, 1 binned, 2 sync.
fn wcc_labels_via(e: &BlazeEngine, path: usize) -> Vec<u32> {
    let n = e.num_vertices();
    let ids = VertexArray::<u32>::new(n, 0);
    for v in 0..n {
        ids.set(v, v as u32);
    }
    let mut frontier = VertexSubset::full(n);
    while !frontier.is_empty() {
        let scatter = |s: VertexId, _d: VertexId| ids.get(s as usize);
        let gather = |d: VertexId, v: u32| {
            if v < ids.get(d as usize) {
                ids.set(d as usize, v);
                true
            } else {
                false
            }
        };
        frontier = match path {
            0 => e
                .edge_map(
                    &frontier,
                    EdgeMap::new(scatter, gather, |_| true)
                        .combine(|a: u32, b: u32| a.min(b))
                        .with_output(),
                )
                .unwrap(),
            1 => e
                .edge_map(
                    &frontier,
                    EdgeMap::new(scatter, gather, |_| true).with_output(),
                )
                .unwrap(),
            _ => e
                .edge_map(
                    &frontier,
                    EdgeMap::new(
                        scatter,
                        |d: VertexId, v: u32| {
                            ids.fetch_update(d as usize, |cur| (v < cur).then_some(v))
                                .is_ok()
                        },
                        |_| true,
                    )
                    .sync()
                    .with_output(),
                )
                .unwrap(),
        };
    }
    ids.to_vec()
}

/// BFS levels with the given edge-map flavor: 0 combined (min over the
/// constant level payload), 1 binned, 2 sync.
fn bfs_levels_via(e: &BlazeEngine, root: u32, path: usize) -> Vec<i64> {
    let n = e.num_vertices();
    let level = VertexArray::<i64>::new(n, -1);
    level.set(root as usize, 0);
    let mut frontier = VertexSubset::single(n, root);
    let mut depth: i64 = 0;
    while !frontier.is_empty() {
        depth += 1;
        let d = depth;
        let scatter = |_s: u32, _dst: u32| d as u32;
        let cond = |dst: u32| level.get(dst as usize) == -1;
        let gather = |dst: u32, v: u32| {
            if level.get(dst as usize) == -1 {
                level.set(dst as usize, v as i64);
                true
            } else {
                false
            }
        };
        frontier = match path {
            0 => e
                .edge_map(
                    &frontier,
                    EdgeMap::new(scatter, gather, cond)
                        .combine(|a: u32, b: u32| a.min(b))
                        .with_output(),
                )
                .unwrap(),
            1 => e
                .edge_map(&frontier, EdgeMap::new(scatter, gather, cond).with_output())
                .unwrap(),
            _ => e
                .edge_map(
                    &frontier,
                    EdgeMap::new(
                        scatter,
                        |dst: u32, v: u32| {
                            level
                                .fetch_update(dst as usize, |cur| (cur == -1).then_some(v as i64))
                                .is_ok()
                        },
                        cond,
                    )
                    .sync()
                    .with_output(),
                )
                .unwrap(),
        };
    }
    level.to_vec()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Integer-valued SpMV: combined, binned, sync, and the in-memory
    /// reference agree bit for bit.
    #[test]
    fn spmv_combining_is_exact(g in arb_graph(), seed in 0u64..1000) {
        let x: Vec<f64> = (0..g.num_vertices())
            .map(|i| ((i as u64).wrapping_mul(seed + 1) % 17) as f64)
            .collect();
        let [combined, binned, sync, reference] = spmv_all_paths(&g, &x);
        prop_assert_eq!(&combined, &binned);
        prop_assert_eq!(&combined, &sync);
        prop_assert_eq!(&combined, &reference);
    }

    /// WCC labels from the combined min-propagation loop equal the
    /// uncombined paths and the union-find reference exactly.
    #[test]
    fn wcc_combining_is_exact(g in arb_graph()) {
        let u = undirect(&g);
        let e = engine(&u, 1);
        let combined = wcc_labels_via(&e, 0);
        prop_assert_eq!(&combined, &wcc_labels_via(&e, 1));
        prop_assert_eq!(&combined, &wcc_labels_via(&e, 2));
        prop_assert_eq!(&combined, &reference::wcc_labels(&g));
    }

    /// BFS levels agree exactly across all three edge-map flavors and the
    /// reference.
    #[test]
    fn bfs_combining_is_exact(g in arb_graph(), root in 0..N) {
        let e = engine(&g, 2);
        let combined = bfs_levels_via(&e, root, 0);
        prop_assert_eq!(&combined, &bfs_levels_via(&e, root, 1));
        prop_assert_eq!(&combined, &bfs_levels_via(&e, root, 2));
        prop_assert_eq!(&combined, &reference::bfs_levels(&g, root));
    }

    /// PageRank-delta with combining converges to the same ranks as the
    /// reference (tolerance-based: real rank payloads are non-integer
    /// f64, where summation order legitimately perturbs low bits).
    #[test]
    fn pagerank_combining_matches_reference(g in arb_random()) {
        let e = engine(&g, 1);
        let cfg = PageRankConfig::default();
        let combined = pagerank_delta_combined(&e, cfg).unwrap().to_vec();
        let binned = pagerank_delta(&e, cfg, ExecMode::Binned).unwrap().to_vec();
        let expect = reference::pagerank_delta(&g, cfg.damping, cfg.epsilon, cfg.max_iters);
        for (i, (a, b)) in combined.iter().zip(&expect).enumerate() {
            let scale = a.abs().max(b.abs()).max(1e-12);
            prop_assert!((a - b).abs() / scale < 1e-6, "rank {i}: {a} vs {b}");
        }
        for (i, (a, b)) in combined.iter().zip(&binned).enumerate() {
            let scale = a.abs().max(b.abs()).max(1e-12);
            prop_assert!((a - b).abs() / scale < 1e-6, "rank {i}: {a} vs {b}");
        }
    }
}
