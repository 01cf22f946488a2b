//! Property-based tests over the core data structures and the engine's
//! end-to-end delivery guarantees, using randomly generated graphs, page
//! sets, and frontiers.

#![allow(clippy::needless_range_loop)] // vertex-id indexing reads clearer here

use std::collections::HashSet;
use std::sync::Arc;

use proptest::prelude::*;

use blaze::binning::{BinRecord, BinSpace, BinningConfig, ScatterStaging};
use blaze::engine::{BlazeEngine, EdgeMap, EngineOptions, GraphEngine, VertexArray};
use blaze::frontier::{PageSubset, VertexSubset};
use blaze::graph::{Csr, DiskGraph, GraphBuilder, GraphIndex, PageVertexMap};
use blaze::storage::request::{merge_pages_with_window, IoRequest};
use blaze::storage::StripedStorage;
use blaze::types::EDGES_PER_PAGE;

/// Strategy: a random edge list over `n` vertices.
fn arb_graph() -> impl Strategy<Value = Csr> {
    (
        2usize..64,
        proptest::collection::vec((0u32..64, 0u32..64), 0..512),
    )
        .prop_map(|(n, edges)| {
            let n = n.max(
                edges
                    .iter()
                    .map(|&(s, d)| s.max(d) as usize + 1)
                    .max()
                    .unwrap_or(0),
            );
            let mut b = GraphBuilder::new(n).dedup(true);
            b.extend(edges);
            b.build()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// merge_pages covers exactly the input pages, in order, respecting
    /// the window and never bridging gaps.
    #[test]
    fn merge_pages_partitions_input(
        pages in proptest::collection::btree_set(0u64..5_000, 0..400),
        window in 1usize..9,
    ) {
        let pages: Vec<u64> = pages.into_iter().collect();
        let requests = merge_pages_with_window(&pages, window);
        let mut covered = Vec::new();
        for IoRequest { first_page, num_pages } in &requests {
            prop_assert!(*num_pages as usize <= window);
            covered.extend(*first_page..first_page + *num_pages as u64);
        }
        prop_assert_eq!(covered, pages);
        // No two adjacent requests could have been merged further.
        for w in requests.windows(2) {
            let joinable = w[0].end_page() == w[1].first_page;
            if joinable {
                prop_assert_eq!(w[0].num_pages as usize, window);
            }
        }
    }

    /// The indirection index agrees with the plain prefix sum for any
    /// degree sequence.
    #[test]
    fn index_matches_prefix_sum(degrees in proptest::collection::vec(0u32..2000, 0..200)) {
        let index = GraphIndex::from_degrees(degrees.clone());
        let mut offset = 0u64;
        for (v, &d) in degrees.iter().enumerate() {
            prop_assert_eq!(index.edge_offset(v as u32), offset);
            prop_assert_eq!(index.degree(v as u32), d);
            offset += d as u64;
        }
        prop_assert_eq!(index.num_edges(), offset);
    }

    /// Every vertex with edges is covered by the page map span of each of
    /// its pages.
    #[test]
    fn pagemap_spans_are_sound(degrees in proptest::collection::vec(0u32..3000, 1..100)) {
        let index = GraphIndex::from_degrees(degrees.clone());
        let map = PageVertexMap::build(&index);
        let mut offset = 0u64;
        for (v, &d) in degrees.iter().enumerate() {
            if d > 0 {
                let first = offset / EDGES_PER_PAGE as u64;
                let last = (offset + d as u64 - 1) / EDGES_PER_PAGE as u64;
                for p in first..=last {
                    let (b, e) = map.vertices_in_page(p).expect("page exists");
                    prop_assert!(b <= v as u32 && v as u32 <= e);
                }
            }
            offset += d as u64;
        }
    }

    /// VertexSubset behaves like a HashSet under arbitrary insert
    /// sequences (including duplicates) and seals to a sorted list.
    #[test]
    fn vertex_subset_models_a_set(
        inserts in proptest::collection::vec(0u32..500, 0..600),
    ) {
        let mut s = VertexSubset::new(500);
        let mut model = HashSet::new();
        for v in inserts {
            prop_assert_eq!(s.insert(v), model.insert(v), "insert {}", v);
        }
        s.seal();
        prop_assert_eq!(s.len(), model.len());
        let mut expect: Vec<u32> = model.iter().copied().collect();
        expect.sort_unstable();
        prop_assert_eq!(s.members(), expect);
        for v in 0..500u32 {
            prop_assert_eq!(s.contains(v), model.contains(&v));
        }
    }

    /// Page frontiers preserve exactly the union of the input ranges under
    /// any device count.
    #[test]
    fn page_subset_round_trips(
        ranges in proptest::collection::vec((0u64..200, 0u64..5), 0..40),
        devices in 1usize..9,
    ) {
        let ranges: Vec<_> = ranges.into_iter().map(|(s, l)| s..=s + l).collect();
        let mut expect: Vec<u64> = ranges.iter().cloned().flatten().collect();
        expect.sort_unstable();
        expect.dedup();
        let subset = PageSubset::from_page_ranges(ranges, devices);
        prop_assert_eq!(subset.global_pages(), expect);
    }

    /// Online binning delivers every record exactly once, to the right
    /// bin, for any record stream and bin geometry.
    #[test]
    fn binning_delivers_exactly_once(
        dsts in proptest::collection::vec(0u32..10_000, 1..2000),
        bins in 1usize..40,
        capacity in 1usize..50,
    ) {
        let config = BinningConfig::new(bins, bins * 2 * capacity * 8, capacity.min(8)).unwrap();
        let space: BinSpace<u32> = BinSpace::new(config);
        let mut staging = ScatterStaging::new(&space);
        let mut collected: Vec<BinRecord<u32>> = Vec::new();
        // Drain full bins after every push: with no concurrent gather
        // thread, an undrained full queue would block the scatter side as
        // soon as a bin's second buffer fills (the engine's back-pressure).
        for &d in &dsts {
            staging.push(&space, d, d ^ 0xABCD);
            while space.process_one_full(|_, recs| collected.extend_from_slice(recs)) {}
        }
        staging.flush(&space);
        space.flush_partials();
        while space.process_one_full(|bin, recs| {
            for r in recs {
                assert_eq!(bin, r.dst as usize % bins);
            }
            collected.extend_from_slice(recs);
        }) {}
        prop_assert_eq!(collected.len(), dsts.len());
        let mut got: Vec<u32> = collected.iter().map(|r| r.dst).collect();
        let mut expect = dsts.clone();
        got.sort_unstable();
        expect.sort_unstable();
        prop_assert_eq!(got, expect);
        for r in &collected {
            prop_assert_eq!(r.value, r.dst ^ 0xABCD);
        }
    }

    /// The out-of-core engine delivers each edge of the frontier exactly
    /// once, for arbitrary graphs, frontiers, and device counts.
    #[test]
    fn edge_map_delivers_frontier_edges_exactly_once(
        g in arb_graph(),
        frontier_bits in proptest::collection::vec(any::<bool>(), 64),
        devices in 1usize..4,
    ) {
        let n = g.num_vertices();
        let storage = Arc::new(StripedStorage::in_memory(devices).unwrap());
        let graph = Arc::new(DiskGraph::create(&g, storage).unwrap());
        let engine = BlazeEngine::new(graph, EngineOptions::default()).unwrap();
        let members: Vec<u32> = (0..n as u32).filter(|&v| frontier_bits[v as usize % 64]).collect();
        let frontier = VertexSubset::from_members(n, members.iter().copied());

        let hits = VertexArray::<u64>::new(n, 0);
        engine.edge_map(&frontier, EdgeMap::new(|s, _d| s, |d, _v: u32| {
                hits.set(d as usize, hits.get(d as usize) + 1);
                false
            }, |_| true)).unwrap();

        // Expected: in-degree restricted to frontier sources.
        let mut expect = vec![0u64; n];
        for &s in &members {
            for &d in g.neighbors(s) {
                expect[d as usize] += 1;
            }
        }
        for v in 0..n {
            prop_assert_eq!(hits.get(v), expect[v], "vertex {}", v);
        }
    }
}
