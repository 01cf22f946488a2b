//! Quickstart: build a graph, store it out-of-core, run BFS with the
//! EdgeMap API (Algorithm 1 of the paper).
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use std::sync::Arc;

use blaze::engine::{BlazeEngine, EdgeMap, EngineOptions, GraphEngine, VertexArray};
use blaze::frontier::VertexSubset;
use blaze::graph::{gen, DiskGraph};
use blaze::storage::StripedStorage;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Generate a power-law graph (or bring your own edge list through
    //    `GraphBuilder`).
    let csr = gen::rmat(&gen::RmatConfig::new(14));
    println!(
        "graph: {} vertices, {} edges ({} pages on disk)",
        csr.num_vertices(),
        csr.num_edges(),
        csr.num_edges().div_ceil(1024),
    );

    // 2. Write it to storage, page-interleaved. Here: two in-memory
    //    "SSDs"; swap in `FileDevice`s for real files.
    let storage = Arc::new(StripedStorage::in_memory(2)?);
    let graph = Arc::new(DiskGraph::create(&csr, storage)?);

    // 3. Create the engine. Only the index (~4.5 B/vertex) and the
    //    page->vertex map (8 B/page) stay in memory.
    let engine = BlazeEngine::new(graph.clone(), EngineOptions::default())?;
    println!(
        "semi-external metadata: {} bytes vs {} bytes of graph",
        graph.metadata_bytes(),
        graph.storage_bytes()
    );

    // 4. BFS via EdgeMap: scatter sends the source id, cond skips visited
    //    destinations, gather claims the parent — no atomics needed, the
    //    online-binning engine guarantees per-destination exclusivity.
    let root = 0u32;
    let n = graph.num_vertices();
    let parent = VertexArray::<i64>::new(n, -1);
    parent.set(root as usize, root as i64);
    let mut frontier = VertexSubset::single(n, root);
    let mut depth = 0;
    while !frontier.is_empty() {
        depth += 1;
        let spec = EdgeMap::new(
            |src, _dst| src,
            |dst, v| {
                if parent.get(dst as usize) == -1 {
                    parent.set(dst as usize, v as i64);
                    true
                } else {
                    false
                }
            },
            |dst| parent.get(dst as usize) == -1,
        );
        frontier = engine.edge_map(&frontier, spec.with_output())?;
        println!("depth {depth}: frontier {}", frontier.len());
    }

    let reached = (0..n).filter(|&v| parent.get(v) != -1).count();
    let stats = engine.stats();
    println!(
        "reached {reached}/{n} vertices in {} iterations; read {} bytes over {} IO requests",
        stats.iterations, stats.io_bytes, stats.io_requests
    );
    Ok(())
}
