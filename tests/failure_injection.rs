//! Failure-injection tests: IO errors must propagate out of the
//! multi-threaded EdgeMap pipeline as `Err`, without hangs, panics, or
//! silent data corruption, and the engine must remain usable afterwards.

use std::sync::Arc;

use blaze::algorithms::{self as algo, ExecMode};
use blaze::engine::{BlazeEngine, EdgeMap, EngineOptions, GraphEngine};
use blaze::frontier::VertexSubset;
use blaze::graph::{gen, Csr, DiskGraph};
use blaze::storage::{BlockDevice, FaultyDevice, MemDevice, StripedStorage};
use blaze::types::BlazeError;

/// Builds a graph whose storage fails after `ok_reads` successful reads.
fn flaky_engine(g: &Csr, ok_reads: u64) -> BlazeEngine {
    // Write through a pristine device first, then wrap.
    let good = Arc::new(StripedStorage::in_memory(1).unwrap());
    let _ = DiskGraph::create(g, good.clone()).unwrap();
    // Copy pages into a fresh MemDevice wrapped with fault injection.
    let mem = MemDevice::new();
    let mut buf = vec![0u8; blaze::types::PAGE_SIZE];
    for p in 0..good.num_pages() {
        good.read_page(p, &mut buf).unwrap();
        mem.write_at(p * blaze::types::PAGE_SIZE as u64, &buf)
            .unwrap();
    }
    mem.stats().reset();
    let faulty: Arc<dyn BlockDevice> = Arc::new(FaultyDevice::fail_after(mem, ok_reads));
    let storage = Arc::new(StripedStorage::new(vec![faulty]).unwrap());
    let graph = Arc::new(DiskGraph::open_with_index(g, storage));
    BlazeEngine::new(graph, EngineOptions::default()).unwrap()
}

/// Helper: DiskGraph from a CSR whose pages already live in `storage`.
trait OpenWithIndex {
    fn open_with_index(g: &Csr, storage: Arc<StripedStorage>) -> DiskGraph;
}

impl OpenWithIndex for DiskGraph {
    fn open_with_index(g: &Csr, storage: Arc<StripedStorage>) -> DiskGraph {
        // Rebuild metadata from the CSR (pages are already on the device).
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("idx");
        blaze::graph::disk::write_index_file(&path, &blaze::graph::GraphIndex::from_csr(g))
            .unwrap();
        DiskGraph::open(&path, storage).unwrap()
    }
}

#[test]
fn edge_map_surfaces_io_errors() {
    let g = gen::rmat(&gen::RmatConfig::new(9));
    let engine = flaky_engine(&g, 0);
    let frontier = VertexSubset::full(g.num_vertices());
    let result = engine.edge_map(&frontier, EdgeMap::new(|s, _d| s, |_d, _v| false, |_| true));
    match result {
        Err(BlazeError::Io(e)) => assert!(e.to_string().contains("injected"), "{e}"),
        other => panic!("expected injected IO error, got {other:?}"),
    }
}

#[test]
fn bfs_fails_cleanly_not_silently() {
    let g = gen::rmat(&gen::RmatConfig::new(9));
    let engine = flaky_engine(&g, 1);
    let err = algo::bfs(&engine, 0, ExecMode::Binned);
    assert!(
        err.is_err(),
        "BFS over failing storage must report the failure"
    );
}

#[test]
fn error_in_one_stripe_of_many_is_still_reported() {
    let g = gen::rmat(&gen::RmatConfig::new(9));
    // Stripe over 3 devices; device 1 fails immediately.
    let good = Arc::new(StripedStorage::in_memory(3).unwrap());
    let _ = DiskGraph::create(&g, good.clone()).unwrap();
    let devices: Vec<Arc<dyn BlockDevice>> = (0..3)
        .map(|d| -> Arc<dyn BlockDevice> {
            let mem = MemDevice::new();
            let mut buf = vec![0u8; blaze::types::PAGE_SIZE];
            let src = good.device(d);
            for p in 0..src.num_pages() {
                src.read_at(p * blaze::types::PAGE_SIZE as u64, &mut buf)
                    .unwrap();
                mem.write_at(p * blaze::types::PAGE_SIZE as u64, &buf)
                    .unwrap();
            }
            mem.stats().reset();
            if d == 1 {
                Arc::new(FaultyDevice::fail_after(mem, 0))
            } else {
                Arc::new(mem)
            }
        })
        .collect();
    let storage = Arc::new(StripedStorage::new(devices).unwrap());
    let graph = Arc::new(DiskGraph::open_with_index(&g, storage));
    let engine = BlazeEngine::new(graph, EngineOptions::default()).unwrap();
    let frontier = VertexSubset::full(g.num_vertices());
    let result = engine.edge_map(&frontier, EdgeMap::new(|s, _d| s, |_d, _v| false, |_| true));
    assert!(result.is_err());
}

#[test]
fn engine_recovers_after_transient_failures() {
    let g = gen::rmat(&gen::RmatConfig::new(8));
    // fail_every(7): most requests succeed, some fail.
    let good = Arc::new(StripedStorage::in_memory(1).unwrap());
    let _ = DiskGraph::create(&g, good.clone()).unwrap();
    let mem = MemDevice::new();
    let mut buf = vec![0u8; blaze::types::PAGE_SIZE];
    for p in 0..good.num_pages() {
        good.read_page(p, &mut buf).unwrap();
        mem.write_at(p * blaze::types::PAGE_SIZE as u64, &buf)
            .unwrap();
    }
    mem.stats().reset();
    let faulty: Arc<dyn BlockDevice> = Arc::new(FaultyDevice::fail_every(mem, 1000));
    let storage = Arc::new(StripedStorage::new(vec![faulty]).unwrap());
    let graph = Arc::new(DiskGraph::open_with_index(&g, storage));
    let engine = BlazeEngine::new(graph, EngineOptions::default()).unwrap();
    let frontier = VertexSubset::full(g.num_vertices());
    // The scan issues far fewer than 1000 requests: it must succeed, and a
    // repeat run on the same engine must succeed too (no poisoned state).
    for _ in 0..2 {
        let out = engine
            .edge_map(
                &frontier,
                EdgeMap::new(|s, _d| s, |_d, _v| true, |_| true).with_output(),
            )
            .unwrap();
        assert!(!out.is_empty());
    }
}
