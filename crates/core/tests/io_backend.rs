//! IO-backend equivalence and robustness tests.
//!
//! The refactor from blocking per-request reads to a submission/completion
//! pump must not change what reaches the devices:
//!
//! * the default configuration (synchronous backend, queue depth 1) must
//!   produce byte-for-byte the request stream of the published blocking IO
//!   path — same offsets, same lengths, same order;
//! * the threaded backend at depth 1 serializes to the identical stream;
//! * deeper windows may reorder but must read the same request multiset;
//! * a failing device under the threaded backend fails the query with the
//!   injected error — no hang, no lost buffers, engine usable afterwards.

use blaze_core::{BlazeEngine, EdgeMap, EngineOptions, GraphEngine, VertexArray};
use blaze_frontier::VertexSubset;
use blaze_graph::gen::{rmat, uniform, RmatConfig};
use blaze_graph::{Csr, DiskGraph};
use blaze_storage::recorder::RecordedRead;
use blaze_storage::request::merge_pages_with_window;
use blaze_storage::{
    BlockDevice, FaultyDevice, IoBackendKind, MemDevice, RecordingDevice, StripedStorage,
};
use blaze_sync::Arc;
use blaze_types::{BlazeError, EDGES_PER_PAGE, MAX_MERGED_PAGES, PAGE_SIZE};

/// Builds an engine whose stripe devices log every read.
fn recording_engine(
    g: &Csr,
    devices: usize,
    options: EngineOptions,
) -> (BlazeEngine, Vec<Arc<RecordingDevice<MemDevice>>>) {
    let recs: Vec<Arc<RecordingDevice<MemDevice>>> = (0..devices)
        .map(|_| Arc::new(RecordingDevice::new(MemDevice::new())))
        .collect();
    let devs: Vec<Arc<dyn BlockDevice>> = recs
        .iter()
        .map(|r| r.clone() as Arc<dyn BlockDevice>)
        .collect();
    let storage = Arc::new(StripedStorage::new(devs).unwrap());
    let graph = Arc::new(DiskGraph::create(g, storage).unwrap());
    let engine = BlazeEngine::new(graph, options).unwrap();
    // Graph creation only writes; reads start with the first query.
    for r in &recs {
        assert!(r.read_log().is_empty());
    }
    (engine, recs)
}

fn full_scan(e: &BlazeEngine) {
    let frontier = VertexSubset::full(e.num_vertices());
    e.edge_map(
        &frontier,
        EdgeMap::new(|s: u32, _d: u32| s, |_d, _v| false, |_| true),
    )
    .unwrap();
}

/// BFS levels via edge_map, for the robustness tests.
fn bfs(e: &BlazeEngine, root: u32) -> blaze_types::Result<Vec<i64>> {
    let n = e.num_vertices();
    let level = VertexArray::<i64>::new(n, -1);
    level.set(root as usize, 0);
    let mut frontier = VertexSubset::single(n, root);
    let mut depth: i64 = 0;
    while !frontier.is_empty() {
        depth += 1;
        let d = depth;
        frontier = e.edge_map(
            &frontier,
            EdgeMap::new(
                |_s: u32, _d: u32| 0u32,
                |dst: u32, _v: u32| {
                    if level.get(dst as usize) == -1 {
                        level.set(dst as usize, d);
                        true
                    } else {
                        false
                    }
                },
                |dst: u32| level.get(dst as usize) == -1,
            )
            .with_output(),
        )?;
    }
    Ok(level.to_vec())
}

/// The published request stream of a full scan: every adjacency page,
/// partitioned to its stripe device, merged into runs of at most
/// `MAX_MERGED_PAGES`, issued in ascending order at depth 1.
fn merge_oracle(e: &BlazeEngine, g: &Csr) -> Vec<Vec<RecordedRead>> {
    let total_pages = g.num_edges().div_ceil(EDGES_PER_PAGE as u64);
    let all_pages: Vec<u64> = (0..total_pages).collect();
    let storage = e.graph().storage();
    storage
        .partition_pages(&all_pages)
        .iter()
        .map(|locals| {
            merge_pages_with_window(locals, MAX_MERGED_PAGES)
                .into_iter()
                .map(|r| {
                    (
                        r.first_page * PAGE_SIZE as u64,
                        r.num_pages as usize * PAGE_SIZE,
                        1,
                    )
                })
                .collect()
        })
        .collect()
}

#[test]
fn default_sync_stream_matches_the_published_io_path() {
    let g = uniform(11, 12, 5);
    for devices in [1, 3] {
        let (e, recs) = recording_engine(&g, devices, EngineOptions::default());
        full_scan(&e);
        let oracle = merge_oracle(&e, &g);
        for (dev, rec) in recs.iter().enumerate() {
            assert_eq!(
                rec.read_log(),
                oracle[dev],
                "device {dev} of {devices}: stream must match the merge oracle exactly"
            );
        }
    }
}

#[test]
fn threaded_depth_one_issues_the_identical_stream() {
    let g = uniform(11, 12, 5);
    let (sync_e, sync_recs) = recording_engine(&g, 2, EngineOptions::default());
    full_scan(&sync_e);
    let (thr_e, thr_recs) = recording_engine(
        &g,
        2,
        EngineOptions::default().with_io_backend(IoBackendKind::Threaded),
    );
    full_scan(&thr_e);
    for dev in 0..2 {
        let sync_log = sync_recs[dev].read_log();
        let thr_log = thr_recs[dev].read_log();
        assert_eq!(
            sync_log, thr_log,
            "device {dev}: a depth-1 window serializes to the sync stream, \
             including order and depth hints"
        );
    }
}

#[test]
fn deep_queue_reads_the_same_request_multiset() {
    let g = uniform(11, 12, 5);
    let (sync_e, sync_recs) = recording_engine(&g, 2, EngineOptions::default());
    let sync_levels = bfs(&sync_e, 1).unwrap();
    let (thr_e, thr_recs) = recording_engine(&g, 2, EngineOptions::default().with_queue_depth(8));
    let thr_levels = bfs(&thr_e, 1).unwrap();
    assert_eq!(sync_levels, thr_levels, "same BFS result either way");
    for dev in 0..2 {
        // Completions reorder, so drop the depth hint and compare sorted
        // (offset, len) multisets across the whole multi-iteration run.
        let strip = |log: Vec<RecordedRead>| {
            let mut reqs: Vec<(u64, usize)> = log.into_iter().map(|(o, l, _)| (o, l)).collect();
            reqs.sort_unstable();
            reqs
        };
        assert_eq!(
            strip(sync_recs[dev].read_log()),
            strip(thr_recs[dev].read_log()),
            "device {dev}: deep queue must request exactly the same bytes"
        );
    }
}

#[test]
fn faulty_device_fails_bfs_cleanly_under_threaded_backend() {
    let g = rmat(&RmatConfig::new(10));
    let devs: Vec<Arc<dyn BlockDevice>> = vec![
        Arc::new(FaultyDevice::fail_every(MemDevice::new(), 2)),
        Arc::new(MemDevice::new()),
    ];
    let storage = Arc::new(StripedStorage::new(devs).unwrap());
    let graph = Arc::new(DiskGraph::create(&g, storage).unwrap());
    let e = BlazeEngine::new(graph, EngineOptions::default().with_queue_depth(8)).unwrap();
    // The injected error must surface as the job's failure; repeated runs
    // must keep failing promptly — a lost buffer would wedge a later run
    // on the free queue instead.
    for round in 0..3 {
        let r = bfs(&e, 0);
        assert!(
            matches!(r, Err(BlazeError::Io(_))),
            "round {round}: expected the injected IO error, got {r:?}"
        );
    }
    // The engine itself stays usable: a query that needs no IO succeeds.
    let mut empty = VertexSubset::new(g.num_vertices());
    empty.seal();
    let out = e
        .edge_map(
            &empty,
            EdgeMap::new(|_s: u32, _d: u32| 0u32, |_d, _v| true, |_| true).with_output(),
        )
        .unwrap();
    assert!(out.is_empty());
}
