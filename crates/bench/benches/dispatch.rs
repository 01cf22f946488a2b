//! Dispatch-overhead benchmark: the persistent runtime (workers live for
//! the engine's lifetime, jobs are mailbox submissions) against the
//! spawn-per-call model it replaced (every `edge_map` started five scoped
//! threads and allocated a fresh bin space and IO buffer pool).
//!
//! Two views:
//!
//! * `dispatch` — pure overhead, no graph work: a no-op job submitted to
//!   the persistent runtime vs spawning and joining the same worker set
//!   per call, with and without the per-call arena allocations.
//! * `bfs_iters` — a multi-iteration out-of-core BFS (R-MAT 12, ~20
//!   frontier expansions) on the engine, vs the same BFS paying an
//!   emulated spawn-per-call tax per iteration: thread spawn+join for the
//!   worker set plus a fresh `BinSpace` and `BufferPool`, which is
//!   exactly what the old scoped pipeline re-created on every call.

use blaze_bench::report::{print_table, write_csv};
use blaze_binning::{BinSpace, BinningConfig};
use blaze_core::runtime::{PipelineJob, Runtime};
use blaze_core::{BlazeEngine, EdgeMap, EngineOptions, GraphEngine, VertexArray};
use blaze_frontier::VertexSubset;
use blaze_graph::gen::{rmat, with_path_tail, RmatConfig};
use blaze_graph::DiskGraph;
use blaze_storage::{BufferPool, StripedStorage};
use std::sync::Arc;
use std::thread;
use std::time::Instant;

const CALLS: usize = 200;
const IO_BUFFER_BYTES: usize = 4 << 20;
const PAGES_PER_BUFFER: usize = 4;

/// Best-of-`runs` wall time of `f`, in nanoseconds, after one warm-up.
fn time_best<T>(runs: usize, mut f: impl FnMut() -> T) -> u64 {
    std::hint::black_box(f());
    let mut best = u64::MAX;
    for _ in 0..runs {
        let t0 = Instant::now();
        std::hint::black_box(f());
        best = best.min(t0.elapsed().as_nanos() as u64);
    }
    best
}

fn row(group: &str, name: &str, nanos: u64) -> Vec<String> {
    vec![
        group.to_string(),
        name.to_string(),
        format!("{:.3}", nanos as f64 / 1e6),
    ]
}

struct NoopJob;

impl PipelineJob for NoopJob {
    fn run_io(&self, _device: usize, _lane: usize) {}
    fn run_scatter(&self, _worker: usize) {}
    fn run_gather(&self, _worker: usize) {}
}

fn bin_config() -> BinningConfig {
    BinningConfig::new(1024, 4 << 20, 64).unwrap()
}

/// Pure dispatch cost, no graph attached: submit CALLS no-op jobs.
fn bench_dispatch(rows: &mut Vec<Vec<String>>) {
    // Persistent: one worker set for all calls (1 IO + 2 scatter +
    // 2 gather, the engine default on one device).
    rows.push(row(
        "dispatch",
        &format!("persistent_x{CALLS}"),
        time_best(5, || {
            let rt = Runtime::new(1, 1, 2, 2);
            for _ in 0..CALLS {
                rt.submit(&NoopJob, true);
            }
        }),
    ));
    // Spawn-per-call: five fresh threads per call, as the old scoped
    // pipeline did.
    rows.push(row(
        "dispatch",
        &format!("spawn_per_call_x{CALLS}"),
        time_best(5, || {
            for _ in 0..CALLS {
                thread::scope(|s| {
                    for _ in 0..5 {
                        s.spawn(|| std::hint::black_box(()));
                    }
                });
            }
        }),
    ));
    // Spawn-per-call plus the per-call arena allocations (fresh bin space
    // and IO buffer pool), the full price of the old entry sequence.
    rows.push(row(
        "dispatch",
        &format!("spawn_plus_arenas_x{CALLS}"),
        time_best(5, || {
            for _ in 0..CALLS {
                let space: BinSpace<u32> = BinSpace::new(bin_config());
                let pool = BufferPool::with_bytes_and_pages(IO_BUFFER_BYTES, PAGES_PER_BUFFER);
                std::hint::black_box((&space, &pool));
                thread::scope(|s| {
                    for _ in 0..5 {
                        s.spawn(|| std::hint::black_box(()));
                    }
                });
            }
        }),
    ));
}

/// Multi-iteration BFS: every frontier expansion is one job. The
/// persistent engine dispatches each to the standing workers; the
/// emulation additionally pays the old per-call cost before each
/// iteration. A path tail stretches the R-MAT core's ~4-level traversal
/// past 20 levels, mimicking the long-diameter web graphs of the paper.
fn bench_bfs(rows: &mut Vec<Vec<String>>) {
    let g = with_path_tail(&rmat(&RmatConfig::new(12)), 16);
    let storage = Arc::new(StripedStorage::in_memory(1).unwrap());
    let graph = Arc::new(DiskGraph::create(&g, storage).unwrap());
    let n = graph.num_vertices();
    let root = 0u32;

    let run_bfs = |per_iteration_tax: bool| {
        let engine = BlazeEngine::new(graph.clone(), EngineOptions::default()).unwrap();
        let parent = VertexArray::<i64>::new(n, -1);
        parent.set(root as usize, root as i64);
        let mut frontier = VertexSubset::single(n, root);
        let mut iterations = 0usize;
        while !frontier.is_empty() {
            if per_iteration_tax {
                let space: BinSpace<u32> = BinSpace::new(bin_config());
                let pool = BufferPool::with_bytes_and_pages(IO_BUFFER_BYTES, PAGES_PER_BUFFER);
                std::hint::black_box((&space, &pool));
                thread::scope(|s| {
                    for _ in 0..5 {
                        s.spawn(|| std::hint::black_box(()));
                    }
                });
            }
            frontier = engine
                .edge_map(
                    &frontier,
                    EdgeMap::new(
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
                    )
                    .with_output(),
                )
                .unwrap();
            iterations += 1;
        }
        assert!(
            iterations >= 10,
            "need a deep BFS ({iterations} iterations)"
        );
        iterations
    };

    rows.push(row("bfs_iters", "persistent_runtime", {
        time_best(5, || run_bfs(false))
    }));
    rows.push(row("bfs_iters", "spawn_per_call_emulation", {
        time_best(5, || run_bfs(true))
    }));
}

fn main() {
    let mut rows = Vec::new();
    bench_dispatch(&mut rows);
    bench_bfs(&mut rows);
    print_table(
        "Dispatch overhead: persistent runtime vs spawn-per-call",
        &["group", "case", "ms"],
        &rows,
    );
    let path = write_csv("dispatch", &["group", "case", "ms"], &rows);
    println!("\nwrote {}", path.display());
}
