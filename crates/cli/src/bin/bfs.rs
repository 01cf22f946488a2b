//! Artifact-style BFS binary.
//!
//! ```sh
//! bfs -computeWorkers 16 -startNode 0 rmat27.gr.index rmat27.gr.adj.0
//! ```
//!
//! With `-jobs N` (default 1), N copies of the query are submitted from
//! separate threads against the one engine; the persistent runtime
//! interleaves them on its shared IO/scatter/gather workers.
//!
//! `-cache-mb N` gives the IO workers a clock page cache of N MiB
//! (default 0, i.e. no cache — matching the published system).
//!
//! `-qd N` sets the per-device IO queue depth (default 1, the published
//! engine's synchronous backend; deeper windows switch to the threaded
//! backend and keep up to N requests in flight per device).
//!
//! `-mode binned|sync|async` picks the execution mode; `async` drops the
//! per-iteration barrier and drains a priority frontier bucketed by BFS
//! level.
//!
//! `-shards N` (default 1) runs the same query over a concurrent
//! destination-partitioned cluster of N engines exchanging frontier
//! deltas (binned mode only); the summary's `shards:` line reports
//! per-shard device bytes and the measured exchange traffic.

use std::thread;
use std::time::{Duration, Instant};

use blaze_cli::{or_exit, CliArgs};
use blaze_core::{GraphEngine, VertexArray};

fn main() {
    let cli = blaze_cli::parse_or_exit("bfs");
    let parent = if cli.shards > 1 {
        let cluster = or_exit("bfs", blaze_cli::open_cluster(&cli, &cli.index, &cli.adj));
        let (parent, wall) = run(&cli, &cluster);
        blaze_cli::print_cluster_summary("bfs", &cluster, wall);
        parent
    } else {
        let engine = or_exit("bfs", blaze_cli::open_engine(&cli, &cli.index, &cli.adj));
        let (parent, wall) = run(&cli, &engine);
        blaze_cli::print_run_summary("bfs", &engine, wall);
        parent
    };
    if cli.jobs > 1 {
        println!("{} concurrent jobs over one engine", cli.jobs);
    }
    let reached = (0..parent.len()).filter(|&v| parent.get(v) != -1).count();
    println!("reached {reached} vertices from root {}", cli.start_node);
}

/// Runs `-jobs` concurrent BFS queries over `engine`; returns one job's
/// parents and the wall time of the whole fan-out. A failed or panicked
/// job ends the process with status 1.
fn run<E: GraphEngine>(cli: &CliArgs, engine: &E) -> (VertexArray<i64>, Duration) {
    let t0 = Instant::now();
    let mut parents: Vec<VertexArray<i64>> = thread::scope(|s| {
        let handles: Vec<_> = (0..cli.jobs)
            .map(|_| s.spawn(|| blaze_algorithms::bfs(engine, cli.start_node, cli.mode)))
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(result) => or_exit("bfs", result),
                Err(_) => {
                    eprintln!("bfs: job panicked");
                    std::process::exit(1);
                }
            })
            .collect()
    });
    let wall = t0.elapsed();
    // panic-audit: `-jobs` is at least 1, so the fan-out ran one job.
    let parent = parents.pop().expect("-jobs guarantees at least one run");
    (parent, wall)
}
