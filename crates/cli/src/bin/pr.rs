//! Artifact-style PageRank (delta variant) binary.
//!
//! `-cache-mb N` gives the IO workers a clock page cache of N MiB
//! (default 0 = no cache); PageRank's repeated near-full scans are where
//! a warm cache saves the most device bytes. `-combine` merges
//! same-destination delta records in the scatter staging windows before
//! they reach the bins (the summary's "records combined" count).
//! `-shards N` runs the same query over a concurrent
//! destination-partitioned cluster instead of one engine.

use std::time::{Duration, Instant};

use blaze_algorithms::{pagerank_delta, pagerank_delta_combined, PageRankConfig};
use blaze_cli::{or_exit, CliArgs};
use blaze_core::{GraphEngine, VertexArray};

fn main() {
    let cli = blaze_cli::parse_or_exit("pr");
    let ranks = if cli.shards > 1 {
        let cluster = or_exit("pr", blaze_cli::open_cluster(&cli, &cli.index, &cli.adj));
        let (ranks, wall) = run(&cli, &cluster);
        blaze_cli::print_cluster_summary("pr", &cluster, wall);
        ranks
    } else {
        let engine = or_exit("pr", blaze_cli::open_engine(&cli, &cli.index, &cli.adj));
        let (ranks, wall) = run(&cli, &engine);
        blaze_cli::print_run_summary("pr", &engine, wall);
        ranks
    };
    let top = (0..ranks.len())
        .max_by(|&a, &b| ranks.get(a).total_cmp(&ranks.get(b)))
        .unwrap_or(0);
    println!("top-ranked vertex: {top} (rank {:.6})", ranks.get(top));
}

/// Runs the query over `engine`; returns the ranks and the wall time.
fn run<E: GraphEngine>(cli: &CliArgs, engine: &E) -> (VertexArray<f64>, Duration) {
    let config = PageRankConfig {
        max_iters: cli.max_iters,
        ..Default::default()
    };
    let t0 = Instant::now();
    let result = if cli.combine {
        pagerank_delta_combined(engine, config)
    } else {
        // Non-monotone: -mode async comes back as a config error here.
        pagerank_delta(engine, config, cli.mode)
    };
    (or_exit("pr", result), t0.elapsed())
}
