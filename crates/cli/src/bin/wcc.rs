//! Artifact-style WCC binary. Requires the transpose via
//! `-inIndexFilename` / `-inAdjFilenames`. `-cache-mb N` gives each
//! direction's IO workers a clock page cache of N MiB (default 0).
//! `-mode binned|sync|async` picks the execution mode. `-shards N` runs
//! the same query with both directions as concurrent
//! destination-partitioned clusters.

use std::time::{Duration, Instant};

use blaze_cli::{or_exit, CliArgs};
use blaze_core::{GraphEngine, VertexArray};

fn main() {
    let cli = blaze_cli::parse_or_exit("wcc");
    let Some(in_index) = cli.in_index.clone() else {
        eprintln!("wcc: the transpose graph is required (-inIndexFilename / -inAdjFilenames)");
        std::process::exit(2);
    };
    // Both file sets were written under one permutation (the dataset tools
    // guarantee it), which wcc asserts.
    let labels = if cli.shards > 1 {
        let open = |index, adj| or_exit("wcc", blaze_cli::open_cluster(&cli, index, adj));
        let out_cluster = open(&cli.index, &cli.adj);
        let (labels, wall) = run(&cli, &out_cluster, &open(&in_index, &cli.in_adj));
        blaze_cli::print_cluster_summary("wcc", &out_cluster, wall);
        labels
    } else {
        let open = |index, adj| or_exit("wcc", blaze_cli::open_engine(&cli, index, adj));
        let out_engine = open(&cli.index, &cli.adj);
        let (labels, wall) = run(&cli, &out_engine, &open(&in_index, &cli.in_adj));
        blaze_cli::print_run_summary("wcc", &out_engine, wall);
        labels
    };
    let mut roots: Vec<u32> = (0..labels.len()).map(|v| labels.get(v)).collect();
    roots.sort_unstable();
    roots.dedup();
    println!("{} weakly connected components", roots.len());
}

/// Runs the query over both directions; returns the labels and the wall
/// time.
fn run<E: GraphEngine>(cli: &CliArgs, out: &E, inn: &E) -> (VertexArray<u32>, Duration) {
    let t0 = Instant::now();
    let labels = or_exit("wcc", blaze_algorithms::wcc(out, inn, cli.mode));
    (labels, t0.elapsed())
}
