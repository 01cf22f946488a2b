//! Artifact-style SSSP binary over deterministic synthetic edge weights.
//!
//! ```sh
//! sssp -startNode 0 -mode async rmat27.gr.index rmat27.gr.adj.0
//! ```
//!
//! `-mode binned|sync|async` picks the execution mode; `async` is the
//! delta-stepping-flavoured configuration — the priority frontier buckets
//! vertices by tentative distance so near vertices settle first.

use blaze_cli::or_exit;

fn main() {
    let cli = blaze_cli::parse_or_exit("sssp");
    let engine = or_exit("sssp", blaze_cli::open_engine(&cli, &cli.index, &cli.adj));
    let t0 = std::time::Instant::now();
    let dist = or_exit(
        "sssp",
        blaze_algorithms::sssp(&engine, cli.start_node, cli.mode),
    );
    let wall = t0.elapsed();
    blaze_cli::print_run_summary("sssp", &engine, wall);
    let mut reached = 0usize;
    let mut max_dist = 0u64;
    for v in 0..dist.len() {
        let d = dist.get(v);
        if d != blaze_algorithms::sssp::UNREACHED {
            reached += 1;
            max_dist = max_dist.max(d);
        }
    }
    println!(
        "settled {reached} vertices from root {} (eccentricity {max_dist})",
        cli.start_node
    );
}
