//! Scale-out prototype (the paper's Section VI sketch): the library's BFS
//! run unchanged over a destination-partitioned cluster. Each "machine" owns the edges whose
//! destination falls in its range, runs a full Blaze engine over its own
//! SSDs, and gathers entirely locally — the only cross-machine traffic is
//! the per-iteration frontier broadcast, which the run reports.
//!
//! ```sh
//! cargo run --release --example scaleout_cluster
//! ```

use blaze::algorithms::{bfs, reference, ExecMode};
use blaze::engine::{EngineOptions, GraphEngine};
use blaze::graph::{Dataset, DatasetScale};
use blaze::scaleout::Cluster;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let csr = Dataset::Rmat30.generate(DatasetScale::Tiny);
    let n = csr.num_vertices();
    println!("graph: {n} vertices, {} edges", csr.num_edges());
    let expect = reference::bfs_levels(&csr, 0);

    for machines in [1usize, 2, 4] {
        let cluster = Cluster::build(&csr, machines, 1, EngineOptions::default())?;
        // The same BFS definition that runs on one engine: each EdgeMap is
        // a concurrent superstep over the shards.
        let parent = bfs(&cluster, 0, ExecMode::Binned)?;
        let reached = (0..cluster.num_vertices())
            .filter(|&v| parent.get(v) != -1)
            .count();
        assert_eq!(reached, expect.iter().filter(|&&l| l != -1).count());
        let stats = cluster.stats();
        let per_machine: Vec<u64> = stats.per_shard.iter().map(|s| s.io_bytes).collect();
        println!(
            "{machines} machine(s): reached {reached}, {} rounds, IO per machine {per_machine:?}, \
             frontier deltas {} wire + {} value bytes in {} messages",
            stats.rounds, stats.exchange_bytes, stats.exchange_value_bytes, stats.exchange_messages
        );
    }
    println!("note: gather never crosses machines — destination partitioning keeps bins local");
    Ok(())
}
