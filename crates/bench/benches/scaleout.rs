//! Scale-out scaling curve (Section VI, Fig 9-style): measured query
//! execution on a concurrent cluster of 1–8 shards, each a paper-spec
//! machine (16 threads + one Optane SSD), priced by the perfmodel with its
//! 10 GbE network leg.
//!
//! Destination partitioning keeps `EdgeMap` gathers machine-local; the
//! shards run real supersteps on their own threads and swap frontier
//! deltas over the bounded exchange fabric. The compute+IO leg is the
//! per-round maximum over the shards' measured iteration traces (rounds
//! are barrier-synchronized, so the slowest shard sets the pace); the
//! network leg prices the *measured* exchange wire bytes plus the modeled
//! value payload at the machine's network profile. Device IO per shard
//! shrinks as shards grow — the column to watch for the paper's
//! near-linear IO scaling claim.

use blaze_algorithms::{bfs, pagerank_delta, wcc, ExecMode, PageRankConfig};
use blaze_bench::datasets::{prepare, scale_from_env};
use blaze_bench::report::{print_table, write_csv};
use blaze_core::EngineOptions;
use blaze_graph::{Csr, Dataset, VertexPermutation};
use blaze_perfmodel::{MachineConfig, PerfModel};
use blaze_scaleout::Cluster;

/// Per-round max over the shards' measured traces, priced by `model` —
/// the barrier makes the slowest shard's iteration the round's cost.
fn compute_seconds(cluster: &Cluster, model: &PerfModel) -> f64 {
    let per_machine: Vec<Vec<f64>> = cluster
        .machines()
        .iter()
        .map(|m| {
            m.engine
                .take_traces()
                .iter()
                .map(|t| model.blaze_iteration(t).total_ns() * 1e-9)
                .collect()
        })
        .collect();
    let rounds = per_machine.iter().map(Vec::len).max().unwrap_or(0);
    (0..rounds)
        .map(|r| {
            per_machine
                .iter()
                .filter_map(|m| m.get(r).copied())
                .fold(0.0, f64::max)
        })
        .sum()
}

fn main() {
    let scale = scale_from_env();
    let g = prepare(Dataset::Rmat30, scale);
    let n = g.csr.num_vertices();
    let root = (0..n as u32).max_by_key(|&v| g.csr.degree(v)).unwrap_or(0);
    let transpose = g.csr.transpose();
    let machine = MachineConfig::paper_optane();
    let model = PerfModel::new(machine.clone());

    let build = |csr: &Csr, shards: usize| {
        Cluster::build_physical(
            csr,
            VertexPermutation::identity(n),
            shards,
            1,
            EngineOptions::default(),
        )
        .unwrap()
    };

    let mut rows = Vec::new();
    let mut base_per_algo: Vec<(String, f64)> = Vec::new();
    for shards in [1usize, 2, 4, 8] {
        for algo in ["BFS", "PR", "WCC"] {
            let cluster = build(&g.csr, shards);
            match algo {
                "BFS" => {
                    bfs(&cluster, root, ExecMode::Binned).unwrap();
                }
                "PR" => {
                    pagerank_delta(&cluster, PageRankConfig::default(), ExecMode::Binned).unwrap();
                }
                "WCC" => {
                    let in_cluster = build(&transpose, shards);
                    wcc(&cluster, &in_cluster, ExecMode::Binned).unwrap();
                    // The transpose direction's rounds run in lockstep with
                    // the out direction; fold its compute leg in too.
                    let stats = cluster.stats();
                    let in_stats = in_cluster.stats();
                    let compute_s =
                        compute_seconds(&cluster, &model) + compute_seconds(&in_cluster, &model);
                    let wire = stats.exchange_bytes
                        + stats.exchange_value_bytes
                        + in_stats.exchange_bytes
                        + in_stats.exchange_value_bytes;
                    let msgs = stats.exchange_messages + in_stats.exchange_messages;
                    let network_s = machine.network_ns(wire, msgs) * 1e-9;
                    push_row(
                        &mut rows,
                        &mut base_per_algo,
                        algo,
                        shards,
                        stats
                            .per_shard
                            .iter()
                            .zip(&in_stats.per_shard)
                            .map(|(a, b)| a.io_bytes + b.io_bytes)
                            .max()
                            .unwrap_or(0),
                        wire,
                        msgs,
                        compute_s,
                        network_s,
                    );
                    continue;
                }
                _ => unreachable!(),
            }
            let stats = cluster.stats();
            let compute_s = compute_seconds(&cluster, &model);
            let wire = stats.exchange_bytes + stats.exchange_value_bytes;
            let network_s = machine.network_ns(wire, stats.exchange_messages) * 1e-9;
            push_row(
                &mut rows,
                &mut base_per_algo,
                algo,
                shards,
                stats
                    .per_shard
                    .iter()
                    .map(|s| s.io_bytes)
                    .max()
                    .unwrap_or(0),
                wire,
                stats.exchange_messages,
                compute_s,
                network_s,
            );
        }
    }
    print_table(
        "Scale-out: measured sharded supersteps on rmat30 (paper-spec machines, 10 GbE)",
        &[
            "algo",
            "shards",
            "max shard device B",
            "exchange B",
            "exchange msgs",
            "compute s",
            "network s",
            "total s",
            "speedup",
        ],
        &rows,
    );
    let path = write_csv(
        "scaleout",
        &[
            "algo",
            "shards",
            "max_shard_device_bytes",
            "exchange_bytes",
            "exchange_msgs",
            "compute_s",
            "network_s",
            "total_s",
            "speedup",
        ],
        &rows,
    );
    println!("\nwrote {}", path.display());
}

#[allow(clippy::too_many_arguments)]
fn push_row(
    rows: &mut Vec<Vec<String>>,
    base_per_algo: &mut Vec<(String, f64)>,
    algo: &str,
    shards: usize,
    max_shard_device_bytes: u64,
    exchange_bytes: u64,
    exchange_msgs: u64,
    compute_s: f64,
    network_s: f64,
) {
    let total = compute_s + network_s;
    // Speedup vs this algorithm's 1-shard run (the first row pushed per
    // algo is always shards == 1).
    let base = match base_per_algo.iter().find(|(a, _)| a == algo) {
        Some((_, b)) => *b,
        None => {
            base_per_algo.push((algo.to_string(), total));
            total
        }
    };
    rows.push(vec![
        algo.to_string(),
        shards.to_string(),
        max_shard_device_bytes.to_string(),
        exchange_bytes.to_string(),
        exchange_msgs.to_string(),
        format!("{compute_s:.5}"),
        format!("{network_s:.5}"),
        format!("{total:.5}"),
        format!("{:.2}x", base / total.max(1e-12)),
    ]);
}
