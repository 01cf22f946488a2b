//! The scale-out cluster: destination-partitioned shards running
//! supersteps concurrently, exchanging only frontier deltas.
//!
//! Every shard (one [`Machine`]) owns the edges whose destination falls in
//! its range, so the gather side of every `EdgeMap` is machine-local —
//! bins never cross the network (paper Section VI). What does cross is the
//! frontier: at the start of a superstep each shard wire-encodes the slice
//! of the input frontier it owns ([`blaze_frontier::wire`]) and swaps it
//! with every peer over the bounded [`ExchangeFabric`], then rebuilds the
//! full replica locally. The input frontier of round `k` is exactly the
//! set activated in round `k-1`, so this ships only deltas, never the
//! accumulated visited set.
//!
//! Execution is genuinely concurrent: a persistent
//! [`ShardPool`] thread per shard drives that
//! shard's engine, and [`edge_map`](Cluster::edge_map) is the superstep
//! barrier — it returns once every shard has finished and the outputs are
//! unioned. [`ClusterStats`] reports measured per-shard [`ExecStats`] and
//! measured exchange traffic, which the perfmodel's network leg prices.

use std::ops::Range;

use blaze_sync::{Arc, Mutex};

use blaze_binning::BinValue;
use blaze_core::edge_map::unsupported_mode;
use blaze_core::{
    BlazeEngine, EdgeMap, EdgeMapMode, EngineOptions, ExecStats, GraphEngine, ShardPool,
};
use blaze_frontier::{wire, VertexSubset};
use blaze_graph::{Csr, DiskGraph, VertexLayout, VertexPermutation};
use blaze_storage::StripedStorage;
use blaze_types::{BlazeError, Result, VertexId};

use crate::exchange::ExchangeFabric;
use crate::partition::{partition_by_destination, DstPartition};
use crate::router::ShardRouter;

/// One machine of the cluster.
pub struct Machine {
    /// Destination range this machine gathers for (physical id space).
    pub dst_range: Range<VertexId>,
    /// The machine's engine over its destination-partitioned subgraph.
    pub engine: BlazeEngine,
}

/// Measured cluster execution statistics.
#[derive(Debug, Clone, Default)]
pub struct ClusterStats {
    /// `edge_map` rounds executed.
    pub rounds: usize,
    /// Measured wire bytes shipped through the exchange fabric: encoded
    /// frontier slices plus per-frame framing.
    pub exchange_bytes: u64,
    /// Modeled bytes for the scattered values accompanying the exchanged
    /// ids (`frontier members x size_of::<V>() x peers`); the ids themselves
    /// are measured in [`exchange_bytes`](Self::exchange_bytes).
    pub exchange_value_bytes: u64,
    /// Point-to-point messages completed on the fabric.
    pub exchange_messages: u64,
    /// Total bytes read from every machine's device array.
    pub io_bytes: u64,
    /// Per-shard engine statistics, index-aligned with
    /// [`Cluster::machines`].
    pub per_shard: Vec<ExecStats>,
}

/// Round accounting the fabric cannot measure itself.
struct Counters {
    rounds: usize,
    value_bytes: u64,
}

/// A destination-partitioned Blaze cluster with concurrent supersteps.
pub struct Cluster {
    machines: Vec<Machine>,
    pool: ShardPool,
    fabric: ExchangeFabric,
    router: ShardRouter,
    layout: VertexPermutation,
    /// Global out-degrees in physical id space. Shard subgraphs filter
    /// neighbor lists to their own range, so degree-normalizing algorithms
    /// (PageRank) must read the unfiltered degree from here.
    out_degrees: Vec<u32>,
    num_vertices: usize,
    counters: Mutex<Counters>,
}

impl Cluster {
    /// Builds a cluster of `machines` over `g` (original id order kept),
    /// each machine with `devices_per_machine` simulated SSDs and the
    /// given engine options.
    pub fn build(
        g: &Csr,
        machines: usize,
        devices_per_machine: usize,
        options: EngineOptions,
    ) -> Result<Self> {
        Self::build_with_layout(
            g,
            VertexLayout::None,
            machines,
            devices_per_machine,
            options,
        )
    }

    /// Builds a cluster over `g` after applying `layout`, so the physical
    /// packing order (and hence the destination partitioning) matches what
    /// a single engine with the same layout would see.
    pub fn build_with_layout(
        g: &Csr,
        layout: VertexLayout,
        machines: usize,
        devices_per_machine: usize,
        options: EngineOptions,
    ) -> Result<Self> {
        let (perm, _hot) = layout.plan(g);
        let physical = perm.permute_csr(g);
        Self::build_physical(&physical, perm, machines, devices_per_machine, options)
    }

    /// Builds a cluster over a graph already in physical id space, carrying
    /// the permutation that maps it back to original ids — the path the CLI
    /// takes when sharding an on-disk graph whose layout was fixed at
    /// convert time.
    pub fn build_physical(
        physical: &Csr,
        layout: VertexPermutation,
        machines: usize,
        devices_per_machine: usize,
        options: EngineOptions,
    ) -> Result<Self> {
        if layout.len() != physical.num_vertices() {
            return Err(BlazeError::Config(format!(
                "layout covers {} vertices but the graph has {}",
                layout.len(),
                physical.num_vertices()
            )));
        }
        let n = physical.num_vertices();
        let out_degrees: Vec<u32> = (0..n as VertexId).map(|v| physical.degree(v)).collect();
        let parts = partition_by_destination(physical, machines);
        let mut bounds: Vec<VertexId> = parts.iter().map(|p| p.dst_range.start).collect();
        bounds.push(n as VertexId);
        let machines = parts
            .into_iter()
            .map(
                |DstPartition {
                     dst_range,
                     subgraph,
                 }|
                 -> Result<Machine> {
                    let storage = Arc::new(StripedStorage::in_memory(devices_per_machine)?);
                    let graph = Arc::new(DiskGraph::create(&subgraph, storage)?);
                    let engine = BlazeEngine::new(graph, options.clone())?;
                    Ok(Machine { dst_range, engine })
                },
            )
            .collect::<Result<Vec<_>>>()?;
        let shards = machines.len();
        Ok(Self {
            machines,
            pool: ShardPool::new(shards),
            fabric: ExchangeFabric::with_defaults(shards),
            router: ShardRouter::new(bounds),
            layout,
            out_degrees,
            num_vertices: n,
            counters: Mutex::new(Counters {
                rounds: 0,
                value_bytes: 0,
            }),
        })
    }

    /// Number of machines.
    pub fn num_machines(&self) -> usize {
        self.machines.len()
    }

    /// Per-machine engines (for inspecting traces/stats).
    pub fn machines(&self) -> &[Machine] {
        &self.machines
    }

    /// The router mapping vertex ids to owning shards.
    pub fn router(&self) -> &ShardRouter {
        &self.router
    }

    /// The shard owning `orig` (an original-space vertex id). Ids beyond
    /// the graph take the router's consistent-hash fallback.
    pub fn owner_of(&self, orig: VertexId) -> usize {
        if (orig as usize) < self.num_vertices {
            self.router.route(self.layout.to_physical(orig))
        } else {
            self.router.route(orig)
        }
    }

    /// Measured statistics so far.
    pub fn stats(&self) -> ClusterStats {
        let (rounds, value_bytes) = {
            let c = self.counters.lock();
            (c.rounds, c.value_bytes)
        };
        let per_shard: Vec<ExecStats> = self.machines.iter().map(|m| m.engine.stats()).collect();
        ClusterStats {
            rounds,
            exchange_bytes: self.fabric.bytes_sent(),
            exchange_value_bytes: value_bytes,
            exchange_messages: self.fabric.messages_sent(),
            io_bytes: per_shard.iter().map(|s| s.io_bytes).sum(),
            per_shard,
        }
    }

    /// One shard's half of a superstep, executed on its pool thread.
    ///
    /// Every fallible step sits *after* the collective exchange, so a shard
    /// hitting an error still completes the all-to-all and cannot strand
    /// its peers mid-round; the error surfaces through the result slot.
    fn shard_superstep<V, FS, FG, FC, FM>(
        &self,
        shard: usize,
        frontier: &VertexSubset,
        spec: EdgeMap<'_, FS, FG, FC, FM>,
    ) -> Result<VertexSubset>
    where
        V: BinValue,
        FS: Fn(VertexId, VertexId) -> V + Sync,
        FG: Fn(VertexId, V) -> bool + Sync,
        FC: Fn(VertexId) -> bool + Sync,
        FM: Fn(V, V) -> V + Sync,
    {
        let machine = &self.machines[shard];
        let payload = wire::encode_range(frontier, machine.dst_range.clone());
        let inbox = self.fabric.exchange(shard, &payload);
        let mut replica = VertexSubset::new(self.num_vertices);
        frontier.for_each_in_range(machine.dst_range.clone(), |v| {
            replica.insert(v);
        });
        for (src, message) in inbox.iter().enumerate() {
            if src == shard {
                continue;
            }
            wire::decode_into(message, &replica)?;
        }
        replica.seal();
        let local = machine.engine.edge_map(&replica, spec)?;
        // Destination partitioning guarantees gather locality; an escape
        // means the partition table and the subgraphs disagree, and the
        // union frontier (and every downstream round) would silently
        // corrupt. Fail loudly, in release builds too.
        for v in local.members() {
            if !machine.dst_range.contains(&v) {
                return Err(BlazeError::Engine(format!(
                    "shard {shard} activated vertex {v} outside its destination \
                     range {:?}: destination partitioning is broken",
                    machine.dst_range
                )));
            }
        }
        Ok(local)
    }
}

impl GraphEngine for Cluster {
    fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// The permutation shared by every shard.
    fn layout(&self) -> &VertexPermutation {
        &self.layout
    }

    /// The global out-degree: shard subgraphs filter neighbor lists to
    /// their own destination range, so their local degree under-counts.
    fn out_degree(&self, v: VertexId) -> u32 {
        self.out_degrees[v as usize]
    }

    /// Vertex state is replicated, not partitioned, so `VertexMap`
    /// (APPLYFILTER) runs on the calling thread with shard 0's engine
    /// settings, exactly as the paper's Section VI sketch prescribes.
    fn vertex_map<F>(&self, frontier: &VertexSubset, f: F) -> VertexSubset
    where
        F: Fn(VertexId) -> bool + Sync,
    {
        self.machines[0].engine.vertex_map(frontier, f)
    }

    /// Distributed `EdgeMap`, one superstep: every shard concurrently
    /// exchanges its slice of `frontier` with its peers, rebuilds the full
    /// replica, and runs the spec over its destination partition; the
    /// returned frontier is the union of the shards' outputs. Each
    /// exchanged activation is modeled as carrying one scattered value
    /// (`size_of::<V>()` bytes) of the vertex state the scatter side reads.
    ///
    /// Only [`EdgeMapMode::Binned`] runs: the superstep barrier is the
    /// cluster's round structure, and the sync variant's atomics would not
    /// reach across machines.
    fn edge_map<V, FS, FG, FC, FM>(
        &self,
        frontier: &VertexSubset,
        spec: EdgeMap<'_, FS, FG, FC, FM>,
    ) -> Result<VertexSubset>
    where
        V: BinValue,
        FS: Fn(VertexId, VertexId) -> V + Sync,
        FG: Fn(VertexId, V) -> bool + Sync,
        FC: Fn(VertexId) -> bool + Sync,
        FM: Fn(V, V) -> V + Sync,
    {
        if !matches!(spec.mode, EdgeMapMode::Binned) {
            return Err(unsupported_mode("a cluster", &spec.mode));
        }
        let shards = self.machines.len();
        let active = frontier.len() as u64;
        let out = if shards == 1 {
            // Single shard: nothing to exchange, drive the engine directly.
            self.machines[0].engine.edge_map(frontier, spec)?
        } else {
            let slots: Vec<Mutex<Option<Result<VertexSubset>>>> =
                (0..shards).map(|_| Mutex::new(None)).collect();
            self.pool.run(&|shard| {
                let result = self.shard_superstep(shard, frontier, spec.by_ref());
                *slots[shard].lock() = Some(result);
            });
            let mut out = VertexSubset::new(self.num_vertices);
            for slot in &slots {
                // panic-audit: unreachable — `run` is a completion barrier,
                // so every worker stored its result (or `run` re-raised the
                // panic) before this loop starts.
                let local = slot.lock().take().expect("every shard reports a result")?;
                for v in local.members() {
                    out.insert(v);
                }
            }
            out.seal();
            out
        };
        let mut c = self.counters.lock();
        c.rounds += 1;
        c.value_bytes += active * std::mem::size_of::<V>() as u64 * (shards as u64 - 1);
        drop(c);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blaze_core::VertexArray;
    use blaze_graph::gen::{rmat, uniform, RmatConfig};

    /// Cluster BFS levels, mirroring Algorithm 1 over the cluster API.
    fn cluster_bfs(cluster: &Cluster, root: VertexId) -> Vec<i64> {
        let n = cluster.num_vertices();
        let level = VertexArray::<i64>::new(n, -1);
        level.set(root as usize, 0);
        let mut frontier = VertexSubset::single(n, root);
        let mut depth = 0i64;
        while !frontier.is_empty() {
            depth += 1;
            let d = depth;
            frontier = cluster
                .edge_map(
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
                )
                .unwrap();
        }
        level.to_vec()
    }

    fn reference_levels(g: &Csr, root: u32) -> Vec<i64> {
        let mut level = vec![-1i64; g.num_vertices()];
        level[root as usize] = 0;
        let mut frontier = vec![root];
        let mut d = 0;
        while !frontier.is_empty() {
            d += 1;
            let mut next = Vec::new();
            for &v in &frontier {
                for &w in g.neighbors(v) {
                    if level[w as usize] == -1 {
                        level[w as usize] = d;
                        next.push(w);
                    }
                }
            }
            frontier = next;
        }
        level
    }

    #[test]
    fn cluster_bfs_matches_single_machine_reference() {
        let g = rmat(&RmatConfig::new(9));
        for machines in [1, 2, 4] {
            let cluster = Cluster::build(&g, machines, 1, EngineOptions::default()).unwrap();
            assert_eq!(
                cluster_bfs(&cluster, 0),
                reference_levels(&g, 0),
                "{machines} machines"
            );
        }
    }

    #[test]
    fn gather_stays_machine_local() {
        // A full-frontier round on 4 machines: every edge must be applied
        // exactly once, each on the machine owning its destination.
        let g = uniform(9, 8, 5);
        let cluster = Cluster::build(&g, 4, 2, EngineOptions::default()).unwrap();
        let frontier = VertexSubset::full(g.num_vertices());
        let sum = VertexArray::<u64>::new(g.num_vertices(), 0);
        cluster
            .edge_map(
                &frontier,
                EdgeMap::new(
                    |_s: u32, _d: u32| 1u32,
                    |d: u32, v: u32| {
                        sum.set(d as usize, sum.get(d as usize) + v as u64);
                        true
                    },
                    |_d: u32| true,
                )
                .with_output(),
            )
            .unwrap();
        let total: u64 = (0..g.num_vertices()).map(|v| sum.get(v)).sum();
        assert_eq!(
            total,
            g.num_edges(),
            "every edge delivered exactly once across machines"
        );
    }

    #[test]
    fn exchange_traffic_is_measured_and_scales_with_machines() {
        let g = rmat(&RmatConfig::new(8));
        let f1 = {
            let c = Cluster::build(&g, 1, 1, EngineOptions::default()).unwrap();
            cluster_bfs(&c, 0);
            c.stats()
        };
        let f2 = {
            let c = Cluster::build(&g, 2, 1, EngineOptions::default()).unwrap();
            cluster_bfs(&c, 0);
            c.stats()
        };
        let f4 = {
            let c = Cluster::build(&g, 4, 1, EngineOptions::default()).unwrap();
            cluster_bfs(&c, 0);
            c.stats()
        };
        // One shard never touches the fabric.
        assert_eq!(f1.exchange_bytes, 0);
        assert_eq!(f1.exchange_messages, 0);
        assert_eq!(f1.exchange_value_bytes, 0);
        // More peers, more traffic — both the measured delta bytes and the
        // modeled value payload.
        assert!(f4.exchange_bytes > f2.exchange_bytes, "{f4:?} vs {f2:?}");
        // BFS is deterministic, so the frontiers per round are identical
        // across shard counts: the modeled value payload scales exactly
        // with the peer count (3 peers vs 1).
        assert_eq!(f4.exchange_value_bytes, 3 * f2.exchange_value_bytes);
        // Messages: every round completes peers x shards point-to-point
        // sends; same round count means an exact 6x ratio (4*3 vs 2*1).
        assert_eq!(f2.rounds, f4.rounds);
        assert_eq!(f4.exchange_messages, 6 * f2.exchange_messages);
        assert!(f2.rounds > 0 && f2.io_bytes > 0);
    }

    #[test]
    fn stats_report_per_shard_engines() {
        let g = rmat(&RmatConfig::new(8));
        let c = Cluster::build(&g, 4, 1, EngineOptions::default()).unwrap();
        cluster_bfs(&c, 0);
        let stats = c.stats();
        assert_eq!(stats.per_shard.len(), 4);
        assert_eq!(
            stats.io_bytes,
            stats.per_shard.iter().map(|s| s.io_bytes).sum::<u64>()
        );
        assert!(stats.per_shard.iter().all(|s| s.iterations > 0));
    }

    #[test]
    fn io_splits_across_machines() {
        let g = rmat(&RmatConfig::new(9));
        let single = Cluster::build(&g, 1, 1, EngineOptions::default()).unwrap();
        let quad = Cluster::build(&g, 4, 1, EngineOptions::default()).unwrap();
        let frontier = VertexSubset::full(g.num_vertices());
        let run = |c: &Cluster| {
            c.edge_map(
                &frontier,
                EdgeMap::new(|s: u32, _d: u32| s, |_d: u32, _v: u32| false, |_| true),
            )
            .unwrap();
            c.machines()
                .iter()
                .map(|m| m.engine.stats().io_bytes)
                .collect::<Vec<_>>()
        };
        let s = run(&single);
        let q = run(&quad);
        // Each machine reads only its own column slice; totals are close to
        // the single-machine scan (pages are padded per machine).
        let total_q: u64 = q.iter().sum();
        // Page rounding pads each machine's last page, so allow modest
        // overhead at this tiny scale.
        assert!(
            total_q as f64 <= 1.5 * s[0] as f64,
            "quad {total_q} vs single {}",
            s[0]
        );
        let max = *q.iter().max().unwrap() as f64;
        let min = *q.iter().min().unwrap() as f64;
        assert!(max / min.max(1.0) < 2.0, "per-machine IO balanced: {q:?}");
    }

    #[test]
    fn degree_layout_cluster_matches_reference_after_translation() {
        let g = rmat(&RmatConfig::new(8));
        let cluster =
            Cluster::build_with_layout(&g, VertexLayout::Degree, 3, 1, EngineOptions::default())
                .unwrap();
        let layout = cluster.layout().clone();
        assert!(!layout.is_identity(), "rmat graphs reorder under degree");
        let root_phys = layout.to_physical(0);
        let phys_levels = cluster_bfs(&cluster, root_phys);
        let expect = reference_levels(&g, 0);
        let got: Vec<i64> = (0..g.num_vertices())
            .map(|orig| phys_levels[layout.to_physical(orig as u32) as usize])
            .collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn owner_of_agrees_with_machine_ranges() {
        let g = rmat(&RmatConfig::new(8));
        let cluster = Cluster::build(&g, 4, 1, EngineOptions::default()).unwrap();
        for orig in (0..g.num_vertices() as u32).step_by(7) {
            let shard = cluster.owner_of(orig);
            let phys = cluster.layout().to_physical(orig);
            assert!(
                cluster.machines()[shard].dst_range.contains(&phys),
                "vertex {orig} routed to shard {shard} which does not own it"
            );
        }
        // Beyond the graph: the hash fallback still names a real shard.
        assert!(cluster.owner_of(u32::MAX) < 4);
    }
}
