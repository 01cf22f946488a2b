//! Per-layer metrics of the traced run, from counter deltas read around
//! the timed phase through each crate's public API.

use blaze_core::ExecStats;
use blaze_types::PAGE_SIZE;

use crate::device::ReadCounts;
use crate::stats::{ratio, skew};
use crate::workload::Setup;
use crate::Phase;

const MIB: f64 = (1u64 << 20) as f64;

/// Per-layer metrics: (name, unit). Counts and times are per query unless
/// the unit says otherwise; see `NOTES.md` for what each should move.
pub const PER_LAYER: [(&str, &str); 40] = [
    ("storage.read_calls", "count/query"),
    ("storage.read_mib", "MiB/query"),
    ("storage.pages_per_read", "pages"),
    ("storage.read_busy_s", "s/query"),
    ("storage.read_errors", "count"),
    ("storage.device_byte_skew", "max/mean"),
    ("storage.cache_hit_ratio", "ratio"),
    ("storage.cache_evictions", "count/query"),
    ("storage.shared_page_ratio", "ratio"),
    ("storage.flights_led", "count/query"),
    ("storage.max_in_flight", "count"),
    ("graph.generate_s", "s"),
    ("graph.write_s", "s"),
    ("graph.write_mib", "MiB"),
    ("graph.metadata_mib", "MiB"),
    ("core.engine_new_s", "s"),
    ("core.edge_maps", "count/query"),
    ("core.edge_map_s", "s/query"),
    ("core.edge_map_us_mean", "us"),
    ("core.non_compute_s", "s/query"),
    ("core.scatter_busy_s", "s/query"),
    ("core.io_wait_s", "s/query"),
    ("core.edges", "count/query"),
    ("core.ns_per_edge", "ns"),
    ("core.rss_growth_kib_per_query", "KiB"),
    ("binning.records", "count/query"),
    ("binning.gather_busy_s", "s/query"),
    ("binning.bin_skew", "max/mean"),
    ("binning.combine_ratio", "ratio"),
    ("algorithms.driver_s", "s/query"),
    ("algorithms.iterations_per_query", "count/query"),
    ("scaleout.cluster_build_s", "s"),
    ("scaleout.rounds", "count/query"),
    ("scaleout.exchange_mib", "MiB/query"),
    ("scaleout.exchange_messages", "count/query"),
    ("scaleout.shard_edge_skew", "max/mean"),
    ("tracing.untraced_queries_per_s", "1/s"),
    ("tracing.traced_queries_per_s", "1/s"),
    ("tracing.overhead_pct", "%"),
    ("tracing.spans", "count"),
];

/// Counters of every layer at one instant.
pub struct Snapshot {
    /// Per engine (per shard for the cluster).
    exec: Vec<ExecStats>,
    /// Per stripe set, per device: bytes read.
    device_bytes: Vec<Vec<u64>>,
    device_reads: u64,
    timed: ReadCounts,
    cache_hits: u64,
    cache_misses: u64,
    cache_evictions: u64,
    rounds: u64,
    exchange_bytes: u64,
    exchange_messages: u64,
}

impl Snapshot {
    pub fn take(setup: &Setup) -> Snapshot {
        let engines = setup.all_engines();
        let caches: Vec<_> = engines
            .iter()
            .filter_map(|e| e.page_cache())
            .map(|c| c.stats())
            .collect();
        let mut timed = ReadCounts::default();
        for d in &setup.timed {
            timed.add(d.counts());
        }
        let storages = setup.storages();
        let cluster = setup.cluster.as_ref().map(|c| c.stats());
        Snapshot {
            exec: engines.iter().map(|e| e.stats()).collect(),
            device_bytes: storages.iter().map(|s| s.read_bytes_per_device()).collect(),
            device_reads: storages
                .iter()
                .flat_map(|s| s.devices())
                .map(|d| d.stats().read_ops())
                .sum(),
            timed,
            cache_hits: caches.iter().map(|c| c.hits).sum(),
            cache_misses: caches.iter().map(|c| c.misses).sum(),
            cache_evictions: caches.iter().map(|c| c.evictions).sum(),
            rounds: cluster.as_ref().map_or(0, |c| c.rounds as u64),
            exchange_bytes: cluster.as_ref().map_or(0, |c| c.exchange_bytes),
            exchange_messages: cluster.as_ref().map_or(0, |c| c.exchange_messages),
        }
    }
}

/// Per-layer metrics of `phase`, from the counters before and after it.
pub fn metrics(
    setup: &Setup,
    before: &Snapshot,
    after: &Snapshot,
    phase: &Phase,
) -> Vec<(&'static str, f64)> {
    let n = phase.queries() as f64;
    let per_query = |x: f64| ratio(x, n);
    let engines = setup.all_engines();
    // Per-engine growth of one `ExecStats` counter over the phase.
    let delta = |f: fn(&ExecStats) -> u64| -> Vec<u64> {
        after
            .exec
            .iter()
            .zip(&before.exec)
            .map(|(a, b)| f(a) - f(b))
            .collect()
    };
    let sum = |f: fn(&ExecStats) -> u64| delta(f).iter().sum::<u64>() as f64;
    let secs = |ns: f64| ns / 1e9;

    let walls = delta(|s| s.wall_ns);
    // Edge-map wall time that blocks the driver: the sum over sequential
    // engines, or the slowest shard when shards run side by side.
    let wall_ns = if setup.cluster.is_some() {
        walls.iter().copied().max().unwrap_or(0) as f64
    } else {
        sum(|s| s.wall_ns)
    };
    // Edge-map time outside the busiest pool's per-worker busy time.
    let non_compute_ns: f64 = walls
        .iter()
        .zip(delta(|s| s.scatter_ns))
        .zip(delta(|s| s.gather_ns))
        .zip(&engines)
        .map(|(((&wall, scatter), gather), e)| {
            let o = e.options();
            let busiest =
                (scatter as f64 / o.num_scatter as f64).max(gather as f64 / o.num_gather as f64);
            wall as f64 - busiest
        })
        .sum();
    let device_pages = sum(|s| s.io_bytes) / PAGE_SIZE as f64;
    let shared_pages = sum(|s| s.shared_hit_pages);
    let read_calls = (after.device_reads - before.device_reads) as f64;
    let read_bytes: f64 = after.device_bytes.iter().flatten().sum::<u64>() as f64
        - before.device_bytes.iter().flatten().sum::<u64>() as f64;
    let device_skew = after
        .device_bytes
        .iter()
        .zip(&before.device_bytes)
        .map(|(a, b)| skew(&a.iter().zip(b).map(|(x, y)| x - y).collect::<Vec<_>>()))
        .fold(0.0, f64::max);
    let timed = after.timed.since(before.timed);
    let cache_lookups =
        (after.cache_hits + after.cache_misses - before.cache_hits - before.cache_misses) as f64;
    let edge_maps = sum(|s| s.iterations as u64);
    let rounds = (after.rounds - before.rounds) as f64;
    let writes: u64 = setup
        .storages()
        .iter()
        .flat_map(|s| s.devices())
        .map(|d| d.stats().write_bytes())
        .sum();
    let metadata: u64 = engines.iter().map(|e| e.graph().metadata_bytes()).sum();
    let latency_ns = phase.total_ms() * 1e6;
    let t = &setup.times;

    vec![
        ("storage.read_calls", per_query(read_calls)),
        ("storage.read_mib", per_query(read_bytes / MIB)),
        (
            "storage.pages_per_read",
            ratio(read_bytes / PAGE_SIZE as f64, read_calls),
        ),
        ("storage.read_busy_s", per_query(secs(timed.busy_ns as f64))),
        ("storage.read_errors", timed.errors as f64),
        ("storage.device_byte_skew", device_skew),
        (
            "storage.cache_hit_ratio",
            ratio((after.cache_hits - before.cache_hits) as f64, cache_lookups),
        ),
        (
            "storage.cache_evictions",
            per_query((after.cache_evictions - before.cache_evictions) as f64),
        ),
        (
            "storage.shared_page_ratio",
            ratio(shared_pages, shared_pages + device_pages),
        ),
        ("storage.flights_led", per_query(sum(|s| s.flights_led))),
        (
            "storage.max_in_flight",
            after
                .exec
                .iter()
                .map(|s| s.io_max_in_flight)
                .max()
                .unwrap_or(0) as f64,
        ),
        ("graph.generate_s", t.generate_s),
        ("graph.write_s", t.write_s),
        ("graph.write_mib", writes as f64 / MIB),
        ("graph.metadata_mib", metadata as f64 / MIB),
        ("core.engine_new_s", t.engine_new_s),
        ("core.edge_maps", per_query(edge_maps)),
        ("core.edge_map_s", per_query(secs(wall_ns))),
        (
            "core.edge_map_us_mean",
            ratio(sum(|s| s.wall_ns) / 1e3, edge_maps),
        ),
        ("core.non_compute_s", per_query(secs(non_compute_ns))),
        (
            "core.scatter_busy_s",
            per_query(secs(sum(|s| s.scatter_ns))),
        ),
        ("core.io_wait_s", per_query(secs(sum(|s| s.io_wait_ns)))),
        ("core.edges", per_query(sum(|s| s.edges_processed))),
        (
            "core.ns_per_edge",
            ratio(
                sum(|s| s.scatter_ns) + sum(|s| s.gather_ns),
                sum(|s| s.edges_processed),
            ),
        ),
        ("binning.records", per_query(sum(|s| s.records_produced))),
        (
            "binning.gather_busy_s",
            per_query(secs(sum(|s| s.gather_ns))),
        ),
        ("binning.bin_skew", skew(&phase.records_per_bin)),
        (
            "binning.combine_ratio",
            ratio(
                sum(|s| s.records_combined),
                sum(|s| s.records_combined) + sum(|s| s.records_produced),
            ),
        ),
        ("algorithms.driver_s", per_query(secs(latency_ns - wall_ns))),
        (
            "algorithms.iterations_per_query",
            per_query(if setup.cluster.is_some() {
                rounds
            } else {
                edge_maps
            }),
        ),
        ("scaleout.cluster_build_s", t.cluster_build_s),
        ("scaleout.rounds", per_query(rounds)),
        (
            "scaleout.exchange_mib",
            per_query((after.exchange_bytes - before.exchange_bytes) as f64 / MIB),
        ),
        (
            "scaleout.exchange_messages",
            per_query((after.exchange_messages - before.exchange_messages) as f64),
        ),
        (
            "scaleout.shard_edge_skew",
            if setup.cluster.is_some() {
                skew(&delta(|s| s.edges_processed))
            } else {
                0.0
            },
        ),
    ]
}
