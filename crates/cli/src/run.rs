//! Engine and cluster construction from parsed CLI arguments.

use blaze_sync::Arc;
use std::path::{Path, PathBuf};

use blaze_binning::BinningConfig;
use blaze_core::{BlazeEngine, EngineOptions};
use blaze_graph::{DiskGraph, GraphBuilder};
use blaze_scaleout::Cluster;
use blaze_storage::{BlockDevice, DeviceProfile, FileDevice, SimDevice, StripedStorage};
use blaze_types::{BlazeError, Result};

use crate::args::CliArgs;

/// Resolves the `-device` flag to a simulation profile (`none` disables
/// the device model and runs on raw files).
fn profile_for(name: &str) -> Result<Option<DeviceProfile>> {
    Ok(match name {
        "optane" => Some(DeviceProfile::optane_p4800x()),
        "nand" => Some(DeviceProfile::nand_s3520()),
        "znand" => Some(DeviceProfile::znand_sz983()),
        "vnand" => Some(DeviceProfile::vnand_980pro()),
        "none" => None,
        other => {
            return Err(BlazeError::Config(format!(
                "unknown -device {other} (expected optane|nand|znand|vnand|none)"
            )))
        }
    })
}

/// Opens the stripe files into a device array, optionally wrapped in the
/// simulated-device model.
fn open_storage(adj: &[PathBuf], device: &str) -> Result<Arc<StripedStorage>> {
    let profile = profile_for(device)?;
    let devices: Vec<Arc<dyn BlockDevice>> = adj
        .iter()
        .map(|p| -> Result<Arc<dyn BlockDevice>> {
            let file = FileDevice::open(p)?;
            Ok(match &profile {
                Some(prof) => Arc::new(SimDevice::new(file, prof.clone())),
                None => Arc::new(file),
            })
        })
        .collect::<Result<_>>()?;
    Ok(Arc::new(StripedStorage::new(devices)?))
}

/// Resolves the binning/cache/worker flags into engine options.
/// `storage_bytes` feeds the bin-count heuristic when no explicit bin
/// space was given.
fn engine_options(args: &CliArgs, storage_bytes: u64) -> Result<EngineOptions> {
    let mut options = EngineOptions::default()
        .with_compute_workers(args.compute_workers.max(2), args.binning_ratio)
        .with_cache_bytes(args.cache_mb << 20)
        .with_queue_depth(args.queue_depth);
    if args.jobs > 1 && !args.no_share {
        // Concurrent identical queries scan the same pages; coalesce their
        // misses so N jobs cost ~1 job of device IO. One IO lane per job
        // lets every job's pump make independent progress.
        options = options
            .with_scan_sharing(true)
            .with_scan_share_lanes(args.jobs);
    }
    let binning = match (args.bin_space_mib, args.bin_count) {
        (0, None) => return Ok(options),
        (0, Some(count)) => BinningConfig::for_graph(storage_bytes).with_bin_count(count),
        (mib, None) => BinningConfig::for_space(mib << 20),
        (mib, Some(count)) => {
            BinningConfig::new(count, mib << 20, blaze_types::DEFAULT_STAGING_RECORDS)?
        }
    };
    Ok(options.with_binning(binning))
}

/// Builds an engine over one graph direction.
pub fn open_engine(args: &CliArgs, index: &Path, adj: &[PathBuf]) -> Result<BlazeEngine> {
    let storage = open_storage(adj, &args.device)?;
    let graph = Arc::new(DiskGraph::open(index, storage)?);
    if args.start_node as usize >= graph.num_vertices() {
        return Err(BlazeError::Config(format!(
            "-startNode {} is out of range (graph has {} vertices)",
            args.start_node,
            graph.num_vertices()
        )));
    }
    let options = engine_options(args, graph.storage_bytes())?;
    BlazeEngine::new(graph, options)
}

/// Builds a `-shards N` scale-out cluster over one graph direction: the
/// on-disk graph is read back, repartitioned by destination, and each
/// shard gets its own engine (over `adj.len()` simulated devices) plus its
/// own pool thread. The written physical layout carries over, so results
/// match the single-engine run on the same files.
pub fn open_cluster(args: &CliArgs, index: &Path, adj: &[PathBuf]) -> Result<Cluster> {
    let graph = DiskGraph::open_files(index, adj)?;
    let n = graph.num_vertices();
    if args.start_node as usize >= n {
        return Err(BlazeError::Config(format!(
            "-startNode {} is out of range (graph has {} vertices)",
            args.start_node, n
        )));
    }
    let options = engine_options(args, graph.storage_bytes())?;
    let mut b = GraphBuilder::new(n);
    for v in 0..n as u32 {
        for w in graph.read_neighbors(v)? {
            b.add_edge(v, w);
        }
    }
    Cluster::build_physical(
        &b.build(),
        graph.layout().clone(),
        args.shards,
        adj.len().max(1),
        options,
    )
}

/// Prints the post-run summary every binary emits.
pub fn print_run_summary(query: &str, engine: &BlazeEngine, wall: std::time::Duration) {
    let stats = engine.stats();
    let graph = engine.graph();
    println!("== {query} done ==");
    println!(
        "graph: {} vertices, {} edges",
        graph.num_vertices(),
        graph.num_edges()
    );
    println!(
        "iterations: {}, edges processed: {}, bin records: {}",
        stats.iterations, stats.edges_processed, stats.records_produced
    );
    println!(
        "io: {} bytes in {} requests",
        stats.io_bytes, stats.io_requests
    );
    if engine.options().queue_depth > 1 {
        println!(
            "io queue: depth {} requested, {} max in flight",
            engine.options().queue_depth,
            stats.io_max_in_flight
        );
    }
    if let Some(cache) = engine.page_cache() {
        println!(
            "page cache: {} MiB budget, {} hits, {} misses, {} evictions",
            cache.capacity_bytes() >> 20,
            stats.cache_hit_pages,
            stats.cache_miss_pages,
            stats.cache_evictions
        );
        if cache.hot_pages() > 0 {
            println!(
                "hot region: {} pages, {} hot hits, {} hot admits",
                cache.hot_pages(),
                stats.cache_hot_hit_pages,
                stats.cache_hot_admits
            );
        }
    }
    if engine.options().scan_sharing {
        println!(
            "shared: {} pages ({} bytes) served from other jobs' reads, {} flights led",
            stats.shared_hit_pages, stats.shared_bytes, stats.flights_led
        );
    }
    if stats.async_rounds > 0 {
        println!(
            "async: {} rounds, {} activations, {} dedup-skipped pushes",
            stats.async_rounds, stats.async_activations, stats.async_dedup_skipped
        );
    }
    if stats.scatter_ns > 0 || stats.gather_ns > 0 {
        // Per-stage compute profile: worker-summed busy time, so totals can
        // exceed wall time when several workers overlap.
        println!(
            "compute: scatter {:.3} s, gather {:.3} s, io wait {:.3} s, {} records combined",
            stats.scatter_ns as f64 / 1e9,
            stats.gather_ns as f64 / 1e9,
            stats.io_wait_ns as f64 / 1e9,
            stats.records_combined
        );
    }
    let busy_ns: u64 = graph
        .storage()
        .devices()
        .iter()
        .map(|d| d.stats().busy_ns())
        .sum();
    if busy_ns > 0 {
        println!(
            "modeled device time: {:.3} s ({:.2} GB/s average)",
            busy_ns as f64 / 1e9,
            stats.io_bytes as f64 / busy_ns as f64
        );
    }
    println!("wall time: {:.3} s", wall.as_secs_f64());
}

/// Prints the post-run summary for a `-shards N` cluster run: the
/// `shards:` line carries per-shard device bytes and the measured
/// exchange traffic.
pub fn print_cluster_summary(query: &str, cluster: &Cluster, wall: std::time::Duration) {
    let stats = cluster.stats();
    println!("== {query} done ==");
    println!(
        "graph: {} vertices over {} shards",
        cluster.num_vertices(),
        cluster.num_machines()
    );
    let device_bytes: Vec<String> = stats
        .per_shard
        .iter()
        .map(|s| s.io_bytes.to_string())
        .collect();
    println!(
        "shards: {} device bytes per shard [{}], exchange {} wire bytes + {} value bytes \
         in {} messages over {} rounds",
        cluster.num_machines(),
        device_bytes.join(" "),
        stats.exchange_bytes,
        stats.exchange_value_bytes,
        stats.exchange_messages,
        stats.rounds
    );
    println!("io: {} bytes across all shards", stats.io_bytes);
    println!("wall time: {:.3} s", wall.as_secs_f64());
}

#[cfg(test)]
mod tests {
    use super::*;
    use blaze_graph::disk::save_files;
    use blaze_graph::gen::{rmat, RmatConfig};

    #[test]
    fn opens_engine_from_files_with_and_without_sim() {
        let g = rmat(&RmatConfig::new(7));
        let dir = tempfile::tempdir().unwrap();
        let (index, adj) = save_files(&g, dir.path(), "t.gr", 2).unwrap();
        for device in ["optane", "nand", "none"] {
            let args = CliArgs {
                device: device.into(),
                ..Default::default()
            };
            let engine = open_engine(&args, &index, &adj).unwrap();
            assert_eq!(engine.num_vertices(), g.num_vertices());
        }
    }

    #[test]
    fn custom_binning_flags_apply() {
        let g = rmat(&RmatConfig::new(6));
        let dir = tempfile::tempdir().unwrap();
        let (index, adj) = save_files(&g, dir.path(), "t.gr", 1).unwrap();
        let args = CliArgs {
            bin_space_mib: 2,
            bin_count: Some(64),
            ..Default::default()
        };
        let engine = open_engine(&args, &index, &adj).unwrap();
        assert_eq!(engine.binning().bin_count, 64);
        assert_eq!(engine.binning().bin_space_bytes, 2 << 20);
    }

    #[test]
    fn explicit_default_bin_count_is_honored() {
        // The derived default for this small graph is far below 1024, so
        // an explicit -binCount 1024 must not be mistaken for "unset".
        let g = rmat(&RmatConfig::new(6));
        let dir = tempfile::tempdir().unwrap();
        let (index, adj) = save_files(&g, dir.path(), "t.gr", 1).unwrap();
        let derived = open_engine(&CliArgs::default(), &index, &adj).unwrap();
        assert!(derived.binning().bin_count < 1024);
        let args = crate::args::parse(&[
            "-binCount".to_string(),
            "1024".to_string(),
            index.display().to_string(),
            adj[0].display().to_string(),
        ])
        .unwrap();
        let engine = open_engine(&args, &index, &adj).unwrap();
        assert_eq!(engine.binning().bin_count, 1024);
    }

    #[test]
    fn cache_flag_enables_engine_cache() {
        let g = rmat(&RmatConfig::new(6));
        let dir = tempfile::tempdir().unwrap();
        let (index, adj) = save_files(&g, dir.path(), "t.gr", 1).unwrap();
        let args = CliArgs {
            cache_mb: 8,
            ..Default::default()
        };
        let engine = open_engine(&args, &index, &adj).unwrap();
        let cache = engine.page_cache().expect("-cache-mb 8 enables the cache");
        assert_eq!(cache.capacity_bytes(), 8 << 20);
        let no_cache = open_engine(&CliArgs::default(), &index, &adj).unwrap();
        assert!(no_cache.page_cache().is_none(), "default stays uncached");
    }

    #[test]
    fn queue_depth_flag_selects_threaded_backend() {
        use blaze_storage::IoBackendKind;
        let g = rmat(&RmatConfig::new(6));
        let dir = tempfile::tempdir().unwrap();
        let (index, adj) = save_files(&g, dir.path(), "t.gr", 2).unwrap();
        let args = CliArgs {
            queue_depth: 16,
            ..Default::default()
        };
        let engine = open_engine(&args, &index, &adj).unwrap();
        assert_eq!(engine.options().queue_depth, 16);
        assert_eq!(engine.options().io_backend, IoBackendKind::Threaded);
        assert_eq!(engine.io_backend().queue_depth(), 16);
        let default = open_engine(&CliArgs::default(), &index, &adj).unwrap();
        assert_eq!(default.options().io_backend, IoBackendKind::Sync);
        assert_eq!(default.io_backend().queue_depth(), 1);
    }

    #[test]
    fn stats_carry_per_stage_compute_timings() {
        use blaze_frontier::VertexSubset;
        let g = rmat(&RmatConfig::new(8));
        let dir = tempfile::tempdir().unwrap();
        let (index, adj) = save_files(&g, dir.path(), "t.gr", 1).unwrap();
        let engine = open_engine(&CliArgs::default(), &index, &adj).unwrap();
        let frontier = VertexSubset::full(engine.num_vertices());
        engine
            .edge_map(&frontier, |s, _d| s, |_d, _v: u32| false, |_| true, false)
            .unwrap();
        let stats = engine.stats();
        assert!(stats.scatter_ns > 0, "scatter time must be recorded");
        assert!(stats.gather_ns > 0, "gather time must be recorded");
        assert_eq!(stats.records_combined, 0, "uncombined run combines nothing");
    }

    #[test]
    fn jobs_flag_enables_scan_sharing_and_no_share_disables_it() {
        let g = rmat(&RmatConfig::new(6));
        let dir = tempfile::tempdir().unwrap();
        let (index, adj) = save_files(&g, dir.path(), "t.gr", 1).unwrap();
        let shared = open_engine(
            &CliArgs {
                jobs: 4,
                ..Default::default()
            },
            &index,
            &adj,
        )
        .unwrap();
        assert!(shared.options().scan_sharing);
        assert_eq!(shared.options().scan_share_lanes, 4);
        for args in [
            CliArgs {
                jobs: 4,
                no_share: true,
                ..Default::default()
            },
            CliArgs::default(),
        ] {
            let engine = open_engine(&args, &index, &adj).unwrap();
            assert!(!engine.options().scan_sharing);
        }
    }

    #[test]
    fn unknown_device_is_rejected() {
        let g = rmat(&RmatConfig::new(6));
        let dir = tempfile::tempdir().unwrap();
        let (index, adj) = save_files(&g, dir.path(), "t.gr", 1).unwrap();
        let args = CliArgs {
            device: "floppy".into(),
            ..Default::default()
        };
        assert!(open_engine(&args, &index, &adj).is_err());
    }
}
