//! Artifact-compatible argument parsing (hand-rolled; single-dash long
//! flags like the original binaries: `-computeWorkers 16 -startNode 0`).

use std::path::PathBuf;

use blaze_algorithms::ExecMode;
use blaze_types::{BlazeError, Result};

/// Parsed command line shared by all query binaries.
#[derive(Debug, Clone)]
pub struct CliArgs {
    /// Compute threads, split evenly between scatter and gather by
    /// `binning_ratio` (`-computeWorkers`, default 2).
    pub compute_workers: usize,
    /// Root vertex for traversals (`-startNode`, default 0).
    pub start_node: u32,
    /// Total bin space in MiB (`-binSpace`; 0 = paper heuristic).
    pub bin_space_mib: usize,
    /// Scatter fraction of compute workers (`-binningRatio`, default 0.5).
    pub binning_ratio: f64,
    /// Number of bins (`-binCount`; default derived from the bin space, at
    /// most 1024). An explicit value is always honored.
    pub bin_count: Option<usize>,
    /// Device profile to simulate (`-device optane|nand|znand|vnand|none`).
    pub device: String,
    /// Maximum PageRank iterations (`-maxIters`, default 100).
    pub max_iters: usize,
    /// Concurrent queries submitted to one engine (`-jobs`, default 1).
    /// Traversal binaries run this many copies of the query from separate
    /// threads against the shared persistent runtime.
    pub jobs: usize,
    /// Clock page-cache budget in MiB (`-cache-mb`, default 0 = no cache,
    /// matching the published system).
    pub cache_mb: usize,
    /// Per-device IO queue depth (`-qd`, default 1 = synchronous backend,
    /// matching the published engine; deeper windows use the threaded
    /// backend with out-of-order completions).
    pub queue_depth: usize,
    /// Enable scatter-side record combining (`-combine`; PageRank only —
    /// same-destination delta records merge in the staging window before
    /// reaching the bins).
    pub combine: bool,
    /// Execution mode (`-mode binned|sync|async`, default binned). Async
    /// is accepted only by the monotone queries.
    pub mode: ExecMode,
    /// Core threshold for the k-core query (`-k`, default 2).
    pub k: u32,
    /// Disable cross-job scan sharing (`-no-share`). By default, running
    /// with `-jobs` > 1 coalesces concurrent jobs' overlapping device
    /// reads through the flight table (one read, N consumers); this flag
    /// makes every job pay its own device IO, for A/B measurement.
    pub no_share: bool,
    /// Scale-out shards (`-shards`, default 1 = single engine). BFS,
    /// PageRank, and WCC accept >1 and run the graph as a concurrent
    /// destination-partitioned cluster.
    pub shards: usize,
    /// The `.gr.index` file (first positional argument).
    pub index: PathBuf,
    /// The `.gr.adj.<i>` stripe files (remaining positional arguments).
    pub adj: Vec<PathBuf>,
    /// Transpose index (`-inIndexFilename`), for WCC/BC.
    pub in_index: Option<PathBuf>,
    /// Transpose stripe files (`-inAdjFilenames`, comma-separated).
    pub in_adj: Vec<PathBuf>,
}

impl Default for CliArgs {
    fn default() -> Self {
        Self {
            compute_workers: 2,
            start_node: 0,
            bin_space_mib: 0,
            binning_ratio: 0.5,
            bin_count: None,
            device: "optane".to_string(),
            max_iters: 100,
            jobs: 1,
            cache_mb: 0,
            queue_depth: 1,
            combine: false,
            mode: ExecMode::Binned,
            k: 2,
            no_share: false,
            shards: 1,
            index: PathBuf::new(),
            adj: Vec::new(),
            in_index: None,
            in_adj: Vec::new(),
        }
    }
}

/// Uniform numeric-flag parsing: every count-valued flag reports a missing
/// value, a malformed value, and an out-of-range value with the same
/// message shapes (`flag X needs a value`, `X: <value> is not a
/// non-negative integer`, `X must be >= N`).
fn parse_count(flag: &str, value: Option<&String>, min: usize) -> Result<usize> {
    let v = value.ok_or_else(|| BlazeError::Config(format!("flag {flag} needs a value")))?;
    let n: usize = v
        .parse()
        .map_err(|_| BlazeError::Config(format!("{flag}: {v:?} is not a non-negative integer")))?;
    if n < min {
        return Err(BlazeError::Config(format!("{flag} must be >= {min}")));
    }
    Ok(n)
}

/// Parses an artifact-style argument list (without the program name).
pub fn parse(args: &[String]) -> Result<CliArgs> {
    let mut out = CliArgs::default();
    let mut positional: Vec<PathBuf> = Vec::new();
    let mut once = crate::toolargs::FlagOnce::new();
    let mut it = args.iter();
    let missing = |flag: &str| BlazeError::Config(format!("flag {flag} needs a value"));
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "-computeWorkers" => {
                out.compute_workers = it
                    .next()
                    .ok_or_else(|| missing("-computeWorkers"))?
                    .parse()
                    .map_err(|e| BlazeError::Config(format!("-computeWorkers: {e}")))?;
            }
            "-startNode" => {
                out.start_node = it
                    .next()
                    .ok_or_else(|| missing("-startNode"))?
                    .parse()
                    .map_err(|e| BlazeError::Config(format!("-startNode: {e}")))?;
            }
            "-binSpace" => {
                out.bin_space_mib = it
                    .next()
                    .ok_or_else(|| missing("-binSpace"))?
                    .parse()
                    .map_err(|e| BlazeError::Config(format!("-binSpace: {e}")))?;
            }
            "-binningRatio" => {
                out.binning_ratio = it
                    .next()
                    .ok_or_else(|| missing("-binningRatio"))?
                    .parse()
                    .map_err(|e| BlazeError::Config(format!("-binningRatio: {e}")))?;
            }
            "-binCount" => {
                out.bin_count = Some(
                    it.next()
                        .ok_or_else(|| missing("-binCount"))?
                        .parse()
                        .map_err(|e| BlazeError::Config(format!("-binCount: {e}")))?,
                );
            }
            "-maxIters" => {
                out.max_iters = it
                    .next()
                    .ok_or_else(|| missing("-maxIters"))?
                    .parse()
                    .map_err(|e| BlazeError::Config(format!("-maxIters: {e}")))?;
            }
            "-jobs" => {
                out.jobs = parse_count("-jobs", it.next(), 1)?;
            }
            "-cache-mb" => {
                out.cache_mb = parse_count("-cache-mb", it.next(), 0)?;
            }
            "-qd" => {
                out.queue_depth = parse_count("-qd", it.next(), 1)?;
            }
            "-k" => {
                out.k = parse_count("-k", it.next(), 1)? as u32;
            }
            "-shards" => {
                // Contradictory shard counts would silently change what
                // "per-shard" stats mean; reject repeats like the dataset
                // tools do.
                once.check("-shards").map_err(BlazeError::Config)?;
                out.shards = parse_count("-shards", it.next(), 1)?;
            }
            "-combine" => {
                out.combine = true;
            }
            "-no-share" => {
                // A repeat means a mangled command line (probably meant to
                // toggle something else); reject like `-shards` does.
                once.check("-no-share").map_err(BlazeError::Config)?;
                out.no_share = true;
            }
            "-mode" => {
                let v = it.next().ok_or_else(|| missing("-mode"))?;
                out.mode = ExecMode::parse(v).ok_or_else(|| {
                    BlazeError::Config(format!("unknown -mode {v} (expected binned|sync|async)"))
                })?;
            }
            "-device" => {
                out.device = it.next().ok_or_else(|| missing("-device"))?.clone();
            }
            "-inIndexFilename" => {
                out.in_index = Some(PathBuf::from(
                    it.next().ok_or_else(|| missing("-inIndexFilename"))?,
                ));
            }
            "-inAdjFilenames" => {
                let v = it.next().ok_or_else(|| missing("-inAdjFilenames"))?;
                out.in_adj = v.split(',').map(PathBuf::from).collect();
            }
            flag if flag.starts_with('-') => {
                return Err(BlazeError::Config(format!("unknown flag {flag}")));
            }
            path => positional.push(PathBuf::from(path)),
        }
    }
    if positional.is_empty() {
        return Err(BlazeError::Config(
            "usage: <query> [flags] <graph.gr.index> <graph.gr.adj.0> [more stripes...]".into(),
        ));
    }
    out.index = positional.remove(0);
    out.adj = positional;
    if out.adj.is_empty() {
        return Err(BlazeError::Config(
            "at least one .gr.adj stripe file is required".into(),
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_artifact_example() {
        // From the artifact appendix: bfs -computeWorkers 16 -startNode 0 ...
        let a = parse(&args(
            "-computeWorkers 16 -startNode 0 /mnt/nvme/rmat27.gr.index /mnt/nvme/rmat27.gr.adj.0",
        ))
        .unwrap();
        assert_eq!(a.compute_workers, 16);
        assert_eq!(a.start_node, 0);
        assert_eq!(a.index.to_str().unwrap(), "/mnt/nvme/rmat27.gr.index");
        assert_eq!(a.adj.len(), 1);
    }

    #[test]
    fn parses_transpose_flags() {
        let a = parse(&args(
            "-computeWorkers 16 g.gr.index g.gr.adj.0 -inIndexFilename g.tgr.index \
             -inAdjFilenames g.tgr.adj.0,g.tgr.adj.1",
        ))
        .unwrap();
        assert!(a.in_index.is_some());
        assert_eq!(a.in_adj.len(), 2);
    }

    #[test]
    fn parses_binning_flags() {
        let a = parse(&args(
            "-binSpace 256 -binningRatio 0.5 -binCount 1024 g.gr.index g.gr.adj.0",
        ))
        .unwrap();
        assert_eq!(a.bin_space_mib, 256);
        assert_eq!(a.bin_count, Some(1024));
        assert!((a.binning_ratio - 0.5).abs() < 1e-12);
    }

    #[test]
    fn parses_jobs_flag() {
        let a = parse(&args("-jobs 4 g.gr.index g.gr.adj.0")).unwrap();
        assert_eq!(a.jobs, 4);
        assert_eq!(parse(&args("g.gr.index g.gr.adj.0")).unwrap().jobs, 1);
        assert!(parse(&args("-jobs 0 g.gr.index g.gr.adj.0")).is_err());
    }

    #[test]
    fn parses_cache_flag() {
        let a = parse(&args("-cache-mb 64 g.gr.index g.gr.adj.0")).unwrap();
        assert_eq!(a.cache_mb, 64);
        assert_eq!(parse(&args("g.gr.index g.gr.adj.0")).unwrap().cache_mb, 0);
        assert!(parse(&args("-cache-mb x g.gr.index g.gr.adj.0")).is_err());
        assert!(parse(&args("-cache-mb")).is_err());
    }

    #[test]
    fn parses_queue_depth_flag() {
        let a = parse(&args("-qd 32 g.gr.index g.gr.adj.0")).unwrap();
        assert_eq!(a.queue_depth, 32);
        assert_eq!(
            parse(&args("g.gr.index g.gr.adj.0")).unwrap().queue_depth,
            1
        );
        assert!(parse(&args("-qd 0 g.gr.index g.gr.adj.0")).is_err());
        assert!(parse(&args("-qd x g.gr.index g.gr.adj.0")).is_err());
        assert!(parse(&args("-qd")).is_err());
    }

    #[test]
    fn parses_combine_flag() {
        let a = parse(&args("-combine g.gr.index g.gr.adj.0")).unwrap();
        assert!(a.combine);
        assert!(!parse(&args("g.gr.index g.gr.adj.0")).unwrap().combine);
    }

    #[test]
    fn parses_mode_flag() {
        let a = parse(&args("-mode async g.gr.index g.gr.adj.0")).unwrap();
        assert_eq!(a.mode, ExecMode::Async);
        let a = parse(&args("-mode sync g.gr.index g.gr.adj.0")).unwrap();
        assert_eq!(a.mode, ExecMode::Sync);
        let a = parse(&args("g.gr.index g.gr.adj.0")).unwrap();
        assert_eq!(a.mode, ExecMode::Binned);
        let err = parse(&args("-mode turbo g.gr.index g.gr.adj.0")).unwrap_err();
        assert!(
            err.to_string().contains("expected binned|sync|async"),
            "{err}"
        );
        assert!(parse(&args("-mode")).is_err());
    }

    #[test]
    fn parses_shards_flag() {
        let a = parse(&args("-shards 4 g.gr.index g.gr.adj.0")).unwrap();
        assert_eq!(a.shards, 4);
        assert_eq!(parse(&args("g.gr.index g.gr.adj.0")).unwrap().shards, 1);
        assert!(parse(&args("-shards 0 g.gr.index g.gr.adj.0")).is_err());
        assert!(parse(&args("-shards x g.gr.index g.gr.adj.0")).is_err());
        assert!(parse(&args("-shards")).is_err());
    }

    /// `-shards` shares the dataset tools' duplicate rejection (and its
    /// diagnostic shape): two values mean a mangled command line, even if
    /// they agree.
    #[test]
    fn rejects_duplicate_shards_flag() {
        for dup in [
            "-shards 2 -shards 4 g.gr.index g.gr.adj.0",
            "-shards 2 -shards 2 g.gr.index g.gr.adj.0",
        ] {
            let err = parse(&args(dup)).unwrap_err().to_string();
            assert!(
                err.contains("duplicate flag -shards (each may be given once)"),
                "input {dup:?} gave {err:?}"
            );
        }
    }

    #[test]
    fn parses_no_share_flag() {
        let a = parse(&args("-no-share g.gr.index g.gr.adj.0")).unwrap();
        assert!(a.no_share);
        assert!(!parse(&args("g.gr.index g.gr.adj.0")).unwrap().no_share);
    }

    /// `-no-share` shares the `FlagOnce` duplicate rejection and its
    /// exact diagnostic shape.
    #[test]
    fn rejects_duplicate_no_share_flag() {
        let err = parse(&args("-no-share -no-share g.gr.index g.gr.adj.0"))
            .unwrap_err()
            .to_string();
        assert!(
            err.contains("duplicate flag -no-share (each may be given once)"),
            "{err:?}"
        );
    }

    #[test]
    fn parses_k_flag() {
        let a = parse(&args("-k 4 g.gr.index g.gr.adj.0")).unwrap();
        assert_eq!(a.k, 4);
        assert_eq!(parse(&args("g.gr.index g.gr.adj.0")).unwrap().k, 2);
        assert!(parse(&args("-k 0 g.gr.index g.gr.adj.0")).is_err());
    }

    /// Satellite contract: `-jobs`, `-qd`, and `-cache-mb` all go through
    /// one parse helper, so their error messages share one shape for each
    /// failure class instead of drifting per flag.
    #[test]
    fn numeric_flags_report_uniform_errors() {
        let msg = |input: &str| parse(&args(input)).unwrap_err().to_string();
        // Missing value: "flag <f> needs a value".
        for flag in ["-jobs", "-qd", "-cache-mb"] {
            assert_eq!(
                msg(flag),
                format!("configuration error: flag {flag} needs a value")
            );
        }
        // Malformed value: "<f>: <v> is not a non-negative integer".
        for flag in ["-jobs", "-qd", "-cache-mb"] {
            assert_eq!(
                msg(&format!("{flag} x g.gr.index g.gr.adj.0")),
                format!("configuration error: {flag}: \"x\" is not a non-negative integer")
            );
            assert_eq!(
                msg(&format!("{flag} -3 g.gr.index g.gr.adj.0")),
                format!("configuration error: {flag}: \"-3\" is not a non-negative integer")
            );
        }
        // Below-minimum value: "<f> must be >= <min>"; zero stays legal
        // for -cache-mb (0 = cache disabled) and illegal for the rest.
        for flag in ["-jobs", "-qd"] {
            assert_eq!(
                msg(&format!("{flag} 0 g.gr.index g.gr.adj.0")),
                format!("configuration error: {flag} must be >= 1")
            );
        }
        let a = parse(&args("-cache-mb 0 g.gr.index g.gr.adj.0")).unwrap();
        assert_eq!(a.cache_mb, 0);
    }

    #[test]
    fn rejects_unknown_flags_and_missing_files() {
        assert!(parse(&args("-bogus 1 g.gr.index g.gr.adj.0")).is_err());
        assert!(parse(&args("-computeWorkers 4")).is_err());
        assert!(parse(&args("g.gr.index")).is_err());
        assert!(parse(&args("-computeWorkers")).is_err());
    }
}
