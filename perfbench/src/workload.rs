//! The four workloads: seeded graph generation, set-up onto stripes, the
//! query schedule, the oracles and the answer checks.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use blaze_algorithms::{
    bfs, pagerank_delta, pagerank_delta_combined, reference, sharded_pagerank, wcc, ExecMode,
    PageRankConfig,
};
use blaze_core::{BlazeEngine, EngineOptions, VertexArray};
use blaze_graph::gen::{self, RmatConfig};
use blaze_graph::{Csr, DiskGraph};
use blaze_scaleout::Cluster;
use blaze_storage::{BlockDevice, FileDevice, StripedStorage};
use blaze_types::{Result, SplitMix64, VertexId};

use crate::device::{SpanLog, TimedDevice};

/// Stripes (devices) per graph.
const STRIPES: usize = 2;
/// Compute workers per engine: one scatter, one gather.
const COMPUTE_WORKERS: usize = 2;
/// Shards of the `sharded-pr` cluster.
const SHARDS: usize = 2;
/// Seeded BFS roots of `bfs-web`, cycled through in order.
const BFS_ROOTS: usize = 64;
/// PageRank iteration cap of the `tenant-mix` queries.
const TENANT_PR_ITERS: usize = 5;
/// Largest PageRank difference from the oracle that counts as correct.
const PR_TOLERANCE: f64 = 1e-6;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    PrRmat,
    BfsWeb,
    TenantMix,
    ShardedPr,
}

pub const WORKLOADS: [(&str, Kind); 4] = [
    ("pr-rmat", Kind::PrRmat),
    ("bfs-web", Kind::BfsWeb),
    ("tenant-mix", Kind::TenantMix),
    ("sharded-pr", Kind::ShardedPr),
];

impl Kind {
    pub fn from_name(name: &str) -> Option<Kind> {
        WORKLOADS.iter().find(|(n, _)| *n == name).map(|&(_, k)| k)
    }

    /// Closed-loop client threads.
    pub fn clients(self) -> usize {
        if self == Kind::TenantMix {
            2
        } else {
            1
        }
    }

    /// The query client `client` issues as its `i`-th.
    pub fn query(self, client: usize, i: usize) -> Query {
        match self {
            Kind::PrRmat => Query::PageRank,
            Kind::BfsWeb => Query::Bfs(i % BFS_ROOTS),
            Kind::TenantMix if (client + i).is_multiple_of(2) => Query::PageRankCombined,
            Kind::TenantMix => Query::Wcc,
            Kind::ShardedPr => Query::ShardedPageRank,
        }
    }

    /// One of each query the workload issues, run untimed before the timed
    /// phase so caches fill and lazy set-up finishes.
    pub fn warmup(self) -> Vec<Query> {
        match self {
            Kind::TenantMix => vec![Query::PageRankCombined, Query::Wcc],
            k => vec![k.query(0, 0)],
        }
    }

    fn generate(self, seed: u64) -> Csr {
        match self {
            // rmat27 shape at 1/1024 of paper scale.
            Kind::PrRmat | Kind::TenantMix | Kind::ShardedPr => {
                gen::rmat(&RmatConfig::new(17).edge_factor(16).seed(seed))
            }
            // sk2005 shape: crawl-order locality and a long diameter.
            Kind::BfsWeb => {
                let base = gen::rmat(&RmatConfig::new(16).edge_factor(38).seed(seed));
                gen::relabel_bfs_order(&gen::with_path_tail(&base, 192))
            }
        }
    }

    fn options(self, graph: &Csr) -> EngineOptions {
        let options = EngineOptions::default().with_compute_workers(COMPUTE_WORKERS, 0.5);
        match self {
            // Half of one direction's adjacency fits in each engine's cache.
            Kind::TenantMix => options
                .with_scan_sharing(true)
                .with_scan_share_lanes(2)
                .with_cache_bytes(graph.num_edges() as usize * 4 / 2),
            _ => options,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Query {
    PageRank,
    PageRankCombined,
    Wcc,
    /// BFS from the root with this index.
    Bfs(usize),
    ShardedPageRank,
}

impl Query {
    pub fn span_name(self) -> &'static str {
        match self {
            Query::PageRank => "query.pagerank_delta",
            Query::PageRankCombined => "query.pagerank_delta_combined",
            Query::Wcc => "query.wcc",
            Query::Bfs(_) => "query.bfs",
            Query::ShardedPageRank => "query.sharded_pagerank",
        }
    }
}

/// Wall time of each set-up step, summed over graphs.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub generate_s: f64,
    pub write_s: f64,
    pub engine_new_s: f64,
    pub cluster_build_s: f64,
}

/// Removes a set-up's graph files once everything using them is dropped.
struct DirGuard(PathBuf);

impl Drop for DirGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A workload's engines over its written graph. For `tenant-mix` the
/// second engine runs over the transpose.
pub struct Setup {
    pub kind: Kind,
    pub graph: Csr,
    pub engines: Vec<BlazeEngine>,
    pub cluster: Option<Cluster>,
    /// The traced run's timing wrappers, one per device.
    pub timed: Vec<Arc<TimedDevice>>,
    pub times: SetupTimes,
    // Declared last so the files outlive the engines reading them.
    _files: Option<DirGuard>,
}

fn timed<T>(
    log: Option<&SpanLog>,
    parent: u64,
    name: &'static str,
    f: impl FnOnce() -> T,
) -> (T, f64) {
    let start = Instant::now();
    let out = match log {
        Some(log) => log.time(parent, name, |_| f()),
        None => f(),
    };
    (out, start.elapsed().as_secs_f64())
}

impl Setup {
    /// Generates the graph, writes it to fresh stripes under `dir` and
    /// opens the engines. With `log`, every device is wrapped in a
    /// [`TimedDevice`] and each step is recorded as a span under `parent`.
    pub fn build(
        kind: Kind,
        seed: u64,
        dir: &Path,
        log: Option<&Arc<SpanLog>>,
        parent: u64,
    ) -> Result<Setup> {
        let span_log = log.map(|l| l.as_ref());
        let mut times = SetupTimes::default();
        let (graph, s) = timed(span_log, parent, "setup.generate", || kind.generate(seed));
        times.generate_s += s;
        let options = kind.options(&graph);
        let mut setup = Setup {
            kind,
            graph,
            engines: Vec::new(),
            cluster: None,
            timed: Vec::new(),
            times,
            _files: None,
        };
        if kind == Kind::ShardedPr {
            // Cluster::build writes its shards to in-memory devices only.
            let (cluster, s) = timed(span_log, parent, "setup.cluster_build", || {
                Cluster::build(&setup.graph, SHARDS, STRIPES, options.clone())
            });
            setup.times.cluster_build_s += s;
            setup.cluster = Some(cluster?);
            return Ok(setup);
        }
        std::fs::create_dir_all(dir)?;
        setup._files = Some(DirGuard(dir.to_path_buf()));
        let transpose = (kind == Kind::TenantMix).then(|| {
            let (t, s) = timed(span_log, parent, "setup.generate", || {
                setup.graph.transpose()
            });
            setup.times.generate_s += s;
            t
        });
        for (g, csr) in std::iter::once(&setup.graph)
            .chain(transpose.as_ref())
            .enumerate()
        {
            let mut devices: Vec<Arc<dyn BlockDevice>> = Vec::new();
            for d in 0..STRIPES {
                let file = FileDevice::create(dir.join(format!("g{g}.adj.{d}")))?;
                match log {
                    Some(log) => {
                        let dev = Arc::new(TimedDevice::new(file, log.clone()));
                        setup.timed.push(dev.clone());
                        devices.push(dev);
                    }
                    None => devices.push(Arc::new(file)),
                }
            }
            let storage = Arc::new(StripedStorage::new(devices)?);
            let (disk, s) = timed(span_log, parent, "setup.write", || {
                DiskGraph::create(csr, storage)
            });
            setup.times.write_s += s;
            let (engine, s) = timed(span_log, parent, "setup.engine_new", || {
                BlazeEngine::new(Arc::new(disk?), options.clone())
            });
            setup.times.engine_new_s += s;
            setup.engines.push(engine?);
        }
        Ok(setup)
    }

    /// Every stripe set the workload reads: one per engine, or one per shard.
    pub fn storages(&self) -> Vec<&Arc<StripedStorage>> {
        match &self.cluster {
            Some(c) => c
                .machines()
                .iter()
                .map(|m| m.engine.graph().storage())
                .collect(),
            None => self.engines.iter().map(|e| e.graph().storage()).collect(),
        }
    }

    /// Every engine: the workload's own, or the cluster's shard engines.
    pub fn all_engines(&self) -> Vec<&BlazeEngine> {
        match &self.cluster {
            Some(c) => c.machines().iter().map(|m| &m.engine).collect(),
            None => self.engines.iter().collect(),
        }
    }

    /// Bytes read from every device so far.
    pub fn device_read_bytes(&self) -> u64 {
        self.storages().iter().map(|s| s.total_read_bytes()).sum()
    }

    /// Runs `query`, then checks its answer against `oracle`. Returns when
    /// the query call started and ended (the check runs after it) and
    /// whether the answer was right.
    pub fn run(&self, query: Query, oracle: &Oracle) -> Result<(Instant, Instant, bool)> {
        let tenant_pr = PageRankConfig {
            max_iters: TENANT_PR_ITERS,
            ..PageRankConfig::default()
        };
        let engine = &self.engines.first();
        let start = Instant::now();
        let answer = match query {
            Query::PageRank => Answer::Ranks(pagerank_delta(
                engine.expect("single-engine workload"),
                PageRankConfig::default(),
                ExecMode::Binned,
            )?),
            Query::PageRankCombined => Answer::Ranks(pagerank_delta_combined(
                engine.expect("single-engine workload"),
                tenant_pr,
            )?),
            Query::Wcc => {
                Answer::Labels(wcc(&self.engines[0], &self.engines[1], ExecMode::Binned)?)
            }
            Query::Bfs(r) => Answer::Parents(bfs(
                engine.expect("single-engine workload"),
                oracle.roots[r],
                ExecMode::Binned,
            )?),
            Query::ShardedPageRank => Answer::Ranks(sharded_pagerank(
                self.cluster
                    .as_ref()
                    .expect("sharded-pr set-up builds a cluster"),
                PageRankConfig::default(),
            )?),
        };
        let end = Instant::now();
        let ok = match (answer, query) {
            (Answer::Ranks(r), _) => close(&r.to_vec(), &oracle.ranks),
            (Answer::Labels(l), _) => l.to_vec() == oracle.labels,
            (Answer::Parents(p), Query::Bfs(r)) => {
                bfs_tree_ok(&self.graph, oracle.roots[r], &p.to_vec(), &oracle.levels[r])
            }
            (Answer::Parents(_), _) => unreachable!("only BFS returns parents"),
        };
        Ok((start, end, ok))
    }
}

enum Answer {
    Ranks(VertexArray<f64>),
    Labels(VertexArray<u32>),
    Parents(VertexArray<i64>),
}

/// Reference answers, computed outside set-up and the timed phase.
#[derive(Default)]
pub struct Oracle {
    pub ranks: Vec<f64>,
    pub labels: Vec<u32>,
    pub roots: Vec<VertexId>,
    pub levels: Vec<Vec<i64>>,
}

impl Oracle {
    pub fn compute(kind: Kind, graph: &Csr, seed: u64) -> Oracle {
        let pr = PageRankConfig::default();
        let ranks = |iters| reference::pagerank_delta(graph, pr.damping, pr.epsilon, iters);
        match kind {
            Kind::PrRmat | Kind::ShardedPr => Oracle {
                ranks: ranks(pr.max_iters),
                ..Oracle::default()
            },
            Kind::TenantMix => Oracle {
                ranks: ranks(TENANT_PR_ITERS),
                labels: reference::wcc_labels(graph),
                ..Oracle::default()
            },
            Kind::BfsWeb => {
                let (roots, levels) = bfs_roots(graph, seed).into_iter().unzip();
                Oracle {
                    roots,
                    levels,
                    ..Oracle::default()
                }
            }
        }
    }
}

/// Seeded roots that reach at least half the graph, with their reference
/// levels. Every query then walks the main component and the path tail,
/// so the per-query work does not depend on how many roots a seed happens
/// to place in small components.
fn bfs_roots(graph: &Csr, seed: u64) -> Vec<(VertexId, Vec<i64>)> {
    let n = graph.num_vertices();
    let mut rng = SplitMix64::seed_from_u64(seed ^ 0xb1a2_e5ee_d0f0_0075);
    let mut roots = Vec::with_capacity(BFS_ROOTS);
    for _ in 0..BFS_ROOTS * 64 {
        let root = rng.below_usize(n) as VertexId;
        let levels = reference::bfs_levels(graph, root);
        if levels.iter().filter(|&&l| l >= 0).count() * 2 >= n {
            roots.push((root, levels));
        }
        if roots.len() == BFS_ROOTS {
            return roots;
        }
    }
    panic!("too few vertices reach half of the generated graph");
}

fn close(got: &[f64], want: &[f64]) -> bool {
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(a, b)| (a - b).abs() <= PR_TOLERANCE)
}

/// A BFS parent array is right when it reaches exactly the reference's
/// vertices and every non-root parent is one level up over a real edge.
pub fn bfs_tree_ok(graph: &Csr, root: VertexId, parents: &[i64], levels: &[i64]) -> bool {
    parents.len() == levels.len()
        && parents[root as usize] == root as i64
        && parents
            .iter()
            .zip(levels)
            .enumerate()
            .all(|(v, (&p, &level))| {
                if (p == -1) != (level == -1) {
                    return false;
                }
                if p == -1 || v == root as usize {
                    return true;
                }
                let Ok(p) = VertexId::try_from(p) else {
                    return false;
                };
                (p as usize) < levels.len()
                    && levels[p as usize] == level - 1
                    && graph.neighbors(p).binary_search(&(v as VertexId)).is_ok()
            })
}

#[cfg(test)]
mod tests {
    use super::*;
    use blaze_graph::GraphBuilder;

    #[test]
    fn bfs_check_rejects_wrong_trees() {
        // 0 -> 1 -> 3, 0 -> 2, 1 -> 2; 4 unreachable.
        let mut b = GraphBuilder::new(5);
        b.extend([(0, 1), (1, 3), (0, 2), (1, 2)]);
        let g = b.build();
        let levels = reference::bfs_levels(&g, 0);
        assert!(bfs_tree_ok(&g, 0, &[0, 0, 0, 1, -1], &levels));
        assert!(
            !bfs_tree_ok(&g, 0, &[0, 0, 1, 1, -1], &levels),
            "parent on the same level"
        );
        assert!(
            !bfs_tree_ok(&g, 0, &[0, 0, 0, 1, 0], &levels),
            "reached an unreachable vertex"
        );
        assert!(
            !bfs_tree_ok(&g, 0, &[0, 0, -1, 1, -1], &levels),
            "missed a reachable vertex"
        );
        assert!(
            !bfs_tree_ok(&g, 0, &[0, 0, 0, 2, -1], &levels),
            "parent over a missing edge"
        );
        assert!(
            !bfs_tree_ok(&g, 0, &[1, 0, 0, 1, -1], &levels),
            "root is its own parent"
        );
    }
}
