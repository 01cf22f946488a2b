//! Graphene-like engine: 2-D topology-aware partitioning over a disk array
//! (Sections II-D, III-B).
//!
//! The edge grid is cut into `grid × grid` blocks whose row and column
//! boundaries follow out-/in-degree mass, aiming (as Graphene does) for
//! partitions with equal edge counts. Partitions are placed whole on disks,
//! each disk receiving the same number of partitions. Under selective
//! scheduling — reading only the edges of frontier vertices — the bytes
//! pulled from each disk diverge on power-law graphs, which is exactly the
//! skewed-IO pathology of Figure 3.

use blaze_sync::Arc;

use blaze_sync::Mutex;

use blaze_binning::BinValue;
use blaze_core::edge_map::unsupported_mode;
use blaze_core::{EdgeMap, EdgeMapMode, GraphEngine};
use blaze_frontier::VertexSubset;
use blaze_graph::{Csr, VertexPermutation};
use blaze_storage::request::merge_pages_with_window;
use blaze_storage::{BlockDevice, MemDevice};
use blaze_types::{BlazeError, IterationTrace, Result, VertexId, EDGES_PER_PAGE, PAGE_SIZE};

use crate::serial_vertex_map;
use crate::stats_util::fill_io_trace;

/// Graphene configuration.
#[derive(Debug, Clone)]
pub struct GrapheneOptions {
    /// Number of disks in the array (8 in the paper's Figure 3 setup).
    pub num_disks: usize,
    /// Grid dimension: `grid × grid` partitions.
    pub grid: usize,
    /// Pages merged per IO request. Graphene favors larger requests than
    /// Blaze and bridges small gaps; we model the merge window only.
    pub merge_window: usize,
}

impl Default for GrapheneOptions {
    fn default() -> Self {
        Self {
            num_disks: 8,
            grid: 8,
            merge_window: 8,
        }
    }
}

/// One 2-D partition: the edges `(s, d)` with `s` in `rows` and `d` in the
/// partition's column range, stored contiguously on one disk.
struct Partition {
    device: usize,
    base_page: u64,
    rows: std::ops::Range<VertexId>,
    /// Local edge offsets per row (length `rows.len() + 1`).
    offsets: Vec<u64>,
}

impl Partition {
    fn num_edges(&self) -> u64 {
        *self.offsets.last().unwrap_or(&0)
    }

    fn local_degree(&self, v: VertexId) -> u64 {
        let i = (v - self.rows.start) as usize;
        self.offsets[i + 1] - self.offsets[i]
    }

    fn local_offset(&self, v: VertexId) -> u64 {
        self.offsets[(v - self.rows.start) as usize]
    }
}

/// The Graphene-like baseline engine.
pub struct GrapheneEngine {
    num_vertices: usize,
    /// Always the identity: Graphene partitions the graph as given.
    layout: VertexPermutation,
    /// Out-degree per vertex over the whole edge grid.
    out_degrees: Vec<u32>,
    partitions: Vec<Partition>,
    devices: Vec<Arc<MemDevice>>,
    options: GrapheneOptions,
    traces: Mutex<Vec<IterationTrace>>,
}

/// Splits `0..n` into `parts` ranges of approximately equal `mass`.
fn mass_splits(mass: &[u64], parts: usize) -> Vec<VertexId> {
    let total: u64 = mass.iter().sum();
    let mut splits = Vec::with_capacity(parts + 1);
    splits.push(0 as VertexId);
    let mut acc = 0u64;
    let mut next_target = 1u64;
    for (v, &m) in mass.iter().enumerate() {
        acc += m;
        while splits.len() < parts && acc * parts as u64 >= next_target * total.max(1) {
            splits.push((v + 1) as VertexId);
            next_target += 1;
        }
    }
    while splits.len() < parts {
        splits.push(mass.len() as VertexId);
    }
    splits.push(mass.len() as VertexId);
    splits
}

impl GrapheneEngine {
    /// Builds the partitioned representation of `g` across fresh in-memory
    /// disks.
    pub fn new(g: &Csr, options: GrapheneOptions) -> Result<Self> {
        let n = g.num_vertices();
        let p = options.grid;
        let out_mass: Vec<u64> = (0..n as VertexId).map(|v| g.degree(v) as u64).collect();
        let t = g.transpose();
        let in_mass: Vec<u64> = (0..n as VertexId).map(|v| t.degree(v) as u64).collect();
        let row_splits = mass_splits(&out_mass, p);
        let col_splits = mass_splits(&in_mass, p);

        let devices: Vec<Arc<MemDevice>> = (0..options.num_disks)
            .map(|_| Arc::new(MemDevice::new()))
            .collect();
        let mut device_cursor = vec![0u64; options.num_disks];
        let mut partitions = Vec::with_capacity(p * p);

        for i in 0..p {
            for j in 0..p {
                let rows = row_splits[i]..row_splits[i + 1];
                let cols = col_splits[j]..col_splits[j + 1];
                // Graphene's topology-aware placement: consecutive
                // partitions group onto the same disk (each disk gets the
                // same number of partitions and, by the equal-mass splits,
                // the same number of edges). With grid == num_disks this
                // puts one whole row strip per disk — balanced statically,
                // but selective scheduling concentrates IO on the disks
                // whose row ranges hold the current frontier.
                let device = (i * p + j) * options.num_disks / (p * p);
                let mut offsets = Vec::with_capacity(rows.len() + 1);
                offsets.push(0u64);
                let mut stream: Vec<VertexId> = Vec::new();
                for v in rows.clone() {
                    for &d in g.neighbors(v) {
                        if cols.contains(&d) {
                            stream.push(d);
                        }
                    }
                    offsets.push(stream.len() as u64);
                }
                let base_page = device_cursor[device];
                let num_pages = stream.len().div_ceil(EDGES_PER_PAGE) as u64;
                let mut page = vec![0u8; PAGE_SIZE];
                for pg in 0..num_pages {
                    let start = pg as usize * EDGES_PER_PAGE;
                    let end = (start + EDGES_PER_PAGE).min(stream.len());
                    page.fill(0);
                    for (k, &d) in stream[start..end].iter().enumerate() {
                        page[k * 4..k * 4 + 4].copy_from_slice(&d.to_le_bytes());
                    }
                    devices[device].write_at((base_page + pg) * PAGE_SIZE as u64, &page)?;
                }
                device_cursor[device] += num_pages;
                partitions.push(Partition {
                    device,
                    base_page,
                    rows,
                    offsets,
                });
            }
        }
        // Placement written; clear construction-time write stats.
        for d in &devices {
            d.stats().reset();
        }
        Ok(Self {
            num_vertices: n,
            layout: VertexPermutation::identity(n),
            out_degrees: (0..n as VertexId).map(|v| g.degree(v)).collect(),
            partitions,
            devices,
            options,
            traces: Mutex::new(Vec::new()),
        })
    }

    /// Takes (and clears) the recorded per-iteration traces.
    pub fn take_traces(&self) -> Vec<IterationTrace> {
        std::mem::take(&mut self.traces.lock())
    }

    /// Edge count of the fullest and emptiest partitions — the balance the
    /// 2-D scheme optimizes for.
    pub fn partition_edge_range(&self) -> (u64, u64) {
        let counts: Vec<u64> = self.partitions.iter().map(Partition::num_edges).collect();
        (
            counts.iter().max().copied().unwrap_or(0),
            counts.iter().min().copied().unwrap_or(0),
        )
    }

    /// Total edges per disk (the quantity Graphene balances statically).
    pub fn edges_per_disk(&self) -> Vec<u64> {
        let mut per = vec![0u64; self.options.num_disks];
        for p in &self.partitions {
            per[p.device] += p.num_edges();
        }
        per
    }
}

impl GraphEngine for GrapheneEngine {
    fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    fn layout(&self) -> &VertexPermutation {
        &self.layout
    }

    fn out_degree(&self, v: VertexId) -> u32 {
        self.out_degrees[v as usize]
    }

    fn vertex_map<F>(&self, frontier: &VertexSubset, f: F) -> VertexSubset
    where
        F: Fn(VertexId) -> bool + Sync,
    {
        serial_vertex_map(&self.traces, frontier, f)
    }

    /// Runs binned and sync specs alike: one thread applies every record,
    /// so either kind of `gather` is safe (and each record is counted as
    /// one atomic operation, as Graphene performs it). `combine` is
    /// ignored — Graphene has no scatter-side staging.
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
        if let EdgeMapMode::Async { .. } = spec.mode {
            return Err(unsupported_mode("the Graphene engine", &spec.mode));
        }
        let before: Vec<_> = self.devices.iter().map(|d| d.stats().snapshot()).collect();
        let mut trace = IterationTrace::new(self.devices.len());
        trace.frontier_size = frontier.len() as u64;
        let out = VertexSubset::new(self.num_vertices);
        let members = frontier.members();

        for part in &self.partitions {
            // Selective scheduling: only rows in the frontier are read.
            let lo = members.partition_point(|&v| v < part.rows.start);
            let hi = members.partition_point(|&v| v < part.rows.end);
            if lo == hi {
                continue;
            }
            let active = &members[lo..hi];
            // Collect the partition-local pages these rows touch.
            let mut pages: Vec<u64> = Vec::new();
            for &v in active {
                let deg = part.local_degree(v);
                if deg == 0 {
                    continue;
                }
                let off = part.local_offset(v);
                let first = off / EDGES_PER_PAGE as u64;
                let last = (off + deg - 1) / EDGES_PER_PAGE as u64;
                pages.extend(first..=last);
            }
            pages.sort_unstable();
            pages.dedup();
            if pages.is_empty() {
                continue;
            }
            // Read merged requests; keep the fetched pages for decoding.
            let device = &self.devices[part.device];
            let mut fetched: Vec<(u64, Vec<u8>)> = Vec::with_capacity(pages.len());
            for req in merge_pages_with_window(&pages, self.options.merge_window) {
                let mut buf = vec![0u8; req.len_bytes()];
                device.read_at(
                    (part.base_page + req.first_page) * PAGE_SIZE as u64,
                    &mut buf,
                )?;
                for k in 0..req.num_pages as u64 {
                    let start = k as usize * PAGE_SIZE;
                    fetched.push((req.first_page + k, buf[start..start + PAGE_SIZE].to_vec()));
                }
            }
            let page_data = |pg: u64| -> Result<&[u8]> {
                let idx = fetched
                    .binary_search_by_key(&pg, |(p, _)| *p)
                    .map_err(|_| BlazeError::Engine(format!("page {pg} was not fetched")))?;
                Ok(&fetched[idx].1)
            };
            // Decode and apply. Graphene updates vertex state directly with
            // atomic operations (no binning), so every record is an RMW.
            for &v in active {
                let deg = part.local_degree(v);
                let off = part.local_offset(v);
                for e in off..off + deg {
                    let pg = e / EDGES_PER_PAGE as u64;
                    let slot = (e % EDGES_PER_PAGE as u64) as usize * 4;
                    let bytes = page_data(pg)?;
                    let dst = VertexId::from_le_bytes([
                        bytes[slot],
                        bytes[slot + 1],
                        bytes[slot + 2],
                        bytes[slot + 3],
                    ]);
                    trace.edges_processed += 1;
                    if (spec.cond)(dst) {
                        let value = (spec.scatter)(v, dst);
                        trace.records_produced += 1;
                        trace.atomic_ops += 1;
                        if (spec.gather)(dst, value) && spec.output {
                            out.insert(dst);
                        }
                    }
                }
            }
        }

        let after: Vec<_> = self.devices.iter().map(|d| d.stats().snapshot()).collect();
        fill_io_trace(&mut trace, &before, &after);
        self.traces.lock().push(trace);
        let mut out = out;
        out.seal();
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blaze_graph::gen::{rmat, uniform, RmatConfig};

    #[test]
    fn mass_splits_balance() {
        let mass = vec![1u64; 100];
        let s = mass_splits(&mass, 4);
        assert_eq!(s, vec![0, 25, 50, 75, 100]);
        // Skewed mass: hub at the front.
        let mut skew = vec![1u64; 100];
        skew[0] = 1000;
        let s = mass_splits(&skew, 4);
        assert_eq!(s[0], 0);
        assert_eq!(s[4], 100);
        assert!(s[1] <= 2, "hub forces an early first split: {s:?}");
    }

    #[test]
    fn partitions_preserve_every_edge() {
        let g = rmat(&RmatConfig::new(8));
        let e = GrapheneEngine::new(&g, GrapheneOptions::default()).unwrap();
        let total: u64 = e.partitions.iter().map(Partition::num_edges).sum();
        assert_eq!(total, g.num_edges());
    }

    #[test]
    fn static_edges_per_disk_are_balanced() {
        let g = rmat(&RmatConfig::new(10));
        let e = GrapheneEngine::new(&g, GrapheneOptions::default()).unwrap();
        let per = e.edges_per_disk();
        let max = *per.iter().max().unwrap() as f64;
        let min = *per.iter().min().unwrap() as f64;
        assert!(
            max / min.max(1.0) < 1.6,
            "static balance should hold: {per:?}"
        );
    }

    #[test]
    fn full_frontier_delivers_every_edge() {
        let g = uniform(8, 8, 3);
        let e = GrapheneEngine::new(&g, GrapheneOptions::default()).unwrap();
        let frontier = VertexSubset::full(g.num_vertices());
        let count = blaze_sync::atomic::AtomicU64::new(0);
        e.edge_map(
            &frontier,
            EdgeMap::new(
                |_s, _d| (),
                |_d, _v| {
                    count.fetch_add(1, blaze_sync::atomic::Ordering::Relaxed);
                    false
                },
                |_| true,
            ),
        )
        .unwrap();
        assert_eq!(
            count.load(blaze_sync::atomic::Ordering::Relaxed),
            g.num_edges()
        );
        let t = e.take_traces().pop().unwrap();
        assert_eq!(t.edges_processed, g.num_edges());
        assert_eq!(t.atomic_ops, g.num_edges());
    }

    #[test]
    fn gather_sees_correct_destinations() {
        let g = rmat(&RmatConfig::new(7));
        let e = GrapheneEngine::new(
            &g,
            GrapheneOptions {
                num_disks: 4,
                grid: 4,
                merge_window: 4,
            },
        )
        .unwrap();
        let frontier = VertexSubset::full(g.num_vertices());
        // Sum of dst ids must match the graph.
        let sum = blaze_sync::atomic::AtomicU64::new(0);
        e.edge_map(
            &frontier,
            EdgeMap::new(
                |_s, d| d,
                |_d, v: u32| {
                    sum.fetch_add(v as u64, blaze_sync::atomic::Ordering::Relaxed);
                    false
                },
                |_| true,
            ),
        )
        .unwrap();
        let expected: u64 = g.edges().map(|(_, d)| d as u64).sum();
        assert_eq!(sum.load(blaze_sync::atomic::Ordering::Relaxed), expected);
    }

    #[test]
    fn selective_scheduling_reads_less_than_full_scan() {
        let g = rmat(&RmatConfig::new(9));
        let e = GrapheneEngine::new(&g, GrapheneOptions::default()).unwrap();
        let full = VertexSubset::full(g.num_vertices());
        e.edge_map(&full, EdgeMap::new(|_s, _d| (), |_d, _v| false, |_| true))
            .unwrap();
        let full_bytes = e.take_traces().pop().unwrap().total_io_bytes();
        let sparse = VertexSubset::from_members(g.num_vertices(), [0u32, 7, 19]);
        e.edge_map(&sparse, EdgeMap::new(|_s, _d| (), |_d, _v| false, |_| true))
            .unwrap();
        let sparse_bytes = e.take_traces().pop().unwrap().total_io_bytes();
        assert!(
            sparse_bytes < full_bytes / 2,
            "{sparse_bytes} vs {full_bytes}"
        );
    }
}
