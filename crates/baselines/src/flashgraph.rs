//! FlashGraph-like engine: message passing keyed by vertex id, plus a
//! page cache (Sections II-D, III-A). The cache is the shared
//! [`PageCache`] (clock replacement, which approximates SAFS's LRU
//! behavior for the access patterns modeled here).

use blaze_sync::Arc;

use blaze_binning::BinValue;
use blaze_core::edge_map::unsupported_mode;
use blaze_core::{EdgeMap, EdgeMapMode, GraphEngine, PageCache};
use blaze_sync::Mutex;

use blaze_frontier::VertexSubset;
use blaze_graph::{DiskGraph, VertexPermutation};
use blaze_types::{IterationTrace, Result, VertexId, PAGE_SIZE};

use crate::serial_vertex_map;
use crate::stats_util::{fill_io_trace, snapshot_devices};

/// FlashGraph configuration.
#[derive(Debug, Clone)]
pub struct FlashGraphOptions {
    /// Computation threads; messages route to `dst % num_threads`, which is
    /// what skews the end-of-iteration processing on power-law graphs.
    pub num_threads: usize,
    /// Page-cache capacity in pages.
    pub cache_pages: usize,
}

impl Default for FlashGraphOptions {
    fn default() -> Self {
        Self {
            num_threads: 16,
            cache_pages: 1024,
        }
    }
}

/// The FlashGraph-like baseline engine.
pub struct FlashGraphEngine {
    graph: Arc<DiskGraph>,
    options: FlashGraphOptions,
    /// FlashGraph's SAFS-style page cache — the reason it beats the
    /// published Blaze on the high-locality sk2005 graph: repeated BFS
    /// iterations re-touch the same pages and skip storage entirely.
    cache: PageCache,
    traces: Mutex<Vec<IterationTrace>>,
}

impl FlashGraphEngine {
    /// Creates the engine over a disk graph.
    pub fn new(graph: Arc<DiskGraph>, options: FlashGraphOptions) -> Self {
        let cache = PageCache::with_capacity_pages(options.cache_pages);
        Self {
            graph,
            options,
            cache,
            traces: Mutex::new(Vec::new()),
        }
    }

    /// The underlying graph.
    pub fn graph(&self) -> &Arc<DiskGraph> {
        &self.graph
    }

    /// Takes (and clears) the recorded per-iteration traces.
    pub fn take_traces(&self) -> Vec<IterationTrace> {
        std::mem::take(&mut self.traces.lock())
    }

    /// Current number of cached pages.
    pub fn cached_pages(&self) -> usize {
        self.cache.len()
    }

    /// Fetches one page through the cache; counts hits in `trace`.
    fn fetch_page(&self, page: u64, trace: &mut IterationTrace) -> Result<Arc<[u8]>> {
        if let Some(data) = self.cache.get(page) {
            trace.cache_hit_pages += 1;
            return Ok(data);
        }
        let mut buf = vec![0u8; PAGE_SIZE];
        self.graph.storage().read_page(page, &mut buf)?;
        let data: Arc<[u8]> = buf.into();
        self.cache.insert(page, data.clone());
        Ok(data)
    }
}

impl GraphEngine for FlashGraphEngine {
    fn num_vertices(&self) -> usize {
        self.graph.num_vertices()
    }

    fn layout(&self) -> &VertexPermutation {
        self.graph.layout()
    }

    fn out_degree(&self, v: VertexId) -> u32 {
        self.graph.degree(v)
    }

    fn vertex_map<F>(&self, frontier: &VertexSubset, f: F) -> VertexSubset
    where
        F: Fn(VertexId) -> bool + Sync,
    {
        serial_vertex_map(&self.traces, frontier, f)
    }

    /// Runs binned and sync specs alike: messages are applied by one
    /// thread, so either kind of `gather` is safe. `combine` is ignored —
    /// FlashGraph has no scatter-side staging.
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
            return Err(unsupported_mode("the FlashGraph engine", &spec.mode));
        }
        let storage = self.graph.storage();
        let before = snapshot_devices(storage);
        let threads = self.options.num_threads;
        let mut trace = IterationTrace::new(storage.num_devices());
        trace.frontier_size = frontier.len() as u64;

        // Phase 1+2: fetch pages (through the page cache) and process edges,
        // queueing messages per computation thread (thread = dst % T).
        let mut queues: Vec<Vec<(VertexId, V)>> = (0..threads).map(|_| Vec::new()).collect();
        let members = frontier.members();
        let mut pages: Vec<u64> = Vec::new();
        for &v in &members {
            if let Some(range) = self.graph.pages_of_vertex(v) {
                pages.extend(range);
            }
        }
        pages.sort_unstable();
        pages.dedup();

        let mut scratch = Vec::new();
        for page in pages {
            let data = self.fetch_page(page, &mut trace)?;
            self.graph
                .for_each_vertex_in_page(page, &data, &mut scratch, |src, dsts| {
                    if !frontier.contains(src) {
                        return;
                    }
                    for &dst in dsts {
                        trace.edges_processed += 1;
                        if (spec.cond)(dst) {
                            let value = (spec.scatter)(src, dst);
                            queues[dst as usize % threads].push((dst, value));
                        }
                    }
                });
        }

        // Phase 3: end-of-iteration message processing. In FlashGraph every
        // thread drains its own queue — on power-law graphs the hub-heavy
        // queues make one thread the straggler while the SSD sits idle.
        let out = VertexSubset::new(self.graph.num_vertices());
        trace.messages_per_thread = queues.iter().map(|q| q.len() as u64).collect();
        trace.records_produced = trace.messages_per_thread.iter().sum();
        for queue in &queues {
            for &(dst, value) in queue {
                if (spec.gather)(dst, value) && spec.output {
                    out.insert(dst);
                }
            }
        }

        let after = snapshot_devices(storage);
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
    use blaze_graph::gen::{relabel_bfs_order, rmat, RmatConfig};
    use blaze_graph::Csr;
    use blaze_storage::StripedStorage;

    fn engine(g: &Csr, cache_pages: usize) -> FlashGraphEngine {
        let storage = Arc::new(StripedStorage::in_memory(1).unwrap());
        let graph = Arc::new(DiskGraph::create(g, storage).unwrap());
        FlashGraphEngine::new(
            graph,
            FlashGraphOptions {
                num_threads: 16,
                cache_pages,
            },
        )
    }

    #[test]
    fn full_edge_map_touches_every_edge() {
        let g = rmat(&RmatConfig::new(8));
        let e = engine(&g, 64);
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
        assert_eq!(t.records_produced, g.num_edges());
        assert_eq!(t.messages_per_thread.len(), 16);
    }

    #[test]
    fn power_law_graph_skews_message_queues() {
        let g = rmat(&RmatConfig::new(10));
        let e = engine(&g, 16);
        let frontier = VertexSubset::full(g.num_vertices());
        e.edge_map(
            &frontier,
            EdgeMap::new(|_s, _d| (), |_d, _v| false, |_| true),
        )
        .unwrap();
        let t = e.take_traces().pop().unwrap();
        assert!(
            t.message_skew() > 1.5,
            "rmat should skew messages: {}",
            t.message_skew()
        );
    }

    #[test]
    fn cache_hits_appear_on_repeated_iterations() {
        let g = relabel_bfs_order(&rmat(&RmatConfig::new(8)));
        let e = engine(&g, 1 << 16); // cache larger than the graph
        let frontier = VertexSubset::full(g.num_vertices());
        for _ in 0..2 {
            e.edge_map(
                &frontier,
                EdgeMap::new(|_s, _d| (), |_d, _v| false, |_| true),
            )
            .unwrap();
        }
        let traces = e.take_traces();
        assert_eq!(traces[0].cache_hit_pages, 0);
        let pages = traces[0].total_io_bytes() / PAGE_SIZE as u64;
        assert_eq!(traces[1].cache_hit_pages, pages, "second pass fully cached");
        assert_eq!(traces[1].total_io_bytes(), 0);
    }

    #[test]
    fn small_cache_limits_hits() {
        let g = rmat(&RmatConfig::new(9));
        let e = engine(&g, 4);
        let frontier = VertexSubset::full(g.num_vertices());
        for _ in 0..2 {
            e.edge_map(
                &frontier,
                EdgeMap::new(|_s, _d| (), |_d, _v| false, |_| true),
            )
            .unwrap();
        }
        let traces = e.take_traces();
        let pages = traces[0].total_io_bytes() / PAGE_SIZE as u64;
        assert!(
            traces[1].cache_hit_pages < pages / 2,
            "tiny cache cannot serve most pages"
        );
    }
}
