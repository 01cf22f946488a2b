//! The out-of-core `EdgeMap` engine (Section IV-C, Figure 5).
//!
//! Since the persistent-runtime refactor, `edge_map` no longer spawns a
//! scoped thread pipeline per call. The engine owns a long-lived
//! [`Runtime`] — one IO worker per device plus standing scatter/gather
//! pools — and each `edge_map` is packaged as an `EdgeMapJob` and
//! *submitted* to it, blocking on the job's completion handle. Bin spaces
//! and IO buffer pools are checked out of an [`EngineArena`] per job and
//! recycled after a clean finish, so a 20-iteration BFS reuses one set of
//! buffers instead of allocating twenty, and independent jobs submitted
//! from different threads interleave through the shared workers.

use blaze_sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use blaze_sync::Arc;
use std::time::Instant;

use blaze_sync::Backoff;
use blaze_sync::Mutex;

use blaze_binning::{BinSpace, BinValue, BinningConfig, ScatterStaging};
use blaze_frontier::{PageSubset, VertexSubset};
use blaze_graph::{DiskGraph, VertexPermutation};
use blaze_storage::buffer::{FilledBuffer, IoBuffer};
use blaze_storage::request::merge_pages_with_window;
use blaze_storage::{
    BufferPool, FlightLease, FlightPart, FlightTable, IoBackend, IoRequest, JobIoStats, PageCache,
    PageFrame,
};
use blaze_types::{BlazeError, IterationTrace, LocalPageId, Result, VertexId, PAGE_SIZE};

use crate::arena::EngineArena;
use crate::edge_map::{EdgeMap, EdgeMapMode, GraphEngine};
use crate::options::EngineOptions;
use crate::runtime::{PipelineJob, Runtime};
use crate::stats::{fill_io_trace_from_job, ExecStats};
use crate::vertex_map::vertex_map_with_grain;

/// Increments a counter when dropped — even if the owning worker panics in
/// user code, so peers waiting on the counter cannot spin forever.
struct CompletionGuard<'a> {
    counter: &'a AtomicUsize,
}

impl Drop for CompletionGuard<'_> {
    fn drop(&mut self) {
        self.counter.fetch_add(1, Ordering::Release); // sync-audit: trace counter; read only after the job completes.
    }
}

/// The Blaze engine: binds a [`DiskGraph`] to its persistent pipeline
/// runtime and binning configuration and executes `EdgeMap`s over it.
pub struct BlazeEngine {
    graph: Arc<DiskGraph>,
    options: EngineOptions,
    binning: BinningConfig,
    arena: EngineArena,
    runtime: Runtime,
    cache: Option<PageCache>,
    /// The submission/completion IO engines the per-device IO workers
    /// pump — one per IO lane, because the backends' per-device
    /// submit/reap queues assume a single pumper per device and a lane is
    /// exactly that: the one worker pumping a given device for its jobs.
    /// A single entry without scan sharing.
    backends: Vec<Arc<dyn IoBackend>>,
    /// Cross-job scan-sharing registry (single-flight miss coalescing);
    /// `None` leaves the IO path byte-identical to the unshared engine.
    flights: Option<FlightTable>,
    traces: Mutex<Vec<IterationTrace>>,
    stats: Mutex<ExecStats>,
}

impl BlazeEngine {
    /// Creates an engine over `graph`. Binning defaults to the paper's
    /// heuristics (5% of graph size, up to 1024 bins) unless overridden. The
    /// persistent worker set (one IO worker per device, plus the scatter
    /// and gather pools) is spawned here and lives until the engine drops.
    pub fn new(graph: Arc<DiskGraph>, options: EngineOptions) -> Result<Self> {
        options.validate()?;
        let binning = options
            .binning
            .clone()
            .unwrap_or_else(|| BinningConfig::for_graph(graph.storage_bytes()));
        let arena = EngineArena::new(
            binning.clone(),
            options.io_buffer_bytes,
            options.merge_window.max(blaze_types::MAX_MERGED_PAGES),
            options.num_gather,
            options.max_idle_arenas,
        );
        // Scan sharing needs concurrent jobs' IO phases to overlap on each
        // device, so it widens the runtime to several IO lanes per device;
        // without it one lane reproduces the paper's pipeline exactly.
        let io_lanes = if options.scan_sharing {
            options.scan_share_lanes.max(1)
        } else {
            1
        };
        let runtime = Runtime::new(
            graph.storage().num_devices(),
            io_lanes,
            options.num_scatter,
            options.num_gather,
        );
        // A budget below one page yields zero frames; skip the cache
        // entirely so the IO path stays identical to the uncached engine.
        let cache = Some(PageCache::new(options.cache_bytes))
            .filter(|c| c.capacity_pages() > 0)
            .map(|mut c| {
                // Degree-aware layouts record a hot (hub) page prefix in the
                // page map; hand it to the cache for heat-informed admission
                // before the cache is shared. Identity graphs report zero
                // hot pages and leave admission untouched.
                c.set_hot_region(graph.pagemap().hot_pages(), options.cache_hot_fraction);
                c
            });
        let backends = (0..io_lanes)
            .map(|_| {
                options
                    .io_backend
                    .build(graph.storage().clone(), options.queue_depth)
            })
            .collect();
        let flights = options
            .scan_sharing
            .then(|| FlightTable::new(graph.storage().num_devices(), options.scan_share_retain));
        Ok(Self {
            graph,
            options,
            binning,
            arena,
            runtime,
            cache,
            backends,
            flights,
            traces: Mutex::new(Vec::new()),
            stats: Mutex::new(ExecStats::default()),
        })
    }

    /// The IO backend serving this engine's device reads (lane 0's when
    /// scan sharing runs several lanes).
    pub fn io_backend(&self) -> &Arc<dyn IoBackend> {
        &self.backends[0]
    }

    /// The scan-sharing flight table, when enabled via
    /// [`EngineOptions::scan_sharing`].
    pub fn flight_table(&self) -> Option<&FlightTable> {
        self.flights.as_ref()
    }

    /// The clock page cache, when enabled via
    /// [`EngineOptions::cache_bytes`].
    pub fn page_cache(&self) -> Option<&PageCache> {
        self.cache.as_ref()
    }

    /// The graph this engine operates on.
    pub fn graph(&self) -> &Arc<DiskGraph> {
        &self.graph
    }

    /// Engine options.
    pub fn options(&self) -> &EngineOptions {
        &self.options
    }

    /// The effective binning configuration.
    pub fn binning(&self) -> &BinningConfig {
        &self.binning
    }

    /// The persistent pipeline runtime serving this engine's jobs.
    pub fn runtime(&self) -> &Runtime {
        &self.runtime
    }

    /// Takes the recorded per-iteration work traces (and clears them).
    pub fn take_traces(&self) -> Vec<IterationTrace> {
        std::mem::take(&mut self.traces.lock())
    }

    /// Cumulative execution statistics.
    pub fn stats(&self) -> ExecStats {
        self.stats.lock().clone()
    }

    /// Transforms the vertex frontier into the per-device page frontier
    /// (Figure 5, step 1), in parallel over frontier chunks.
    pub fn build_page_subset(&self, frontier: &VertexSubset) -> PageSubset {
        let members = frontier.members();
        let num_devices = self.graph.storage().num_devices();
        let threads = self.options.compute_workers().max(1);
        if members.len() < 4096 || threads == 1 {
            let ranges = members
                .iter()
                .filter_map(|&v| self.graph.pages_of_vertex(v));
            return PageSubset::from_page_ranges(ranges, num_devices);
        }
        let chunk = members.len().div_ceil(threads);
        let parts: Vec<PageSubset> = blaze_sync::thread::scope(|s| {
            let handles: Vec<_> = members
                .chunks(chunk)
                .map(|slice| {
                    s.spawn(move || {
                        let ranges = slice.iter().filter_map(|&v| self.graph.pages_of_vertex(v));
                        PageSubset::from_page_ranges(ranges, num_devices)
                    })
                })
                .collect();
            handles
                .into_iter()
                // panic-audit: re-raises a worker thread's panic on the caller
                // (the same propagation std::thread::scope performs).
                .map(|h| h.join().expect("page transform panicked"))
                .collect()
        });
        PageSubset::merge(parts, num_devices)
    }

    /// Runs one `EdgeMap` job (the body of [`GraphEngine::edge_map`]).
    ///
    /// The call is a *job submission*: it may be issued from any number of
    /// threads concurrently against one engine, and blocks until the
    /// persistent runtime has completed this job. In [`EdgeMapMode::Binned`]
    /// and [`EdgeMapMode::Async`] the spec's `gather` may update
    /// [`VertexArray`](crate::VertexArray)s with plain `get`/`set` — bin
    /// exclusivity guarantees a destination vertex is only touched by one
    /// gather thread at a time. [`EdgeMapMode::Sync`] is the variant of
    /// Figure 8b: no bins, scatter threads apply `gather` directly, so it
    /// must use atomic read-modify-writes. A `combine` merges
    /// same-destination records inside one scatter worker's staging
    /// window; the merged count is reported per iteration as
    /// [`IterationTrace::records_combined`] (`records_produced` counts the
    /// post-combine stream).
    fn run_edge_map<V, FS, FG, FC, FM>(
        &self,
        frontier: &VertexSubset,
        spec: &EdgeMap<'_, FS, FG, FC, FM>,
    ) -> Result<VertexSubset>
    where
        V: BinValue,
        FS: Fn(VertexId, VertexId) -> V + Sync,
        FG: Fn(VertexId, V) -> bool + Sync,
        FC: Fn(VertexId) -> bool + Sync,
        FM: Fn(V, V) -> V + Sync,
    {
        let sync_variant = matches!(spec.mode, EdgeMapMode::Sync);
        let async_round = match spec.mode {
            EdgeMapMode::Async { bucket, frontier } => Some((bucket, frontier)),
            _ => None,
        };
        let t0 = Instant::now();
        let num_devices = self.graph.storage().num_devices();
        let async_before = async_round.map(|(_, pf)| pf.snapshot());

        let pages = self.build_page_subset(frontier);
        let out = VertexSubset::new(self.graph.num_vertices());

        // Check out this job's private arena: never shared with another
        // in-flight job, which is what lets independent submissions
        // interleave through the shared workers without entangling their
        // buffer queues or bin back-pressure.
        let pool = self.arena.checkout_pool();
        let space: Option<BinSpace<V>> = (!sync_variant).then(|| self.arena.checkout_space());

        let job = EdgeMapJob {
            engine: self,
            frontier,
            pages: &pages,
            out: &out,
            pool: &pool,
            space: space.as_ref(),
            spec,
            num_devices,
            num_scatter: self.options.num_scatter,
            io_done: AtomicUsize::new(0),
            scatters_done: AtomicUsize::new(0),
            all_scatter_done: AtomicBool::new(false),
            edges_processed: AtomicU64::new(0),
            records_sync: AtomicU64::new(0),
            error: Mutex::new(None),
            order: AtomicU64::new(u64::MAX),
            io_stats: JobIoStats::new(num_devices),
        };

        // Blocks until every participating worker finished its role; a
        // panic in a user closure is re-raised here (unwinding drops the
        // checked-out pool/space without recycling them).
        self.runtime.submit(&job, !sync_variant);

        let error = job.error.lock().take();
        let edges_processed = job.edges_processed.load(Ordering::Relaxed); // sync-audit: trace counter; job completed.
        let records_sync = job.records_sync.load(Ordering::Relaxed); // sync-audit: trace counter; job completed.
        if let (Some((bucket, pf)), Some(before)) = (async_round, async_before) {
            // The round's workers have joined, so the frontier delta is
            // exactly this job's pushes; record it before the trace copy.
            let after = pf.snapshot();
            job.io_stats.record_async_round(
                bucket,
                after.pushed - before.pushed,
                after.deduped - before.deduped,
            );
        }
        let mut trace = IterationTrace::new(num_devices);
        fill_io_trace_from_job(&mut trace, &job.io_stats);
        drop(job);

        if let Some(e) = error {
            // A job that failed cleanly (IO error, not a panic) has drained
            // its submission and completion queues and returned every
            // buffer, so its arena is reusable. `recycle_pool` re-verifies
            // with `is_intact` and drops any pool that lost buffers;
            // `recycle_space` resets bins. Panics never reach here — they
            // re-raise out of `submit` above and drop the arena unrecycled.
            if let Some(space) = space {
                self.arena.recycle_space(space);
            }
            self.arena.recycle_pool(pool);
            return Err(e);
        }

        // Record the iteration's work trace.
        let wall_ns = t0.elapsed().as_nanos() as u64;
        trace.frontier_size = frontier.len() as u64;
        trace.edges_processed = edges_processed;
        if sync_variant {
            trace.records_produced = records_sync;
            trace.atomic_ops = records_sync;
        } else if let Some(space) = &space {
            let counts = space.take_record_counts();
            trace.records_produced = counts.iter().sum();
            trace.records_per_bin = counts;
            trace.bin_buffer_capacity = self
                .binning
                .buffer_capacity(std::mem::size_of::<blaze_binning::BinRecord<V>>())
                as u64;
        }
        // Clean finish: return the arena for the next job.
        if let Some(space) = space {
            self.arena.recycle_space(space);
        }
        self.arena.recycle_pool(pool);

        self.stats.lock().absorb(&trace, wall_ns);
        if self.options.record_trace {
            self.traces.lock().push(trace);
        }

        let mut out = out;
        out.seal();
        Ok(out)
    }
}

impl GraphEngine for BlazeEngine {
    fn num_vertices(&self) -> usize {
        self.graph.num_vertices()
    }

    fn layout(&self) -> &VertexPermutation {
        self.graph.layout()
    }

    fn out_degree(&self, v: VertexId) -> u32 {
        self.graph.degree(v)
    }

    /// Splits the map over the compute workers, serially below
    /// [`EngineOptions::vertex_map_grain`] members per worker.
    fn vertex_map<F>(&self, frontier: &VertexSubset, f: F) -> VertexSubset
    where
        F: Fn(VertexId) -> bool + Sync,
    {
        vertex_map_with_grain(
            frontier,
            f,
            self.options.compute_workers(),
            self.options.vertex_map_grain,
        )
    }

    /// Runs every mode; see `run_edge_map` for what each one asks of the
    /// spec's `gather`.
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
        self.run_edge_map(frontier, &spec)
    }

    /// [`EngineOptions::async_buckets`] and
    /// [`EngineOptions::async_batch_max`].
    fn async_batching(&self) -> Result<(usize, usize)> {
        Ok((self.options.async_buckets, self.options.async_batch_max))
    }
}

/// One `edge_map` submission travelling through the persistent runtime:
/// the user closures, the frontier, the job's private arena (buffer pool
/// and bin space), and all per-job coordination state. The runtime's
/// workers call the [`PipelineJob`] roles below; nothing here is shared
/// with any other in-flight job, so per-job counters and the first-error
/// slot cannot be polluted by concurrent submissions.
struct EdgeMapJob<'a, V, FS, FG, FM, FC>
where
    V: BinValue,
{
    engine: &'a BlazeEngine,
    frontier: &'a VertexSubset,
    pages: &'a PageSubset,
    out: &'a VertexSubset,
    pool: &'a BufferPool,
    /// `None` in the synchronization-based variant (no bins).
    space: Option<&'a BinSpace<V>>,
    /// The user closures and the output flag.
    spec: &'a EdgeMap<'a, FS, FG, FC, FM>,
    num_devices: usize,
    num_scatter: usize,
    /// IO workers that have finished this job (panics included, via guard).
    io_done: AtomicUsize,
    /// Scatter workers that have finished this job.
    scatters_done: AtomicUsize,
    /// Set by the last departing scatter worker, releasing gather.
    all_scatter_done: AtomicBool,
    edges_processed: AtomicU64,
    records_sync: AtomicU64,
    /// First IO error of the job; later errors are dropped (the first one
    /// is the cause, the rest are downstream noise).
    error: Mutex<Option<BlazeError>>,
    /// Submission sequence number, assigned by the runtime under its queue
    /// lock before any worker sees the job (`u64::MAX` until then). Scan
    /// sharing compares it against a flight's leader to decide between
    /// parking and a non-blocking probe (see `pump_shared`).
    order: AtomicU64,
    io_stats: JobIoStats,
}

impl<V, FS, FG, FM, FC> EdgeMapJob<'_, V, FS, FG, FM, FC>
where
    V: BinValue,
    FS: Fn(VertexId, VertexId) -> V + Sync,
    FG: Fn(VertexId, V) -> bool + Sync,
    FM: Fn(V, V) -> V + Sync,
    FC: Fn(VertexId) -> bool + Sync,
{
    /// Records `e` as the job's failure unless one is already recorded —
    /// first error wins, so a root-cause device error is not clobbered by
    /// the knock-on errors of other devices.
    fn record_error(&self, e: BlazeError) {
        let mut slot = self.error.lock();
        if slot.is_none() {
            *slot = Some(e);
        }
    }

    /// One IO worker's work: fetch the device's local page list into
    /// filled buffers. Without a page cache, contiguous local pages merge
    /// into requests of up to `merge_window` pages — the published IO path,
    /// byte-for-byte under the synchronous backend. With the cache (the
    /// paper's future-work extension), the worker first consults the cache
    /// page by page: hits are packed into shared buffers straight from
    /// frames, and only the *misses* are re-merged into contiguous runs, so
    /// a hit in the middle of what would have been one request splits it
    /// into two shorter device reads. Either way the merged requests are
    /// then pumped through the engine's [`IoBackend`] with up to
    /// `queue_depth` in flight.
    fn fetch_device(&self, dev: usize, lane: usize) -> Result<()> {
        let storage = self.engine.graph.storage();
        let merge_window = self.engine.options.merge_window;
        let local_pages = self.pages.local_pages(dev);
        let Some(cache) = &self.engine.cache else {
            return self.pump(
                dev,
                lane,
                merge_pages_with_window(local_pages, merge_window),
            );
        };
        // Cache pass: serve hits from frames, collect misses. Consecutive
        // hits pack into one buffer (frame `i` ↔ `pages[i]`, no contiguity
        // promised) instead of costing a pool buffer per page.
        let capacity = self.pool.pages_per_buffer();
        let mut pending: Option<(IoBuffer, Vec<u64>)> = None;
        let flush = |packed: (IoBuffer, Vec<u64>)| {
            self.pool.push_filled(FilledBuffer {
                buffer: packed.0,
                pages: packed.1,
            });
        };
        let mut misses: Vec<LocalPageId> = Vec::new();
        let mut hits = 0u64;
        let mut hot_hits = 0u64;
        let hot_pages = self.engine.graph.pagemap().hot_pages();
        for &local in local_pages {
            let global = storage.global_page(dev, local);
            let Some(data) = cache.get(global) else {
                // A miss ends the current hit run; flush it so scatter can
                // start on the hits while the device read is in flight.
                if let Some(packed) = pending.take() {
                    flush(packed);
                }
                misses.push(local);
                continue;
            };
            hits += 1;
            hot_hits += u64::from(global < hot_pages);
            let mut packed = pending
                .take()
                .unwrap_or_else(|| (self.pool.acquire_free(), Vec::new()));
            let slot = packed.1.len();
            packed.0.pages_mut(slot + 1)[slot * PAGE_SIZE..].copy_from_slice(&data);
            packed.1.push(global);
            if packed.1.len() == capacity {
                flush(packed);
            } else {
                pending = Some(packed);
            }
        }
        if let Some(packed) = pending.take() {
            flush(packed);
        }
        if hits > 0 {
            self.io_stats.record_cache_hits(dev, hits);
        }
        if hot_hits > 0 {
            self.io_stats.record_cache_hot_hits(dev, hot_hits);
        }
        // Miss pass: hits punched holes into the page list, so re-merging
        // naturally splits runs around them before touching the device.
        self.pump(dev, lane, merge_pages_with_window(&misses, merge_window))
    }

    /// Routes merged requests to the device: through the flight table when
    /// scan sharing is on, straight to the backend otherwise.
    fn pump(&self, dev: usize, lane: usize, requests: Vec<IoRequest>) -> Result<()> {
        match &self.engine.flights {
            Some(table) => self.pump_shared(dev, lane, table, requests),
            None => self.pump_requests(dev, lane, requests, Vec::new()),
        }
    }

    /// Scan-sharing pump (single-flight miss coalescing): each merged
    /// request is split against the [`FlightTable`]. Subranges nobody else
    /// is reading become *lead* parts — registered before this returns, so
    /// concurrent planners of the same pages join instead of double-reading
    /// — and go to the device exactly once, carrying their leases so the
    /// completed frames fan out to every subscriber. Subranges already in
    /// flight (or retained from a recent flight) become *join* parts and
    /// are satisfied from the leader's frames without touching the device.
    ///
    /// Deadlock discipline: leases are all resolved (the lead pump returns)
    /// before any ticket is consulted, so a parked subscriber never holds a
    /// flight another job is parked on. A ticket is *waited* on only when
    /// its leader is strictly older (smaller submission seq) than this job;
    /// the runtime serves every worker's mailbox in submission order, so an
    /// older leader's IO role is never queued behind this job and the
    /// cross-job wait graph stays acyclic. Younger leaders are only probed
    /// (`try_wait`); on a miss the subrange is re-read here — a duplicate
    /// device read, never a correctness hazard.
    fn pump_shared(
        &self,
        dev: usize,
        lane: usize,
        table: &FlightTable,
        requests: Vec<IoRequest>,
    ) -> Result<()> {
        let my_seq = self.order.load(Ordering::Acquire); // sync-audit: written once by Runtime::submit under its queue lock before any worker runs this job.
        let mut leads: Vec<IoRequest> = Vec::new();
        let mut leases: Vec<Option<FlightLease>> = Vec::new();
        let mut tickets = Vec::new();
        for request in requests {
            for part in table.plan(dev, request, my_seq) {
                match part {
                    FlightPart::Lead(lease) => {
                        leads.push(lease.request());
                        leases.push(Some(lease));
                    }
                    FlightPart::Join(ticket) => tickets.push(ticket),
                }
            }
        }
        if !leases.is_empty() {
            self.io_stats.record_flights_led(dev, leads.len() as u64);
        }
        self.pump_requests(dev, lane, leads, leases)?;
        let mut fallback: Vec<IoRequest> = Vec::new();
        let mut shared_pages = 0u64;
        let mut first_error: Option<BlazeError> = None;
        for ticket in tickets {
            if first_error.is_some() {
                break;
            }
            let outcome = if ticket.leader_seq() < my_seq {
                Some(ticket.wait())
            } else {
                ticket.try_wait()
            };
            match outcome {
                Some(Ok(frames)) => {
                    shared_pages += frames.len() as u64;
                    self.pack_shared(dev, ticket.first_page(), &frames);
                }
                Some(Err(e)) => first_error = Some(e),
                None => fallback.push(IoRequest {
                    first_page: ticket.first_page(),
                    num_pages: ticket.num_pages(),
                }),
            }
        }
        if shared_pages > 0 {
            self.io_stats.record_shared_hits(dev, shared_pages);
        }
        match first_error {
            Some(e) => Err(e),
            None => self.pump_requests(dev, lane, fallback, Vec::new()),
        }
    }

    /// Hands subscriber-received frames to scatter: packed into pool
    /// buffers exactly like cache hits (frame `i` ↔ `pages[i]`, no
    /// contiguity promised). The leader already admitted these pages to
    /// the cache, so no insert happens here.
    fn pack_shared(&self, dev: usize, first_local: LocalPageId, frames: &[PageFrame]) {
        let storage = self.engine.graph.storage();
        let capacity = self.pool.pages_per_buffer();
        for (chunk_idx, chunk) in frames.chunks(capacity).enumerate() {
            let mut buffer = self.pool.acquire_free();
            let mut globals = Vec::with_capacity(chunk.len());
            for (slot, frame) in chunk.iter().enumerate() {
                let offset = (chunk_idx * capacity + slot) as u64;
                buffer.pages_mut(slot + 1)[slot * PAGE_SIZE..].copy_from_slice(frame.as_ref());
                globals.push(storage.global_page(dev, first_local + offset));
            }
            self.pool.push_filled(FilledBuffer {
                buffer,
                pages: globals,
            });
        }
    }

    /// Pumps `requests` through the lane's IO backend: keeps up to
    /// `queue_depth` submissions in flight, reaps completions (possibly out
    /// of order), and hands successful buffers to scatter. On an error the
    /// pump stops submitting but keeps reaping until the queue drains, so
    /// no buffer is lost and the pool stays intact — first error wins.
    ///
    /// With scan sharing, `leases[i]` is the flight lease for `requests[i]`
    /// (the submit tag indexes both): a successful completion fans its
    /// frames out to the flight's subscribers, a failed one propagates the
    /// error to them, and leases never submitted (pump stopped early) are
    /// failed by their `Drop` when the vector falls off the end — no
    /// subscriber is ever left parked. Without sharing, pass an empty
    /// vector.
    fn pump_requests(
        &self,
        dev: usize,
        lane: usize,
        requests: Vec<IoRequest>,
        mut leases: Vec<Option<FlightLease>>,
    ) -> Result<()> {
        if requests.is_empty() {
            return Ok(());
        }
        let storage = self.engine.graph.storage();
        let backend = &self.engine.backends[lane];
        let window = backend.queue_depth().max(1);
        let mut next = 0usize;
        let mut in_flight = 0usize;
        let mut first_error: Option<BlazeError> = None;
        while next < requests.len() || in_flight > 0 {
            while first_error.is_none() && in_flight < window && next < requests.len() {
                let buffer = self.pool.acquire_free();
                backend.submit(dev, requests[next], buffer, next as u64);
                next += 1;
                in_flight += 1;
                self.io_stats.record_submit(dev, in_flight as u64);
            }
            if in_flight == 0 {
                break;
            }
            let completion = backend.reap(dev);
            in_flight -= 1;
            self.io_stats.record_latency(dev, completion.service_ns);
            let buffer = completion.buffer;
            let lease = leases
                .get_mut(completion.tag as usize)
                .and_then(Option::take);
            match completion.result {
                Err(e) => {
                    if let Some(lease) = lease {
                        lease.fail(&e.to_string());
                    }
                    self.pool.release(buffer);
                    if first_error.is_none() {
                        first_error = Some(e);
                    }
                }
                Ok(()) if first_error.is_some() => {
                    // Draining after an error: data is good but the job is
                    // failing; subscribers still get their frames (their
                    // jobs are not the ones failing), then the buffer goes
                    // back to the pool.
                    if let Some(lease) = lease {
                        let n = completion.request.num_pages as usize;
                        lease.complete(page_frames(&buffer, n));
                    }
                    self.pool.release(buffer);
                }
                Ok(()) => {
                    let first = completion.request.first_page;
                    let n = completion.request.num_pages as usize;
                    self.io_stats.record_read(dev, first, n);
                    // Subscribers want per-page `Arc` frames; build them
                    // once and let the cache admit the same allocations.
                    let frames = lease.is_some().then(|| page_frames(&buffer, n));
                    if let Some(cache) = &self.engine.cache {
                        self.io_stats.record_cache_misses(dev, n as u64);
                        let mut evictions = 0;
                        let mut hot_admits = 0;
                        for i in 0..n {
                            let global = storage.global_page(dev, first + i as u64);
                            let frame = match &frames {
                                Some(frames) => frames[i].clone(),
                                None => {
                                    let start = i * PAGE_SIZE;
                                    buffer.pages(n)[start..start + PAGE_SIZE].into()
                                }
                            };
                            let outcome = cache.insert(global, frame);
                            evictions += u64::from(outcome.evicted);
                            hot_admits += u64::from(outcome.hot_admitted);
                        }
                        if evictions > 0 {
                            self.io_stats.record_cache_evictions(dev, evictions);
                        }
                        if hot_admits > 0 {
                            self.io_stats.record_cache_hot_admits(dev, hot_admits);
                        }
                    }
                    if let (Some(lease), Some(frames)) = (lease, frames) {
                        lease.complete(frames);
                    }
                    let globals = (0..n as u64)
                        .map(|i| storage.global_page(dev, first + i))
                        .collect();
                    self.pool.push_filled(FilledBuffer {
                        buffer,
                        pages: globals,
                    });
                }
            }
        }
        match first_error {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

/// Per-page `Arc` frames of `buffer`'s first `n` pages — the fan-out
/// currency of the flight table and the page cache.
fn page_frames(buffer: &IoBuffer, n: usize) -> Vec<PageFrame> {
    let data = buffer.pages(n);
    (0..n)
        .map(|i| data[i * PAGE_SIZE..(i + 1) * PAGE_SIZE].into())
        .collect()
}

impl<V, FS, FG, FM, FC> PipelineJob for EdgeMapJob<'_, V, FS, FG, FM, FC>
where
    V: BinValue,
    FS: Fn(VertexId, VertexId) -> V + Sync,
    FG: Fn(VertexId, V) -> bool + Sync,
    FM: Fn(V, V) -> V + Sync,
    FC: Fn(VertexId) -> bool + Sync,
{
    /// Records the submission sequence number the runtime assigned under
    /// its queue lock; `pump_shared` reads it for the park/probe decision.
    fn set_order(&self, seq: u64) {
        self.order.store(seq, Ordering::Release); // sync-audit: happens-before every worker via the runtime queue lock.
    }

    /// IO role (Figure 5, steps 2-4): one worker per device (per lane when
    /// scan sharing widens the pump).
    fn run_io(&self, device: usize, lane: usize) {
        // Guard: even a panic inside the IO path must count the worker as
        // done, or scatter workers would spin on `io_done` forever.
        let _done = CompletionGuard {
            counter: &self.io_done,
        };
        if let Err(e) = self.fetch_device(device, lane) {
            self.record_error(e);
        }
    }

    /// Scatter role (steps 5-7).
    fn run_scatter(&self, _worker: usize) {
        // Guard: a panic in the user's scatter/cond closures still counts
        // this worker as done; the last departing scatter (panicked or not)
        // releases the gather side.
        struct ScatterGuard<'a, V: BinValue> {
            counter: &'a AtomicUsize,
            total: usize,
            space: Option<&'a BinSpace<V>>,
            all_done: &'a AtomicBool,
        }
        impl<V: BinValue> Drop for ScatterGuard<'_, V> {
            fn drop(&mut self) {
                if self.counter.fetch_add(1, Ordering::AcqRel) + 1 == self.total {
                    if let Some(space) = self.space {
                        space.flush_partials();
                    }
                    self.all_done.store(true, Ordering::Release);
                }
            }
        }
        let _done = ScatterGuard {
            counter: &self.scatters_done,
            total: self.num_scatter,
            space: self.space,
            all_done: &self.all_scatter_done,
        };
        let mut staging = self.space.map(ScatterStaging::new);
        let mut scratch = Vec::new();
        let mut local_edges = 0u64;
        let mut local_records = 0u64;
        let mut busy_ns = 0u64;
        let mut wait_ns = 0u64;
        // A frontier built by `VertexSubset::full` contains every vertex by
        // construction, so the per-source membership probe is pure overhead
        // in dense iterations (PageRank, WCC) — hoist it out of the loop.
        let all_active = self.frontier.is_complete();
        let bytewise = self.engine.options.bytewise_decode;
        let backoff = Backoff::new();
        loop {
            let Some(filled) = self.pool.pop_filled() else {
                if self.io_done.load(Ordering::Acquire) == self.num_devices // sync-audit: completion counter; guarded by the filled-queue recheck below.
                    && self.pool.filled_len() == 0
                {
                    break;
                }
                let t = Instant::now();
                backoff.snooze();
                wait_ns += t.elapsed().as_nanos() as u64;
                continue;
            };
            backoff.reset();
            let t = Instant::now();
            for (i, &page) in filled.pages.iter().enumerate() {
                let data = filled.page_data(i);
                let mut body = |src: VertexId, dsts: &[VertexId]| {
                    if !all_active && !self.frontier.contains(src) {
                        return;
                    }
                    for &dst in dsts {
                        local_edges += 1;
                        if !(self.spec.cond)(dst) {
                            continue;
                        }
                        let value = (self.spec.scatter)(src, dst);
                        match (&mut staging, self.space) {
                            (Some(staging), Some(space)) => match &self.spec.combine {
                                Some(combine) => staging.push_combined(space, dst, value, combine),
                                None => staging.push(space, dst, value),
                            },
                            _ => {
                                // Sync variant: apply directly with the
                                // user's atomic gather — the CAS path.
                                local_records += 1;
                                if (self.spec.gather)(dst, value) && self.spec.output {
                                    self.out.insert(dst);
                                }
                            }
                        }
                    }
                };
                if bytewise {
                    self.engine.graph.for_each_vertex_in_page_bytewise(
                        page,
                        data,
                        &mut scratch,
                        &mut body,
                    );
                } else {
                    self.engine
                        .graph
                        .for_each_vertex_in_page(page, data, &mut scratch, &mut body);
                }
            }
            self.pool.release(filled.buffer);
            busy_ns += t.elapsed().as_nanos() as u64;
        }
        if let (Some(staging), Some(space)) = (&mut staging, self.space) {
            let t = Instant::now();
            staging.flush(space);
            busy_ns += t.elapsed().as_nanos() as u64;
            self.io_stats
                .add_records_combined(staging.records_combined());
        }
        self.io_stats.add_scatter_ns(busy_ns);
        self.io_stats.add_io_wait_ns(wait_ns);
        self.edges_processed
            .fetch_add(local_edges, Ordering::Relaxed); // sync-audit: trace counter; read only after the job completes.
        self.records_sync
            .fetch_add(local_records, Ordering::Relaxed); // sync-audit: trace counter; read only after the job completes.
    }

    /// Gather role (steps 8-9); not dispatched in the sync variant. Each
    /// worker drains its *home* full-bin queue (`bin_id % num_gather`)
    /// before stealing from peers, so repeated fills of one bin keep
    /// landing on the same worker's cache-warm vertex range.
    fn run_gather(&self, worker: usize) {
        let Some(space) = self.space else {
            return;
        };
        let mut busy_ns = 0u64;
        let backoff = Backoff::new();
        loop {
            let t = Instant::now();
            let progressed = space.process_one_full_for(worker, |_, records| {
                for r in records {
                    if (self.spec.gather)(r.dst, r.value) && self.spec.output {
                        self.out.insert(r.dst);
                    }
                }
            });
            if progressed {
                busy_ns += t.elapsed().as_nanos() as u64;
                backoff.reset();
                continue;
            }
            if self.all_scatter_done.load(Ordering::Acquire) // sync-audit: completion flag; guarded by the full-queue recheck below.
                && space.full_queue_is_empty()
            {
                break;
            }
            backoff.snooze();
        }
        self.io_stats.add_gather_ns(busy_ns);
    }
}

impl std::fmt::Debug for BlazeEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BlazeEngine")
            .field("graph", &self.graph)
            .field("scatter", &self.options.num_scatter)
            .field("gather", &self.options.num_gather)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vertex_array::VertexArray;
    use blaze_graph::gen::{rmat, uniform, RmatConfig};
    use blaze_graph::Csr;
    use blaze_storage::StripedStorage;

    fn engine(g: &Csr, devices: usize, options: EngineOptions) -> BlazeEngine {
        let storage = Arc::new(StripedStorage::in_memory(devices).unwrap());
        let graph = Arc::new(DiskGraph::create(g, storage).unwrap());
        BlazeEngine::new(graph, options).unwrap()
    }

    /// In-memory BFS parents -> levels for comparison.
    fn bfs_levels_ref(g: &Csr, root: u32) -> Vec<i64> {
        let mut level = vec![-1i64; g.num_vertices()];
        level[root as usize] = 0;
        let mut frontier = vec![root];
        let mut depth = 0;
        while !frontier.is_empty() {
            depth += 1;
            let mut next = Vec::new();
            for &v in &frontier {
                for &d in g.neighbors(v) {
                    if level[d as usize] == -1 {
                        level[d as usize] = depth;
                        next.push(d);
                    }
                }
            }
            frontier = next;
        }
        level
    }

    /// Out-of-core BFS levels via edge_map.
    fn bfs_levels_engine(engine: &BlazeEngine, root: u32, sync: bool) -> Vec<i64> {
        let n = engine.num_vertices();
        let level = VertexArray::<i64>::new(n, -1);
        level.set(root as usize, 0);
        let mut frontier = VertexSubset::single(n, root);
        let mut depth: i64 = 0;
        while !frontier.is_empty() {
            depth += 1;
            let d = depth;
            let scatter = |_s: u32, _d: u32| 0u32;
            let cond = |dst: u32| level.get(dst as usize) == -1;
            frontier = if sync {
                engine
                    .edge_map(
                        &frontier,
                        EdgeMap::new(
                            scatter,
                            |dst: u32, _v: u32| {
                                level
                                    .fetch_update(dst as usize, |cur| (cur == -1).then_some(d))
                                    .is_ok()
                            },
                            cond,
                        )
                        .sync()
                        .with_output(),
                    )
                    .unwrap()
            } else {
                engine
                    .edge_map(
                        &frontier,
                        EdgeMap::new(
                            scatter,
                            |dst: u32, _v: u32| {
                                if level.get(dst as usize) == -1 {
                                    level.set(dst as usize, d);
                                    true
                                } else {
                                    false
                                }
                            },
                            cond,
                        )
                        .with_output(),
                    )
                    .unwrap()
            };
        }
        level.to_vec()
    }

    #[test]
    fn edge_map_bfs_matches_reference_single_device() {
        let g = rmat(&RmatConfig::new(9));
        let e = engine(&g, 1, EngineOptions::default());
        assert_eq!(bfs_levels_engine(&e, 0, false), bfs_levels_ref(&g, 0));
    }

    #[test]
    fn edge_map_bfs_matches_reference_striped() {
        let g = uniform(9, 8, 3);
        let e = engine(&g, 4, EngineOptions::default());
        assert_eq!(bfs_levels_engine(&e, 1, false), bfs_levels_ref(&g, 1));
    }

    #[test]
    fn sync_variant_matches_reference() {
        let g = rmat(&RmatConfig::new(8));
        let e = engine(&g, 2, EngineOptions::default());
        assert_eq!(bfs_levels_engine(&e, 0, true), bfs_levels_ref(&g, 0));
    }

    #[test]
    fn edge_map_with_many_threads() {
        let g = rmat(&RmatConfig::new(8));
        let e = engine(&g, 2, EngineOptions::default().with_compute_workers(8, 0.5));
        assert_eq!(bfs_levels_engine(&e, 0, false), bfs_levels_ref(&g, 0));
    }

    #[test]
    fn full_frontier_touches_every_edge() {
        let g = rmat(&RmatConfig::new(8));
        let e = engine(&g, 1, EngineOptions::default());
        let frontier = VertexSubset::full(g.num_vertices());
        let sum = VertexArray::<u64>::new(g.num_vertices(), 0);
        e.edge_map(
            &frontier,
            EdgeMap::new(
                |_s, _d| 1u32,
                |dst, v| {
                    sum.set(dst as usize, sum.get(dst as usize) + v as u64);
                    true
                },
                |_| true,
            ),
        )
        .unwrap();
        let total: u64 = (0..g.num_vertices()).map(|i| sum.get(i)).sum();
        assert_eq!(total, g.num_edges(), "every edge delivered exactly once");
        let stats = e.stats();
        assert_eq!(stats.edges_processed, g.num_edges());
        assert_eq!(stats.records_produced, g.num_edges());
    }

    #[test]
    fn cond_filters_scatter() {
        let g = rmat(&RmatConfig::new(8));
        let e = engine(&g, 1, EngineOptions::default());
        let frontier = VertexSubset::full(g.num_vertices());
        // cond rejects everything: no records, no gather calls.
        let out = e
            .edge_map(
                &frontier,
                EdgeMap::new(
                    |_s, _d| 0u32,
                    |_dst, _v| panic!("gather must not run"),
                    |_| false,
                )
                .with_output(),
            )
            .unwrap();
        assert!(out.is_empty());
        assert_eq!(e.stats().records_produced, 0);
        assert_eq!(e.stats().edges_processed, g.num_edges());
    }

    #[test]
    fn output_false_returns_empty_frontier() {
        let g = rmat(&RmatConfig::new(7));
        let e = engine(&g, 1, EngineOptions::default());
        let frontier = VertexSubset::full(g.num_vertices());
        let out = e
            .edge_map(
                &frontier,
                EdgeMap::new(|_s, _d| 0u32, |_d, _v| true, |_| true),
            )
            .unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn empty_frontier_is_a_no_op() {
        let g = rmat(&RmatConfig::new(7));
        let e = engine(&g, 1, EngineOptions::default());
        let mut frontier = VertexSubset::new(g.num_vertices());
        frontier.seal();
        let out = e
            .edge_map(
                &frontier,
                EdgeMap::new(|_s, _d| 0u32, |_d, _v| true, |_| true).with_output(),
            )
            .unwrap();
        assert!(out.is_empty());
        assert_eq!(e.stats().io_bytes, 0);
    }

    #[test]
    fn traces_record_io_and_work() {
        let g = rmat(&RmatConfig::new(9));
        let e = engine(&g, 2, EngineOptions::default());
        let frontier = VertexSubset::full(g.num_vertices());
        e.edge_map(&frontier, EdgeMap::new(|s, _d| s, |_d, _v| false, |_| true))
            .unwrap();
        let traces = e.take_traces();
        assert_eq!(traces.len(), 1);
        let t = &traces[0];
        assert_eq!(t.io_bytes_per_device.len(), 2);
        assert!(
            t.total_io_bytes() >= g.num_edges() * 4,
            "every edge byte read"
        );
        assert_eq!(t.edges_processed, g.num_edges());
        assert_eq!(t.records_per_bin.iter().sum::<u64>(), t.records_produced);
        // Page interleaving keeps the per-device IO balanced (Section IV-E).
        let max = *t.io_bytes_per_device.iter().max().unwrap();
        let min = *t.io_bytes_per_device.iter().min().unwrap();
        assert!(max - min <= 8 * 4096, "skew {max}-{min}");
        // A full-frontier scan reads contiguous pages: merging must produce
        // mostly multi-page (sequential) requests.
        assert!(
            t.total_io_requests() < t.total_io_bytes() / 4096,
            "requests should cover merged pages"
        );
    }

    #[test]
    fn sparse_frontier_reads_only_needed_pages() {
        let g = rmat(&RmatConfig::new(10));
        let e = engine(&g, 1, EngineOptions::default());
        // One low-degree vertex: IO should be a handful of pages, not the
        // whole graph.
        let v = (0..g.num_vertices() as u32)
            .find(|&v| g.degree(v) >= 1 && g.degree(v) <= 8)
            .unwrap();
        let frontier = VertexSubset::single(g.num_vertices(), v);
        e.edge_map(&frontier, EdgeMap::new(|s, _d| s, |_d, _v| false, |_| true))
            .unwrap();
        let io = e.stats().io_bytes;
        assert!(io <= 4 * 4096, "sparse frontier read {io} bytes");
        assert!(io >= 4096);
    }

    #[test]
    fn page_cache_serves_repeated_iterations() {
        let g = rmat(&RmatConfig::new(9));
        let e = engine(&g, 2, EngineOptions::default().with_page_cache(1 << 16));
        let frontier = VertexSubset::full(g.num_vertices());
        for _ in 0..2 {
            e.edge_map(&frontier, EdgeMap::new(|s, _d| s, |_d, _v| false, |_| true))
                .unwrap();
        }
        let traces = e.take_traces();
        assert_eq!(traces[0].cache_hit_pages, 0, "cold cache");
        let pages = traces[0].total_io_bytes() / 4096;
        assert_eq!(traces[0].cache_miss_pages, pages, "cold pass all misses");
        assert_eq!(traces[1].cache_hit_pages, pages, "second pass fully cached");
        assert_eq!(traces[1].cache_miss_pages, 0);
        assert_eq!(traces[1].total_io_bytes(), 0, "no device reads when cached");
        let stats = e.stats();
        assert_eq!(stats.cache_hit_pages, pages);
        assert_eq!(stats.cache_miss_pages, pages);
    }

    #[test]
    fn zero_budget_bypasses_cache_entirely() {
        let g = rmat(&RmatConfig::new(9));
        let uncached = engine(&g, 2, EngineOptions::default());
        let bypassed = engine(&g, 2, EngineOptions::default().with_cache_bytes(0));
        assert!(bypassed.page_cache().is_none(), "0 bytes means no cache");
        // Sub-page budgets round down to zero frames and are also bypassed.
        let tiny = engine(&g, 2, EngineOptions::default().with_cache_bytes(100));
        assert!(tiny.page_cache().is_none());
        let frontier = VertexSubset::full(g.num_vertices());
        for e in [&uncached, &bypassed] {
            for _ in 0..2 {
                e.edge_map(&frontier, EdgeMap::new(|s, _d| s, |_d, _v| false, |_| true))
                    .unwrap();
            }
        }
        let a = uncached.take_traces();
        let b = bypassed.take_traces();
        for (ta, tb) in a.iter().zip(&b) {
            assert_eq!(ta.io_bytes_per_device, tb.io_bytes_per_device);
            assert_eq!(ta.io_requests_per_device, tb.io_requests_per_device);
            assert_eq!(
                ta.io_sequential_requests_per_device,
                tb.io_sequential_requests_per_device
            );
            assert_eq!(tb.cache_hit_pages, 0);
            assert_eq!(tb.cache_miss_pages, 0);
            assert_eq!(tb.cache_evictions, 0);
        }
    }

    #[test]
    fn cache_hit_splits_merged_runs() {
        // Prime only the middle page of a contiguous three-page run: the
        // next scan must serve it from the cache and read the two
        // neighbors as two separate single-page requests.
        let g = rmat(&RmatConfig::new(10));
        let e = engine(&g, 1, EngineOptions::default().with_page_cache(1));
        let n = g.num_vertices();
        // A vertex whose single page sits strictly inside the page range of
        // a full scan.
        let v = (0..n as u32)
            .find(|&v| {
                e.graph()
                    .pages_of_vertex(v)
                    .is_some_and(|r| r.start() == r.end() && *r.start() > 0)
            })
            .unwrap();
        e.edge_map(
            &VertexSubset::single(n, v),
            EdgeMap::new(|s, _d| s, |_d, _v| false, |_| true),
        )
        .unwrap();
        let frontier = VertexSubset::full(n);
        e.edge_map(&frontier, EdgeMap::new(|s, _d| s, |_d, _v| false, |_| true))
            .unwrap();
        let traces = e.take_traces();
        let t = &traces[1];
        assert!(t.cache_hit_pages >= 1, "primed page must hit");
        // The hole forces at least one extra request versus unbroken
        // merging of the same page count.
        let pages = (t.total_io_bytes() / 4096) as usize;
        let window = e.options().merge_window as u64;
        assert!(
            t.total_io_requests() > (pages as u64).div_ceil(window),
            "a mid-run hit must split a merged request"
        );
    }

    #[test]
    fn cached_bfs_matches_reference() {
        let g = rmat(&RmatConfig::new(9));
        let e = engine(&g, 1, EngineOptions::default().with_page_cache(128));
        assert_eq!(bfs_levels_engine(&e, 0, false), bfs_levels_ref(&g, 0));
        let s = e.page_cache().unwrap().stats();
        assert!(s.hits + s.misses > 0);
    }

    #[test]
    fn tiny_cache_partially_serves() {
        let g = rmat(&RmatConfig::new(10));
        let e = engine(&g, 1, EngineOptions::default().with_page_cache(4));
        let frontier = VertexSubset::full(g.num_vertices());
        for _ in 0..2 {
            e.edge_map(&frontier, EdgeMap::new(|s, _d| s, |_d, _v| false, |_| true))
                .unwrap();
        }
        let traces = e.take_traces();
        let pages = traces[0].total_io_bytes() / 4096;
        assert!(
            traces[1].cache_hit_pages < pages / 2,
            "4-page cache cannot serve a scan"
        );
        assert!(traces[1].total_io_bytes() > 0);
    }

    #[test]
    fn atomic_ops_counted_only_in_sync_variant() {
        let g = rmat(&RmatConfig::new(8));
        let e = engine(&g, 1, EngineOptions::default());
        let frontier = VertexSubset::full(g.num_vertices());
        e.edge_map(
            &frontier,
            EdgeMap::new(|_s, _d| 0u32, |_d, _v| false, |_| true),
        )
        .unwrap();
        let t = e.take_traces().pop().unwrap();
        assert_eq!(t.atomic_ops, 0);
        e.edge_map(
            &frontier,
            EdgeMap::new(|_s, _d| 0u32, |_d, _v| false, |_| true).sync(),
        )
        .unwrap();
        let t = e.take_traces().pop().unwrap();
        assert_eq!(t.atomic_ops, g.num_edges());
    }

    #[test]
    fn arena_is_reused_across_iterations() {
        let g = rmat(&RmatConfig::new(8));
        let e = engine(&g, 1, EngineOptions::default());
        let frontier = VertexSubset::full(g.num_vertices());
        e.edge_map(&frontier, EdgeMap::new(|s, _d| s, |_d, _v| false, |_| true))
            .unwrap();
        // A clean job recycles its pool and bin space into the arena cache.
        assert_eq!(e.arena.idle_len(), 2);
        e.edge_map(&frontier, EdgeMap::new(|s, _d| s, |_d, _v| false, |_| true))
            .unwrap();
        assert_eq!(e.arena.idle_len(), 2, "second job reused the cached arena");
    }

    #[test]
    fn threaded_backend_bfs_matches_reference() {
        let g = uniform(9, 8, 7);
        for devices in [1, 4] {
            let e = engine(&g, devices, EngineOptions::default().with_queue_depth(8));
            assert_eq!(bfs_levels_engine(&e, 1, false), bfs_levels_ref(&g, 1));
            // And with the cache in the loop (packed hit buffers + deep
            // queue on the miss path).
            let e = engine(
                &g,
                devices,
                EngineOptions::default()
                    .with_queue_depth(8)
                    .with_page_cache(64),
            );
            assert_eq!(bfs_levels_engine(&e, 1, false), bfs_levels_ref(&g, 1));
        }
    }

    #[test]
    fn traces_record_in_flight_depth() {
        // Big enough that one device sees well over `queue_depth` merged
        // requests (4096 vertices × 16 edges ≈ 64 pages ≈ 16 requests).
        let g = uniform(12, 16, 3);
        let frontier = VertexSubset::full(g.num_vertices());
        // Synchronous backend: exactly one request in flight, ever.
        let e = engine(&g, 2, EngineOptions::default());
        e.edge_map(&frontier, EdgeMap::new(|s, _d| s, |_d, _v| false, |_| true))
            .unwrap();
        let t = e.take_traces().pop().unwrap();
        assert_eq!(t.io_max_in_flight, 1);
        assert!((t.io_mean_in_flight - 1.0).abs() < 1e-9);
        assert_eq!(
            t.io_latency_buckets.iter().sum::<u64>(),
            t.total_io_requests(),
            "every request lands in one latency bucket"
        );
        assert_eq!(e.stats().io_max_in_flight, 1);
        // Threaded backend: the pump fills the window before reaping, so a
        // scan with enough requests per device must reach the full depth.
        let e = engine(&g, 1, EngineOptions::default().with_queue_depth(8));
        e.edge_map(&frontier, EdgeMap::new(|s, _d| s, |_d, _v| false, |_| true))
            .unwrap();
        let t = e.take_traces().pop().unwrap();
        assert!(t.total_io_requests() >= 8, "scan too small for the window");
        assert_eq!(t.io_max_in_flight, 8);
        assert!(t.io_mean_in_flight > 1.0);
        assert!(t.io_mean_in_flight <= 8.0);
        assert_eq!(
            t.io_latency_buckets.iter().sum::<u64>(),
            t.total_io_requests()
        );
        assert_eq!(e.stats().io_max_in_flight, 8);
    }

    #[test]
    fn packed_cache_hits_deliver_every_edge() {
        // A fully-cached second scan serves hits from *packed* buffers
        // (many frames per buffer); every edge must still be delivered
        // exactly once through the frame ↔ pages[i] mapping.
        let g = rmat(&RmatConfig::new(9));
        let e = engine(&g, 2, EngineOptions::default().with_page_cache(1 << 16));
        let frontier = VertexSubset::full(g.num_vertices());
        for pass in 0..2 {
            let sum = VertexArray::<u64>::new(g.num_vertices(), 0);
            e.edge_map(
                &frontier,
                EdgeMap::new(
                    |_s, _d| 1u32,
                    |dst, v| {
                        sum.set(dst as usize, sum.get(dst as usize) + v as u64);
                        true
                    },
                    |_| true,
                ),
            )
            .unwrap();
            let total: u64 = (0..g.num_vertices()).map(|i| sum.get(i)).sum();
            assert_eq!(total, g.num_edges(), "pass {pass} delivered every edge");
        }
        let traces = e.take_traces();
        let pages = traces[0].total_io_bytes() / 4096;
        assert_eq!(traces[1].cache_hit_pages, pages, "second pass fully cached");
        assert_eq!(traces[1].total_io_bytes(), 0);
    }

    #[test]
    fn io_error_fails_job_and_recycles_arena() {
        use blaze_storage::{FaultyDevice, MemDevice, StripedStorage};
        let g = rmat(&RmatConfig::new(8));
        let storage = Arc::new(
            StripedStorage::new(vec![Arc::new(FaultyDevice::fail_every(
                MemDevice::new(),
                1,
            ))])
            .unwrap(),
        );
        let graph = Arc::new(DiskGraph::create(&g, storage).unwrap());
        let e = BlazeEngine::new(graph, EngineOptions::default()).unwrap();
        let frontier = VertexSubset::full(g.num_vertices());
        let r = e.edge_map(&frontier, EdgeMap::new(|s, _d| s, |_d, _v| false, |_| true));
        assert!(matches!(r, Err(BlazeError::Io(_))), "got {r:?}");
        // The job drained cleanly: its pool returned every buffer and both
        // arena pieces were recycled for the next job.
        assert_eq!(e.arena.idle_len(), 2, "failed job must recycle its arena");
    }

    #[test]
    fn io_error_under_threaded_backend_drains_and_fails() {
        use blaze_storage::{FaultyDevice, MemDevice, StripedStorage};
        let g = uniform(12, 16, 3);
        // Every third read fails: successes and failures interleave in the
        // completion stream at depth 8, exercising the drain path.
        let storage = Arc::new(
            StripedStorage::new(vec![Arc::new(FaultyDevice::fail_every(
                MemDevice::new(),
                3,
            ))])
            .unwrap(),
        );
        let graph = Arc::new(DiskGraph::create(&g, storage).unwrap());
        let e = BlazeEngine::new(graph, EngineOptions::default().with_queue_depth(8)).unwrap();
        let frontier = VertexSubset::full(g.num_vertices());
        let r = e.edge_map(&frontier, EdgeMap::new(|s, _d| s, |_d, _v| false, |_| true));
        assert!(matches!(r, Err(BlazeError::Io(_))), "got {r:?}");
        assert_eq!(e.arena.idle_len(), 2, "drained job must recycle its arena");
    }

    /// Full-frontier edge-count scan: delivers every edge exactly once
    /// when correct, so the returned sum doubles as a delivery check.
    fn edge_sum(e: &BlazeEngine) -> u64 {
        let n = e.num_vertices();
        let frontier = VertexSubset::full(n);
        let sum = VertexArray::<u64>::new(n, 0);
        e.edge_map(
            &frontier,
            EdgeMap::new(
                |_s, _d| 1u32,
                |dst, v| {
                    sum.set(dst as usize, sum.get(dst as usize) + v as u64);
                    true
                },
                |_| true,
            ),
        )
        .unwrap();
        (0..n).map(|i| sum.get(i)).sum()
    }

    #[test]
    fn retained_flights_serve_back_to_back_scans() {
        // With scan sharing on and no page cache, the retention ring alone
        // must serve a repeat scan: every page of the second pass joins a
        // retained flight and zero device bytes move.
        let g = rmat(&RmatConfig::new(9));
        let e = engine(&g, 2, EngineOptions::default().with_scan_sharing(true));
        assert_eq!(edge_sum(&e), g.num_edges(), "first pass delivery");
        assert_eq!(edge_sum(&e), g.num_edges(), "shared-frame pass delivery");
        let traces = e.take_traces();
        let pages = traces[0].total_io_bytes() / PAGE_SIZE as u64;
        assert!(traces[0].flights_led > 0, "cold pass leads its reads");
        assert_eq!(
            traces[0].shared_hit_pages, 0,
            "cold pass has nothing to join"
        );
        assert_eq!(traces[1].total_io_bytes(), 0, "repeat scan fully shared");
        assert_eq!(traces[1].shared_hit_pages, pages);
        assert_eq!(traces[1].flights_led, 0);
        let stats = e.stats();
        assert_eq!(stats.shared_hit_pages, pages);
        assert_eq!(stats.shared_bytes, pages * PAGE_SIZE as u64);
        assert!(stats.flights_led > 0);
    }

    #[test]
    fn zero_retention_scan_sharing_still_reads_everything() {
        // retain = 0: only concurrently-pending flights coalesce, so two
        // back-to-back scans both pay full device IO — and both deliver.
        let g = rmat(&RmatConfig::new(8));
        let e = engine(
            &g,
            1,
            EngineOptions::default()
                .with_scan_sharing(true)
                .with_scan_share_retain(0),
        );
        assert_eq!(edge_sum(&e), g.num_edges());
        assert_eq!(edge_sum(&e), g.num_edges());
        let traces = e.take_traces();
        assert_eq!(traces[0].total_io_bytes(), traces[1].total_io_bytes());
        assert_eq!(traces[1].shared_hit_pages, 0);
    }

    #[test]
    fn concurrent_shared_scans_conserve_pages_and_deliver_every_edge() {
        // K identical concurrent full scans under sharing: each job's
        // device pages + shared pages must equal the solo page count (every
        // planned page lands in exactly one flight part), every job's edge
        // delivery must be exact, and — with flights either pending or
        // retained whenever a later planner arrives — somebody shares.
        let g = rmat(&RmatConfig::new(9));
        let solo = engine(&g, 2, EngineOptions::default());
        assert_eq!(edge_sum(&solo), g.num_edges());
        let solo_pages = solo.take_traces()[0].total_io_bytes() / PAGE_SIZE as u64;
        let e = engine(
            &g,
            2,
            EngineOptions::default()
                .with_scan_sharing(true)
                .with_scan_share_lanes(4),
        );
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..4).map(|_| s.spawn(|| edge_sum(&e))).collect();
            for h in handles {
                assert_eq!(h.join().unwrap(), g.num_edges());
            }
        });
        let traces = e.take_traces();
        assert_eq!(traces.len(), 4);
        for t in &traces {
            let device_pages = t.total_io_bytes() / PAGE_SIZE as u64;
            assert_eq!(
                device_pages + t.shared_hit_pages,
                solo_pages,
                "every page read once or shared"
            );
        }
        let stats = e.stats();
        assert!(stats.shared_hit_pages > 0, "concurrent scans must share");
        assert!(stats.flights_led > 0);
    }

    #[test]
    fn failed_leader_wave_does_not_wedge_the_next_wave() {
        use blaze_storage::{FaultyDevice, MemDevice, StripedStorage};
        // Wave 1: every device read fails, so leaders fail their flights
        // and subscribers see the propagated error — all jobs fail. Heal
        // the device; wave 2 on the same engine must succeed: no wedged
        // waiters, no leaked flights, arena fully recycled.
        let g = rmat(&RmatConfig::new(8));
        let dev = Arc::new(FaultyDevice::fail_every(MemDevice::new(), 1));
        let storage = Arc::new(StripedStorage::new(vec![dev.clone()]).unwrap());
        let graph = Arc::new(DiskGraph::create(&g, storage).unwrap());
        let e = BlazeEngine::new(
            graph,
            EngineOptions::default()
                .with_scan_sharing(true)
                .with_scan_share_lanes(4),
        )
        .unwrap();
        let frontier = VertexSubset::full(g.num_vertices());
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        e.edge_map(&frontier, EdgeMap::new(|s, _d| s, |_d, _v| false, |_| true))
                    })
                })
                .collect();
            for h in handles {
                let r = h.join().unwrap();
                assert!(matches!(r, Err(BlazeError::Io(_))), "got {r:?}");
            }
        });
        assert!(dev.injected_failures() > 0);
        // Concurrent jobs may have forced extra arenas into existence, but
        // every piece checked out must be back (pool + space pairs).
        let idle = e.arena.idle_len();
        assert!(
            idle >= 2 && idle.is_multiple_of(2),
            "failed wave recycled its arenas, idle {idle}"
        );
        dev.set_fail_every(0);
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..4).map(|_| s.spawn(|| edge_sum(&e))).collect();
            for h in handles {
                assert_eq!(h.join().unwrap(), g.num_edges(), "healed wave delivers");
            }
        });
    }

    #[test]
    fn shared_scans_match_unshared_byte_identical_traces() {
        // Sharing off vs a solo job with sharing on: identical request
        // streams (one lane, no joins possible solo after reset) — the
        // flight table must be IO-invisible to a lone job with retention 0.
        let g = rmat(&RmatConfig::new(9));
        let plain = engine(&g, 2, EngineOptions::default());
        let shared = engine(
            &g,
            2,
            EngineOptions::default()
                .with_scan_sharing(true)
                .with_scan_share_retain(0),
        );
        assert_eq!(edge_sum(&plain), g.num_edges());
        assert_eq!(edge_sum(&shared), g.num_edges());
        let a = plain.take_traces();
        let b = shared.take_traces();
        assert_eq!(a[0].io_bytes_per_device, b[0].io_bytes_per_device);
        assert_eq!(a[0].io_requests_per_device, b[0].io_requests_per_device);
        assert_eq!(b[0].shared_hit_pages, 0);
    }

    /// A star graph: every vertex points at vertex 0, so every staged
    /// record shares one destination and scatter-side combining is
    /// guaranteed to merge within every staging window.
    fn star(n: usize) -> Csr {
        let offsets = (0..=n as u64).collect();
        let neighbors = vec![0u32; n];
        Csr::from_parts(offsets, neighbors)
    }

    #[test]
    fn combined_edge_map_matches_uncombined() {
        for g in [rmat(&RmatConfig::new(9)), star(3000)] {
            let e = engine(&g, 2, EngineOptions::default());
            let frontier = VertexSubset::full(g.num_vertices());
            let run = |combined: bool| {
                let sum = VertexArray::<u64>::new(g.num_vertices(), 0);
                let scatter = |_s: u32, _d: u32| 1u64;
                let gather = |dst: u32, v: u64| {
                    sum.set(dst as usize, sum.get(dst as usize) + v);
                    true
                };
                if combined {
                    e.edge_map(
                        &frontier,
                        EdgeMap::new(scatter, gather, |_| true).combine(|a, b| a + b),
                    )
                    .unwrap();
                } else {
                    e.edge_map(&frontier, EdgeMap::new(scatter, gather, |_| true))
                        .unwrap();
                }
                (0..g.num_vertices())
                    .map(|i| sum.get(i))
                    .collect::<Vec<_>>()
            };
            assert_eq!(run(false), run(true), "combining must not change sums");
        }
    }

    #[test]
    fn combining_reduces_records_on_a_star_graph() {
        let g = star(3000);
        let e = engine(&g, 1, EngineOptions::default());
        let frontier = VertexSubset::full(g.num_vertices());
        e.edge_map(
            &frontier,
            EdgeMap::new(|_s, _d| 1u64, |_d, _v| false, |_| true).combine(|a, b| a + b),
        )
        .unwrap();
        let t = e.take_traces().pop().unwrap();
        assert_eq!(
            t.records_combined + t.records_produced,
            g.num_edges(),
            "pre-combine stream is edges passing cond"
        );
        assert!(
            t.records_combined > t.records_produced,
            "a single-hub graph must combine most records \
             ({} combined, {} produced)",
            t.records_combined,
            t.records_produced
        );
        // The uncombined path reports zero.
        e.edge_map(
            &frontier,
            EdgeMap::new(|_s, _d| 1u64, |_d, _v| false, |_| true),
        )
        .unwrap();
        let t = e.take_traces().pop().unwrap();
        assert_eq!(t.records_combined, 0);
        assert_eq!(t.records_produced, g.num_edges());
    }

    #[test]
    fn bytewise_decode_matches_zero_copy() {
        let g = rmat(&RmatConfig::new(9));
        let e = engine(&g, 2, EngineOptions::default().with_bytewise_decode(true));
        assert_eq!(bfs_levels_engine(&e, 0, false), bfs_levels_ref(&g, 0));
    }

    #[test]
    fn traces_record_compute_stage_timings() {
        let g = rmat(&RmatConfig::new(9));
        let e = engine(&g, 1, EngineOptions::default());
        let frontier = VertexSubset::full(g.num_vertices());
        e.edge_map(&frontier, EdgeMap::new(|s, _d| s, |_d, _v| false, |_| true))
            .unwrap();
        let t = e.take_traces().pop().unwrap();
        assert!(t.scatter_ns > 0, "scatter walked every page");
        assert!(t.gather_ns > 0, "gather applied full bins");
        let s = e.stats();
        assert_eq!(s.scatter_ns, t.scatter_ns);
        assert_eq!(s.gather_ns, t.gather_ns);
        // The sync variant never runs gather workers.
        e.edge_map(
            &frontier,
            EdgeMap::new(|s, _d| s, |_d, _v| false, |_| true).sync(),
        )
        .unwrap();
        let t = e.take_traces().pop().unwrap();
        assert!(t.scatter_ns > 0);
        assert_eq!(t.gather_ns, 0);
    }

    /// Barrier-free BFS via `edge_map_async`: min-relax levels, priority =
    /// current level (lower levels drain first, Dijkstra-style).
    fn bfs_levels_async(engine: &BlazeEngine, root: u32) -> Vec<i64> {
        let n = engine.num_vertices();
        let level = VertexArray::<i64>::new(n, -1);
        level.set(root as usize, 0);
        let snap = engine
            .edge_map_async(
                &[root],
                EdgeMap::new(
                    |s: u32, _d: u32| (level.get(s as usize) + 1) as u64,
                    |dst: u32, lvl: u64| {
                        let lvl = lvl as i64;
                        let cur = level.get(dst as usize);
                        if cur == -1 || lvl < cur {
                            level.set(dst as usize, lvl);
                            true
                        } else {
                            false
                        }
                    },
                    |_| true,
                ),
                |v: u32| level.get(v as usize).max(0) as u64,
            )
            .unwrap();
        assert!(snap.batches >= 1, "a seeded run drains at least one batch");
        assert_eq!(snap.pushed, snap.popped, "quiescent: every push was popped");
        level.to_vec()
    }

    #[test]
    fn async_edge_map_bfs_matches_reference() {
        let g = rmat(&RmatConfig::new(9));
        let e = engine(&g, 2, EngineOptions::default());
        assert_eq!(bfs_levels_async(&e, 0), bfs_levels_ref(&g, 0));
        let stats = e.stats();
        assert!(stats.async_rounds >= 1, "rounds must be traced as async");
        assert_eq!(stats.iterations as u64, stats.async_rounds);
        assert!(stats.async_activations >= 1);
        let traces = e.take_traces();
        assert!(traces.iter().all(|t| t.async_round));
        assert_eq!(
            traces.iter().map(|t| t.async_activations).sum::<u64>(),
            stats.async_activations
        );
    }

    #[test]
    fn async_tiny_batches_still_converge() {
        // Batch cap far below the frontier size plus a saturating bucket
        // count: overflow re-queueing and bucket saturation both exercised.
        let g = uniform(9, 8, 3);
        let e = engine(
            &g,
            1,
            EngineOptions::default()
                .with_async_batch_max(16)
                .with_async_buckets(4),
        );
        assert_eq!(bfs_levels_async(&e, 1), bfs_levels_ref(&g, 1));
    }

    #[test]
    fn async_rounds_interleave_with_barriered_jobs() {
        // One engine serves an async run and a barriered BFS back to back;
        // the sync path's traces must stay un-flagged.
        let g = rmat(&RmatConfig::new(8));
        let e = engine(&g, 1, EngineOptions::default());
        assert_eq!(bfs_levels_async(&e, 0), bfs_levels_ref(&g, 0));
        e.take_traces();
        assert_eq!(bfs_levels_engine(&e, 0, false), bfs_levels_ref(&g, 0));
        assert!(e.take_traces().iter().all(|t| !t.async_round));
    }

    #[test]
    fn panicking_job_leaves_engine_usable() {
        let g = rmat(&RmatConfig::new(8));
        let e = engine(&g, 1, EngineOptions::default());
        let frontier = VertexSubset::full(g.num_vertices());
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            e.edge_map(
                &frontier,
                EdgeMap::new(
                    |_s, _d| -> u32 { panic!("user scatter exploded") },
                    |_d, _v| false,
                    |_| true,
                ),
            )
        }));
        assert!(caught.is_err(), "scatter panic must reach the submitter");
        // The persistent workers survive a poisoned job; the same engine
        // serves the next query correctly.
        assert_eq!(bfs_levels_engine(&e, 0, false), bfs_levels_ref(&g, 0));
    }
}
