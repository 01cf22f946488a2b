//! The one `EdgeMap` interface every engine implements (Algorithms 1–3 of
//! the paper, after Ligra's `EdgeMap`/`VertexMap`).
//!
//! A query is written once against [`GraphEngine`] and runs unchanged on
//! the Blaze engine, a scale-out cluster, and the FlashGraph-like and
//! Graphene-like baselines. Each `EdgeMap` call is described by one
//! [`EdgeMap`] spec — the `scatter`/`gather`/`cond` closures, whether the
//! activated destinations form the output frontier, an optional
//! scatter-side `combine`, and the [`EdgeMapMode`] that says how values
//! reach vertex data. An engine that cannot run a mode returns
//! [`BlazeError::Config`].

use blaze_binning::BinValue;
use blaze_frontier::{PriorityFrontier, PrioritySnapshot, VertexSubset};
use blaze_graph::VertexPermutation;
use blaze_types::{BlazeError, Result, VertexId};

/// How a query propagates values to vertex data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// Online binning (the Blaze contribution): gather threads own bins
    /// exclusively, vertex updates are plain stores.
    #[default]
    Binned,
    /// Synchronization-based variant (Figure 8b): scatter threads update
    /// vertex data directly with compare-and-swap.
    Sync,
    /// Asynchronous priority-frontier execution: no per-iteration barrier;
    /// gather workers feed newly-activated vertices straight back into a
    /// bucketed priority frontier. Only *monotone* algorithms (BFS, SSSP,
    /// WCC, k-core, label propagation) support it; they converge to results
    /// bit-identical to their barriered oracle.
    Async,
}

impl ExecMode {
    /// Parses a `-mode` flag value. Accepts `binned`, `sync`, `async`.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "binned" => Some(ExecMode::Binned),
            "sync" => Some(ExecMode::Sync),
            "async" => Some(ExecMode::Async),
            _ => None,
        }
    }
}

impl std::fmt::Display for ExecMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecMode::Binned => write!(f, "binned"),
            ExecMode::Sync => write!(f, "sync"),
            ExecMode::Async => write!(f, "async"),
        }
    }
}

/// How one `EdgeMap` delivers scattered values to `gather`.
#[derive(Debug, Clone, Copy)]
pub enum EdgeMapMode<'a> {
    /// Records go through bins; each destination is gathered by one thread
    /// at a time, so `gather` may use plain `get`/`set`.
    Binned,
    /// No bins: scatter threads call `gather` directly, so it must update
    /// vertex data with atomic read-modify-write operations.
    Sync,
    /// One barrier-free round of an async drain: `bucket` is the bucket the
    /// frontier was drained from, and `gather` re-queues the vertices it
    /// activates into `frontier`. The engine records the round's pushes.
    Async {
        /// The bucket this round's frontier was popped from.
        bucket: u64,
        /// The priority frontier the round's activations feed.
        frontier: &'a PriorityFrontier,
    },
}

/// One `EdgeMap`: for every edge `(src, dst)` with `src` in the frontier
/// and `cond(dst)` true, `gather(dst, scatter(src, dst))` runs; when
/// `output` is set, the destinations for which `gather` returned `true`
/// form the returned frontier.
///
/// `combine`, when set, merges two staged records with the same
/// destination into one before they reach the bins. It must be
/// associative and agree with `gather`'s accumulation (addition for
/// PageRank deltas, `min` for label propagation), so results match the
/// uncombined run. Engines without scatter staging ignore it.
#[derive(Clone, Copy)]
pub struct EdgeMap<'a, FS, FG, FC, FM> {
    /// `scatter(src, dst) -> value`, run on the scatter side.
    pub scatter: FS,
    /// `gather(dst, value) -> activated`, applied to vertex data.
    pub gather: FG,
    /// `cond(dst)`: edges whose destination fails it are skipped.
    pub cond: FC,
    /// Associative same-destination merge for staged records.
    pub combine: Option<FM>,
    /// Whether activated destinations form the returned frontier.
    pub output: bool,
    /// How values reach `gather`.
    pub mode: EdgeMapMode<'a>,
}

impl<V, FS, FG, FC> EdgeMap<'static, FS, FG, FC, fn(V, V) -> V>
where
    FS: Fn(VertexId, VertexId) -> V,
    FG: Fn(VertexId, V) -> bool,
    FC: Fn(VertexId) -> bool,
{
    /// A binned `EdgeMap` with no output frontier and no combining.
    pub fn new(scatter: FS, gather: FG, cond: FC) -> Self {
        Self {
            scatter,
            gather,
            cond,
            combine: None,
            output: false,
            mode: EdgeMapMode::Binned,
        }
    }
}

impl<'a, FS, FG, FC, FM> EdgeMap<'a, FS, FG, FC, FM> {
    /// Returns the activated destinations as the output frontier.
    pub fn with_output(mut self) -> Self {
        self.output = true;
        self
    }

    /// Runs the synchronization-based variant ([`EdgeMapMode::Sync`]).
    pub fn sync(mut self) -> Self {
        self.mode = EdgeMapMode::Sync;
        self
    }

    /// Merges same-destination records with `combine` on the scatter side.
    pub fn combine<V, FM2>(self, combine: FM2) -> EdgeMap<'a, FS, FG, FC, FM2>
    where
        FS: Fn(VertexId, VertexId) -> V,
        FM2: Fn(V, V) -> V,
    {
        EdgeMap {
            scatter: self.scatter,
            gather: self.gather,
            cond: self.cond,
            combine: Some(combine),
            output: self.output,
            mode: self.mode,
        }
    }

    /// The same spec over borrowed closures, for handing one spec to
    /// several engines (the shards of a cluster, both WCC directions).
    pub fn by_ref(&self) -> EdgeMap<'a, &FS, &FG, &FC, &FM> {
        EdgeMap {
            scatter: &self.scatter,
            gather: &self.gather,
            cond: &self.cond,
            combine: self.combine.as_ref(),
            output: self.output,
            mode: self.mode,
        }
    }
}

/// The `Config` error an engine returns for a mode it cannot run.
pub fn unsupported_mode(engine: &str, mode: &EdgeMapMode<'_>) -> BlazeError {
    let mode = match mode {
        EdgeMapMode::Binned => "binned",
        EdgeMapMode::Sync => "sync",
        EdgeMapMode::Async { .. } => "async",
    };
    BlazeError::Config(format!("{engine} does not run {mode} edge maps"))
}

/// An engine that runs `EdgeMap`s and `VertexMap`s over one graph. All ids
/// crossing this interface are *physical*: queries translate through
/// [`layout`](Self::layout) at their own boundary.
pub trait GraphEngine: Sync {
    /// Number of vertices in the graph.
    fn num_vertices(&self) -> usize;

    /// The original ↔ physical vertex permutation of the graph.
    fn layout(&self) -> &VertexPermutation;

    /// Out-degree of physical vertex `v` in the whole graph.
    fn out_degree(&self, v: VertexId) -> u32;

    /// `VertexMap` (Section IV-B): applies `f` to every member of
    /// `frontier`; the result holds the members for which `f` returned
    /// `true`. `f` may run on several threads at once.
    fn vertex_map<F>(&self, frontier: &VertexSubset, f: F) -> VertexSubset
    where
        F: Fn(VertexId) -> bool + Sync;

    /// Runs one `EdgeMap` over the edges of `frontier`'s members.
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
        FM: Fn(V, V) -> V + Sync;

    /// The priority frontier's bucket count and per-round batch cap for
    /// async execution. Engines without async rounds keep the default,
    /// which rejects [`ExecMode::Async`].
    fn async_batching(&self) -> Result<(usize, usize)> {
        Err(BlazeError::Config(
            "this engine has no async mode; use binned or sync".into(),
        ))
    }

    /// Asynchronous `EdgeMap` for **monotone** algorithms: no per-iteration
    /// barrier. `seeds` are queued at their `priority`, then the most
    /// urgent batch is drained round after round, each activated vertex
    /// re-queued at its current `priority`, until the frontier is
    /// quiescent (no queued vertices, no batch in flight).
    ///
    /// `gather` must move vertex values in one direction only (e.g.
    /// min-relaxation) and return `true` iff it improved the value; then
    /// stale re-deliveries are no-ops and the fixpoint is bit-identical to
    /// the barriered run. The spec's `output` and `mode` are ignored.
    /// Returns the frontier's final counters.
    fn edge_map_async<V, FS, FG, FC, FM, FP>(
        &self,
        seeds: &[VertexId],
        spec: EdgeMap<'_, FS, FG, FC, FM>,
        priority: FP,
    ) -> Result<PrioritySnapshot>
    where
        V: BinValue,
        FS: Fn(VertexId, VertexId) -> V + Sync,
        FG: Fn(VertexId, V) -> bool + Sync,
        FC: Fn(VertexId) -> bool + Sync,
        FM: Fn(V, V) -> V + Sync,
        FP: Fn(VertexId) -> u64 + Sync,
    {
        let (buckets, batch_max) = self.async_batching()?;
        let pf = PriorityFrontier::new(self.num_vertices(), buckets);
        for &v in seeds {
            pf.push(v, priority(v));
        }
        while let Some((bucket, batch)) = pf.pop_batch(batch_max) {
            let round = self.edge_map_async_batch(&batch, bucket, &pf, spec.by_ref(), &priority);
            pf.complete_batch();
            round?;
        }
        debug_assert!(pf.is_quiescent(), "drained frontier must be quiescent");
        Ok(pf.snapshot())
    }

    /// One round of [`edge_map_async`](Self::edge_map_async): scatters
    /// `batch` (drained from bucket `bucket` of `pf`) and re-queues every
    /// vertex `gather` activates at its current `priority`. For algorithms
    /// that run several engines per batch (WCC's two directions, k-core)
    /// and so drive the drain loop themselves; call
    /// [`PriorityFrontier::complete_batch`] after the batch's last round.
    fn edge_map_async_batch<V, FS, FG, FC, FM, FP>(
        &self,
        batch: &[VertexId],
        bucket: u64,
        pf: &PriorityFrontier,
        spec: EdgeMap<'_, FS, FG, FC, FM>,
        priority: &FP,
    ) -> Result<()>
    where
        V: BinValue,
        FS: Fn(VertexId, VertexId) -> V + Sync,
        FG: Fn(VertexId, V) -> bool + Sync,
        FC: Fn(VertexId) -> bool + Sync,
        FM: Fn(V, V) -> V + Sync,
        FP: Fn(VertexId) -> u64 + Sync,
    {
        let frontier = VertexSubset::from_members(self.num_vertices(), batch.iter().copied());
        let gather = &spec.gather;
        let round = EdgeMap {
            scatter: spec.scatter,
            gather: |dst: VertexId, value: V| {
                if gather(dst, value) {
                    pf.push(dst, priority(dst));
                }
                false
            },
            cond: spec.cond,
            combine: spec.combine,
            output: false,
            mode: EdgeMapMode::Async {
                bucket,
                frontier: pf,
            },
        };
        self.edge_map(&frontier, round).map(drop)
    }
}
