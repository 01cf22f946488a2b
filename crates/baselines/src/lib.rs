//! Baseline out-of-core engines re-implementing the execution models the
//! paper analyzes (Sections II-D and III):
//!
//! * [`FlashGraphEngine`] — semi-external vertex-centric processing with
//!   **message passing**: edge processing appends messages to per-thread
//!   queues keyed by `dst % nthreads`, and a separate end-of-iteration
//!   phase drains them. On power-law graphs the queue sizes skew badly
//!   (*skewed computation*), stalling IO at each iteration tail
//!   (Figure 2). Includes the page cache that lets FlashGraph win on
//!   high-locality graphs like sk2005 (Section V-B).
//! * [`GrapheneEngine`] — **2-D topology-aware partitioning**: the edge
//!   grid is split into equal-edge blocks distributed over the disk array.
//!   Under selective scheduling the per-disk IO skews (*skewed IO*,
//!   Figure 3), and the one-IO-plus-one-compute-thread-per-disk policy
//!   caps per-disk throughput (*fast IO, slow computation*).
//!
//! Both engines implement [`GraphEngine`](blaze_core::GraphEngine), so the
//! queries in `blaze_algorithms` run on them unchanged. They execute
//! *functionally* (their results are checked against the same references
//! as Blaze) while recording the per-iteration work traces
//! ([`blaze_types::IterationTrace`]) that the performance model turns into
//! the paper's timing figures.

// The unsafe-audit rule (cargo xtask lint) keys off this: crates that
// need no unsafe code forbid it outright, so the audit scope cannot
// silently grow.
#![forbid(unsafe_code)]

pub mod flashgraph;
pub mod graphene;
pub mod stats_util;

pub use flashgraph::{FlashGraphEngine, FlashGraphOptions};
pub use graphene::{GrapheneEngine, GrapheneOptions};

use blaze_frontier::VertexSubset;
use blaze_sync::Mutex;
use blaze_types::{IterationTrace, VertexId};

/// The baselines' `VertexMap`: a serial pass over `frontier` whose size is
/// added to the last recorded iteration trace (for the performance model).
fn serial_vertex_map<F>(
    traces: &Mutex<Vec<IterationTrace>>,
    frontier: &VertexSubset,
    f: F,
) -> VertexSubset
where
    F: Fn(VertexId) -> bool,
{
    let mut out = VertexSubset::new(frontier.capacity());
    let mut count = 0u64;
    frontier.for_each(|v| {
        count += 1;
        if f(v) {
            out.insert(v);
        }
    });
    out.seal();
    if let Some(last) = traces.lock().last_mut() {
        last.vertex_map_size += count;
    }
    out
}
