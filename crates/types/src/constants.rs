//! Workspace-wide constants.
//!
//! Blaze reads disk-resident graphs in fixed-size pages and merges at most a
//! small number of contiguous pages per IO request; these constants pin the
//! values used throughout the paper (Section IV-C).

/// Size of one disk page in bytes. All on-disk layouts, IO requests, and the
/// RAID-0 stripe unit use this granularity.
pub const PAGE_SIZE: usize = 4096;

/// Number of 4-byte edge entries (neighbor vertex ids) that fit in one page.
pub const EDGES_PER_PAGE: usize = PAGE_SIZE / 4;

/// Maximum number of contiguous pages merged into a single IO request.
///
/// The paper finds that on fast NVMe drives merging beyond four pages stops
/// paying off: 4 KiB random IO is already fast, and large requests inflate
/// asynchronous-IO submission time (Section IV-C).
pub const MAX_MERGED_PAGES: usize = 4;

/// Cache line size assumed by the indirection-based graph index (Figure 6).
pub const CACHE_LINE: usize = 64;

/// Number of 4-byte vertex degrees packed into one cache line of the
/// indirection index (Figure 6).
pub const DEGREES_PER_LINE: usize = CACHE_LINE / 4;

/// Default number of bins for online binning (Section V-E: "one thousand
/// bins ... will provide good performance in general"). The default
/// configuration uses this many bins once the bin space is large enough;
/// smaller spaces get fewer (`BinningConfig::for_space`).
pub const DEFAULT_BIN_COUNT: usize = 1024;

/// Default ratio of total bin space to input graph size (Section IV-A:
/// "0.05x of the input graph size for bin space").
pub const DEFAULT_BIN_SPACE_RATIO: f64 = 0.05;

/// Default capacity of the per-thread staging buffer, in records per bin.
/// Mirrors the "small fixed size, per-CPU buffer" of propagation blocking.
pub const DEFAULT_STAGING_RECORDS: usize = 64;

/// Default amount of memory reserved for IO buffers (Section IV-F uses
/// 64 MiB for all workloads; we scale with the 1/1024-scale datasets).
pub const DEFAULT_IO_BUFFER_BYTES: usize = 4 << 20;

/// Default per-thread grain of the in-memory vertex-map phase: a frontier
/// smaller than `grain * threads` members runs serially, since forking
/// scoped threads costs more than the map itself at that size. With the
/// default four compute workers (two scatter + two gather) this reproduces
/// the engine's historical fixed serial threshold of 2048.
pub const DEFAULT_VERTEX_MAP_GRAIN: usize = 512;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_holds_whole_edges() {
        assert_eq!(PAGE_SIZE % 4, 0);
        assert_eq!(EDGES_PER_PAGE * 4, PAGE_SIZE);
    }

    #[test]
    fn cache_line_holds_whole_degrees() {
        assert_eq!(CACHE_LINE % 4, 0);
        assert_eq!(DEGREES_PER_LINE, 16);
    }
}
