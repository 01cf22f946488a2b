//! Binning configuration and the paper's tuning heuristics (Section V-E).

use blaze_types::{
    BlazeError, Result, DEFAULT_BIN_COUNT, DEFAULT_BIN_SPACE_RATIO, DEFAULT_STAGING_RECORDS,
};

/// Record size the bin-count rule sizes buffers for: a `u32` destination
/// plus an 8-byte payload (PageRank's `f64`, padded), the largest record
/// the shipped queries bin.
const SIZING_RECORD_BYTES: usize = 16;

/// Staging batches each bin buffer must hold under the bin-count rule.
const BATCHES_PER_BUFFER: usize = 2;

/// Parameters of the online-binning machinery.
///
/// The paper finds performance robust across a wide range: total bin space
/// ≈ 5% of the input graph (equivalently ≈ `5·|E|·4` bytes ÷ 16, see
/// Figure 10), up to 1024 bins, and an equal number of scatter and gather
/// threads are good defaults, with careful tuning worth at most ~5%. The
/// default bin count is derived from the space (see
/// [`for_space`](Self::for_space)), so a small graph gets fewer, larger
/// bins instead of buffers no bigger than one staging flush.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BinningConfig {
    /// Number of bins. Records route to `dst % bin_count` (a mask when the
    /// count is a power of two).
    pub bin_count: usize,
    /// Total bytes across all bin buffers (both halves of every pair).
    pub bin_space_bytes: usize,
    /// Records a scatter thread stages per bin before flushing in batch.
    pub staging_records: usize,
}

impl BinningConfig {
    /// Validated constructor.
    pub fn new(bin_count: usize, bin_space_bytes: usize, staging_records: usize) -> Result<Self> {
        if bin_count == 0 {
            return Err(BlazeError::Config("bin_count must be >= 1".into()));
        }
        if staging_records == 0 {
            return Err(BlazeError::Config("staging_records must be >= 1".into()));
        }
        Ok(Self {
            bin_count,
            bin_space_bytes,
            staging_records,
        })
    }

    /// The paper's default heuristic for a graph of `graph_bytes` on disk:
    /// bin space = 5% of the graph (at least 64 KiB), with the bin count
    /// derived from that space by [`for_space`](Self::for_space).
    pub fn for_graph(graph_bytes: u64) -> Self {
        let space = ((graph_bytes as f64 * DEFAULT_BIN_SPACE_RATIO) as usize).max(64 << 10);
        Self::for_space(space)
    }

    /// A configuration of `bin_space_bytes` with the derived bin count: the
    /// largest power of two at which every buffer of every bin pair still
    /// holds two staging batches of 16-byte records, capped at
    /// [`DEFAULT_BIN_COUNT`]. Paper-scale graphs keep 1024 bins;
    /// below that, a buffer never shrinks to one staging flush, which would
    /// make every flush a hand-off to gather.
    pub fn for_space(bin_space_bytes: usize) -> Self {
        let pair_bytes = 2 * BATCHES_PER_BUFFER * DEFAULT_STAGING_RECORDS * SIZING_RECORD_BYTES;
        let fit = (bin_space_bytes / pair_bytes).clamp(1, DEFAULT_BIN_COUNT);
        Self {
            bin_count: 1 << fit.ilog2(),
            bin_space_bytes,
            staging_records: DEFAULT_STAGING_RECORDS,
        }
    }

    /// Overrides the bin count.
    pub fn with_bin_count(mut self, n: usize) -> Self {
        self.bin_count = n.max(1);
        self
    }

    /// Overrides the total bin space.
    pub fn with_bin_space(mut self, bytes: usize) -> Self {
        self.bin_space_bytes = bytes;
        self
    }

    /// Records per *single* bin buffer for record size `record_bytes`: the
    /// space is divided over `bin_count` bins × 2 buffers each. Never below
    /// the staging batch so one flush always fits.
    pub fn buffer_capacity(&self, record_bytes: usize) -> usize {
        let per_buffer = self.bin_space_bytes / self.bin_count / 2 / record_bytes.max(1);
        per_buffer.max(self.staging_records)
    }

    /// Actual bytes the bin space will occupy after rounding.
    pub fn allocated_bytes(&self, record_bytes: usize) -> u64 {
        (self.buffer_capacity(record_bytes) * 2 * self.bin_count * record_bytes) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_bins_rejected() {
        assert!(BinningConfig::new(0, 1024, 8).is_err());
        assert!(BinningConfig::new(4, 1024, 0).is_err());
        assert!(BinningConfig::new(4, 1024, 8).is_ok());
    }

    #[test]
    fn heuristic_is_five_percent() {
        let c = BinningConfig::for_graph(100 << 20);
        assert_eq!(c.bin_space_bytes, 5 << 20);
        assert_eq!(c.bin_count, 1024);
    }

    #[test]
    fn heuristic_has_floor() {
        let c = BinningConfig::for_graph(1024);
        assert!(c.bin_space_bytes >= 64 << 10);
    }

    #[test]
    fn paper_scale_graph_keeps_1024_bins() {
        // 5% of a 10 GiB graph is far past the 1024-bin point.
        assert_eq!(BinningConfig::for_graph(10 << 30).bin_count, 1024);
    }

    #[test]
    fn small_graph_gets_fewer_bins() {
        // An 8.3 MB graph: 415 KB of bin space fits 101 pairs of
        // 2 x 2 x 64 x 16 bytes, rounded down to 64.
        let c = BinningConfig::for_graph(8_300_000);
        assert_eq!(c.bin_count, 64);
    }

    #[test]
    fn space_floor_gives_16_bins() {
        let c = BinningConfig::for_graph(1024);
        assert_eq!(c.bin_space_bytes, 64 << 10);
        assert_eq!(c.bin_count, 16);
    }

    #[test]
    fn derived_count_is_a_power_of_two_with_room_for_two_batches() {
        let mut graph_bytes = 1u64;
        while graph_bytes < 1 << 40 {
            let c = BinningConfig::for_graph(graph_bytes);
            assert!(c.bin_count.is_power_of_two(), "{graph_bytes}: {c:?}");
            assert!(c.bin_count <= DEFAULT_BIN_COUNT);
            assert!(
                c.buffer_capacity(16) >= 2 * c.staging_records,
                "{graph_bytes}: {c:?}"
            );
            graph_bytes = graph_bytes * 3 / 2 + 1;
        }
    }

    #[test]
    fn buffer_capacity_divides_space() {
        let c = BinningConfig::new(8, 8 * 2 * 100 * 8, 16).unwrap();
        // 8 bins x 2 buffers x 100 records x 8 bytes.
        assert_eq!(c.buffer_capacity(8), 100);
    }

    #[test]
    fn buffer_capacity_never_below_staging() {
        let c = BinningConfig::new(1024, 1024, 64).unwrap();
        assert_eq!(c.buffer_capacity(8), 64);
    }
}
