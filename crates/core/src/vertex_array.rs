//! Algorithm-specific vertex data under the semi-external model.
//!
//! Vertex data lives fully in DRAM. During an `edge_map`, gather threads
//! write it while scatter threads concurrently read it through `cond` — a
//! data race in C++, which the paper tolerates benignly. In Rust we make
//! the same pattern sound with *relaxed atomic* cells: on x86 these compile
//! to plain loads and stores (no `lock` prefix, no fences), preserving the
//! "no synchronization" property of online binning while avoiding UB.
//! Read-modify-write operations (`fetch_update`, `fetch_add_f64`, …) are
//! provided for the synchronization-based engine variant, which is exactly
//! the CPU cost Blaze exists to avoid.

use blaze_sync::atomic::{AtomicI64, AtomicU32, AtomicU64, Ordering};

/// Element types storable in a [`VertexArray`].
pub trait VertexValue: Copy + Send + Sync + 'static {
    /// The backing atomic cell.
    type Cell: Send + Sync;
    /// Creates a cell holding `v`.
    fn new_cell(v: Self) -> Self::Cell;
    /// Relaxed load.
    fn load(cell: &Self::Cell) -> Self;
    /// Relaxed store.
    fn store(cell: &Self::Cell, v: Self);
    /// Relaxed compare-exchange; returns `Ok(prev)` on success.
    fn compare_exchange(cell: &Self::Cell, current: Self, new: Self) -> Result<Self, Self>;
}

macro_rules! impl_direct {
    ($t:ty, $atomic:ty) => {
        impl VertexValue for $t {
            type Cell = $atomic;
            #[inline]
            fn new_cell(v: Self) -> Self::Cell {
                <$atomic>::new(v)
            }
            #[inline]
            fn load(cell: &Self::Cell) -> Self {
                // sync-audit: Relaxed — vertex slots are independent cells;
                // binned gather serializes same-vertex updates via the bin
                // gather lock, and sync mode relies on CAS atomicity only.
                cell.load(Ordering::Relaxed)
            }
            #[inline]
            fn store(cell: &Self::Cell, v: Self) {
                // sync-audit: Relaxed — see `load` above.
                cell.store(v, Ordering::Relaxed)
            }
            #[inline]
            fn compare_exchange(cell: &Self::Cell, current: Self, new: Self) -> Result<Self, Self> {
                // sync-audit: Relaxed — see `load` above; the RMW itself is
                // atomic, which is all edge-parallel updates need.
                cell.compare_exchange(current, new, Ordering::Relaxed, Ordering::Relaxed)
            }
        }
    };
}

impl_direct!(u32, AtomicU32);
impl_direct!(u64, AtomicU64);
impl_direct!(i64, AtomicI64);

macro_rules! impl_float {
    ($t:ty, $bits:ty, $atomic:ty) => {
        impl VertexValue for $t {
            type Cell = $atomic;
            #[inline]
            fn new_cell(v: Self) -> Self::Cell {
                <$atomic>::new(v.to_bits())
            }
            #[inline]
            fn load(cell: &Self::Cell) -> Self {
                // sync-audit: Relaxed — same cell-independence argument as
                // the integer impl above; floats ride in their bit pattern.
                <$t>::from_bits(cell.load(Ordering::Relaxed))
            }
            #[inline]
            fn store(cell: &Self::Cell, v: Self) {
                // sync-audit: Relaxed — see `load` above.
                cell.store(v.to_bits(), Ordering::Relaxed)
            }
            #[inline]
            fn compare_exchange(cell: &Self::Cell, current: Self, new: Self) -> Result<Self, Self> {
                // sync-audit: Relaxed — atomic RMW on the bit pattern; no
                // ordering obligation beyond the exchange itself.
                cell.compare_exchange(
                    current.to_bits(),
                    new.to_bits(),
                    Ordering::Relaxed, // sync-audit: see above.
                    Ordering::Relaxed, // sync-audit: see above.
                )
                .map(<$t>::from_bits)
                .map_err(<$t>::from_bits)
            }
        }
    };
}

impl_float!(f32, u32, AtomicU32);
impl_float!(f64, u64, AtomicU64);

/// A fixed-length array of per-vertex values with interior mutability.
pub struct VertexArray<T: VertexValue> {
    cells: Box<[T::Cell]>,
}

impl<T: VertexValue> VertexArray<T> {
    /// Creates an array of `n` cells, all holding `init`.
    pub fn new(n: usize, init: T) -> Self {
        Self {
            cells: (0..n).map(|_| T::new_cell(init)).collect(),
        }
    }

    /// Creates an array of `n` cells, cell `i` holding `f(i)`.
    pub fn from_fn(n: usize, mut f: impl FnMut(usize) -> T) -> Self {
        Self {
            cells: (0..n).map(|i| T::new_cell(f(i))).collect(),
        }
    }

    /// Number of vertices covered.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the array is empty.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Relaxed read of vertex `i`'s value.
    #[inline]
    pub fn get(&self, i: usize) -> T {
        T::load(&self.cells[i])
    }

    /// Relaxed write of vertex `i`'s value. Plain store — safe under the
    /// bin-exclusivity invariant (only one gather thread per destination).
    #[inline]
    pub fn set(&self, i: usize, v: T) {
        T::store(&self.cells[i], v)
    }

    /// Compare-and-swap, for the synchronization-based variant. Returns
    /// `Ok(previous)` on success.
    #[inline]
    pub fn compare_exchange(&self, i: usize, current: T, new: T) -> Result<T, T> {
        T::compare_exchange(&self.cells[i], current, new)
    }

    /// CAS-loop read-modify-write: applies `f` until it sticks or `f`
    /// returns `None`. Returns the previous value on success.
    pub fn fetch_update(&self, i: usize, mut f: impl FnMut(T) -> Option<T>) -> Result<T, T> {
        let mut current = self.get(i);
        loop {
            let Some(new) = f(current) else {
                return Err(current);
            };
            match self.compare_exchange(i, current, new) {
                Ok(prev) => return Ok(prev),
                Err(actual) => current = actual,
            }
        }
    }

    /// Snapshot of all values.
    pub fn to_vec(&self) -> Vec<T> {
        (0..self.len()).map(|i| self.get(i)).collect()
    }

    /// Bytes of memory held (Figure 12 accounting).
    pub fn memory_bytes(&self) -> u64 {
        (self.cells.len() * std::mem::size_of::<T::Cell>()) as u64
    }
}

impl VertexArray<f64> {
    /// Atomic `+=` via CAS loop — the per-edge cost of the
    /// synchronization-based PageRank/SpMV variants.
    #[inline]
    pub fn fetch_add(&self, i: usize, delta: f64) -> f64 {
        // The closure always returns `Some`, so `fetch_update` cannot fail;
        // `Err` would still carry the previous value, keeping this total.
        self.fetch_update(i, |v| Some(v + delta))
            .unwrap_or_else(|v| v)
    }
}

impl<T: VertexValue + std::fmt::Debug> std::fmt::Debug for VertexArray<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VertexArray")
            .field("len", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_set_round_trip_all_types() {
        let a = VertexArray::<u32>::new(4, 7);
        assert_eq!(a.get(3), 7);
        a.set(3, 9);
        assert_eq!(a.get(3), 9);

        let b = VertexArray::<i64>::new(2, -1);
        assert_eq!(b.get(0), -1);
        b.set(0, 42);
        assert_eq!(b.get(0), 42);

        let c = VertexArray::<f64>::new(2, 0.25);
        assert_eq!(c.get(1), 0.25);
        c.set(1, -1.5);
        assert_eq!(c.get(1), -1.5);

        let d = VertexArray::<f32>::new(1, 3.5);
        assert_eq!(d.get(0), 3.5);
    }

    #[test]
    fn compare_exchange_succeeds_and_fails() {
        let a = VertexArray::<u32>::new(1, 5);
        assert_eq!(a.compare_exchange(0, 5, 6), Ok(5));
        assert_eq!(a.compare_exchange(0, 5, 7), Err(6));
        assert_eq!(a.get(0), 6);
    }

    #[test]
    fn fetch_update_applies_until_none() {
        let a = VertexArray::<u32>::new(1, 10);
        // Min-update: only write smaller values (the WCC pattern).
        assert_eq!(a.fetch_update(0, |v| (3 < v).then_some(3)), Ok(10));
        assert_eq!(a.fetch_update(0, |v| (8 < v).then_some(8)), Err(3));
        assert_eq!(a.get(0), 3);
    }

    #[test]
    fn concurrent_fetch_add_is_exact() {
        let a = blaze_sync::Arc::new(VertexArray::<f64>::new(4, 0.0));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let a = a.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..1000 {
                    a.fetch_add(i % 4, 1.0);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let total: f64 = (0..4).map(|i| a.get(i)).sum();
        assert_eq!(total, 4000.0);
    }

    #[test]
    fn memory_accounting() {
        let a = VertexArray::<f64>::new(1000, 0.0);
        assert_eq!(a.memory_bytes(), 8000);
        assert_eq!(a.to_vec().len(), 1000);
    }
}
