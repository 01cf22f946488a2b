//! IO buffers and the free/filled buffer queues of the EdgeMap engine
//! (Figure 5, steps 3–7).
//!
//! A fixed set of buffers is allocated up front (the paper uses a static
//! 64 MiB pool for all workloads). IO threads take buffers from the *free*
//! MPMC queue, fill them with up to [`MAX_MERGED_PAGES`] pages, and push them
//! to the *filled* MPMC queue; scatter threads pop filled buffers and return
//! them to the free queue when done. Because scatter keeps pace with IO, a
//! small pool suffices — if it ever drains, IO threads spin briefly and
//! then park until scatter releases a buffer, which is exactly the "fast
//! producer, slow consumer" stall the paper describes for Graphene
//! (Section III-C). Parking matters when IO outruns scatter for a whole
//! iteration: spinning IO threads would compete for the cores scatter and
//! gather need.

use blaze_sync::atomic::{fence, AtomicUsize, Ordering};
use blaze_sync::queue::{ArrayQueue, SegQueue};
use blaze_sync::{Backoff, Condvar, Mutex};

use blaze_types::{PageId, MAX_MERGED_PAGES, PAGE_SIZE};

/// A reusable IO buffer large enough for one merged request.
#[derive(Debug)]
pub struct IoBuffer {
    data: Box<[u8]>,
}

impl IoBuffer {
    /// Allocates a zeroed buffer of [`MAX_MERGED_PAGES`] pages.
    pub fn new() -> Self {
        Self::with_pages(MAX_MERGED_PAGES)
    }

    /// Allocates a zeroed buffer of `pages` pages (for engines configured
    /// with a larger merge window than the paper's default).
    pub fn with_pages(pages: usize) -> Self {
        Self {
            data: vec![0u8; pages.max(1) * PAGE_SIZE].into_boxed_slice(),
        }
    }

    /// Number of pages this buffer can hold.
    pub fn capacity_pages(&self) -> usize {
        self.data.len() / PAGE_SIZE
    }

    /// Mutable view of the first `n` pages, for the IO thread to read into.
    pub fn pages_mut(&mut self, n: usize) -> &mut [u8] {
        &mut self.data[..n * PAGE_SIZE]
    }

    /// Immutable view of the first `n` pages.
    pub fn pages(&self, n: usize) -> &[u8] {
        &self.data[..n * PAGE_SIZE]
    }
}

impl Default for IoBuffer {
    fn default() -> Self {
        Self::new()
    }
}

/// A filled buffer travelling from an IO thread to a scatter thread: the
/// buffer plus the global ids of the pages it holds, in order.
#[derive(Debug)]
pub struct FilledBuffer {
    /// The buffer holding the page data.
    pub buffer: IoBuffer,
    /// Global page ids of the pages in `buffer`, in frame order. Device
    /// reads produce consecutive *local* pages of one device (globally
    /// strided by the device count); buffers packed from page-cache hits
    /// may hold any ascending set of that device's pages. Consumers must
    /// only rely on `pages[i]` describing frame `i` — never on contiguity.
    pub pages: Vec<PageId>,
}

impl FilledBuffer {
    /// Page data for the `i`-th page in this buffer.
    pub fn page_data(&self, i: usize) -> &[u8] {
        &self.buffer.data[i * PAGE_SIZE..(i + 1) * PAGE_SIZE]
    }

    /// Number of pages held.
    pub fn num_pages(&self) -> usize {
        self.pages.len()
    }
}

/// The free/filled MPMC buffer queues shared by IO and scatter threads.
pub struct BufferPool {
    free: ArrayQueue<IoBuffer>,
    filled: SegQueue<FilledBuffer>,
    /// Threads parked in [`acquire_free`](Self::acquire_free). Raised under
    /// `park` before the final free-queue check, so `release` only takes the
    /// lock and notifies when someone may be asleep.
    parked: AtomicUsize,
    /// Guards the park/notify handshake; a leaf lock held for a counter
    /// update and one queue check.
    park: Mutex<()>,
    /// Signalled by `release` when `parked` is non-zero.
    freed: Condvar,
    capacity: usize,
    pages_per_buffer: usize,
}

impl BufferPool {
    /// Creates a pool of `capacity` buffers, all initially free, each
    /// holding [`MAX_MERGED_PAGES`] pages.
    pub fn new(capacity: usize) -> Self {
        Self::with_buffer_pages(capacity, MAX_MERGED_PAGES)
    }

    /// Creates a pool of `capacity` buffers of `pages_per_buffer` pages —
    /// buffers must be at least as large as the engine's merge window.
    pub fn with_buffer_pages(capacity: usize, pages_per_buffer: usize) -> Self {
        let capacity = capacity.max(1);
        let pages_per_buffer = pages_per_buffer.max(1);
        let free = ArrayQueue::new(capacity);
        for _ in 0..capacity {
            // A fresh queue with `capacity` slots accepts exactly `capacity`
            // pushes, so the push cannot fail; the binding makes overflow
            // drop the buffer instead of panicking.
            let _ = free.push(IoBuffer::with_pages(pages_per_buffer));
        }
        Self {
            free,
            filled: SegQueue::new(),
            parked: AtomicUsize::new(0),
            park: Mutex::new(()),
            freed: Condvar::new(),
            capacity,
            pages_per_buffer,
        }
    }

    /// Creates a pool sized so that its buffers total roughly `bytes`.
    pub fn with_bytes(bytes: usize) -> Self {
        Self::new(bytes / (MAX_MERGED_PAGES * PAGE_SIZE))
    }

    /// [`with_bytes`](Self::with_bytes) with a custom buffer size in pages.
    pub fn with_bytes_and_pages(bytes: usize, pages_per_buffer: usize) -> Self {
        let pages_per_buffer = pages_per_buffer.max(1);
        Self::with_buffer_pages(bytes / (pages_per_buffer * PAGE_SIZE), pages_per_buffer)
    }

    /// Pages each buffer holds.
    pub fn pages_per_buffer(&self) -> usize {
        self.pages_per_buffer
    }

    /// Number of buffers owned by the pool.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Tries to take a free buffer without blocking.
    pub fn try_acquire_free(&self) -> Option<IoBuffer> {
        self.free.pop()
    }

    /// Takes a free buffer, backing off (spin → yield) while one is likely
    /// to appear soon, then parking until [`release`](Self::release) brings
    /// one back. IO threads block here when scatter falls behind.
    pub fn acquire_free(&self) -> IoBuffer {
        let backoff = Backoff::new();
        while !backoff.is_completed() {
            if let Some(buf) = self.free.pop() {
                return buf;
            }
            backoff.snooze();
        }
        let mut park = self.park.lock();
        // Dekker handshake with `release`: raise the count, then re-check
        // the queue. Either this check sees the releaser's push, or the
        // releaser's count check sees this increment and notifies.
        self.parked.fetch_add(1, Ordering::SeqCst); // sync-audit: Dekker store side; SeqCst RMW + fence order it before the queue re-check below.
        fence(Ordering::SeqCst); // sync-audit: pairs with the fence in `release`.
        let buf = loop {
            if let Some(buf) = self.free.pop() {
                break buf;
            }
            self.freed.wait(&mut park);
        };
        self.parked.fetch_sub(1, Ordering::Relaxed); // sync-audit: decrement under `park`; a stale non-zero read only costs a releaser one spare notify.
        buf
    }

    /// Returns a drained buffer to the free queue (Figure 5, step 7) and
    /// wakes a parked acquirer, if any.
    pub fn release(&self, buffer: IoBuffer) {
        // The pool created every buffer, so the queue can never overflow.
        let _ = self.free.push(buffer);
        // sync-audit: Dekker load side; the fence orders the push before the
        // count read and pairs with the fence in `acquire_free`: a parker
        // that incremented before it is seen, one after it sees the push.
        fence(Ordering::SeqCst);
        if self.parked.load(Ordering::Relaxed) > 0 {
            // Taking `park` means the parker is inside `wait` (or gone), so
            // the notify cannot fall between its check and its sleep.
            let _park = self.park.lock();
            self.freed.notify_one();
        }
    }

    /// Publishes a filled buffer for scatter threads (step 4).
    pub fn push_filled(&self, filled: FilledBuffer) {
        self.filled.push(filled);
    }

    /// Takes the next filled buffer, if any (step 5).
    pub fn pop_filled(&self) -> Option<FilledBuffer> {
        self.filled.pop()
    }

    /// Number of buffers currently waiting in the filled queue.
    pub fn filled_len(&self) -> usize {
        self.filled.len()
    }

    /// Restores the pool to its freshly-constructed state so it can be
    /// recycled into a later job: any buffers stranded in the filled queue
    /// (e.g. after an IO error aborted scatter early) move back to the free
    /// queue. Must only be called while no IO or scatter thread is using
    /// the pool.
    pub fn recycle(&self) {
        while let Some(filled) = self.filled.pop() {
            self.release(filled.buffer);
        }
    }

    /// Whether every buffer is back in the free queue — i.e. the pool is
    /// safe to hand to the next job. A pool that lost buffers (a panicking
    /// job dropped some on its stack) reports `false` and should be
    /// discarded rather than reused.
    pub fn is_intact(&self) -> bool {
        self.free.len() == self.capacity
    }
}

impl std::fmt::Debug for BufferPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BufferPool")
            .field("capacity", &self.capacity)
            .field("free", &self.free.len())
            .field("filled", &self.filled.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_starts_full_of_free_buffers() {
        let pool = BufferPool::new(4);
        let mut held = Vec::new();
        for _ in 0..4 {
            held.push(pool.try_acquire_free().expect("buffer available"));
        }
        assert!(pool.try_acquire_free().is_none());
        for b in held {
            pool.release(b);
        }
        assert!(pool.try_acquire_free().is_some());
    }

    #[test]
    fn with_bytes_sizes_pool() {
        let pool = BufferPool::with_bytes(64 * MAX_MERGED_PAGES * PAGE_SIZE);
        assert_eq!(pool.capacity(), 64);
    }

    #[test]
    fn filled_round_trip_preserves_data_and_pages() {
        let pool = BufferPool::new(1);
        let mut buf = pool.try_acquire_free().unwrap();
        buf.pages_mut(2)[0] = 0xAB;
        buf.pages_mut(2)[PAGE_SIZE] = 0xCD;
        pool.push_filled(FilledBuffer {
            buffer: buf,
            pages: vec![10, 14],
        });
        let filled = pool.pop_filled().unwrap();
        assert_eq!(filled.num_pages(), 2);
        assert_eq!(filled.pages, vec![10, 14]);
        assert_eq!(filled.page_data(0)[0], 0xAB);
        assert_eq!(filled.page_data(1)[0], 0xCD);
        pool.release(filled.buffer);
    }

    #[test]
    fn recycle_drains_stranded_filled_buffers() {
        let pool = BufferPool::new(2);
        let buf = pool.try_acquire_free().unwrap();
        pool.push_filled(FilledBuffer {
            buffer: buf,
            pages: vec![3],
        });
        assert!(!pool.is_intact());
        pool.recycle();
        assert!(pool.is_intact());
        assert_eq!(pool.filled_len(), 0);
        // A buffer lost outside the pool keeps it non-intact even after
        // recycling.
        let lost = pool.try_acquire_free().unwrap();
        pool.recycle();
        assert!(!pool.is_intact());
        pool.release(lost);
        assert!(pool.is_intact());
    }

    #[test]
    fn producer_consumer_recycles_buffers() {
        // 2 buffers, 64 messages: recycling must keep both sides going.
        let pool = blaze_sync::Arc::new(BufferPool::new(2));
        let producer_pool = pool.clone();
        let producer = std::thread::spawn(move || {
            for i in 0..64u64 {
                let mut buf = producer_pool.acquire_free();
                buf.pages_mut(1)[0] = i as u8;
                producer_pool.push_filled(FilledBuffer {
                    buffer: buf,
                    pages: vec![i],
                });
            }
        });
        let mut seen = Vec::new();
        while seen.len() < 64 {
            if let Some(f) = pool.pop_filled() {
                seen.push(f.pages[0]);
                pool.release(f.buffer);
            } else {
                std::thread::yield_now();
            }
        }
        producer.join().unwrap();
        assert_eq!(seen, (0..64).collect::<Vec<_>>());
    }
}
