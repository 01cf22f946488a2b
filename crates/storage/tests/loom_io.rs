//! Model-checked tests of the threaded IO backend's submission/completion
//! protocol, under every interleaving the model explores:
//!
//! * two in-flight requests complete in either order, each exactly once,
//!   with the bytes of its own request — reordering never loses or
//!   duplicates a completion;
//! * `submit` back-pressures at `queue_depth`: a second submit into a
//!   depth-1 window blocks until the first request leaves the queue, and
//!   the model terminates (no deadlock) with both requests completed;
//! * when the device fails, every submitted request still produces exactly
//!   one completion carrying its buffer — the error path drains rather
//!   than leaking;
//! * an IO thread parked on an empty buffer pool is woken by the next
//!   `release`, whether scatter returns the buffer or another IO thread's
//!   error drain does — no schedule loses the wake-up.
//!
//! Run with:
//! `RUSTFLAGS="--cfg loom" cargo test -p blaze-storage --test loom_io --release`
#![cfg(loom)]

use blaze_storage::{
    BlockDevice, BufferPool, FaultyDevice, IoBackend, IoBuffer, IoRequest, MemDevice,
    StripedStorage, ThreadedBackend,
};
use blaze_sync::model::{check_with, Config};
use blaze_sync::{thread, Arc, Condvar, Mutex};
use blaze_types::PAGE_SIZE;

fn cfg(preemption_bound: usize) -> Config {
    Config {
        preemption_bound,
        ..Config::default()
    }
}

/// One-device storage with `pages` pages, each filled with its page id.
fn storage(pages: u64) -> Arc<StripedStorage> {
    let s = Arc::new(StripedStorage::in_memory(1).unwrap());
    for p in 0..pages {
        s.write_page(p, &vec![p as u8; PAGE_SIZE]).unwrap();
    }
    s
}

fn req(page: u64) -> IoRequest {
    IoRequest {
        first_page: page,
        num_pages: 1,
    }
}

/// Two requests in flight at depth 2: whatever order the submitter pool
/// serves them, the pump reaps both exactly once and each completion
/// carries its own page's bytes.
#[test]
fn completions_reorder_but_never_lose_or_duplicate() {
    let report = check_with(cfg(2), || {
        let backend = ThreadedBackend::new(storage(2), 2);
        backend.submit(0, req(0), IoBuffer::new(), 0);
        backend.submit(0, req(1), IoBuffer::new(), 1);
        let mut seen = [false; 2];
        for _ in 0..2 {
            let c = backend.reap(0);
            c.result.unwrap();
            let tag = c.tag as usize;
            assert!(!seen[tag], "tag {tag} completed twice");
            seen[tag] = true;
            assert_eq!(c.request.first_page, c.tag);
            assert!(
                c.buffer.pages(1).iter().all(|&b| b == c.tag as u8),
                "completion {tag} carries another request's bytes"
            );
        }
        assert!(seen[0] && seen[1]);
        assert!(backend.try_reap(0).is_none(), "stray completion");
    });
    assert!(report.executions > 1, "expected multiple interleavings");
}

/// A depth-1 window admits one request at a time: the second `submit`
/// back-pressures until the submitter drains the queue. The model proves
/// the blocking handshake terminates under every schedule.
#[test]
fn submit_backpressures_at_queue_depth() {
    let report = check_with(cfg(2), || {
        let backend = Arc::new(ThreadedBackend::new(storage(2), 1));
        let pump = {
            let backend = backend.clone();
            thread::spawn(move || {
                backend.submit(0, req(0), IoBuffer::new(), 0);
                // Only admitted once request 0 left the one-slot queue.
                backend.submit(0, req(1), IoBuffer::new(), 1);
                let a = backend.reap(0);
                let b = backend.reap(0);
                assert_eq!(
                    {
                        let mut tags = [a.tag, b.tag];
                        tags.sort_unstable();
                        tags
                    },
                    [0, 1]
                );
                a.result.unwrap();
                b.result.unwrap();
            })
        };
        pump.join().unwrap();
    });
    assert!(report.executions > 1, "expected multiple interleavings");
}

/// Every submission against a failing device still produces exactly one
/// completion, error inside, buffer attached: the drain-on-error path
/// cannot leak a buffer or wedge the reaper.
#[test]
fn errors_drain_with_their_buffers() {
    let report = check_with(cfg(2), || {
        let dev: Arc<dyn BlockDevice> = Arc::new(FaultyDevice::fail_every(
            MemDevice::with_len(4 * PAGE_SIZE),
            1,
        ));
        let s = Arc::new(StripedStorage::new(vec![dev]).unwrap());
        let backend = ThreadedBackend::new(s, 2);
        backend.submit(0, req(0), IoBuffer::new(), 0);
        backend.submit(0, req(1), IoBuffer::new(), 1);
        let mut buffers = 0;
        for _ in 0..2 {
            let c = backend.reap(0);
            assert!(c.result.is_err(), "every read is injected to fail");
            buffers += usize::from(c.buffer.capacity_pages() > 0);
        }
        assert_eq!(buffers, 2, "both buffers came back with their errors");
        assert!(backend.try_reap(0).is_none());
    });
    assert!(report.executions > 1, "expected multiple interleavings");
}

/// Test-local blocking channel standing in for the filled-buffer queue, so
/// the scatter side waits on a condvar instead of spinning under the model.
type Chan = Arc<(Mutex<Vec<IoBuffer>>, Condvar)>;

fn send(chan: &Chan, buffer: IoBuffer) {
    chan.0.lock().push(buffer);
    chan.1.notify_all();
}

fn recv(chan: &Chan) -> IoBuffer {
    let mut q = chan.0.lock();
    loop {
        if let Some(buffer) = q.pop() {
            return buffer;
        }
        chan.1.wait(&mut q);
    }
}

/// A one-buffer pool: the IO thread's second `acquire_free` finds the pool
/// empty and parks until scatter releases the first buffer. Under the model
/// `acquire_free` parks at once (no spinning), so every schedule of the
/// park/notify handshake is explored; a lost wake-up would be a deadlock.
#[test]
fn parked_io_thread_is_woken_by_scatter_release() {
    let report = check_with(cfg(2), || {
        let pool = Arc::new(BufferPool::new(1));
        let chan: Chan = Arc::new((Mutex::new(Vec::new()), Condvar::new()));
        let io = {
            let (pool, chan) = (pool.clone(), chan.clone());
            thread::spawn(move || {
                for _ in 0..2 {
                    send(&chan, pool.acquire_free());
                }
            })
        };
        for _ in 0..2 {
            pool.release(recv(&chan));
        }
        io.join().unwrap();
        assert!(pool.is_intact(), "a buffer went missing");
    });
    assert!(report.executions > 1, "expected multiple interleavings");
}

/// Two IO threads share a one-buffer pool. One hits a device error and
/// releases its buffer straight back (the pump's error drain); the other
/// hands its buffer to scatter. Whichever thread parks must be woken by the
/// other's release, on either path.
#[test]
fn parked_io_thread_is_woken_by_error_drain() {
    let report = check_with(cfg(2), || {
        let pool = Arc::new(BufferPool::new(1));
        let chan: Chan = Arc::new((Mutex::new(Vec::new()), Condvar::new()));
        let failing = {
            let pool = pool.clone();
            thread::spawn(move || {
                let buffer = pool.acquire_free();
                pool.release(buffer);
            })
        };
        let healthy = {
            let (pool, chan) = (pool.clone(), chan.clone());
            thread::spawn(move || send(&chan, pool.acquire_free()))
        };
        pool.release(recv(&chan));
        failing.join().unwrap();
        healthy.join().unwrap();
        assert!(pool.is_intact(), "a buffer went missing");
    });
    assert!(report.executions > 1, "expected multiple interleavings");
}
