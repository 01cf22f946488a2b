//! The traced run's instrumentation: an in-memory span log and a timing
//! wrapper around each `FileDevice`.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use blaze_storage::{BlockDevice, FileDevice, IoStats};
use blaze_types::Result;

/// Spans kept before further ones are counted as dropped (about 48 MiB).
const MAX_SPANS: usize = 1 << 20;

/// One timed interval: a setup step, a query, or a device read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    /// The span that caused this one (0 for the root).
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Bytes moved, for device reads; 0 otherwise.
    pub bytes: u64,
}

/// Spans of one traced run, kept in memory and written out at exit.
pub struct SpanLog {
    epoch: Instant,
    next_id: AtomicU64,
    /// The span device reads are charged to: the running query when one
    /// client runs, the whole workload run when clients overlap.
    read_parent: AtomicU64,
    spans: Mutex<Vec<Span>>,
    dropped: AtomicU64,
}

impl SpanLog {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            read_parent: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
            dropped: AtomicU64::new(0),
        }
    }

    /// A fresh span id, taken before the span's children start.
    pub fn new_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    pub fn set_read_parent(&self, id: u64) {
        self.read_parent.store(id, Ordering::Relaxed);
    }

    /// Records a span that ran from `start` to `end`.
    pub fn record(
        &self,
        id: u64,
        parent: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
        bytes: u64,
    ) {
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        let span = Span {
            id,
            parent,
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            bytes,
        };
        let mut spans = self
            .spans
            .lock()
            .expect("span log poisoned by a panicking thread");
        if spans.len() < MAX_SPANS {
            spans.push(span);
        } else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Runs `f` as the span `name` under `parent`.
    pub fn time<T>(&self, parent: u64, name: &'static str, f: impl FnOnce(u64) -> T) -> T {
        let id = self.new_id();
        let start = Instant::now();
        let out = f(id);
        self.record(id, parent, name, start, Instant::now(), 0);
        out
    }

    pub fn len(&self) -> usize {
        self.spans
            .lock()
            .expect("span log poisoned by a panicking thread")
            .len()
    }

    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let spans = self
            .spans
            .lock()
            .expect("span log poisoned by a panicking thread");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in spans.iter() {
            writeln!(
                out,
                r#"{{"id":{},"parent":{},"name":"{}","start_ns":{},"end_ns":{},"bytes":{}}}"#,
                s.id, s.parent, s.name, s.start_ns, s.end_ns, s.bytes
            )?;
        }
        out.flush()
    }
}

/// Read counters kept by a [`TimedDevice`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReadCounts {
    pub calls: u64,
    pub bytes: u64,
    pub busy_ns: u64,
    pub errors: u64,
}

impl ReadCounts {
    pub fn add(&mut self, other: ReadCounts) {
        self.calls += other.calls;
        self.bytes += other.bytes;
        self.busy_ns += other.busy_ns;
        self.errors += other.errors;
    }

    pub fn since(self, earlier: ReadCounts) -> ReadCounts {
        ReadCounts {
            calls: self.calls - earlier.calls,
            bytes: self.bytes - earlier.bytes,
            busy_ns: self.busy_ns - earlier.busy_ns,
            errors: self.errors - earlier.errors,
        }
    }
}

/// A `FileDevice` whose reads are counted, timed and logged as spans.
/// Every page read of the engine funnels through [`BlockDevice::read_at`],
/// the one method this wrapper times.
pub struct TimedDevice {
    inner: FileDevice,
    log: Arc<SpanLog>,
    calls: AtomicU64,
    bytes: AtomicU64,
    busy_ns: AtomicU64,
    errors: AtomicU64,
}

impl TimedDevice {
    pub fn new(inner: FileDevice, log: Arc<SpanLog>) -> Self {
        Self {
            inner,
            log,
            calls: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            busy_ns: AtomicU64::new(0),
            errors: AtomicU64::new(0),
        }
    }

    pub fn counts(&self) -> ReadCounts {
        ReadCounts {
            calls: self.calls.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            busy_ns: self.busy_ns.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
        }
    }
}

impl BlockDevice for TimedDevice {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        let start = Instant::now();
        let result = self.inner.read_at(offset, buf);
        let end = Instant::now();
        self.busy_ns
            .fetch_add((end - start).as_nanos() as u64, Ordering::Relaxed);
        if result.is_ok() {
            self.calls.fetch_add(1, Ordering::Relaxed);
            self.bytes.fetch_add(buf.len() as u64, Ordering::Relaxed);
        } else {
            self.errors.fetch_add(1, Ordering::Relaxed);
        }
        let log = &self.log;
        let parent = log.read_parent.load(Ordering::Relaxed);
        log.record(
            log.new_id(),
            parent,
            "device.read",
            start,
            end,
            buf.len() as u64,
        );
        result
    }

    fn write_at(&self, offset: u64, buf: &[u8]) -> Result<()> {
        self.inner.write_at(offset, buf)
    }

    fn len(&self) -> u64 {
        self.inner.len()
    }

    fn stats(&self) -> &IoStats {
        self.inner.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blaze_types::PAGE_SIZE;

    #[test]
    fn wrapper_counts_equal_the_file_devices_own_stats() {
        let dir = crate::out_dir().join(format!("selftest-device-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let log = Arc::new(SpanLog::new());
        let dev = TimedDevice::new(FileDevice::create(dir.join("dev0")).unwrap(), log.clone());
        for p in 0..8u64 {
            dev.write_at(p * PAGE_SIZE as u64, &vec![p as u8; PAGE_SIZE])
                .unwrap();
        }
        let mut buf = vec![0u8; 4 * PAGE_SIZE];
        dev.read_pages(0, &mut buf[..PAGE_SIZE]).unwrap();
        dev.read_pages(2, &mut buf).unwrap();
        dev.read_pages_at_depth(5, &mut buf[..2 * PAGE_SIZE], 4)
            .unwrap();
        assert!(
            dev.read_pages(7, &mut buf).is_err(),
            "a read past the end must fail"
        );

        let counts = dev.counts();
        let inner = dev.stats().snapshot();
        assert_eq!(counts.calls, inner.read_ops);
        assert_eq!(counts.bytes, inner.read_bytes);
        assert_eq!(
            (counts.calls, counts.bytes, counts.errors),
            (3, 7 * PAGE_SIZE as u64, 1)
        );
        assert_eq!(log.len(), 4, "one span per read, failed ones included");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn spans_keep_their_parent() {
        let log = SpanLog::new();
        let child = log.time(0, "outer", |outer| {
            log.time(outer, "inner", |id| (outer, id))
        });
        let spans = log.spans.lock().unwrap().clone();
        assert_eq!(spans.len(), 2);
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!((inner.parent, inner.id), child);
        assert!(inner.end_ns >= inner.start_ns);
    }
}
