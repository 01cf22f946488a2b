//! Model-checked tests of the bin pair-buffer swap protocol: a scatter
//! thread appending past capacity races a gather thread returning buffers,
//! exercising the back-pressure wait (`spare_returned`) and the gather
//! exclusivity lock under every schedule the bounded explorer can reach.
//!
//! Run with:
//! `RUSTFLAGS="--cfg loom" cargo test -p blaze-binning --test loom_bin --release`
#![cfg(loom)]

use blaze_binning::{Bin, BinRecord};
use blaze_sync::model::{check_with, Config};
use blaze_sync::{thread, Arc, Condvar, Mutex};
use std::cell::UnsafeCell;

fn cfg(preemption_bound: usize) -> Config {
    Config {
        preemption_bound,
        ..Config::default()
    }
}

fn rec(v: u32) -> BinRecord<u32> {
    BinRecord::new(v, v)
}

/// One scatter thread pushes three records through a capacity-1 bin while a
/// gather thread consumes and returns the buffers. Forcing three records
/// through a two-buffer pair means some schedules park the scatter thread on
/// `spare_returned`; the model proves no schedule loses a record, dies in a
/// missed wakeup, or deadlocks.
#[test]
fn swap_protocol_conserves_records_under_backpressure() {
    let report = check_with(cfg(2), || {
        let bin = Arc::new(Bin::<u32>::new(1));
        // Test-local channel standing in for the engine's full_bins queue:
        // `on_full` pushes here and the gather thread blocks on the condvar,
        // so the model never spins.
        let chan = Arc::new((Mutex::new(Vec::new()), Condvar::new()));

        let scatter = {
            let (bin, chan) = (bin.clone(), chan.clone());
            thread::spawn(move || {
                bin.append_batch(&[rec(0), rec(1), rec(2)], |full| {
                    chan.0.lock().push(full);
                    chan.1.notify_all();
                });
            })
        };

        // Capacity 1 and a 3-record batch guarantee exactly two full
        // hand-offs (the third record stays in the active buffer).
        let mut gathered = Vec::new();
        for _ in 0..2 {
            let full = {
                let mut q = chan.0.lock();
                loop {
                    if let Some(full) = q.pop() {
                        break full;
                    }
                    chan.1.wait(&mut q);
                }
            };
            gathered.extend(full.iter().map(|r| r.value));
            bin.return_buffer(full);
        }
        scatter.join().unwrap();

        let partial = bin.drain_partial().expect("third record pending");
        gathered.extend(partial.iter().map(|r| r.value));
        gathered.sort_unstable();
        assert_eq!(gathered, vec![0, 1, 2], "records lost or duplicated");
        assert_eq!(bin.pending_records(), 0);
    });
    assert!(report.executions > 1, "explored only one schedule");
}

/// `drain_partial` racing a concurrent append: every interleaving must
/// conserve the records between the drained buffer and the active buffer.
#[test]
fn drain_partial_races_append() {
    check_with(cfg(2), || {
        let bin = Arc::new(Bin::<u32>::new(2));
        let appender = {
            let bin = bin.clone();
            thread::spawn(move || {
                bin.append_batch(&[rec(7)], |_| unreachable!("capacity 2 cannot fill"));
            })
        };
        let drained = bin.drain_partial().map(|b| b.len()).unwrap_or(0);
        appender.join().unwrap();
        let rest = bin.drain_partial().map(|b| b.len()).unwrap_or(0);
        assert_eq!(drained + rest, 1, "record lost or duplicated by drain race");
    });
}

/// A non-atomic canary protected only by `lock_for_gather`. The model plants
/// a scheduling point between the canary's read and write; exclusivity of
/// the gather lock must make the read-modify-write atomic anyway.
struct Canary(UnsafeCell<u64>);
// SAFETY: all access to the cell is serialized either by the bin's gather
// lock (positive test) or deliberately unsynchronized (negative test, where
// the checker is expected to report the race-induced lost update).
unsafe impl Sync for Canary {}
impl Canary {
    fn bump_with_yield(&self) {
        // SAFETY: see the `Sync` impl — the surrounding test provides (or
        // deliberately withholds) the exclusion.
        let v = unsafe { *self.0.get() };
        thread::yield_now();
        // SAFETY: as above.
        unsafe { *self.0.get() = v + 1 };
    }
    fn read(&self) -> u64 {
        // SAFETY: called only after every writer has been joined.
        unsafe { *self.0.get() }
    }
}

/// Two gather threads bump the canary under `lock_for_gather`: no schedule
/// may lose an increment.
#[test]
fn gather_lock_makes_canary_updates_atomic() {
    let report = check_with(cfg(2), || {
        let bin = Arc::new(Bin::<u32>::new(4));
        let canary = Arc::new(Canary(UnsafeCell::new(0)));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let (bin, canary) = (bin.clone(), canary.clone());
                thread::spawn(move || {
                    let _guard = bin.lock_for_gather();
                    canary.bump_with_yield();
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(canary.read(), 2, "gather exclusivity violated");
    });
    assert!(report.executions > 1, "explored only one schedule");
}

/// The same canary WITHOUT the gather lock: the checker must find the
/// double-count. This proves the previous test actually depends on the lock
/// (a regression that drops `lock_for_gather` would be caught).
#[test]
fn canary_without_gather_lock_is_caught() {
    let result = std::panic::catch_unwind(|| {
        check_with(cfg(2), || {
            let canary = Arc::new(Canary(UnsafeCell::new(0)));
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    let canary = canary.clone();
                    thread::spawn(move || canary.bump_with_yield())
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            assert_eq!(canary.read(), 2);
        });
    });
    assert!(result.is_err(), "checker missed the unlocked canary race");
}

/// `return_buffer` when the spare slot is already occupied (possible after a
/// `drain_partial` that had to allocate a third buffer) must drop the extra
/// buffer rather than corrupt the pair.
#[test]
fn extra_buffer_from_drain_is_dropped_cleanly() {
    check_with(cfg(2), || {
        let bin = Arc::new(Bin::<u32>::new(1));
        let chan = Arc::new((Mutex::new(Vec::new()), Condvar::new()));
        let scatter = {
            let (bin, chan) = (bin.clone(), chan.clone());
            thread::spawn(move || {
                bin.append_batch(&[rec(1), rec(2)], |full| {
                    chan.0.lock().push(full);
                    chan.1.notify_all();
                });
            })
        };
        // Exactly one full hand-off (two records, capacity 1, second stays
        // active): block for it, and race a drain against the tail append.
        let full = {
            let mut q = chan.0.lock();
            loop {
                if let Some(full) = q.pop() {
                    break full;
                }
                chan.1.wait(&mut q);
            }
        };
        let mut total = full.len();
        let drained = bin.drain_partial();
        bin.return_buffer(full);
        if let Some(buf) = drained {
            total += buf.len();
            // In schedules where the spare slot is already occupied this is
            // the transient third buffer; `return_buffer` must drop it.
            bin.return_buffer(buf);
        }
        scatter.join().unwrap();
        total += bin.drain_partial().map(|b| b.len()).unwrap_or(0);
        assert_eq!(total, 2, "records lost across drain/return race");
    });
}

/// A buffer comes back while no scatter thread is waiting (so the return
/// skips the notify), then the scatter thread blocks on the other buffer.
/// The next return must still wake it: the waiter count is kept under the
/// append lock, so no schedule can slip a sleep past a return. A lost
/// wake-up shows up here as a model deadlock.
#[test]
fn late_waiter_is_woken_by_the_next_return() {
    let report = check_with(cfg(2), || {
        let bin = Arc::new(Bin::<u32>::new(1));
        let chan = Arc::new((Mutex::new(Vec::new()), Condvar::new()));

        // Fill the pair: buffer A (record 0) goes out to gather, buffer B
        // stays active and full (record 1).
        let mut out = Vec::new();
        bin.append_batch(&[rec(0), rec(1)], |full| out.push(full));
        let a = out.pop().expect("first buffer handed off");

        let scatter = {
            let (bin, chan) = (bin.clone(), chan.clone());
            thread::spawn(move || {
                let push = |full| {
                    chan.0.lock().push(full);
                    chan.1.notify_all();
                };
                // Swaps B out once A is back (waiting if it is not yet).
                bin.append_batch(&[rec(2)], push);
                // A is now active and full: blocks until B returns.
                bin.append_batch(&[rec(3)], push);
            })
        };

        let mut gathered: Vec<u32> = a.iter().map(|r| r.value).collect();
        bin.return_buffer(a);
        for _ in 0..2 {
            let full = {
                let mut q = chan.0.lock();
                loop {
                    if let Some(full) = q.pop() {
                        break full;
                    }
                    chan.1.wait(&mut q);
                }
            };
            gathered.extend(full.iter().map(|r| r.value));
            bin.return_buffer(full);
        }
        scatter.join().unwrap();

        let partial = bin.drain_partial().expect("last record pending");
        gathered.extend(partial.iter().map(|r| r.value));
        gathered.sort_unstable();
        assert_eq!(gathered, vec![0, 1, 2, 3], "records lost or duplicated");
    });
    assert!(report.executions > 1, "explored only one schedule");
}
