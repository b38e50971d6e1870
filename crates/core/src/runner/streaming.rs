//! The runner's one worker pool: key-ordered delivery to a sink with a
//! bounded in-flight result buffer.
//!
//! Jobs execute in any order, the sink observes results in ascending
//! key order, and output is bit-identical at any worker count, while at
//! most `window` completed results are held in memory. A `Vec` sink
//! with a window as large as the batch is [`super::run_keyed`], fine at
//! 325 pages; the population run streams 10⁶ pages through a small
//! window instead.
//!
//! The mechanism: jobs are sorted by key up front and workers claim
//! indices from an atomic cursor, so index order *is* key order. A
//! worker that finishes job `i` parks it in an ordered buffer; the
//! caller's thread drains the buffer strictly in index order, handing
//! each result to the sink. Workers that run more than `window` jobs
//! ahead of the drain point block on a condvar until the sink catches
//! up — that back-pressure is what bounds memory. Deadlock-free because
//! indices are claimed in order: the job at the drain point is always
//! held by a worker inside the window, so it can always complete.
//!
//! A job that panics on a worker does not take the worker down: the
//! panic is caught and parked in the job's result slot. When the drain
//! reaches that index it tells the workers to stop, and the panic is
//! re-raised on the caller's thread once they have all been joined.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};

use super::RunnerConfig;

/// Memory-behavior report from [`run_keyed_streaming`]: the counting
/// evidence that the merge stayed bounded (asserted by tests instead of
/// OS RSS, which measures the allocator, not the algorithm).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamStats {
    /// Jobs executed (and results delivered to the sink).
    pub total: usize,
    /// Maximum number of completed-but-undelivered results buffered at
    /// any instant. Never exceeds the requested window.
    pub peak_buffered: usize,
}

/// Completed-result staging shared between workers and the draining
/// caller thread.
struct Shared<T> {
    /// Completed results (or caught panics) waiting for the drain point,
    /// keyed by job index. Size is bounded by the window.
    done: BTreeMap<usize, std::thread::Result<T>>,
    /// Next job index the sink will consume.
    next_emit: usize,
    /// High-water mark of `done.len()`.
    peak: usize,
    /// Set by the drain when a job or the sink panicked: workers run no
    /// further jobs and stop waiting on the window.
    stop: bool,
}

/// Runs keyed jobs on a worker pool, feeding each `(key, result)` to
/// `sink` in ascending key order **without materializing the result
/// vector**. At most `window` completed results are buffered; workers
/// block once they get that far ahead of the sink.
///
/// Equal keys are delivered in submission order (stable pre-sort), and
/// the sink observes the exact same sequence at any worker count — the
/// streaming analogue of [`super::run_keyed`]'s bit-identical merge.
/// The sink runs on the caller's thread.
///
/// # Panics
///
/// Panics if `window` is zero. A panicking job or sink panics the
/// caller with its payload once every result before it has reached the
/// sink; no later result reaches the sink, on the serial path and on
/// the worker pool alike.
pub fn run_keyed_streaming<K, T, F, S>(
    config: &RunnerConfig,
    mut jobs: Vec<(K, F)>,
    window: usize,
    mut sink: S,
) -> StreamStats
where
    K: Ord + Send,
    T: Send,
    F: FnOnce() -> T + Send,
    S: FnMut(K, T),
{
    assert!(window > 0, "window must be at least 1");
    // Stable sort: ascending key, ties in submission order — identical
    // to run_keyed, so index order is delivery order.
    jobs.sort_by(|a, b| a.0.cmp(&b.0));
    let total = jobs.len();
    let workers = config.effective_jobs().min(total.max(1));

    if workers <= 1 || total <= 1 {
        // Serial path: execute and deliver one result at a time.
        for (k, f) in jobs {
            sink(k, f());
        }
        return StreamStats {
            total,
            peak_buffered: total.min(1),
        };
    }

    let mut keys = Vec::with_capacity(total);
    let mut fns = Vec::with_capacity(total);
    for (k, f) in jobs {
        keys.push(k);
        fns.push(f);
    }

    let tasks: Vec<Mutex<Option<F>>> = fns.into_iter().map(|f| Mutex::new(Some(f))).collect();
    let cursor = AtomicUsize::new(0);
    let shared = Mutex::new(Shared::<T> {
        done: BTreeMap::new(),
        next_emit: 0,
        peak: 0,
        stop: false,
    });
    // Workers wait on `space` for the sink to open the window; the
    // caller waits on `ready` for the next in-order result.
    let space = Condvar::new();
    let ready = Condvar::new();

    let mut keys_iter = keys.into_iter();
    let mut peak = 0usize;
    let mut panicked = None;

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= total {
                    break;
                }
                // Back-pressure: don't run further than `window` ahead
                // of the drain point. Because indices are claimed in
                // order, every index below `i` is already claimed, so
                // the drain point always belongs to an unblocked
                // worker (i < next_emit + window holds for it).
                {
                    let mut st = shared.lock().expect("stream state");
                    while !st.stop && i >= st.next_emit + window {
                        st = space.wait(st).expect("stream state");
                    }
                    if st.stop {
                        break;
                    }
                }
                let f = tasks[i]
                    .lock()
                    .expect("task mutex")
                    .take()
                    .expect("each job is taken exactly once");
                let out = catch_unwind(AssertUnwindSafe(f));
                let mut st = shared.lock().expect("stream state");
                st.done.insert(i, out);
                st.peak = st.peak.max(st.done.len());
                drop(st);
                ready.notify_one();
            });
        }

        // Drain on the caller's thread: deliver results strictly in
        // index (= key) order as they become available.
        for expect in 0..total {
            let value = {
                let mut st = shared.lock().expect("stream state");
                loop {
                    if let Some(v) = st.done.remove(&expect) {
                        st.next_emit = expect + 1;
                        break v;
                    }
                    st = ready.wait(st).expect("stream state");
                }
            };
            // The window moved: wake any workers parked on it.
            space.notify_all();
            let key = keys_iter.next().expect("one key per job");
            // A panicking sink stops the pool the same way a panicked
            // job does, so no worker is left parked on the window. Jobs
            // and the sink run outside the lock, so it is not poisoned;
            // raising the flag would be sound even if it were.
            let delivered =
                value.and_then(|value| catch_unwind(AssertUnwindSafe(|| sink(key, value))));
            if let Err(payload) = delivered {
                shared.lock().unwrap_or_else(PoisonError::into_inner).stop = true;
                space.notify_all();
                panicked = Some(payload);
                break;
            }
        }

        peak = shared.lock().expect("stream state").peak;
    });
    // Re-raised once the scope has joined every worker.
    if let Some(payload) = panicked {
        resume_unwind(payload);
    }

    StreamStats {
        total,
        peak_buffered: peak,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Key = (u32, u32);

    fn jobs_of(n: u32) -> Vec<(Key, impl FnOnce() -> u64 + Send)> {
        (0..n)
            .map(|i| {
                let key = (i % 7, i / 7);
                (key, move || u64::from(i) * 3 + 1)
            })
            .collect()
    }

    fn expected(n: u32) -> Vec<(Key, u64)> {
        let mut want: Vec<(Key, u64)> = (0..n)
            .map(|i| ((i % 7, i / 7), u64::from(i) * 3 + 1))
            .collect();
        want.sort_by_key(|&(k, _)| k);
        want
    }

    #[test]
    fn sink_sees_key_order_at_any_worker_count() {
        for workers in [1, 2, 4, 8] {
            let cfg = RunnerConfig::default().with_jobs(workers);
            let mut got = Vec::new();
            let stats = run_keyed_streaming(&cfg, jobs_of(100), 8, |k, v| got.push((k, v)));
            assert_eq!(got, expected(100), "workers={workers}");
            assert_eq!(stats.total, 100);
        }
    }

    #[test]
    fn counting_sink_proves_bounded_buffer() {
        // The bounded-RSS acceptance check: a counting sink (not OS
        // RSS) pins the peak number of materialized results.
        let cfg = RunnerConfig::default().with_jobs(4);
        let window = 8;
        let mut delivered = 0usize;
        let stats = run_keyed_streaming(&cfg, jobs_of(1000), window, |_, _| delivered += 1);
        assert_eq!(delivered, 1000);
        assert!(
            stats.peak_buffered <= window,
            "peak {} exceeded window {window}",
            stats.peak_buffered
        );
        assert!(stats.peak_buffered >= 1);
    }

    #[test]
    fn serial_path_buffers_at_most_one() {
        let cfg = RunnerConfig::serial();
        let mut got = Vec::new();
        let stats = run_keyed_streaming(&cfg, jobs_of(20), 4, |k, v| got.push((k, v)));
        assert_eq!(got, expected(20));
        assert_eq!(stats.peak_buffered, 1);
    }

    #[test]
    fn window_of_one_still_completes() {
        // The tightest window degenerates to lock-step delivery but
        // must neither deadlock nor reorder.
        let cfg = RunnerConfig::default().with_jobs(4);
        let mut got = Vec::new();
        let stats = run_keyed_streaming(&cfg, jobs_of(50), 1, |k, v| got.push((k, v)));
        assert_eq!(got, expected(50));
        assert_eq!(stats.peak_buffered, 1);
    }

    #[test]
    fn empty_job_set_is_fine() {
        let cfg = RunnerConfig::default().with_jobs(4);
        let jobs: Vec<(Key, fn() -> u64)> = Vec::new();
        let stats = run_keyed_streaming(&cfg, jobs, 8, |_, _| unreachable!());
        assert_eq!(stats.total, 0);
        assert_eq!(stats.peak_buffered, 0);
    }

    /// Runs `jobs` under `catch_unwind`; returns the panic message and
    /// the keys the sink saw before it.
    fn run_until_panic(
        workers: usize,
        jobs: Vec<(u32, impl FnOnce() -> u32 + Send)>,
        sink_panics_at: u32,
    ) -> (String, Vec<u32>) {
        let cfg = RunnerConfig::default().with_jobs(workers);
        let mut seen = Vec::new();
        let payload = catch_unwind(AssertUnwindSafe(|| {
            run_keyed_streaming(&cfg, jobs, 2, |k, _| {
                assert_ne!(k, sink_panics_at, "sink fails at {k}");
                seen.push(k);
            })
        }))
        .expect_err("the panic must reach the caller");
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        (message, seen)
    }

    #[test]
    fn a_panicking_job_reaches_the_caller_at_any_worker_count() {
        // A window far smaller than the batch: workers ahead of the
        // failed job are parked on it and must be released.
        for workers in [1, 4] {
            let jobs: Vec<(u32, _)> = (0..64u32)
                .map(|i| {
                    (i, move || {
                        assert_ne!(i, 10, "job {i} fails");
                        i
                    })
                })
                .collect();
            let (message, seen) = run_until_panic(workers, jobs, u32::MAX);
            assert!(
                message.contains("job 10 fails"),
                "workers={workers}: {message}"
            );
            assert_eq!(seen, (0..10).collect::<Vec<_>>(), "workers={workers}");
        }
    }

    #[test]
    fn a_panicking_sink_stops_the_pool() {
        for workers in [1, 4] {
            let jobs: Vec<(u32, _)> = (0..64u32).map(|i| (i, move || i)).collect();
            let (message, seen) = run_until_panic(workers, jobs, 7);
            assert!(
                message.contains("sink fails at 7"),
                "workers={workers}: {message}"
            );
            assert_eq!(seen, (0..7).collect::<Vec<_>>(), "workers={workers}");
        }
    }

    #[test]
    fn equal_keys_keep_submission_order() {
        let cfg = RunnerConfig::default().with_jobs(4);
        let jobs: Vec<(Key, _)> = (0..32u64).map(|i| ((0, 0), move || i)).collect();
        let mut got = Vec::new();
        run_keyed_streaming(&cfg, jobs, 4, |_, v| got.push(v));
        assert_eq!(got, (0..32).collect::<Vec<_>>());
    }
}
