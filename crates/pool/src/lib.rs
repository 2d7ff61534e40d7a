// Audited: every expect/panic in this file is an `invariant:`/
// `precondition:` panic (see the arm-check `no-panic` lint).
#![allow(clippy::expect_used)]

//! A minimal fixed-size worker-thread pool.
//!
//! The campus-scale sharded maxmin manager resolves independent shards —
//! disjoint connected components of the link/connection sharing graph —
//! in parallel. Shards share no state, so the only machinery needed is
//! "run these owned jobs on a few threads and hand the results back in
//! order": a handful of `std::thread` workers draining one shared
//! [`std::sync::mpsc`] channel. The pool is vendored-dependency-free and
//! contains no `unsafe`, which keeps it inside the workspace's
//! miri/sanitizer envelope.
//!
//! Determinism contract: [`WorkerPool::map`] returns results in the
//! *input order* of the jobs, whatever interleaving the workers ran them
//! in. Callers that key work by index (the shard planner does) therefore
//! observe scheduling-independent output.
//!
//! ```
//! let pool = arm_pool::WorkerPool::new(4);
//! let out = pool.map(vec![1u64, 2, 3], |x| x * 10);
//! assert_eq!(out, vec![10, 20, 30]);
//! ```

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A fixed-size pool of worker threads draining a shared job channel.
/// Dropping the pool shuts the workers down and joins them.
pub struct WorkerPool {
    job_tx: Option<Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawn a pool with `threads` workers (clamped to at least one).
    #[must_use]
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let (job_tx, job_rx) = channel::<Job>();
        let job_rx = Arc::new(Mutex::new(job_rx));
        let workers = (0..threads)
            .map(|i| {
                let rx = Arc::clone(&job_rx);
                std::thread::Builder::new()
                    .name(format!("arm-pool-{i}"))
                    .spawn(move || worker_loop(&rx))
                    .expect("invariant: worker thread spawns")
            })
            .collect();
        Self {
            job_tx: Some(job_tx),
            workers,
        }
    }

    /// The worker count [`Self::with_default_threads`] spawns:
    /// `available_parallelism` minus one (leave a core for the caller),
    /// clamped to `[1, 8]`. Sampled once — callers that spawn lazily ask
    /// on their hot path, and the OS query is slow.
    #[must_use]
    pub fn default_threads() -> usize {
        static THREADS: OnceLock<usize> = OnceLock::new();
        *THREADS.get_or_init(|| {
            let cores = std::thread::available_parallelism().map_or(2, std::num::NonZeroUsize::get);
            cores.saturating_sub(1).clamp(1, 8)
        })
    }

    /// Spawn a pool sized to the machine ([`Self::default_threads`]).
    #[must_use]
    pub fn with_default_threads() -> Self {
        Self::new(Self::default_threads())
    }

    /// Number of worker threads.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Run `f` over every job on the worker threads and return the
    /// results **in input order**. Blocks until all jobs finish.
    ///
    /// A job that panics is swallowed on the worker (the thread
    /// survives for later batches) and surfaces here as a panic in the
    /// caller once the batch drains, so failures are never silent.
    pub fn map<T, R, F>(&self, jobs: Vec<T>, f: F) -> Vec<R>
    where
        T: Send + 'static,
        R: Send + 'static,
        F: Fn(T) -> R + Send + Sync + 'static,
    {
        let n = jobs.len();
        let f = Arc::new(f);
        let (res_tx, res_rx) = channel::<(usize, R)>();
        let job_tx = self
            .job_tx
            .as_ref()
            .expect("invariant: pool alive while mapping");
        for (i, job) in jobs.into_iter().enumerate() {
            let f = Arc::clone(&f);
            let tx = res_tx.clone();
            job_tx
                .send(Box::new(move || {
                    let _ = tx.send((i, f(job)));
                }))
                .expect("invariant: workers outlive the pool handle");
        }
        // Drop the local sender so a lost job (worker panic) turns into
        // a channel disconnect instead of a deadlock.
        drop(res_tx);
        let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
        for _ in 0..n {
            let (i, r) = res_rx
                .recv()
                .expect("invariant: pool job completed without panicking");
            slots[i] = Some(r);
        }
        slots
            .into_iter()
            .map(|s| s.expect("invariant: every job index reported once"))
            .collect()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Closing the channel ends every worker's recv loop.
        drop(self.job_tx.take());
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn worker_loop(rx: &Mutex<Receiver<Job>>) {
    loop {
        // Holding the lock across `recv` is the standard single-queue
        // handoff: one idle worker parks on the channel, takes the next
        // job, and releases the lock before running it.
        let job = {
            let guard = rx.lock().expect("invariant: pool mutex not poisoned");
            match guard.recv() {
                Ok(job) => job,
                Err(_) => break, // pool dropped
            }
        };
        // A panicking job must not kill the worker; `map` detects the
        // missing result via the disconnected result channel.
        let _ = catch_unwind(AssertUnwindSafe(job));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_input_order() {
        let pool = WorkerPool::new(4);
        let jobs: Vec<u64> = (0..100).collect();
        let out = pool.map(jobs, |x| x * x);
        assert_eq!(out, (0..100).map(|x| x * x).collect::<Vec<u64>>());
    }

    #[test]
    fn pool_is_reusable_across_batches() {
        let pool = WorkerPool::new(2);
        for round in 0..5u64 {
            let out = pool.map(vec![round, round + 1], |x| x + 1);
            assert_eq!(out, vec![round + 1, round + 2]);
        }
    }

    #[test]
    fn empty_batch_returns_immediately() {
        let pool = WorkerPool::new(3);
        let out: Vec<u64> = pool.map(Vec::<u64>::new(), |x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn zero_thread_request_clamps_to_one() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.threads(), 1);
        assert_eq!(pool.map(vec![7u64], |x| x), vec![7]);
    }

    #[test]
    fn work_actually_runs_on_worker_threads() {
        let pool = WorkerPool::new(2);
        let main = std::thread::current().id();
        let ids = pool.map(vec![(), ()], move |()| std::thread::current().id());
        assert!(ids.iter().all(|id| *id != main));
    }

    #[test]
    #[should_panic(expected = "invariant: pool job completed")]
    fn panicking_job_surfaces_in_the_caller() {
        let pool = WorkerPool::new(2);
        let _ = pool.map(vec![0u64, 1], |x| {
            assert!(x != 1, "precondition: test job fails on purpose");
            x
        });
    }

    #[test]
    fn pool_survives_a_panicking_batch() {
        let pool = WorkerPool::new(1);
        let crashed = catch_unwind(AssertUnwindSafe(|| {
            pool.map(vec![1u64], |_| {
                panic!("precondition: test job fails on purpose")
            })
        }));
        assert!(crashed.is_err());
        // The single worker must still be alive and serving.
        assert_eq!(pool.map(vec![5u64], |x| x * 2), vec![10]);
    }
}
