//! The shared, long-lived solver worker pool.
//!
//! Pre-processing used to spawn a scoped thread pool per `preprocess` /
//! `refresh` call; at service scale (many tenants, frequent µs-scale
//! delta refreshes) the spawn cost dominates the small batches. The
//! [`SolverPool`] keeps its workers parked on a condition variable
//! between batches, so every tenant's pre-processing and refresh traffic
//! reuses the same threads (the ROADMAP's "cross-problem solver pool").
//!
//! The pool executes *scatter* batches: [`SolverPool::scatter`] enqueues
//! `n` closures sharing the caller's borrows and blocks until all of
//! them finished, which is exactly the shape of the work-stealing job
//! loop in [`crate::generator`]. Because scatter is a rendezvous — the
//! submitting thread cannot return before every task completed — the
//! closures may safely borrow from the submitting stack frame even
//! though the queue itself is `'static`.
//!
//! Batches carry a [`ScatterPriority`]: the queue holds two lanes and
//! workers always drain the [`ScatterPriority::Interactive`] lane before
//! touching [`ScatterPriority::Bulk`] jobs. Delta refreshes (small,
//! latency-sensitive) ride the interactive lane while whole-dataset
//! registrations and ingest flushes are tagged bulk, so a large
//! registration queued first cannot delay a µs-scale refresh behind it.
//!
//! The pool is the only solver parallelism: each job solves whole
//! problems, and one search never fans out further. Answering a request
//! never queues a job here — live plans run on the thread that answers.
//!
//! ```
//! use vqs_engine::service::{ScatterPriority, SolverPool};
//!
//! let pool = SolverPool::new(2);
//! let squares = pool.scatter(4, |i| i * i);
//! assert_eq!(squares, vec![0, 1, 4, 9]);
//! // Same rendezvous, but queued behind any interactive batch:
//! let sums = pool.scatter_at(ScatterPriority::Bulk, 3, |i| i + 1);
//! assert_eq!(sums, vec![1, 2, 3]);
//! ```

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// A queued unit of work. Lifetimes are erased on submission; safety is
/// re-established by the scatter rendezvous (see [`SolverPool::scatter`]).
type Job = Box<dyn FnOnce() + Send + 'static>;

/// Which lane a scatter batch is queued on. Workers exhaust the
/// `Interactive` lane before popping any `Bulk` job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScatterPriority {
    /// Latency-sensitive batches (delta refreshes): always served first.
    Interactive,
    /// Throughput batches (whole-dataset registrations): served only
    /// when no interactive work is queued.
    Bulk,
}

/// The two scatter lanes, behind one lock so a pop observes both
/// consistently.
#[derive(Default)]
struct JobQueues {
    interactive: VecDeque<Job>,
    bulk: VecDeque<Job>,
}

impl JobQueues {
    fn pop(&mut self) -> Option<Job> {
        self.interactive
            .pop_front()
            .or_else(|| self.bulk.pop_front())
    }

    fn lane(&mut self, priority: ScatterPriority) -> &mut VecDeque<Job> {
        match priority {
            ScatterPriority::Interactive => &mut self.interactive,
            ScatterPriority::Bulk => &mut self.bulk,
        }
    }
}

/// State shared between the pool handle and its worker threads.
struct Shared {
    queue: Mutex<JobQueues>,
    job_ready: Condvar,
    shutdown: AtomicBool,
}

/// Completion state of one scatter batch. Heap-allocated (`Arc`) so a
/// worker finishing a task after the submitting thread already woke up
/// only ever touches live memory.
struct Scatter<T> {
    /// One slot per task; `Err` carries a captured panic payload.
    results: Mutex<Vec<Option<std::thread::Result<T>>>>,
    /// Tasks not yet finished; the batch rendezvous.
    remaining: Mutex<usize>,
    done: Condvar,
}

/// A fixed set of worker threads executing scatter batches; workers park
/// between batches instead of being respawned per call.
pub struct SolverPool {
    shared: Arc<Shared>,
    workers: usize,
    handles: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for SolverPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SolverPool")
            .field("workers", &self.workers)
            .finish_non_exhaustive()
    }
}

impl SolverPool {
    /// Spawn a pool with `workers` threads (`0` = all available cores).
    pub fn new(workers: usize) -> SolverPool {
        let workers = if workers == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
        } else {
            workers
        };
        let shared = Arc::new(Shared {
            queue: Mutex::new(JobQueues::default()),
            job_ready: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let handles = (0..workers)
            .map(|index| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("vqs-solver-{index}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn solver worker")
            })
            .collect();
        SolverPool {
            shared,
            workers,
            handles,
        }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Jobs currently queued (not yet picked up) on the
    /// (interactive, bulk) lanes — a scheduling diagnostic for tests
    /// and load monitors, racy by nature.
    pub fn queued(&self) -> (usize, usize) {
        let queues = self.shared.queue.lock().expect("pool queue poisoned");
        (queues.interactive.len(), queues.bulk.len())
    }

    /// Run `task(0..tasks)` on the pool at interactive priority and
    /// return the results in task order. Blocks until every task
    /// finished; a panicking task is re-raised on the calling thread
    /// after the whole batch completed, so the pool itself always stays
    /// usable.
    ///
    /// The closure (and its captures, and `T`) may borrow from the
    /// caller's stack: the rendezvous guarantees those borrows outlive
    /// every use inside the pool.
    pub fn scatter<'env, T, F>(&self, tasks: usize, task: F) -> Vec<T>
    where
        T: Send + 'env,
        F: Fn(usize) -> T + Sync + 'env,
    {
        self.scatter_at(ScatterPriority::Interactive, tasks, task)
    }

    /// [`SolverPool::scatter`] with an explicit lane: `Bulk` batches are
    /// only popped while no `Interactive` job is queued.
    pub fn scatter_at<'env, T, F>(&self, priority: ScatterPriority, tasks: usize, task: F) -> Vec<T>
    where
        T: Send + 'env,
        F: Fn(usize) -> T + Sync + 'env,
    {
        if tasks == 0 {
            return Vec::new();
        }
        let state: Arc<Scatter<T>> = Arc::new(Scatter {
            results: Mutex::new((0..tasks).map(|_| None).collect()),
            remaining: Mutex::new(tasks),
            done: Condvar::new(),
        });
        let task = &task;
        {
            let mut queues = self.shared.queue.lock().expect("pool queue poisoned");
            let queue = queues.lane(priority);
            for index in 0..tasks {
                let state = Arc::clone(&state);
                let job: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                    let outcome = catch_unwind(AssertUnwindSafe(|| task(index)));
                    state.results.lock().expect("scatter results poisoned")[index] = Some(outcome);
                    // The countdown is the job's last touch of batch
                    // state; notifying under the lock pairs with the
                    // re-acquisition inside `wait` below, so the waiter
                    // cannot observe zero before this job released it.
                    let mut remaining = state.remaining.lock().expect("scatter remaining poisoned");
                    *remaining -= 1;
                    if *remaining == 0 {
                        state.done.notify_all();
                    }
                });
                // SAFETY: only the lifetime is transmuted away. The wait
                // loop below blocks until `remaining` reaches zero, which
                // each job decrements strictly after its last use of the
                // borrowed closure; the `Scatter` state itself is
                // Arc-owned, so late per-job `Arc` drops touch only heap
                // memory. Borrows from the caller's frame therefore
                // cannot be observed dangling.
                let job: Job =
                    unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + '_>, Job>(job) };
                queue.push_back(job);
            }
            self.shared.job_ready.notify_all();
        }

        let mut remaining = state.remaining.lock().expect("scatter remaining poisoned");
        while *remaining > 0 {
            remaining = state
                .done
                .wait(remaining)
                .expect("scatter remaining poisoned");
        }
        drop(remaining);

        let slots = std::mem::take(&mut *state.results.lock().expect("scatter results poisoned"));
        slots
            .into_iter()
            .map(|slot| match slot.expect("scatter task never ran") {
                Ok(value) => value,
                Err(panic) => resume_unwind(panic),
            })
            .collect()
    }
}

impl Drop for SolverPool {
    fn drop(&mut self) {
        // Set the flag while holding the queue lock: a worker is either
        // before its lock acquisition (it will observe the flag), inside
        // `wait` (the notify below wakes it), or still holding the lock
        // (this store is delayed until it released it by waiting) —
        // never in the load-flag→wait window where a lockless store
        // would lose the wakeup and deadlock the join below.
        {
            let _queue = self.shared.queue.lock().expect("pool queue poisoned");
            self.shared.shutdown.store(true, Ordering::Relaxed);
        }
        self.shared.job_ready.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Worker body: drain the queue, park on the condvar between batches,
/// exit once shut down with an empty queue.
fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut queues = shared.queue.lock().expect("pool queue poisoned");
            loop {
                if let Some(job) = queues.pop() {
                    break Some(job);
                }
                if shared.shutdown.load(Ordering::Relaxed) {
                    break None;
                }
                queues = shared.job_ready.wait(queues).expect("pool queue poisoned");
            }
        };
        match job {
            Some(job) => job(),
            None => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn scatter_returns_results_in_task_order() {
        let pool = SolverPool::new(4);
        let results = pool.scatter(16, |i| i * i);
        assert_eq!(results, (0..16).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn scatter_may_borrow_the_callers_stack() {
        let pool = SolverPool::new(2);
        let data: Vec<u64> = (0..100).collect();
        let counter = AtomicUsize::new(0);
        let sums = pool.scatter(5, |i| {
            counter.fetch_add(1, Ordering::Relaxed);
            data[i * 20..(i + 1) * 20].iter().sum::<u64>()
        });
        assert_eq!(sums.iter().sum::<u64>(), data.iter().sum::<u64>());
        assert_eq!(counter.load(Ordering::Relaxed), 5);
    }

    #[test]
    fn pool_survives_many_batches() {
        let pool = SolverPool::new(3);
        for round in 0..50usize {
            let results = pool.scatter(7, move |i| round + i);
            assert_eq!(results.len(), 7);
            assert_eq!(results[0], round);
        }
    }

    #[test]
    fn more_tasks_than_workers_all_complete() {
        let pool = SolverPool::new(2);
        let hits = AtomicUsize::new(0);
        pool.scatter(64, |_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn panicking_task_propagates_after_the_batch() {
        let pool = SolverPool::new(2);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.scatter(4, |i| {
                if i == 2 {
                    panic!("injected task failure");
                }
                i
            })
        }));
        assert!(result.is_err());
        // The pool is still usable after a panicked batch.
        assert_eq!(pool.scatter(3, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn concurrent_scatters_from_many_threads() {
        let pool = SolverPool::new(4);
        std::thread::scope(|scope| {
            for t in 0..4usize {
                let pool = &pool;
                scope.spawn(move || {
                    for _ in 0..20 {
                        let out = pool.scatter(5, move |i| t * 1000 + i);
                        assert_eq!(out, (0..5).map(|i| t * 1000 + i).collect::<Vec<_>>());
                    }
                });
            }
        });
    }

    #[test]
    fn zero_workers_means_available_parallelism() {
        let pool = SolverPool::new(0);
        assert!(pool.workers() >= 1);
        assert_eq!(pool.scatter(2, |i| i), vec![0, 1]);
    }

    #[test]
    fn bulk_scatter_returns_results_in_task_order() {
        let pool = SolverPool::new(2);
        let results = pool.scatter_at(ScatterPriority::Bulk, 8, |i| i * 3);
        assert_eq!(results, (0..8).map(|i| i * 3).collect::<Vec<_>>());
    }

    /// Interactive jobs enqueued *after* bulk jobs still run first: with
    /// the single worker parked on a gate job, a bulk batch and then an
    /// interactive batch are queued (observed via `queued()`), and the
    /// recorded execution order shows the interactive lane drained
    /// before the bulk lane.
    #[test]
    fn interactive_lane_preempts_queued_bulk_jobs() {
        let pool = Arc::new(SolverPool::new(1));
        let gate = Arc::new((Mutex::new(true), Condvar::new()));
        let entered = Arc::new(AtomicUsize::new(0));
        let order: Arc<Mutex<Vec<&'static str>>> = Arc::new(Mutex::new(Vec::new()));

        let gate_worker = {
            let (pool, gate, entered) =
                (Arc::clone(&pool), Arc::clone(&gate), Arc::clone(&entered));
            std::thread::spawn(move || {
                pool.scatter(1, |_| {
                    entered.fetch_add(1, Ordering::SeqCst);
                    let (closed, released) = &*gate;
                    let mut closed = closed.lock().unwrap();
                    while *closed {
                        closed = released.wait(closed).unwrap();
                    }
                });
            })
        };
        while entered.load(Ordering::SeqCst) == 0 {
            std::thread::yield_now();
        }

        let bulk_worker = {
            let (pool, order) = (Arc::clone(&pool), Arc::clone(&order));
            std::thread::spawn(move || {
                pool.scatter_at(ScatterPriority::Bulk, 2, |_| {
                    order.lock().unwrap().push("bulk");
                });
            })
        };
        while pool.queued().1 < 2 {
            std::thread::yield_now();
        }
        let interactive_worker = {
            let (pool, order) = (Arc::clone(&pool), Arc::clone(&order));
            std::thread::spawn(move || {
                pool.scatter(2, |_| {
                    order.lock().unwrap().push("interactive");
                });
            })
        };
        while pool.queued().0 < 2 {
            std::thread::yield_now();
        }

        let (closed, released) = &*gate;
        *closed.lock().unwrap() = false;
        released.notify_all();
        gate_worker.join().unwrap();
        bulk_worker.join().unwrap();
        interactive_worker.join().unwrap();
        assert_eq!(
            *order.lock().unwrap(),
            vec!["interactive", "interactive", "bulk", "bulk"]
        );
    }
}
