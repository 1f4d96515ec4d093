//! The daemon's connection worker team.
//!
//! [`WorkerPool`] is a small team of long-lived worker threads fed through
//! a channel. The accept thread submits one job per admitted connection
//! (one channel send); whichever worker is free serves that connection to
//! completion, so the team size bounds the number of concurrently *served*
//! clients while further admitted connections wait in the queue.
//!
//! The pool is deliberately minimal: jobs are `FnOnce() + Send + 'static`
//! closures, and a panicking job is caught so the worker survives to serve
//! the next connection (the job's own drop guards release whatever the
//! dead session held — see `SessionGuard` in `service.rs`).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;

/// A boxed unit of work executed by one pool worker.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// A fixed-size team of long-lived worker threads fed by a channel.
///
/// Dropping the pool closes the channel and joins every worker; jobs already
/// queued still run to completion first.
#[derive(Debug)]
pub(crate) struct WorkerPool {
    /// `Some` while the pool accepts work; taken (closing the channel) on
    /// drop so the workers run dry and exit.
    sender: Option<mpsc::Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns a pool with `workers` threads (at least one).
    pub(crate) fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let (sender, receiver) = mpsc::channel::<Job>();
        let receiver = Arc::new(Mutex::new(receiver));
        let workers = (0..workers)
            .map(|i| {
                let receiver = Arc::clone(&receiver);
                std::thread::Builder::new()
                    .name(format!("acd-brokerd-conn-{i}"))
                    .spawn(move || loop {
                        // Hold the receiver lock only for the dequeue, not
                        // while running the job.
                        let job = receiver.lock().unwrap_or_else(|e| e.into_inner()).recv();
                        match job {
                            // A panicking job must not kill the worker: the
                            // team serves every connection of the daemon's
                            // lifetime.
                            Ok(job) => {
                                let _ = catch_unwind(AssertUnwindSafe(job));
                            }
                            Err(_) => break,
                        }
                    })
                    .expect("spawn connection worker")
            })
            .collect();
        WorkerPool {
            sender: Some(sender),
            workers,
        }
    }

    /// Enqueues a job; some worker runs it as soon as one is free.
    pub(crate) fn execute<F>(&self, job: F)
    where
        F: FnOnce() + Send + 'static,
    {
        self.sender
            .as_ref()
            .expect("pool accepts work until dropped")
            .send(Box::new(job))
            .expect("pool workers outlive the sender");
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Closing the channel makes every worker's next recv fail.
        self.sender.take();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    #[test]
    fn runs_every_job_exactly_once() {
        let pool = WorkerPool::new(3);
        let counter = Arc::new(AtomicUsize::new(0));
        let (tx, rx) = mpsc::channel();
        for _ in 0..64 {
            let counter = Arc::clone(&counter);
            let tx = tx.clone();
            pool.execute(move || {
                counter.fetch_add(1, Ordering::Relaxed);
                tx.send(()).unwrap();
            });
        }
        drop(tx);
        assert_eq!(rx.iter().count(), 64);
        assert_eq!(counter.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn jobs_run_concurrently_across_workers() {
        // Two jobs that each wait for the other can only finish if two
        // workers run them at the same time.
        let pool = WorkerPool::new(2);
        let barrier = Arc::new(std::sync::Barrier::new(2));
        let (tx, rx) = mpsc::channel();
        for _ in 0..2 {
            let barrier = Arc::clone(&barrier);
            let tx = tx.clone();
            pool.execute(move || {
                barrier.wait();
                tx.send(()).unwrap();
            });
        }
        drop(tx);
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(30)),
            Ok(()),
            "workers deadlocked: jobs did not run concurrently"
        );
        assert_eq!(rx.recv_timeout(Duration::from_secs(30)), Ok(()));
    }

    #[test]
    fn a_panicking_job_does_not_kill_the_worker() {
        let pool = WorkerPool::new(1);
        let (tx, rx) = mpsc::channel();
        pool.execute(|| panic!("job panic must be contained"));
        pool.execute(move || tx.send(7u32).unwrap());
        assert_eq!(rx.recv_timeout(Duration::from_secs(30)), Ok(7));
    }

    #[test]
    fn zero_workers_is_clamped_to_one() {
        let pool = WorkerPool::new(0);
        let (tx, rx) = mpsc::channel();
        pool.execute(move || tx.send(1u8).unwrap());
        assert_eq!(rx.recv_timeout(Duration::from_secs(30)), Ok(1));
    }

    #[test]
    fn drop_joins_workers_after_draining_queued_jobs() {
        let counter = Arc::new(AtomicUsize::new(0));
        {
            let pool = WorkerPool::new(2);
            for _ in 0..32 {
                let counter = Arc::clone(&counter);
                pool.execute(move || {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
            // Drop without waiting: queued jobs must still complete.
        }
        assert_eq!(counter.load(Ordering::Relaxed), 32);
    }
}
