//! On-demand worker pool for the reactor.
//!
//! The reactor thread must never block on command execution (a single
//! `STOR` can run for seconds), so it hands complete command frames to
//! this pool: one shared FIFO and a set of worker threads that grows
//! with the number of jobs in flight.
//!
//! * **No cap, no head-of-line blocking**: a job that finds no parked
//!   worker gets a fresh thread, so a session holding a worker for a
//!   whole transfer delays nobody. The reactor dispatches at most one
//!   job per session, which bounds the threads by the sessions with a
//!   command in flight (and alone gives per-session command order: the
//!   pool needs no shards for it).
//! * **Warm reuse**: a worker that runs out of jobs parks on the queue
//!   and takes the next one, so a session issuing command after command
//!   spawns nothing. A worker parked for [`IDLE_RETIRE`] exits.

use std::collections::VecDeque;
use std::io;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

/// How long a parked worker waits for a job before it exits.
const IDLE_RETIRE: Duration = Duration::from_secs(10);

const POISONED: &str = "a pool worker panicked holding the queue lock";

/// A pool of named worker threads executing jobs of type `J` through a
/// fixed handler.
pub(crate) struct WorkerPool<J: Send + 'static> {
    shared: Arc<Shared<J>>,
}

struct Shared<J> {
    state: Mutex<State<J>>,
    /// Signalled once per queued job, and to all on close.
    work: Condvar,
    handler: Box<dyn Fn(J) + Send + Sync>,
}

struct State<J> {
    queue: VecDeque<J>,
    /// Workers waiting on `work`.
    parked: usize,
    /// Workers that have not exited.
    live: usize,
    closed: bool,
    handles: Vec<JoinHandle<()>>,
}

impl<J> Shared<J> {
    fn lock(&self) -> MutexGuard<'_, State<J>> {
        self.state.lock().expect(POISONED)
    }
}

impl<J: Send + 'static> WorkerPool<J> {
    /// An empty pool; threads appear with the first jobs. `handler` runs
    /// every job; it must do its own error signalling (typically via a
    /// completion channel captured in the closure).
    pub(crate) fn new(handler: impl Fn(J) + Send + Sync + 'static) -> WorkerPool<J> {
        WorkerPool {
            shared: Arc::new(Shared {
                state: Mutex::new(State {
                    queue: VecDeque::new(),
                    parked: 0,
                    live: 0,
                    closed: false,
                    handles: Vec::new(),
                }),
                work: Condvar::new(),
                handler: Box::new(handler),
            }),
        }
    }

    /// Queue `job`. Every queued job is matched by a parked worker or by
    /// a thread spawned here. An `Err` is the OS refusing that thread:
    /// the job then still waits its turn behind the running ones
    /// (`None`), unless no worker is left to ever reach it, in which
    /// case it comes back (`Some`).
    pub(crate) fn submit(&self, job: J) -> Result<(), (Option<J>, io::Error)> {
        let mut st = self.shared.lock();
        let mut refused = None;
        if st.parked <= st.queue.len() {
            let shared = Arc::clone(&self.shared);
            let spawned = std::thread::Builder::new()
                .name("ig-pool".into())
                .spawn(move || work(&shared));
            match spawned {
                Ok(handle) => {
                    st.live += 1;
                    // Retired workers' handles go once they outnumber
                    // the live ones, so a burst of spawns scans once.
                    if st.handles.len() >= 2 * st.live {
                        st.handles.retain(|h| !h.is_finished());
                    }
                    st.handles.push(handle);
                }
                Err(e) if st.live == 0 => return Err((Some(job), e)),
                Err(e) => refused = Some(e),
            }
        }
        st.queue.push_back(job);
        drop(st);
        self.shared.work.notify_one();
        refused.map_or(Ok(()), |e| Err((None, e)))
    }

    /// Worker threads that have not exited.
    #[cfg(test)]
    fn live(&self) -> usize {
        self.shared.lock().live
    }
}

fn work<J>(shared: &Shared<J>) {
    let mut st = shared.lock();
    loop {
        if let Some(job) = st.queue.pop_front() {
            drop(st);
            (shared.handler)(job);
            st = shared.lock();
            continue;
        }
        if st.closed {
            break;
        }
        st.parked += 1;
        let (guard, wait) = shared.work.wait_timeout(st, IDLE_RETIRE).expect(POISONED);
        st = guard;
        st.parked -= 1;
        if wait.timed_out() && st.queue.is_empty() {
            break;
        }
    }
    st.live -= 1;
}

impl<J: Send + 'static> Drop for WorkerPool<J> {
    fn drop(&mut self) {
        // Workers drain the queue before they look at `closed`.
        let handles = {
            let mut st = self.shared.lock();
            st.closed = true;
            std::mem::take(&mut st.handles)
        };
        self.shared.work.notify_all();
        for h in handles {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;
    use std::sync::Barrier;

    #[test]
    fn executes_everything_and_joins_on_drop() {
        let sum = Arc::new(AtomicUsize::new(0));
        let s2 = Arc::clone(&sum);
        let pool: WorkerPool<usize> = WorkerPool::new(move |n| {
            s2.fetch_add(n, Ordering::SeqCst);
        });
        for n in 1..=100 {
            pool.submit(n).unwrap();
        }
        drop(pool); // joins: every accepted job ran
        assert_eq!(sum.load(Ordering::SeqCst), 5050);
    }

    #[test]
    fn jobs_that_block_each_get_a_worker() {
        // Every job waits for all the others: a pool with any cap below
        // N never gets past the barrier.
        const N: usize = 24;
        let barrier = Arc::new(Barrier::new(N + 1));
        let b2 = Arc::clone(&barrier);
        let pool: WorkerPool<()> = WorkerPool::new(move |()| {
            b2.wait();
        });
        for _ in 0..N {
            pool.submit(()).unwrap();
        }
        barrier.wait();
        assert_eq!(pool.live(), N);
    }

    #[test]
    fn a_parked_worker_takes_the_next_job() {
        let (done_tx, done_rx) = mpsc::channel();
        let pool: WorkerPool<u32> = WorkerPool::new(move |n| done_tx.send(n).unwrap());
        pool.submit(1).unwrap();
        assert_eq!(done_rx.recv().unwrap(), 1);
        // The worker reports before it parks: wait until it has.
        while pool.shared.lock().parked == 0 {
            std::thread::yield_now();
        }
        for n in 2..50 {
            pool.submit(n).unwrap();
            assert_eq!(done_rx.recv().unwrap(), n);
            while pool.shared.lock().parked == 0 {
                std::thread::yield_now();
            }
            assert_eq!(pool.live(), 1, "a warm pool must not spawn");
        }
    }
}
