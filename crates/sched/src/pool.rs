//! The ordered worker pool: scatter jobs by value, gather results by
//! input position.
//!
//! Both host-parallel layers use this one pool. The SuperPin runner
//! advances the running slices of an epoch on it; the service fleet
//! (`superpin-serve`) steps the selected jobs of a round on it. The
//! argument is the same at both levels: every scheduling decision is
//! fixed before [`OrderedPool::run`] is called, jobs never see each
//! other, and results come back **by input position** — so wall-clock
//! completion order, the only nondeterminism threads introduce, never
//! reaches the caller.
//!
//! Mechanics: workers are spawned once and persist; a round costs one
//! batch message per busy worker (jobs are dealt round-robin over the
//! live workers, in input order) and one reply on that worker's *own*
//! result channel. A worker that dies holding its batch — a panic in
//! the work function, or the `kill` fault-injection seam — therefore
//! shows up as a disconnect on exactly its channel: the positions it
//! held come back as [`WorkerLost`], the survivors' results are intact,
//! and the dead worker is skipped in every later round. With
//! `threads <= 1`, fewer than two jobs, or no worker left alive, the
//! round runs inline on the calling thread with identical results.

use std::sync::mpsc;
use std::thread::JoinHandle;

/// A worker died holding the job at this position: the job is gone and
/// the worker takes no further batches.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WorkerLost {
    /// Index of the dead worker in the pool.
    pub worker: usize,
}

/// One round's share of the jobs for one worker, keyed by input
/// position.
struct Batch<C, J> {
    ctx: C,
    jobs: Vec<(usize, J)>,
    /// Fault injection: drop the batch unprocessed and exit.
    die: bool,
}

struct Worker<C, J, R> {
    batches: mpsc::Sender<Batch<C, J>>,
    results: mpsc::Receiver<Vec<(usize, R)>>,
    handle: JoinHandle<()>,
    alive: bool,
}

/// A persistent pool applying `work(&ctx, job)` to every job of a
/// round. `C` is the round's shared context, cloned once per busy
/// worker.
pub struct OrderedPool<C, J, R> {
    work: fn(&C, J) -> R,
    workers: Vec<Worker<C, J, R>>,
}

impl<C, J, R> OrderedPool<C, J, R>
where
    C: Clone + Send + 'static,
    J: Send + 'static,
    R: Send + 'static,
{
    /// Spawns `threads` workers; none when `threads <= 1`, which makes
    /// every round run inline.
    pub fn new(threads: usize, work: fn(&C, J) -> R) -> OrderedPool<C, J, R> {
        let spawn = if threads > 1 { threads } else { 0 };
        let workers = (0..spawn)
            .map(|_| {
                let (batches, inbox) = mpsc::channel::<Batch<C, J>>();
                let (outbox, results) = mpsc::channel();
                let handle = std::thread::spawn(move || {
                    while let Ok(batch) = inbox.recv() {
                        if batch.die {
                            break;
                        }
                        let done = batch
                            .jobs
                            .into_iter()
                            .map(|(position, job)| (position, work(&batch.ctx, job)))
                            .collect();
                        if outbox.send(done).is_err() {
                            break;
                        }
                    }
                });
                Worker {
                    batches,
                    results,
                    handle,
                    alive: true,
                }
            })
            .collect();
        OrderedPool { work, workers }
    }

    /// Whether any worker is alive, i.e. whether a round of two or more
    /// jobs leaves the calling thread at all.
    pub fn is_parallel(&self) -> bool {
        self.workers.iter().any(|worker| worker.alive)
    }

    /// Runs one round and returns one entry per job, in input order.
    ///
    /// `kill(worker)` is the fault-injection seam, asked once per busy
    /// worker before its batch is sent: `true` makes that worker drop
    /// the batch and exit, which is what a crashed worker looks like
    /// from outside. `meanwhile` runs on the calling thread between
    /// dispatch and collection (work that must not leave this thread
    /// overlaps the workers there).
    pub fn run(
        &mut self,
        ctx: &C,
        jobs: Vec<J>,
        mut kill: impl FnMut(usize) -> bool,
        meanwhile: impl FnOnce(),
    ) -> Vec<Result<R, WorkerLost>> {
        let alive: Vec<usize> = (0..self.workers.len())
            .filter(|&worker| self.workers[worker].alive)
            .collect();
        if jobs.len() < 2 || alive.is_empty() {
            meanwhile();
            return jobs
                .into_iter()
                .map(|job| Ok((self.work)(ctx, job)))
                .collect();
        }
        let mut out: Vec<Option<Result<R, WorkerLost>>> = jobs.iter().map(|_| None).collect();
        let mut dealt: Vec<Vec<(usize, J)>> = alive.iter().map(|_| Vec::new()).collect();
        for (position, job) in jobs.into_iter().enumerate() {
            dealt[position % alive.len()].push((position, job));
        }
        let mut busy: Vec<(usize, Vec<usize>)> = Vec::new();
        for (&worker, jobs) in alive.iter().zip(dealt) {
            if jobs.is_empty() {
                continue;
            }
            let manifest = jobs.iter().map(|&(position, _)| position).collect();
            let batch = Batch {
                ctx: ctx.clone(),
                jobs,
                die: kill(worker),
            };
            match self.workers[worker].batches.send(batch) {
                Ok(()) => busy.push((worker, manifest)),
                // The worker is already gone and the batch never left
                // this thread: retire the worker, run the batch here.
                Err(mpsc::SendError(batch)) => {
                    self.workers[worker].alive = false;
                    for (position, job) in batch.jobs {
                        out[position] = Some(Ok((self.work)(ctx, job)));
                    }
                }
            }
        }
        meanwhile();
        for (worker, manifest) in busy {
            match self.workers[worker].results.recv() {
                Ok(done) => {
                    for (position, result) in done {
                        out[position] = Some(Ok(result));
                    }
                }
                Err(mpsc::RecvError) => {
                    self.workers[worker].alive = false;
                    for position in manifest {
                        out[position] = Some(Err(WorkerLost { worker }));
                    }
                }
            }
        }
        out.into_iter()
            .map(|entry| entry.expect("every position is reported or lost"))
            .collect()
    }
}

impl<C, J, R> Drop for OrderedPool<C, J, R> {
    fn drop(&mut self) {
        for worker in std::mem::take(&mut self.workers) {
            // Hanging up the batch channel is the shutdown signal. A
            // worker that panicked was already reported as lost.
            drop(worker.batches);
            let _ = worker.handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc::{Receiver, Sender};

    /// A job that finishes only after the job behind it has: `wait` is
    /// signalled by the next position, `done` signals the previous one.
    struct Chained {
        value: u64,
        wait: Option<Receiver<()>>,
        done: Option<Sender<()>>,
    }

    fn chained(count: u64) -> Vec<Chained> {
        let mut jobs: Vec<Chained> = (0..count)
            .map(|value| Chained {
                value,
                wait: None,
                done: None,
            })
            .collect();
        for position in 1..jobs.len() {
            let (tx, rx) = mpsc::channel();
            jobs[position].done = Some(tx);
            jobs[position - 1].wait = Some(rx);
        }
        jobs
    }

    fn square_in_reverse(offset: &u64, job: Chained) -> u64 {
        if let Some(wait) = job.wait {
            wait.recv().expect("the next position finishes first");
        }
        if let Some(done) = job.done {
            done.send(()).expect("the previous position is waiting");
        }
        job.value * job.value + offset
    }

    #[test]
    fn input_order_is_restored_when_completion_order_is_reversed() {
        // One job per worker, each blocked on its successor: the last
        // position completes first, the first position last.
        let mut pool = OrderedPool::new(4, square_in_reverse);
        let got = pool.run(&100, chained(4), |_| false, || ());
        let want: Vec<Result<u64, WorkerLost>> = vec![Ok(100), Ok(101), Ok(104), Ok(109)];
        assert_eq!(got, want);
    }

    fn double(_: &(), job: u64) -> u64 {
        job * 2
    }

    fn double_or_panic(_: &(), job: u64) -> u64 {
        assert_ne!(job, 13, "injected worker panic");
        job * 2
    }

    #[test]
    fn a_killed_worker_yields_its_exact_manifest_and_is_skipped_afterwards() {
        let mut pool = OrderedPool::new(3, double);
        let mut asked = Vec::new();
        let got = pool.run(
            &(),
            (0..7).collect(),
            |worker| {
                asked.push(worker);
                worker == 1
            },
            || (),
        );
        assert_eq!(asked, [0, 1, 2], "one question per busy worker, in order");
        // Round-robin over three workers: worker 1 held positions 1 and 4.
        let lost = Err(WorkerLost { worker: 1 });
        assert_eq!(
            got,
            [Ok(0), lost, Ok(4), Ok(6), lost, Ok(10), Ok(12)],
            "exactly the dead worker's positions are lost"
        );
        // Next round deals over the two survivors only.
        let mut asked = Vec::new();
        let got = pool.run(
            &(),
            (0..4).collect(),
            |worker| {
                asked.push(worker);
                false
            },
            || (),
        );
        assert_eq!(asked, [0, 2]);
        assert_eq!(got, [Ok(0), Ok(2), Ok(4), Ok(6)]);
    }

    #[test]
    fn a_panicking_worker_is_a_typed_loss_not_a_hang() {
        let mut pool = OrderedPool::new(2, double_or_panic);
        let got = pool.run(&(), vec![1, 13, 3, 4], |_| false, || ());
        let lost = Err(WorkerLost { worker: 1 });
        assert_eq!(got, [Ok(2), lost, Ok(6), lost]);
        assert!(pool.is_parallel(), "worker 0 survives");
    }

    #[test]
    fn a_fully_dead_pool_runs_inline_with_the_same_results() {
        let mut pool = OrderedPool::new(2, double);
        let first = pool.run(&(), vec![1, 2, 3], |_| true, || ());
        assert!(first.iter().all(Result::is_err));
        assert!(!pool.is_parallel());
        let mut overlapped = false;
        let got = pool.run(&(), vec![1, 2, 3], |_| true, || overlapped = true);
        assert_eq!(got, [Ok(2), Ok(4), Ok(6)], "inline: nothing left to kill");
        assert!(overlapped, "`meanwhile` runs on the inline path too");
        let mut serial = OrderedPool::new(1, double);
        assert!(!serial.is_parallel());
        assert_eq!(serial.run(&(), vec![1, 2, 3], |_| false, || ()), got);
    }

    static EXITED: AtomicUsize = AtomicUsize::new(0);

    struct CountsThreadExit;

    impl Drop for CountsThreadExit {
        fn drop(&mut self) {
            EXITED.fetch_add(1, Ordering::SeqCst);
        }
    }

    thread_local! {
        static ON_EXIT: CountsThreadExit = const { CountsThreadExit };
    }

    fn touch_thread_local(_: &(), job: u64) -> u64 {
        ON_EXIT.with(|_| job)
    }

    #[test]
    fn dropping_the_pool_joins_every_worker() {
        let mut pool = OrderedPool::new(3, touch_thread_local);
        let got = pool.run(&(), vec![7, 8, 9], |_| false, || ());
        assert_eq!(got, [Ok(7), Ok(8), Ok(9)]);
        assert_eq!(EXITED.load(Ordering::SeqCst), 0, "workers persist");
        drop(pool);
        // A joined thread has run its thread-local destructors.
        assert_eq!(EXITED.load(Ordering::SeqCst), 3);
    }
}
