//! The ordered worker pool: scatter jobs by value, gather results by
//! input position.
//!
//! Both host-parallel layers use this one pool. The SuperPin runner
//! advances the running slices of every epoch on it; the service fleet
//! (`superpin-serve`) steps the selected jobs of a round on it. The
//! argument is the same at both levels: every scheduling decision is
//! fixed before [`OrderedPool::run`] is called, jobs never see each
//! other, and results come back **by input position** — so wall-clock
//! completion order, the only nondeterminism threads introduce, never
//! reaches the caller.
//!
//! Mechanics: workers are spawned once and persist; a round costs one
//! batch message per busy worker (unpinned jobs are dealt round-robin
//! over the live workers, in input order) and one reply on that
//! worker's *own* result channel. Pinned jobs never leave the calling
//! thread: they run there between dispatch and collection. A worker
//! that dies holding its batch — a panic in the work function, or the
//! `kill` fault-injection seam — therefore shows up as a disconnect on
//! exactly its channel: the positions it held come back as
//! [`WorkerLost`], the survivors' results are intact, and the dead
//! worker is skipped in every later round. The pool alone decides when
//! a round stays on the calling thread: with `threads <= 1`, fewer
//! than two unpinned jobs, or no worker left alive, every job runs
//! inline, in input order, with identical results.

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
    /// every round run inline on the calling thread.
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

    /// Runs one round and returns one entry per job, in input order.
    ///
    /// `kill(worker)` is the fault-injection seam, asked once per busy
    /// worker before its batch is sent: `true` makes that worker drop
    /// the batch and exit, which is what a crashed worker looks like
    /// from outside. Jobs for which `pinned` holds must not leave the
    /// calling thread: they run there, in input order, while the
    /// workers hold theirs, and take no part in the dealing.
    pub fn run(
        &mut self,
        ctx: &C,
        jobs: Vec<J>,
        mut kill: impl FnMut(usize) -> bool,
        pinned: impl Fn(&J) -> bool,
    ) -> Vec<Result<R, WorkerLost>> {
        let alive: Vec<usize> = (0..self.workers.len())
            .filter(|&worker| self.workers[worker].alive)
            .collect();
        if jobs.iter().filter(|job| !pinned(job)).count() < 2 || alive.is_empty() {
            return jobs
                .into_iter()
                .map(|job| Ok((self.work)(ctx, job)))
                .collect();
        }
        let mut out: Vec<Option<Result<R, WorkerLost>>> = jobs.iter().map(|_| None).collect();
        let mut dealt: Vec<Vec<(usize, J)>> = alive.iter().map(|_| Vec::new()).collect();
        let mut here = Vec::new();
        for (position, job) in jobs.into_iter().enumerate() {
            if pinned(&job) {
                here.push((position, job));
            } else {
                let hand = (position - here.len()) % alive.len();
                dealt[hand].push((position, job));
            }
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
        for (position, job) in here {
            out[position] = Some(Ok((self.work)(ctx, job)));
        }
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
    use std::thread::ThreadId;

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
        let got = pool.run(&100, chained(4), |_| false, |_| false);
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
            |_| false,
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
            |_| false,
        );
        assert_eq!(asked, [0, 2]);
        assert_eq!(got, [Ok(0), Ok(2), Ok(4), Ok(6)]);
    }

    #[test]
    fn a_panicking_worker_is_a_typed_loss_not_a_hang() {
        let mut pool = OrderedPool::new(2, double_or_panic);
        let got = pool.run(&(), vec![1, 13, 3, 4], |_| false, |_| false);
        let lost = Err(WorkerLost { worker: 1 });
        assert_eq!(got, [Ok(2), lost, Ok(6), lost]);
        let mut asked = Vec::new();
        let got = pool.run(
            &(),
            vec![1, 2],
            |worker| {
                asked.push(worker);
                false
            },
            |_| false,
        );
        assert_eq!(got, [Ok(2), Ok(4)]);
        assert_eq!(asked, [0], "worker 0 survives and takes the whole round");
    }

    #[test]
    fn a_fully_dead_pool_runs_inline_with_the_same_results() {
        let mut pool = OrderedPool::new(2, double);
        let first = pool.run(&(), vec![1, 2, 3], |_| true, |_| false);
        assert!(first.iter().all(Result::is_err));
        let mut asked = 0;
        let got = pool.run(
            &(),
            vec![1, 2, 3],
            |_| {
                asked += 1;
                true
            },
            |_| false,
        );
        assert_eq!(got, [Ok(2), Ok(4), Ok(6)], "inline: nothing left to kill");
        assert_eq!(asked, 0, "no live worker to ask about");
        let mut serial = OrderedPool::new(1, double);
        let inline = serial.run(&(), vec![1, 2, 3], |_| panic!("no worker"), |_| false);
        assert_eq!(inline, got);
    }

    fn double_and_where(_: &(), job: u64) -> (u64, ThreadId) {
        (job * 2, std::thread::current().id())
    }

    #[test]
    fn pinned_jobs_run_here_survive_a_dead_round_and_keep_the_dealing() {
        let here = std::thread::current().id();
        let mut pool = OrderedPool::new(3, double_and_where);
        // One unpinned job is not worth a round trip: all inline.
        let got = pool.run(&(), vec![1, 2, 3], |_| panic!("inline"), |&job| job != 3);
        assert_eq!(got, [Ok((2, here)), Ok((4, here)), Ok((6, here))]);
        // Position 2 pinned: the six unpinned jobs are dealt to workers
        // 0, 1, 2, 0, 1, 2, so worker 1 holds the 2nd and 5th of them
        // (positions 1 and 5) exactly as if position 2 were absent.
        let got = pool.run(&(), (0..7).collect(), |worker| worker == 1, |&job| job == 2);
        let lost: Vec<usize> = (0..7).filter(|&at| got[at].is_err()).collect();
        assert_eq!(lost, [1, 5]);
        assert_eq!(got[1], Err(WorkerLost { worker: 1 }));
        assert_eq!(got[2], Ok((4, here)), "the pinned job ran on this thread");
        for at in [0, 3, 4, 6] {
            let (value, thread) = got[at].expect("a surviving worker's job");
            assert_eq!(value, 2 * at as u64);
            assert_ne!(thread, here, "unpinned jobs ran on a worker");
        }
        // Every live worker dies this round; the pinned job is still Ok.
        let got = pool.run(&(), vec![10, 11, 12], |_| true, |&job| job == 11);
        assert_eq!(got[1], Ok((22, here)));
        assert!(got[0].is_err() && got[2].is_err());
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
        let got = pool.run(&(), vec![7, 8, 9], |_| false, |_| false);
        assert_eq!(got, [Ok(7), Ok(8), Ok(9)]);
        assert_eq!(EXITED.load(Ordering::SeqCst), 0, "workers persist");
        drop(pool);
        // A joined thread has run its thread-local destructors.
        assert_eq!(EXITED.load(Ordering::SeqCst), 3);
    }
}
