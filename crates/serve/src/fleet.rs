//! The fleet scheduler: round-based weighted-fair scheduling of many
//! guest jobs over one shared worker pool and one governed memory
//! budget.
//!
//! # The round loop
//!
//! The fleet is SuperPin's epoch-barrier argument applied one level
//! up. Each **round**:
//!
//! 1. **Admission barrier** (serial): parked deferrals retry first
//!    (FIFO), then arrivals whose time has come, in `(arrive, id)`
//!    order. Admission under a fleet budget walks the tenant-weighted
//!    ladder — evict code caches from *over-share* tenants' running
//!    jobs (rung 1), defer the over-share newcomer while others can
//!    free memory (rung 2), admit degraded with a budget clamped to
//!    the tenant's remaining share (rung 3) — so an over-share tenant
//!    pays before an under-share tenant degrades.
//! 2. **Selection** (serial): the [`FleetQueue`] picks the
//!    `fleet_slots` active jobs with minimum weighted virtual time.
//!    The selection is fixed *before* any job runs.
//! 3. **Execution** (parallel): each selected job advances exactly one
//!    of its own epochs, moved by value onto the shared pool — the same
//!    [`OrderedPool`] the runner's slice phase uses. Jobs run with
//!    `threads = 1` internally — the fleet's parallelism is across
//!    jobs, never within one — so a job's epoch is a deterministic
//!    function of the job alone. A worker that dies mid-epoch takes its
//!    jobs' state with it: each comes back as a typed
//!    [`SpError::WorkerLost`] and fails the run like any other job
//!    error, instead of hanging the round.
//! 4. **Settlement** (serial, slot order): virtual-time charges,
//!    completions, and ledger postings apply in the selection's order,
//!    never in wall-clock finish order.
//!
//! Because steps 1, 2, and 4 are serial and step 3's results are
//! re-ordered by slot, the whole run — every report byte, every
//! counter — is invariant under `--threads`.
//!
//! # Chaos domains
//!
//! A fleet chaos plan is never used directly: each job's registry is
//! built from [`FailPlan::for_tenant`], so tenants fault on
//! independent schedules and a tenant's schedule does not change when
//! other tenants join or leave the fleet.

use std::collections::VecDeque;
use std::fmt;

use superpin::governor::FORK_COST_BYTES;
use superpin::{FailPlan, Runner, SpError, TenantAdmission, TenantLedger};
use superpin_replay::{crc32, diff_round, FleetEvent, ReplayError, RoundFrame, RunRecipe};
use superpin_sched::{FleetQueue, OrderedPool};

use crate::durable::Durability;
use crate::report::{JobOutcome, ServiceReport, TenantSummary};
use crate::spec::JobFile;

/// Fleet-level knobs (the `spin-serve` CLI surface minus I/O).
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// Shared pool worker threads (`--threads`). Purely a host
    /// execution knob: reports are bit-identical across values. A
    /// round never selects more than `slots` jobs, so the pool is sized
    /// `threads.min(slots)`.
    pub threads: usize,
    /// Round width (`--fleet-slots`): how many jobs advance per round.
    /// A *scheduling* knob — changing it changes the interleaving —
    /// deliberately independent of `threads`.
    pub slots: usize,
    /// Shared fleet resident budget in bytes (`--fleet-budget`).
    pub fleet_budget: Option<u64>,
    /// Fleet chaos plan; tenants derive independent domains from it.
    pub chaos: Option<FailPlan>,
    /// Paper-time timeslice per job in milliseconds (`--spmsec`).
    pub spmsec: u64,
}

impl Default for FleetConfig {
    fn default() -> FleetConfig {
        FleetConfig {
            threads: 1,
            slots: 4,
            fleet_budget: None,
            chaos: None,
            spmsec: 1000,
        }
    }
}

/// A fleet run failed: some job's simulator surfaced an error, or a
/// resumed or replayed run diverged from its committed journal.
#[derive(Debug)]
pub enum FleetError {
    /// The named job's runner failed.
    Job {
        /// Job index in spec order.
        job: u32,
        /// The underlying simulator error.
        source: SpError,
    },
    /// Re-execution during `--resume` or `--replay` did not reproduce a
    /// round the WAL holds as committed. The journal and the build
    /// disagree — continuing would silently fork history, so this
    /// aborts.
    WalDivergence {
        /// The 1-based round that failed verification.
        round: u64,
        /// What differed, from [`diff_round`].
        detail: String,
    },
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetError::Job { job, source } => write!(f, "job {job}: {source}"),
            FleetError::WalDivergence { round, detail } => write!(
                f,
                "re-execution diverged from the committed WAL at round {round}: {detail}"
            ),
        }
    }
}

impl std::error::Error for FleetError {}

/// A job back from the pool with what its epoch returned.
type SteppedJob = (Box<dyn Runner>, Result<bool, SpError>);

/// The pool's work function: one epoch of one job.
fn step_job(_: &(), mut job: Box<dyn Runner>) -> SteppedJob {
    let more = job.step_serial();
    (job, more)
}

struct ActiveJob {
    id: u32,
    tenant: u32,
    driver: Option<Box<dyn Runner>>,
    degraded: Option<u64>,
}

struct Fleet<'a> {
    file: &'a JobFile,
    cfg: &'a FleetConfig,
    dur: &'a mut Durability,
    ledger: TenantLedger,
    queue: FleetQueue,
    active: Vec<ActiveJob>,
    waiting: VecDeque<u32>,
    pending: VecDeque<u32>,
    pool: OrderedPool<(), Box<dyn Runner>, SteppedJob>,
    events: Vec<FleetEvent>,
    /// Events up to this index are already journalled; the next round
    /// frame carries `events[events_mark..]`.
    events_mark: usize,
    fleet_now: u64,
    rounds: u64,
    outcomes: Vec<Option<JobOutcome>>,
    completed: Vec<u64>,
}

impl<'a> Fleet<'a> {
    /// An idle fleet: every job still pending, in `(arrive, id)` order.
    fn new(file: &'a JobFile, cfg: &'a FleetConfig, dur: &'a mut Durability) -> Fleet<'a> {
        let mut ledger = TenantLedger::new(cfg.fleet_budget.unwrap_or(u64::MAX));
        for (id, tenant) in file.tenants.iter().enumerate() {
            ledger.add_tenant(id as u32, tenant.weight, tenant.budget);
        }
        let mut order: Vec<u32> = (0..file.jobs.len() as u32).collect();
        order.sort_by_key(|&id| (file.jobs[id as usize].arrive, id));
        Fleet {
            file,
            cfg,
            dur,
            ledger,
            queue: FleetQueue::new(),
            active: Vec::new(),
            waiting: VecDeque::new(),
            pending: order.into(),
            // A round never selects more than `slots` jobs: more workers
            // than that can never be fed.
            pool: OrderedPool::new(cfg.threads.min(cfg.slots), step_job),
            events: Vec::new(),
            events_mark: 0,
            fleet_now: 0,
            rounds: 0,
            outcomes: (0..file.jobs.len()).map(|_| None).collect(),
            completed: vec![0; file.tenants.len()],
        }
    }

    /// Every tenant's live resident total, in declaration order, walked
    /// from its running jobs now — what the ledger's decisions read.
    fn usages(&self) -> Vec<u64> {
        (0..self.file.tenants.len() as u32)
            .map(|tenant| {
                self.active
                    .iter()
                    .filter(|job| job.tenant == tenant)
                    .filter_map(|job| job.driver.as_ref())
                    .map(|driver| driver.resident_bytes())
                    .sum()
            })
            .collect()
    }

    /// Ladder rung 1: evicts code caches from the tenants over their
    /// share under `usages` (worst overage first, job id order within a
    /// tenant) until `needed` bytes are freed or nothing evictable
    /// remains.
    fn evict_for(&mut self, usages: &[u64], needed: u64) {
        let mut freed = 0u64;
        for tenant in self.ledger.over_share_tenants(usages) {
            if freed >= needed {
                break;
            }
            let mut ids: Vec<u32> = self
                .active
                .iter()
                .filter(|job| job.tenant == tenant)
                .map(|job| job.id)
                .collect();
            ids.sort_unstable();
            for id in ids {
                if freed >= needed {
                    break;
                }
                let job = self
                    .active
                    .iter_mut()
                    .find(|job| job.id == id)
                    .expect("listed job is active");
                let Some(driver) = job.driver.as_mut() else {
                    continue;
                };
                let bytes = driver.fleet_evict_caches(needed - freed);
                if bytes > 0 {
                    freed += bytes;
                    self.ledger.count_evicted(tenant);
                    self.events.push(FleetEvent::Evict {
                        job: id,
                        bytes,
                        fleet_now: self.fleet_now,
                    });
                }
            }
        }
    }

    /// One admission attempt for job `id`. `fresh` marks the first
    /// attempt — deferral is only counted, logged, and parked once;
    /// barrier retries of a parked job re-decide silently until they
    /// admit. Returns whether the job was admitted.
    fn try_admit(&mut self, id: u32, fresh: bool) -> Result<bool, FleetError> {
        let spec = &self.file.jobs[id as usize];
        let tenant = spec.tenant;
        let usages = self.usages();
        if self.ledger.over_budget(&usages, FORK_COST_BYTES) {
            let needed = (usages.iter().sum::<u64>() + FORK_COST_BYTES)
                .saturating_sub(self.ledger.fleet_budget());
            self.evict_for(&usages, needed);
        }
        let others_can_free = !self.active.is_empty();
        let decision = self
            .ledger
            .decide(&self.usages(), tenant, FORK_COST_BYTES, others_can_free);
        let clamp = match decision {
            TenantAdmission::Defer => {
                if fresh {
                    self.ledger.count_deferred(tenant);
                    self.events.push(FleetEvent::Defer {
                        job: id,
                        fleet_now: self.fleet_now,
                    });
                    self.waiting.push_back(id);
                }
                return Ok(false);
            }
            TenantAdmission::Admit => {
                self.ledger.count_admitted(tenant);
                None
            }
            TenantAdmission::AdmitDegraded { budget } => {
                self.ledger.count_degraded(tenant);
                Some(budget)
            }
        };

        let base_chaos = match (self.cfg.chaos, spec.chaos_rate) {
            (Some(plan), Some(rate)) => Some(FailPlan { rate, ..plan }),
            (Some(plan), None) => Some(plan),
            (None, Some(rate)) => Some(FailPlan::new(1, rate)),
            (None, None) => None,
        };
        let recipe = RunRecipe {
            tool: spec.tool.clone(),
            spmsec: self.cfg.spmsec,
            threads: 1,
            mem_budget: match (spec.mem_budget, clamp) {
                (Some(own), Some(clamped)) => Some(own.min(clamped)),
                (own, clamped) => own.or(clamped),
            },
            chaos: base_chaos.map(|plan| plan.for_tenant(tenant)),
            ..RunRecipe::standard(&spec.workload, spec.scale)
        };
        // Each job owns its tool's fresh `SharedMem`: jobs never share
        // merge areas.
        let driver = superpin_tools::lookup_serve(&recipe.tool)
            .expect("tool validated at parse")
            .runner(&recipe, recipe.threads, false)
            .map_err(|err| match err {
                ReplayError::Sim(source) => FleetError::Job { job: id, source },
                // Workloads are validated at parse.
                other => panic!("job {id}: {other}"),
            })?;

        self.events.push(FleetEvent::Admit {
            job: id,
            fleet_now: self.fleet_now,
            budget: clamp,
        });
        self.queue
            .add(id, self.file.tenants[tenant as usize].weight);
        self.active.push(ActiveJob {
            id,
            tenant,
            driver: Some(driver),
            degraded: clamp,
        });
        Ok(true)
    }

    /// The round's admission barrier: parked deferrals retry first
    /// (FIFO), then due arrivals in `(arrive, id)` order.
    fn admissions(&mut self) -> Result<(), FleetError> {
        let mut parked = std::mem::take(&mut self.waiting);
        while let Some(id) = parked.pop_front() {
            if !self.try_admit(id, false)? {
                self.waiting.push_back(id);
            }
        }
        while self
            .pending
            .front()
            .is_some_and(|&id| self.file.jobs[id as usize].arrive <= self.fleet_now)
        {
            let id = self.pending.pop_front().expect("front exists");
            self.try_admit(id, true)?;
        }
        Ok(())
    }

    /// Steps one fleet round: select, execute, settle.
    fn round(&mut self) -> Result<(), FleetError> {
        self.rounds += 1;
        let ids = self.queue.select(self.cfg.slots.max(1));
        let mut befores = Vec::with_capacity(ids.len());
        let mut round = Vec::with_capacity(ids.len());
        for &id in &ids {
            let job = self
                .active
                .iter_mut()
                .find(|job| job.id == id)
                .expect("selected job is active");
            let driver = job.driver.take().expect("selected job holds its driver");
            befores.push(driver.now_cycles());
            round.push(driver);
        }

        let stepped = self.pool.run(&(), round, |_| false, |_| false);

        let mut max_delta = 0u64;
        let mut deltas = Vec::with_capacity(ids.len());
        let mut finished = Vec::new();
        for (slot, outcome) in stepped.into_iter().enumerate() {
            let id = ids[slot];
            let job_err = |source| FleetError::Job { job: id, source };
            // A lost worker took the job's whole state with it.
            let (driver, more) = outcome.map_err(|lost| job_err(lost.into()))?;
            let more = more.map_err(job_err)?;
            let delta = driver.now_cycles().saturating_sub(befores[slot]);
            self.queue.charge(id, delta);
            deltas.push(delta);
            max_delta = max_delta.max(delta);
            let job = self
                .active
                .iter_mut()
                .find(|job| job.id == id)
                .expect("selected job is active");
            job.driver = Some(driver);
            if !more {
                finished.push(id);
            }
        }
        // The barrier observes the round's longest epoch; a round that
        // somehow burned no virtual time still advances the clock so
        // arrival processing cannot stall.
        self.fleet_now += max_delta.max(1);

        for id in finished {
            let position = self
                .active
                .iter()
                .position(|job| job.id == id)
                .expect("finished job is active");
            let mut job = self.active.remove(position);
            self.queue.remove(id);
            let report = job
                .driver
                .as_mut()
                .expect("finished job holds its driver")
                .finish()
                .map_err(|source| FleetError::Job { job: id, source })?;
            self.events.push(FleetEvent::Complete {
                job: id,
                fleet_now: self.fleet_now,
            });
            self.completed[job.tenant as usize] += 1;
            let spec = &self.file.jobs[id as usize];
            self.outcomes[id as usize] = Some(JobOutcome {
                job: id,
                tenant: self.file.tenants[spec.tenant as usize].name.clone(),
                workload: spec.workload.clone(),
                scale: spec.scale,
                tool: spec.tool.clone(),
                arrive: spec.arrive,
                complete: self.fleet_now,
                turnaround: self.fleet_now - spec.arrive,
                degraded: job.degraded.is_some(),
                report,
            });
        }
        self.settle_durability(&ids, deltas)
    }

    /// The round's durability step, after settlement: build the
    /// [`RoundFrame`] for everything that happened since the last one,
    /// then either verify it against the resume prefix (re-execution
    /// of already-committed rounds) or journal it to the WAL.
    fn settle_durability(&mut self, ids: &[u32], deltas: Vec<u64>) -> Result<(), FleetError> {
        if self.dur.resume.is_empty() && self.dur.wal.is_none() {
            self.events_mark = self.events.len();
            return Ok(());
        }
        let events = self.events[self.events_mark..].to_vec();
        let outcomes = events
            .iter()
            .filter_map(|event| match *event {
                FleetEvent::Complete { job, .. } => self.outcomes[job as usize].as_ref(),
                _ => None,
            })
            .map(|outcome| crc32(outcome.to_json().as_bytes()))
            .collect();
        let frame = RoundFrame {
            round: self.rounds,
            fleet_now: self.fleet_now,
            selected: ids.to_vec(),
            deltas,
            events,
            usages: self.usages(),
            outcomes,
        };
        self.events_mark = self.events.len();
        if let Some(expected) = self.dur.resume.pop_front() {
            if let Some(detail) = diff_round(&expected, &frame) {
                return Err(FleetError::WalDivergence {
                    round: self.rounds,
                    detail,
                });
            }
        } else if let Some(wal) = self.dur.wal.as_mut() {
            wal.append_round(&frame);
        }
        Ok(())
    }
}

/// Runs a whole service workload to completion and returns the
/// [`ServiceReport`]. Deterministic in `(file, cfg)` except for
/// `cfg.threads`, which never changes a single output byte.
///
/// # Errors
///
/// [`FleetError`] naming the first job whose simulator failed.
///
/// # Panics
///
/// Panics on internal bookkeeping violations (a selected job without a
/// driver, a finished job not in the active set) — simulator bugs, not
/// input errors.
pub fn run_service(file: &JobFile, cfg: &FleetConfig) -> Result<ServiceReport, FleetError> {
    let mut dur = Durability::none();
    run_service_durable(file, cfg, &mut dur)
}

/// [`run_service`] under a [`Durability`] context: while `dur.resume`
/// holds committed rounds, re-execution verifies each settled round
/// against its frame (any mismatch is [`FleetError::WalDivergence`]);
/// once past the prefix — or from round 1 when there is no prefix —
/// settled rounds are journalled to `dur.wal`, and a naturally
/// completed run is sealed with the WAL's end frame. WAL write
/// failures never fail the run; they degrade it to non-durable (see
/// [`crate::durable::WalStatus`]).
///
/// # Errors
///
/// [`FleetError`] for the first failing job, or a WAL divergence on
/// resume.
pub fn run_service_durable(
    file: &JobFile,
    cfg: &FleetConfig,
    dur: &mut Durability,
) -> Result<ServiceReport, FleetError> {
    let mut fleet = Fleet::new(file, cfg, dur);

    loop {
        fleet.admissions()?;
        if fleet.active.is_empty() {
            if !fleet.waiting.is_empty() {
                // Nothing is running, so nothing can free memory:
                // the next admission barrier re-decides with
                // `others_can_free = false`, which never defers —
                // the parked queue drains (degraded if need be) and
                // the fleet always makes progress.
                continue;
            }
            match fleet.pending.front() {
                Some(&next) => {
                    let arrive = file.jobs[next as usize].arrive;
                    fleet.fleet_now = fleet.fleet_now.max(arrive);
                }
                None => break,
            }
            continue;
        }
        fleet.round()?;
    }

    if let Some(expected) = fleet.dur.resume.front() {
        return Err(FleetError::WalDivergence {
            round: fleet.rounds,
            detail: format!(
                "run completed after round {} but the WAL holds {} more \
                 committed round(s), next is round {}",
                fleet.rounds,
                fleet.dur.resume.len(),
                expected.round
            ),
        });
    }
    if let Some(wal) = fleet.dur.wal.as_mut() {
        wal.finish();
    }

    Ok(ServiceReport {
        outcomes: fleet
            .outcomes
            .into_iter()
            .map(|outcome| outcome.expect("every job completes"))
            .collect(),
        tenants: fleet
            .ledger
            .counters()
            .into_iter()
            .enumerate()
            .map(|(id, counters)| TenantSummary {
                name: file.tenants[id].name.clone(),
                weight: file.tenants[id].weight,
                counters,
                completed: fleet.completed[id],
            })
            .collect(),
        rounds: fleet.rounds,
        fleet_cycles: fleet.fleet_now,
        events: fleet.events,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::Duration;
    use superpin::{NondetEvent, RunMode, RunProbe, SuperPinReport};

    /// A stand-in job: every epoch burns 100 cycles, or panics the way
    /// a simulator bug would.
    struct Stub {
        now: u64,
        panics: bool,
    }

    impl Runner for Stub {
        fn start(&mut self) -> Result<(), SpError> {
            Ok(())
        }
        fn step_serial(&mut self) -> Result<bool, SpError> {
            assert!(!self.panics, "injected simulator bug");
            self.now += 100;
            Ok(true)
        }
        fn finish(&mut self) -> Result<SuperPinReport, SpError> {
            Err(SpError::NoProgress)
        }
        fn probe(&self) -> RunProbe {
            unreachable!("the fleet never probes a job")
        }
        fn now_cycles(&self) -> u64 {
            self.now
        }
        fn resident_bytes(&self) -> u64 {
            0
        }
        fn fleet_evict_caches(&mut self, _: u64) -> u64 {
            0
        }
        fn has_evictable_cache(&self) -> bool {
            false
        }
        fn set_mode(&mut self, _: RunMode) {}
        fn take_recording(&mut self) -> Vec<NondetEvent> {
            Vec::new()
        }
    }

    /// One round over two stub jobs on a two-worker pool; job 1 panics.
    fn round_with_a_panicking_job() -> Result<(), FleetError> {
        let workload = superpin_workloads::catalog()[0].name;
        let text = format!(
            "tenant a weight=1\n\
             job tenant=a workload={workload} scale=tiny tool=icount1\n\
             job tenant=a workload={workload} scale=tiny tool=icount1\n"
        );
        let file = crate::spec::parse_jobs(&text).expect("spec parses");
        let cfg = FleetConfig {
            threads: 2,
            slots: 2,
            ..FleetConfig::default()
        };
        let mut dur = Durability::none();
        let mut fleet = Fleet::new(&file, &cfg, &mut dur);
        for id in 0..2 {
            fleet.queue.add(id, 1);
            fleet.active.push(ActiveJob {
                id,
                tenant: 0,
                driver: Some(Box::new(Stub {
                    now: 0,
                    panics: id == 1,
                })),
                degraded: None,
            });
        }
        fleet.round()
    }

    #[test]
    fn a_worker_panic_mid_round_is_a_typed_job_error_not_a_hang() {
        // Off the test thread, so a hung round fails the test instead of
        // the whole suite.
        let (tx, rx) = mpsc::channel();
        let round = std::thread::spawn(move || tx.send(round_with_a_panicking_job()));
        let outcome = rx
            .recv_timeout(Duration::from_secs(60))
            .expect("the round hung on a dead worker");
        round.join().expect("round thread").expect("receiver alive");
        match outcome {
            Err(FleetError::Job {
                job: 1,
                source: SpError::WorkerLost { worker: 1 },
            }) => {}
            other => panic!("expected job 1 lost with worker 1, got {other:?}"),
        }
    }
}
