//! The SuperPin runner: co-simulates the native master, the control
//! process, and every instrumented slice on the machine model.
//!
//! This is the top of the system — the analogue of running
//! `pin -sp 1 -t tool -- app` on the paper's 8-way Xeon. The paper's
//! control process is one loop: fork a slice at each timeout or forced
//! syscall while fewer than `-spmp` slices run, and merge finished
//! slices strictly **in slice order** (§3, §4.5). Here that loop is one
//! private function, `step_epoch`; [`run`](SuperPinRunner::run),
//! [`run_profiled`](SuperPinRunner::run_profiled) and
//! [`step_serial`](SuperPinRunner::step_serial) are
//! [`start`](SuperPinRunner::start), calls to it, and the report.
//!
//! # One epoch
//!
//! Virtual time advances in quanta, batched into **epochs** planned by
//! [`EpochPlanner`]: spans of quanta over which the runnable set — and
//! with it every per-quantum budget — is frozen. `step_epoch` takes the control step (fork triggers, governed
//! admission), fixes the runnable set and its budgets in one scan of
//! the slice queue, plans the epoch, and runs three strictly ordered
//! phases:
//!
//! 1. **Master first, serially.** The master advances quantum by quantum
//!    on the calling thread. A master event (forced syscall, exit)
//!    truncates the epoch at that quantum, so the following barrier
//!    lands exactly where a per-quantum loop would have reacted.
//! 2. **Slices.** Every running slice receives the whole (possibly
//!    truncated) epoch's budget and advances independently in one
//!    [`OrderedPool::run`] round, at every `threads` value: moved out of
//!    the queue by pointer and back into its queue position. Slices
//!    never touch the scheduler, the master, or each other, and the
//!    trace registry they read is immutable for the epoch, so host
//!    interleaving cannot leak into any simulated quantity.
//! 3. **Barrier.** Failed and lost slices are repaired, virtual time
//!    jumps to the epoch end, freshly compiled traces are published into
//!    the trace registry *in slice order*, and completed slices merge in
//!    slice order.
//!
//! Every scheduling decision is fixed before phase 2 starts and every
//! cross-slice effect is applied in slice order at the barrier, so the
//! report is bit-identical for any `threads` value — and between two
//! `step_epoch` calls nothing outside the calling thread holds any
//! runner state.
//!
//! # The pool
//!
//! The runner owns its pool, built the first time a slice phase runs
//! and sized `threads.min(max_slices)` (more workers than the `-spmp`
//! cap can never be fed); sized one it has no threads and runs every
//! round on the calling thread. Degraded slices are pinned: the pool
//! runs them on the calling thread while its workers hold the rest.
//! The pool alone decides whether a round leaves the calling thread at
//! all. A worker that dies holding its batch — a panic, or
//! the `parallel.worker.channel` failpoint — comes back from the pool
//! as a typed loss per slice: under supervision each lost slice is
//! rebuilt from its checkpoint and journal at this barrier, without
//! supervision the run ends with [`SpError::WorkerLost`]. Either way
//! the pool never deals to that worker again.
//!
//! # Record, replay, and the pressure ladder
//!
//! The run's nondeterministic surface is three decision points — a
//! master syscall, an epoch plan, a governed fork admission — plus the
//! fault ledger at the end. Each is one `RunMode::replayed` /
//! `RunMode::record` pair (see [`record`](crate::record)); nothing else
//! in the loop knows the mode. The memory governor's ladder acts through
//! two functions, `drop_checkpoint` and `evict_cache`, which carry every
//! journal and governor posting; the live ladder, its replay and the
//! fleet's [`fleet_evict_caches`](Runner::fleet_evict_caches)
//! differ only in which slices they name. Governed memory is read, not
//! posted: [`resident_bytes`](SuperPinRunner::resident_bytes) sums the
//! live state each time it is called, so no bookkeeping order can change
//! an admission.

use crate::api::SuperTool;
use crate::bubble::Bubble;
use crate::config::SuperPinConfig;
use crate::error::SpError;
use crate::governor::{MemoryGovernor, COMPILED_INST_BYTES, FORK_COST_BYTES, SNAPSHOT_ENTRY_BYTES};
use crate::master::{MasterEvent, MasterRuntime};
use crate::record::{AdmissionDecision as Admission, NondetEvent, RunMode, RunProbe, SliceProbe};
use crate::report::{SliceReport, SuperPinReport, TimeBreakdown};
use crate::shared::SharedMem;
use crate::signature::{QuickRegsMemo, SignatureStats};
use crate::slice::{Boundary, SliceRuntime, SliceState};
use crate::supervisor::{SliceSupervisor, Verdict};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;
use superpin_dbi::{AdoptionCounts, TraceRegistry};
use superpin_fault::{FailpointRegistry, Site};
use superpin_sched::{EpochPlanner, OrderedPool, QuantumScheduler, SliceEta, Timeline};
use superpin_vm::process::Process;
use superpin_vm::VmError;

/// Why the runner wants to fork.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum PendingFork {
    Timer,
    Syscall,
}

/// What every slice of one epoch is told: run `quanta` quanta of
/// `quantum` cycles from virtual time `epoch_start`. The pool's round
/// context.
#[derive(Clone, Copy)]
struct EpochRound {
    quanta: u64,
    epoch_start: u64,
    quantum: u64,
}

/// One running slice's place in an epoch — `(slice number, per-quantum
/// budget, progress at the epoch's start)` — listed in queue order.
type EpochWork = (u32, u64, SliceEta);

/// A slice moved onto the pool with its per-quantum budget, and moved
/// back with its outcome.
type SliceJob<T> = (Box<SliceRuntime<T>>, u64);
type SliceDone<T> = (Box<SliceRuntime<T>>, Result<(), SpError>);

/// The pool's work function: advances one slice through the epoch at
/// `budget` cycles per quantum.
fn advance_job<T: SuperTool>(round: &EpochRound, (mut slice, budget): SliceJob<T>) -> SliceDone<T> {
    let outcome = slice.advance_epoch(budget, round.quanta, round.epoch_start, round.quantum);
    (slice, outcome)
}

/// Host-side (wall-clock) phase timing of one run, from
/// [`SuperPinRunner::run_profiled`].
///
/// Deliberately **not** part of [`SuperPinReport`]: host nanoseconds
/// vary run to run and machine to machine, while the report is
/// bit-identical across thread counts. The bench harness uses this
/// split to report how much of a run is parallelizable slice work —
/// and, on hosts with fewer cores than requested threads, to model the
/// speedup the epoch structure admits (Amdahl over the measured split).
#[derive(Clone, Copy, Debug, Default)]
pub struct HostProfile {
    /// Wall nanoseconds in the serial supervisor sections: control
    /// steps, planning, master quanta, and epoch barriers.
    pub supervisor_ns: u64,
    /// Wall nanoseconds in the slice phase (inline or fanned out).
    pub slice_ns: u64,
}

impl HostProfile {
    /// Total profiled wall nanoseconds.
    pub fn total_ns(&self) -> u64 {
        self.supervisor_ns + self.slice_ns
    }

    /// Fraction of the run spent in the (parallelizable) slice phase.
    pub fn slice_fraction(&self) -> f64 {
        self.slice_ns as f64 / (self.total_ns() as f64).max(1.0)
    }

    /// Amdahl projection from the measured split: the wall-clock speedup
    /// if the slice phase were spread over `threads` cores and the
    /// supervisor sections stayed serial.
    pub fn modeled_speedup(&self, threads: usize) -> f64 {
        let parallel = self.slice_ns as f64 / threads.max(1) as f64;
        self.total_ns() as f64 / (self.supervisor_ns as f64 + parallel).max(1.0)
    }
}

/// Drives one complete SuperPin run. See the crate docs for an example.
pub struct SuperPinRunner<T: SuperTool> {
    cfg: SuperPinConfig,
    scheduler: QuantumScheduler,
    planner: EpochPlanner,
    master: MasterRuntime,
    bubble: Bubble,
    tool_template: T,
    shared: SharedMem,
    /// Live slices in fork order (front = oldest unmerged), boxed so
    /// the slice phase moves pointers onto the pool and back.
    live: VecDeque<Box<SliceRuntime<T>>>,
    finished: Vec<SliceReport>,
    sig_stats: SignatureStats,
    /// The quick-check registers chosen at earlier timeout boundaries.
    quick_regs: QuickRegsMemo,
    now: u64,
    last_fork: u64,
    master_insts_at_last_fork: u64,
    master_debt: u64,
    master_timeline: Timeline,
    master_exit_cycles: Option<u64>,
    next_slice_num: u32,
    forks_on_timeout: u64,
    forks_on_syscall: u64,
    stall_events: u64,
    /// Whether the master is stalled on a fork that could not be admitted
    /// (one stall episode per continuous stretch).
    stalled: bool,
    /// The traces every slice has compiled, published at each barrier
    /// in slice order and handed to every slice for the next epoch. Its
    /// membership sets the simulated JIT charge when the shared code
    /// cache is on (paper §8); its templates let slices adopt each
    /// other's compiled traces instead of re-instrumenting.
    registry: Arc<TraceRegistry<T>>,
    epochs: u64,
    host_profile: HostProfile,
    /// The merged slices' adoption counts, summed (see
    /// [`adoption_counts`](SuperPinRunner::adoption_counts)).
    adoptions: AdoptionCounts,
    /// Chaos failpoint registry (`--chaos-seed`); `None` costs nothing.
    fault: Option<Arc<FailpointRegistry>>,
    /// Checkpoint/retry supervisor; present when supervision is enabled
    /// explicitly or implied by an armed chaos plan.
    supervisor: Option<SliceSupervisor<T>>,
    /// Memory-pressure governor (`--mem-budget`); `None` costs nothing
    /// and leaves every report field identical to an ungoverned run.
    governor: Option<MemoryGovernor>,
    /// Record/replay mode for the run's nondeterministic surface (see
    /// the [`record`](crate::record) module). `Live` costs nothing.
    mode: RunMode,
    /// The slice phase's worker pool, built on first use (see the
    /// module docs). Empty of slices between epochs.
    pool: Option<OrderedPool<EpochRound, SliceJob<T>, SliceDone<T>>>,
}

impl<T: SuperTool> SuperPinRunner<T> {
    /// Prepares a run: reserves the memory bubble in the master and wires
    /// up the scheduler. The `process` must be freshly loaded (the first
    /// slice forks from its initial state).
    ///
    /// # Errors
    ///
    /// Returns [`SpError::Mem`] if the bubble range is occupied.
    pub fn new(
        process: Process,
        tool: T,
        shared: SharedMem,
        cfg: SuperPinConfig,
    ) -> Result<SuperPinRunner<T>, SpError> {
        let mut master_process = process;
        let bubble = Bubble::reserve(&mut master_process.mem)?;
        // The budget doubles as the guest kernel's per-process allocation
        // limit: brk/mmap past it return ENOMEM to the guest. Slices
        // inherit the limit through fork.
        master_process.mem.set_mem_limit(cfg.mem_budget);
        let governor = cfg.mem_budget.map(MemoryGovernor::new);
        let fault = cfg.chaos.map(|plan| Arc::new(FailpointRegistry::new(plan)));
        master_process.set_fault_registry(fault.clone());
        let supervisor = cfg
            .supervision_enabled()
            .then(|| SliceSupervisor::new(cfg.watchdog_factor, cfg.max_slice_retries));
        let scheduler = QuantumScheduler::new(cfg.machine, cfg.policy);
        let planner = EpochPlanner::new(cfg.epoch_max_quanta);
        Ok(SuperPinRunner {
            cfg,
            scheduler,
            planner,
            master: MasterRuntime::new(master_process),
            bubble,
            tool_template: tool,
            shared,
            live: VecDeque::new(),
            finished: Vec::new(),
            sig_stats: SignatureStats::default(),
            quick_regs: QuickRegsMemo::default(),
            now: 0,
            last_fork: 0,
            master_insts_at_last_fork: 0,
            master_debt: 0,
            master_timeline: Timeline::new(),
            master_exit_cycles: None,
            next_slice_num: 1,
            forks_on_timeout: 0,
            forks_on_syscall: 0,
            stall_events: 0,
            stalled: false,
            registry: Arc::new(TraceRegistry::new()),
            epochs: 0,
            host_profile: HostProfile::default(),
            adoptions: AdoptionCounts::default(),
            fault,
            supervisor,
            governor,
            mode: RunMode::Live,
            pool: None,
        })
    }

    /// A fork wakes the previously sleeping slice, so the running count
    /// grows by one; the limit is the `-spmp` maximum of running slices.
    fn can_fork(&self) -> bool {
        let running = self
            .live
            .iter()
            .filter(|slice| slice.state() == SliceState::Running);
        running.count() < self.cfg.max_slices
    }

    /// Samples the governed total into the governor's high-water mark.
    /// A no-op (not even the walk) when no budget is set.
    fn observe_usage(&mut self) {
        if self.governor.is_some() {
            let usage = self.resident_bytes();
            if let Some(gov) = self.governor.as_mut() {
                gov.observe(usage);
            }
        }
    }

    /// Bytes the next fork will charge up front: the flat fork cost
    /// plus — under supervision — the materialized checkpoint of the
    /// currently sleeping slice, which `guard` deep-copies the moment
    /// the fork wakes it.
    fn fork_estimate(&self) -> u64 {
        let checkpoint = if self.supervisor.is_some() {
            self.live
                .back()
                .filter(|prev| prev.state() == SliceState::Sleeping)
                .map_or(0, |prev| prev.full_resident_bytes())
        } else {
            0
        };
        FORK_COST_BYTES + checkpoint
    }

    /// Whether forking now — `est` more bytes on top of `usage` — would
    /// break the budget.
    fn over_budget(&self, usage: u64, est: u64) -> bool {
        self.governor
            .as_ref()
            .is_some_and(|gov| gov.over_budget(usage, est))
    }

    /// Ladder rung 1 on one slice: reclaims `num`'s retained checkpoint,
    /// counted by the governor. Returns the simulated bytes freed (0 when
    /// there was nothing to drop).
    fn drop_checkpoint(&mut self, num: u32) -> u64 {
        let freed = self
            .supervisor
            .as_mut()
            .map_or(0, |sup| sup.drop_checkpoint(num));
        if freed > 0 {
            if let Some(gov) = &mut self.governor {
                gov.note_checkpoint_dropped();
            }
        }
        freed
    }

    /// Ladder rung 2 on one slice: flushes `num`'s code cache. The
    /// eviction is journaled, so a condemned slice's rebuild replays it
    /// at the same point in its schedule, and counted by the governor
    /// when one is armed. Returns the simulated bytes freed (0 when the
    /// cache was already empty).
    fn evict_cache(&mut self, num: u32) -> u64 {
        let Some(slice) = self.live.iter_mut().find(|slice| slice.num() == num) else {
            return 0;
        };
        let freed = slice.evict_code_cache() as u64 * COMPILED_INST_BYTES;
        if freed > 0 {
            if let Some(sup) = &mut self.supervisor {
                sup.journal_evict(num);
            }
            if let Some(gov) = &mut self.governor {
                gov.note_cache_evicted();
            }
        }
        freed
    }

    /// The live slices holding an evictable code cache, coldest first
    /// (LRU by the slice's last-active virtual time; slice number breaks
    /// ties).
    fn coldest_caches(&self) -> Vec<u32> {
        let mut cold: Vec<(u64, u32)> = self
            .live
            .iter()
            .filter(|slice| slice.cache_resident_insts() > 0)
            .map(|slice| (slice.last_active_cycles(), slice.num()))
            .collect();
        cold.sort_unstable();
        cold.into_iter().map(|(_, num)| num).collect()
    }

    /// Memory-governed admission check for one fork, called only when a
    /// slot is free. Without a governor every fork is a plain `Admit`
    /// and no event is recorded (an ungoverned run has no admission
    /// nondeterminism, so record and replay streams stay aligned).
    ///
    /// A live run walks the eviction ladder and records the decision
    /// with the ladder's actions; a replay takes the recorded decision
    /// and re-applies the recorded actions — same two functions, same
    /// postings — instead of re-walking the ladder.
    fn admission_check(&mut self) -> Result<Admission, SpError> {
        if self.governor.is_none() {
            return Ok(Admission::Admit);
        }
        self.observe_usage();
        let replayed = self.mode.replayed(
            "fork admission",
            "an admission",
            &format_args!("slice {}", self.next_slice_num),
            |event| match event {
                NondetEvent::Admission {
                    decision,
                    dropped,
                    evicted,
                } => Some((decision, dropped, evicted)),
                _ => None,
            },
        );
        let decision = match replayed {
            Some(recorded) => {
                let (decision, dropped, evicted) = recorded?;
                for num in dropped {
                    self.drop_checkpoint(num);
                }
                for num in evicted {
                    self.evict_cache(num);
                }
                decision
            }
            None => {
                let (decision, dropped, evicted) = self.admit_fork_live();
                self.mode.record(|| NondetEvent::Admission {
                    decision,
                    dropped,
                    evicted,
                });
                decision
            }
        };
        let gov = self.governor.as_mut().expect("governor present");
        if decision == Admission::Defer {
            gov.note_deferral();
        } else {
            gov.end_deferral();
        }
        Ok(decision)
    }

    /// The live eviction ladder for one fork (see the `governor` module
    /// docs). Deterministic: every input is simulated state and the walk
    /// runs at control steps on the calling thread. Returns the decision
    /// plus the ladder's actions (checkpoints dropped, caches evicted,
    /// in ladder order) for the record.
    fn admit_fork_live(&mut self) -> (Admission, Vec<u32>, Vec<u32>) {
        let est = self.fork_estimate();
        let mut usage = self.resident_bytes();
        if !self.over_budget(usage, est) {
            return (Admission::Admit, Vec::new(), Vec::new());
        }
        // Rung 1: drop retained checkpoints of committed slices. A
        // `Done` slice is never condemned, so its checkpoint is pure
        // insurance the run no longer needs.
        let done: Vec<u32> = self
            .live
            .iter()
            .filter(|slice| slice.state() == SliceState::Done)
            .map(|slice| slice.num())
            .collect();
        let mut dropped = Vec::new();
        for num in done {
            if !self.over_budget(usage, est) {
                break;
            }
            let freed = self.drop_checkpoint(num);
            if freed > 0 {
                usage = usage.saturating_sub(freed);
                dropped.push(num);
            }
        }
        // Rung 2: flush cold code caches, coldest first.
        let mut evicted = Vec::new();
        for num in self.coldest_caches() {
            if !self.over_budget(usage, est) {
                break;
            }
            let freed = self.evict_cache(num);
            if freed > 0 {
                usage = usage.saturating_sub(freed);
                evicted.push(num);
            }
        }
        // Rung 3: still over budget. Defer while anything non-sleeping
        // can free memory by completing; otherwise deferring deadlocks
        // (the back slice only wakes at the next fork), so admit the
        // fork degraded to inline serial execution.
        let decision = if !self.over_budget(usage, est) {
            Admission::Admit
        } else if self
            .live
            .iter()
            .any(|slice| slice.state() != SliceState::Sleeping)
        {
            Admission::Defer
        } else {
            Admission::AdmitDegraded
        };
        (decision, dropped, evicted)
    }

    /// Forks a new slice from the master's current state and, with a
    /// `boundary`, wakes the previous one (every fork but the first).
    ///
    /// With chaos armed, the fork consults the `vm.fork.cow` failpoint;
    /// an injected failure is retried with a fresh key (the retry budget
    /// from `max_slice_retries`), then bypassed outright — fork faults
    /// are transient by definition, so the degraded path is simply an
    /// unchecked fork. The slice number is reserved before the first
    /// attempt, so retries never perturb slice numbering.
    fn fork_slice(&mut self, boundary: Option<Boundary>) -> Result<(), SpError> {
        let num = self.next_slice_num;
        let mut attempt: u64 = 0;
        let mut slice = loop {
            let checked = self.fault.is_some() && attempt <= self.cfg.max_slice_retries as u64;
            match SliceRuntime::spawn(
                num,
                self.master.process(),
                &self.tool_template,
                &self.bubble,
                &self.cfg,
                self.now,
                checked.then_some(((num as u64) << 16) | attempt),
            ) {
                Err(SpError::Vm(VmError::FaultInjected { .. })) => {
                    if let Some(sup) = &mut self.supervisor {
                        sup.note_transient_retry();
                    }
                    attempt += 1;
                }
                spawned => break spawned?,
            }
        };
        self.next_slice_num += 1;
        // Real fork(2) write-protects the parent too: the master's next
        // write to each currently resident page takes a COW fault.
        self.master.process_mut().mem.mark_cow_shared();
        slice.enter_epoch(Arc::clone(&self.registry));
        if let Some(boundary) = boundary {
            self.end_span(boundary, self.now);
        }
        self.live.push_back(Box::new(slice));
        self.last_fork = self.now;
        self.master_insts_at_last_fork = self.master.process().inst_count();
        self.master_debt += self.cfg.cost.fork_base;
        Ok(())
    }

    /// Ends the master's current span at virtual time `now_cycles`: the
    /// sleeping back slice wakes with `boundary` and the span's records,
    /// and comes under supervision (checkpointed, and chaos-armed when a
    /// plan is set). Called at every fork after the first, and with
    /// [`Boundary::ProgramExit`] when the master exits.
    fn end_span(&mut self, boundary: Boundary, now_cycles: u64) {
        let records = self.master.take_span_records();
        let span = self.master.process().inst_count() - self.master_insts_at_last_fork;
        let sleeping = self
            .live
            .back_mut()
            .filter(|slice| slice.state() == SliceState::Sleeping);
        if let Some(slice) = sleeping {
            slice.wake(boundary, records, now_cycles);
            slice.set_span_insts(span);
            if let Some(sup) = &mut self.supervisor {
                sup.guard(slice);
                if let Some(registry) = &self.fault {
                    slice.arm_chaos(Some(Arc::clone(registry)), 0);
                }
            }
        }
    }

    /// Merges completed slices in slice order, reaping their runtimes.
    fn merge_ready(&mut self) {
        while let Some(front) = self.live.front() {
            if front.state() != SliceState::Done {
                break;
            }
            let mut slice = self.live.pop_front().expect("front exists");
            let num = slice.num();
            if let Some(sup) = &mut self.supervisor {
                sup.release(num);
            }
            if let Some(gov) = &mut self.governor {
                gov.release(num);
            }
            slice.tool_mut().on_slice_end(num, &self.shared);
            self.sig_stats.absorb(&slice.engine().signature_stats());
            let adoptions = slice.engine().adoption_counts();
            self.adoptions.adopted += adoptions.adopted;
            self.adoptions.compiled += adoptions.compiled;
            self.finished.push(SliceReport {
                num,
                insts: slice.engine().process().inst_count(),
                wake_cycles: slice.wake_cycles().unwrap_or(slice.start_cycles()),
                records_played: slice.records_played(),
                end: slice.end_reason().expect("done slice has a reason"),
                start_cycles: slice.start_cycles(),
                end_cycles: slice.end_cycles().expect("done slice has an end"),
                engine: slice.engine().stats(),
                cache: slice.engine().cache_stats(),
                cow_copies: slice.engine().process().mem.stats().cow_copies,
            });
        }
    }

    /// Handles fork triggers at an epoch barrier: a pending forced-fork
    /// syscall, or a due timer fork. The master stalls — one stall
    /// episode per continuous stretch — while no slot is free or the
    /// memory governor defers admission.
    fn control_step(&mut self) -> Result<(), SpError> {
        let trigger = if self.master.exited() {
            None
        } else if self.master.pending_force() {
            Some(PendingFork::Syscall)
        } else {
            // The timer only creates a slice once the master has made
            // forward progress since the last fork — a zero-length slice
            // would be pure overhead (and its boundary state would equal
            // its start state).
            let progressed = self.master.process().inst_count() > self.master_insts_at_last_fork;
            let due =
                self.now.saturating_sub(self.last_fork) >= self.cfg.effective_timeslice(self.now);
            (progressed && due).then_some(PendingFork::Timer)
        };
        let Some(trigger) = trigger else {
            self.stalled = false;
            return Ok(());
        };
        let admission = if self.can_fork() {
            self.admission_check()?
        } else {
            Admission::Defer
        };
        if admission == Admission::Defer {
            if !self.stalled {
                self.stall_events += 1;
            }
            self.stalled = true;
            return Ok(());
        }
        self.stalled = false;
        if admission == Admission::AdmitDegraded {
            // Ladder rung 3: the slice about to be forked runs pinned to
            // the calling thread for its whole life, like a
            // supervisor-degraded slice.
            if let Some(gov) = self.governor.as_mut() {
                gov.degrade(self.next_slice_num);
            }
        }
        match trigger {
            PendingFork::Syscall => {
                let cycles =
                    self.master
                        .resolve_forced_syscall(self.now, &self.cfg, &mut self.mode)?;
                self.master_debt += cycles;
                self.forks_on_syscall += 1;
                self.fork_slice(Some(Boundary::SyscallEnd))?;
                if self.master.exited() {
                    self.note_master_exit(self.now);
                }
            }
            PendingFork::Timer => {
                let signature = self.quick_regs.capture(self.master.process_mut());
                self.forks_on_timeout += 1;
                self.fork_slice(Some(Boundary::Signature(Arc::new(signature))))?;
            }
        }
        Ok(())
    }

    /// Records the master's exit during the quantum starting at
    /// `quantum_start` and wakes the final slice.
    fn note_master_exit(&mut self, quantum_start: u64) {
        if self.master_exit_cycles.is_none() {
            self.master_exit_cycles = Some(quantum_start + self.cfg.quantum_cycles.max(1));
            self.end_span(Boundary::ProgramExit, quantum_start);
        }
    }

    /// Quanta until the timer-fork deadline, evaluated against the
    /// (possibly adaptive) timeslice at each candidate barrier time.
    /// `None` when no deadline falls within the epoch cap.
    fn fork_deadline_quanta(&self, quantum: u64) -> Option<u64> {
        (1..=self.planner.max_quanta).find(|&k| {
            let barrier = self.now + k * quantum;
            barrier.saturating_sub(self.last_fork) >= self.cfg.effective_timeslice(barrier)
        })
    }

    /// Advances the master `planned` quanta (serially, on the supervisor
    /// thread), truncating the epoch at the quantum where a master event
    /// fires. Returns `(epoch_len, run_quanta_for_timeline)`.
    fn advance_master_epoch(
        &mut self,
        budget: u64,
        planned: u64,
        quantum: u64,
    ) -> Result<(u64, u64), SpError> {
        for j in 0..planned {
            let quantum_start = self.now + j * quantum;
            // Pay fork/ptrace debt out of this quantum first.
            let pay = self.master_debt.min(budget);
            self.master_debt -= pay;
            let remaining = budget - pay;
            if remaining == 0 {
                continue;
            }
            let (used, event) =
                self.master
                    .advance(remaining, quantum_start, &self.cfg, &mut self.mode)?;
            // Overshoot (a serviced syscall may exceed the budget) is
            // owed to future quanta.
            self.master_debt += used.saturating_sub(remaining);
            match event {
                MasterEvent::Exited => {
                    self.note_master_exit(quantum_start);
                    // The exit quantum is not recorded as master runtime.
                    return Ok((j + 1, j));
                }
                MasterEvent::NeedForkAtSyscall => {
                    // Barrier here so the control step resolves the fork
                    // exactly one quantum after the syscall parked — the
                    // same instant the per-quantum loop would.
                    return Ok((j + 1, j + 1));
                }
                MasterEvent::None => {}
            }
        }
        Ok((planned, planned))
    }

    /// The slice phase: moves every slice in `work` out of the queue,
    /// in queue order, through one [`OrderedPool::run`] round and back
    /// into its queue position. Degraded slices are pinned to this
    /// thread; whether the rest leave it is the pool's decision.
    ///
    /// Returns the failed slices (in slice order) when supervision is on
    /// so the barrier can repair them; without supervision the first
    /// failure in slice order, or a lost worker, is a run-fatal typed
    /// error ([`SpError::WorkerLost`], never a panic).
    fn advance_slices(
        &mut self,
        work: &[EpochWork],
        round: EpochRound,
    ) -> Result<Vec<(u32, SpError)>, SpError> {
        // `work` lists the running slices in queue order, so one pass
        // takes each out; `None` holds its place.
        let mut budgets = work.iter().peekable();
        let mut slots = Vec::with_capacity(self.live.len());
        let mut jobs: Vec<SliceJob<T>> = Vec::with_capacity(work.len());
        for slice in self.live.drain(..) {
            match budgets.next_if(|job| job.0 == slice.num()) {
                Some(&(_, budget, _)) => {
                    jobs.push((slice, budget));
                    slots.push(None);
                }
                None => slots.push(Some(slice)),
            }
        }
        debug_assert!(budgets.next().is_none(), "every working slice is live");
        // Both the supervisor's retry-exhausted slices and the
        // governor's pressure-degraded admissions are pinned.
        let (supervisor, governor) = (&self.supervisor, &self.governor);
        let pinned = |(slice, _): &SliceJob<T>| {
            let num = slice.num();
            supervisor.as_ref().is_some_and(|sup| sup.is_degraded(num))
                || governor.as_ref().is_some_and(|gov| gov.is_degraded(num))
        };
        // Failpoint: simulated worker death, keyed by worker and epoch.
        // The doomed worker swallows its batch and both its channels
        // drop.
        let (fault, epochs) = (&self.fault, self.epochs);
        let kill = |worker: usize| {
            let key = ((worker as u64) << 32) ^ epochs;
            fault
                .as_ref()
                .is_some_and(|registry| registry.fire(Site::ParallelWorkerChannel, key))
        };
        let workers = self.cfg.threads.min(self.cfg.max_slices);
        let pool = self
            .pool
            .get_or_insert_with(|| OrderedPool::new(workers, advance_job::<T>));
        let mut done = work.iter().zip(pool.run(&round, jobs, kill, pinned));
        let mut failures = Vec::new();
        for slot in slots {
            let slice = match slot {
                Some(idle) => idle,
                None => match done.next().expect("one outcome per job") {
                    (_, Ok((slice, Ok(())))) => slice,
                    (&(num, ..), Ok((slice, Err(err)))) => {
                        failures.push((num, err));
                        slice
                    }
                    // The worker died holding this slice: rebuild it from
                    // checkpoint + journal (which already includes this
                    // epoch).
                    (&(num, ..), Err(lost)) if self.supervisor.is_some() => {
                        self.repair_slice(num, lost.into())?
                    }
                    (_, Err(lost)) => return Err(lost.into()),
                },
            };
            self.live.push_back(slice);
        }
        match failures.first() {
            // Nothing can repair a failed slice: the first one ends the run.
            Some(_) if self.supervisor.is_none() => Err(failures.swap_remove(0).1),
            _ => Ok(failures),
        }
    }

    /// Condemns `num`, charges its retry budget, and rebuilds it from
    /// its checkpoint + journal. A retry re-arms injection with a fresh
    /// salt; an exhausted slice comes back injection-free and pinned to
    /// the supervisor thread. Failing *while* degraded — or during the
    /// injection-free replay itself — is a genuine defect.
    fn repair_slice(&mut self, num: u32, cause: SpError) -> Result<Box<SliceRuntime<T>>, SpError> {
        let sup = self.supervisor.as_mut().expect("supervision enabled");
        let verdict = sup.condemn(num);
        if verdict == Verdict::Unrecoverable {
            return Err(SpError::Unrecoverable {
                slice: num,
                cause: Box::new(cause),
            });
        }
        let sup = self.supervisor.as_ref().expect("supervision enabled");
        let mut rebuilt = sup.rebuild(num).map_err(|err| SpError::Unrecoverable {
            slice: num,
            cause: Box::new(err),
        })?;
        if let (Verdict::Retry { salt }, Some(registry)) = (verdict, &self.fault) {
            rebuilt.arm_chaos(Some(Arc::clone(registry)), salt);
        }
        Ok(Box::new(rebuilt))
    }

    /// The supervisor's barrier inspection, run **before** virtual time
    /// advances and slices merge: repair explicit failures from the
    /// slice phase, then sweep every live slice for silent poison (the
    /// detector's injected-fault counter), overshoot past the known
    /// span, and watchdog expiry. Every condemned slice is replaced in
    /// its queue position by its injection-off replay *this* barrier,
    /// so downstream publish and merge decisions are made from
    /// fault-free state — recovery is invisible to the simulation by
    /// construction.
    fn supervise_barrier(&mut self, failures: Vec<(u32, SpError)>) -> Result<(), SpError> {
        if self.supervisor.is_none() {
            debug_assert!(failures.is_empty());
            return Ok(());
        }
        for (num, err) in failures {
            let at = self.live.iter().position(|slice| slice.num() == num);
            self.live[at.expect("failed slice is live")] = self.repair_slice(num, err)?;
        }
        for at in 0..self.live.len() {
            let slice = &self.live[at];
            let num = slice.num();
            let sup = self.supervisor.as_ref().expect("supervision enabled");
            if sup.is_degraded(num) {
                continue;
            }
            let poisoned = slice.injected_faults() > 0;
            let eta = slice.eta();
            let running = slice.state() == SliceState::Running;
            let overshoot = running && eta.insts_total > 0 && eta.insts_done > eta.insts_total;
            let expired = running && sup.watchdog_expired(num);
            let cause = if poisoned {
                SpError::Vm(VmError::FaultInjected {
                    site: "core.signature",
                })
            } else if overshoot || expired {
                SpError::Runaway {
                    slice: num,
                    insts: eta.insts_done,
                    span: eta.insts_total,
                }
            } else {
                continue;
            };
            self.live[at] = self.repair_slice(num, cause)?;
        }
        Ok(())
    }

    /// Epoch-barrier publication: drain every slice's fresh compiles
    /// **in slice order** into the registry, then hand all slices the
    /// result for the next epoch. A barrier that adds nothing keeps the
    /// registry it had.
    fn sync_shared_cache(&mut self) {
        let shared = self.cfg.shared_code_cache;
        let mut fresh = Vec::new();
        for slice in self.live.iter_mut() {
            fresh.extend(slice.take_fresh_traces());
            // Failpoint: a publish "fails" and is simply retried. Adding
            // the same entries twice changes nothing, so the retry is the
            // whole recovery and the net effect on the report is zero.
            if let (Some(sup), Some(registry)) = (&mut self.supervisor, &self.fault) {
                let key = ((slice.num() as u64) << 16) ^ self.epochs;
                if shared && registry.fire(Site::SharedIndexPublish, key) {
                    sup.note_transient_retry();
                }
            }
        }
        self.registry = self.registry.publish(fresh);
        for slice in self.live.iter_mut() {
            slice.enter_epoch(Arc::clone(&self.registry));
            if let Some(sup) = &mut self.supervisor {
                sup.journal_snapshot(slice.num(), Arc::clone(&self.registry));
            }
        }
    }

    /// Runs the full simulation to completion and produces the report.
    ///
    /// # Errors
    ///
    /// Propagates guest errors and slice-divergence detections.
    pub fn run(self) -> Result<SuperPinReport, SpError> {
        self.run_profiled().map(|(report, _)| report)
    }

    /// Like [`run`](SuperPinRunner::run), but also returns the
    /// host-side [`HostProfile`] phase timing.
    ///
    /// # Errors
    ///
    /// Propagates guest errors and slice-divergence detections.
    pub fn run_profiled(mut self) -> Result<(SuperPinReport, HostProfile), SpError> {
        self.start()?;
        while self.step_epoch()? {}
        let report = self.finish()?;
        Ok((report, self.host_profile))
    }

    /// Begins the run: forks the first slice ("at the start of
    /// execution, the application forks off its first instrumented
    /// timeslice", paper §3). Idempotent — [`run`](SuperPinRunner::run)
    /// and the steppable API both funnel through here. A run whose first
    /// fork failed has not started: calling again retries the fork
    /// rather than stepping a run with no slice for its first span.
    ///
    /// # Errors
    ///
    /// Propagates slice-setup errors.
    pub fn start(&mut self) -> Result<(), SpError> {
        // Slice numbers are taken only by successful forks.
        if self.next_slice_num == 1 {
            self.fork_slice(None)?;
        }
        Ok(())
    }

    /// Executes exactly one epoch, starting the run if needed. Returns
    /// whether the run can make further progress; once it returns
    /// `false`, [`finish`](SuperPinRunner::finish) renders the report.
    /// This is the step [`run`](SuperPinRunner::run) loops over, so a
    /// stepped run and a `run()` produce the same report; "serial" says
    /// that control returns to the caller at every epoch barrier, where
    /// no worker holds any of the run's state.
    ///
    /// The divergence differ drives this in lockstep: after each step,
    /// [`probe`](SuperPinRunner::probe) exposes the epoch-barrier state
    /// for comparison against a twin run. The service fleet steps its
    /// jobs through it, one epoch per round.
    ///
    /// # Errors
    ///
    /// Propagates guest errors and replay divergences.
    pub fn step_serial(&mut self) -> Result<bool, SpError> {
        self.start()?;
        self.step_epoch()
    }

    /// Snapshots the run's observable state at the current epoch
    /// barrier: virtual time, the master's architectural state, every
    /// live slice's progress, and the reports of already-merged slices.
    pub fn probe(&self) -> RunProbe {
        let master = self.master.process();
        RunProbe {
            now: self.now,
            epochs: self.epochs,
            quantum: self.cfg.quantum_cycles.max(1),
            master_exited: self.master.exited(),
            master_insts: master.inst_count(),
            master_pc: master.cpu.pc,
            master_regs: master.cpu.regs.snapshot(),
            master_mem_digest: master.mem.content_digest(),
            slices: self
                .live
                .iter()
                .map(|slice| {
                    let process = slice.engine().process();
                    SliceProbe {
                        num: slice.num(),
                        insts: process.inst_count(),
                        pc: process.cpu.pc,
                        mem_digest: process.mem.content_digest(),
                    }
                })
                .collect(),
            merged: self.finished.clone(),
        }
    }

    /// How the merged slices' cache misses on published templates went,
    /// summed over their engines
    /// ([`Engine::adoption_counts`](superpin_dbi::Engine::adoption_counts)).
    /// Host-side only: the report is the same whichever route a miss
    /// took, so these are the numbers that show whether slices adopt on
    /// their code version or compile.
    pub fn adoption_counts(&self) -> AdoptionCounts {
        self.adoptions
    }

    /// The run's current governed resident-byte total (DESIGN §4.9): the
    /// master's full resident set, each live slice's private pages and
    /// code cache, retained supervisor checkpoints, the trace registry's
    /// entries when the shared code cache is on, and the shared merge
    /// segment. Every term is simulated state, summed fresh on each call
    /// in O(live slices) — at most `-spmp` running plus the sleeping
    /// and committed ones.
    ///
    /// The governor samples and admits against it, and a fleet scheduler
    /// feeds it to its per-tenant ledger at epoch barriers. Works with or
    /// without a per-run governor.
    pub fn resident_bytes(&self) -> u64 {
        let mut usage = self.master.process().mem.resident_bytes();
        for slice in &self.live {
            // Private resident pages plus the code cache at the flat
            // per-instruction byte cost.
            usage += slice.private_resident_bytes()
                + slice.cache_resident_insts() as u64 * COMPILED_INST_BYTES;
        }
        if let Some(sup) = &self.supervisor {
            usage += sup.retained_checkpoint_bytes();
        }
        if self.cfg.shared_code_cache {
            usage += self.registry.len() as u64 * SNAPSHOT_ENTRY_BYTES;
        }
        usage + self.shared.resident_bytes()
    }

    /// One epoch — the run's only driver (see the module docs for its
    /// shape); `Ok(false)` means the run is complete.
    fn step_epoch(&mut self) -> Result<bool, SpError> {
        let quantum = self.cfg.quantum_cycles.max(1);
        // Host timing only — three `Instant` reads per epoch, no effect
        // on any simulated quantity.
        let supervisor_start = Instant::now();
        self.control_step()?;

        // The runnable set — master (task 0) + running slices — from one
        // scan of the queue.
        let master_runnable =
            !self.master.exited() && !self.stalled && !self.master.pending_force();
        let running: Vec<(u32, SliceEta)> = self
            .live
            .iter()
            .filter(|slice| slice.state() == SliceState::Running)
            .map(|slice| (slice.num(), slice.eta()))
            .collect();
        let runnable: Vec<u64> = master_runnable
            .then_some(0)
            .into_iter()
            .chain(running.iter().map(|&(num, _)| num as u64))
            .collect();
        if runnable.is_empty() {
            if self.master.exited() && self.live.is_empty() {
                return Ok(false);
            }
            // Master stalled with zero running slices would be a logic
            // error (a slot must be free then); a sleeping-only queue
            // after exit likewise.
            return Err(SpError::NoProgress);
        }

        // Budgets for the whole epoch are fixed here: they depend only
        // on the runnable set, which the barrier structure keeps
        // constant until the next control step. Shares come back in
        // `runnable` order, so the slices' follow the master's.
        let shares = self.scheduler.shares(&runnable);
        let master_budget = master_runnable.then(|| shares[0].budget(quantum));
        let work: Vec<EpochWork> = running
            .iter()
            .zip(&shares[usize::from(master_runnable)..])
            .map(|(&(num, eta), share)| (num, share.budget(quantum), eta))
            .collect();

        // Plan the epoch: next fork deadline and predicted slice
        // completions, all from virtual state only. While the governor
        // is deferring a fork, keep epochs short so admission is
        // re-checked promptly once running slices merge and free their
        // footprint.
        let deadline = if master_runnable {
            self.fork_deadline_quanta(quantum)
        } else if self
            .governor
            .as_ref()
            .is_some_and(MemoryGovernor::is_deferring)
        {
            Some(self.planner.deferral_review_quanta())
        } else {
            None
        };
        let replayed = self.mode.replayed(
            "epoch plan",
            "an epoch-plan",
            &format_args!("epoch {}", self.epochs),
            |event| match event {
                NondetEvent::EpochPlan { planned } => Some(planned),
                _ => None,
            },
        );
        let planned = match replayed {
            // Substituted verbatim: the planner's live answer would be
            // identical on a faithful log, and taking the log's word is
            // what lets divergence tests perturb it.
            Some(planned) => planned?.max(1),
            None => {
                let etas = work.iter().map(|&(_, budget, eta)| (eta, budget));
                let planned = self.planner.plan(deadline, etas);
                self.mode.record(|| NondetEvent::EpochPlan { planned });
                planned
            }
        };
        self.epochs += 1;

        // Phase 1: master, serially; a master event truncates the epoch
        // so the barrier lands where the event must be handled.
        let exited_before_epoch = self.master_exit_cycles.is_some();
        let (epoch_len, run_quanta) = match master_budget {
            Some(budget) => self.advance_master_epoch(budget, planned, quantum)?,
            None => (planned, planned),
        };

        // Master timeline for the Figure 6 decomposition.
        if !exited_before_epoch && run_quanta > 0 {
            let label = if master_runnable { "run" } else { "sleep" };
            self.master_timeline
                .push(self.now, self.now + run_quanta * quantum, label);
        }

        // Journal the epoch each running slice is about to receive: the
        // supervisor must be able to replay the exact schedule (and its
        // watchdog clock ticks in these same quanta).
        if let Some(sup) = self.supervisor.as_mut() {
            for &(num, budget, eta) in &work {
                sup.journal_advance(num, budget, epoch_len, self.now, quantum, eta);
            }
        }

        // Phase 2: slices, in parallel across host threads.
        let slice_start = Instant::now();
        self.host_profile.supervisor_ns +=
            slice_start.duration_since(supervisor_start).as_nanos() as u64;
        let round = EpochRound {
            quanta: epoch_len,
            epoch_start: self.now,
            quantum,
        };
        let failures = self.advance_slices(&work, round)?;
        let barrier_start = Instant::now();
        self.host_profile.slice_ns += barrier_start.duration_since(slice_start).as_nanos() as u64;

        // Phase 3: barrier. Repair first — faults are detected and
        // rolled back in the epoch they fired, so publication and
        // merging below only ever see fault-free state.
        self.supervise_barrier(failures)?;
        self.now += epoch_len * quantum;
        self.sync_shared_cache();
        self.observe_usage();
        self.merge_ready();
        self.host_profile.supervisor_ns += barrier_start.elapsed().as_nanos() as u64;
        Ok(true)
    }

    /// Renders the final report once [`step_serial`](SuperPinRunner::step_serial)
    /// has returned `false`. The supervision ledger (`slice_retries`,
    /// `slices_degraded`) is recorded here as the log's final event, and
    /// substituted from the log on replay — chaos recovery is
    /// re-*counted* rather than re-*executed* (see the
    /// [`record`](crate::record) module docs).
    ///
    /// # Errors
    ///
    /// Propagates replay divergences surfaced at finalization.
    pub fn finish(&mut self) -> Result<SuperPinReport, SpError> {
        // Soundness gate: if an oracle was installed, no engine may have
        // observed a transfer or code write the static analysis does not
        // admit. Engines assert at the offending site in debug builds;
        // this catches violations that were only recorded (and any run
        // driven through a release-built harness under a debug test).
        if let Some(oracle) = &self.cfg.oracle {
            debug_assert!(
                oracle.is_clean(),
                "soundness oracle recorded violations: {:?}",
                oracle.violations()
            );
        }
        let mut sup_retries = self.supervisor.as_ref().map_or(0, |sup| sup.slice_retries);
        let mut sup_degraded = self
            .supervisor
            .as_ref()
            .map_or(0, |sup| sup.slices_degraded);
        self.mode.record(|| NondetEvent::FaultLedger {
            slice_retries: sup_retries,
            slices_degraded: sup_degraded,
        });
        if let RunMode::Replay(events) = &mut self.mode {
            // The ledger is the log's final event; drain to it so a
            // replay that legitimately consumed fewer decision points
            // (injection is disarmed) still finds it.
            while let Some(event) = events.pop_front() {
                if let NondetEvent::FaultLedger {
                    slice_retries,
                    slices_degraded,
                } = event
                {
                    sup_retries = slice_retries;
                    sup_degraded = slices_degraded;
                }
            }
        }

        let master_exit_cycles = self.master_exit_cycles.unwrap_or(self.now);
        let native_cycles = self.master.process().inst_count() * self.cfg.cost.native_cpi;
        let sleep_cycles = self.master_timeline.total("sleep");
        let fork_other_cycles = master_exit_cycles
            .saturating_sub(native_cycles)
            .saturating_sub(sleep_cycles);
        let breakdown = TimeBreakdown {
            native_cycles,
            fork_other_cycles,
            sleep_cycles,
            pipeline_cycles: self.now.saturating_sub(master_exit_cycles),
        };

        Ok(SuperPinReport {
            total_cycles: self.now,
            master_exit_cycles,
            breakdown,
            master_insts: self.master.process().inst_count(),
            master_syscalls: self.master.syscall_count(),
            ptrace: self.master.ptrace_stats(),
            slices: std::mem::take(&mut self.finished),
            sig_stats: self.sig_stats,
            forks_on_timeout: self.forks_on_timeout,
            forks_on_syscall: self.forks_on_syscall,
            stall_events: self.stall_events,
            master_cow_copies: self.master.process().mem.stats().cow_copies,
            epochs: self.epochs,
            slice_retries: sup_retries,
            slices_degraded: sup_degraded
                + self
                    .governor
                    .as_ref()
                    .map_or(0, MemoryGovernor::degraded_total),
            peak_resident_bytes: self
                .governor
                .as_ref()
                .map_or(0, |gov| gov.peak_resident_bytes),
            slices_deferred: self.governor.as_ref().map_or(0, |gov| gov.slices_deferred),
            checkpoints_dropped: self
                .governor
                .as_ref()
                .map_or(0, |gov| gov.checkpoints_dropped),
            caches_evicted: self.governor.as_ref().map_or(0, |gov| gov.caches_evicted),
        })
    }
}

/// A [`SuperPinRunner`] with its tool type erased: the one object-safe
/// surface every front end drives a run through. The `superpin` CLI
/// and `spin-replay` run it to the end, the divergence differ steps two
/// in lockstep, and the service fleet steps many, one epoch per round.
/// Methods documented "see …" are the runner's inherent method of the
/// same name.
pub trait Runner: Send {
    /// See [`SuperPinRunner::start`].
    ///
    /// # Errors
    ///
    /// Propagates slice-setup errors.
    fn start(&mut self) -> Result<(), SpError>;

    /// See [`SuperPinRunner::step_serial`].
    ///
    /// # Errors
    ///
    /// Propagates guest errors and replay divergences.
    fn step_serial(&mut self) -> Result<bool, SpError>;

    /// See [`SuperPinRunner::finish`].
    ///
    /// # Errors
    ///
    /// Propagates replay divergences surfaced at finalization.
    fn finish(&mut self) -> Result<SuperPinReport, SpError>;

    /// See [`SuperPinRunner::probe`].
    fn probe(&self) -> RunProbe;

    /// See [`SuperPinRunner::resident_bytes`].
    fn resident_bytes(&self) -> u64;

    /// The run's virtual clock in cycles — how much simulated time this
    /// run has consumed so far. O(1), unlike the full
    /// [`probe`](Runner::probe) snapshot, so a fleet scheduler can
    /// charge fair-share virtual time after every epoch.
    fn now_cycles(&self) -> u64;

    /// Fleet-ladder rung 1, driven from outside: evicts this run's
    /// code caches coldest-first (LRU by last-active virtual time,
    /// slice number on ties) until at least `target_bytes` are freed or
    /// nothing evictable remains. Returns the simulated bytes freed.
    ///
    /// Bookkeeping matches the in-run ladder exactly — evictions are
    /// journaled for supervised rebuilds and counted by the per-run
    /// governor when one is armed — so a fleet-squeezed run stays
    /// bit-replayable. Call only at epoch barriers (between
    /// [`step_serial`](Runner::step_serial) calls).
    fn fleet_evict_caches(&mut self, target_bytes: u64) -> u64;

    /// Whether any live slice still holds an evictable code cache —
    /// `true` means [`fleet_evict_caches`](Runner::fleet_evict_caches)
    /// can free memory without degrading anyone.
    fn has_evictable_cache(&self) -> bool;

    /// Sets how the run treats its nondeterministic surface:
    /// [`RunMode::Record`] keeps every decision the run makes, in
    /// decision order; [`RunMode::Replay`] substitutes the given
    /// decisions for live ones. A replaying runner must have been
    /// built from the recorded run's recipe (same program, tool, and
    /// config knobs); a mismatch surfaces as
    /// [`SpError::ReplayDivergence`].
    fn set_mode(&mut self, mode: RunMode);

    /// Hands back the decisions a [`RunMode::Record`] run has made so
    /// far (all of them once [`finish`](Runner::finish) has returned);
    /// empty in any other mode.
    fn take_recording(&mut self) -> Vec<NondetEvent>;

    /// Runs to completion — [`start`](Runner::start), then
    /// [`step_serial`](Runner::step_serial) until it returns `false`,
    /// then [`finish`](Runner::finish) — and returns the report: the
    /// loop [`SuperPinRunner::run`] makes.
    ///
    /// # Errors
    ///
    /// As the three steps.
    fn run_to_end(&mut self) -> Result<SuperPinReport, SpError> {
        self.start()?;
        while self.step_serial()? {}
        self.finish()
    }
}

impl<T: SuperTool> Runner for SuperPinRunner<T> {
    fn start(&mut self) -> Result<(), SpError> {
        SuperPinRunner::start(self)
    }

    fn step_serial(&mut self) -> Result<bool, SpError> {
        SuperPinRunner::step_serial(self)
    }

    fn finish(&mut self) -> Result<SuperPinReport, SpError> {
        SuperPinRunner::finish(self)
    }

    fn probe(&self) -> RunProbe {
        SuperPinRunner::probe(self)
    }

    fn resident_bytes(&self) -> u64 {
        SuperPinRunner::resident_bytes(self)
    }

    fn now_cycles(&self) -> u64 {
        self.now
    }

    fn fleet_evict_caches(&mut self, target_bytes: u64) -> u64 {
        let mut freed = 0u64;
        for num in self.coldest_caches() {
            if freed >= target_bytes {
                break;
            }
            freed += self.evict_cache(num);
        }
        freed
    }

    fn has_evictable_cache(&self) -> bool {
        self.live
            .iter()
            .any(|slice| slice.cache_resident_insts() > 0)
    }

    fn set_mode(&mut self, mode: RunMode) {
        self.mode = mode;
    }

    fn take_recording(&mut self) -> Vec<NondetEvent> {
        self.mode.take_recording()
    }
}

impl<T: SuperTool> std::fmt::Debug for SuperPinRunner<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SuperPinRunner")
            .field("now", &self.now)
            .field("live_slices", &self.live.len())
            .field("finished", &self.finished.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The service front end (`superpin-serve`) moves whole runners —
    /// not just slices — onto shared pool workers between fleet rounds,
    /// so the runner must be `Send` for any `Send` tool. Compile-time
    /// audit in the spirit of `superpin-tools`' send_audit module.
    #[derive(Clone)]
    struct NullTool;

    impl superpin_dbi::Pintool for NullTool {
        fn instrument_trace(
            &mut self,
            _trace: &superpin_dbi::Trace,
            _inserter: &mut superpin_dbi::Inserter<Self>,
        ) {
        }
    }

    impl SuperTool for NullTool {
        fn reset(&mut self, _slice: u32) {}
        fn on_slice_end(&mut self, _slice: u32, _shared: &SharedMem) {}
    }

    #[test]
    fn runner_is_send_for_send_tools() {
        fn assert_send<S: Send>() {}
        assert_send::<SuperPinRunner<NullTool>>();
    }
}
