//! Instrumented timeslices: the slice runtime.

use crate::api::SuperTool;
use crate::bubble::Bubble;
use crate::config::SuperPinConfig;
use crate::error::SpError;
use crate::signature::Signature;
use crate::trampoline;
use std::collections::VecDeque;
use std::sync::Arc;
use superpin_dbi::cache::DEFAULT_CAPACITY_INSTS;
use superpin_dbi::registry::Entry;
use superpin_dbi::{Engine, EngineStop, TraceRegistry};
use superpin_fault::FailpointRegistry;
use superpin_isa::Reg;
use superpin_vm::kernel::SyscallRecord;
use superpin_vm::process::Process;

/// How a slice knows where to end.
#[derive(Clone, Debug)]
pub enum Boundary {
    /// End when the recorded state signature matches at its pc
    /// (timeout-created boundary, paper §4.3/§4.4). Shared with the
    /// woken slice's detector.
    Signature(Arc<Signature>),
    /// End after consuming the final syscall record (the next slice was
    /// forced at that syscall, paper §4.2).
    SyscallEnd,
    /// The program ends within this slice; the record list finishes with
    /// the `exit` record.
    ProgramExit,
}

/// Why a slice finished.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SliceEnd {
    /// The signature detector fired at the boundary pc.
    SignatureDetected,
    /// The final (syscall-boundary) record was consumed.
    RecordsExhausted,
    /// The slice played back the program's `exit`.
    Exited,
    /// The tool ended the slice early via `SP_EndSlice`
    /// (`EngineCtl::request_stop`), as sampling tools like the Shadow
    /// Profiler do (paper §5).
    ToolEnded,
}

/// Lifecycle state of a slice.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SliceState {
    /// Forked, but the next slice hasn't recorded its signature yet —
    /// "each slice sleeps until the following slice records its unique
    /// signature" (paper Fig. 1).
    Sleeping,
    /// Executing instrumented code.
    Running,
    /// Finished; awaiting or past its in-order merge.
    Done,
}

/// A running instrumented timeslice: the user's tool, a clone of the
/// registered one, in the slice's own engine ("their own copy of Pin and
/// the Pintool", paper §4.5), which also runs SuperPin's boundary
/// detector.
pub struct SliceRuntime<T: SuperTool> {
    num: u32,
    engine: Engine<T>,
    records: VecDeque<SyscallRecord>,
    boundary: Option<Boundary>,
    state: SliceState,
    end: Option<SliceEnd>,
    start_cycles: u64,
    wake_cycles: Option<u64>,
    end_cycles: Option<u64>,
    records_played: u64,
    cow_charged: u64,
    /// Cycles consumed beyond a previous advance's budget (engine traces
    /// complete atomically); repaid before new work runs.
    debt: u64,
    /// Instructions the master executed in this slice's span — known
    /// exactly once the slice wakes (the master already ran it natively).
    /// Feeds the epoch planner's completion prediction.
    span_insts: Option<u64>,
    /// Virtual time of the slice's most recent [`advance`]
    /// (SliceRuntime::advance). The memory governor's eviction ladder
    /// uses this as its coldness key (LRU by simulated quantum), so it
    /// must be — and is — a pure function of simulated state.
    last_active_cycles: u64,
}

impl<T: SuperTool> SliceRuntime<T> {
    /// Forks a slice from the master: copy-on-write process fork,
    /// trampoline in/out (private VM stack), bubble release, fresh tool
    /// clone (reset + slice-begin hooks), and a cold engine.
    ///
    /// With `Some(chaos_key)` the fork consults the master's armed
    /// [`Site::VmForkCow`](superpin_fault::Site::VmForkCow) failpoint
    /// (see [`Process::try_fork`](superpin_vm::process::Process::try_fork)).
    /// The runner retries with a fresh key on injected failure, and
    /// with `None` — an unchecked fork — once its retries are spent.
    ///
    /// The returned slice is [`SliceState::Sleeping`] until
    /// [`wake`](SliceRuntime::wake) delivers its boundary and records.
    ///
    /// # Errors
    ///
    /// Returns [`SpError::Vm`] with
    /// [`VmError::FaultInjected`](superpin_vm::VmError::FaultInjected)
    /// when the failpoint fires, or [`SpError::Mem`] if trampoline or
    /// bubble setup fails.
    pub fn spawn(
        num: u32,
        master: &Process,
        tool_template: &T,
        bubble: &Bubble,
        cfg: &SuperPinConfig,
        now_cycles: u64,
        chaos_key: Option<u64>,
    ) -> Result<SliceRuntime<T>, SpError> {
        let pid = 1000 + num as u64;
        let process = match chaos_key {
            Some(key) => master.try_fork(pid, key)?,
            None => master.fork(pid),
        };
        SliceRuntime::from_fork(num, process, tool_template, bubble, cfg, now_cycles)
    }

    fn from_fork(
        num: u32,
        mut process: Process,
        tool_template: &T,
        bubble: &Bubble,
        cfg: &SuperPinConfig,
        now_cycles: u64,
    ) -> Result<SliceRuntime<T>, SpError> {
        let frame = trampoline::enter(&mut process)?;
        bubble.release(&mut process.mem)?;
        trampoline::resume(&mut process, frame)?;

        let mut tool = tool_template.clone();
        tool.reset(num);
        tool.on_slice_begin(num);
        let mut engine = Engine::with_config(process, tool, cfg.cost, DEFAULT_CAPACITY_INSTS);
        engine.set_shared_code_cache(cfg.shared_code_cache);
        if let Some(plan) = &cfg.plan {
            engine.set_plan(Arc::clone(plan));
        }
        if let Some(oracle) = &cfg.oracle {
            engine.set_oracle(Arc::clone(oracle));
        }
        Ok(SliceRuntime {
            num,
            engine,
            records: VecDeque::new(),
            boundary: None,
            state: SliceState::Sleeping,
            end: None,
            start_cycles: now_cycles,
            wake_cycles: None,
            end_cycles: None,
            records_played: 0,
            cow_charged: 0,
            debt: 0,
            span_insts: None,
            last_active_cycles: now_cycles,
        })
    }

    /// Slice number (1-based, in fork order).
    pub fn num(&self) -> u32 {
        self.num
    }

    /// Current lifecycle state.
    pub fn state(&self) -> SliceState {
        self.state
    }

    /// Why the slice ended (once done).
    pub fn end_reason(&self) -> Option<SliceEnd> {
        self.end
    }

    /// Virtual time the slice was forked.
    pub fn start_cycles(&self) -> u64 {
        self.start_cycles
    }

    /// Virtual time the slice woke (its boundary became known); `None`
    /// while still sleeping.
    pub fn wake_cycles(&self) -> Option<u64> {
        self.wake_cycles
    }

    /// Virtual time the slice finished.
    pub fn end_cycles(&self) -> Option<u64> {
        self.end_cycles
    }

    /// Recorded syscalls played back so far.
    pub fn records_played(&self) -> u64 {
        self.records_played
    }

    /// The slice's engine (statistics, process).
    pub fn engine(&self) -> &Engine<T> {
        &self.engine
    }

    /// Hands the slice the trace registry published at the last barrier
    /// for the next epoch (see [`Engine::enter_epoch`]). The runner does
    /// so at fork and at every barrier; the registry is immutable, so
    /// what the slice compiles or adopts, and what it is charged
    /// (paper §8, [`crate::config::SuperPinConfig::shared_code_cache`]),
    /// is independent of host thread interleaving.
    pub fn enter_epoch(&mut self, registry: Arc<TraceRegistry<T>>) {
        self.engine.enter_epoch(registry);
    }

    /// Drains the traces this slice compiled since the last barrier,
    /// sorted by pc, each with its template when shareable. The runner
    /// publishes them in slice order.
    pub fn take_fresh_traces(&mut self) -> Vec<(u64, Entry<T>)> {
        self.engine.take_fresh_traces()
    }

    /// Records how many master instructions this slice's span covers
    /// (set by the runner at wake, when the span length is known).
    pub fn set_span_insts(&mut self, insts: u64) {
        self.span_insts = Some(insts);
    }

    /// Progress snapshot for the epoch planner: abstract-tick spend,
    /// instructions done, and the known span length (0 if not yet woken).
    pub fn eta(&self) -> superpin_sched::SliceEta {
        superpin_sched::SliceEta {
            ticks_spent: self.engine.stats().cycles.total(),
            insts_done: self.engine.process().inst_count(),
            insts_total: self.span_insts.unwrap_or(0),
        }
    }

    /// Mutable access to the slice's tool.
    pub fn tool_mut(&mut self) -> &mut T {
        self.engine.tool_mut()
    }

    /// The slice's tool.
    pub fn tool(&self) -> &T {
        self.engine.tool()
    }

    /// Wakes a sleeping slice: delivers the boundary (recorded when the
    /// *next* slice was forked) plus the master's syscall records for
    /// this slice's span.
    pub fn wake(&mut self, boundary: Boundary, records: Vec<SyscallRecord>, now_cycles: u64) {
        debug_assert_eq!(self.state, SliceState::Sleeping);
        self.wake_cycles = Some(now_cycles);
        if let Boundary::Signature(sig) = &boundary {
            // The split point makes the boundary pc head every trace that
            // holds it; the engine runs the detector at each entry of
            // that trace, before any instrumentation of the boundary
            // block (keeps icount2-style tools exact).
            self.engine.detect_boundary(Arc::clone(sig), self.num);
        }
        self.records = records.into();
        self.boundary = Some(boundary);
        self.state = SliceState::Running;
    }

    /// Advances the slice by up to `budget` cycles of instrumented
    /// execution at virtual time `now_cycles`. Returns cycles consumed
    /// (may slightly exceed the budget when a syscall playback or COW
    /// charge lands on the boundary).
    ///
    /// # Errors
    ///
    /// Returns [`SpError::SliceDiverged`] / [`SpError::RecordMismatch`]
    /// on master/slice divergence, or guest errors.
    pub fn advance(&mut self, budget: u64, now_cycles: u64) -> Result<u64, SpError> {
        debug_assert_eq!(self.state, SliceState::Running);
        self.last_active_cycles = now_cycles;
        // Repay cycles overshot in previous quanta before doing new work.
        let repaid = self.debt.min(budget);
        self.debt -= repaid;
        let budget = budget - repaid;
        let mut used = 0u64;
        while used < budget && self.state == SliceState::Running {
            let detections_before = self.engine.signature_stats().detections;
            let result = self.engine.run(budget - used)?;
            used += result.cycles;
            match result.stop {
                EngineStop::BudgetExhausted => break,
                EngineStop::SyscallEntry => {
                    used += self.playback_next(now_cycles)?;
                }
                EngineStop::ToolStop => {
                    // A stop is a boundary detection if the detector's
                    // hit counter moved; otherwise the user tool called
                    // the `SP_EndSlice` analogue.
                    let end = if self.engine.signature_stats().detections > detections_before {
                        SliceEnd::SignatureDetected
                    } else {
                        SliceEnd::ToolEnded
                    };
                    self.finish(end, now_cycles);
                }
                EngineStop::Exited(_) => {
                    self.finish(SliceEnd::Exited, now_cycles);
                }
                EngineStop::Halted => {
                    return Err(SpError::Vm(superpin_vm::VmError::UnexpectedHalt {
                        pc: self.engine.process().cpu.pc,
                    }))
                }
            }
        }
        // Charge copy-on-write faults taken since the last advance.
        let cow = self.engine.process().mem.stats().cow_copies;
        let delta = cow - self.cow_charged;
        if delta > 0 {
            used += delta * self.engine.cost().cow_fault;
            self.cow_charged = cow;
        }
        // Anything beyond this quantum's budget is owed to future quanta.
        self.debt += used.saturating_sub(budget);
        Ok(repaid + used.min(budget))
    }

    /// Advances the slice through a whole epoch: up to `quanta` quanta of
    /// `budget_per_quantum` cycles each, with virtual time stepped by
    /// `quantum_cycles` from `epoch_start`. Stops early when the slice
    /// finishes.
    ///
    /// This is exactly the per-quantum [`advance`](SliceRuntime::advance)
    /// loop the serial runner would drive — debt repayment and finish
    /// timestamps land on identical quantum boundaries — so running it on
    /// a worker thread cannot change any report bit.
    ///
    /// # Errors
    ///
    /// Propagates the first [`advance`](SliceRuntime::advance) error.
    pub fn advance_epoch(
        &mut self,
        budget_per_quantum: u64,
        quanta: u64,
        epoch_start: u64,
        quantum_cycles: u64,
    ) -> Result<(), SpError> {
        for j in 0..quanta {
            if self.state != SliceState::Running {
                break;
            }
            self.advance(budget_per_quantum, epoch_start + (j + 1) * quantum_cycles)?;
        }
        Ok(())
    }

    fn playback_next(&mut self, now_cycles: u64) -> Result<u64, SpError> {
        let pc = self.engine.process().cpu.pc;
        let Some(record) = self.records.pop_front() else {
            return Err(SpError::SliceDiverged {
                slice: self.num,
                pc,
            });
        };
        let actual = self.engine.process().cpu.regs.get(Reg::R0);
        if actual != record.number as u64 {
            return Err(SpError::RecordMismatch {
                slice: self.num,
                pc,
                recorded: record.number as u64,
                actual,
            });
        }
        let exited = record.exited.is_some();
        let cycles = self.engine.playback_syscall(&record)?;
        self.records_played += 1;
        if exited {
            self.finish(SliceEnd::Exited, now_cycles);
        } else if self.records.is_empty() && matches!(self.boundary, Some(Boundary::SyscallEnd)) {
            self.finish(SliceEnd::RecordsExhausted, now_cycles);
        }
        Ok(cycles)
    }

    fn finish(&mut self, end: SliceEnd, now_cycles: u64) {
        self.state = SliceState::Done;
        self.end = Some(end);
        self.end_cycles = Some(now_cycles);
    }

    /// Arms (or, with `None`, strips) chaos injection on this slice: both
    /// the engine's dispatch failpoint and the signature-detector
    /// failpoints, with `salt` mixed into every key so a retried slice
    /// replays a *different* point in the fault schedule instead of
    /// re-hitting the fault that condemned it. Resets the poison counter.
    pub fn arm_chaos(&mut self, registry: Option<Arc<FailpointRegistry>>, salt: u64) {
        self.engine.arm_fault_injection(registry, salt);
    }

    /// Faults injected into this slice's boundary detector since chaos
    /// was last armed (the supervisor's poison counter; see
    /// [`Engine::injected_faults`]).
    pub fn injected_faults(&self) -> u64 {
        self.engine.injected_faults()
    }

    /// Virtual time of the slice's most recent advance — the memory
    /// governor's LRU coldness key.
    pub fn last_active_cycles(&self) -> u64 {
        self.last_active_cycles
    }

    /// Simulated bytes of memory *private* to this slice: pages it
    /// copied on write or faulted in fresh since the fork, at page
    /// granularity. Everything else is shared with the master (COW) and
    /// charged once on the master's side. Deterministic — derived from
    /// the space's fault counters, which are simulated state.
    pub fn private_resident_bytes(&self) -> u64 {
        let stats = self.engine.process().mem.stats();
        (stats.cow_copies + stats.minor_faults) * superpin_vm::mem::PAGE_SIZE as u64
    }

    /// Simulated bytes of the slice's *full* address space (every
    /// resident page, shared or private). This is what a materialized
    /// supervisor checkpoint of the slice costs, since checkpointing
    /// breaks COW sharing.
    pub fn full_resident_bytes(&self) -> u64 {
        self.engine.process().mem.resident_bytes()
    }

    /// Instructions resident in the slice's code cache (the governor
    /// charges a fixed simulated byte cost per compiled instruction).
    pub fn cache_resident_insts(&self) -> usize {
        self.engine.cache_resident_insts()
    }

    /// Flushes the slice's code cache under memory pressure; returns the
    /// instructions freed. Re-execution recompiles on demand at full JIT
    /// cost, so eviction changes cycle accounting — which is why the
    /// supervisor journals it (see
    /// [`crate::supervisor::ReplayStep::EvictCache`]).
    pub fn evict_code_cache(&mut self) -> usize {
        self.engine.evict_code_cache()
    }

    /// A deep, injection-free copy of this slice for supervisor
    /// checkpointing. Page frames are materialized (private copies, no
    /// COW sharing with the live slice — pure host-memory hygiene; the
    /// deterministic COW accounting, the space's fork generation and
    /// per-page stamps, is cloned as-is), and the chaos registry is
    /// stripped so a replay from the checkpoint runs fault-free by
    /// construction.
    pub fn checkpoint(&self) -> SliceRuntime<T> {
        let mut copy = self.clone();
        copy.engine.process_mut().mem.materialize();
        copy.arm_chaos(None, 0);
        copy
    }
}

impl<T: SuperTool> Clone for SliceRuntime<T> {
    fn clone(&self) -> SliceRuntime<T> {
        SliceRuntime {
            num: self.num,
            engine: self.engine.clone(),
            records: self.records.clone(),
            boundary: self.boundary.clone(),
            state: self.state,
            end: self.end,
            start_cycles: self.start_cycles,
            wake_cycles: self.wake_cycles,
            end_cycles: self.end_cycles,
            records_played: self.records_played,
            cow_charged: self.cow_charged,
            debt: self.debt,
            span_insts: self.span_insts,
            last_active_cycles: self.last_active_cycles,
        }
    }
}

impl<T: SuperTool> std::fmt::Debug for SliceRuntime<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SliceRuntime")
            .field("num", &self.num)
            .field("state", &self.state)
            .field("end", &self.end)
            .field("records_left", &self.records.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shared::SharedMem;
    use crate::signature::SignatureStats;
    use superpin_dbi::{IPoint, Inserter, Pintool, Trace};
    use superpin_fault::{FailPlan, Site, SiteMode};
    use superpin_isa::asm::assemble;

    /// Minimal icount1-style SuperTool for slice tests.
    #[derive(Clone, Default)]
    struct TestCount {
        count: u64,
    }

    impl Pintool for TestCount {
        fn instrument_trace(&mut self, trace: &Trace, inserter: &mut Inserter<Self>) {
            for iref in trace.insts() {
                inserter.insert_call(
                    iref.addr,
                    IPoint::Before,
                    |tool, _, _| tool.count += 1,
                    vec![],
                );
            }
        }
        fn instrumentation_is_shareable(&self) -> bool {
            true
        }
    }

    impl SuperTool for TestCount {
        fn reset(&mut self, _slice: u32) {
            self.count = 0;
        }
        fn on_slice_end(&mut self, _slice: u32, _shared: &SharedMem) {
            // Tests read `count` directly; no merge needed here.
        }
    }

    fn master(src: &str) -> (Process, Bubble) {
        let program = assemble(src).expect("assemble");
        let mut process = Process::load(1, &program).expect("load");
        let bubble = Bubble::reserve(&mut process.mem).expect("bubble");
        (process, bubble)
    }

    fn cfg() -> SuperPinConfig {
        SuperPinConfig::paper_default()
    }

    /// Slice 1 of `process`, spawned unchecked at time 0.
    fn spawned(process: &Process, bubble: &Bubble) -> SliceRuntime<TestCount> {
        SliceRuntime::spawn(1, process, &TestCount::default(), bubble, &cfg(), 0, None)
            .expect("spawn")
    }

    #[test]
    fn spawn_sleeps_until_woken() {
        let (process, bubble) = master("main:\n li r1, 5\n exit 0\n");
        let slice = spawned(&process, &bubble);
        assert_eq!(slice.state(), SliceState::Sleeping);
        assert_eq!(slice.num(), 1);
        // The slice released the bubble; the master still holds it.
        assert!(!slice.engine().process().mem.is_mapped(bubble.base()));
        assert!(process.mem.is_mapped(bubble.base()));
    }

    #[test]
    fn slice_runs_to_program_exit_via_playback() {
        let (mut process, bubble) = master("main:\n li r1, 5\n li r2, 6\n exit 3\n");
        let mut slice = spawned(&process, &bubble);
        // Master runs to completion, recording its (only) syscall.
        process.run_until_syscall(u64::MAX).expect("run");
        let record = process.do_syscall(0).expect("exit syscall");
        assert!(record.exited.is_some());

        slice.wake(Boundary::ProgramExit, vec![record], 0);
        let used = slice.advance(u64::MAX / 8, 42).expect("advance");
        assert!(used > 0);
        assert_eq!(slice.state(), SliceState::Done);
        assert_eq!(slice.end_reason(), Some(SliceEnd::Exited));
        assert_eq!(slice.end_cycles(), Some(42));
        // Tool counted every dynamic instruction: li, li, (li, li, syscall).
        assert_eq!(slice.tool().count, 5);
        assert_eq!(slice.records_played(), 1);
    }

    #[test]
    fn signature_boundary_stops_before_boundary_instruction() {
        // Master: 10-iteration countdown; boundary captured at iteration 5.
        let src = "main:\n li r1, 10\nloop:\n subi r1, r1, 1\n bne r1, r0, loop\n exit 0\n";
        let (mut process, bubble) = master(src);
        let mut slice = spawned(&process, &bubble);
        // Advance the master 1 + 2*5 instructions: li + 5×(subi,bne);
        // pc is now at `subi` with r1 == 5.
        process.run_until_syscall(11).expect("run");
        let master_insts_so_far = process.inst_count();
        let sig = Signature::capture(&mut process);

        slice.wake(Boundary::Signature(Arc::new(sig)), vec![], 0);
        slice.advance(u64::MAX / 8, 7).expect("advance");
        assert_eq!(slice.state(), SliceState::Done);
        assert_eq!(slice.end_reason(), Some(SliceEnd::SignatureDetected));
        // The slice counted exactly the master's span — the boundary
        // instruction itself belongs to the next slice.
        assert_eq!(slice.tool().count, master_insts_so_far);
        let stats = slice.engine().signature_stats();
        assert_eq!(stats.detections, 1);
        assert!(stats.quick_checks >= stats.full_checks);
        assert!(stats.full_checks >= 1);
    }

    #[test]
    fn quick_check_filters_loop_iterations() {
        // The boundary pc is inside the loop, so the quick check runs on
        // every iteration but escalates only when the counter matches.
        let src = "main:\n li r1, 50\nloop:\n subi r1, r1, 1\n bne r1, r0, loop\n exit 0\n";
        let (mut process, bubble) = master(src);
        let mut slice = spawned(&process, &bubble);
        process.run_until_syscall(1 + 2 * 40).expect("run");
        let sig = Signature::capture(&mut process);
        slice.wake(Boundary::Signature(Arc::new(sig)), vec![], 0);
        slice.advance(u64::MAX / 8, 0).expect("advance");
        let stats = slice.engine().signature_stats();
        assert_eq!(stats.detections, 1);
        assert_eq!(
            stats.quick_checks, 41,
            "one quick check per boundary-pc visit"
        );
        assert_eq!(
            stats.full_checks, 1,
            "quick filter must reject non-boundary iterations"
        );
        assert_eq!(stats.stack_checks, 1);
    }

    #[test]
    fn syscall_end_boundary_finishes_after_last_record() {
        // Program does getpid twice then exits; slice's span covers the
        // first getpid only (next slice forced at the second).
        let src = "main:\n li r0, 9\n syscall\n li r0, 9\n syscall\n exit 0\n";
        let (mut process, bubble) = master(src);
        let mut slice = spawned(&process, &bubble);
        process.run_until_syscall(u64::MAX).expect("run to sys1");
        let rec1 = process.do_syscall(0).expect("sys1");
        slice.wake(Boundary::SyscallEnd, vec![rec1], 0);
        slice.advance(u64::MAX / 8, 9).expect("advance");
        assert_eq!(slice.state(), SliceState::Done);
        assert_eq!(slice.end_reason(), Some(SliceEnd::RecordsExhausted));
        // li + syscall counted.
        assert_eq!(slice.tool().count, 2);
    }

    #[test]
    fn divergence_is_detected() {
        // Slice reaches a syscall but has no record for it.
        let src = "main:\n li r0, 9\n syscall\n exit 0\n";
        let (mut process, bubble) = master(src);
        let mut slice = spawned(&process, &bubble);
        // Wake with a signature boundary that will never match before the
        // syscall.
        process.run_until_syscall(u64::MAX).expect("run");
        process.do_syscall(0).expect("sys");
        process.run_until_syscall(u64::MAX).expect("run to exit");
        let sig = Signature::capture(&mut process);
        slice.wake(Boundary::Signature(Arc::new(sig)), vec![], 0);
        let err = slice.advance(u64::MAX / 8, 0).unwrap_err();
        assert!(matches!(err, SpError::SliceDiverged { slice: 1, .. }));
    }

    #[test]
    fn record_mismatch_is_detected() {
        let src = "main:\n li r0, 9\n syscall\n exit 0\n";
        let (mut process, bubble) = master(src);
        let mut slice = spawned(&process, &bubble);
        process.run_until_syscall(u64::MAX).expect("run");
        let mut rec = process.do_syscall(0).expect("sys");
        rec.number = superpin_vm::kernel::SyscallNo::Read; // corrupt
        slice.wake(Boundary::SyscallEnd, vec![rec], 0);
        let err = slice.advance(u64::MAX / 8, 0).unwrap_err();
        assert!(matches!(err, SpError::RecordMismatch { .. }));
    }

    #[test]
    fn cow_faults_are_charged_once() {
        let src = r#"
            .data
            buf: .space 8192
            .text
            main:
                la r2, buf
                li r3, 1
                st r3, 0(r2)
                st r3, 4096(r2)
                exit 0
        "#;
        let (mut process, bubble) = master(src);
        // Touch the pages in the master first so the slice's writes COW.
        let program_data = superpin_isa::DATA_BASE;
        process.mem.write_u64(program_data, 9).expect("touch");
        process
            .mem
            .write_u64(program_data + 4096, 9)
            .expect("touch");
        let mut slice = spawned(&process, &bubble);
        // Keep an extra fork alive so page frames stay shared even after
        // the master's own writes copy them (in the real run, many slices
        // hold references simultaneously).
        let keeper = process.fork(99);
        process.run_until_syscall(u64::MAX).expect("run");
        let rec = process.do_syscall(0).expect("exit");
        slice.wake(Boundary::ProgramExit, vec![rec], 0);
        let used = slice.advance(u64::MAX / 8, 0).expect("advance");
        let cow = slice.engine().process().mem.stats().cow_copies;
        assert!(cow >= 2, "slice stores must COW: {cow}");
        assert!(used >= cow * cfg().cost.cow_fault);
        drop(keeper);
    }

    /// A woken slice with a loop boundary, plus the signature it should
    /// detect (shared setup for the chaos tests below).
    fn woken_loop_slice() -> SliceRuntime<TestCount> {
        let src = "main:\n li r1, 10\nloop:\n subi r1, r1, 1\n bne r1, r0, loop\n exit 0\n";
        let (mut process, bubble) = master(src);
        let slice = spawned(&process, &bubble);
        process.run_until_syscall(11).expect("run");
        let sig = Signature::capture(&mut process);
        let mut slice = slice;
        slice.wake(Boundary::Signature(Arc::new(sig)), vec![], 0);
        slice
    }

    #[test]
    fn traces_shaped_by_the_boundary_publish_their_membership_only() {
        let src = "main:\n li r2, 3\n jmp start\nstart:\n li r1, 10\n\
                   loop:\n subi r1, r1, 1\n bne r1, r0, loop\n exit 0\n";
        for shared_code_cache in [true, false] {
            let (mut process, bubble) = master(src);
            let mut slice = spawned(&process, &bubble);
            // The boundary is the loop head, four iterations in.
            process.run_until_syscall(3 + 2 * 4).expect("run");
            let sig = Signature::capture(&mut process);
            let boundary = sig.pc;
            slice.wake(Boundary::Signature(Arc::new(sig)), vec![], 0);
            slice.engine.set_shared_code_cache(shared_code_cache);
            slice.enter_epoch(Arc::new(TraceRegistry::new()));
            slice.advance(u64::MAX / 8, 0).expect("advance");
            assert_eq!(slice.end_reason(), Some(SliceEnd::SignatureDetected));

            let fresh = slice.take_fresh_traces();
            let registry = Arc::new(TraceRegistry::new()).publish(fresh.iter().cloned());
            // `start`'s trace is cut short by the split: peers learn that
            // it was compiled — which only the shared charge has a use
            // for — never how.
            let start = boundary - 16; // `li` is two words
            assert_eq!(registry.entry(start).is_some(), shared_code_cache);
            assert!(registry.template(start).is_none());
            // The loop trace the boundary heads is the one any slice
            // forms there; the detector runs outside it, at its entry.
            assert!(registry.template(boundary).is_some());
            let others: Vec<u64> = fresh
                .iter()
                .map(|&(pc, _)| pc)
                .filter(|&pc| pc != boundary && pc != start)
                .collect();
            assert_eq!(others.len(), 1, "main's trace");
            assert!(registry.template(others[0]).is_some());
        }
    }

    #[test]
    fn chaos_quick_miss_makes_slice_overrun_its_boundary() {
        let mut slice = woken_loop_slice();
        let plan = FailPlan::new(7, 0.0).with_site(Site::CoreSignatureQuickMiss, SiteMode::Always);
        slice.arm_chaos(Some(Arc::new(FailpointRegistry::new(plan))), 0);
        // Every genuine quick match is suppressed, so the slice runs past
        // its boundary and diverges at the unrecorded exit syscall.
        let err = slice.advance(u64::MAX / 8, 0).unwrap_err();
        assert!(matches!(err, SpError::SliceDiverged { slice: 1, .. }));
        assert!(slice.injected_faults() >= 1, "poison counter must move");
        assert_eq!(slice.engine().signature_stats().detections, 0);
    }

    #[test]
    fn chaos_full_mismatch_skips_stack_stage() {
        let mut slice = woken_loop_slice();
        let plan =
            FailPlan::new(7, 0.0).with_site(Site::CoreSignatureFullMismatch, SiteMode::Nth(1));
        slice.arm_chaos(Some(Arc::new(FailpointRegistry::new(plan))), 0);
        let err = slice.advance(u64::MAX / 8, 0).unwrap_err();
        assert!(matches!(err, SpError::SliceDiverged { .. }));
        let stats = slice.engine().signature_stats();
        assert_eq!(slice.injected_faults(), 1);
        assert!(stats.full_checks >= 1);
        assert_eq!(stats.stack_checks, 0, "injection must skip the stack stage");
    }

    #[test]
    fn checkpoint_replay_is_bit_identical_to_fault_free_run() {
        // Reference: fault-free slice runs to detection.
        let mut reference = woken_loop_slice();
        reference.advance(u64::MAX / 8, 3).expect("reference");
        assert_eq!(reference.end_reason(), Some(SliceEnd::SignatureDetected));

        // Victim: checkpoint at wake, poison with chaos, then roll back
        // and replay from the checkpoint with injection off.
        let mut victim = woken_loop_slice();
        let checkpoint = victim.checkpoint();
        let plan = FailPlan::new(7, 0.0).with_site(Site::CoreSignatureQuickMiss, SiteMode::Always);
        victim.arm_chaos(Some(Arc::new(FailpointRegistry::new(plan))), 0);
        victim.advance(u64::MAX / 8, 3).unwrap_err();

        let mut replay = checkpoint;
        assert_eq!(replay.injected_faults(), 0);
        replay.advance(u64::MAX / 8, 3).expect("replay");
        assert_eq!(replay.end_reason(), Some(SliceEnd::SignatureDetected));
        assert_eq!(replay.end_cycles(), reference.end_cycles());
        assert_eq!(replay.tool().count, reference.tool().count);
        assert_eq!(
            replay.engine().signature_stats(),
            reference.engine().signature_stats()
        );
        assert_eq!(replay.engine().stats(), reference.engine().stats());
        assert_eq!(
            replay.engine().process().mem.stats(),
            reference.engine().process().mem.stats()
        );
    }

    #[test]
    fn a_checkpoint_strips_every_failpoint_one_arming_armed() {
        let plan = [
            Site::DbiEngineDispatch,
            Site::CoreSignatureQuickMiss,
            Site::CoreSignatureFullMismatch,
        ]
        .into_iter()
        .fold(FailPlan::new(7, 0.0), |plan, site| {
            plan.with_site(site, SiteMode::Always)
        });
        let mut armed = woken_loop_slice();
        armed.arm_chaos(Some(Arc::new(FailpointRegistry::new(plan))), 0);
        let mut checkpoint = armed.checkpoint();
        // Armed, the first dispatch already fails.
        let err = armed.advance(u64::MAX / 8, 3).unwrap_err();
        assert!(matches!(
            err,
            SpError::Vm(superpin_vm::VmError::FaultInjected { .. })
        ));
        // The checkpoint neither fails a dispatch nor misses the
        // boundary: stripping chaos reached the detector too.
        checkpoint.advance(u64::MAX / 8, 3).expect("checkpoint");
        assert_eq!(checkpoint.end_reason(), Some(SliceEnd::SignatureDetected));
        assert_eq!(checkpoint.injected_faults(), 0);
        assert_eq!(checkpoint.engine().signature_stats().detections, 1);
    }

    /// A loop that reaches each of its labels a different way: `fall`
    /// by falling through mid-block, `odd` by a branch taken from
    /// mid-trace, `func` through `jalr`, `after` right after a syscall,
    /// and `loop` by the loop's back edge.
    const FIVE_WAYS: &str = "main:\n li r1, 6\n li r7, 1\n\
        loop:\n addi r2, r2, 1\n\
        fall:\n addi r3, r3, 2\n and r4, r1, r7\n bne r4, r0, odd\n addi r2, r2, 3\n jmp join\n\
        odd:\n addi r3, r3, 1\n\
        join:\n la r5, func\n jalr ra, 0(r5)\n li r0, 9\n syscall\n\
        after:\n addi r6, r6, 1\n subi r1, r1, 1\n bne r1, r0, loop\n exit 0\n\
        func:\n addi r8, r8, 1\n ret\n";

    /// Runs `process` natively, servicing its syscalls, until its pc is
    /// at `pc` for the `visit`-th time; returns the syscall records.
    fn run_to_visit(process: &mut Process, pc: u64, visit: u32) -> Vec<SyscallRecord> {
        let mut records = Vec::new();
        let mut seen = 0;
        loop {
            if process.cpu.pc == pc {
                seen += 1;
                if seen == visit {
                    return records;
                }
            }
            if process.run_until_syscall(1).expect("run")
                == superpin_vm::process::RunExit::SyscallEntry
            {
                records.push(process.do_syscall(0).expect("syscall"));
            }
        }
    }

    /// Wakes a slice of `FIVE_WAYS` on the boundary at `label`'s
    /// `visit`-th visit and runs it in quanta of `budget` cycles until it
    /// detects. Returns the master's instruction count at the boundary
    /// and the slice.
    fn detect_at(label: &str, visit: u32, budget: u64) -> (u64, SliceRuntime<TestCount>) {
        let program = assemble(FIVE_WAYS).expect("assemble");
        let pc = program.symbol(label).expect("label").addr;
        let (mut process, bubble) = master(FIVE_WAYS);
        let mut slice = spawned(&process, &bubble);
        let records = run_to_visit(&mut process, pc, visit);
        let sig = Signature::capture(&mut process);
        slice.wake(Boundary::Signature(Arc::new(sig)), records, 0);
        for quantum in 0..100_000 {
            if slice.state() != SliceState::Running {
                break;
            }
            slice.advance(budget, quantum).expect("advance");
        }
        assert_eq!(
            slice.end_reason(),
            Some(SliceEnd::SignatureDetected),
            "{label}"
        );
        (process.inst_count(), slice)
    }

    #[test]
    fn the_boundary_is_detected_however_the_guest_reaches_it() {
        // Each way's instruction count, quick checks and analysis cycles
        // as recorded when the detector was an if/then call compiled into
        // the boundary trace; every way escalates once and detects.
        for (label, visit, budget, insts, quick_checks, analysis) in [
            // By fall-through: the split cuts the `loop` trace short.
            ("fall", 4, u64::MAX / 8, 47, 4, 728),
            // By the branch taken from the middle of the `fall` trace.
            ("odd", 2, u64::MAX / 8, 65, 2, 900),
            ("func", 4, u64::MAX / 8, 54, 4, 798),
            // One trace a quantum: every entry follows a budget stop.
            ("loop", 4, 1, 46, 4, 718),
            // Right after the `getpid` is played back.
            ("after", 4, u64::MAX / 8, 58, 4, 838),
        ] {
            let (master_insts, slice) = detect_at(label, visit, budget);
            assert_eq!(master_insts, insts, "{label}");
            assert_eq!(slice.engine().process().inst_count(), insts, "{label}");
            assert_eq!(slice.tool().count, insts, "{label}");
            let expected = SignatureStats {
                quick_checks,
                full_checks: 1,
                stack_checks: 1,
                detections: 1,
            };
            assert_eq!(slice.engine().signature_stats(), expected, "{label}");
            let stats = slice.engine().stats();
            assert_eq!(
                (stats.if_checks, stats.then_calls, stats.cycles.analysis),
                (quick_checks, 1, analysis),
                "{label}"
            );
        }
    }
}
