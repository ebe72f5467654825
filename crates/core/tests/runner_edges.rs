//! Edge-case tests for the SuperPin runner built on hand-written
//! programs (no workload catalog), exercising paths the behavioural
//! suite's realistic workloads don't isolate.

use superpin::baseline::run_native;
use superpin::{SharedMem, SliceEnd, SuperPinConfig, SuperPinRunner, SuperTool};
use superpin_dbi::{IPoint, Inserter, Pintool, Trace};
use superpin_isa::{Program, ProgramBuilder, Reg};
use superpin_sched::Policy;
use superpin_vm::process::Process;

#[derive(Clone)]
struct Count {
    count: u64,
    area: superpin::AreaId,
}

impl Count {
    fn new(shared: &SharedMem) -> Count {
        Count {
            count: 0,
            area: shared.create_area(1, superpin::AutoMerge::Manual),
        }
    }
}

impl Pintool for Count {
    fn instrument_trace(&mut self, trace: &Trace, inserter: &mut Inserter<Self>) {
        for iref in trace.insts() {
            inserter.insert_call(iref.addr, IPoint::Before, |t, _, _| t.count += 1, vec![]);
        }
    }
}

impl SuperTool for Count {
    fn reset(&mut self, _slice: u32) {
        self.count = 0;
    }
    fn on_slice_end(&mut self, _slice: u32, shared: &SharedMem) {
        shared.area(self.area).add(0, self.count);
    }
}

fn cfg(timeslice: u64) -> SuperPinConfig {
    let mut cfg = SuperPinConfig::paper_default();
    cfg.timeslice_cycles = timeslice;
    cfg.quantum_cycles = (timeslice / 20).max(100);
    cfg
}

fn run_count(program: &Program, cfg: SuperPinConfig) -> (u64, superpin::SuperPinReport) {
    let shared = SharedMem::new();
    let tool = Count::new(&shared);
    let area = tool.area;
    let report = SuperPinRunner::new(
        Process::load(1, program).expect("load"),
        tool,
        shared.clone(),
        cfg,
    )
    .expect("setup")
    .run()
    .expect("run");
    (shared.area(area).read(0), report)
}

fn loop_program(iters: i64) -> Program {
    let mut b = ProgramBuilder::new();
    b.label("main");
    b.li(Reg::R1, iters);
    b.label("loop");
    b.subi(Reg::R1, Reg::R1, 1);
    b.bne(Reg::R1, Reg::R0, "loop");
    b.exit(0);
    b.build().expect("build")
}

#[test]
fn immediate_exit_program() {
    let mut b = ProgramBuilder::new();
    b.label("main");
    b.exit(0);
    let program = b.build().expect("build");
    let (count, report) = run_count(&program, cfg(1_000));
    let native = run_native(Process::load(1, &program).expect("load")).expect("native");
    assert_eq!(count, native.insts);
    assert_eq!(report.slice_count(), 1);
    assert_eq!(report.slices[0].end, SliceEnd::Exited);
    assert_eq!(report.forks_on_timeout, 0);
}

#[test]
fn syscall_only_program() {
    // A program that is almost entirely syscalls (getpid spam).
    let mut b = ProgramBuilder::new();
    b.label("main");
    b.li(Reg::R2, 40);
    b.label("loop");
    b.li(Reg::R0, 9);
    b.syscall();
    b.subi(Reg::R2, Reg::R2, 1);
    b.bne(Reg::R2, Reg::R0, "loop");
    b.exit(0);
    let program = b.build().expect("build");
    let native = run_native(Process::load(1, &program).expect("load")).expect("native");
    let (count, report) = run_count(&program, cfg(500));
    assert_eq!(count, native.insts);
    assert!(report.master_syscalls >= 40);
}

#[test]
fn master_first_policy_runs_exactly() {
    let program = loop_program(4_000);
    let native = run_native(Process::load(1, &program).expect("load")).expect("native");
    let mut config = cfg(1_500);
    config.policy = Policy::MasterFirst;
    let (count, report) = run_count(&program, config);
    assert_eq!(count, native.insts);
    assert!(report.slice_count() > 2);
}

#[test]
fn master_first_finishes_master_sooner_than_fair_share() {
    let program = loop_program(30_000);
    let mut fair = cfg(2_000);
    fair.max_slices = 2; // force contention
    let mut pinned = fair.clone();
    pinned.policy = Policy::MasterFirst;
    let (_, fair_report) = run_count(&program, fair);
    let (_, pinned_report) = run_count(&program, pinned);
    assert!(
        pinned_report.master_exit_cycles <= fair_report.master_exit_cycles,
        "a pinned master ({}) must not exit later than a fair-share one ({})",
        pinned_report.master_exit_cycles,
        fair_report.master_exit_cycles
    );
}

#[test]
fn shared_cache_with_single_slice_changes_nothing() {
    let program = loop_program(500);
    let plain = run_count(&program, cfg(u64::MAX / 8));
    let mut shared_cfg = cfg(u64::MAX / 8);
    shared_cfg.shared_code_cache = true;
    let shared = run_count(&program, shared_cfg);
    assert_eq!(plain.1.slice_count(), 1);
    assert_eq!(shared.1.slice_count(), 1);
    // One slice ⇒ no adoption opportunities ⇒ identical cost.
    assert_eq!(plain.1.total_cycles, shared.1.total_cycles);
    assert_eq!(plain.0, shared.0);
}

#[test]
fn tiny_timeslice_still_exact() {
    // Timeslices close to the quantum floor: lots of zero-progress timer
    // checks, fork debt, and sub-quantum slices.
    let program = loop_program(2_000);
    let native = run_native(Process::load(1, &program).expect("load")).expect("native");
    let mut config = SuperPinConfig::paper_default();
    config.timeslice_cycles = 300;
    config.quantum_cycles = 100;
    let (count, report) = run_count(&program, config);
    assert_eq!(count, native.insts);
    assert!(report.slice_count() > 3);
}

#[test]
fn a_failed_first_fork_leaves_the_run_unstarted() {
    // The guest occupies the range of the slices' private VM stack, so
    // no slice can pass the trampoline.
    let mut process = Process::load(1, &loop_program(100)).expect("load");
    process
        .mem
        .map_anonymous(Some(superpin::trampoline::PRIVATE_STACK_BASE), 4096)
        .expect("squat");
    let shared = SharedMem::new();
    let tool = Count::new(&shared);
    let mut runner = SuperPinRunner::new(process, tool, shared, cfg(10_000)).expect("setup");
    assert!(runner.start().is_err());
    // Calling again retries the first fork, and stepping starts the run
    // the same way: neither may run the master with no slice behind it.
    assert!(runner.start().is_err());
    assert!(runner.step_serial().is_err());
    assert_eq!(runner.probe().epochs, 0);
}
