//! Reproduces the signature-detection false positive the paper warns
//! about (§4.4):
//!
//! "A sequence of code could be generated that incremented or
//! decremented memory in a loop as a loop counter, with all other
//! registers and stack remaining the same across iterations. In this
//! case, we may trigger a false positive match on the first iteration
//! rather than a subsequent iteration."

use std::sync::Arc;
use superpin::bubble::Bubble;
use superpin::signature::Signature;
use superpin::slice::{Boundary, SliceEnd, SliceRuntime, SliceState};
use superpin::{SharedMem, SuperPinConfig, SuperTool};
use superpin_dbi::{IPoint, Inserter, Pintool, Trace};
use superpin_isa::{Program, ProgramBuilder, Reg};
use superpin_vm::process::Process;

/// Minimal counting SuperTool for the demonstration.
#[derive(Clone, Default)]
struct Count {
    count: u64,
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
    fn on_slice_end(&mut self, _slice: u32, _shared: &SharedMem) {}
}

/// The pathological loop: the induction variable lives only in memory;
/// at the loop head every register and the stack are identical on every
/// iteration (r3 is zeroed before looping back).
fn pathological_program(iters: u64) -> Program {
    let mut b = ProgramBuilder::new();
    b.data_words("counter", &[iters]);
    b.label("main");
    b.la(Reg::R2, "counter");
    b.label("head"); // <- boundary pc: state identical every arrival
    b.ld(Reg::R3, Reg::R2, 0);
    b.subi(Reg::R3, Reg::R3, 1);
    b.st(Reg::R3, Reg::R2, 0);
    b.beq(Reg::R3, Reg::R0, "done");
    b.xor(Reg::R3, Reg::R3, Reg::R3); // erase the only changing register
    b.jmp("head");
    b.label("done");
    b.exit(0);
    b.build().expect("build")
}

#[test]
fn memory_only_loop_counter_triggers_false_positive() {
    let program = pathological_program(10);
    let mut master = Process::load(1, &program).expect("load");
    let bubble = Bubble::reserve(&mut master.mem).expect("bubble");
    let cfg = SuperPinConfig::paper_default();

    // Slice 1 forks at program start.
    let mut slice =
        SliceRuntime::spawn(1, &master, &Count::default(), &bubble, &cfg, 0, None).expect("spawn");
    assert_eq!(slice.state(), SliceState::Sleeping);

    // Master runs 2 instructions (la) + 5 full iterations (6 insts each),
    // parking exactly at the loop head with memory counter == 5.
    master.run_until_syscall(1 + 5 * 6).expect("advance master");
    let master_insts_at_boundary = master.inst_count();
    let sig = Signature::capture(&mut master);

    slice.wake(Boundary::Signature(Arc::new(sig)), vec![], 0);
    slice.advance(u64::MAX / 8, 0).expect("advance");
    assert_eq!(slice.state(), SliceState::Done);
    assert_eq!(slice.end_reason(), Some(SliceEnd::SignatureDetected));

    // The false positive: the slice matched on its FIRST arrival at the
    // loop head (after 1 instruction) instead of the master's true
    // boundary (31 instructions in).
    let counted = slice.tool().inner.count;
    assert!(
        counted < master_insts_at_boundary,
        "expected premature detection: slice counted {counted}, true span {master_insts_at_boundary}"
    );
    assert_eq!(
        counted, 1,
        "detection fires at the very first loop-head arrival"
    );
}

#[test]
fn quick_match_rejected_by_full_comparison_runs_to_true_boundary() {
    // The two-stage defence (§4.4): pick quick-check registers the loop
    // never writes, so the inlined quick check matches on *every*
    // arrival at the boundary pc — but the loop counter lives in r3, so
    // the full register comparison rejects each premature match and the
    // slice keeps running to the master's true boundary.
    let mut b = ProgramBuilder::new();
    b.label("main");
    b.li(Reg::R3, 10);
    b.label("head");
    b.subi(Reg::R3, Reg::R3, 1);
    b.bne(Reg::R3, Reg::R0, "head");
    b.exit(0);
    let program = b.build().expect("build");

    let mut master = Process::load(1, &program).expect("load");
    let bubble = Bubble::reserve(&mut master.mem).expect("bubble");
    let cfg = SuperPinConfig::paper_default();
    let mut slice =
        SliceRuntime::spawn(1, &master, &Count::default(), &bubble, &cfg, 0, None).expect("spawn");

    // Master stops at the loop head with r3 == 5; r1/sp are loop-invariant.
    master.run_until_syscall(1 + 5 * 2).expect("advance master");
    let truth = master.inst_count();
    let sig = Signature::capture_with_quick_regs(&master, [Reg::R1, Reg::SP]);

    slice.wake(Boundary::Signature(Arc::new(sig)), vec![], 0);
    slice.advance(u64::MAX / 8, 0).expect("advance");
    assert_eq!(slice.end_reason(), Some(SliceEnd::SignatureDetected));

    let stats = slice.tool().sig_stats;
    assert_eq!(stats.detections, 1, "exactly one true detection");
    assert!(
        stats.full_checks > stats.detections,
        "quick check must have false-positively escalated: \
         {} full checks for {} detection(s)",
        stats.full_checks,
        stats.detections
    );
    assert_eq!(
        slice.tool().inner.count,
        truth,
        "every premature quick match was rejected by the full comparison"
    );
}

#[test]
fn register_loop_counter_does_not_false_positive() {
    // Control: the same loop with the counter in a register is detected
    // at exactly the right boundary.
    let mut b = ProgramBuilder::new();
    b.label("main");
    b.li(Reg::R3, 10);
    b.label("head");
    b.subi(Reg::R3, Reg::R3, 1);
    b.bne(Reg::R3, Reg::R0, "head");
    b.exit(0);
    let program = b.build().expect("build");

    let mut master = Process::load(1, &program).expect("load");
    let bubble = Bubble::reserve(&mut master.mem).expect("bubble");
    let cfg = SuperPinConfig::paper_default();
    let mut slice =
        SliceRuntime::spawn(1, &master, &Count::default(), &bubble, &cfg, 0, None).expect("spawn");

    master.run_until_syscall(1 + 5 * 2).expect("advance master");
    let truth = master.inst_count();
    let sig = Signature::capture(&mut master);
    slice.wake(Boundary::Signature(Arc::new(sig)), vec![], 0);
    slice.advance(u64::MAX / 8, 0).expect("advance");
    assert_eq!(slice.end_reason(), Some(SliceEnd::SignatureDetected));
    assert_eq!(slice.tool().inner.count, truth, "no false positive");
}
