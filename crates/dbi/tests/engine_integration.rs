//! Engine integration: cache pressure, split points, instrumentation
//! argument matrix, and instrumentation-time behaviour on assembled
//! programs.

use superpin_dbi::{
    discover_trace, CostModel, Engine, IArg, IPoint, Inserter, NullTool, Pintool, Trace,
};
use superpin_isa::asm::assemble;
use superpin_isa::{Inst, Reg};
use superpin_vm::process::Process;

fn process(src: &str) -> Process {
    Process::load(1, &assemble(src).expect("assemble")).expect("load")
}

#[derive(Clone, Default)]
struct ICount {
    count: u64,
    /// `(entry, fallthrough)` of every trace instrumented, in order.
    traces: Vec<(u64, u64)>,
}

impl Pintool for ICount {
    fn instrument_trace(&mut self, trace: &Trace, inserter: &mut Inserter<Self>) {
        self.traces.push((trace.entry(), trace.fallthrough()));
        for iref in trace.insts() {
            inserter.insert_call(iref.addr, IPoint::Before, |t, _, _| t.count += 1, vec![]);
        }
    }
}

#[test]
fn cache_flushes_do_not_affect_tool_results() {
    // A program whose footprint exceeds a tiny cache: two phases, each a
    // long distinct code run, looped so the phases evict each other.
    let body_a = "addi r2, r2, 1\n".repeat(60);
    let body_b = "addi r3, r3, 1\n".repeat(60);
    let src = format!(
        "main:\n li r1, 30\nloop:\n{body_a}{body_b} subi r1, r1, 1\n bne r1, r0, loop\n exit 0\n"
    );

    let mut native = process(&src);
    native.run(u64::MAX, 0).expect("native");
    let truth = native.inst_count();

    // Capacity far below the ~120-inst loop body forces flushes.
    let mut engine =
        Engine::with_config(process(&src), ICount::default(), CostModel::default(), 64);
    engine.run_to_exit().expect("run");
    assert!(
        engine.cache_stats().flushes > 0,
        "test must exercise flushing"
    );
    assert_eq!(engine.tool().count, truth);
    assert_eq!(engine.process().inst_count(), truth);
}

#[test]
fn split_point_partitions_counts_exactly() {
    let src = "main:\n li r1, 50\nloop:\n subi r1, r1, 1\n nop\n nop\n bne r1, r0, loop\n exit 0\n";
    let mut native = process(src);
    native.run(u64::MAX, 0).expect("native");
    let truth = native.inst_count();

    // Split in the middle of the loop body: the `nop` at loop+8.
    let program = assemble(src).expect("assemble");
    let head = program.entry() + 16;
    let split = head + 8;
    let run = |split| {
        let mut engine = Engine::new(process(src), ICount::default());
        engine.set_split_point(split);
        engine.run_to_exit().expect("run");
        engine.into_parts().1
    };
    let with_split = run(Some(split));
    assert_eq!(with_split.count, truth, "split must not change counts");

    // And the split point indeed heads its own trace: the trace from
    // `loop` ends at it, and the one after starts there. Without the
    // split, the trace from `loop` spans past it.
    let ends_at = |tool: &ICount, entry| {
        tool.traces
            .iter()
            .find(|&&(at, _)| at == entry)
            .map(|&(_, fallthrough)| fallthrough)
    };
    assert_eq!(ends_at(&with_split, head), Some(split));
    assert!(ends_at(&with_split, split).is_some_and(|end| end > split));
    let without = run(None);
    assert_eq!(without.count, truth);
    assert!(ends_at(&without, head).is_some_and(|end| end > split));
    assert_eq!(ends_at(&without, split), None);
}

#[test]
fn iarg_matrix_values() {
    #[derive(Clone, Default)]
    struct ArgProbe {
        rows: Vec<Vec<u64>>,
    }
    impl Pintool for ArgProbe {
        fn instrument_trace(&mut self, trace: &Trace, inserter: &mut Inserter<Self>) {
            for iref in trace.insts() {
                if iref.inst.is_mem_write() {
                    inserter.insert_call(
                        iref.addr,
                        IPoint::Before,
                        |tool, ctx, _| tool.rows.push(ctx.args.to_vec()),
                        vec![
                            IArg::InstPtr,
                            IArg::UInt(42),
                            IArg::MemAddr,
                            IArg::MemSize,
                            IArg::IsMemWrite,
                            IArg::RegValue(Reg::R3),
                            IArg::FallthroughAddr,
                            IArg::StackWord(0),
                        ],
                    );
                }
            }
        }
    }
    let src = r#"
        .data
        buf: .space 64
        .text
        main:
            la  r2, buf
            li  r3, 7
            st  r3, 0(sp)        ; seed stack word 0
            stw r3, 8(r2)
            exit 0
    "#;
    let mut engine = Engine::new(process(src), ArgProbe::default());
    engine.run_to_exit().expect("run");
    let rows = &engine.tool().rows;
    assert_eq!(rows.len(), 2, "two stores instrumented");
    // Second store: stw r3, 8(r2).
    let row = &rows[1];
    assert_eq!(row[1], 42, "UInt constant");
    assert_eq!(row[2], superpin_isa::DATA_BASE + 8, "MemAddr");
    assert_eq!(row[3], 4, "MemSize of stw");
    assert_eq!(row[4], 1, "IsMemWrite");
    assert_eq!(row[5], 7, "RegValue(r3)");
    assert_eq!(row[6], row[0] + 8, "FallthroughAddr = pc + 8");
    assert_eq!(row[7], 7, "StackWord(0) seeded by the first store");
}

#[test]
fn instrument_trace_called_once_per_compilation() {
    #[derive(Clone, Default)]
    struct CompileCounter {
        compiles: u64,
    }
    impl Pintool for CompileCounter {
        fn instrument_trace(&mut self, _trace: &Trace, _inserter: &mut Inserter<Self>) {
            self.compiles += 1;
        }
    }
    let src = "main:\n li r1, 500\nloop:\n subi r1, r1, 1\n bne r1, r0, loop\n exit 0\n";
    let mut engine = Engine::new(process(src), CompileCounter::default());
    engine.run_to_exit().expect("run");
    let compiles = engine.tool().compiles;
    assert_eq!(compiles, engine.cache_stats().traces_compiled);
    assert!(
        compiles < 10,
        "hot loop must not re-instrument per iteration: {compiles}"
    );
}

#[test]
fn indirect_jumps_pay_dispatch_but_direct_loops_do_not() {
    // Indirect-call loop vs direct-branch loop with equal iteration
    // counts: the indirect version must accumulate more dispatch cycles.
    let direct = "main:\n li r1, 300\nloop:\n subi r1, r1, 1\n bne r1, r0, loop\n exit 0\n";
    let indirect = r#"
        main:
            li r1, 300
            la r2, fn
        loop:
            jalr ra, 0(r2)
            subi r1, r1, 1
            bne r1, r0, loop
            exit 0
        fn:
            ret
    "#;
    let mut d = Engine::new(process(direct), NullTool);
    d.run_to_exit().expect("direct");
    let mut i = Engine::new(process(indirect), NullTool);
    i.run_to_exit().expect("indirect");
    assert!(
        i.stats().cycles.dispatch > 10 * d.stats().cycles.dispatch.max(1),
        "indirect {} vs direct {}",
        i.stats().cycles.dispatch,
        d.stats().cycles.dispatch
    );
}

#[test]
fn after_calls_skipped_when_before_stop_fires() {
    #[derive(Clone, Default)]
    struct StopProbe {
        before: u64,
        after: u64,
        stop_at: u64,
    }
    impl Pintool for StopProbe {
        fn instrument_trace(&mut self, trace: &Trace, inserter: &mut Inserter<Self>) {
            for iref in trace.insts() {
                inserter.insert_call(
                    iref.addr,
                    IPoint::Before,
                    |t, _, ctl| {
                        t.before += 1;
                        if t.before == t.stop_at {
                            ctl.request_stop();
                        }
                    },
                    vec![],
                );
                inserter.insert_call(iref.addr, IPoint::After, |t, _, _| t.after += 1, vec![]);
            }
        }
    }
    let src = "main:\n nop\n nop\n nop\n nop\n exit 0\n";
    let mut engine = Engine::new(
        process(src),
        StopProbe {
            stop_at: 3,
            ..StopProbe::default()
        },
    );
    let result = engine.run(u64::MAX / 8).expect("run");
    assert_eq!(result.stop, superpin_dbi::EngineStop::ToolStop);
    // Two instructions fully executed (before+after), the third's
    // before-call fired and stopped: its after-call must not run and the
    // instruction must not execute.
    assert_eq!(engine.tool().before, 3);
    assert_eq!(engine.tool().after, 2);
    assert_eq!(engine.process().inst_count(), 2);
}

#[test]
fn self_modifying_code_invalidates_translations() {
    // The guest overwrites `addi r2, r2, 1` with `addi r2, r2, 5`, then
    // re-executes it. The native interpreter fetches from memory every
    // time, so it is automatically correct; the engine must flush its
    // cached translation to agree.
    let patched = {
        let mut bytes = Vec::new();
        superpin_isa::encode(
            superpin_isa::Inst::AluImm {
                op: superpin_isa::AluOp::Add,
                rd: Reg::R2,
                rs1: Reg::R2,
                imm: 5,
            },
            &mut bytes,
        );
        u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes"))
    };
    let src = format!(
        r#"
        main:
            li r1, 2
        loop:
            call bump
            subi r1, r1, 1
            bne r1, r0, loop
            ; second round: patch `bump`'s addi, then run it twice more
            li r3, {patched}
            la r4, patch_site
            st r3, 0(r4)
            li r1, 2
        loop2:
            call bump
            subi r1, r1, 1
            bne r1, r0, loop2
            exit 0
        bump:
        patch_site:
            addi r2, r2, 1
            ret
        "#
    );

    // Ground truth from the native interpreter.
    let mut native = process(&src);
    native.run(u64::MAX, 0).expect("native");
    let truth = native.cpu.regs.get(Reg::R2);
    assert_eq!(truth, 1 + 1 + 5 + 5, "two old + two patched executions");

    let mut engine = Engine::new(process(&src), ICount::default());
    engine.run_to_exit().expect("run");
    assert_eq!(
        engine.process().cpu.regs.get(Reg::R2),
        truth,
        "engine must not execute stale translations"
    );
    assert!(
        engine.cache_stats().smc_flushes >= 1,
        "the code write must have forced an SMC flush"
    );
    assert_eq!(engine.tool().count, native.inst_count());
}

#[test]
fn trace_discovery_agrees_with_execution_paths() {
    // Every dynamically executed pc must appear in some discovered trace
    // starting from the addresses the engine dispatched.
    let src =
        "main:\n li r1, 3\nloop:\n subi r1, r1, 1\n beq r1, r0, out\n jmp loop\nout:\n exit 0\n";
    let mut engine = Engine::new(process(src), ICount::default());
    engine.run_to_exit().expect("run");
    // icount == dynamic count is the strongest available witness.
    assert_eq!(engine.tool().count, engine.process().inst_count());
    assert!(matches!(
        discover_trace(&engine.process().mem, assemble(src).expect("asm").entry())
            .expect("trace")
            .bbls()
            .last()
            .expect("bbl")
            .tail()
            .inst,
        Inst::Branch { .. } | Inst::Jmp { .. }
    ));
}
