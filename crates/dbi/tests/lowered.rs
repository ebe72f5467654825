//! The lowered-trace executor and linked dispatch against a step-by-step
//! reference.
//!
//! A probe tool hangs calls of every shape on every instruction of a
//! random guest: plain and if/then, before and after, static and dynamic
//! argument lists covering every [`IArg`] kind, a stop from the middle of
//! a before-list, a stop from a `then`, a stop from an after-call, and
//! inlined counts ([`Inserter::insert_count`]) to two counters between
//! them — some slots carry nothing but counts. Every callback, syscall
//! and `fini` records both counters as it finds them, so a count that has
//! not reached the tool by the time anything else can look shows up at
//! that very observation. The reference re-states what each callback
//! must observe from [`cpu::step`] and the `IArg` documentation alone —
//! it never touches the code cache, the lowering or the executor — and
//! predicts every counter in closed form from the trace shapes
//! [`discover_trace`] reports. A twin probe whose counts are plain
//! closures must match the inlined one in every observation and every
//! counter of [`EngineStats`].
//!
//! The second half drives the same probe through everything that drops
//! links — SMC flush, capacity flush, eviction between `run` calls, a
//! recompile under a new split point, a checkpoint clone outliving its
//! original's cache — where trace shapes change but what the callbacks
//! observe may not. The last cases end a trace mid-way on each remaining
//! exit — a taken branch, a syscall, `halt` and a guest fault — with
//! counts still pending.

use proptest::prelude::*;
use std::collections::HashSet;
use superpin_dbi::{
    cycles_to_ns, discover_trace, CacheStats, CostModel, Engine, EngineStats, EngineStop, IArg,
    IPoint, Inserter, InstRef, Pintool, Trace,
};
use superpin_isa::asm::assemble;
use superpin_isa::{Inst, Program, ProgramBuilder, Reg};
use superpin_vm::cpu::{self, CpuState, ExecOutcome};
use superpin_vm::kernel::SyscallRecord;
use superpin_vm::mem::AddressSpace;
use superpin_vm::process::Process;
use superpin_vm::VmError;

/// When the probe's three stoppers fire: every `n`th execution of the
/// call, 0 for never.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Knobs {
    /// The second plain before-call (two more calls follow it).
    stop_mid_list: u64,
    /// The `then` of the before if/then.
    stop_in_then: u64,
    /// The last plain after-call.
    stop_after: u64,
    /// The before predicate holds when its first argument (`r8`) is a
    /// multiple of this.
    pred_mod: u64,
}

/// One callback invocation as the tool saw it.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Seen {
    tag: u8,
    pc: u64,
    args: Vec<u64>,
    /// Both counters at the time of the call.
    counters: [u64; 2],
}

/// The probe's state: all of its behaviour lives in these methods, which
/// the engine's closures and the reference both call.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct Probe {
    knobs: Knobs,
    /// Insert counts as plain closures instead of inlined counts (the
    /// twin).
    plain_counts: bool,
    log: Vec<Seen>,
    runs: [u64; 10],
    counters: [u64; 2],
}

fn counter_a(probe: &mut Probe) -> &mut u64 {
    &mut probe.counters[0]
}

fn counter_b(probe: &mut Probe) -> &mut u64 {
    &mut probe.counters[1]
}

/// The probe's two counters, by [`Spec::Count`] index.
const COUNTERS: [fn(&mut Probe) -> &mut u64; 2] = [counter_a, counter_b];

fn every(n: u64, count: u64) -> bool {
    n != 0 && count.is_multiple_of(n)
}

impl Probe {
    fn see(&mut self, tag: u8, pc: u64, args: &[u64]) -> u64 {
        self.log.push(Seen {
            tag,
            pc,
            args: args.to_vec(),
            counters: self.counters,
        });
        self.runs[tag as usize] += 1;
        self.runs[tag as usize]
    }

    /// A plain call; returns whether it asks for a stop.
    fn plain(&mut self, tag: u8, pc: u64, args: &[u64]) -> bool {
        let count = self.see(tag, pc, args);
        match tag {
            TAG_MID => every(self.knobs.stop_mid_list, count),
            TAG_AFTER_LAST => every(self.knobs.stop_after, count),
            _ => false,
        }
    }

    fn pred(&mut self, tag: u8, pc: u64, args: &[u64]) -> bool {
        self.see(tag, pc, args);
        args[0].is_multiple_of(self.knobs.pred_mod)
    }

    /// A then-call; returns `(extra cycles, stop)`.
    fn then(&mut self, tag: u8, pc: u64, args: &[u64]) -> (u64, bool) {
        let count = self.see(tag, pc, args);
        let stop = tag == TAG_THEN && every(self.knobs.stop_in_then, count);
        (args.len() as u64 + 3, stop)
    }
}

const TAG_FIRST: u8 = 0;
const TAG_PRED: u8 = 1;
const TAG_THEN: u8 = 2;
const TAG_MID: u8 = 3;
const TAG_LAST: u8 = 4;
const TAG_AFTER_PRED: u8 = 5;
const TAG_AFTER_THEN: u8 = 6;
const TAG_AFTER_LAST: u8 = 7;
const TAG_SYSCALL: u8 = 8;
const TAG_FINI: u8 = 9;

/// One call the probe inserts, as data both sides read.
enum Spec {
    Plain(u8, Vec<IArg>),
    IfThen(u8, Vec<IArg>, u8, Vec<IArg>),
    /// Add `.1` to counter `.0`.
    Count(usize, u64),
}

/// The probe's instrumentation of one instruction: `(before, after)`.
fn specs(iref: &InstRef) -> (Vec<Spec>, Vec<Spec>) {
    let every_kind = || {
        vec![
            IArg::InstPtr,
            IArg::UInt(iref.addr ^ 0x5a5a),
            IArg::MemAddr,
            IArg::MemSize,
            IArg::IsMemWrite,
            IArg::BranchTaken,
            IArg::RegValue(Reg::R8),
            IArg::RegValue(Reg::SP),
            IArg::StackWord(0),
            IArg::StackWord(3),
            IArg::FallthroughAddr,
        ]
    };
    let word = iref.addr >> 3;
    // Every third word carries counts alone before it, so straight runs
    // of slots only ever add to the pending sum.
    let before = if word % 3 == 2 {
        vec![Spec::Count(0, 1), Spec::Count(0, 2), Spec::Count(1, 4)]
    } else {
        vec![
            Spec::Count(0, 1),
            Spec::Plain(TAG_FIRST, every_kind()),
            Spec::Count(1, 3),
            Spec::IfThen(
                TAG_PRED,
                vec![IArg::RegValue(Reg::R8), IArg::InstPtr],
                TAG_THEN,
                vec![IArg::RegValue(Reg::R11), IArg::StackWord(1), IArg::MemAddr],
            ),
            // The stop in `then` comes after this count, the one from
            // `MID` before the next.
            Spec::Count(0, 2),
            Spec::Plain(TAG_MID, vec![IArg::BranchTaken]),
            Spec::Count(1, 5),
            Spec::Count(1, 1),
            Spec::Plain(TAG_LAST, vec![]),
            Spec::Count(0, 7),
        ]
    };
    // Full after-calls on every other word, counts alone on the rest.
    let after = if word.is_multiple_of(2) {
        vec![
            Spec::Count(1, 11),
            Spec::IfThen(
                TAG_AFTER_PRED,
                vec![IArg::BranchTaken, IArg::MemAddr],
                TAG_AFTER_THEN,
                every_kind(),
            ),
            Spec::Count(0, 13),
            Spec::Plain(TAG_AFTER_LAST, vec![IArg::InstPtr, IArg::MemSize]),
            Spec::Count(1, 17),
        ]
    } else {
        vec![Spec::Count(0, 19)]
    };
    (before, after)
}

impl Pintool for Probe {
    fn instrument_trace(&mut self, trace: &Trace, inserter: &mut Inserter<Self>) {
        for iref in trace.insts() {
            let (before, after) = specs(iref);
            for (point, list) in [(IPoint::Before, before), (IPoint::After, after)] {
                for spec in list {
                    match spec {
                        Spec::Count(which, n) if self.plain_counts => inserter.insert_call(
                            iref.addr,
                            point,
                            move |probe: &mut Probe, _, _| probe.counters[which] += n,
                            vec![],
                        ),
                        Spec::Count(which, n) => {
                            inserter.insert_count(iref.addr, point, n, COUNTERS[which])
                        }
                        Spec::Plain(tag, args) => inserter.insert_call(
                            iref.addr,
                            point,
                            move |probe: &mut Probe, ctx, ctl| {
                                if probe.plain(tag, ctx.pc, ctx.args) {
                                    ctl.request_stop();
                                }
                            },
                            args,
                        ),
                        Spec::IfThen(pred_tag, pred_args, then_tag, then_args) => inserter
                            .insert_if_then_call(
                                iref.addr,
                                point,
                                move |probe: &mut Probe, ctx| {
                                    probe.pred(pred_tag, ctx.pc, ctx.args)
                                },
                                pred_args,
                                move |probe: &mut Probe, ctx, ctl| {
                                    let (extra, stop) = probe.then(then_tag, ctx.pc, ctx.args);
                                    ctl.charge_cycles(extra);
                                    if stop {
                                        ctl.request_stop();
                                    }
                                },
                                then_args,
                            ),
                    }
                }
            }
        }
    }

    fn on_syscall(&mut self, _record: &SyscallRecord) {
        self.see(TAG_SYSCALL, 0, &[]);
    }

    fn fini(&mut self) {
        self.see(TAG_FINI, 0, &[]);
    }
}

/// What an [`IArg`] evaluates to, restated from its documentation:
/// `before` is the CPU state before the instruction, `now` the state at
/// the time of the call.
fn arg_value(
    arg: IArg,
    iref: &InstRef,
    before: &CpuState,
    now: &CpuState,
    mem: &AddressSpace,
    taken: bool,
) -> u64 {
    let operand = match iref.inst {
        Inst::Ld {
            base,
            offset,
            width,
            ..
        }
        | Inst::St {
            base,
            offset,
            width,
            ..
        } => Some((
            before.regs.get(base).wrapping_add(offset as i64 as u64),
            width.bytes() as u64,
        )),
        _ => None,
    };
    match arg {
        IArg::InstPtr => iref.addr,
        IArg::UInt(value) => value,
        IArg::MemAddr => operand.map_or(0, |(ea, _)| ea),
        IArg::MemSize => operand.map_or(0, |(_, size)| size),
        IArg::IsMemWrite => u64::from(matches!(iref.inst, Inst::St { .. })),
        IArg::BranchTaken => u64::from(taken),
        IArg::RegValue(reg) => now.regs.get(reg),
        IArg::StackWord(i) => mem
            .read_u64(now.regs.get(Reg::SP).wrapping_add(8 * u64::from(i)))
            .unwrap_or(0),
        IArg::FallthroughAddr => iref.addr + iref.size,
    }
}

/// How a run ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum End {
    Exit(i64),
    Halt,
    /// A guest memory fault.
    Fault,
}

impl End {
    fn of(result: Result<(i64, u64), VmError>) -> End {
        match result {
            Ok((code, _)) => End::Exit(code),
            Err(VmError::UnexpectedHalt { .. }) => End::Halt,
            Err(VmError::Mem(_)) => End::Fault,
            Err(other) => panic!("unexpected engine error {other}"),
        }
    }
}

/// Everything the reference predicts.
#[derive(Debug)]
struct Expected {
    probe: Probe,
    stats: EngineStats,
    cache: CacheStats,
    end: End,
    cpu: CpuState,
    mem_digest: u64,
    output: Vec<u8>,
}

/// Runs one call list on the reference side; `true` if a call stopped it.
#[allow(clippy::too_many_arguments)]
fn reference_calls(
    list: &[Spec],
    iref: &InstRef,
    before: &CpuState,
    process: &Process,
    taken: bool,
    cost: &CostModel,
    probe: &mut Probe,
    stats: &mut EngineStats,
) -> bool {
    let values = |args: &[IArg]| -> Vec<u64> {
        args.iter()
            .map(|&arg| arg_value(arg, iref, before, &process.cpu, &process.mem, taken))
            .collect()
    };
    let per_arg = |args: &[IArg]| args.len() as u64 * cost.analysis_arg;
    for spec in list {
        let stop = match spec {
            Spec::Count(which, n) => {
                stats.analysis_calls += 1;
                stats.cycles.analysis += cost.analysis_call;
                probe.counters[*which] += n;
                false
            }
            Spec::Plain(tag, args) => {
                stats.analysis_calls += 1;
                stats.cycles.analysis += cost.analysis_call + per_arg(args);
                probe.plain(*tag, iref.addr, &values(args))
            }
            Spec::IfThen(pred_tag, pred_args, then_tag, then_args) => {
                stats.if_checks += 1;
                stats.cycles.analysis += cost.inline_if_check + per_arg(pred_args);
                if probe.pred(*pred_tag, iref.addr, &values(pred_args)) {
                    stats.then_calls += 1;
                    let (extra, stop) = probe.then(*then_tag, iref.addr, &values(then_args));
                    stats.cycles.analysis += cost.analysis_call + per_arg(then_args) + extra;
                    stop
                } else {
                    false
                }
            }
        };
        if stop {
            return true;
        }
    }
    false
}

/// `Engine::run_to_exit` restated over [`cpu::step`]: trace shapes come
/// from [`discover_trace`], everything else from the documentation of
/// [`CostModel`], [`EngineStats`] and [`CacheStats`]. No capacity or SMC
/// flush is modelled, so `cache`, `cycles.jit` and `cycles.dispatch` are
/// only meaningful for guests that cause none.
fn reference(program: &Program, knobs: Knobs, cost: &CostModel) -> Expected {
    let mut process = Process::load(1, program).expect("load");
    let mut probe = Probe {
        knobs,
        ..Probe::default()
    };
    let mut stats = EngineStats::default();
    let mut cache = CacheStats::default();
    let mut compiled = HashSet::new();
    // Every `run` call enters through the dispatcher, and `run_to_exit`
    // calls `run` again after each stop.
    let mut pending_dispatch = true;
    let end = 'run: loop {
        let trace = discover_trace(&process.mem, process.cpu.pc).expect("trace");
        cache.lookups += 1;
        if compiled.insert(trace.entry()) {
            cache.traces_compiled += 1;
            cache.insts_compiled += trace.num_insts() as u64;
            stats.cycles.jit += trace.num_insts() as u64 * cost.compile_per_inst;
            pending_dispatch = true;
        } else {
            cache.hits += 1;
        }
        if pending_dispatch {
            stats.cycles.dispatch += cost.dispatch_per_trace;
            pending_dispatch = false;
        }
        stats.traces_executed += 1;
        let insts: Vec<InstRef> = trace.insts().copied().collect();
        for (index, iref) in insts.iter().enumerate() {
            assert_eq!(iref.addr, process.cpu.pc, "reference left its trace");
            let (before_list, after_list) = specs(iref);
            let before = process.cpu;
            let stopped = reference_calls(
                &before_list,
                iref,
                &before,
                &process,
                false,
                cost,
                &mut probe,
                &mut stats,
            );
            if stopped {
                pending_dispatch = true;
                continue 'run;
            }
            let Ok(outcome) = cpu::step(&mut process.cpu, &mut process.mem) else {
                break 'run End::Fault;
            };
            let taken = match outcome {
                ExecOutcome::Syscall => {
                    let now_ns = cycles_to_ns(stats.cycles.total());
                    let record = process.do_syscall(now_ns).expect("syscall");
                    stats.cycles.syscall += cost.syscall;
                    probe.see(TAG_SYSCALL, 0, &[]);
                    if let Some(code) = record.exited {
                        probe.see(TAG_FINI, 0, &[]);
                        break 'run End::Exit(code);
                    }
                    pending_dispatch = true;
                    continue 'run;
                }
                ExecOutcome::Halt => break 'run End::Halt,
                ExecOutcome::Next => false,
                ExecOutcome::Jumped => true,
            };
            stats.cycles.app += cost.cached_cpi;
            stats.insts_executed += 1;
            let stopped = reference_calls(
                &after_list,
                iref,
                &before,
                &process,
                taken,
                cost,
                &mut probe,
                &mut stats,
            );
            if stopped {
                pending_dispatch = true;
                continue 'run;
            }
            if taken {
                pending_dispatch |= matches!(iref.inst, Inst::Jalr { .. });
                if insts.get(index + 1).map(|next| next.addr) != Some(process.cpu.pc) {
                    continue 'run;
                }
            }
        }
    };
    Expected {
        probe,
        stats,
        cache,
        end,
        cpu: process.cpu,
        mem_digest: process.mem.content_digest(),
        output: process.output().to_vec(),
    }
}

/// What holds whatever the cache did: the callbacks, the counters, the
/// guest, and the statistics that do not depend on trace shapes.
fn assert_observations(engine: &Engine<Probe>, end: End, want: &Expected) {
    let tool = engine.tool();
    assert_eq!(tool.log.len(), want.probe.log.len(), "callback count");
    for (i, (got, want)) in tool.log.iter().zip(&want.probe.log).enumerate() {
        assert_eq!(got, want, "callback #{i}");
    }
    assert_eq!(tool.runs, want.probe.runs);
    assert_eq!(tool.counters, want.probe.counters, "final counters");
    let stats = engine.stats();
    assert_eq!(stats.analysis_calls, want.stats.analysis_calls);
    assert_eq!(stats.if_checks, want.stats.if_checks);
    assert_eq!(stats.then_calls, want.stats.then_calls);
    assert_eq!(stats.insts_executed, want.stats.insts_executed);
    assert_eq!(stats.cycles.app, want.stats.cycles.app);
    assert_eq!(stats.cycles.analysis, want.stats.cycles.analysis);
    assert_eq!(stats.cycles.syscall, want.stats.cycles.syscall);
    assert_eq!(end, want.end);
    assert_eq!(engine.process().cpu, want.cpu);
    assert_eq!(engine.process().mem.content_digest(), want.mem_digest);
    assert_eq!(engine.process().output(), want.output);
}

/// Runs `program` under the probe and under its twin with plain-closure
/// counts; everything either tool or engine reports must agree.
fn run_with_twin(program: &Program, knobs: Knobs) -> (Engine<Probe>, End) {
    let mut engine = probe_engine(program, knobs, 1 << 16, false);
    let result = engine.run_to_exit();
    if let Ok((_, total)) = result {
        assert_eq!(engine.stats().cycles.total(), total);
    }
    let end = End::of(result);
    let mut twin = probe_engine(program, knobs, 1 << 16, true);
    assert_eq!(End::of(twin.run_to_exit()), end);
    let (tool, plain) = (engine.tool(), twin.tool());
    assert_eq!(tool.log, plain.log);
    assert_eq!(tool.runs, plain.runs);
    assert_eq!(tool.counters, plain.counters);
    assert_eq!(engine.stats(), twin.stats());
    assert_eq!(engine.cache_stats(), twin.cache_stats());
    (engine, end)
}

/// Nested countdown loops with ALU work, loads, stores of three widths,
/// a leaf function reached by `jal`/`jalr` and optional `getpid` calls.
fn arb_program() -> impl Strategy<Value = Program> {
    (
        2u32..10,
        1u32..8,
        0u32..4,
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        0u64..1_000,
    )
        .prop_map(|(outer, inner, alu, memory, syscalls, calls, seed)| {
            let mut b = ProgramBuilder::new();
            b.bss("buf", 4096);
            b.label("main");
            b.li(Reg::R10, outer as i64);
            b.la(Reg::R12, "buf");
            b.li(Reg::R8, seed as i64);
            b.label("outer");
            if syscalls {
                b.li(Reg::R0, 9); // getpid
                b.syscall();
                b.xor(Reg::R0, Reg::R0, Reg::R0);
            }
            b.li(Reg::R11, inner as i64);
            b.label("inner");
            for k in 0..alu {
                b.addi(Reg::R8, Reg::R8, k as i32 + 1);
                b.xor(Reg::R8, Reg::R8, Reg::R11);
            }
            if memory {
                b.andi(Reg::R6, Reg::R8, 511);
                b.shli(Reg::R6, Reg::R6, 3);
                b.add(Reg::R6, Reg::R6, Reg::R12);
                b.st(Reg::R8, Reg::R6, 0);
                b.st_w(superpin_isa::MemWidth::H, Reg::R11, Reg::R6, 2);
                b.ld_w(superpin_isa::MemWidth::W, Reg::R7, Reg::R6, 4);
                b.add(Reg::R8, Reg::R8, Reg::R7);
                // Something for StackWord to see.
                b.st(Reg::R8, Reg::SP, 8);
            }
            if calls {
                b.call("leaf");
            }
            b.subi(Reg::R11, Reg::R11, 1);
            b.bne(Reg::R11, Reg::R0, "inner");
            b.subi(Reg::R10, Reg::R10, 1);
            b.bne(Reg::R10, Reg::R0, "outer");
            b.exit(0);
            b.label("leaf");
            b.addi(Reg::R8, Reg::R8, 7);
            b.ret();
            b.build().expect("generated program is well-formed")
        })
}

fn arb_knobs() -> impl Strategy<Value = Knobs> {
    (0u64..40, 0u64..12, 0u64..40, 1u64..5).prop_map(|(mid, then, after, pred_mod)| Knobs {
        // A stopper that fired on every run would stop its own re-run.
        stop_mid_list: if mid == 1 { 0 } else { mid },
        stop_in_then: if then == 1 { 0 } else { then },
        stop_after: after,
        pred_mod,
    })
}

fn probe_engine(
    program: &Program,
    knobs: Knobs,
    capacity: usize,
    plain_counts: bool,
) -> Engine<Probe> {
    let probe = Probe {
        knobs,
        plain_counts,
        ..Probe::default()
    };
    let process = Process::load(1, program).expect("load");
    Engine::with_config(process, probe, CostModel::default(), capacity)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every value every callback observes, every counter and the whole
    /// cycle breakdown equal the reference's, and the plain-closure
    /// twin's.
    #[test]
    fn prop_lowered_executor_matches_step_reference(
        program in arb_program(),
        knobs in arb_knobs(),
    ) {
        let cost = CostModel::default();
        let want = reference(&program, knobs, &cost);
        let (engine, end) = run_with_twin(&program, knobs);
        assert_observations(&engine, end, &want);

        let stats = engine.stats();
        prop_assert_eq!(stats.cycles, want.stats.cycles);
        prop_assert_eq!(stats.traces_executed, want.stats.traces_executed);
        let cache = engine.cache_stats();
        prop_assert_eq!(cache, want.cache);
        // One lookup per trace entry, a hit unless it compiled.
        prop_assert_eq!(cache.lookups, stats.traces_executed);
        prop_assert_eq!(cache.hits, cache.lookups - cache.traces_compiled);
        prop_assert_eq!((cache.flushes, cache.smc_flushes), (0, 0));
    }

    /// Links die with the traces they point to: a cache too small for
    /// the loop, evictions and a moving split point between `run` calls,
    /// and a checkpoint clone that resumes after its original went on to
    /// refill the cache — none may change an observation.
    #[test]
    fn prop_link_invalidation_changes_no_observation(
        program in arb_program(),
        knobs in arb_knobs(),
        capacity in 8usize..40,
        budget in 200u64..4_000,
        evict_every in 1usize..6,
        clone_at in 0usize..12,
    ) {
        let cost = CostModel::default();
        let want = reference(&program, knobs, &cost);

        // Capacity flushes inside `compile`.
        let mut small = probe_engine(&program, knobs, capacity, false);
        let end = End::of(small.run_to_exit());
        assert_observations(&small, end, &want);

        // Eviction and re-splitting between `run` calls; a clone taken on
        // the way finishes after the original has.
        let mut engine = probe_engine(&program, knobs, 1 << 16, false);
        let mut checkpoint = None;
        let mut calls = 0usize;
        let exit_code = drive(&mut engine, budget, |engine| {
            calls += 1;
            if calls == clone_at + 1 {
                checkpoint = Some(engine.clone());
            }
            if calls.is_multiple_of(evict_every) {
                engine.evict_code_cache();
                // Traces through the split address re-form around it (a
                // word that heads no instruction never splits anything).
                let split = program.entry() + 8 * (calls as u64 % 23);
                engine.set_split_point(Some(split));
            }
        });
        assert_observations(&engine, End::Exit(exit_code), &want);
        if let Some(mut clone) = checkpoint {
            let exit_code = drive(&mut clone, budget, |_| {});
            assert_observations(&clone, End::Exit(exit_code), &want);
        }
    }
}

/// Runs `engine` to exit in `budget`-cycle `run` calls, servicing
/// syscalls, with `between` called before each one.
fn drive(
    engine: &mut Engine<Probe>,
    budget: u64,
    mut between: impl FnMut(&mut Engine<Probe>),
) -> i64 {
    loop {
        between(engine);
        match engine.run(budget).expect("run").stop {
            EngineStop::BudgetExhausted | EngineStop::ToolStop => {}
            EngineStop::SyscallEntry => {
                let now_ns = cycles_to_ns(engine.stats().cycles.total());
                let (record, _) = engine.service_syscall(now_ns).expect("syscall");
                if let Some(code) = record.exited {
                    return code;
                }
            }
            EngineStop::Exited(code) => return code,
            EngineStop::Halted => panic!("generated guests do not halt"),
        }
    }
}

/// A guest that rewrites an instruction of its own hot loop: the SMC
/// flush drops every trace and link mid-`run`, and the very next entry
/// must run the new bytes.
#[test]
fn smc_flush_drops_links_mid_run() {
    let mut patched = Vec::new();
    superpin_isa::encode(
        Inst::AluImm {
            op: superpin_isa::AluOp::Add,
            rd: Reg::R8,
            rs1: Reg::R8,
            imm: 5,
        },
        &mut patched,
    );
    let word = u64::from_le_bytes(patched[..8].try_into().expect("one word"));
    let src = format!(
        "main:\n li r6, patch\n li r3, 0x{word:x}\n li r8, 0\n li r4, 90\n li r7, 11\n\
         loop:\npatch:\n addi r8, r8, 1\n subi r7, r7, 1\n bne r7, r0, skip\n std r3, 0(r6)\n\
         skip:\n blt r8, r4, loop\n exit 0\n"
    );
    let program = assemble(&src).expect("assemble");
    let knobs = Knobs {
        stop_mid_list: 7,
        stop_in_then: 3,
        stop_after: 5,
        pred_mod: 2,
    };
    let want = reference(&program, knobs, &CostModel::default());
    let (engine, end) = run_with_twin(&program, knobs);
    assert_eq!(engine.cache_stats().smc_flushes, 1);
    assert_observations(&engine, end, &want);
    // 11 increments of 1, then of 5 up to the bound.
    assert_eq!(engine.process().cpu.regs.get(Reg::R8), 11 + 5 * 16);
}

/// Each way a trace can end early, with counts pending when it does: a
/// taken branch out of the middle of a trace, a syscall, `halt`, and a
/// load from an unmapped address. Whatever the exit, the counts reach
/// the tool before anything can observe it — the next trace's calls, the
/// syscall hook, or the caller holding the engine after an error.
#[test]
fn every_mid_trace_exit_hands_pending_counts_to_the_tool() {
    let guests = [
        (
            "main:\n li r1, 1\n bne r1, r0, out\n nop\nout:\n nop\n halt\n",
            End::Halt,
        ),
        (
            "main:\n nop\n li r0, 9\n syscall\n nop\n nop\n halt\n",
            End::Halt,
        ),
        ("main:\n nop\n nop\n nop\n halt\n nop\n", End::Halt),
        (
            "main:\n nop\n li r2, 16\n nop\n ld r3, 0(r2)\n exit 0\n",
            End::Fault,
        ),
    ];
    for (src, ends) in guests {
        let program = assemble(src).expect("assemble");
        for knobs in [
            Knobs {
                pred_mod: 2,
                ..Knobs::default()
            },
            Knobs {
                stop_mid_list: 2,
                stop_in_then: 2,
                stop_after: 3,
                pred_mod: 1,
            },
        ] {
            let want = reference(&program, knobs, &CostModel::default());
            let (engine, end) = run_with_twin(&program, knobs);
            assert_eq!(end, ends, "{src}");
            assert_observations(&engine, end, &want);
            assert!(want.probe.counters[0] > 0, "no count ran");
        }
    }
}
