//! Decoded-page invalidation under self-modifying code.
//!
//! The fast interpreter core memoizes decoded instructions per code
//! page ([`superpin_vm::decode::DecodeCache`]) and the engine keeps
//! lowered, linked traces in its code cache — both caches must observe a
//! guest that rewrites its own code page on the very next execution of
//! the patched address.
//! These property tests generate random self-patching countdown loops
//! (random bound, patch iteration, and patched increment), then require
//!
//! * the decode-cache interpreter to finish in the exact machine state
//!   of a never-cached fetch-decode-execute loop, and
//! * the full runner's report to be bit-identical across threads {1,4}
//!   and plan {off,on}, with the analytically expected result.
//!
//! If a stale decode were ever served the patched increment would not
//! take effect, the final counter register would differ, and every
//! assertion below names the diverging quantity.

use proptest::prelude::*;
use superpin::{SharedMem, SuperPinConfig, SuperPinReport};
use superpin_bench::runs::run_superpin;
use superpin_isa::asm::assemble;
use superpin_isa::{encode, AluOp, Inst, Program, Reg};
use superpin_replay::recipe::time_scale_for;
use superpin_tools::ICount1;
use superpin_vm::cpu::{self, CpuState, ExecOutcome};
use superpin_vm::decode::{DecodeCache, RunStop};
use superpin_vm::process::Process;
use superpin_workloads::Scale;

/// A countdown loop that patches its own increment instruction:
/// `addi r2, r2, 1` at `patch:` is overwritten with `addi r2, r2, step`
/// by the guest itself after `patch_at` iterations. The counter lives
/// in `r2` because the `exit` pseudo-instruction clobbers `r1` with the
/// exit code.
fn smc_program(bound: u64, patch_at: u64, step: u64) -> Program {
    let mut patched = Vec::new();
    encode(
        Inst::AluImm {
            op: AluOp::Add,
            rd: Reg::R2,
            rs1: Reg::R2,
            imm: step as i32,
        },
        &mut patched,
    );
    assert_eq!(patched.len(), 8, "patch must replace exactly one word");
    let patch_word = u64::from_le_bytes(patched[..8].try_into().expect("8 bytes"));
    let src = format!(
        ".entry main\n\
         main:\n\
         \x20 li   r6, patch\n\
         \x20 li   r3, 0x{patch_word:x}\n\
         \x20 li   r2, 0\n\
         \x20 li   r4, {bound}\n\
         \x20 li   r7, {patch_at}\n\
         loop:\n\
         patch:\n\
         \x20 addi r2, r2, 1\n\
         \x20 subi r7, r7, 1\n\
         \x20 bne  r7, r0, skip\n\
         \x20 std  r3, 0(r6)\n\
         skip:\n\
         \x20 blt  r2, r4, loop\n\
         \x20 exit 0\n"
    );
    assemble(&src).expect("assemble smc program")
}

/// The final value of `r2` and the retired-instruction count, computed
/// by a host-side re-statement of the guest loop: increments of 1 until
/// the patch lands, `step` afterwards.
fn expected(bound: u64, patch_at: u64, step: u64) -> (u64, u64) {
    let mut r2 = 0u64;
    let mut r7 = patch_at as i64;
    let mut increment = 1u64;
    // li r6/r3/r2/r4/r7 = 5 instructions before the loop.
    let mut retired = 5u64;
    loop {
        r2 += increment;
        r7 -= 1;
        // addi + subi + bne (+ std when the bne falls through) + blt.
        retired += 4;
        if r7 == 0 {
            retired += 1;
            increment = step;
        }
        if r2 >= bound {
            break;
        }
    }
    // The `exit 0` pseudo retires two `li`s before parking on `syscall`.
    (r2, retired + 2)
}

/// Runs the program to its `exit` syscall through `cpu::step` — a
/// fetch-decode-execute loop that never caches a decode — and returns
/// the final CPU state and retired count.
fn run_never_cached(program: &Program) -> (CpuState, u64) {
    let process = Process::load(1, program).expect("load");
    let mut cpu_state = process.cpu;
    let mut mem = process.mem;
    let mut retired = 0u64;
    // `Syscall` and `Halt` end the run.
    while let ExecOutcome::Next | ExecOutcome::Jumped =
        cpu::step(&mut cpu_state, &mut mem).expect("step")
    {
        retired += 1;
    }
    (cpu_state, retired)
}

/// Same run through the per-page decode cache.
fn run_decode_cached(program: &Program) -> (CpuState, u64) {
    let process = Process::load(1, program).expect("load");
    let mut cpu_state = process.cpu;
    let mut mem = process.mem;
    let mut cache = DecodeCache::new();
    let mut retired = 0u64;
    let stop = cache
        .run(&mut cpu_state, &mut mem, u64::MAX, &mut retired)
        .expect("cached run");
    assert_eq!(stop, RunStop::Syscall, "program must park on its exit");
    (cpu_state, retired)
}

fn runner_config(threads: usize) -> SuperPinConfig {
    SuperPinConfig::scaled(1000, time_scale_for(Scale::Tiny)).with_threads(threads)
}

fn run_full(program: &Program, threads: usize, plan: bool) -> (SuperPinReport, u64) {
    let mut cfg = runner_config(threads);
    if plan {
        let analysis = superpin::ProgramAnalysis::compute(program).expect("whole-program analysis");
        cfg = cfg.with_plan(std::sync::Arc::new(
            analysis.plan(superpin::PlanKnobs::default()),
        ));
    }
    let shared = SharedMem::new();
    let tool = ICount1::new(&shared);
    let report = run_superpin(program, tool.clone(), &shared, cfg, "smc");
    (report, tool.total(&shared))
}

proptest::proptest! {
    #![proptest_config(proptest::ProptestConfig::with_cases(24))]

    /// VM level: the decode cache serves the patched bytes on the very
    /// next execution — machine state identical to never caching.
    #[test]
    fn decode_cache_matches_never_cached_interpreter(
        bound in 16u64..200,
        patch_at in 1u64..8,
        step in 2u64..6,
    ) {
        let program = smc_program(bound, patch_at, step);
        let (plain_cpu, plain_retired) = run_never_cached(&program);
        let (cached_cpu, cached_retired) = run_decode_cached(&program);
        prop_assert_eq!(
            cached_cpu.regs.snapshot(),
            plain_cpu.regs.snapshot(),
            "registers diverged: stale decode served after SMC"
        );
        prop_assert_eq!(cached_cpu.pc, plain_cpu.pc, "final pc diverged");
        prop_assert_eq!(cached_retired, plain_retired, "retired count diverged");
        let (want_r2, want_retired) = expected(bound, patch_at, step);
        prop_assert_eq!(plain_cpu.regs.get(Reg::R2), want_r2, "patched increment lost");
        prop_assert_eq!(plain_retired, want_retired, "retired count off");
    }

    /// Report level: threads {1,4} x plan {off,on} are bit-identical to
    /// each other and retire exactly the never-cached instruction count.
    #[test]
    fn smc_reports_are_bit_identical_across_threads_and_plan(
        bound in 64u64..256,
        patch_at in 1u64..8,
        step in 2u64..6,
    ) {
        let program = smc_program(bound, patch_at, step);
        let (_, never_cached_retired) = run_never_cached(&program);
        let (base_report, base_count) = run_full(&program, 1, false);
        let base_insts: u64 = base_report.slices.iter().map(|s| s.insts).sum();
        // +1: the runner services the `exit` syscall and retires the
        // syscall instruction; the never-cached loop parks before it.
        prop_assert_eq!(
            base_insts,
            never_cached_retired + 1,
            "runner retired a different stream than the never-cached interpreter"
        );
        prop_assert_eq!(base_count, never_cached_retired + 1, "icount1 total diverged");
        for (threads, plan) in [(1, true), (4, false), (4, true)] {
            let (report, count) = run_full(&program, threads, plan);
            prop_assert_eq!(
                &report,
                &base_report,
                "report differs at threads={} plan={}",
                threads,
                plan
            );
            prop_assert_eq!(
                count, base_count,
                "tool count differs at threads={} plan={}",
                threads, plan
            );
        }
    }
}
