//! Interpreter hot-path micro-benchmarks, isolating the two unit-level
//! wins of the fast-core work independent of the benchmark catalog:
//!
//! * **decode-once vs decode-per-step** — the per-page [`DecodeCache`]
//!   against a loop that re-decodes every instruction through
//!   [`cpu::fetch_at`] on every execution;
//! * **match vs dispatch-table** — the production [`cpu::exec_decoded`]
//!   (one inlined `match`) against [`exec_table`], a function-pointer
//!   table indexed by opcode that lives only here, both fed from the same
//!   warm decode cache so only the dispatch mechanism differs.
//!
//! All four variants execute the same ~20k-instruction countdown loop
//! and are cross-checked to retire the same instruction count.
//!
//! The table was the production dispatcher until it was measured on whole
//! guests. On this two-instruction loop the two tie (its one indirect
//! call is perfectly predicted); on the four `steady_t1` guests of
//! `superpin-perfbench` the match runs `vm.native_minst_per_s` 16 %
//! higher (table 87 / 95 / 96, match 102 / 110 / 112 Minst/s on seeds
//! 1–3, 2-vCPU reference host). So the match is production and the table
//! is kept here, as this bench's oracle.

use criterion::{criterion_group, criterion_main, Criterion};
use superpin_isa::{Inst, Opcode};
use superpin_vm::cpu::{self, CpuState, ExecOutcome};
use superpin_vm::decode::DecodeCache;
use superpin_vm::mem::AddressSpace;
use superpin_vm::process::Process;
use superpin_vm::VmError;

type ExecFn = fn(&mut CpuState, &mut AddressSpace, Inst, u64) -> Result<ExecOutcome, VmError>;

/// Builds one table handler: destructures its own instruction form and
/// runs the body with `cpu`, `mem` and `size` in scope.
macro_rules! handler {
    (|$cpu:ident, $mem:ident, $size:ident| $form:pat => $body:expr) => {
        |$cpu: &mut CpuState, $mem: &mut AddressSpace, inst: Inst, $size: u64| {
            let $form = inst else {
                unreachable!("dispatch table routed the wrong instruction form here")
            };
            $body
        }
    };
}

/// Direct-threaded dispatch: one monomorphic handler per [`Opcode`]
/// byte, same semantics as [`cpu::exec_decoded`] arm for arm.
#[allow(unused_variables)]
const DISPATCH: [ExecFn; Opcode::COUNT] = [
    handler!(|cpu, mem, size| Inst::Nop => {
        cpu.pc += size;
        Ok(ExecOutcome::Next)
    }),
    handler!(|cpu, mem, size| Inst::Alu { op, rd, rs1, rs2 } => {
        cpu.regs.set(rd, op.apply(cpu.regs.get(rs1), cpu.regs.get(rs2)));
        cpu.pc += size;
        Ok(ExecOutcome::Next)
    }),
    handler!(|cpu, mem, size| Inst::AluImm { op, rd, rs1, imm } => {
        cpu.regs.set(rd, op.apply(cpu.regs.get(rs1), imm as i64 as u64));
        cpu.pc += size;
        Ok(ExecOutcome::Next)
    }),
    handler!(|cpu, mem, size| Inst::Li { rd, imm } => {
        cpu.regs.set(rd, imm as u64);
        cpu.pc += size;
        Ok(ExecOutcome::Next)
    }),
    handler!(|cpu, mem, size| Inst::Mov { rd, rs } => {
        cpu.regs.set(rd, cpu.regs.get(rs));
        cpu.pc += size;
        Ok(ExecOutcome::Next)
    }),
    handler!(|cpu, mem, size| Inst::Ld { rd, base, offset, width } => {
        let addr = cpu.regs.get(base).wrapping_add(offset as i64 as u64);
        let mut buf = [0u8; 8];
        mem.read(addr, &mut buf[..width.bytes()])?;
        cpu.regs.set(rd, u64::from_le_bytes(buf));
        cpu.pc += size;
        Ok(ExecOutcome::Next)
    }),
    handler!(|cpu, mem, size| Inst::St { rs, base, offset, width } => {
        let addr = cpu.regs.get(base).wrapping_add(offset as i64 as u64);
        mem.write(addr, &cpu.regs.get(rs).to_le_bytes()[..width.bytes()])?;
        cpu.pc += size;
        Ok(ExecOutcome::Next)
    }),
    handler!(|cpu, mem, size| Inst::Jmp { target } => {
        cpu.pc = target;
        Ok(ExecOutcome::Jumped)
    }),
    handler!(|cpu, mem, size| Inst::Jal { rd, target } => {
        cpu.regs.set(rd, cpu.pc + size);
        cpu.pc = target;
        Ok(ExecOutcome::Jumped)
    }),
    handler!(|cpu, mem, size| Inst::Jalr { rd, rs, offset } => {
        let target = cpu.regs.get(rs).wrapping_add(offset as i64 as u64);
        cpu.regs.set(rd, cpu.pc + size);
        cpu.pc = target;
        Ok(ExecOutcome::Jumped)
    }),
    handler!(|cpu, mem, size| Inst::Branch { kind, rs1, rs2, target } => {
        if kind.test(cpu.regs.get(rs1), cpu.regs.get(rs2)) {
            cpu.pc = target;
            Ok(ExecOutcome::Jumped)
        } else {
            cpu.pc += size;
            Ok(ExecOutcome::Next)
        }
    }),
    handler!(|cpu, mem, size| Inst::Syscall => Ok(ExecOutcome::Syscall)),
    handler!(|cpu, mem, size| Inst::Halt => Ok(ExecOutcome::Halt)),
];

fn exec_table(
    cpu: &mut CpuState,
    mem: &mut AddressSpace,
    inst: Inst,
    size: u64,
) -> Result<ExecOutcome, VmError> {
    DISPATCH[inst.opcode() as usize](cpu, mem, inst, size)
}

/// Runs until halt, decoding every step through the given fetcher and
/// executing through the given dispatcher; returns instructions retired.
fn run_loop(
    cpu: &mut CpuState,
    mem: &mut AddressSpace,
    mut fetch: impl FnMut(&AddressSpace, u64) -> Result<(Inst, u64), VmError>,
    exec: ExecFn,
) -> u64 {
    let mut retired = 0u64;
    loop {
        let (inst, size) = fetch(mem, cpu.pc).expect("fetch");
        match exec(cpu, mem, inst, size).expect("exec") {
            ExecOutcome::Next | ExecOutcome::Jumped => retired += 1,
            ExecOutcome::Syscall | ExecOutcome::Halt => break retired,
        }
    }
}

fn bench(c: &mut Criterion) {
    let src = "main:\n li r1, 10000\nloop:\n subi r1, r1, 1\n bne r1, r0, loop\n halt\n";
    let program = superpin_isa::asm::assemble(src).expect("assemble");
    let process = Process::load(1, &program).expect("load");
    let entry = process.cpu.pc;
    let mut mem = process.mem;

    // Reference count from the never-cached, table-dispatched loop.
    let mut cpu_state = CpuState::at(entry);
    let expected = run_loop(&mut cpu_state, &mut mem, cpu::fetch_at, exec_table);
    assert_eq!(expected, 20_001, "li + 10000 x (subi, bne)");

    let mut group = c.benchmark_group("interp");
    group.sample_size(20);

    // Decode-per-step: the pre-decode-cache interpreter shape.
    group.bench_function("decode_per_step_20k", |b| {
        b.iter(|| {
            let mut cpu_state = CpuState::at(entry);
            let retired = run_loop(&mut cpu_state, &mut mem, cpu::fetch_at, cpu::exec_decoded);
            assert_eq!(retired, expected);
        })
    });

    // Decode-once: same loop through a persistent decode cache, so the
    // steady state is an array read per instruction.
    let mut cache = DecodeCache::new();
    group.bench_function("decode_once_20k", |b| {
        b.iter(|| {
            let mut cpu_state = CpuState::at(entry);
            let retired = run_loop(
                &mut cpu_state,
                &mut mem,
                |mem, pc| cache.fetch(mem, pc),
                cpu::exec_decoded,
            );
            assert_eq!(retired, expected);
        })
    });

    // Dispatch comparison: identical warm-cache fetch path, only the
    // execute dispatch differs (production match vs table oracle).
    let mut cache = DecodeCache::new();
    group.bench_function("dispatch_match_20k", |b| {
        b.iter(|| {
            let mut cpu_state = CpuState::at(entry);
            let retired = run_loop(
                &mut cpu_state,
                &mut mem,
                |mem, pc| cache.fetch(mem, pc),
                cpu::exec_decoded,
            );
            assert_eq!(retired, expected);
        })
    });
    let mut cache = DecodeCache::new();
    group.bench_function("dispatch_table_20k", |b| {
        b.iter(|| {
            let mut cpu_state = CpuState::at(entry);
            let retired = run_loop(
                &mut cpu_state,
                &mut mem,
                |mem, pc| cache.fetch(mem, pc),
                exec_table,
            );
            assert_eq!(retired, expected);
        })
    });

    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
