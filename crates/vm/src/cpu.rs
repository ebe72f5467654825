//! The interpreter core: architectural state and single-step execution.

use crate::error::VmError;
use crate::mem::AddressSpace;
use superpin_isa::{decode, DecodeError, Inst, MemWidth, Reg, NUM_REGS};

/// The general-purpose register file.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct RegFile([u64; NUM_REGS]);

impl RegFile {
    /// A zero-filled register file.
    pub fn new() -> RegFile {
        RegFile::default()
    }

    /// Reads a register.
    pub fn get(&self, reg: Reg) -> u64 {
        self.0[reg.index()]
    }

    /// Writes a register.
    pub fn set(&mut self, reg: Reg, value: u64) {
        self.0[reg.index()] = value;
    }

    /// The raw register array, `r0` first — the "architectural register
    /// state" captured by SuperPin signatures (paper §4.4).
    pub fn snapshot(&self) -> [u64; NUM_REGS] {
        self.0
    }
}

impl From<[u64; NUM_REGS]> for RegFile {
    fn from(regs: [u64; NUM_REGS]) -> RegFile {
        RegFile(regs)
    }
}

/// Architectural CPU state: register file plus program counter.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CpuState {
    /// General-purpose registers.
    pub regs: RegFile,
    /// Program counter.
    pub pc: u64,
}

impl CpuState {
    /// Creates CPU state with the program counter at `pc`.
    pub fn at(pc: u64) -> CpuState {
        CpuState {
            regs: RegFile::new(),
            pc,
        }
    }
}

/// Outcome of executing a single already-decoded instruction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecOutcome {
    /// Fell through; `pc` has advanced past the instruction.
    Next,
    /// Control transferred; `pc` holds the new target.
    Jumped,
    /// A `syscall` was reached; `pc` still points *at* the syscall so a
    /// supervisor can service it (ptrace-style syscall-entry stop).
    Syscall,
    /// A `halt` was reached; `pc` still points at it.
    Halt,
}

/// Fetches and decodes the instruction at `cpu.pc` from guest memory.
///
/// # Errors
///
/// Returns [`VmError::Mem`] for unmapped fetches or [`VmError::Decode`]
/// for invalid encodings.
pub fn fetch(cpu: &CpuState, mem: &AddressSpace) -> Result<(Inst, u64), VmError> {
    fetch_at(mem, cpu.pc)
}

/// Fetches and decodes the instruction at an arbitrary address.
///
/// This is [`fetch`] without the CPU: the decode cache uses it to
/// pre-decode whole pages independent of the current program counter.
///
/// # Errors
///
/// Returns [`VmError::Mem`] for unmapped fetches or [`VmError::Decode`]
/// for invalid encodings.
pub fn fetch_at(mem: &AddressSpace, pc: u64) -> Result<(Inst, u64), VmError> {
    let mut buf = [0u8; 16];
    mem.read(pc, &mut buf[..8]).map_err(VmError::from)?;
    match decode(&buf[..8]) {
        Ok((inst, len)) => Ok((inst, len as u64)),
        Err(DecodeError::Truncated) => {
            // Two-word instruction (`li`): fetch the payload word.
            mem.read(pc + 8, &mut buf[8..]).map_err(VmError::from)?;
            let (inst, len) = decode(&buf).map_err(|source| VmError::Decode { pc, source })?;
            Ok((inst, len as u64))
        }
        Err(source) => Err(VmError::Decode { pc, source }),
    }
}

/// Executes one already-decoded instruction against the CPU and memory.
///
/// `size` must be the instruction's encoded size (used to advance `pc`).
/// The one production dispatcher: an inlined `match`. A function-pointer
/// table indexed by opcode ties with it on a two-instruction loop and
/// loses 16 % of `vm.native_minst_per_s` on whole guests;
/// `crates/bench/benches/interp.rs` keeps that table as its oracle and
/// records the measurement.
///
/// # Errors
///
/// Returns [`VmError::Mem`] for faulting loads/stores.
#[inline]
pub fn exec_decoded(
    cpu: &mut CpuState,
    mem: &mut AddressSpace,
    inst: Inst,
    size: u64,
) -> Result<ExecOutcome, VmError> {
    match inst {
        Inst::Nop => {
            cpu.pc += size;
            Ok(ExecOutcome::Next)
        }
        Inst::Alu { op, rd, rs1, rs2 } => {
            let value = op.apply(cpu.regs.get(rs1), cpu.regs.get(rs2));
            cpu.regs.set(rd, value);
            cpu.pc += size;
            Ok(ExecOutcome::Next)
        }
        Inst::AluImm { op, rd, rs1, imm } => {
            let value = op.apply(cpu.regs.get(rs1), imm as i64 as u64);
            cpu.regs.set(rd, value);
            cpu.pc += size;
            Ok(ExecOutcome::Next)
        }
        Inst::Li { rd, imm } => {
            cpu.regs.set(rd, imm as u64);
            cpu.pc += size;
            Ok(ExecOutcome::Next)
        }
        Inst::Mov { rd, rs } => {
            let value = cpu.regs.get(rs);
            cpu.regs.set(rd, value);
            cpu.pc += size;
            Ok(ExecOutcome::Next)
        }
        Inst::Ld {
            rd,
            base,
            offset,
            width,
        } => {
            let addr = cpu.regs.get(base).wrapping_add(offset as i64 as u64);
            let value = load(mem, addr, width)?;
            cpu.regs.set(rd, value);
            cpu.pc += size;
            Ok(ExecOutcome::Next)
        }
        Inst::St {
            rs,
            base,
            offset,
            width,
        } => {
            let addr = cpu.regs.get(base).wrapping_add(offset as i64 as u64);
            store(mem, addr, cpu.regs.get(rs), width)?;
            cpu.pc += size;
            Ok(ExecOutcome::Next)
        }
        Inst::Jmp { target } => {
            cpu.pc = target;
            Ok(ExecOutcome::Jumped)
        }
        Inst::Jal { rd, target } => {
            cpu.regs.set(rd, cpu.pc + size);
            cpu.pc = target;
            Ok(ExecOutcome::Jumped)
        }
        Inst::Jalr { rd, rs, offset } => {
            // Read the target before linking so `jalr ra, 0(ra)` (the
            // conventional `ret`) works.
            let target = cpu.regs.get(rs).wrapping_add(offset as i64 as u64);
            cpu.regs.set(rd, cpu.pc + size);
            cpu.pc = target;
            Ok(ExecOutcome::Jumped)
        }
        Inst::Branch {
            kind,
            rs1,
            rs2,
            target,
        } => {
            if kind.test(cpu.regs.get(rs1), cpu.regs.get(rs2)) {
                cpu.pc = target;
                Ok(ExecOutcome::Jumped)
            } else {
                cpu.pc += size;
                Ok(ExecOutcome::Next)
            }
        }
        Inst::Syscall => Ok(ExecOutcome::Syscall),
        Inst::Halt => Ok(ExecOutcome::Halt),
    }
}

/// Fetches, decodes, and executes one instruction.
///
/// # Errors
///
/// Propagates fetch, decode, and memory errors.
pub fn step(cpu: &mut CpuState, mem: &mut AddressSpace) -> Result<ExecOutcome, VmError> {
    let (inst, size) = fetch(cpu, mem)?;
    exec_decoded(cpu, mem, inst, size)
}

fn load(mem: &AddressSpace, addr: u64, width: MemWidth) -> Result<u64, VmError> {
    let mut buf = [0u8; 8];
    let n = width.bytes();
    mem.read(addr, &mut buf[..n]).map_err(VmError::from)?;
    Ok(u64::from_le_bytes(buf))
}

fn store(mem: &mut AddressSpace, addr: u64, value: u64, width: MemWidth) -> Result<(), VmError> {
    let bytes = value.to_le_bytes();
    mem.write(addr, &bytes[..width.bytes()])
        .map_err(VmError::from)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::RegionKind;
    use superpin_isa::{encode, AluOp};

    fn space_with_code(insts: &[Inst]) -> (AddressSpace, u64) {
        let mut code = Vec::new();
        for &inst in insts {
            encode(inst, &mut code);
        }
        let mut mem = AddressSpace::new(0x0100_0000);
        mem.map_region(0x1000, code.len().max(1) as u64, RegionKind::Code)
            .expect("map code");
        mem.map_region(0x8000, 4096, RegionKind::Data)
            .expect("map data");
        mem.write(0x1000, &code).expect("write code");
        (mem, 0x1000)
    }

    #[test]
    fn alu_and_li_execute() {
        let (mut mem, entry) = space_with_code(&[
            Inst::Li {
                rd: Reg::R1,
                imm: 40,
            },
            Inst::AluImm {
                op: AluOp::Add,
                rd: Reg::R1,
                rs1: Reg::R1,
                imm: 2,
            },
        ]);
        let mut cpu = CpuState::at(entry);
        assert_eq!(step(&mut cpu, &mut mem).expect("step"), ExecOutcome::Next);
        assert_eq!(cpu.pc, entry + 16);
        assert_eq!(step(&mut cpu, &mut mem).expect("step"), ExecOutcome::Next);
        assert_eq!(cpu.regs.get(Reg::R1), 42);
    }

    #[test]
    fn loads_and_stores_round_trip() {
        let (mut mem, entry) = space_with_code(&[
            Inst::Li {
                rd: Reg::R2,
                imm: 0x8000,
            },
            Inst::Li {
                rd: Reg::R3,
                imm: 0x1_0000,
            },
            Inst::St {
                rs: Reg::R3,
                base: Reg::R2,
                offset: 8,
                width: MemWidth::D,
            },
            Inst::Ld {
                rd: Reg::R4,
                base: Reg::R2,
                offset: 8,
                width: MemWidth::B,
            },
        ]);
        let mut cpu = CpuState::at(entry);
        for _ in 0..4 {
            step(&mut cpu, &mut mem).expect("step");
        }
        assert_eq!(mem.read_u64(0x8008).expect("read"), 0x1_0000);
        // Byte load of 0x10000's low byte is zero.
        assert_eq!(cpu.regs.get(Reg::R4), 0);
    }

    #[test]
    fn sub_word_store_truncates() {
        let (mut mem, entry) = space_with_code(&[
            Inst::Li {
                rd: Reg::R2,
                imm: 0x8000,
            },
            Inst::Li {
                rd: Reg::R3,
                imm: 0x1234_5678_9abc_def0,
            },
            Inst::St {
                rs: Reg::R3,
                base: Reg::R2,
                offset: 0,
                width: MemWidth::H,
            },
        ]);
        let mut cpu = CpuState::at(entry);
        for _ in 0..3 {
            step(&mut cpu, &mut mem).expect("step");
        }
        assert_eq!(mem.read_u64(0x8000).expect("read"), 0xdef0);
    }

    #[test]
    fn branch_taken_and_not_taken() {
        let target = 0x1000 + 32;
        let (mut mem, entry) = space_with_code(&[
            Inst::Branch {
                kind: superpin_isa::BranchKind::Eq,
                rs1: Reg::R1,
                rs2: Reg::R2,
                target,
            },
            Inst::Nop,
            Inst::Nop,
            Inst::Nop,
        ]);
        // r1 == r2 == 0: taken.
        let mut cpu = CpuState::at(entry);
        assert_eq!(step(&mut cpu, &mut mem).expect("step"), ExecOutcome::Jumped);
        assert_eq!(cpu.pc, target);
        // Not taken.
        let mut cpu = CpuState::at(entry);
        cpu.regs.set(Reg::R1, 1);
        assert_eq!(step(&mut cpu, &mut mem).expect("step"), ExecOutcome::Next);
        assert_eq!(cpu.pc, entry + 8);
    }

    #[test]
    fn jal_links_and_jalr_returns() {
        let (mut mem, entry) = space_with_code(&[
            Inst::Jal {
                rd: Reg::RA,
                target: 0x1000 + 16,
            },
            Inst::Nop,
            Inst::Jalr {
                rd: Reg::RA,
                rs: Reg::RA,
                offset: 0,
            },
        ]);
        let mut cpu = CpuState::at(entry);
        step(&mut cpu, &mut mem).expect("jal");
        assert_eq!(cpu.pc, entry + 16);
        assert_eq!(cpu.regs.get(Reg::RA), entry + 8);
        step(&mut cpu, &mut mem).expect("jalr");
        assert_eq!(cpu.pc, entry + 8, "ret through ra");
    }

    #[test]
    fn syscall_and_halt_stop_without_advancing() {
        let (mut mem, entry) = space_with_code(&[Inst::Syscall, Inst::Halt]);
        let mut cpu = CpuState::at(entry);
        assert_eq!(
            step(&mut cpu, &mut mem).expect("step"),
            ExecOutcome::Syscall
        );
        assert_eq!(cpu.pc, entry, "pc parked at syscall for the supervisor");
        cpu.pc = entry + 8;
        assert_eq!(step(&mut cpu, &mut mem).expect("step"), ExecOutcome::Halt);
        assert_eq!(cpu.pc, entry + 8);
    }

    #[test]
    fn fetch_fault_on_unmapped_pc() {
        let (mut mem, _) = space_with_code(&[Inst::Nop]);
        let mut cpu = CpuState::at(0xdead_0000);
        assert!(matches!(step(&mut cpu, &mut mem), Err(VmError::Mem(_))));
    }

    #[test]
    fn load_fault_reports_address() {
        let (mut mem, entry) = space_with_code(&[Inst::Ld {
            rd: Reg::R1,
            base: Reg::R0,
            offset: 0,
            width: MemWidth::D,
        }]);
        let mut cpu = CpuState::at(entry);
        let err = step(&mut cpu, &mut mem).unwrap_err();
        assert!(matches!(
            err,
            VmError::Mem(crate::mem::MemError::Unmapped(0))
        ));
    }
}
