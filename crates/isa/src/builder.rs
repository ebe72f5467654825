//! Programmatic construction of [`Program`] images.

use crate::encode::encode;
use crate::inst::{AluOp, BranchKind, Inst, MemWidth};
use crate::program::{Program, ProgramError, Section, Symbol};
use crate::reg::Reg;
use crate::{CODE_BASE, DATA_BASE};
use std::collections::HashMap;
use std::fmt;

/// Error produced by [`ProgramBuilder::build`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BuildError {
    /// A label was referenced but never defined.
    UndefinedLabel(String),
    /// A label was defined twice.
    DuplicateLabel(String),
    /// No entry point was set and no `main` label exists.
    NoEntry,
    /// The resolved image was rejected by [`Program::from_parts`].
    Program(ProgramError),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::UndefinedLabel(name) => write!(f, "undefined label `{name}`"),
            BuildError::DuplicateLabel(name) => write!(f, "duplicate label `{name}`"),
            BuildError::NoEntry => write!(f, "no entry point set and no `main` label defined"),
            BuildError::Program(err) => write!(f, "invalid program image: {err}"),
        }
    }
}

impl std::error::Error for BuildError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BuildError::Program(err) => Some(err),
            _ => None,
        }
    }
}

impl From<ProgramError> for BuildError {
    fn from(err: ProgramError) -> BuildError {
        BuildError::Program(err)
    }
}

/// An instruction whose control-transfer target may still be a label.
#[derive(Clone, Debug)]
enum Pending {
    Ready(Inst),
    Jmp(String),
    Jal(Reg, String),
    Branch(BranchKind, Reg, Reg, String),
    /// `li rd, &label` — loads a symbol's absolute address.
    La(Reg, String),
}

impl Pending {
    fn size_bytes(&self) -> u64 {
        match self {
            Pending::Ready(inst) => inst.size_bytes(),
            Pending::La(..) => 16,
            _ => 8,
        }
    }
}

/// Incremental builder for [`Program`] images.
///
/// Instructions are appended in order; label references are resolved when
/// [`build`](ProgramBuilder::build) runs. Data and BSS allocations are laid
/// out sequentially from [`DATA_BASE`].
///
/// # Example
///
/// ```
/// use superpin_isa::{ProgramBuilder, Reg};
///
/// let mut b = ProgramBuilder::new();
/// b.label("main");
/// b.li(Reg::R1, 5);
/// b.label("loop");
/// b.subi(Reg::R1, Reg::R1, 1);
/// b.bne(Reg::R1, Reg::R0, "loop");
/// b.exit(0);
/// let program = b.build()?;
/// assert_eq!(program.entry(), superpin_isa::CODE_BASE);
/// # Ok::<(), superpin_isa::BuildError>(())
/// ```
#[derive(Clone, Debug, Default)]
pub struct ProgramBuilder {
    insts: Vec<Pending>,
    /// Byte offset of each pending instruction from the code base.
    offsets: Vec<u64>,
    cursor: u64,
    labels: HashMap<String, u64>,
    data: Vec<u8>,
    data_symbols: Vec<(String, u64)>,
    bss_len: u64,
    entry_label: Option<String>,
    dup_label: Option<String>,
}

impl ProgramBuilder {
    /// Creates an empty builder.
    pub fn new() -> ProgramBuilder {
        ProgramBuilder::default()
    }

    /// Defines a code label at the current position.
    pub fn label(&mut self, name: &str) -> &mut Self {
        if self
            .labels
            .insert(name.to_owned(), CODE_BASE + self.cursor)
            .is_some()
            && self.dup_label.is_none()
        {
            self.dup_label = Some(name.to_owned());
        }
        self
    }

    /// Sets the entry point to the given label (defaults to `main`).
    pub fn entry(&mut self, label: &str) -> &mut Self {
        self.entry_label = Some(label.to_owned());
        self
    }

    /// The address the *next* emitted instruction will occupy.
    #[cfg(test)]
    pub(crate) fn here(&self) -> u64 {
        CODE_BASE + self.cursor
    }

    /// The address of an already-defined code label, if any. Useful for
    /// building indirect-call tables in the data section.
    pub fn label_addr(&self, name: &str) -> Option<u64> {
        self.labels.get(name).copied()
    }

    /// The address the *next* data allocation will occupy.
    pub fn data_cursor(&self) -> u64 {
        DATA_BASE + self.data.len() as u64
    }

    /// Appends a raw instruction.
    pub fn inst(&mut self, inst: Inst) -> &mut Self {
        self.push(Pending::Ready(inst));
        self
    }

    fn push(&mut self, pending: Pending) {
        self.offsets.push(self.cursor);
        self.cursor += pending.size_bytes();
        self.insts.push(pending);
    }

    // --- ALU helpers ------------------------------------------------------

    /// `rd := rs1 + rs2`.
    pub fn add(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
        self.inst(Inst::Alu {
            op: AluOp::Add,
            rd,
            rs1,
            rs2,
        })
    }

    /// `rd := rs1 ^ rs2`.
    pub fn xor(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
        self.inst(Inst::Alu {
            op: AluOp::Xor,
            rd,
            rs1,
            rs2,
        })
    }

    /// Generic register-form ALU operation.
    pub fn alu(&mut self, op: AluOp, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
        self.inst(Inst::Alu { op, rd, rs1, rs2 })
    }

    /// `rd := rs1 + imm`.
    pub fn addi(&mut self, rd: Reg, rs1: Reg, imm: i32) -> &mut Self {
        self.inst(Inst::AluImm {
            op: AluOp::Add,
            rd,
            rs1,
            imm,
        })
    }

    /// `rd := rs1 - imm` (encoded as `addi` with a negated immediate).
    pub fn subi(&mut self, rd: Reg, rs1: Reg, imm: i32) -> &mut Self {
        self.addi(rd, rs1, imm.wrapping_neg())
    }

    /// `rd := rs1 & imm`.
    pub fn andi(&mut self, rd: Reg, rs1: Reg, imm: i32) -> &mut Self {
        self.inst(Inst::AluImm {
            op: AluOp::And,
            rd,
            rs1,
            imm,
        })
    }

    /// `rd := rs1 << imm`.
    pub fn shli(&mut self, rd: Reg, rs1: Reg, imm: i32) -> &mut Self {
        self.inst(Inst::AluImm {
            op: AluOp::Shl,
            rd,
            rs1,
            imm,
        })
    }

    /// `rd := rs1 >> imm` (logical).
    pub fn shri(&mut self, rd: Reg, rs1: Reg, imm: i32) -> &mut Self {
        self.inst(Inst::AluImm {
            op: AluOp::Shr,
            rd,
            rs1,
            imm,
        })
    }

    /// Generic immediate-form ALU operation.
    pub fn alui(&mut self, op: AluOp, rd: Reg, rs1: Reg, imm: i32) -> &mut Self {
        self.inst(Inst::AluImm { op, rd, rs1, imm })
    }

    /// `rd := imm` (64-bit immediate; 16-byte encoding).
    pub fn li(&mut self, rd: Reg, imm: i64) -> &mut Self {
        self.inst(Inst::Li { rd, imm })
    }

    /// `rd := &label` — loads a symbol's absolute address (resolved at
    /// build time; works for code and data symbols).
    pub fn la(&mut self, rd: Reg, label: &str) -> &mut Self {
        self.push(Pending::La(rd, label.to_owned()));
        self
    }

    /// `rd := rs`.
    pub fn mov(&mut self, rd: Reg, rs: Reg) -> &mut Self {
        self.inst(Inst::Mov { rd, rs })
    }

    // --- memory helpers ---------------------------------------------------

    /// 64-bit load: `rd := mem[base + offset]`.
    pub fn ld(&mut self, rd: Reg, base: Reg, offset: i32) -> &mut Self {
        self.inst(Inst::Ld {
            rd,
            base,
            offset,
            width: MemWidth::D,
        })
    }

    /// 64-bit store: `mem[base + offset] := rs`.
    pub fn st(&mut self, rs: Reg, base: Reg, offset: i32) -> &mut Self {
        self.inst(Inst::St {
            rs,
            base,
            offset,
            width: MemWidth::D,
        })
    }

    /// Load with explicit width.
    pub fn ld_w(&mut self, width: MemWidth, rd: Reg, base: Reg, offset: i32) -> &mut Self {
        self.inst(Inst::Ld {
            rd,
            base,
            offset,
            width,
        })
    }

    /// Store with explicit width.
    pub fn st_w(&mut self, width: MemWidth, rs: Reg, base: Reg, offset: i32) -> &mut Self {
        self.inst(Inst::St {
            rs,
            base,
            offset,
            width,
        })
    }

    // --- control flow -----------------------------------------------------

    /// Unconditional jump to a label.
    pub fn jmp(&mut self, label: &str) -> &mut Self {
        self.push(Pending::Jmp(label.to_owned()));
        self
    }

    /// Call a label, linking the return address into `ra`.
    pub fn call(&mut self, label: &str) -> &mut Self {
        self.push(Pending::Jal(Reg::RA, label.to_owned()));
        self
    }

    /// `jal` with an explicit link register.
    pub fn jal(&mut self, rd: Reg, label: &str) -> &mut Self {
        self.push(Pending::Jal(rd, label.to_owned()));
        self
    }

    /// Indirect jump through a register.
    pub fn jalr(&mut self, rd: Reg, rs: Reg, offset: i32) -> &mut Self {
        self.inst(Inst::Jalr { rd, rs, offset })
    }

    /// Return through `ra`. The link register is overwritten with the
    /// (unused) fall-through address, matching the ISA's read-then-write
    /// `jalr` semantics.
    pub fn ret(&mut self) -> &mut Self {
        self.inst(Inst::Jalr {
            rd: Reg::RA,
            rs: Reg::RA,
            offset: 0,
        })
    }

    /// Conditional branch to a label.
    pub fn branch(&mut self, kind: BranchKind, rs1: Reg, rs2: Reg, label: &str) -> &mut Self {
        self.push(Pending::Branch(kind, rs1, rs2, label.to_owned()));
        self
    }

    /// Branch if equal.
    pub fn beq(&mut self, rs1: Reg, rs2: Reg, label: &str) -> &mut Self {
        self.branch(BranchKind::Eq, rs1, rs2, label)
    }

    /// Branch if not equal.
    pub fn bne(&mut self, rs1: Reg, rs2: Reg, label: &str) -> &mut Self {
        self.branch(BranchKind::Ne, rs1, rs2, label)
    }

    /// Raw syscall instruction (caller sets up `r0`–`r5`).
    pub fn syscall(&mut self) -> &mut Self {
        self.inst(Inst::Syscall)
    }

    /// Emits the two-instruction `exit(code)` sequence using syscall 0.
    pub fn exit(&mut self, code: i64) -> &mut Self {
        // Kernel ABI: r0 = syscall number (0 = exit), r1 = exit code.
        self.li(Reg::R1, code);
        self.li(Reg::R0, 0);
        self.syscall()
    }

    /// `nop`.
    pub fn nop(&mut self) -> &mut Self {
        self.inst(Inst::Nop)
    }

    // --- data -------------------------------------------------------------

    /// Appends raw bytes to the data section under `name`; returns the
    /// symbol's absolute address.
    pub fn data_bytes(&mut self, name: &str, bytes: &[u8]) -> u64 {
        let addr = DATA_BASE + self.data.len() as u64;
        self.data.extend_from_slice(bytes);
        self.data_symbols.push((name.to_owned(), addr));
        addr
    }

    /// Appends 64-bit words to the data section under `name`; returns the
    /// symbol's absolute address.
    pub fn data_words(&mut self, name: &str, words: &[u64]) -> u64 {
        let addr = DATA_BASE + self.data.len() as u64;
        for word in words {
            self.data.extend_from_slice(&word.to_le_bytes());
        }
        self.data_symbols.push((name.to_owned(), addr));
        addr
    }

    /// Reserves `len` zero bytes after the data section under `name`;
    /// returns the symbol's absolute address.
    pub fn bss(&mut self, name: &str, len: u64) -> u64 {
        // BSS symbols are laid out after all initialized data; record the
        // running BSS offset and fix the base at build time via the data
        // length captured now. To keep addresses stable regardless of later
        // `data_*` calls, BSS is placed in its own region above data by
        // padding: we simply append zeroed data instead, which keeps one
        // contiguous region and stable addresses.
        let addr = DATA_BASE + self.data.len() as u64;
        self.data.resize(self.data.len() + len as usize, 0);
        self.bss_len += len;
        self.data_symbols.push((name.to_owned(), addr));
        addr
    }

    /// Resolves labels and produces the final [`Program`].
    ///
    /// # Errors
    ///
    /// Returns [`BuildError`] for undefined or duplicate labels, a missing
    /// entry point, or an invalid final image.
    pub fn build(&self) -> Result<Program, BuildError> {
        if let Some(name) = &self.dup_label {
            return Err(BuildError::DuplicateLabel(name.clone()));
        }
        let resolve = |name: &str| -> Result<u64, BuildError> {
            if let Some(&addr) = self.labels.get(name) {
                return Ok(addr);
            }
            if let Some((_, addr)) = self.data_symbols.iter().find(|(n, _)| n == name) {
                return Ok(*addr);
            }
            Err(BuildError::UndefinedLabel(name.to_owned()))
        };

        let mut code = Vec::with_capacity(self.insts.len() * 8);
        for pending in &self.insts {
            let inst = match pending {
                Pending::Ready(inst) => *inst,
                Pending::Jmp(label) => Inst::Jmp {
                    target: resolve(label)?,
                },
                Pending::Jal(rd, label) => Inst::Jal {
                    rd: *rd,
                    target: resolve(label)?,
                },
                Pending::Branch(kind, rs1, rs2, label) => Inst::Branch {
                    kind: *kind,
                    rs1: *rs1,
                    rs2: *rs2,
                    target: resolve(label)?,
                },
                Pending::La(rd, label) => Inst::Li {
                    rd: *rd,
                    imm: resolve(label)? as i64,
                },
            };
            encode(inst, &mut code);
        }

        let entry_label = self.entry_label.as_deref().unwrap_or("main");
        let entry = *self.labels.get(entry_label).ok_or(BuildError::NoEntry)?;

        let mut symbols: Vec<Symbol> = self
            .labels
            .iter()
            .map(|(name, &addr)| Symbol {
                name: name.clone(),
                addr,
                section: Section::Code,
            })
            .collect();
        symbols.extend(self.data_symbols.iter().map(|(name, addr)| Symbol {
            name: name.clone(),
            addr: *addr,
            section: Section::Data,
        }));

        Ok(Program::from_parts(
            code,
            CODE_BASE,
            self.data.clone(),
            DATA_BASE,
            0,
            entry,
            symbols,
        )?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_loop_program() {
        let mut b = ProgramBuilder::new();
        b.label("main");
        b.li(Reg::R1, 5);
        b.label("loop");
        b.subi(Reg::R1, Reg::R1, 1);
        b.bne(Reg::R1, Reg::R0, "loop");
        b.exit(0);
        let program = b.build().expect("build");
        assert_eq!(program.entry(), CODE_BASE);
        // li(16) + addi(8) + bne(8) + li(16) + li(16) + syscall(8) = 72.
        assert_eq!(program.code_len(), 72);
        let insts: Vec<_> = program.instructions().map(|(_, i)| i).collect();
        assert_eq!(insts.len(), 6);
        assert!(matches!(insts[2], Inst::Branch { target, .. } if target == CODE_BASE + 16));
    }

    #[test]
    fn undefined_label_is_an_error() {
        let mut b = ProgramBuilder::new();
        b.label("main");
        b.jmp("nowhere");
        assert_eq!(
            b.build().unwrap_err(),
            BuildError::UndefinedLabel("nowhere".into())
        );
    }

    #[test]
    fn duplicate_label_is_an_error() {
        let mut b = ProgramBuilder::new();
        b.label("main");
        b.nop();
        b.label("main");
        b.exit(0);
        assert_eq!(
            b.build().unwrap_err(),
            BuildError::DuplicateLabel("main".into())
        );
    }

    #[test]
    fn missing_entry_is_an_error() {
        let mut b = ProgramBuilder::new();
        b.label("start");
        b.exit(0);
        assert_eq!(b.build().unwrap_err(), BuildError::NoEntry);
        b.entry("start");
        assert!(b.build().is_ok());
    }

    #[test]
    fn data_and_la_resolution() {
        let mut b = ProgramBuilder::new();
        let table = b.data_words("table", &[10, 20, 30]);
        b.label("main");
        b.la(Reg::R2, "table");
        b.ld(Reg::R3, Reg::R2, 8);
        b.exit(0);
        let program = b.build().expect("build");
        assert_eq!(table, DATA_BASE);
        let (first, _) = program.decode_at(program.entry()).expect("decode");
        assert_eq!(
            first,
            Inst::Li {
                rd: Reg::R2,
                imm: DATA_BASE as i64
            }
        );
        assert_eq!(&program.data()[8..16], &20u64.to_le_bytes());
    }

    #[test]
    fn bss_allocates_zeroed_region() {
        let mut b = ProgramBuilder::new();
        let buf = b.bss("buf", 64);
        let after = b.data_bytes("tail", &[0xff]);
        b.label("main");
        b.exit(0);
        let program = b.build().expect("build");
        assert_eq!(buf, DATA_BASE);
        assert_eq!(after, DATA_BASE + 64);
        assert!(program.data()[..64].iter().all(|&byte| byte == 0));
        assert_eq!(program.data()[64], 0xff);
    }

    #[test]
    fn here_tracks_variable_length() {
        let mut b = ProgramBuilder::new();
        assert_eq!(b.here(), CODE_BASE);
        b.nop();
        assert_eq!(b.here(), CODE_BASE + 8);
        b.li(Reg::R1, 1);
        assert_eq!(b.here(), CODE_BASE + 24);
        b.la(Reg::R1, "main");
        assert_eq!(b.here(), CODE_BASE + 40);
    }

    proptest::proptest! {
        /// `here()` always equals the address the next instruction
        /// decodes at, over runs of 8-byte `nop`s and 16-byte `li`s.
        #[test]
        fn prop_here_tracks_layout(
            insts in proptest::collection::vec(
                (proptest::prelude::any::<bool>(), proptest::prelude::any::<i64>()),
                1..40,
            ),
        ) {
            let mut b = ProgramBuilder::new();
            b.label("main");
            let mut expected_addrs = Vec::new();
            for &(li, imm) in &insts {
                expected_addrs.push(b.here());
                if li {
                    b.li(Reg::R1, imm);
                } else {
                    b.nop();
                }
            }
            b.exit(0);
            let program = b.build().expect("build");
            let addrs: Vec<u64> = program
                .instructions()
                .take(insts.len())
                .map(|(addr, _)| addr)
                .collect();
            proptest::prop_assert_eq!(addrs, expected_addrs);
        }
    }
}
