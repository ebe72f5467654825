#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # superpin-isa
//!
//! A small, deterministic, RISC-like virtual instruction set used as the
//! binary substrate for the SuperPin reproduction.
//!
//! The original SuperPin system instruments x86 binaries. This crate plays
//! the role of "the architecture": it defines
//!
//! * a register file ([`Reg`]) of sixteen 64-bit general-purpose registers
//!   with conventional aliases (`sp`, `fp`, `ra`),
//! * an instruction set ([`Inst`]) covering ALU, memory, control transfer,
//!   and system-call operations,
//! * a fixed-width binary encoding ([`encode`]/[`decode`]) so programs live
//!   in memory as bytes, exactly as a DBI system expects,
//! * a two-pass assembler ([`asm::assemble`]) with labels and data
//!   directives, and a disassembler,
//! * a linked [`Program`] image (code + data + entry point + symbols) and a
//!   programmatic [`ProgramBuilder`].
//!
//! # Example
//!
//! ```
//! use superpin_isa::asm::assemble;
//!
//! let program = assemble(
//!     r#"
//!     .entry main
//!     main:
//!         li   r1, 10
//!         li   r2, 0
//!     loop:
//!         add  r2, r2, r1
//!         subi r1, r1, 1
//!         bne  r1, r0, loop
//!         li   r0, 0          ; exit code in r0? no: syscall number
//!         syscall             ; EXIT
//!     "#,
//! )?;
//! assert!(program.code_len() > 0);
//! # Ok::<(), superpin_isa::asm::AsmError>(())
//! ```

pub mod asm;
mod builder;
mod disasm;
mod encode;
mod inst;
mod program;
mod reg;

pub use builder::{BuildError, ProgramBuilder};
pub use disasm::disassemble;
pub use encode::{decode, encode, DecodeError, INST_BYTES};
pub use inst::{AluOp, BranchKind, Inst, MemWidth};
pub use program::{Program, ProgramError, Section, Symbol};
pub use reg::{Reg, NUM_REGS};

/// Conventional base virtual address where program code is loaded.
pub const CODE_BASE: u64 = 0x0000_1000;

/// Conventional base virtual address for the initialized data section.
pub const DATA_BASE: u64 = 0x0010_0000;

/// Conventional initial stack top (stack grows downward).
pub const STACK_TOP: u64 = 0x7fff_f000;

/// Conventional initial program break (heap start) for the emulated kernel.
pub const HEAP_BASE: u64 = 0x0100_0000;
