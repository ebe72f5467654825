//! Fixed-width binary encoding of instructions.
//!
//! Every instruction occupies one 8-byte little-endian word except
//! [`Inst::Li`], which carries a full 64-bit immediate in a second payload
//! word (16 bytes total). The variable length is deliberate: it forces the
//! DBI layer to decode instruction streams rather than index them, just as
//! a real binary instrumentation system must.
//!
//! Word layout (little-endian byte indices):
//!
//! ```text
//! byte 0      opcode
//! byte 1      sub-operation (AluOp byte, BranchKind or MemWidth nibble)
//! byte 2      reg1 (low nibble) | reg2 (high nibble)
//! byte 3      reg3 (low nibble)
//! bytes 4-7   32-bit immediate / absolute target
//! ```

use crate::inst::{AluOp, BranchKind, Inst, MemWidth};
use crate::reg::Reg;
use std::fmt;

/// Size of one encoding word in bytes. [`Inst::Li`] occupies two words.
pub const INST_BYTES: usize = 8;

/// Error returned by [`decode`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// Fewer than 8 bytes were available at the decode point.
    Truncated,
    /// The opcode byte does not name a valid opcode.
    BadOpcode(u8),
    /// A sub-operation field (ALU op, branch kind, memory width) is invalid.
    BadSubOp(u8),
    /// A register field is out of range.
    BadReg(u8),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "instruction stream truncated"),
            DecodeError::BadOpcode(b) => write!(f, "invalid opcode byte {b:#04x}"),
            DecodeError::BadSubOp(b) => write!(f, "invalid sub-operation field {b:#04x}"),
            DecodeError::BadReg(b) => write!(f, "invalid register field {b:#04x}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Top-level opcode byte used by the binary encoding.
#[repr(u8)]
enum Opcode {
    Nop = 0x00,
    Alu = 0x01,
    AluImm = 0x02,
    Li = 0x03,
    Mov = 0x04,
    Ld = 0x05,
    St = 0x06,
    Jmp = 0x07,
    Jal = 0x08,
    Jalr = 0x09,
    Branch = 0x0a,
    Syscall = 0x0b,
    Halt = 0x0c,
}

impl Opcode {
    fn from_byte(b: u8) -> Option<Opcode> {
        Some(match b {
            0x00 => Opcode::Nop,
            0x01 => Opcode::Alu,
            0x02 => Opcode::AluImm,
            0x03 => Opcode::Li,
            0x04 => Opcode::Mov,
            0x05 => Opcode::Ld,
            0x06 => Opcode::St,
            0x07 => Opcode::Jmp,
            0x08 => Opcode::Jal,
            0x09 => Opcode::Jalr,
            0x0a => Opcode::Branch,
            0x0b => Opcode::Syscall,
            0x0c => Opcode::Halt,
            _ => return None,
        })
    }
}

fn pack(op: Opcode, sub: u8, r1: u8, r2: u8, r3: u8, imm: u32) -> u64 {
    (op as u64)
        | ((sub as u64) << 8)
        | (((r1 & 0xf) as u64) << 16)
        | (((r2 & 0xf) as u64) << 20)
        | (((r3 & 0xf) as u64) << 24)
        | ((imm as u64) << 32)
}

/// Encodes an instruction, appending its word(s) to `out`.
///
/// # Panics
///
/// Panics if a control-transfer target or immediate does not fit the
/// 32-bit encoding field. Program images produced by this crate keep code
/// below 4 GiB, so assembled programs never hit this.
pub fn encode(inst: Inst, out: &mut Vec<u8>) {
    let word = match inst {
        Inst::Nop => pack(Opcode::Nop, 0, 0, 0, 0, 0),
        Inst::Alu { op, rd, rs1, rs2 } => {
            pack(Opcode::Alu, op.to_byte(), rd.raw(), rs1.raw(), rs2.raw(), 0)
        }
        Inst::AluImm { op, rd, rs1, imm } => pack(
            Opcode::AluImm,
            op.to_byte(),
            rd.raw(),
            rs1.raw(),
            0,
            imm as u32,
        ),
        Inst::Li { rd, imm } => {
            let word = pack(Opcode::Li, 0, rd.raw(), 0, 0, 0);
            out.extend_from_slice(&word.to_le_bytes());
            out.extend_from_slice(&(imm as u64).to_le_bytes());
            return;
        }
        Inst::Mov { rd, rs } => pack(Opcode::Mov, 0, rd.raw(), rs.raw(), 0, 0),
        Inst::Ld {
            rd,
            base,
            offset,
            width,
        } => pack(
            Opcode::Ld,
            width.to_nibble(),
            rd.raw(),
            base.raw(),
            0,
            offset as u32,
        ),
        Inst::St {
            rs,
            base,
            offset,
            width,
        } => pack(
            Opcode::St,
            width.to_nibble(),
            rs.raw(),
            base.raw(),
            0,
            offset as u32,
        ),
        Inst::Jmp { target } => {
            let t = u32::try_from(target).expect("jump target exceeds 32-bit encoding field");
            pack(Opcode::Jmp, 0, 0, 0, 0, t)
        }
        Inst::Jal { rd, target } => {
            let t = u32::try_from(target).expect("call target exceeds 32-bit encoding field");
            pack(Opcode::Jal, 0, rd.raw(), 0, 0, t)
        }
        Inst::Jalr { rd, rs, offset } => {
            pack(Opcode::Jalr, 0, rd.raw(), rs.raw(), 0, offset as u32)
        }
        Inst::Branch {
            kind,
            rs1,
            rs2,
            target,
        } => {
            let t = u32::try_from(target).expect("branch target exceeds 32-bit encoding field");
            pack(Opcode::Branch, kind.to_nibble(), rs1.raw(), rs2.raw(), 0, t)
        }
        Inst::Syscall => pack(Opcode::Syscall, 0, 0, 0, 0, 0),
        Inst::Halt => pack(Opcode::Halt, 0, 0, 0, 0, 0),
    };
    out.extend_from_slice(&word.to_le_bytes());
}

fn reg_field(nibble: u8) -> Result<Reg, DecodeError> {
    Reg::try_new(nibble).ok_or(DecodeError::BadReg(nibble))
}

/// Decodes one instruction from the front of `bytes`.
///
/// Returns the instruction and the number of bytes it occupied (8 or 16).
///
/// # Errors
///
/// Returns [`DecodeError`] if the stream is truncated or any field is
/// invalid.
pub fn decode(bytes: &[u8]) -> Result<(Inst, usize), DecodeError> {
    if bytes.len() < INST_BYTES {
        return Err(DecodeError::Truncated);
    }
    let word = u64::from_le_bytes(bytes[..8].try_into().expect("length checked"));
    let op_byte = (word & 0xff) as u8;
    let sub = ((word >> 8) & 0xff) as u8;
    let r1 = ((word >> 16) & 0xf) as u8;
    let r2 = ((word >> 20) & 0xf) as u8;
    let r3 = ((word >> 24) & 0xf) as u8;
    let imm = (word >> 32) as u32;
    let opcode = Opcode::from_byte(op_byte).ok_or(DecodeError::BadOpcode(op_byte))?;
    let inst = match opcode {
        Opcode::Nop => Inst::Nop,
        Opcode::Alu => Inst::Alu {
            op: AluOp::from_byte(sub).ok_or(DecodeError::BadSubOp(sub))?,
            rd: reg_field(r1)?,
            rs1: reg_field(r2)?,
            rs2: reg_field(r3)?,
        },
        Opcode::AluImm => Inst::AluImm {
            op: AluOp::from_byte(sub).ok_or(DecodeError::BadSubOp(sub))?,
            rd: reg_field(r1)?,
            rs1: reg_field(r2)?,
            imm: imm as i32,
        },
        Opcode::Li => {
            if bytes.len() < 2 * INST_BYTES {
                return Err(DecodeError::Truncated);
            }
            let payload = u64::from_le_bytes(bytes[8..16].try_into().expect("length checked"));
            return Ok((
                Inst::Li {
                    rd: reg_field(r1)?,
                    imm: payload as i64,
                },
                2 * INST_BYTES,
            ));
        }
        Opcode::Mov => Inst::Mov {
            rd: reg_field(r1)?,
            rs: reg_field(r2)?,
        },
        Opcode::Ld => Inst::Ld {
            rd: reg_field(r1)?,
            base: reg_field(r2)?,
            offset: imm as i32,
            width: MemWidth::from_nibble(sub).ok_or(DecodeError::BadSubOp(sub))?,
        },
        Opcode::St => Inst::St {
            rs: reg_field(r1)?,
            base: reg_field(r2)?,
            offset: imm as i32,
            width: MemWidth::from_nibble(sub).ok_or(DecodeError::BadSubOp(sub))?,
        },
        Opcode::Jmp => Inst::Jmp { target: imm as u64 },
        Opcode::Jal => Inst::Jal {
            rd: reg_field(r1)?,
            target: imm as u64,
        },
        Opcode::Jalr => Inst::Jalr {
            rd: reg_field(r1)?,
            rs: reg_field(r2)?,
            offset: imm as i32,
        },
        Opcode::Branch => Inst::Branch {
            kind: BranchKind::from_nibble(sub).ok_or(DecodeError::BadSubOp(sub))?,
            rs1: reg_field(r1)?,
            rs2: reg_field(r2)?,
            target: imm as u64,
        },
        Opcode::Syscall => Inst::Syscall,
        Opcode::Halt => Inst::Halt,
    };
    Ok((inst, INST_BYTES))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn round_trip(inst: Inst) {
        let mut buf = Vec::new();
        encode(inst, &mut buf);
        assert_eq!(buf.len() as u64, inst.size_bytes());
        let (decoded, len) = decode(&buf).expect("decode");
        assert_eq!(decoded, inst);
        assert_eq!(len as u64, inst.size_bytes());
    }

    #[test]
    fn round_trip_representatives() {
        round_trip(Inst::Nop);
        round_trip(Inst::Alu {
            op: AluOp::Xor,
            rd: Reg::R7,
            rs1: Reg::R8,
            rs2: Reg::R9,
        });
        round_trip(Inst::AluImm {
            op: AluOp::Add,
            rd: Reg::R1,
            rs1: Reg::SP,
            imm: -64,
        });
        round_trip(Inst::Li {
            rd: Reg::R4,
            imm: -0x1234_5678_9abc_def0,
        });
        round_trip(Inst::Mov {
            rd: Reg::FP,
            rs: Reg::SP,
        });
        round_trip(Inst::Ld {
            rd: Reg::R2,
            base: Reg::FP,
            offset: -24,
            width: MemWidth::W,
        });
        round_trip(Inst::St {
            rs: Reg::R3,
            base: Reg::SP,
            offset: 8,
            width: MemWidth::B,
        });
        round_trip(Inst::Jmp { target: 0x1040 });
        round_trip(Inst::Jal {
            rd: Reg::RA,
            target: 0x2000,
        });
        round_trip(Inst::Jalr {
            rd: Reg::RA,
            rs: Reg::R6,
            offset: 16,
        });
        round_trip(Inst::Branch {
            kind: BranchKind::Geu,
            rs1: Reg::R10,
            rs2: Reg::R11,
            target: 0x1088,
        });
        round_trip(Inst::Syscall);
        round_trip(Inst::Halt);
    }

    #[test]
    fn decode_rejects_truncation() {
        assert_eq!(decode(&[0u8; 4]), Err(DecodeError::Truncated));
        // Li needs 16 bytes.
        let mut buf = Vec::new();
        encode(
            Inst::Li {
                rd: Reg::R1,
                imm: 7,
            },
            &mut buf,
        );
        assert_eq!(decode(&buf[..8]), Err(DecodeError::Truncated));
    }

    #[test]
    fn decode_rejects_bad_opcode() {
        let word = 0xffu64.to_le_bytes();
        assert_eq!(decode(&word), Err(DecodeError::BadOpcode(0xff)));
    }

    #[test]
    fn decode_rejects_bad_subop() {
        // ALU opcode with sub-op 13 (invalid).
        let word = (0x01u64 | (13 << 8)).to_le_bytes();
        assert_eq!(decode(&word), Err(DecodeError::BadSubOp(13)));
        // Branch with kind nibble 6 (invalid).
        let word = (0x0au64 | (6 << 8)).to_le_bytes();
        assert_eq!(decode(&word), Err(DecodeError::BadSubOp(6)));
    }

    fn arb_reg() -> impl Strategy<Value = Reg> {
        (0u8..16).prop_map(Reg::new)
    }

    fn arb_inst() -> impl Strategy<Value = Inst> {
        prop_oneof![
            Just(Inst::Nop),
            Just(Inst::Syscall),
            Just(Inst::Halt),
            (0u8..13, arb_reg(), arb_reg(), arb_reg()).prop_map(|(op, rd, rs1, rs2)| Inst::Alu {
                op: AluOp::from_byte(op).expect("valid"),
                rd,
                rs1,
                rs2
            }),
            (0u8..13, arb_reg(), arb_reg(), any::<i32>()).prop_map(|(op, rd, rs1, imm)| {
                Inst::AluImm {
                    op: AluOp::from_byte(op).expect("valid"),
                    rd,
                    rs1,
                    imm,
                }
            }),
            (arb_reg(), any::<i64>()).prop_map(|(rd, imm)| Inst::Li { rd, imm }),
            (arb_reg(), arb_reg()).prop_map(|(rd, rs)| Inst::Mov { rd, rs }),
            (arb_reg(), arb_reg(), any::<i32>(), 0u8..4).prop_map(|(rd, base, offset, w)| {
                Inst::Ld {
                    rd,
                    base,
                    offset,
                    width: MemWidth::from_nibble(w).expect("valid"),
                }
            }),
            (arb_reg(), arb_reg(), any::<i32>(), 0u8..4).prop_map(|(rs, base, offset, w)| {
                Inst::St {
                    rs,
                    base,
                    offset,
                    width: MemWidth::from_nibble(w).expect("valid"),
                }
            }),
            any::<u32>().prop_map(|t| Inst::Jmp { target: t as u64 }),
            (arb_reg(), any::<u32>()).prop_map(|(rd, t)| Inst::Jal {
                rd,
                target: t as u64
            }),
            (arb_reg(), arb_reg(), any::<i32>()).prop_map(|(rd, rs, offset)| Inst::Jalr {
                rd,
                rs,
                offset
            }),
            (0u8..6, arb_reg(), arb_reg(), any::<u32>()).prop_map(|(k, rs1, rs2, t)| {
                Inst::Branch {
                    kind: BranchKind::from_nibble(k).expect("valid"),
                    rs1,
                    rs2,
                    target: t as u64,
                }
            }),
        ]
    }

    proptest! {
        #[test]
        fn prop_encode_decode_round_trip(inst in arb_inst()) {
            let mut buf = Vec::new();
            encode(inst, &mut buf);
            let (decoded, len) = decode(&buf).expect("decode");
            prop_assert_eq!(decoded, inst);
            prop_assert_eq!(len as u64, inst.size_bytes());
        }

        #[test]
        fn prop_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..32)) {
            let _ = decode(&bytes);
        }
    }
}
