//! Property tests over the builder → encode → decode pipeline.

use proptest::prelude::*;
use superpin_isa::{AluOp, Inst, MemWidth, ProgramBuilder, Reg};

fn arb_reg() -> impl Strategy<Value = Reg> {
    (0u8..16).prop_map(Reg::new)
}

/// Straight-line (non-control-flow) instructions only, so a program built
/// from them plus a final `exit` decodes back positionally.
fn arb_straightline_inst() -> impl Strategy<Value = Inst> {
    prop_oneof![
        Just(Inst::Nop),
        (0u8..13, arb_reg(), arb_reg(), arb_reg()).prop_map(|(op, rd, rs1, rs2)| Inst::Alu {
            op: AluOp::from_byte(op).expect("valid"),
            rd,
            rs1,
            rs2,
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
        (arb_reg(), arb_reg(), any::<i32>(), 0u8..4).prop_map(|(rd, base, offset, w)| Inst::Ld {
            rd,
            base,
            offset,
            width: MemWidth::from_nibble(w).expect("valid"),
        }),
        (arb_reg(), arb_reg(), any::<i32>(), 0u8..4).prop_map(|(rs, base, offset, w)| Inst::St {
            rs,
            base,
            offset,
            width: MemWidth::from_nibble(w).expect("valid"),
        }),
    ]
}

proptest! {
    /// Building a program from arbitrary straight-line instructions and
    /// decoding its code section recovers exactly the same instructions.
    #[test]
    fn prop_build_decode_round_trip(insts in proptest::collection::vec(arb_straightline_inst(), 0..80)) {
        let mut b = ProgramBuilder::new();
        b.label("main");
        for &inst in &insts {
            b.inst(inst);
        }
        b.exit(0);
        let program = b.build().expect("build");
        let decoded: Vec<Inst> = program.instructions().map(|(_, i)| i).collect();
        // The exit pseudo adds li + li + syscall.
        prop_assert_eq!(decoded.len(), insts.len() + 3);
        prop_assert_eq!(&decoded[..insts.len()], &insts[..]);
        prop_assert_eq!(*decoded.last().expect("nonempty"), Inst::Syscall);
    }

    /// Labels resolve to the instruction that follows them, regardless of
    /// the variable-length instructions around them.
    #[test]
    fn prop_labels_resolve_to_following_instruction(
        prefix in proptest::collection::vec(arb_straightline_inst(), 0..20),
        suffix in proptest::collection::vec(arb_straightline_inst(), 0..20),
    ) {
        let mut b = ProgramBuilder::new();
        b.label("main");
        for &inst in &prefix {
            b.inst(inst);
        }
        b.label("target");
        for &inst in &suffix {
            b.inst(inst);
        }
        b.jmp("target");
        b.exit(0);
        let program = b.build().expect("build");
        let (target_addr, _) = program
            .instructions()
            .nth(prefix.len())
            .expect("an instruction follows the label");
        prop_assert_eq!(
            program.symbol("target").expect("target symbol").addr,
            target_addr
        );
        // The emitted jmp's resolved target equals the symbol address.
        let jmp = program
            .instructions()
            .map(|(_, inst)| inst)
            .find(|inst| matches!(inst, Inst::Jmp { .. }))
            .expect("jmp present");
        prop_assert_eq!(jmp.static_target(), Some(target_addr));
    }
}
