//! Dynamic instruction-mix profiling (Pin's `insmix` shape).

use superpin::{AreaId, AutoMerge, SharedMem, SuperTool};
use superpin_dbi::{IPoint, Inserter, InstRef, Pintool, Trace};
use superpin_isa::{Inst, Program};

/// Instruction categories tracked by [`InsMix`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MixCategory {
    /// Register ALU, immediates, and moves.
    Alu,
    /// Loads.
    Load,
    /// Stores.
    Store,
    /// Conditional branches.
    Branch,
    /// Calls, returns, and jumps.
    ControlTransfer,
    /// System calls.
    Syscall,
    /// `nop` / `halt`.
    Other,
}

impl MixCategory {
    /// All categories in table order.
    pub const ALL: [MixCategory; 7] = [
        MixCategory::Alu,
        MixCategory::Load,
        MixCategory::Store,
        MixCategory::Branch,
        MixCategory::ControlTransfer,
        MixCategory::Syscall,
        MixCategory::Other,
    ];

    /// Classifies an instruction.
    pub fn of(inst: Inst) -> MixCategory {
        match inst {
            Inst::Alu { .. } | Inst::AluImm { .. } | Inst::Li { .. } | Inst::Mov { .. } => {
                MixCategory::Alu
            }
            Inst::Ld { .. } => MixCategory::Load,
            Inst::St { .. } => MixCategory::Store,
            Inst::Branch { .. } => MixCategory::Branch,
            Inst::Jmp { .. } | Inst::Jal { .. } | Inst::Jalr { .. } => MixCategory::ControlTransfer,
            Inst::Syscall => MixCategory::Syscall,
            Inst::Halt | Inst::Nop => MixCategory::Other,
        }
    }

    /// Table label.
    pub fn label(self) -> &'static str {
        match self {
            MixCategory::Alu => "alu",
            MixCategory::Load => "load",
            MixCategory::Store => "store",
            MixCategory::Branch => "branch",
            MixCategory::ControlTransfer => "control",
            MixCategory::Syscall => "syscall",
            MixCategory::Other => "other",
        }
    }

    fn index(self) -> usize {
        MixCategory::ALL
            .iter()
            .position(|&c| c == self)
            .expect("category is in ALL")
    }
}

/// Per-category dynamic instruction counts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MixCounts {
    counts: [u64; 7],
}

impl MixCounts {
    /// Count for one category.
    pub fn get(&self, category: MixCategory) -> u64 {
        self.counts[category.index()]
    }

    /// Total instructions across categories.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Fraction of the total in `category` (0 if empty).
    pub fn fraction(&self, category: MixCategory) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.get(category) as f64 / total as f64
        }
    }
}

/// Counts executed instructions per category. Classification happens at
/// instrumentation time (one constant-argument call per instruction), so
/// the analysis routine is branch-free.
#[derive(Clone, Debug)]
pub struct InsMix {
    local: MixCounts,
    area: AreaId,
}

impl InsMix {
    /// Creates the tool with an auto-merged shared area (one word per
    /// category).
    pub fn new(shared: &SharedMem) -> InsMix {
        InsMix {
            local: MixCounts::default(),
            area: shared.create_area(MixCategory::ALL.len(), AutoMerge::Add),
        }
    }

    /// Slice-local counts.
    pub fn local_counts(&self) -> MixCounts {
        self.local
    }

    /// Merged counts from shared memory.
    pub fn merged_counts(&self, shared: &SharedMem) -> MixCounts {
        let area = shared.area(self.area);
        let mut counts = MixCounts::default();
        for (i, slot) in counts.counts.iter_mut().enumerate() {
            *slot = area.read(i);
        }
        counts
    }
}

impl Pintool for InsMix {
    fn instrument_trace(&mut self, trace: &Trace, inserter: &mut Inserter<Self>) {
        for iref in trace.insts() {
            let index = MixCategory::of(iref.inst).index();
            inserter.insert_call(
                iref.addr,
                IPoint::Before,
                move |tool, _, _| tool.local.counts[index] += 1,
                vec![],
            );
        }
    }

    fn instrumentation_is_shareable(&self, _insts: impl Iterator<Item = InstRef> + Clone) -> bool {
        // Calls depend only on the trace; all state is touched at
        // analysis time, so clones instrument identically.
        true
    }

    fn name(&self) -> &'static str {
        "insmix"
    }
}

impl SuperTool for InsMix {
    fn reset(&mut self, _slice_num: u32) {
        self.local = MixCounts::default();
    }

    fn on_slice_end(&mut self, _slice_num: u32, shared: &SharedMem) {
        shared.area(self.area).merge_locals(&self.local.counts);
    }

    fn fini_shared(&self, shared: &SharedMem, _program: &Program) -> String {
        let counts = self.merged_counts(shared);
        let mut out = format!("insmix ({} instructions):\n", counts.total());
        for category in MixCategory::ALL {
            out += &format!(
                "  {:<8} {:>12} ({:>5.1}%)\n",
                category.label(),
                counts.get(category),
                100.0 * counts.fraction(category)
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use superpin::baseline::{run_native, run_pin};
    use superpin_isa::asm::assemble;
    use superpin_vm::process::Process;

    #[test]
    fn classification_covers_every_instruction() {
        use superpin_isa::{AluOp, BranchKind, MemWidth, Reg};
        let cases = [
            (Inst::Nop, MixCategory::Other),
            (
                Inst::Alu {
                    op: AluOp::Add,
                    rd: Reg::R1,
                    rs1: Reg::R2,
                    rs2: Reg::R3,
                },
                MixCategory::Alu,
            ),
            (
                Inst::Li {
                    rd: Reg::R1,
                    imm: 1,
                },
                MixCategory::Alu,
            ),
            (
                Inst::Ld {
                    rd: Reg::R1,
                    base: Reg::R2,
                    offset: 0,
                    width: MemWidth::D,
                },
                MixCategory::Load,
            ),
            (
                Inst::St {
                    rs: Reg::R1,
                    base: Reg::R2,
                    offset: 0,
                    width: MemWidth::D,
                },
                MixCategory::Store,
            ),
            (
                Inst::Branch {
                    kind: BranchKind::Eq,
                    rs1: Reg::R1,
                    rs2: Reg::R2,
                    target: 0,
                },
                MixCategory::Branch,
            ),
            (Inst::Jmp { target: 0 }, MixCategory::ControlTransfer),
            (Inst::Syscall, MixCategory::Syscall),
        ];
        for (inst, want) in cases {
            assert_eq!(MixCategory::of(inst), want, "{inst}");
        }
    }

    #[test]
    fn mix_totals_match_dynamic_count() {
        let program = assemble(
            r#"
            .data
            buf: .space 64
            .text
            main:
                la  r2, buf
                li  r1, 20
            loop:
                ld  r3, 0(r2)
                addi r3, r3, 1
                st  r3, 0(r2)
                subi r1, r1, 1
                bne r1, r0, loop
                exit 0
            "#,
        )
        .expect("assemble");
        let native = run_native(Process::load(1, &program).expect("load")).expect("native");
        let shared = SharedMem::new();
        let pin = run_pin(
            Process::load(1, &program).expect("load"),
            InsMix::new(&shared),
        )
        .expect("pin");
        let mix = pin.tool.local_counts();
        assert_eq!(mix.total(), native.insts);
        assert_eq!(mix.get(MixCategory::Load), 20);
        assert_eq!(mix.get(MixCategory::Store), 20);
        assert_eq!(mix.get(MixCategory::Branch), 20);
        assert_eq!(mix.get(MixCategory::Syscall), 1);
        assert!(mix.fraction(MixCategory::Alu) > 0.3);
    }

    #[test]
    fn auto_merge_accumulates_across_slices() {
        let shared = SharedMem::new();
        let mut slice1 = InsMix::new(&shared);
        slice1.reset(1);
        slice1.local.counts[MixCategory::Load.index()] = 4;
        slice1.on_slice_end(1, &shared);
        let mut slice2 = slice1.clone();
        slice2.reset(2);
        slice2.local.counts[MixCategory::Load.index()] = 6;
        slice2.on_slice_end(2, &shared);
        let merged = slice2.merged_counts(&shared);
        assert_eq!(merged.get(MixCategory::Load), 10);
    }
}
