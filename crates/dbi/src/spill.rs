//! Register save/restore planning for analysis calls.
//!
//! Invoking an inserted analysis routine clobbers a fixed set of guest
//! registers (the call's scratch/argument registers). The compiler
//! brackets every call with spills of the whole set; the paper's flat
//! per-call price ("register save/restore + call + return") is
//! [`analysis_call`](crate::CostModel::analysis_call).
//!
//! Two consumers are built on this module:
//!
//! * **Refined elision** — with a superblock plan installed
//!   ([`Engine::set_plan`](crate::Engine::set_plan)),
//!   [`CodeCache::compile`](crate::cache::CodeCache::compile) marks the
//!   saved registers the plan's refined liveness proves dead as
//!   [`elided`](crate::cache::InsertedCall::elided): an annotation a code
//!   generator could act on, which moves no charged cycle.
//! * **Verification** — in debug/test builds the compiler re-checks every
//!   planned save set: it must hold every clobbered register, and what
//!   is left after `elided` must cover the clobbered registers the
//!   refined map keeps live. It records a [`ClobberViolation`] for each
//!   inserted call that would corrupt a live register.

use std::fmt;
use superpin_analysis::RegSet;
use superpin_isa::Reg;

use crate::inserter::IPoint;

/// The guest registers an analysis-call invocation clobbers: the
/// syscall/scratch register plus the first three argument registers,
/// which the modeled calling convention uses for marshalling
/// [`IArg`](crate::IArg) values.
pub fn analysis_clobbers() -> RegSet {
    RegSet::from_regs(&[Reg::R0, Reg::R1, Reg::R2, Reg::R3])
}

/// One clobber-safety violation found while compiling instrumentation:
/// an analysis call whose planned save set misses a clobbered register
/// that is live at the insertion point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ClobberViolation {
    /// Address of the instrumented instruction.
    pub addr: u64,
    /// Whether the offending call runs before or after the instruction.
    pub point: IPoint,
    /// Index of the call within its before/after list.
    pub call_index: usize,
    /// Clobbered-and-live registers the save set fails to cover.
    pub missing: RegSet,
    /// The live set the check assumed: the refined map's at the
    /// insertion point, or [`RegSet::ALL`] for the check that every
    /// clobbered register is saved.
    pub live: RegSet,
}

impl fmt::Display for ClobberViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let point = match self.point {
            IPoint::Before => "before",
            IPoint::After => "after",
        };
        write!(
            f,
            "analysis call {} {:#x} (#{}) clobbers live register(s) {:?} without saving them \
             (live set {:?})",
            point, self.addr, self.call_index, self.missing, self.live
        )
    }
}

/// The registers an analysis call at a point with live set `live` must
/// save and restore: every clobbered register that is live there.
pub fn required_saves(live: RegSet) -> RegSet {
    analysis_clobbers().intersect(live)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn required_saves_is_clobbers_intersect_live() {
        let live = RegSet::from_regs(&[Reg::R0, Reg::R8]);
        assert_eq!(required_saves(live), RegSet::from_regs(&[Reg::R0]));
        assert_eq!(required_saves(RegSet::ALL), analysis_clobbers());
        assert_eq!(required_saves(RegSet::EMPTY), RegSet::EMPTY);
    }

    #[test]
    fn violation_renders_the_missing_registers() {
        let v = ClobberViolation {
            addr: 0x1000,
            point: IPoint::Before,
            call_index: 0,
            missing: RegSet::from_regs(&[Reg::R1]),
            live: RegSet::from_regs(&[Reg::R1, Reg::R8]),
        };
        let text = v.to_string();
        assert!(text.contains("0x1000"), "{text}");
        assert!(text.contains("r1"), "{text}");
    }
}
