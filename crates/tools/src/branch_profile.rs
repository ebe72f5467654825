//! Per-branch-site taken/fall-through profiling.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::sync::Mutex;
use superpin::{SharedMem, SuperTool};
use superpin_dbi::{IArg, IPoint, Inserter, Pintool, Trace};
use superpin_isa::{Inst, Program};

/// Counts for one branch site.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BranchSiteStats {
    /// Times the branch was taken.
    pub taken: u64,
    /// Times it fell through.
    pub not_taken: u64,
}

impl BranchSiteStats {
    /// Fraction taken in [0, 1].
    pub fn taken_ratio(&self) -> f64 {
        let total = self.taken + self.not_taken;
        if total == 0 {
            0.0
        } else {
            self.taken as f64 / total as f64
        }
    }
}

/// Profiles every conditional branch. Slice-local counts merge (in slice
/// order) into a shared table — the "shared memory region" of paper §4.5
/// holding structured rather than scalar data.
#[derive(Clone, Debug, Default)]
pub struct BranchProfile {
    local: BTreeMap<u64, BranchSiteStats>,
    merged: Arc<Mutex<BTreeMap<u64, BranchSiteStats>>>,
}

impl BranchProfile {
    /// Creates an empty profiler.
    pub fn new() -> BranchProfile {
        BranchProfile::default()
    }

    /// Slice-local (or serial-mode) per-site counts.
    pub fn local_sites(&self) -> &BTreeMap<u64, BranchSiteStats> {
        &self.local
    }

    /// Snapshot of the merged table.
    pub fn merged_sites(&self) -> BTreeMap<u64, BranchSiteStats> {
        self.merged.lock().expect("mutex poisoned").clone()
    }

    fn observe(&mut self, pc: u64, taken: bool) {
        let site = self.local.entry(pc).or_default();
        if taken {
            site.taken += 1;
        } else {
            site.not_taken += 1;
        }
    }
}

impl Pintool for BranchProfile {
    fn instrument_trace(&mut self, trace: &Trace, inserter: &mut Inserter<Self>) {
        for iref in trace.insts() {
            if matches!(iref.inst, Inst::Branch { .. }) {
                inserter.insert_call(
                    iref.addr,
                    IPoint::After,
                    |tool, ctx, _| tool.observe(ctx.pc, ctx.arg(0) == 1),
                    vec![IArg::BranchTaken],
                );
            }
        }
    }

    fn instrumentation_is_shareable(&self) -> bool {
        // Calls depend only on the trace; all state is touched at
        // analysis time, so clones instrument identically.
        true
    }

    fn name(&self) -> &'static str {
        "branch-profile"
    }
}

impl SuperTool for BranchProfile {
    fn reset(&mut self, _slice_num: u32) {
        self.local.clear();
    }

    fn on_slice_end(&mut self, _slice_num: u32, _shared: &SharedMem) {
        let mut merged = self.merged.lock().expect("mutex poisoned");
        for (&pc, &stats) in &self.local {
            let entry = merged.entry(pc).or_default();
            entry.taken += stats.taken;
            entry.not_taken += stats.not_taken;
        }
    }

    fn fini_shared(&self, _shared: &SharedMem, _program: &Program) -> String {
        format!("branch: {} sites profiled\n", self.merged_sites().len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use superpin::baseline::run_pin;
    use superpin_isa::asm::assemble;
    use superpin_vm::process::Process;

    #[test]
    fn profiles_loop_branch() {
        let program =
            assemble("main:\n li r1, 10\nloop:\n subi r1, r1, 1\n bne r1, r0, loop\n exit 0\n")
                .expect("assemble");
        let branch_pc = program.entry() + 24;
        let pin = run_pin(
            Process::load(1, &program).expect("load"),
            BranchProfile::new(),
        )
        .expect("pin");
        let sites = pin.tool.local_sites();
        let site = sites[&branch_pc];
        assert_eq!(site.taken, 9);
        assert_eq!(site.not_taken, 1);
        assert!((site.taken_ratio() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn merge_accumulates_across_slices() {
        let shared = SharedMem::new();
        let mut slice1 = BranchProfile::new();
        slice1.reset(1);
        slice1.observe(0x10, true);
        slice1.observe(0x10, false);
        slice1.on_slice_end(1, &shared);
        // Clones share the merged table (shared memory across slices).
        let mut slice2 = slice1.clone();
        slice2.reset(2);
        slice2.observe(0x10, true);
        slice2.on_slice_end(2, &shared);
        let merged = slice2.merged_sites();
        assert_eq!(
            merged[&0x10],
            BranchSiteStats {
                taken: 2,
                not_taken: 1
            }
        );
    }
}
