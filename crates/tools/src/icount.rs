//! Instruction-counting tools (paper §5.1).
//!
//! "Two versions of the traditional icount pintool are shipped with Pin.
//! The first version, icount1, instruments the application at the
//! granularity of an instruction. ... An optimized version of this
//! Pintool is called icount2, which operates at a basic-block
//! granularity."

use superpin::{AreaId, AutoMerge, SharedMem, SuperTool};
use superpin_dbi::{IPoint, Inserter, Pintool, Trace};

/// `icount1`: a counter increment before every instruction, inlined
/// ([`Inserter::insert_count`]) as Pin inlines `docount`.
#[derive(Clone, Debug)]
pub struct ICount1 {
    /// Slice-local count (`icount` in the paper's listing).
    count: u64,
    area: AreaId,
}

impl ICount1 {
    /// Creates the tool, allocating its shared total in `shared`
    /// (`SP_CreateSharedArea`).
    pub fn new(shared: &SharedMem) -> ICount1 {
        ICount1 {
            count: 0,
            area: shared.create_area(1, AutoMerge::Manual),
        }
    }

    /// The slice-local (or, under plain Pin, global) count.
    pub fn local_count(&self) -> u64 {
        self.count
    }

    /// The merged total ("Total Count" in the paper's Fini).
    pub fn total(&self, shared: &SharedMem) -> u64 {
        shared.area(self.area).read(0)
    }
}

impl Pintool for ICount1 {
    fn instrument_trace(&mut self, trace: &Trace, inserter: &mut Inserter<Self>) {
        for iref in trace.insts() {
            inserter.insert_count(iref.addr, IPoint::Before, 1, |tool| &mut tool.count);
        }
    }

    fn instrumentation_is_shareable(&self, _trace: &Trace) -> bool {
        // Calls depend only on the trace; all state is touched at
        // analysis time, so clones instrument identically.
        true
    }

    fn name(&self) -> &'static str {
        "icount1"
    }
}

impl SuperTool for ICount1 {
    fn reset(&mut self, _slice_num: u32) {
        self.count = 0;
    }

    fn on_slice_end(&mut self, _slice_num: u32, shared: &SharedMem) {
        shared.area(self.area).add(0, self.count);
    }
}

/// `icount2`: one counter increment per basic block, adding the block's
/// instruction count — the SuperPin version of the paper's Figure 2,
/// inlined like `icount1`'s.
#[derive(Clone, Debug)]
pub struct ICount2 {
    count: u64,
    area: AreaId,
}

impl ICount2 {
    /// Creates the tool, allocating its shared total in `shared`.
    pub fn new(shared: &SharedMem) -> ICount2 {
        ICount2 {
            count: 0,
            area: shared.create_area(1, AutoMerge::Manual),
        }
    }

    /// The slice-local (or, under plain Pin, global) count.
    pub fn local_count(&self) -> u64 {
        self.count
    }

    /// The merged total.
    pub fn total(&self, shared: &SharedMem) -> u64 {
        shared.area(self.area).read(0)
    }
}

impl Pintool for ICount2 {
    fn instrument_trace(&mut self, trace: &Trace, inserter: &mut Inserter<Self>) {
        for bbl in trace.bbls() {
            let n = bbl.num_insts() as u64;
            inserter.insert_count(bbl.head_addr(), IPoint::Before, n, |tool| &mut tool.count);
        }
    }

    fn instrumentation_is_shareable(&self, _trace: &Trace) -> bool {
        // Calls depend only on the trace; all state is touched at
        // analysis time, so clones instrument identically.
        true
    }

    fn name(&self) -> &'static str {
        "icount2"
    }
}

impl SuperTool for ICount2 {
    /// The paper's `ToolReset`.
    fn reset(&mut self, _slice_num: u32) {
        self.count = 0;
    }

    /// The paper's `Merge`: `*sharedData += icount`.
    fn on_slice_end(&mut self, _slice_num: u32, shared: &SharedMem) {
        shared.area(self.area).add(0, self.count);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use superpin::baseline::{run_native, run_pin};
    use superpin_isa::asm::assemble;
    use superpin_vm::process::Process;

    const SRC: &str = "main:\n li r1, 300\nloop:\n subi r1, r1, 1\n bne r1, r0, loop\n exit 0\n";

    fn process() -> Process {
        Process::load(1, &assemble(SRC).expect("assemble")).expect("load")
    }

    #[test]
    fn icount1_matches_ground_truth_under_pin() {
        let shared = SharedMem::new();
        let native = run_native(process()).expect("native");
        let pin = run_pin(process(), ICount1::new(&shared)).expect("pin");
        assert_eq!(pin.tool.local_count(), native.insts);
    }

    #[test]
    fn icount2_matches_icount1_output() {
        // "While the output of both tools will be identical, the icount2
        // tool will have much lower overhead."
        let shared = SharedMem::new();
        let pin1 = run_pin(process(), ICount1::new(&shared)).expect("pin1");
        let pin2 = run_pin(process(), ICount2::new(&shared)).expect("pin2");
        assert_eq!(pin1.tool.local_count(), pin2.tool.local_count());
        assert!(
            pin2.cycles < pin1.cycles,
            "icount2 ({}) must be cheaper than icount1 ({})",
            pin2.cycles,
            pin1.cycles
        );
    }

    #[test]
    fn merge_accumulates_into_shared_area() {
        let shared = SharedMem::new();
        let mut tool = ICount2::new(&shared);
        tool.count = 41;
        tool.on_slice_end(1, &shared);
        tool.reset(2);
        assert_eq!(tool.local_count(), 0);
        tool.count = 1;
        tool.on_slice_end(2, &shared);
        assert_eq!(tool.total(&shared), 42);
    }
}
