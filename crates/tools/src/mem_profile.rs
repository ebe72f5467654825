//! Load/store profiling via an auto-merged shared area.
//!
//! Demonstrates `SP_CreateSharedArea`'s *automatic* merge mode: the tool
//! never writes a merge function for its counters — it hands its local
//! words to the area and [`superpin::AutoMerge::Add`] combines them.

use superpin::{AreaId, AutoMerge, SharedMem, SuperTool};
use superpin_dbi::{IArg, IPoint, Inserter, Pintool, Trace};
use superpin_isa::Program;

/// Aggregated memory-operation totals.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemProfileTotals {
    /// Load instructions executed.
    pub loads: u64,
    /// Store instructions executed.
    pub stores: u64,
    /// Bytes read by loads.
    pub bytes_read: u64,
    /// Bytes written by stores.
    pub bytes_written: u64,
}

/// Counts loads, stores, and bytes moved.
#[derive(Clone, Debug)]
pub struct MemProfile {
    totals: MemProfileTotals,
    area: AreaId,
}

impl MemProfile {
    /// Creates the tool with an [`AutoMerge::Add`] area of four words.
    pub fn new(shared: &SharedMem) -> MemProfile {
        MemProfile {
            totals: MemProfileTotals::default(),
            area: shared.create_area(4, AutoMerge::Add),
        }
    }

    /// Slice-local totals.
    pub fn local_totals(&self) -> MemProfileTotals {
        self.totals
    }

    /// Merged totals from the shared area.
    pub fn merged_totals(&self, shared: &SharedMem) -> MemProfileTotals {
        let area = shared.area(self.area);
        MemProfileTotals {
            loads: area.read(0),
            stores: area.read(1),
            bytes_read: area.read(2),
            bytes_written: area.read(3),
        }
    }
}

impl Pintool for MemProfile {
    fn instrument_trace(&mut self, trace: &Trace, inserter: &mut Inserter<Self>) {
        for iref in trace.insts() {
            if iref.inst.is_mem_read() || iref.inst.is_mem_write() {
                inserter.insert_call(
                    iref.addr,
                    IPoint::Before,
                    |tool, ctx, _| {
                        let size = ctx.arg(0);
                        if ctx.arg(1) == 1 {
                            tool.totals.stores += 1;
                            tool.totals.bytes_written += size;
                        } else {
                            tool.totals.loads += 1;
                            tool.totals.bytes_read += size;
                        }
                    },
                    vec![IArg::MemSize, IArg::IsMemWrite],
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
        "mem-profile"
    }
}

impl SuperTool for MemProfile {
    fn reset(&mut self, _slice_num: u32) {
        self.totals = MemProfileTotals::default();
    }

    fn on_slice_end(&mut self, _slice_num: u32, shared: &SharedMem) {
        // Automatic merge: hand the local words to the Add-mode area.
        shared.area(self.area).merge_locals(&[
            self.totals.loads,
            self.totals.stores,
            self.totals.bytes_read,
            self.totals.bytes_written,
        ]);
    }

    fn fini_shared(&self, shared: &SharedMem, _program: &Program) -> String {
        let totals = self.merged_totals(shared);
        format!(
            "mem: {} loads ({} B), {} stores ({} B)\n",
            totals.loads, totals.bytes_read, totals.stores, totals.bytes_written
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use superpin::baseline::run_pin;
    use superpin_isa::asm::assemble;
    use superpin_vm::process::Process;

    #[test]
    fn counts_loads_and_stores_with_widths() {
        let program = assemble(
            r#"
            .data
            buf: .word 1, 2
            .text
            main:
                la  r2, buf
                ld  r3, 0(r2)
                ldw r4, 8(r2)
                stb r3, 1(r2)
                st  r4, 8(r2)
                exit 0
            "#,
        )
        .expect("assemble");
        let shared = SharedMem::new();
        let pin = run_pin(
            Process::load(1, &program).expect("load"),
            MemProfile::new(&shared),
        )
        .expect("pin");
        let totals = pin.tool.local_totals();
        assert_eq!(totals.loads, 2);
        assert_eq!(totals.stores, 2);
        assert_eq!(totals.bytes_read, 8 + 4);
        assert_eq!(totals.bytes_written, 1 + 8);
    }

    #[test]
    fn auto_merge_adds_slices() {
        let shared = SharedMem::new();
        let mut slice1 = MemProfile::new(&shared);
        slice1.reset(1);
        slice1.totals = MemProfileTotals {
            loads: 1,
            stores: 2,
            bytes_read: 8,
            bytes_written: 16,
        };
        slice1.on_slice_end(1, &shared);
        let mut slice2 = slice1.clone();
        slice2.reset(2);
        slice2.totals.loads = 9;
        slice2.on_slice_end(2, &shared);
        let merged = slice2.merged_totals(&shared);
        assert_eq!(merged.loads, 10);
        assert_eq!(merged.stores, 2);
        assert_eq!(merged.bytes_written, 16);
    }
}
