//! Basic-block execution profiling (Pin's classic `bblcount` shape).

use std::collections::BTreeMap;
use std::sync::Arc;
use std::sync::Mutex;
use superpin::{SharedMem, SuperTool};
use superpin_dbi::{IPoint, Inserter, Pintool, Trace};
use superpin_isa::Program;

/// Counts executions of every basic block, keyed by head address.
///
/// Useful on its own (hot-block reports) and as the execution-frequency
/// input to coverage or layout tools. Slice-local counts merge in slice
/// order into a shared table.
#[derive(Clone, Debug, Default)]
pub struct BblCount {
    local: BTreeMap<u64, u64>,
    merged: Arc<Mutex<BTreeMap<u64, u64>>>,
}

impl BblCount {
    /// Creates an empty profiler.
    pub fn new() -> BblCount {
        BblCount::default()
    }

    /// Slice-local (or serial-mode) per-block counts.
    pub fn local_blocks(&self) -> &BTreeMap<u64, u64> {
        &self.local
    }

    /// Snapshot of the merged table.
    pub fn merged_blocks(&self) -> BTreeMap<u64, u64> {
        self.merged.lock().expect("mutex poisoned").clone()
    }

    /// The `n` hottest blocks, descending, from the merged table.
    pub fn hottest(&self, n: usize) -> Vec<(u64, u64)> {
        let mut blocks: Vec<(u64, u64)> = self
            .merged
            .lock()
            .expect("mutex poisoned")
            .iter()
            .map(|(&a, &c)| (a, c))
            .collect();
        blocks.sort_by_key(|&(_, count)| std::cmp::Reverse(count));
        blocks.truncate(n);
        blocks
    }
}

impl Pintool for BblCount {
    fn instrument_trace(&mut self, trace: &Trace, inserter: &mut Inserter<Self>) {
        for bbl in trace.bbls() {
            inserter.insert_call(
                bbl.head_addr(),
                IPoint::Before,
                |tool, ctx, _| *tool.local.entry(ctx.pc).or_insert(0) += 1,
                vec![],
            );
        }
    }

    fn instrumentation_is_shareable(&self) -> bool {
        // Calls depend only on the trace; all state is touched at
        // analysis time, so clones instrument identically.
        true
    }

    fn name(&self) -> &'static str {
        "bblcount"
    }
}

impl SuperTool for BblCount {
    fn reset(&mut self, _slice_num: u32) {
        self.local.clear();
    }

    fn on_slice_end(&mut self, _slice_num: u32, _shared: &SharedMem) {
        let mut merged = self.merged.lock().expect("mutex poisoned");
        for (&addr, &count) in &self.local {
            *merged.entry(addr).or_insert(0) += count;
        }
    }

    /// The five hottest blocks, each named by the symbol it lies in.
    fn fini_shared(&self, _shared: &SharedMem, program: &Program) -> String {
        let mut out = String::from("bblcount: hottest blocks:\n");
        for (addr, count) in self.hottest(5) {
            let name = program
                .symbol_for_addr(addr)
                .map_or("?", |sym| sym.name.as_str());
            out += &format!("  {addr:#08x} [{name:<10}] {count:>8} executions\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use superpin::baseline::run_pin;
    use superpin_isa::asm::assemble;
    use superpin_vm::process::Process;

    #[test]
    fn loop_head_is_hottest() {
        let program =
            assemble("main:\n li r1, 50\nloop:\n subi r1, r1, 1\n bne r1, r0, loop\n exit 0\n")
                .expect("assemble");
        let loop_head = program.entry() + 16;
        let pin = run_pin(Process::load(1, &program).expect("load"), BblCount::new()).expect("pin");
        let blocks = pin.tool.local_blocks();
        // The first pass through the loop body runs inside the entry
        // trace's block (blocks split at control flow, and `li` falls
        // through); the remaining 49 iterations re-enter at the head.
        assert_eq!(blocks[&loop_head], 49);
        // Block counts × block sizes must reproduce the dynamic count.
        // (loop body = 2 insts; entry li = part of the first trace.)
        let weighted: u64 = blocks
            .iter()
            .map(|(&addr, &count)| {
                // Count instructions in the block at `addr`.
                let trace = superpin_dbi::discover_trace(
                    &Process::load(1, &program).expect("load").mem,
                    addr,
                )
                .expect("trace");
                let bbl_len = trace.bbls()[0].num_insts() as u64;
                count * bbl_len
            })
            .sum();
        assert_eq!(weighted, pin.insts);
    }

    #[test]
    fn merge_accumulates_and_ranks() {
        let shared = SharedMem::new();
        let mut slice1 = BblCount::new();
        slice1.reset(1);
        slice1.local.insert(0x10, 5);
        slice1.local.insert(0x20, 1);
        slice1.on_slice_end(1, &shared);
        let mut slice2 = slice1.clone();
        slice2.reset(2);
        slice2.local.insert(0x10, 2);
        slice2.on_slice_end(2, &shared);
        assert_eq!(slice2.merged_blocks()[&0x10], 7);
        assert_eq!(slice2.hottest(1), vec![(0x10, 7)]);
    }
}
