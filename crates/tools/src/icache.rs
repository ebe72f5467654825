//! An instruction-cache simulator SuperTool.
//!
//! Pin's toolkit ships an icache sibling to `dcache.cpp`; this tool
//! reuses the direct-mapped assumed-hit reconciliation of [`DCache`]
//! (paper §5.2) but feeds it instruction fetch addresses rather than
//! data effective addresses.

use crate::dcache::{DCache, DCacheConfig, DCacheResult};
use superpin::{SharedMem, SuperTool};
use superpin_dbi::{IArg, IPoint, Inserter, Pintool, Trace};
use superpin_isa::Program;

/// Direct-mapped instruction-cache simulator with cross-slice
/// reconciliation.
#[derive(Clone, Debug)]
pub struct ICache {
    inner: DCache,
}

impl ICache {
    /// Creates the tool and its shared areas.
    pub fn new(shared: &SharedMem, cfg: DCacheConfig) -> ICache {
        ICache {
            inner: DCache::new(shared, cfg),
        }
    }

    /// The cache geometry.
    pub fn config(&self) -> DCacheConfig {
        self.inner.config()
    }

    /// Slice-local (or serial-mode) totals before reconciliation.
    pub fn local_result(&self) -> DCacheResult {
        self.inner.local_result()
    }

    /// Merged totals from shared memory (SuperPin mode).
    pub fn merged_result(&self, shared: &SharedMem) -> DCacheResult {
        self.inner.merged_result(shared)
    }

    /// Simulates one instruction fetch.
    pub fn fetch(&mut self, pc: u64) {
        self.inner.access(pc);
    }
}

impl Pintool for ICache {
    fn instrument_trace(&mut self, trace: &Trace, inserter: &mut Inserter<Self>) {
        for iref in trace.insts() {
            inserter.insert_call(
                iref.addr,
                IPoint::Before,
                |tool, ctx, _| tool.fetch(ctx.arg(0)),
                vec![IArg::InstPtr],
            );
        }
    }

    fn instrumentation_is_shareable(&self) -> bool {
        // Calls depend only on the trace; all state is touched at
        // analysis time, so clones instrument identically.
        true
    }

    fn name(&self) -> &'static str {
        "icache"
    }
}

impl SuperTool for ICache {
    fn reset(&mut self, slice_num: u32) {
        self.inner.reset(slice_num);
    }

    fn on_slice_end(&mut self, slice_num: u32, shared: &SharedMem) {
        self.inner.on_slice_end(slice_num, shared);
    }

    fn fini_shared(&self, shared: &SharedMem, _program: &Program) -> String {
        format!("icache: {}\n", self.merged_result(shared))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use superpin::baseline::run_pin;
    use superpin_isa::asm::assemble;
    use superpin_vm::process::Process;

    #[test]
    fn hot_loop_hits_after_cold_fetches() {
        let program =
            assemble("main:\n li r1, 100\nloop:\n subi r1, r1, 1\n bne r1, r0, loop\n exit 0\n")
                .expect("assemble");
        let shared = SharedMem::new();
        let pin = run_pin(
            Process::load(1, &program).expect("load"),
            ICache::new(&shared, DCacheConfig::small()),
        )
        .expect("pin");
        let result = pin.tool.local_result();
        assert_eq!(result.accesses(), pin.insts);
        // The whole program fits in one or two lines: a few cold misses,
        // everything else hits.
        assert!(result.misses <= 2, "misses {}", result.misses);
        assert!(result.hits > 190);
    }

    #[test]
    fn sliced_icache_matches_serial() {
        // Reuse the tool-level reconciliation directly on a fetch stream.
        use superpin::SuperTool as _;
        let stream: Vec<u64> = (0..400u64).map(|i| 0x1000 + (i % 7) * 1024).collect();
        let shared = SharedMem::new();
        let mut serial = ICache::new(&shared, DCacheConfig::small());
        for &pc in &stream {
            serial.fetch(pc);
        }
        let want = serial.local_result();

        let shared = SharedMem::new();
        let template = ICache::new(&shared, DCacheConfig::small());
        let mut tool = template.clone();
        tool.reset(1);
        for (i, &pc) in stream.iter().enumerate() {
            tool.fetch(pc);
            if i == 137 {
                tool.on_slice_end(1, &shared);
                tool = template.clone();
                tool.reset(2);
            }
        }
        tool.on_slice_end(2, &shared);
        assert_eq!(tool.merged_result(&shared), want);
    }
}
