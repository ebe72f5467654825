//! An instruction tracer with buffered, in-order merging.
//!
//! Paper §4.5: "if we are tracing instructions, the slice output will be
//! buffered, then appended to the output during merging." Because merges
//! run in slice order, the concatenated trace equals the serial trace.

use superpin::{SharedMem, SuperTool};
use superpin_dbi::{IArg, IPoint, Inserter, InstRef, Pintool, Trace};
use superpin_isa::Program;

/// Traces every executed instruction address into a per-slice buffer.
#[derive(Clone, Debug, Default)]
pub struct ITrace {
    buffer: Vec<u8>,
}

impl ITrace {
    /// Creates an empty tracer.
    pub fn new() -> ITrace {
        ITrace::default()
    }

    /// The slice-local buffer (little-endian u64 addresses).
    pub fn local_buffer(&self) -> &[u8] {
        &self.buffer
    }

    /// Decodes a merged (or local) buffer back into addresses.
    pub fn decode(bytes: &[u8]) -> Vec<u64> {
        bytes
            .chunks_exact(8)
            .map(|chunk| u64::from_le_bytes(chunk.try_into().expect("chunk is 8 bytes")))
            .collect()
    }

    /// The merged trace from shared memory.
    pub fn merged_trace(shared: &SharedMem) -> Vec<u64> {
        ITrace::decode(&shared.output())
    }
}

impl Pintool for ITrace {
    fn instrument_trace(&mut self, trace: &Trace, inserter: &mut Inserter<Self>) {
        for iref in trace.insts() {
            inserter.insert_call(
                iref.addr,
                IPoint::Before,
                |tool, ctx, _| tool.buffer.extend_from_slice(&ctx.arg(0).to_le_bytes()),
                vec![IArg::InstPtr],
            );
        }
    }

    fn instrumentation_is_shareable(&self, _insts: impl Iterator<Item = InstRef> + Clone) -> bool {
        // Calls depend only on the trace; all state is touched at
        // analysis time, so clones instrument identically.
        true
    }

    fn name(&self) -> &'static str {
        "itrace"
    }
}

impl SuperTool for ITrace {
    fn reset(&mut self, _slice_num: u32) {
        self.buffer.clear();
    }

    fn on_slice_end(&mut self, _slice_num: u32, shared: &SharedMem) {
        shared.append_output(&self.buffer);
    }

    fn fini_shared(&self, shared: &SharedMem, _program: &Program) -> String {
        let traced = ITrace::merged_trace(shared).len();
        format!("itrace: {traced} instructions traced\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use superpin::baseline::run_pin;
    use superpin_isa::asm::assemble;
    use superpin_vm::process::Process;

    #[test]
    fn serial_trace_follows_execution_order() {
        let program =
            assemble("main:\n li r1, 2\nloop:\n subi r1, r1, 1\n bne r1, r0, loop\n exit 0\n")
                .expect("assemble");
        let entry = program.entry();
        let pin = run_pin(Process::load(1, &program).expect("load"), ITrace::new()).expect("pin");
        let trace = ITrace::decode(pin.tool.local_buffer());
        assert_eq!(trace.len() as u64, pin.insts);
        assert_eq!(trace[0], entry);
        // Loop body visited twice.
        let loop_head = entry + 16;
        assert_eq!(trace.iter().filter(|&&pc| pc == loop_head).count(), 2);
    }

    #[test]
    fn merge_appends_in_slice_order() {
        let shared = SharedMem::new();
        let mut slice1 = ITrace::new();
        slice1.reset(1);
        slice1.buffer.extend_from_slice(&1u64.to_le_bytes());
        slice1.on_slice_end(1, &shared);
        let mut slice2 = ITrace::new();
        slice2.reset(2);
        slice2.buffer.extend_from_slice(&2u64.to_le_bytes());
        slice2.on_slice_end(2, &shared);
        assert_eq!(ITrace::merged_trace(&shared), vec![1, 2]);
    }
}
