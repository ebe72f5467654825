//! The Pintool trait.

use crate::inserter::Inserter;
use crate::trace::Trace;
use superpin_vm::kernel::SyscallRecord;

/// A plug-in analysis tool, the analogue of a Pintool.
///
/// The engine calls [`instrument_trace`](Pintool::instrument_trace) once
/// per trace *compilation* (so re-executions of cached traces pay no
/// instrumentation-time cost, exactly like Pin), and
/// [`on_syscall`](Pintool::on_syscall) each time a syscall is serviced or
/// played back. A tool renders its result from
/// `superpin::SuperTool::fini_shared`, after its data has merged.
///
/// Tools must be `Clone`: SuperPin gives every slice "their own copy of
/// Pin and the Pintool" (paper §4.5), which in this reproduction is a
/// clone of the registered tool, reset via the `SP_Init` reset function.
pub trait Pintool: Sized + Send {
    /// Inspect a newly compiled trace and insert analysis calls.
    fn instrument_trace(&mut self, trace: &Trace, inserter: &mut Inserter<Self>);

    /// Whether [`instrument_trace`](Pintool::instrument_trace) is a pure
    /// function of the trace — same calls, in the same places, with no
    /// tool-state reads or writes at instrumentation time — for *every*
    /// clone of this tool.
    ///
    /// Returning `true` lets a host runner reuse one compiled trace
    /// across many engines running clones of the tool (SuperPin's
    /// slices), skipping redundant instrument+compile work. This is a
    /// host-side optimization only: each engine's code cache still
    /// accounts the compile, so simulated reports are unchanged. The
    /// conservative default is `false`. Whether a given trace is shared
    /// is then the engine's call: a trace its split point shaped stays
    /// private ([`Engine::set_split_point`](crate::Engine::set_split_point)).
    fn instrumentation_is_shareable(&self) -> bool {
        false
    }

    /// Observe a serviced (or played-back) syscall.
    fn on_syscall(&mut self, record: &SyscallRecord) {
        let _ = record;
    }

    /// Short tool name for reports.
    fn name(&self) -> &'static str {
        "tool"
    }
}

/// A tool that inserts nothing — running under it measures the pure DBI
/// (JIT + dispatch) overhead, the paper's "no instrumentation" baseline.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NullTool;

impl Pintool for NullTool {
    fn instrument_trace(&mut self, _trace: &Trace, _inserter: &mut Inserter<Self>) {}

    fn name(&self) -> &'static str {
        "null"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_tool_inserts_nothing() {
        // Compile-time check that the trait is object-friendly enough for
        // generic engines; behavioural check that no calls are added.
        let mut tool = NullTool;
        let mut inserter = Inserter::new();
        // An empty trace can't be constructed publicly; use a real one.
        let program = superpin_isa::asm::assemble("main:\n jmp main\n").expect("assemble");
        let process = superpin_vm::process::Process::load(1, &program).expect("load");
        let trace = crate::trace::discover_trace(&process.mem, program.entry()).expect("trace");
        tool.instrument_trace(&trace, &mut inserter);
        assert!(inserter.is_empty());
        assert_eq!(tool.name(), "null");
    }
}
