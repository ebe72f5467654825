//! The Pintool trait.

use crate::cache::CompiledTrace;
use crate::inserter::Inserter;
use crate::trace::{InstRef, Trace};
use superpin_vm::kernel::SyscallRecord;
use superpin_vm::process::Process;

/// What one [`Pintool::probe_boundary`] call ran. The engine charges it
/// exactly as it charges a lowered if/then call
/// ([`Inserter::insert_if_then_call`]) with these argument counts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BoundaryProbe {
    /// The inlined check ran, reading this many arguments: one
    /// [`if_checks`](crate::EngineStats::if_checks), charged
    /// [`CostModel::if_check`](crate::CostModel::if_check).
    pub if_check: Option<usize>,
    /// The guarded call ran, reading this many arguments and charging
    /// these extra cycles: one
    /// [`then_calls`](crate::EngineStats::then_calls), charged
    /// [`CostModel::call`](crate::CostModel::call) plus the extra.
    pub then_call: Option<(usize, u64)>,
    /// Stop before the trace's first instruction executes
    /// ([`EngineStop::ToolStop`](crate::EngineStop::ToolStop)).
    pub stop: bool,
}

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

    /// Whether [`instrument_trace`](Pintool::instrument_trace) for the
    /// trace made of `insts` (its instructions in order) is a pure
    /// function of the trace — same calls, in the same places, with no
    /// tool-state reads or writes at instrumentation time — for *every*
    /// clone of this tool.
    ///
    /// Returning `true` lets a host runner reuse one compiled trace
    /// across many engines running clones of the tool (SuperPin's
    /// slices), skipping redundant instrument+compile work. This is a
    /// host-side optimization only: each engine's code cache still
    /// accounts the compile, so simulated reports are unchanged. The
    /// conservative default is `false`.
    ///
    /// The instructions come from a freshly discovered trace or from a
    /// peer's compiled one, whichever the engine holds; both list the
    /// same [`InstRef`]s for the same trace.
    fn instrumentation_is_shareable(&self, insts: impl Iterator<Item = InstRef> + Clone) -> bool {
        let _ = insts;
        false
    }

    /// [`instrumentation_is_shareable`](Pintool::instrumentation_is_shareable)
    /// for a peer's compiled trace. The default hands the question the
    /// template's instructions one by one; a tool whose answer turns on
    /// where a few addresses fall can instead search the template's
    /// slots, which are sorted by address and cover `[entry,
    /// fallthrough)` back to back.
    fn template_is_shareable(&self, template: &CompiledTrace<Self>) -> bool {
        self.instrumentation_is_shareable(template.inst_refs())
    }

    /// SuperPin's slice-boundary detector (paper §4.4), run by the engine
    /// each time a trace is entered at its split point
    /// ([`Engine::set_split_point`](crate::Engine::set_split_point)),
    /// after the entry's dispatch and before the trace's first
    /// instruction, with the guest state as that instruction would see
    /// it. The split point heads every trace that holds it, so this is
    /// every time the guest reaches it. What the probe reports running is
    /// charged as the if/then call it stands for, and a `stop` ends the
    /// run before the instruction executes.
    ///
    /// The default runs nothing. It is the one hook a tool gets outside
    /// its inserted calls, and exists for the slice wrapper alone: the
    /// detector belongs to SuperPin, not to the tool it wraps.
    ///
    /// The probe runs with inlined counts still pending: it is
    /// deliberately not a flush point of
    /// [`Inserter::insert_count`](crate::Inserter::insert_count), because
    /// it runs at every entry of the boundary trace (about 1.8 M times a
    /// `steady_t1` repetition). So it must not read an analysis counter;
    /// registers, memory and its own state are exact.
    #[inline]
    fn probe_boundary(&mut self, process: &Process) -> BoundaryProbe {
        let _ = process;
        BoundaryProbe::default()
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
