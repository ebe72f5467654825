//! By-name tool dispatch: the one table for front ends that pick a
//! pintool from a string — the `spin-serve` job queue, where every job
//! line names its tool, and `spin-replay record|replay|diff`, where the
//! tool comes from `-t` or from a log's recipe.
//!
//! [`SuperPinRunner`](superpin::SuperPinRunner) is generic over its
//! tool, so "build the runner for whatever tool this job names" needs
//! rank-2 dispatch: a caller-supplied [`ToolVisitor`] whose generic
//! `visit` is instantiated with the concrete tool type behind the name.
//! The fleet's visitor boxes the typed runner behind an object-safe
//! driver trait, erasing the type exactly once, at job admission;
//! `spin-replay`'s visitors run the record, replay or diff directly,
//! and `diff` nests a second lookup inside the first so each log gets
//! the tool it names.

use superpin::{SharedMem, SuperTool};

use crate::{BblCount, BranchProfile, ICount1, ICount2, ITrace, InsMix, MemProfile};

/// Tool names the registry dispatches, in stable order. The names
/// match the `superpin` CLI's `-t` values; tools that need extra
/// configuration (cache geometries, sample budgets) are deliberately
/// not available by bare name.
pub const SERVE_TOOL_NAMES: &[&str] = &[
    "icount1", "icount2", "bblcount", "insmix", "itrace", "branch", "mem",
];

/// A computation generic over which [`SuperTool`] it receives — the
/// rank-2 half of [`with_tool`].
pub trait ToolVisitor {
    /// The visitor's result type.
    type Out;

    /// Runs with the concrete tool built for the requested name.
    fn visit<T: SuperTool>(self, tool: T) -> Self::Out;
}

/// Builds the tool registered under `name` (backed by `shared`) and
/// hands it to the visitor. `None` for names outside
/// [`SERVE_TOOL_NAMES`].
pub fn with_tool<V: ToolVisitor>(name: &str, shared: &SharedMem, visitor: V) -> Option<V::Out> {
    match name {
        "icount1" => Some(visitor.visit(ICount1::new(shared))),
        "icount2" => Some(visitor.visit(ICount2::new(shared))),
        "bblcount" => Some(visitor.visit(BblCount::new())),
        "insmix" => Some(visitor.visit(InsMix::new(shared))),
        "itrace" => Some(visitor.visit(ITrace::new())),
        "branch" => Some(visitor.visit(BranchProfile::new())),
        "mem" => Some(visitor.visit(MemProfile::new(shared))),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct NameOfTool;

    impl ToolVisitor for NameOfTool {
        type Out = &'static str;

        fn visit<T: SuperTool>(self, _tool: T) -> &'static str {
            std::any::type_name::<T>()
        }
    }

    #[test]
    fn every_registered_name_dispatches() {
        let shared = SharedMem::new();
        for name in SERVE_TOOL_NAMES {
            let ty = with_tool(name, &shared, NameOfTool);
            assert!(ty.is_some(), "{name} failed to dispatch");
        }
        assert_eq!(with_tool("dcache", &shared, NameOfTool), None);
        assert_eq!(with_tool("nope", &shared, NameOfTool), None);
    }

    #[test]
    fn dispatch_reaches_the_named_type() {
        let shared = SharedMem::new();
        let ty = with_tool("icount2", &shared, NameOfTool).unwrap();
        assert!(ty.ends_with("ICount2"), "dispatched {ty}");
    }
}
