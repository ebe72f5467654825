//! By-name tool lookup: the one table of every `-t` name, for every
//! front end that picks a pintool from a string — the `superpin` CLI,
//! `spin-replay record|replay|diff` (the tool comes from `-t` or from a
//! log's recipe) and the `spin-serve` job queue, where every job line
//! names its tool.
//!
//! [`SuperPinRunner`](superpin::SuperPinRunner) is generic over its
//! tool, and a name only says which tool at run time, so [`lookup`]
//! erases the type once. What it returns is an [`AnyTool`]: it builds a
//! boxed [`Runner`], runs serial Pin, and renders its merged result
//! through [`SuperTool::fini_shared`]. Nothing past the lookup is
//! generic, so a new operation on runs is one function over
//! `dyn Runner`, not one more generic visitor per front end.

use superpin::baseline::run_pin;
use superpin::{Runner, SharedMem, SpError, SuperTool};
use superpin_isa::Program;
use superpin_replay::{build_runner, ReplayError, RunRecipe};
use superpin_vm::process::Process;

use crate::{
    AssocDCache, AssocDCacheConfig, BblCount, BranchProfile, DCache, DCacheConfig, ICache, ICount1,
    ICount2, ITrace, InsMix, MemProfile, Sampler,
};

/// Tool names the service front ends (`spin-serve`, `spin-replay`)
/// accept, in stable order: the tools of [`lookup`]'s table that need
/// no extra configuration (cache geometries, sample budgets).
pub const SERVE_TOOL_NAMES: &[&str] = &[
    "icount1", "icount2", "bblcount", "insmix", "itrace", "branch", "mem",
];

/// Builds one tool of the table.
type MakeTool = fn() -> Box<dyn AnyTool>;

/// Every `-t` name with its constructor, in the `superpin` CLI's order.
const TOOLS: &[(&str, MakeTool)] = &[
    ("icount1", || load(ICount1::new)),
    ("icount2", || load(ICount2::new)),
    ("dcache", || {
        load(|shared| DCache::new(shared, DCacheConfig::small()))
    }),
    ("dcache-assoc", || {
        load(|shared| AssocDCache::new(shared, AssocDCacheConfig::small()))
    }),
    ("icache", || {
        load(|shared| ICache::new(shared, DCacheConfig::small()))
    }),
    ("bblcount", || load(|_| BblCount::new())),
    ("insmix", || load(InsMix::new)),
    ("itrace", || load(|_| ITrace::new())),
    ("branch", || load(|_| BranchProfile::new())),
    ("mem", || load(MemProfile::new)),
    // Ends every slice early through `SP_EndSlice`: a SuperPin-only tool.
    ("sampler", || {
        Box::new(Loaded {
            tool: Sampler::new(500),
            shared: SharedMem::new(),
            pin_mode: false,
        })
    }),
];

/// A tool picked by name, with its type erased and its own
/// [`SharedMem`]. `-sp 0|1` only picks which of [`pin`](AnyTool::pin)
/// and [`runner`](AnyTool::runner) runs it; [`render`](AnyTool::render)
/// reads the merged result either way.
pub trait AnyTool {
    /// Builds a runner for `recipe` driving a clone of this tool, as
    /// [`build_runner`] does (`threads` and `replaying` as there).
    ///
    /// # Errors
    ///
    /// As [`build_runner`].
    fn runner(
        &self,
        recipe: &RunRecipe,
        threads: usize,
        replaying: bool,
    ) -> Result<Box<dyn Runner>, ReplayError>;

    /// Whether [`pin`](AnyTool::pin) means anything for this tool
    /// (`sampler` ends slices, so it needs them).
    fn has_pin_mode(&self) -> bool;

    /// Runs `program` under serial Pin with a clone of this tool, then
    /// merges the run as slice 1, so [`render`](AnyTool::render) reads
    /// it exactly as it reads a SuperPin run's in-order merges.
    ///
    /// # Errors
    ///
    /// Load and guest errors.
    fn pin(&self, program: &Program) -> Result<(), SpError>;

    /// The tool's merged result as the lines the `superpin` CLI prints
    /// ([`SuperTool::fini_shared`]).
    fn render(&self, program: &Program) -> String;
}

struct Loaded<T> {
    tool: T,
    shared: SharedMem,
    pin_mode: bool,
}

fn load<T: SuperTool>(make: impl FnOnce(&SharedMem) -> T) -> Box<dyn AnyTool> {
    let shared = SharedMem::new();
    Box::new(Loaded {
        tool: make(&shared),
        shared,
        pin_mode: true,
    })
}

impl<T: SuperTool> AnyTool for Loaded<T> {
    fn runner(
        &self,
        recipe: &RunRecipe,
        threads: usize,
        replaying: bool,
    ) -> Result<Box<dyn Runner>, ReplayError> {
        let runner = build_runner(recipe, threads, replaying, self.tool.clone(), &self.shared)?;
        Ok(Box::new(runner))
    }

    fn has_pin_mode(&self) -> bool {
        self.pin_mode
    }

    fn pin(&self, program: &Program) -> Result<(), SpError> {
        let mut pin = run_pin(Process::load(1, program)?, self.tool.clone())?;
        pin.tool.on_slice_end(1, &self.shared);
        Ok(())
    }

    fn render(&self, program: &Program) -> String {
        self.tool.fini_shared(&self.shared, program)
    }
}

/// Every name [`lookup`] resolves, in the `superpin` CLI's order.
pub fn tool_names() -> impl Iterator<Item = &'static str> {
    TOOLS.iter().map(|&(name, _)| name)
}

/// The tool registered under `name`, freshly built with its own
/// [`SharedMem`]; `None` for a name outside the table.
pub fn lookup(name: &str) -> Option<Box<dyn AnyTool>> {
    TOOLS
        .iter()
        .find(|&&(known, _)| known == name)
        .map(|(_, make)| make())
}

/// [`lookup`] restricted to [`SERVE_TOOL_NAMES`].
pub fn lookup_serve(name: &str) -> Option<Box<dyn AnyTool>> {
    lookup(name).filter(|_| SERVE_TOOL_NAMES.contains(&name))
}

#[cfg(test)]
mod tests {
    use super::*;
    use superpin_workloads::Scale;

    #[test]
    fn the_table_holds_every_cli_tool_and_the_serve_subset() {
        let names: Vec<&str> = tool_names().collect();
        assert_eq!(
            names,
            [
                "icount1",
                "icount2",
                "dcache",
                "dcache-assoc",
                "icache",
                "bblcount",
                "insmix",
                "itrace",
                "branch",
                "mem",
                "sampler"
            ]
        );
        for name in &names {
            assert!(lookup(name).is_some(), "{name} failed to resolve");
            let pin_mode = lookup(name).is_some_and(|tool| tool.has_pin_mode());
            assert_eq!(pin_mode, *name != "sampler", "{name}");
        }
        for name in SERVE_TOOL_NAMES {
            assert!(lookup_serve(name).is_some(), "{name} is not served");
        }
        assert!(lookup_serve("dcache").is_none());
        assert!(lookup("nope").is_none());
        assert!(lookup_serve("nope").is_none());
    }

    #[test]
    fn pin_and_superpin_render_the_same_merged_count() {
        let recipe = RunRecipe::standard("gcc", Scale::Tiny);
        let program = recipe.program().expect("catalog workload");
        let serial = lookup("icount2").expect("registered");
        serial.pin(&program).expect("pin");
        let sliced = lookup("icount2").expect("registered");
        sliced
            .runner(&recipe, 1, false)
            .expect("runner")
            .run_to_end()
            .expect("run");
        let rendered = serial.render(&program);
        assert!(rendered.starts_with("Total Count: "), "{rendered}");
        assert_eq!(rendered, sliced.render(&program));
    }
}
