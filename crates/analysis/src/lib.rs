//! Static analysis over decoded SuperPin programs.
//!
//! Pin-style dynamic instrumentation reads and writes guest registers
//! around every analysis call; knowing *statically* which registers
//! matter at each instruction lets the DBI layer both verify its
//! insertions (a clobbered live register is a correctness bug) and
//! skip save/restore work for registers that are provably dead. This
//! crate provides that static layer:
//!
//! - [`cfg::Cfg`] — basic-block discovery and CFG construction, with
//!   conservative handling of indirect branches (every address-taken
//!   instruction is a potential indirect target and CFG root).
//! - [`dataflow`] — a generic worklist solver for monotone forward and
//!   backward problems.
//! - [`liveness`] — backward register liveness, flattened to a
//!   per-instruction [`liveness::LiveMap`] for the DBI layer.
//! - [`reaching`] — reaching definitions with synthetic entry
//!   definitions (the basis of the undefined-read lint).
//! - [`dom`] — iterative dominators and back-edge/loop discovery.
//! - [`lint`] — program lints (undefined register read, unreachable
//!   blocks, fall-off-end, stack imbalance, dead stores, plus the
//!   whole-program lints) behind [`lint::run_lints`] and
//!   [`lint::run_whole_program_lints`]; the `spinlint` binary in
//!   `superpin-tools` is a thin CLI over them.
//!
//! The whole-program layer builds on those blocks:
//!
//! - [`targets`] — interprocedural value analysis resolving indirect
//!   branch/call target sets (with an explicit `Unresolved` top) and
//!   summarizing every store.
//! - [`callgraph`] — function recovery and the interprocedural call
//!   graph, combining direct and resolved indirect edges.
//! - [`loops`] — natural loops and per-block nesting depth from
//!   dominator back edges.
//! - [`smc`] — pages both written and executed (self-modifying code).
//! - [`plan`] — the [`plan::ProgramAnalysis`] aggregate, the
//!   [`plan::SuperblockPlan`] (refined liveness) the DBI engine
//!   consumes, and the [`plan::SoundnessOracle`] that cross-validates dynamic
//!   execution against the static results in debug builds.
//!
//! Everything works on [`superpin_isa::Program`] values — no VM or
//! engine dependency, so the crate sits below `superpin-dbi` in the
//! crate graph and the engine can consume [`liveness::LiveMap`]s.

#![forbid(unsafe_code)]

mod bits;
pub mod callgraph;
pub mod cfg;
pub mod dataflow;
pub mod dom;
pub mod lint;
pub mod liveness;
pub mod loops;
pub mod plan;
pub mod reaching;
pub mod regset;
pub mod smc;
pub mod targets;

pub use callgraph::{CallGraph, FuncInfo};
pub use cfg::{AnalysisError, Block, BlockId, Cfg, Terminator};
pub use dataflow::{solve, Direction, Problem, Solution};
pub use dom::Dominators;
pub use lint::{run_lints, run_whole_program_lints, Finding, LintKind, LintReport, Severity};
pub use liveness::{inst_defs, inst_uses, kernel_syscall_uses, syscall_uses, LiveMap, Liveness};
pub use loops::{LoopNest, NaturalLoop};
pub use plan::{OracleViolation, PlanKnobs, ProgramAnalysis, SoundnessOracle, SuperblockPlan};
pub use reaching::{loader_defined, DefSite, ReachingDefs};
pub use regset::RegSet;
pub use smc::SmcRegions;
pub use targets::{StoreSummary, TargetResolution, TargetSet, Value};
