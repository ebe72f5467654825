#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # superpin-dbi
//!
//! A Pin-like dynamic binary instrumentation engine over the
//! `superpin-vm` substrate.
//!
//! Mirroring Pin's internal architecture (paper §2.2), the engine consists
//! of a dispatcher + JIT ([`Engine`]) that discovers [`trace`]s of guest
//! code, lets the registered [`Pintool`] insert analysis calls through a
//! Pin-style API ([`Inserter::insert_call`], [`Inserter::insert_if_then_call`],
//! [`IArg`] argument descriptors, and [`Inserter::insert_count`] for the
//! counter increments Pin inlines), compiles the result into a [`cache`]
//! (the *code cache*: every call lowered to a [`LoweredCall`] with its
//! charge pre-summed, resident traces linked to their successors), and
//! executes it while accounting virtual cycles against a calibrated
//! [`CostModel`].
//!
//! Each SuperPin slice instantiates its own `Engine` with a cold cache,
//! which is exactly how the paper's per-slice "compilation slowdown"
//! arises (§6.3).
//!
//! # Example: counting instructions
//!
//! ```
//! use superpin_dbi::{Engine, IPoint, Inserter, Pintool, Trace};
//! use superpin_isa::asm::assemble;
//! use superpin_vm::process::Process;
//!
//! #[derive(Clone, Default)]
//! struct ICount { count: u64 }
//!
//! impl Pintool for ICount {
//!     fn instrument_trace(&mut self, trace: &Trace, inserter: &mut Inserter<Self>) {
//!         for bbl in trace.bbls() {
//!             let n = bbl.num_insts() as u64;
//!             inserter.insert_count(bbl.head_addr(), IPoint::Before, n, |tool| &mut tool.count);
//!         }
//!     }
//! }
//!
//! let program = assemble("main:\n li r1, 10\nloop:\n subi r1, r1, 1\n bne r1, r0, loop\n exit 0\n")?;
//! let mut engine = Engine::new(Process::load(1, &program)?, ICount::default());
//! engine.run_to_exit()?;
//! assert_eq!(engine.tool().count, engine.process().inst_count());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod cache;
pub mod cost;
pub mod engine;
pub mod inserter;
pub mod registry;
pub mod signature;
pub mod spill;
pub mod tool;
pub mod trace;

pub use cache::{ArgPlan, CacheStats, CodeCache, InsertedCall, LoweredArg, LoweredCall};
pub use cost::{cycles_to_secs, CostModel, CYCLES_PER_SEC};
pub use engine::{
    cycles_to_ns, AdoptionCounts, CycleBreakdown, Engine, EngineStats, EngineStop, RunResult,
};
pub use inserter::{
    AnalysisFn, Call, CallCtx, CounterFn, EngineCtl, IArg, IPoint, Inserter, PredicateFn,
};
pub use registry::TraceRegistry;
pub use signature::{Signature, SignatureStats};
pub use spill::{analysis_clobbers, ClobberViolation};
pub use tool::{NullTool, Pintool};
pub use trace::{discover_trace, BasicBlock, InstRef, Trace, TraceSlot};

// Re-exported so DBI consumers can build and install a superblock plan
// or a soundness oracle without depending on `superpin-analysis`
// directly.
pub use superpin_analysis::{
    LiveMap, PlanKnobs, ProgramAnalysis, RegSet, SoundnessOracle, SuperblockPlan,
};
