#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # superpin
//!
//! A from-scratch reproduction of **SuperPin: Parallelizing Dynamic
//! Instrumentation for Real-Time Performance** (Wallace & Hazelwood,
//! CGO 2007).
//!
//! SuperPin runs the application *natively* while forking non-overlapping
//! instrumented timeslices that execute in parallel on idle cores; each
//! slice detects its end via a state signature recorded by the next
//! slice, plays back the master's syscalls instead of re-executing them,
//! and merges its results into shared memory in slice order.
//!
//! The crate layers onto the reproduction's substrates:
//! `superpin-isa` (binaries), `superpin-vm` (processes, COW fork,
//! ptrace), `superpin-dbi` (the Pin-like engine), and `superpin-sched`
//! (the multiprocessor timing model).
//!
//! * [`SuperPinRunner`] — drives a complete run and produces a
//!   [`SuperPinReport`] with the paper's Figure 6 time decomposition;
//!   [`Runner`] is the same run with its tool type erased.
//! * [`SuperTool`] — the `SP_*` tool API (paper §5).
//! * [`signature`] — record/detect slice boundaries (paper §4.4).
//! * [`mod@slice`], [`master`] — the two halves of the fork protocol
//!   (paper §4.1–§4.3).
//! * [`baseline`] — native and traditional-Pin comparison runs.
//! * [`cli`], [`json`] — the flag reader and the JSON writer every
//!   binary in the workspace shares.
//!
//! # Example: an icount SuperTool end to end
//!
//! ```
//! use superpin::{
//!     baseline, AutoMerge, SharedMem, SuperPinConfig, SuperPinRunner, SuperTool,
//! };
//! use superpin_dbi::{IPoint, Inserter, Pintool, Trace};
//! use superpin_isa::asm::assemble;
//! use superpin_vm::process::Process;
//!
//! #[derive(Clone)]
//! struct ICount {
//!     count: u64,
//!     area: superpin::AreaId,
//! }
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
//! impl SuperTool for ICount {
//!     fn reset(&mut self, _slice: u32) { self.count = 0; }
//!     fn on_slice_end(&mut self, _slice: u32, shared: &SharedMem) {
//!         shared.area(self.area).add(0, self.count);
//!     }
//! }
//!
//! let program = assemble(
//!     "main:\n li r1, 20000\nloop:\n subi r1, r1, 1\n bne r1, r0, loop\n exit 0\n",
//! )?;
//! let shared = SharedMem::new();
//! let area = shared.create_area(1, AutoMerge::Manual);
//! let tool = ICount { count: 0, area };
//!
//! let mut cfg = SuperPinConfig::paper_default();
//! cfg.timeslice_cycles = 20_000;
//! cfg.quantum_cycles = 1_000;
//! let report = SuperPinRunner::new(
//!     Process::load(1, &program)?, tool, shared.clone(), cfg,
//! )?.run()?;
//!
//! // The merged total equals the true dynamic instruction count.
//! let native = baseline::run_native(Process::load(1, &program)?)?;
//! assert_eq!(shared.area(area).read(0), native.insts);
//! assert_eq!(report.slice_inst_total(), report.master_insts);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod api;
pub mod baseline;
pub mod bubble;
pub mod cli;
pub mod config;
pub mod governor;
pub mod json;
pub mod master;
pub mod record;
pub mod report;
pub mod runner;
pub mod shared;
pub mod slice;
pub mod supervisor;
pub mod syscall_policy;
pub mod trampoline;

mod error;

pub use api::SuperTool;
pub use config::SuperPinConfig;
pub use error::SpError;
pub use governor::{MemoryGovernor, TenantAdmission, TenantCounters, TenantLedger};
pub use record::{AdmissionDecision, NondetEvent, RunMode, RunProbe, SliceProbe};
pub use report::{SliceReport, SuperPinReport, TimeBreakdown};
pub use runner::{HostProfile, Runner, SuperPinRunner};
pub use shared::{AreaId, AutoMerge, SharedArea, SharedMem};
pub use signature::{Signature, SignatureStats};
pub use slice::{Boundary, SliceEnd, SliceRuntime, SliceState};
pub use superpin_analysis::{PlanKnobs, ProgramAnalysis, SoundnessOracle, SuperblockPlan};
pub use superpin_dbi::signature;
pub use superpin_fault::{FailPlan, FailpointRegistry, Site, SiteMode};
