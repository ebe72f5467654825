#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # superpin-tools
//!
//! The Pintools used throughout the SuperPin reproduction — each one a
//! [`Pintool`](superpin_dbi::Pintool) that also implements
//! [`SuperTool`](superpin::SuperTool) so it runs unchanged under
//! traditional Pin *and* under SuperPin slicing:
//!
//! * [`ICount1`] — a counter call after **every instruction** (the
//!   paper's instrumentation-limited tool, Figures 3–4).
//! * [`ICount2`] — a counter call per **basic block** (Figure 5; the
//!   SuperPin version is the paper's Figure 2 listing).
//! * [`DCache`] — a data-cache simulator with the paper's §5.2
//!   assumed-hit reconciliation across slice boundaries; its merged
//!   result is *exactly* equal to a serial simulation.
//! * [`ITrace`] — an instruction tracer whose per-slice buffers are
//!   appended in slice order (paper §4.5).
//! * [`BranchProfile`] — per-branch taken/fall-through counts.
//! * [`MemProfile`] — load/store counts and bytes moved.
//! * [`Sampler`] — a Shadow-Profiler-style sampling tool that ends each
//!   slice early via the `SP_EndSlice` analogue (paper §5).
//!
//! Each tool renders its own result from
//! [`SuperTool::fini_shared`](superpin::SuperTool::fini_shared), and
//! [`lookup`] is the one table from `-t` names to tools, each erased to
//! an [`AnyTool`] that every front end drives the same way.

mod bbl_count;
mod branch_profile;
mod dcache;
mod dcache_assoc;
mod icache;
mod icount;
mod insmix;
mod itrace;
mod mem_profile;
mod sampler;

mod registry;

pub use bbl_count::BblCount;
pub use branch_profile::{BranchProfile, BranchSiteStats};
pub use dcache::{DCache, DCacheConfig, DCacheResult};
pub use dcache_assoc::{AssocDCache, AssocDCacheConfig, LruCache};
pub use icache::ICache;
pub use icount::{ICount1, ICount2};
pub use insmix::{InsMix, MixCategory, MixCounts};
pub use itrace::ITrace;
pub use mem_profile::{MemProfile, MemProfileTotals};
pub use registry::{lookup, lookup_serve, tool_names, AnyTool, SERVE_TOOL_NAMES};
pub use sampler::{Sampler, BUCKET_BYTES};

#[cfg(test)]
mod send_audit {
    //! The parallel runner moves each slice — tool clone included — onto
    //! a pool worker thread, so every tool must satisfy the
    //! `SuperTool: … + Send + 'static` bound. This is a compile-time
    //! audit: if a tool ever grows an `Rc`, `RefCell`-of-shared, or raw
    //! pointer, this module stops compiling, long before a runtime race.
    use super::*;

    fn assert_super_tool<T: superpin::SuperTool>() {}

    #[test]
    fn every_tool_is_a_send_super_tool() {
        assert_super_tool::<BblCount>();
        assert_super_tool::<BranchProfile>();
        assert_super_tool::<DCache>();
        assert_super_tool::<AssocDCache>();
        assert_super_tool::<ICache>();
        assert_super_tool::<ICount1>();
        assert_super_tool::<ICount2>();
        assert_super_tool::<InsMix>();
        assert_super_tool::<ITrace>();
        assert_super_tool::<MemProfile>();
        assert_super_tool::<Sampler>();
    }
}
