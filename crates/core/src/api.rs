//! The SuperPin tool API (paper §5).
//!
//! The paper extends Pin's C API with `SP_Init`, `SP_AddSliceBeginFunction`,
//! `SP_AddSliceEndFunction`, `SP_EndSlice`, and `SP_CreateSharedArea`. In
//! Rust the registration calls become trait methods on [`SuperTool`]:
//!
//! | Paper API                      | This crate                          |
//! |--------------------------------|-------------------------------------|
//! | `SP_Init(fun)`                 | [`SuperTool::reset`]                |
//! | `SP_AddSliceBeginFunction`     | [`SuperTool::on_slice_begin`]       |
//! | `SP_AddSliceEndFunction`       | [`SuperTool::on_slice_end`] (merge) |
//! | `SP_EndSlice()`                | `EngineCtl::request_stop` from an analysis routine |
//! | `SP_CreateSharedArea`          | [`SharedMem::create_area`]          |
//! | `PIN_AddFiniFunction`          | [`SuperTool::fini_shared`] (render) |
//!
//! `-sp 0|1` only picks who runs the tool. Under SuperPin every slice
//! merges through `on_slice_end`; under serial Pin the whole run merges
//! once, as a single slice. Either way `fini_shared` then renders the
//! merged result, so a tool has one reader for both modes.

use crate::shared::SharedMem;
use superpin_dbi::Pintool;
use superpin_isa::Program;

/// A Pintool that supports SuperPin slicing.
///
/// Each slice receives a fresh clone of the registered tool, reset via
/// [`reset`](SuperTool::reset) (the function passed to `SP_Init`). When a
/// slice completes, [`on_slice_end`](SuperTool::on_slice_end) merges its
/// local data into [`SharedMem`]; merges are invoked **in slice order**
/// "to aid in determinism" (paper §4.5). After the last merge,
/// [`fini_shared`](SuperTool::fini_shared) renders the final result.
///
/// When SuperPin is disabled (`-sp 0`), the tool runs as a plain
/// [`Pintool`]; the run then merges once, through
/// [`on_slice_end`](SuperTool::on_slice_end) as slice 1, and renders the
/// same way.
///
/// `Send + 'static` is required because the runner hands each running
/// slice — engine, tool clone and all, boxed — to its worker pool for
/// the epoch's slice phase and takes it back at the barrier (and the
/// service fleet moves whole runners the same way). Tools share state
/// through [`SharedMem`] (internally synchronized), not through their
/// clones, so the bound costs nothing in practice.
pub trait SuperTool: Pintool + Clone + Send + 'static {
    /// Clears slice-local statistics (the `SP_Init` reset function).
    fn reset(&mut self, slice_num: u32);

    /// Called immediately after a slice is created
    /// (`SP_AddSliceBeginFunction`).
    fn on_slice_begin(&mut self, slice_num: u32) {
        let _ = slice_num;
    }

    /// Called right before a slice terminates
    /// (`SP_AddSliceEndFunction`); merge local data into `shared` here.
    fn on_slice_end(&mut self, slice_num: u32, shared: &SharedMem);

    /// Called once, after every slice has merged: renders the final
    /// result from `shared` (and whatever merged state the tool's clones
    /// share), as the lines the `superpin` CLI prints. `program` is the
    /// guest, for tools that name addresses by symbol.
    fn fini_shared(&self, shared: &SharedMem, program: &Program) -> String {
        let _ = (shared, program);
        String::new()
    }
}
