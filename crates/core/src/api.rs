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
//! | `PIN_AddFiniFunction`          | [`SuperTool::fini_shared`]          |

use crate::shared::SharedMem;
use superpin_dbi::Pintool;

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
/// [`Pintool`] and the slice hooks never fire.
///
/// `Send + 'static` is required because the runner moves each running
/// slice — engine, tool clone and all — by value onto a persistent pool
/// worker for the epoch's slice phase and back at the barrier (and the
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

    /// Called once, after every slice has merged; render the final
    /// result from shared memory.
    fn fini_shared(&mut self, shared: &SharedMem) {
        let _ = shared;
    }
}
