//! Test-only helpers shared across this crate's unit tests.
//!
//! Tools are looked up by name in the `superpin-tools` registry, which
//! depends on this crate — run-driving tests here use a no-op tool
//! instead.

use superpin::{SharedMem, SuperTool};

/// A tool that instruments nothing and merges nothing.
#[derive(Clone)]
pub struct Nop;

impl superpin_dbi::Pintool for Nop {
    fn instrument_trace(&mut self, _: &superpin_dbi::Trace, _: &mut superpin_dbi::Inserter<Self>) {}
}

impl SuperTool for Nop {
    fn reset(&mut self, _: u32) {}
    fn on_slice_end(&mut self, _: u32, _: &SharedMem) {}
}
