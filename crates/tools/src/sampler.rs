//! A Shadow-Profiler-style sampling tool (paper §5).
//!
//! "An example of a SuperPin tool that uses the `SP_EndSlice` function is
//! the Shadow Profiler Pintool, which performs sampled profiling via
//! instrumented timeslices, achieving lower overhead than is attainable
//! via full instrumentation." This tool profiles only the first
//! `sample_budget` instructions of each slice, then ends the slice
//! immediately — the un-sampled remainder of the span costs nothing.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::sync::Mutex;
use superpin::{SharedMem, SuperTool};
use superpin_dbi::{IPoint, Inserter, Pintool, Trace};
use superpin_isa::Program;

/// Granularity of the sample histogram (bytes of code per bucket).
pub const BUCKET_BYTES: u64 = 64;

/// Sampling profiler that ends each slice after a fixed budget.
#[derive(Clone, Debug)]
pub struct Sampler {
    sample_budget: u64,
    sampled: u64,
    local: BTreeMap<u64, u64>,
    merged: Arc<Mutex<BTreeMap<u64, u64>>>,
    total_samples: Arc<Mutex<u64>>,
}

impl Sampler {
    /// Creates a sampler taking `sample_budget` instruction samples per
    /// slice.
    pub fn new(sample_budget: u64) -> Sampler {
        Sampler {
            sample_budget: sample_budget.max(1),
            sampled: 0,
            local: BTreeMap::new(),
            merged: Arc::new(Mutex::new(BTreeMap::new())),
            total_samples: Arc::new(Mutex::new(0)),
        }
    }

    /// Per-slice sample budget.
    #[cfg(test)]
    pub(crate) fn sample_budget(&self) -> u64 {
        self.sample_budget
    }

    /// Merged histogram: code bucket → samples.
    pub fn merged_histogram(&self) -> BTreeMap<u64, u64> {
        self.merged.lock().expect("mutex poisoned").clone()
    }

    /// Total samples merged.
    pub fn merged_samples(&self) -> u64 {
        *self.total_samples.lock().expect("mutex poisoned")
    }
}

impl Pintool for Sampler {
    fn instrument_trace(&mut self, trace: &Trace, inserter: &mut Inserter<Self>) {
        for iref in trace.insts() {
            inserter.insert_call(
                iref.addr,
                IPoint::Before,
                |tool, ctx, ctl| {
                    tool.sampled += 1;
                    *tool.local.entry(ctx.pc / BUCKET_BYTES).or_insert(0) += 1;
                    if tool.sampled >= tool.sample_budget {
                        // SP_EndSlice: "Tool instructs SuperPin to
                        // terminate this slice immediately."
                        ctl.request_stop();
                    }
                },
                vec![],
            );
        }
    }

    fn instrumentation_is_shareable(&self) -> bool {
        // Calls depend only on the trace; all state is touched at
        // analysis time, so clones instrument identically.
        true
    }

    fn name(&self) -> &'static str {
        "sampler"
    }
}

impl SuperTool for Sampler {
    fn reset(&mut self, _slice_num: u32) {
        self.sampled = 0;
        self.local.clear();
    }

    fn on_slice_end(&mut self, _slice_num: u32, _shared: &SharedMem) {
        let mut merged = self.merged.lock().expect("mutex poisoned");
        for (&bucket, &count) in &self.local {
            *merged.entry(bucket).or_insert(0) += count;
        }
        *self.total_samples.lock().expect("mutex poisoned") += self.sampled;
    }

    fn fini_shared(&self, _shared: &SharedMem, _program: &Program) -> String {
        format!("sampler: {} samples\n", self.merged_samples())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use superpin_dbi::{CallCtx, EngineCtl};

    #[test]
    fn budget_triggers_end_slice() {
        // Drive the analysis closure directly.
        let mut sampler = Sampler::new(3);
        sampler.reset(1);
        let ctx = CallCtx {
            pc: 0x100,
            args: &[],
        };
        for i in 0..3 {
            let mut ctl = EngineCtl::default();
            sampler.sampled += 0; // explicit: state drives the check
                                  // Reimplement the closure body to keep the test independent
                                  // of instrumentation plumbing (covered by integration tests).
            sampler.sampled += 1;
            *sampler.local.entry(ctx.pc / BUCKET_BYTES).or_insert(0) += 1;
            if sampler.sampled >= sampler.sample_budget() {
                ctl.request_stop();
            }
            assert_eq!(ctl.stop_requested(), i == 2);
        }
        let shared = SharedMem::new();
        sampler.on_slice_end(1, &shared);
        assert_eq!(sampler.merged_samples(), 3);
        assert_eq!(sampler.merged_histogram()[&(0x100 / BUCKET_BYTES)], 3);
    }

    #[test]
    fn clones_share_merged_tables() {
        let sampler = Sampler::new(5);
        let mut clone = sampler.clone();
        clone.reset(1);
        clone.sampled = 2;
        clone.local.insert(7, 2);
        clone.on_slice_end(1, &SharedMem::new());
        assert_eq!(sampler.merged_samples(), 2);
        assert_eq!(sampler.merged_histogram()[&7], 2);
    }
}
