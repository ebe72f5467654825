//! The virtual-time cost model.
//!
//! All execution in the reproduction is measured in *cycles* of a
//! 2.2 GHz core — the Xeon MP frequency of the paper's testbed — so
//! "seconds" in the figures are `cycles / CYCLES_PER_SEC`.
//!
//! The constants below are calibrated to reproduce the paper's *ratios*,
//! not any absolute hardware numbers:
//!
//! * plain Pin (no tool) costs ≈ 10–30% over native, dominated by JIT
//!   compilation on cold code and per-block dispatch (paper §1: "10% to a
//!   10X slowdown, depending on the code footprint, code reuse
//!   characteristics...");
//! * `icount1` (a counter call after every instruction) lands near the
//!   12× average slowdown of Figure 3;
//! * `icount2` (a call per basic block) lands in Figure 5's 2–8× band.
//!
//! The fixed per-*event* costs (`fork_base`, `cow_fault`, `ptrace_stop`,
//! `syscall`) are calibrated for the harness's *miniature* workloads:
//! runs are 10³–10⁴× shorter than the paper's ~100 s benchmarks, so these
//! constants are scaled down by a comparable factor to keep the
//! event-cost : run-length *ratios* — the quantities every figure
//! reports — in the paper's regime (e.g. a fork costs ~10⁻⁵ of a
//! timeslice, ptrace stops stay "less than a few tenths of a percent").

/// Simulated core clock: 2.2 GHz, as in the paper's 8-way Xeon MP testbed.
pub const CYCLES_PER_SEC: u64 = 2_200_000_000;

/// Converts cycles to seconds of virtual time.
pub fn cycles_to_secs(cycles: u64) -> f64 {
    cycles as f64 / CYCLES_PER_SEC as f64
}

/// Converts seconds of virtual time to cycles.
#[cfg(test)]
pub(crate) fn secs_to_cycles(secs: f64) -> u64 {
    (secs * CYCLES_PER_SEC as f64) as u64
}

/// Cost constants used by the DBI engine's cycle accounting.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostModel {
    /// Cycles per natively executed application instruction.
    pub native_cpi: u64,
    /// Cycles per application instruction when executed out of the code
    /// cache (cache-resident translated code is slightly slower than
    /// native due to layout and register-reallocation effects).
    pub cached_cpi: u64,
    /// Dispatch cost charged each time control enters a cached trace.
    pub dispatch_per_trace: u64,
    /// JIT compilation cost per instruction compiled into the cache.
    ///
    /// Like the per-event costs, this is calibrated for miniature
    /// workloads: what matters for the figures is the ratio of a slice's
    /// cold-cache recompilation to its span. With miniature footprints
    /// (hundreds to thousands of static instructions) and spans of tens
    /// of thousands of cycles, 64 cycles/instruction puts gcc's
    /// per-slice recompile at a comparable order to a short timeslice —
    /// the paper's Figure 6 regime, where gcc slices compile slowly
    /// enough to back up against the max-slice limit — while
    /// small-footprint loops stay compile-light, as at full scale.
    pub compile_per_inst: u64,
    /// Per-instruction cost of adopting a trace that another slice
    /// already compiled into a *shared* code cache (paper §8: sharing
    /// "may add a little extra overhead by performing extra consistency
    /// checks from other slices"). Only charged with the shared code
    /// cache on; see [`Engine::set_shared_code_cache`](crate::Engine::set_shared_code_cache).
    pub shared_cache_check: u64,
    /// Base cost of invoking one inserted analysis call (register
    /// save/restore + call + return), one flat price for every call: a
    /// call saves the whole of [`crate::spill::analysis_clobbers`]
    /// wherever it sits.
    pub analysis_call: u64,
    /// Additional cost per argument materialized for an analysis call.
    pub analysis_arg: u64,
    /// Cost of an inlined `insert_if_call` quick check (paper §4.4: "This
    /// will inline a quick check at that specific location").
    pub inline_if_check: u64,
    /// Cost of servicing a syscall in the kernel (also charged when a
    /// slice plays a record back).
    pub syscall: u64,
    /// Cost charged to the *parent* for a process fork, excluding later
    /// COW faults.
    pub fork_base: u64,
    /// Cost per copy-on-write page fault (fault + 4 KiB copy).
    pub cow_fault: u64,
    /// Cost per ptrace stop of the master (paper §6.3: "less than a few
    /// tenths of a percent").
    pub ptrace_stop: u64,
}

impl CostModel {
    /// The calibrated default model (see module docs).
    pub fn paper_default() -> CostModel {
        CostModel {
            native_cpi: 1,
            cached_cpi: 1,
            dispatch_per_trace: 4,
            compile_per_inst: 64,
            shared_cache_check: 4,
            analysis_call: 10,
            analysis_arg: 1,
            inline_if_check: 2,
            syscall: 250,
            fork_base: 500,
            cow_fault: 100,
            ptrace_stop: 2,
        }
    }

    /// The charge of an analysis call that reads `args` arguments,
    /// before any cycles the routine charges itself.
    pub fn call(&self, args: usize) -> u64 {
        self.analysis_call + args as u64 * self.analysis_arg
    }

    /// The charge of an inlined if-check that reads `args` arguments.
    pub fn if_check(&self, args: usize) -> u64 {
        self.inline_if_check + args as u64 * self.analysis_arg
    }
}

impl Default for CostModel {
    fn default() -> CostModel {
        CostModel::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_conversions_round_trip() {
        assert_eq!(secs_to_cycles(1.0), CYCLES_PER_SEC);
        let secs = cycles_to_secs(CYCLES_PER_SEC / 2);
        assert!((secs - 0.5).abs() < 1e-12);
    }

    #[test]
    fn icount1_cost_lands_near_paper_slowdown() {
        // Per paper Fig. 3: icount1 under Pin averages ≈ 12× native.
        // Steady-state cost per instruction: cached execution + one
        // analysis call with one argument; dispatch amortized over a
        // ~6-instruction block.
        // Hot traces are linked (no dispatch), so the steady state is
        // cached execution + one analysis call with one argument.
        let m = CostModel::paper_default();
        let per_inst = m.cached_cpi + m.analysis_call + m.analysis_arg;
        let slowdown = per_inst as f64 / m.native_cpi as f64;
        assert!(
            (8.0..=16.0).contains(&slowdown),
            "icount1 steady-state slowdown {slowdown} out of the paper's band"
        );
    }

    #[test]
    fn icount2_cost_lands_near_paper_slowdown() {
        // Per paper Fig. 5: icount2 under Pin sits in the 2–8× band.
        // One call per ~6-instruction basic block.
        let m = CostModel::paper_default();
        let per_block = 6 * m.cached_cpi + m.analysis_call + m.analysis_arg;
        let slowdown = per_block as f64 / (6 * m.native_cpi) as f64;
        assert!(
            (2.0..=8.0).contains(&slowdown),
            "icount2 steady-state slowdown {slowdown} out of the paper's band"
        );
    }
}
