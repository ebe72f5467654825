//! The run recipe: everything needed to *reconstruct* a recorded run's
//! initial state from the log alone — workload identity, tool name, and
//! every config knob that shapes the simulation.
//!
//! The recipe lives in the `.splog` header frame. Replay rebuilds the
//! program from the workload catalog (workloads are deterministic
//! generators, so `name + scale + input` pins the exact binary) and the
//! [`SuperPinConfig`] from the knobs, with two deliberate deviations:
//! the thread count is overridable (the whole point of the design — a
//! `--threads 4` recording replays at `--threads 1`), and chaos is
//! **disarmed** (the recorded [`FaultLedger`](superpin::NondetEvent)
//! substitutes injection's only report-visible effect).
//!
//! A recipe is also how every live front end describes its run: the
//! `superpin` CLI parses its switches into one, and each `spin-serve`
//! job is admitted as one. [`RunRecipe::config`] is the one place a
//! run's configuration is built, so a replay rebuilds exactly the run
//! that was recorded.

use std::sync::Arc;

use crate::wire::wire_struct;
use superpin::{FailPlan, ProgramAnalysis, SuperPinConfig};
use superpin_analysis::AnalysisError;
use superpin_dbi::CYCLES_PER_SEC;
use superpin_isa::Program;
use superpin_workloads::{find, Scale, WorkloadSpec};

/// Paper-equivalent seconds represented by one full benchmark run at
/// any scale: every figure maps the native run to ~100 s, the ballpark
/// of the paper's single-input gcc run (§6.1).
pub const PRESENTED_NATIVE_SECS: f64 = 100.0;

/// The time-scale factor for a scale: virtual seconds × factor =
/// presented seconds.
pub fn time_scale_for(scale: Scale) -> f64 {
    PRESENTED_NATIVE_SECS * CYCLES_PER_SEC as f64 / scale.target_insts() as f64
}

/// A complete, self-contained description of how to start a run.
#[derive(Clone, Debug, PartialEq)]
pub struct RunRecipe {
    /// Workload name from the catalog (e.g. `"gcc"`).
    pub name: String,
    /// Workload scale.
    pub scale: Scale,
    /// Workload input seed (`build_with_input`).
    pub input: u64,
    /// Tool name (e.g. `"icount1"`); front ends look it up in the
    /// `superpin-tools` registry.
    pub tool: String,
    /// Timeslice in paper milliseconds (`-spmsec`).
    pub spmsec: u64,
    /// Maximum running slices (`-spmp`).
    pub spmp: usize,
    /// Syscall-record budget per slice (`-spsysrecs`).
    pub spsysrecs: usize,
    /// Host threads of the *recorded* run (replay may override).
    pub threads: usize,
    /// The armed chaos plan, if any. Stored whole: a firing is a pure
    /// function of `(plan, site, key)`, so the plan *is* the schedule.
    pub chaos: Option<FailPlan>,
    /// Watchdog multiplier over the predicted completion.
    pub watchdog_factor: u64,
    /// Per-slice retry budget.
    pub max_slice_retries: u32,
    /// Memory budget in bytes (`--mem-budget`).
    pub mem_budget: Option<u64>,
    /// Whether supervision was enabled (explicitly or implied by chaos).
    pub supervise: bool,
    /// Whether the run installed the superblock plan (whole-program
    /// refined liveness).
    pub plan: bool,
    /// Free-form provenance tag (git describe, CI run id, …).
    pub tag: String,
}

impl RunRecipe {
    /// A recipe with the bench harness's standard knobs (2000 ms
    /// timeslice, paper defaults elsewhere) for `name` at `scale`.
    pub fn standard(name: &str, scale: Scale) -> RunRecipe {
        RunRecipe {
            name: name.to_string(),
            scale,
            input: 0,
            tool: "icount1".to_string(),
            spmsec: 2000,
            spmp: 8,
            spsysrecs: 1000,
            threads: 1,
            chaos: None,
            watchdog_factor: 8,
            max_slice_retries: 2,
            mem_budget: None,
            supervise: false,
            plan: false,
            tag: String::new(),
        }
    }

    /// Resolves the workload in the catalog.
    pub fn spec(&self) -> Option<&'static WorkloadSpec> {
        find(&self.name)
    }

    /// Builds the exact program the recorded run executed.
    pub fn program(&self) -> Option<Program> {
        self.spec()
            .map(|spec| spec.build_with_input(self.scale, self.input))
    }

    /// Builds the run configuration for `program` (the recipe's own
    /// [`program`](RunRecipe::program)). `threads` overrides the
    /// recorded thread count (report equality across thread counts is
    /// the contract being exercised). With `replaying`, chaos is
    /// stripped but supervision stays on if the recorded run had it —
    /// checkpoint retention is report-visible under a memory budget, so
    /// the replay must supervise identically. With `plan`, the
    /// whole-program analysis installs both the superblock plan and the
    /// soundness oracle.
    ///
    /// # Errors
    ///
    /// Whole-program analysis failures (only with `plan`).
    pub fn config(
        &self,
        program: &Program,
        threads: usize,
        replaying: bool,
    ) -> Result<SuperPinConfig, AnalysisError> {
        let mut cfg = SuperPinConfig::scaled(self.spmsec, time_scale_for(self.scale))
            .with_max_slices(self.spmp)
            .with_max_sysrecs(self.spsysrecs)
            .with_threads(threads)
            .with_watchdog_factor(self.watchdog_factor)
            .with_max_slice_retries(self.max_slice_retries);
        if let Some(budget) = self.mem_budget {
            cfg = cfg.with_mem_budget(budget);
        }
        // Replay runs injection-free; supervision is preserved below so
        // checkpoint accounting matches the recorded run.
        if let (false, Some(plan)) = (replaying, self.chaos) {
            cfg = cfg.with_chaos(plan);
        }
        if self.supervise || self.chaos.is_some() {
            cfg = cfg.with_supervision();
        }
        if self.plan {
            let analysis = ProgramAnalysis::compute(program)?;
            cfg = cfg
                .with_plan(Arc::new(analysis.plan(Default::default())))
                .with_oracle(Arc::new(analysis.oracle()));
        }
        Ok(cfg)
    }
}

wire_struct!(RunRecipe {
    name,
    scale,
    input,
    tool,
    spmsec,
    spmp,
    spsysrecs,
    threads,
    chaos,
    watchdog_factor,
    max_slice_retries,
    mem_budget,
    supervise,
    plan,
    tag,
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{Reader, Wire};

    #[test]
    fn recipe_round_trips_with_all_options() {
        let mut recipe = RunRecipe::standard("gcc", Scale::Small);
        recipe.input = 42;
        recipe.threads = 4;
        recipe.chaos = Some(FailPlan::new(3, 0.05));
        recipe.mem_budget = Some(64 << 20);
        recipe.supervise = true;
        recipe.plan = true;
        recipe.tag = "pr8-test".to_string();

        let mut out = Vec::new();
        recipe.put(&mut out);
        let mut reader = Reader::new(&out);
        assert_eq!(RunRecipe::get(&mut reader).unwrap(), recipe);
        assert_eq!(reader.remaining(), 0);
    }

    #[test]
    fn minimal_recipe_round_trips() {
        let recipe = RunRecipe::standard("vortex", Scale::Tiny);
        let mut out = Vec::new();
        recipe.put(&mut out);
        assert_eq!(RunRecipe::get(&mut Reader::new(&out)).unwrap(), recipe);
    }

    #[test]
    fn replay_config_strips_chaos_but_keeps_supervision() {
        let mut recipe = RunRecipe::standard("gcc", Scale::Tiny);
        recipe.chaos = Some(FailPlan::new(2, 0.02));
        let program = recipe.program().expect("catalog workload");
        let live = recipe.config(&program, 4, false).expect("config");
        assert!(live.chaos.is_some());
        assert!(live.supervision_enabled());
        let replay = recipe.config(&program, 1, true).expect("config");
        assert!(replay.chaos.is_none());
        assert!(replay.supervision_enabled());
        assert_eq!(replay.threads, 1);
        assert_eq!(replay.timeslice_cycles, live.timeslice_cycles);
    }

    #[test]
    fn plan_installs_the_plan_and_the_oracle_together() {
        let mut recipe = RunRecipe::standard("gcc", Scale::Tiny);
        let program = recipe.program().expect("catalog workload");
        for replaying in [false, true] {
            let off = recipe.config(&program, 1, replaying).expect("config");
            assert!(off.plan.is_none() && off.oracle.is_none());
        }
        recipe.plan = true;
        for replaying in [false, true] {
            let on = recipe.config(&program, 1, replaying).expect("config");
            assert!(on.plan.is_some() && on.oracle.is_some());
        }
    }

    #[test]
    fn recipe_builds_the_catalog_program() {
        let recipe = RunRecipe::standard("gcc", Scale::Tiny);
        assert!(recipe.spec().is_some());
        assert!(recipe.program().is_some());
        let missing = RunRecipe::standard("not-a-benchmark", Scale::Tiny);
        assert!(missing.program().is_none());
    }
}
