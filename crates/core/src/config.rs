//! SuperPin configuration (the paper's command-line switches, §5).

use std::sync::Arc;
use superpin_analysis::{SoundnessOracle, SuperblockPlan};
use superpin_dbi::{CostModel, LiveMap, CYCLES_PER_SEC};
use superpin_fault::FailPlan;
use superpin_sched::{Machine, Policy};

/// Configuration for a SuperPin run.
///
/// Mirrors the paper's switches:
///
/// * `-sp 1` → [`enabled`](SuperPinConfig::enabled)
/// * `-spmsec` → [`timeslice_cycles`](SuperPinConfig::timeslice_cycles)
///   (default 1000 ms)
/// * `-spmp` → [`max_slices`](SuperPinConfig::max_slices) (default 8)
/// * `-spsysrecs` → [`max_sysrecs`](SuperPinConfig::max_sysrecs)
///   (default 1000; 0 disables recording so every recordable syscall
///   forces a new slice)
///
/// # Time scaling
///
/// The paper's workloads run for ~100 wall-clock seconds; simulating
/// 2.2 × 10¹¹ instructions per benchmark is infeasible, so the harness
/// runs workloads scaled down by [`time_scale`](SuperPinConfig::time_scale)
/// and shrinks the timeslice by the same factor. All *ratios* (slice
/// count, pipeline-delay fraction, fork-overhead fraction) are preserved;
/// reports multiply back up when presenting "seconds".
#[derive(Clone, Debug)]
pub struct SuperPinConfig {
    /// Run in SuperPin mode (`-sp 1`); `false` means traditional Pin.
    pub enabled: bool,
    /// Timeslice interval in cycles (`-spmsec`, after time scaling).
    pub timeslice_cycles: u64,
    /// Maximum simultaneously running slices (`-spmp`).
    pub max_slices: usize,
    /// Maximum syscall records per slice; 0 disables recording
    /// (`-spsysrecs`).
    pub max_sysrecs: usize,
    /// The machine model to schedule on.
    pub machine: Machine,
    /// Scheduling policy (fair share reproduces the paper).
    pub policy: Policy,
    /// DBI cost model for slices.
    pub cost: CostModel,
    /// Per-slice code-cache capacity in instructions.
    pub cache_capacity: usize,
    /// Simulation quantum in cycles (must be well below the timeslice).
    pub quantum_cycles: u64,
    /// Presented-time multiplier (see struct docs).
    pub time_scale: f64,
    /// Paper §8 extension: when `Some(estimated_total_cycles)`, the
    /// timeslice is throttled down toward the end of execution so the
    /// final slices are short and the pipeline delay shrinks.
    pub adaptive_estimate: Option<u64>,
    /// Paper §8 extension: share the code cache across all timeslices.
    /// A slice compiling a trace another slice already compiled pays a
    /// consistency-check cost instead of the full JIT cost.
    pub shared_code_cache: bool,
    /// Static liveness for the guest program. When present, every
    /// slice's engine elides save/restores of registers proven dead at
    /// each insertion point (see
    /// [`Engine::set_liveness`](superpin_dbi::Engine::set_liveness)),
    /// shrinking modeled analysis overhead without changing what the
    /// instrumentation observes. `None` keeps the conservative
    /// full-clobber-set spill, which charges exactly the legacy flat
    /// [`CostModel::analysis_call`] rate.
    pub liveness: Option<Arc<LiveMap>>,
    /// Ahead-of-time superblock plan from whole-program analysis
    /// (`--plan on`). Every slice engine forms predicted-hot traces
    /// from the plan's pre-decoded stream and elides host-side restores
    /// of registers the plan's refined interprocedural liveness proves
    /// dead (see [`Engine::set_plan`](superpin_dbi::Engine::set_plan)).
    /// Strictly a host accelerator: reports are bit-identical with the
    /// plan on or off.
    pub plan: Option<Arc<SuperblockPlan>>,
    /// Static↔dynamic soundness oracle. When present, every slice
    /// engine cross-validates dynamic indirect transfers and code
    /// writes against the static analysis; debug builds assert on a
    /// violation (see
    /// [`Engine::set_oracle`](superpin_dbi::Engine::set_oracle)).
    pub oracle: Option<Arc<SoundnessOracle>>,
    /// Host worker threads for slice execution (`--threads`). 1 runs
    /// every slice in place on the calling thread; N > 1 moves slice
    /// epochs onto the runner's persistent worker pool. The report is
    /// bit-identical either way — epoch batching fixes every scheduling
    /// decision before workers start.
    pub threads: usize,
    /// Epoch cap in quanta: the most virtual time workers may burn
    /// between synchronization barriers. 1 degenerates to a barrier per
    /// quantum (maximal sync overhead, same reports).
    pub epoch_max_quanta: u64,
    /// Chaos fault-injection plan (`--chaos-seed` / `--chaos-rate`).
    /// `None` — the default — builds no registry and arms no failpoint:
    /// the fault machinery costs nothing when disabled. Setting a plan
    /// implies slice supervision (see
    /// [`supervise`](SuperPinConfig::supervise)).
    pub chaos: Option<FailPlan>,
    /// Run the slice supervisor (watchdog + retry/degrade) even without
    /// chaos. Always effectively on when [`chaos`](SuperPinConfig::chaos)
    /// is set — injected faults must be repaired.
    pub supervise: bool,
    /// Watchdog multiplier (`--watchdog-factor`): a slice is declared
    /// runaway when its signature has not fired within `factor ×` its
    /// predicted completion (see
    /// [`superpin_sched::watchdog_deadline_quanta`]).
    pub watchdog_factor: u64,
    /// Retries per slice before it degrades to serial re-execution
    /// pinned to the supervisor thread.
    pub max_slice_retries: u32,
    /// Simulated resident-memory budget in bytes (`--mem-budget`).
    /// `None` — the default — builds no governor and changes nothing:
    /// reports are field-identical to an unbudgeted build. When set, the
    /// runner charges COW page copies, per-slice code caches, retained
    /// checkpoints, and shared-index snapshots against the budget,
    /// defers slice forks under pressure, and walks the eviction ladder
    /// (drop checkpoints → evict cold caches → degrade to inline
    /// serial). The same budget also becomes the guest kernel's
    /// per-process allocation limit: `brk`/`mmap` past it return ENOMEM
    /// to the guest instead of growing the space.
    pub mem_budget: Option<u64>,
}

impl SuperPinConfig {
    /// The paper's defaults: SuperPin on, 1000 ms timeslice, 8 slices,
    /// 1000 syscall records, 8-way SMP without hyperthreading.
    pub fn paper_default() -> SuperPinConfig {
        SuperPinConfig {
            enabled: true,
            timeslice_cycles: CYCLES_PER_SEC, // 1000 ms
            max_slices: 8,
            max_sysrecs: 1000,
            machine: Machine::smp(8),
            policy: Policy::FairShare,
            cost: CostModel::paper_default(),
            cache_capacity: superpin_dbi::cache::DEFAULT_CAPACITY_INSTS,
            quantum_cycles: CYCLES_PER_SEC / 1000, // 1 ms
            time_scale: 1.0,
            adaptive_estimate: None,
            shared_code_cache: false,
            liveness: None,
            plan: None,
            oracle: None,
            threads: 1,
            epoch_max_quanta: 256,
            chaos: None,
            supervise: false,
            watchdog_factor: 8,
            max_slice_retries: 2,
            mem_budget: None,
        }
    }

    /// A configuration whose timeslice is `paper_msec` of *paper* time,
    /// scaled down by `time_scale` for simulation feasibility. The
    /// quantum is set to timeslice/50 so timer forks stay well-resolved.
    pub fn scaled(paper_msec: u64, time_scale: f64) -> SuperPinConfig {
        let timeslice_cycles =
            ((paper_msec as f64 / 1000.0) * CYCLES_PER_SEC as f64 / time_scale) as u64;
        let timeslice_cycles = timeslice_cycles.max(1000);
        SuperPinConfig {
            timeslice_cycles,
            quantum_cycles: (timeslice_cycles / 50).max(500),
            time_scale,
            ..SuperPinConfig::paper_default()
        }
    }

    /// Sets the maximum number of running slices (`-spmp`).
    pub fn with_max_slices(mut self, max_slices: usize) -> SuperPinConfig {
        self.max_slices = max_slices.max(1);
        self
    }

    /// Sets the machine model.
    pub fn with_machine(mut self, machine: Machine) -> SuperPinConfig {
        self.machine = machine;
        self
    }

    /// Sets the syscall-record budget (`-spsysrecs`).
    pub fn with_max_sysrecs(mut self, max_sysrecs: usize) -> SuperPinConfig {
        self.max_sysrecs = max_sysrecs;
        self
    }

    /// Installs static liveness so slice engines elide save/restores of
    /// dead registers (see [`SuperPinConfig::liveness`]).
    pub fn with_liveness(mut self, liveness: Arc<LiveMap>) -> SuperPinConfig {
        self.liveness = Some(liveness);
        self
    }

    /// Installs an ahead-of-time superblock plan for every slice engine
    /// (see [`SuperPinConfig::plan`]).
    pub fn with_plan(mut self, plan: Arc<SuperblockPlan>) -> SuperPinConfig {
        self.plan = Some(plan);
        self
    }

    /// Installs the static↔dynamic soundness oracle for every slice
    /// engine (see [`SuperPinConfig::oracle`]).
    pub fn with_oracle(mut self, oracle: Arc<SoundnessOracle>) -> SuperPinConfig {
        self.oracle = Some(oracle);
        self
    }

    /// Sets the host worker-thread count for slice execution
    /// (`--threads`; see [`SuperPinConfig::threads`]).
    pub fn with_threads(mut self, threads: usize) -> SuperPinConfig {
        self.threads = threads.max(1);
        self
    }

    /// Sets the epoch cap in quanta (see
    /// [`SuperPinConfig::epoch_max_quanta`]).
    pub fn with_epoch_max_quanta(mut self, quanta: u64) -> SuperPinConfig {
        self.epoch_max_quanta = quanta.max(1);
        self
    }

    /// Arms chaos fault injection with this plan (implies supervision).
    pub fn with_chaos(mut self, plan: FailPlan) -> SuperPinConfig {
        self.chaos = Some(plan);
        self
    }

    /// Enables the slice supervisor without injecting faults (used by
    /// the bench guard to measure supervisor overhead alone).
    pub fn with_supervision(mut self) -> SuperPinConfig {
        self.supervise = true;
        self
    }

    /// Sets the watchdog multiplier (`--watchdog-factor`, clamped ≥ 1).
    pub fn with_watchdog_factor(mut self, factor: u64) -> SuperPinConfig {
        self.watchdog_factor = factor.max(1);
        self
    }

    /// Sets the per-slice retry budget before degradation.
    pub fn with_max_slice_retries(mut self, retries: u32) -> SuperPinConfig {
        self.max_slice_retries = retries;
        self
    }

    /// Arms the memory governor with a resident-byte budget
    /// (`--mem-budget`; see [`SuperPinConfig::mem_budget`]).
    pub fn with_mem_budget(mut self, budget: u64) -> SuperPinConfig {
        self.mem_budget = Some(budget);
        self
    }

    /// Whether the supervisor runs: explicitly requested, or implied by
    /// an armed chaos plan.
    pub fn supervision_enabled(&self) -> bool {
        self.supervise || self.chaos.is_some()
    }

    /// Converts cycles to presented (paper-equivalent) seconds.
    pub fn present_secs(&self, cycles: u64) -> f64 {
        superpin_dbi::cycles_to_secs(cycles) * self.time_scale
    }

    /// The timeslice to use at virtual time `now_cycles`, honouring the
    /// adaptive-throttling extension when configured (paper §8: "decrease
    /// the timeslice size toward the end of application execution").
    pub fn effective_timeslice(&self, now_cycles: u64) -> u64 {
        match self.adaptive_estimate {
            None => self.timeslice_cycles,
            Some(estimate) => {
                let remaining = estimate.saturating_sub(now_cycles);
                let floor = (self.timeslice_cycles / 8).max(self.quantum_cycles);
                self.timeslice_cycles.min(remaining.max(floor))
            }
        }
    }
}

impl Default for SuperPinConfig {
    fn default() -> SuperPinConfig {
        SuperPinConfig::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_switch_documentation() {
        let cfg = SuperPinConfig::paper_default();
        assert!(cfg.enabled);
        assert_eq!(cfg.timeslice_cycles, CYCLES_PER_SEC);
        assert_eq!(cfg.max_slices, 8);
        assert_eq!(cfg.max_sysrecs, 1000);
    }

    #[test]
    fn scaled_preserves_ratio() {
        let cfg = SuperPinConfig::scaled(2000, 10_000.0);
        // 2 s of paper time at scale 10⁴ = 200 µs of simulated time.
        let expected = (2.0 * CYCLES_PER_SEC as f64 / 10_000.0) as u64;
        assert_eq!(cfg.timeslice_cycles, expected);
        assert!(cfg.quantum_cycles * 10 <= cfg.timeslice_cycles);
        // Presenting the timeslice recovers ~2 s.
        let presented = cfg.present_secs(cfg.timeslice_cycles);
        assert!((presented - 2.0).abs() < 0.01, "presented {presented}");
    }

    #[test]
    fn adaptive_timeslice_shrinks_near_estimate() {
        let mut cfg = SuperPinConfig::scaled(1000, 1000.0);
        let base = cfg.timeslice_cycles;
        cfg.adaptive_estimate = Some(10 * base);
        assert_eq!(cfg.effective_timeslice(0), base);
        // Near the end, the timeslice throttles down.
        let near_end = cfg.effective_timeslice(10 * base - base / 4);
        assert!(near_end < base);
        assert!(near_end >= cfg.quantum_cycles);
    }

    #[test]
    fn builders_clamp() {
        let cfg = SuperPinConfig::paper_default().with_max_slices(0);
        assert_eq!(cfg.max_slices, 1);
        let cfg = cfg.with_threads(0).with_epoch_max_quanta(0);
        assert_eq!(cfg.threads, 1);
        assert_eq!(cfg.epoch_max_quanta, 1);
    }
}
