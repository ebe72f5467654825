//! Figure and table computations (paper §6).

use crate::runs::{figure_config, run_superpin, run_triple, TripleResult};
use superpin::{SharedMem, SignatureStats};
use superpin_sched::Machine;
use superpin_tools::{ICount1, ICount2};
use superpin_workloads::{find, Scale};

/// One benchmark's bar in Figures 3/4/5.
#[derive(Clone, Debug)]
pub struct FigRow {
    /// Benchmark name.
    pub benchmark: &'static str,
    /// Pin runtime, % of native.
    pub pin_pct: f64,
    /// SuperPin runtime, % of native.
    pub superpin_pct: f64,
    /// SuperPin speedup over Pin (Figure 4).
    pub speedup: f64,
    /// Number of slices SuperPin created.
    pub slices: usize,
    /// Whether native, Pin, and merged SuperPin counts all agree.
    pub counts_ok: bool,
}

/// A full Figure 3/5 series with averages.
#[derive(Clone, Debug)]
pub struct FigSeries {
    /// Per-benchmark rows, catalog order.
    pub rows: Vec<FigRow>,
    /// Arithmetic mean of Pin %.
    pub avg_pin_pct: f64,
    /// Arithmetic mean of SuperPin %.
    pub avg_superpin_pct: f64,
    /// Arithmetic mean speedup.
    pub avg_speedup: f64,
}

fn series_from(results: Vec<TripleResult>) -> FigSeries {
    let rows: Vec<FigRow> = results
        .iter()
        .map(|r| FigRow {
            benchmark: r.name,
            pin_pct: r.pin_pct(),
            superpin_pct: r.superpin_pct(),
            speedup: r.speedup(),
            slices: r.superpin.slice_count(),
            counts_ok: r.counts_agree(),
        })
        .collect();
    let n = rows.len().max(1) as f64;
    FigSeries {
        avg_pin_pct: rows.iter().map(|r| r.pin_pct).sum::<f64>() / n,
        avg_superpin_pct: rows.iter().map(|r| r.superpin_pct).sum::<f64>() / n,
        avg_speedup: rows.iter().map(|r| r.speedup).sum::<f64>() / n,
        rows,
    }
}

/// Figure 3 (+ Figure 4's speedups): `icount1` across the suite, 8-way
/// SMP, 2 s timeslice, 8 max slices.
pub fn fig3_icount1(scale: Scale, threads: usize) -> FigSeries {
    let cfg = figure_config(2000, scale);
    series_from(crate::runs::parallel_over_catalog(threads, |spec| {
        run_triple(spec, scale, &cfg, ICount1::new, ICount1::total)
    }))
}

/// Figure 5: `icount2` across the suite, same configuration.
pub fn fig5_icount2(scale: Scale, threads: usize) -> FigSeries {
    let cfg = figure_config(2000, scale);
    series_from(crate::runs::parallel_over_catalog(threads, |spec| {
        run_triple(spec, scale, &cfg, ICount2::new, ICount2::total)
    }))
}

/// One bar of Figure 6 (gcc, varying timeslice), decomposed as in the
/// paper: native + fork&others + sleep + pipeline. All values in
/// presented (paper-equivalent) seconds.
#[derive(Clone, Debug)]
pub struct Fig6Row {
    /// Timeslice interval in presented seconds.
    pub timeslice_secs: f64,
    /// Native component.
    pub native_secs: f64,
    /// Fork-and-other overhead component.
    pub fork_other_secs: f64,
    /// Master sleep (max-slice stalls) component.
    pub sleep_secs: f64,
    /// Pipeline-delay component.
    pub pipeline_secs: f64,
    /// Total runtime.
    pub total_secs: f64,
    /// Slices created.
    pub slices: usize,
}

/// Figure 6: gcc runtime vs timeslice interval (default: the paper's
/// 0.5 s–4 s sweep), with the runtime breakdown.
pub fn fig6_timeslice(scale: Scale, timeslices_msec: &[u64]) -> Vec<Fig6Row> {
    let spec = find("gcc").expect("gcc in catalog");
    let program = spec.build(scale);
    timeslices_msec
        .iter()
        .map(|&msec| {
            let cfg = figure_config(msec, scale);
            let shared = SharedMem::new();
            let tool = ICount2::new(&shared);
            let report = run_superpin(&program, tool, &shared, cfg.clone(), spec.name);
            let b = &report.breakdown;
            Fig6Row {
                timeslice_secs: msec as f64 / 1000.0,
                native_secs: cfg.present_secs(b.native_cycles),
                fork_other_secs: cfg.present_secs(b.fork_other_cycles),
                sleep_secs: cfg.present_secs(b.sleep_cycles),
                pipeline_secs: cfg.present_secs(b.pipeline_cycles),
                total_secs: cfg.present_secs(report.total_cycles),
                slices: report.slice_count(),
            }
        })
        .collect()
}

/// One point of Figure 7 (gcc, varying max running slices on the 16
/// virtual-processor hyperthreaded machine).
#[derive(Clone, Debug)]
pub struct Fig7Row {
    /// `-spmp` value.
    pub max_slices: usize,
    /// Total runtime in presented seconds.
    pub runtime_secs: f64,
    /// Times the master stalled on the slice limit.
    pub stall_events: u64,
}

/// Figure 7: gcc runtime as the slice limit sweeps 1–16. The machine is
/// the paper's 8-way SMP with hyperthreading enabled (16 virtual
/// processors); beyond 8 slices the master shares a physical core. The
/// timeslice is the `-spmsec` default (1 s), so slice demand exceeds the
/// physical core count and the hyperthread knee is visible.
pub fn fig7_parallelism(scale: Scale, slice_limits: &[usize]) -> Vec<Fig7Row> {
    let spec = find("gcc").expect("gcc in catalog");
    let program = spec.build(scale);
    slice_limits
        .iter()
        .map(|&limit| {
            let cfg = figure_config(1000, scale)
                .with_machine(Machine::paper_testbed())
                .with_max_slices(limit);
            let shared = SharedMem::new();
            let tool = ICount2::new(&shared);
            let report = run_superpin(&program, tool, &shared, cfg.clone(), spec.name);
            Fig7Row {
                max_slices: limit,
                runtime_secs: cfg.present_secs(report.total_cycles),
                stall_events: report.stall_events,
            }
        })
        .collect()
}

/// Aggregated signature-detection statistics (paper §4.4's "only about
/// 2% of the time does the quick detector trigger a full architectural
/// state check").
#[derive(Clone, Copy, Debug, Default)]
pub struct SigStatsSummary {
    /// Aggregate counters across the suite.
    pub stats: SignatureStats,
    /// quick → full escalation rate.
    pub full_check_rate: f64,
    /// stack checks per detection (paper: "a stack check is usually only
    /// called once and succeeds").
    pub stack_checks_per_detection: f64,
}

/// Runs the suite under SuperPin/icount2 and aggregates detection stats.
pub fn signature_stats(scale: Scale, threads: usize) -> SigStatsSummary {
    let cfg = figure_config(2000, scale);
    let reports = crate::runs::parallel_over_catalog(threads, |spec| {
        let program = spec.build(scale);
        let shared = SharedMem::new();
        let tool = ICount2::new(&shared);
        run_superpin(&program, tool, &shared, cfg.clone(), spec.name)
    });
    let mut stats = SignatureStats::default();
    for report in &reports {
        stats.absorb(&report.sig_stats);
    }
    SigStatsSummary {
        stats,
        full_check_rate: stats.full_check_rate(),
        stack_checks_per_detection: if stats.detections == 0 {
            0.0
        } else {
            stats.stack_checks as f64 / stats.detections as f64
        },
    }
}

/// Measured pipeline delay vs the paper's §3 model.
#[derive(Clone, Copy, Debug)]
pub struct PipelineCheck {
    /// Timeslice in presented seconds.
    pub timeslice_secs: f64,
    /// Measured pipeline delay in presented seconds.
    pub measured_secs: f64,
    /// The paper's not-fully-loaded model `(F+1)·s` with `F` = max
    /// slices.
    pub model_f_plus_1_secs: f64,
    /// The fully-loaded model `N·s` with `N` = processors.
    pub model_n_secs: f64,
}

/// Evaluates the §3 pipeline-delay model on gcc across timeslices.
pub fn pipeline_model(scale: Scale, timeslices_msec: &[u64]) -> Vec<PipelineCheck> {
    let spec = find("gcc").expect("gcc in catalog");
    let program = spec.build(scale);
    timeslices_msec
        .iter()
        .map(|&msec| {
            let cfg = figure_config(msec, scale);
            let shared = SharedMem::new();
            let tool = ICount2::new(&shared);
            let report = run_superpin(&program, tool, &shared, cfg.clone(), spec.name);
            let s = msec as f64 / 1000.0;
            PipelineCheck {
                timeslice_secs: s,
                measured_secs: cfg.present_secs(report.breakdown.pipeline_cycles),
                model_f_plus_1_secs: (cfg.max_slices as f64 + 1.0) * s,
                model_n_secs: cfg.machine.physical_cores as f64 * s,
            }
        })
        .collect()
}

/// One design-choice ablation row: gcc runtime with a variant toggled.
#[derive(Clone, Debug)]
pub struct AblationRow {
    /// Variant name.
    pub variant: &'static str,
    /// Total runtime in presented seconds.
    pub total_secs: f64,
    /// Master sleep component in presented seconds.
    pub sleep_secs: f64,
    /// Sum of slice JIT cycles, presented seconds.
    pub slice_jit_secs: f64,
    /// Syscall-forced forks.
    pub forks_on_syscall: u64,
}

/// Ablations of the design choices DESIGN.md calls out, all on gcc at a
/// 1 s timeslice: baseline, shared code cache (paper §8), adaptive
/// timeslice throttling (paper §8), master-pinned scheduling, and
/// disabled syscall recording.
pub fn ablations(scale: Scale) -> Vec<AblationRow> {
    let gcc = find("gcc").expect("gcc in catalog");
    let gcc_program = gcc.build(scale);
    let base_cfg = figure_config(1000, scale);

    let run_variant = |variant: &'static str,
                       program: &superpin_isa::Program,
                       name: &str,
                       cfg: superpin::SuperPinConfig|
     -> (AblationRow, superpin::SuperPinReport) {
        let shared = SharedMem::new();
        let tool = ICount2::new(&shared);
        let report = run_superpin(program, tool, &shared, cfg.clone(), name);
        (
            AblationRow {
                variant,
                total_secs: cfg.present_secs(report.total_cycles),
                sleep_secs: cfg.present_secs(report.breakdown.sleep_cycles),
                slice_jit_secs: cfg
                    .present_secs(report.slices.iter().map(|s| s.engine.cycles.jit).sum()),
                forks_on_syscall: report.forks_on_syscall,
            },
            report,
        )
    };

    let (baseline, baseline_report) =
        run_variant("baseline", &gcc_program, gcc.name, base_cfg.clone());

    let mut shared_cache_cfg = base_cfg.clone();
    shared_cache_cfg.shared_code_cache = true;
    let (shared_cache, _) = run_variant(
        "shared-code-cache",
        &gcc_program,
        gcc.name,
        shared_cache_cfg,
    );

    // Adaptive throttling needs a run-length estimate; use the baseline's
    // master-exit time (the paper imagines automatic prediction).
    let mut adaptive_cfg = base_cfg.clone();
    adaptive_cfg.adaptive_estimate = Some(baseline_report.master_exit_cycles);
    let (adaptive, _) = run_variant("adaptive-timeslice", &gcc_program, gcc.name, adaptive_cfg);

    let mut pinned_cfg = base_cfg.clone();
    pinned_cfg.policy = superpin_sched::Policy::MasterFirst;
    let (pinned, _) = run_variant("master-pinned", &gcc_program, gcc.name, pinned_cfg);

    // gcc's brk churn never forces slices (Duplicate class), so the
    // recording ablation uses the write-heavy vortex.
    let vortex = find("vortex").expect("vortex in catalog");
    let vortex_program = vortex.build(scale);
    let (recs_on, _) = run_variant(
        "vortex-sysrecs-on",
        &vortex_program,
        vortex.name,
        base_cfg.clone(),
    );
    let (recs_off, _) = run_variant(
        "vortex-sysrecs-off",
        &vortex_program,
        vortex.name,
        base_cfg.with_max_sysrecs(0),
    );

    vec![baseline, shared_cache, adaptive, pinned, recs_on, recs_off]
}

/// §6.3 overhead taxonomy for one benchmark run.
#[derive(Clone, Copy, Debug)]
pub struct OverheadReport {
    /// Ptrace overhead as a fraction of native time (paper: "less than a
    /// few tenths of a percent").
    pub ptrace_fraction: f64,
    /// Master-side copy-on-write page copies.
    pub master_cow_copies: u64,
    /// Total slice-side COW copies.
    pub slice_cow_copies: u64,
    /// Mean fraction of a slice's cycles spent in JIT compilation
    /// ("compilation slowdown").
    pub mean_slice_jit_fraction: f64,
    /// Syscall-forced slice fraction of all forks.
    pub syscall_fork_fraction: f64,
}

/// Measures the §6.3 overhead components on gcc.
pub fn overhead_breakdown(scale: Scale) -> OverheadReport {
    let spec = find("gcc").expect("gcc in catalog");
    let program = spec.build(scale);
    let cfg = figure_config(2000, scale);
    let shared = SharedMem::new();
    let tool = ICount2::new(&shared);
    let report = run_superpin(&program, tool, &shared, cfg.clone(), spec.name);

    let ptrace_cycles = report.ptrace.syscall_stops * cfg.cost.ptrace_stop;
    let jit_fractions: Vec<f64> = report
        .slices
        .iter()
        .map(|s| {
            let total = s.engine.cycles.total().max(1);
            s.engine.cycles.jit as f64 / total as f64
        })
        .collect();
    let forks = (report.forks_on_timeout + report.forks_on_syscall).max(1);
    OverheadReport {
        ptrace_fraction: ptrace_cycles as f64 / report.breakdown.native_cycles.max(1) as f64,
        master_cow_copies: report.master_cow_copies,
        slice_cow_copies: report.slices.iter().map(|s| s.cow_copies).sum(),
        mean_slice_jit_fraction: jit_fractions.iter().sum::<f64>()
            / jit_fractions.len().max(1) as f64,
        syscall_fork_fraction: report.forks_on_syscall as f64 / forks as f64,
    }
}
