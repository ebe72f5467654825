//! Plain-text rendering of figure data.

use crate::figures::{
    self, Fig6Row, Fig7Row, FigSeries, OverheadReport, PipelineCheck, SigStatsSummary,
};
use std::fmt::Write as _;
use superpin_workloads::Scale;

/// Every table and figure of the paper's evaluation at `scale`, one
/// after another: what `reproduce all` prints, and what
/// `results_medium.txt` holds for `Scale::Medium`. The text is the same
/// for every `threads`.
pub fn render_all(scale: Scale, threads: usize) -> String {
    let icount1 = figures::fig3_icount1(scale, threads);
    let icount2 = figures::fig5_icount2(scale, threads);
    [
        render_series(
            "Figure 3: icount1 — Pin and SuperPin runtime relative to native",
            &icount1,
        ),
        render_series(
            "Figure 4: icount1 — SuperPin speedup over Pin (same data)",
            &icount1,
        ),
        render_series(
            "Figure 5: icount2 — Pin and SuperPin runtime relative to native",
            &icount2,
        ),
        render_fig6(&figures::fig6_timeslice(scale, &[500, 1000, 2000, 4000])),
        render_fig7(&figures::fig7_parallelism(scale, &[1, 2, 4, 8, 12, 16])),
        render_sigstats(&figures::signature_stats(scale, threads)),
        render_pipeline(&figures::pipeline_model(scale, &[1000, 2000, 4000])),
        render_overhead(&figures::overhead_breakdown(scale)),
        render_ablations(&figures::ablations(scale)),
    ]
    .join("\n")
}

/// Renders a Figure 3/5-style series (runtime % of native + speedup).
pub fn render_series(title: &str, series: &FigSeries) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let _ = writeln!(
        out,
        "{:<10} {:>10} {:>12} {:>9} {:>7} {:>7}",
        "benchmark", "pin %", "superpin %", "speedup", "slices", "counts"
    );
    for row in &series.rows {
        let _ = writeln!(
            out,
            "{:<10} {:>9.0}% {:>11.0}% {:>8.2}x {:>7} {:>7}",
            row.benchmark,
            row.pin_pct,
            row.superpin_pct,
            row.speedup,
            row.slices,
            if row.counts_ok { "ok" } else { "MISMATCH" }
        );
    }
    let _ = writeln!(
        out,
        "{:<10} {:>9.0}% {:>11.0}% {:>8.2}x",
        "AVG", series.avg_pin_pct, series.avg_superpin_pct, series.avg_speedup
    );
    out
}

/// Renders Figure 6's stacked breakdown.
pub fn render_fig6(rows: &[Fig6Row]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 6: gcc runtime vs timeslice interval (presented seconds)"
    );
    let _ = writeln!(
        out,
        "{:>10} {:>8} {:>12} {:>8} {:>10} {:>8} {:>7}",
        "timeslice", "native", "fork&others", "sleep", "pipeline", "total", "slices"
    );
    for row in rows {
        let _ = writeln!(
            out,
            "{:>9.1}s {:>8.1} {:>12.1} {:>8.1} {:>10.1} {:>8.1} {:>7}",
            row.timeslice_secs,
            row.native_secs,
            row.fork_other_secs,
            row.sleep_secs,
            row.pipeline_secs,
            row.total_secs,
            row.slices
        );
    }
    out
}

/// Renders Figure 7's parallelism sweep.
pub fn render_fig7(rows: &[Fig7Row]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 7: gcc runtime vs max running slices (16 virtual CPUs)"
    );
    let _ = writeln!(
        out,
        "{:>12} {:>12} {:>8}",
        "max slices", "runtime", "stalls"
    );
    for row in rows {
        let _ = writeln!(
            out,
            "{:>12} {:>11.1}s {:>8}",
            row.max_slices, row.runtime_secs, row.stall_events
        );
    }
    out
}

/// Renders the §4.4 signature-detection statistics.
pub fn render_sigstats(summary: &SigStatsSummary) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Signature detection statistics (paper §4.4)");
    let _ = writeln!(
        out,
        "  quick checks:            {}",
        summary.stats.quick_checks
    );
    let _ = writeln!(
        out,
        "  full (arch) checks:      {}",
        summary.stats.full_checks
    );
    let _ = writeln!(
        out,
        "  stack checks:            {}",
        summary.stats.stack_checks
    );
    let _ = writeln!(
        out,
        "  detections:              {}",
        summary.stats.detections
    );
    let _ = writeln!(
        out,
        "  quick→full rate:         {:.2}%  (paper: ~2%)",
        100.0 * summary.full_check_rate
    );
    let _ = writeln!(
        out,
        "  stack checks/detection:  {:.2}  (paper: usually once)",
        summary.stack_checks_per_detection
    );
    out
}

/// Renders the §3 pipeline-delay model check.
pub fn render_pipeline(checks: &[PipelineCheck]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Pipeline-delay model (paper §3): gcc");
    let _ = writeln!(
        out,
        "{:>10} {:>10} {:>12} {:>8}",
        "timeslice", "measured", "(F+1)*s", "N*s"
    );
    for check in checks {
        let _ = writeln!(
            out,
            "{:>9.1}s {:>9.1}s {:>11.1}s {:>7.1}s",
            check.timeslice_secs,
            check.measured_secs,
            check.model_f_plus_1_secs,
            check.model_n_secs
        );
    }
    out
}

/// Renders the design-choice ablation table.
pub fn render_ablations(rows: &[crate::figures::AblationRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Ablations: gcc, 1 s timeslice (presented seconds)");
    let _ = writeln!(
        out,
        "{:<20} {:>9} {:>9} {:>11} {:>11}",
        "variant", "total", "sleep", "slice JIT", "sys forks"
    );
    for row in rows {
        let _ = writeln!(
            out,
            "{:<20} {:>8.1}s {:>8.1}s {:>10.1}s {:>11}",
            row.variant, row.total_secs, row.sleep_secs, row.slice_jit_secs, row.forks_on_syscall
        );
    }
    out
}

/// Renders an ASCII Gantt chart of a SuperPin run: the master's lifetime
/// on the first row, then every slice's sleep (`.`) and run (`#`) span,
/// visualizing Figure 1's pipeline of overlapping instrumented slices.
pub fn render_gantt(report: &superpin::SuperPinReport, width: usize) -> String {
    let width = width.clamp(20, 200);
    let total = report.total_cycles.max(1);
    let scale =
        |cycles: u64| -> usize { ((cycles as u128 * width as u128) / total as u128) as usize };
    let mut out = String::new();
    let _ = writeln!(
        out,
        "gantt ({} cycles across {width} cols; '=' master, '.' asleep, '#' running)",
        report.total_cycles
    );
    let master_end = scale(report.master_exit_cycles);
    let mut master_row = String::new();
    master_row.push_str(&"=".repeat(master_end));
    master_row.push_str(&" ".repeat(width.saturating_sub(master_end)));
    let _ = writeln!(out, "master   |{master_row}|");

    // Print at most 24 slices, evenly sampled, to keep the chart readable.
    let step = (report.slices.len() / 24).max(1);
    for slice in report.slices.iter().step_by(step) {
        let fork_col = scale(slice.start_cycles);
        let wake_col = scale(slice.wake_cycles).max(fork_col);
        let end_col = scale(slice.end_cycles).max(wake_col + 1).min(width);
        let wake_col = wake_col.min(end_col);
        let mut row = String::new();
        row.push_str(&" ".repeat(fork_col));
        row.push_str(&".".repeat(wake_col - fork_col));
        row.push_str(&"#".repeat(end_col - wake_col));
        row.push_str(&" ".repeat(width.saturating_sub(end_col)));
        let _ = writeln!(out, "slice {:>3}|{row}|", slice.num);
    }
    out
}

/// Renders the §6.3 overhead taxonomy.
pub fn render_overhead(report: &OverheadReport) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Overhead taxonomy (paper §6.3): gcc");
    let _ = writeln!(
        out,
        "  ptrace overhead:      {:.3}% of native  (paper: < a few tenths of a percent)",
        100.0 * report.ptrace_fraction
    );
    let _ = writeln!(out, "  master COW copies:    {}", report.master_cow_copies);
    let _ = writeln!(out, "  slice COW copies:     {}", report.slice_cow_copies);
    let _ = writeln!(
        out,
        "  mean slice JIT share: {:.1}% of slice cycles (compilation slowdown)",
        100.0 * report.mean_slice_jit_fraction
    );
    let _ = writeln!(
        out,
        "  syscall-forced forks: {:.1}% of all forks",
        100.0 * report.syscall_fork_fraction
    );
    out
}
