//! Figure data as JSON, for plotting scripts, through the shared
//! [`superpin::json`] writer.

use crate::figures::{Fig6Row, Fig7Row, FigSeries, SigStatsSummary};
use superpin::json;

/// Serializes a Figure 3/5 series.
pub fn series_to_json(series: &FigSeries) -> String {
    let mut w = json::object();
    w.key("rows").array();
    for row in &series.rows {
        w.object()
            .string("benchmark", row.benchmark)
            .float("pin_pct", row.pin_pct)
            .float("superpin_pct", row.superpin_pct)
            .float("speedup", row.speedup)
            .uint("slices", row.slices as u64)
            .boolean("counts_ok", row.counts_ok)
            .end();
    }
    w.end()
        .float("avg_pin_pct", series.avg_pin_pct)
        .float("avg_superpin_pct", series.avg_superpin_pct)
        .float("avg_speedup", series.avg_speedup);
    w.finish()
}

/// Serializes Figure 6 rows.
pub fn fig6_to_json(rows: &[Fig6Row]) -> String {
    let mut w = json::array();
    for row in rows {
        w.object()
            .float("timeslice_secs", row.timeslice_secs)
            .float("native_secs", row.native_secs)
            .float("fork_other_secs", row.fork_other_secs)
            .float("sleep_secs", row.sleep_secs)
            .float("pipeline_secs", row.pipeline_secs)
            .float("total_secs", row.total_secs)
            .uint("slices", row.slices as u64)
            .end();
    }
    w.finish()
}

/// Serializes Figure 7 rows.
pub fn fig7_to_json(rows: &[Fig7Row]) -> String {
    let mut w = json::array();
    for row in rows {
        w.object()
            .uint("max_slices", row.max_slices as u64)
            .float("runtime_secs", row.runtime_secs)
            .uint("stall_events", row.stall_events)
            .end();
    }
    w.finish()
}

/// Serializes the §4.4 signature statistics.
pub fn sigstats_to_json(summary: &SigStatsSummary) -> String {
    let stats = &summary.stats;
    let mut w = json::object();
    w.uint("quick_checks", stats.quick_checks)
        .uint("full_checks", stats.full_checks)
        .uint("stack_checks", stats.stack_checks)
        .uint("detections", stats.detections)
        .float("full_check_rate", summary.full_check_rate);
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::FigRow;

    #[test]
    fn series_json_is_well_formed() {
        let series = FigSeries {
            rows: vec![FigRow {
                benchmark: "gcc",
                pin_pct: 896.0,
                superpin_pct: 217.5,
                speedup: 4.12,
                slices: 85,
                counts_ok: true,
            }],
            avg_pin_pct: 896.0,
            avg_superpin_pct: 217.5,
            avg_speedup: 4.12,
        };
        let json = series_to_json(&series);
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"benchmark\":\"gcc\""));
        assert!(json.contains("\"pin_pct\":896.0000"));
        assert!(json.contains("\"counts_ok\":true"));
        // Balanced braces/brackets.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn fig6_and_fig7_json_shapes() {
        let f6 = fig6_to_json(&[Fig6Row {
            timeslice_secs: 0.5,
            native_secs: 98.2,
            fork_other_secs: 100.0,
            sleep_secs: 111.5,
            pipeline_secs: 5.1,
            total_secs: 314.8,
            slices: 397,
        }]);
        assert!(f6.starts_with('[') && f6.ends_with(']'));
        assert!(f6.contains("\"sleep_secs\":111.5000"));

        let f7 = fig7_to_json(&[Fig7Row {
            max_slices: 8,
            runtime_secs: 190.4,
            stall_events: 67,
        }]);
        assert!(f7.contains("\"max_slices\":8"));
        assert!(f7.contains("\"stall_events\":67"));
    }

    #[test]
    fn non_finite_values_become_null() {
        let f7 = fig7_to_json(&[Fig7Row {
            max_slices: 1,
            runtime_secs: f64::NAN,
            stall_events: 0,
        }]);
        assert!(f7.contains("\"runtime_secs\":null"), "{f7}");
    }
}
