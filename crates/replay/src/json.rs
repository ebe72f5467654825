//! The run report as JSON, and the report diff the replay verifier
//! names its first differing field with.
//!
//! The field tables the `.splog` codec writes reports with (each
//! report struct's `wire_table!`) feed both: [`report_to_json`] writes
//! them, and [`first_report_difference`] compares them, so the wire, the JSON and the diff can never disagree on a field's name or
//! order. Two equal reports produce byte-equal JSON, so CI can `diff`
//! recorded vs. replayed report files directly.

use crate::codec::Value;
use crate::wire::Fields;
use superpin::json::{self, Writer};
use superpin::SuperPinReport;

/// Writes a report's fields, `slices` last, into the object `w` has
/// open (a fleet outcome line embeds the report this way).
pub fn write_report(w: &mut Writer, report: &SuperPinReport) {
    write_fields(w, report);
    w.key("slices").array();
    for slice in &report.slices {
        w.object();
        write_fields(w, slice);
        w.end();
    }
    w.end();
}

fn write_fields(w: &mut Writer, table: &impl Fields<Value>) {
    table.each(&mut |name, value| {
        match value {
            Value::Count(n) => w.uint(name, n),
            Value::Name(text) => w.string(name, text),
        };
    });
}

/// Serializes a complete run report as one-line JSON, in a fixed field
/// order.
pub fn report_to_json(report: &SuperPinReport) -> String {
    let mut w = json::object();
    write_report(&mut w, report);
    w.finish()
}

/// Names the first field where two reports differ: a top-level field,
/// `slices.len`, or `slices[i]`. `None` when they agree on every field
/// the JSON carries.
pub fn first_report_difference(a: &SuperPinReport, b: &SuperPinReport) -> Option<String> {
    let (x, y) = (fields(a), fields(b));
    if let Some(((name, _), _)) = x.iter().zip(&y).find(|(x, y)| x != y) {
        return Some((*name).to_owned());
    }
    if a.slices.len() != b.slices.len() {
        return Some("slices.len".to_owned());
    }
    let mut slices = a.slices.iter().zip(&b.slices);
    let i = slices.position(|(x, y)| fields(x) != fields(y))?;
    Some(format!("slices[{i}]"))
}

/// A table's values, collected in wire order.
fn fields(table: &impl Fields<Value>) -> Vec<(&'static str, Value)> {
    let mut out = Vec::new();
    table.each(&mut |name, value| out.push((name, value)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use superpin::master::PtraceStats;
    use superpin::{SliceEnd, SliceReport, TimeBreakdown};

    fn base() -> SuperPinReport {
        SuperPinReport {
            total_cycles: 100,
            master_exit_cycles: 90,
            breakdown: TimeBreakdown::default(),
            master_insts: 50,
            master_syscalls: 3,
            ptrace: PtraceStats::default(),
            slices: Vec::new(),
            sig_stats: Default::default(),
            forks_on_timeout: 2,
            forks_on_syscall: 0,
            stall_events: 0,
            master_cow_copies: 0,
            epochs: 7,
            slice_retries: 0,
            slices_degraded: 0,
            peak_resident_bytes: 0,
            slices_deferred: 0,
            checkpoints_dropped: 0,
            caches_evicted: 0,
        }
    }

    fn slice(num: u32) -> SliceReport {
        SliceReport {
            num,
            insts: 10,
            records_played: 0,
            end: SliceEnd::SignatureDetected,
            start_cycles: 0,
            wake_cycles: 0,
            end_cycles: 5,
            engine: Default::default(),
            cache: Default::default(),
            cow_copies: 0,
        }
    }

    #[test]
    fn report_diffing_names_the_first_divergent_field() {
        let a = base();
        assert_eq!(first_report_difference(&a, &a), None);
        let mut b = base();
        b.epochs = 8;
        assert_eq!(first_report_difference(&a, &b).as_deref(), Some("epochs"));
        b.total_cycles = 101;
        assert_eq!(
            first_report_difference(&a, &b).as_deref(),
            Some("total_cycles")
        );
    }

    #[test]
    fn report_diffing_names_slice_count_then_slice_index() {
        let mut a = base();
        a.slices = vec![slice(0), slice(1)];
        let mut b = a.clone();
        b.slices.pop();
        assert_eq!(
            first_report_difference(&a, &b).as_deref(),
            Some("slices.len")
        );
        let mut c = a.clone();
        c.slices[1].end = SliceEnd::Exited;
        assert_eq!(
            first_report_difference(&a, &c).as_deref(),
            Some("slices[1]")
        );
        c.slices[0].cache.hits = 1;
        assert_eq!(
            first_report_difference(&a, &c).as_deref(),
            Some("slices[0]")
        );
    }

    #[test]
    fn report_json_keeps_its_field_order() {
        let mut report = base();
        report.slices = vec![slice(3)];
        let json = report_to_json(&report);
        assert!(json.starts_with("{\"total_cycles\":100,\"master_exit_cycles\":90,"));
        assert!(json.contains(
            "\"caches_evicted\":0,\"slices\":[{\"num\":3,\"insts\":10,\
             \"records_played\":0,\"end\":\"signature\",\"start_cycles\":0,"
        ));
        assert!(json.ends_with("\"smc_flushes\":0,\"cow_copies\":0}]}"));
        assert_eq!(report_to_json(&base()).matches("\"slices\":[]}").count(), 1);
    }
}
