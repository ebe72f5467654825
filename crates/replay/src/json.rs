//! The run report as JSON, and the report diff the replay verifier
//! names its first differing field with.
//!
//! One field table per struct (`report_fields`, `slice_fields`) feeds
//! both: [`report_to_json`] writes it, and
//! [`first_report_difference`] compares it, so the JSON and the diff
//! can never disagree on a field's name or order. Two equal reports
//! produce byte-equal JSON, so CI can `diff` recorded vs. replayed
//! report files directly.

use superpin::json::{self, Writer};
use superpin::{SliceEnd, SliceReport, SuperPinReport};

/// A slice field's value: a count, or the name of how the slice ended.
#[derive(Clone, Copy, PartialEq)]
enum Value {
    Count(u64),
    Name(&'static str),
}

/// The report's top-level fields, in emission order.
fn report_fields(r: &SuperPinReport) -> [(&'static str, u64); 25] {
    [
        ("total_cycles", r.total_cycles),
        ("master_exit_cycles", r.master_exit_cycles),
        ("native_cycles", r.breakdown.native_cycles),
        ("fork_other_cycles", r.breakdown.fork_other_cycles),
        ("sleep_cycles", r.breakdown.sleep_cycles),
        ("pipeline_cycles", r.breakdown.pipeline_cycles),
        ("master_insts", r.master_insts),
        ("master_syscalls", r.master_syscalls),
        ("syscall_stops", r.ptrace.syscall_stops),
        ("timeout_stops", r.ptrace.timeout_stops),
        ("quick_checks", r.sig_stats.quick_checks),
        ("full_checks", r.sig_stats.full_checks),
        ("stack_checks", r.sig_stats.stack_checks),
        ("detections", r.sig_stats.detections),
        ("forks_on_timeout", r.forks_on_timeout),
        ("forks_on_syscall", r.forks_on_syscall),
        ("stall_events", r.stall_events),
        ("master_cow_copies", r.master_cow_copies),
        ("epochs", r.epochs),
        ("slice_retries", r.slice_retries),
        ("slices_degraded", r.slices_degraded),
        ("peak_resident_bytes", r.peak_resident_bytes),
        ("slices_deferred", r.slices_deferred),
        ("checkpoints_dropped", r.checkpoints_dropped),
        ("caches_evicted", r.caches_evicted),
    ]
}

/// One slice's fields, in emission order.
fn slice_fields(s: &SliceReport) -> [(&'static str, Value); 27] {
    use Value::Count;
    let end = match s.end {
        SliceEnd::SignatureDetected => "signature",
        SliceEnd::RecordsExhausted => "records",
        SliceEnd::Exited => "exited",
        SliceEnd::ToolEnded => "tool",
    };
    let (engine, cache) = (&s.engine, &s.cache);
    [
        ("num", Count(s.num.into())),
        ("insts", Count(s.insts)),
        ("records_played", Count(s.records_played)),
        ("end", Value::Name(end)),
        ("start_cycles", Count(s.start_cycles)),
        ("wake_cycles", Count(s.wake_cycles)),
        ("end_cycles", Count(s.end_cycles)),
        ("app", Count(engine.cycles.app)),
        ("analysis", Count(engine.cycles.analysis)),
        ("jit", Count(engine.cycles.jit)),
        ("dispatch", Count(engine.cycles.dispatch)),
        ("syscall", Count(engine.cycles.syscall)),
        ("insts_executed", Count(engine.insts_executed)),
        ("traces_executed", Count(engine.traces_executed)),
        ("analysis_calls", Count(engine.analysis_calls)),
        ("if_checks", Count(engine.if_checks)),
        ("then_calls", Count(engine.then_calls)),
        ("shared_adoptions", Count(engine.shared_cache_adoptions)),
        ("shared_misses", Count(engine.shared_cache_misses)),
        ("shared_contention", Count(engine.shared_cache_contention)),
        ("lookups", Count(cache.lookups)),
        ("hits", Count(cache.hits)),
        ("traces_compiled", Count(cache.traces_compiled)),
        ("insts_compiled", Count(cache.insts_compiled)),
        ("flushes", Count(cache.flushes)),
        ("smc_flushes", Count(cache.smc_flushes)),
        ("cow_copies", Count(s.cow_copies)),
    ]
}

/// Writes a report's fields, `slices` last, into the object `w` has
/// open (a fleet outcome line embeds the report this way).
pub fn write_report(w: &mut Writer, report: &SuperPinReport) {
    for (name, value) in report_fields(report) {
        w.uint(name, value);
    }
    w.key("slices").array();
    for slice in &report.slices {
        w.object();
        for (name, value) in slice_fields(slice) {
            match value {
                Value::Count(n) => w.uint(name, n),
                Value::Name(text) => w.string(name, text),
            };
        }
        w.end();
    }
    w.end();
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
    let mut fields = report_fields(a).into_iter().zip(report_fields(b));
    if let Some(((name, _), _)) = fields.find(|(x, y)| x != y) {
        return Some(name.to_owned());
    }
    if a.slices.len() != b.slices.len() {
        return Some("slices.len".to_owned());
    }
    let mut slices = a.slices.iter().zip(&b.slices);
    let i = slices.position(|(x, y)| slice_fields(x) != slice_fields(y))?;
    Some(format!("slices[{i}]"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use superpin::{SuperPinReport, TimeBreakdown};
    use superpin_vm::ptrace::PtraceStats;

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
