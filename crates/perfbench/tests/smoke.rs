//! Whole-benchmark tests: a `Scale::Tiny` smoke of all five workloads
//! with every check passing, the result-file ↔ `--compare` round trip,
//! and `BENCHMARK.json` held against the crate's metric tables.

use std::path::PathBuf;

use superpin_perfbench::compare::compare;
use superpin_perfbench::harness::{run_workload, Ctx, Protocol, WorkloadResult, DEFAULT_SECONDS};
use superpin_perfbench::inputs::Size;
use superpin_perfbench::json::Json;
use superpin_perfbench::metrics::{
    end_to_end, per_layer, valid_name, valid_unit, END_TO_END, PER_LAYER, RUNNER_WORKLOADS,
    WORKLOADS,
};

fn smoke(workload: usize, seed: u64, dir: &str) -> WorkloadResult {
    let ctx = Ctx {
        seed,
        size: Size::Smoke,
        threads: 2,
        out_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(dir),
    };
    run_workload(workload, &ctx, Protocol::smoke(), true)
        .unwrap_or_else(|e| panic!("{}: {e}", WORKLOADS[workload]))
}

fn keys(line: &str) -> Vec<String> {
    let doc = Json::parse(line).expect("the result line is JSON");
    let top: Vec<&str> = doc
        .as_obj()
        .expect("object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(top, ["correct", "attempted", "failed", "metrics"]);
    let metrics = doc.get("metrics").and_then(Json::as_obj).expect("metrics");
    for (name, value) in metrics {
        let fields: Vec<&str> = value
            .as_obj()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(fields, ["value", "unit"], "{name}");
        assert!(
            value.get("value").and_then(Json::as_f64).is_some(),
            "{name}"
        );
    }
    metrics.iter().map(|(k, _)| k.clone()).collect()
}

#[test]
fn all_five_workloads_pass_every_check_at_tiny_scale() {
    let results: Vec<WorkloadResult> = (0..WORKLOADS.len()).map(|w| smoke(w, 1, "smoke")).collect();
    for result in &results {
        let name = result.workload;
        assert!(result.ops.attempted > 0, "{name} checked nothing");
        assert_eq!(result.ops.failed, 0, "{name}: {:?}", result.ops.failures);

        // Exactly the end-to-end metrics that apply, none reported as 0.
        let reported: Vec<&str> = result.end_to_end.iter().map(|m| m.name).collect();
        for metric in &END_TO_END {
            assert_eq!(
                reported.contains(&metric.name),
                metric.applies_to(name),
                "{name}/{}",
                metric.name
            );
        }
        for metric in &result.end_to_end {
            assert!(metric.summary.median > 0.0, "{name}/{} is 0", metric.name);
        }
        for metric in &result.per_layer {
            assert!(
                per_layer(metric.name).is_some(),
                "{name}/{} not in the table",
                metric.name
            );
            assert!(metric.summary.median.is_finite(), "{name}/{}", metric.name);
        }

        // The runner's result line: the end-to-end metrics it gates
        // untraced, every other declared metric traced.
        let expected: Vec<&str> = END_TO_END
            .iter()
            .filter(|m| m.in_runner_gate())
            .map(|m| m.name)
            .collect();
        assert_eq!(keys(&result.contract_line(false)), expected);
        let traced = keys(&result.contract_line(true));
        assert_eq!(
            traced.len(),
            END_TO_END.len() - expected.len() + PER_LAYER.len()
        );

        // One loadable trace file per workload.
        let path =
            PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke/trace-{name}.json"));
        let trace =
            Json::parse(&std::fs::read_to_string(&path).expect("trace file")).expect("JSON");
        let events = trace
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("traceEvents");
        assert!(events
            .iter()
            .any(|e| e.get("name").and_then(Json::as_str) == Some("bench.repetition")));
    }

    // parallel_tN runs exactly the steady_t1 guests: same reports.
    assert_eq!(results[0].digest, results[2].digest);
    // Every epoch of a *_t1 traced repetition is a span.
    for t1 in [&results[0], &results[1]] {
        assert!(
            t1.per_layer.iter().any(|m| m.name == "core.epoch_us_p99"),
            "{}",
            t1.workload
        );
    }
    // The seed reaches the inputs.
    assert_ne!(smoke(0, 2, "smoke-seed2").digest, results[0].digest);
}

#[test]
fn result_files_round_trip_through_compare() {
    let results = [smoke(0, 1, "compare"), smoke(3, 1, "compare")];
    let document = |results: &[WorkloadResult]| {
        Json::obj([
            ("seed", Json::str("1")),
            (
                "workloads",
                Json::Arr(results.iter().map(WorkloadResult::to_json).collect()),
            ),
        ])
    };
    let text = document(&results).to_string();
    let a = Json::parse(&text).expect("result files are JSON");
    assert_eq!(a.to_string(), text, "writer and reader agree byte for byte");

    let same = compare(&a, &a).expect("comparable");
    assert_eq!(same.counts.1, 0, "{}", same.table);
    assert!(same.table.contains("steady_t1") && same.table.contains("record_s"));

    // A slower wall clock, a changed count and a changed digest all show.
    let mut worse = results.clone();
    for metric in &mut worse[0].end_to_end {
        if metric.name == "wall_s" {
            metric.summary.median *= 1.5;
            metric.summary.p25 *= 1.5;
            metric.summary.p75 *= 1.5;
            metric.summary.min *= 1.5;
            metric.summary.max *= 1.5;
        }
    }
    for metric in &mut worse[1].end_to_end {
        if metric.name == "log_kb" {
            metric.summary.median += 1.0;
        }
    }
    worse[1].digest ^= 1;
    let b = Json::parse(&document(&worse).to_string()).expect("JSON");
    let outcome = compare(&a, &b).expect("comparable");
    let verdict = |workload: &str, metric: &str| {
        outcome
            .table
            .lines()
            .find(|l| l.starts_with(workload) && l.split_whitespace().nth(1) == Some(metric))
            .and_then(|l| l.split_whitespace().last())
            .map(str::to_owned)
    };
    assert_ne!(verdict("steady_t1", "wall_s").as_deref(), Some("ok"));
    assert_eq!(
        verdict("record_replay", "log_kb").as_deref(),
        Some("regressed")
    );
    assert_eq!(
        verdict("record_replay", "digest").as_deref(),
        Some("regressed")
    );
    assert_eq!(verdict("steady_t1", "digest").as_deref(), Some("ok"));
    assert!(outcome.counts.1 >= 2);

    // Neither side may hold a workload or a metric the other lacks.
    let fewer = Json::parse(&document(&results[..1]).to_string()).expect("JSON");
    assert!(compare(&fewer, &a).is_err() && compare(&a, &fewer).is_err());
    let mut extra = results.clone();
    let rss = extra[0]
        .end_to_end
        .iter()
        .position(|m| m.name == "peak_rss_mb");
    extra[0].end_to_end.remove(rss.expect("peak_rss_mb"));
    let lacking = Json::parse(&document(&extra).to_string()).expect("JSON");
    assert!(compare(&lacking, &a).is_err() && compare(&a, &lacking).is_err());
    assert!(compare(&Json::Null, &a).is_err());
}

#[test]
fn benchmark_json_agrees_with_the_metric_tables() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCHMARK.json");
    let doc = Json::parse(&std::fs::read_to_string(&path).expect("BENCHMARK.json")).expect("JSON");
    let top: Vec<&str> = doc
        .as_obj()
        .expect("object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        top,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    assert_eq!(
        doc.get("run_seconds").and_then(Json::as_f64),
        Some(DEFAULT_SECONDS)
    );
    let paths = doc.get("paths").and_then(Json::as_arr).expect("paths");
    assert_eq!(paths, [Json::str("crates/perfbench")]);

    let names = |key: &str| -> Vec<String> {
        doc.get(key)
            .and_then(Json::as_arr)
            .expect(key)
            .iter()
            .map(|entry| {
                entry
                    .get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_owned()
            })
            .collect()
    };
    assert_eq!(names("workloads"), RUNNER_WORKLOADS);
    for entry in doc
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
    {
        let why = entry.get("why").and_then(Json::as_str).expect("why");
        assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
    }

    // end_to_end: the metrics the runner can gate.
    let gated = END_TO_END.iter().filter(|m| m.in_runner_gate());
    assert_eq!(
        names("end_to_end"),
        gated.map(|m| m.name).collect::<Vec<_>>()
    );
    for entry in doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .expect("end_to_end")
    {
        let name = entry.get("name").and_then(Json::as_str).expect("name");
        let metric = end_to_end(name).expect("in the table");
        assert_eq!(
            entry.get("unit").and_then(Json::as_str),
            Some(metric.unit),
            "{name}"
        );
        assert_eq!(
            entry.get("better").and_then(Json::as_str),
            Some(metric.better.as_str()),
            "{name}"
        );
        // The runner's threshold: never tighter than the benchmark's own
        // bound, never wider than the runner allows.
        let threshold = entry.get("bound").and_then(Json::as_f64).expect("bound");
        assert!(
            metric.bound <= threshold && threshold <= 0.25,
            "{name}: {threshold}"
        );
    }

    // per_layer: the other end-to-end metrics, then every layer metric.
    let specific = END_TO_END.iter().filter(|m| !m.in_runner_gate());
    let expected: Vec<(&str, &str, &str)> = specific
        .map(|m| (m.name, m.unit, m.better.as_str()))
        .chain(PER_LAYER.iter().map(|(n, u, b)| (*n, *u, b.as_str())))
        .collect();
    let declared = doc
        .get("per_layer")
        .and_then(Json::as_arr)
        .expect("per_layer");
    assert!(declared.len() <= 128);
    assert_eq!(declared.len(), expected.len());
    for (entry, (name, unit, better)) in declared.iter().zip(expected) {
        assert_eq!(entry.get("name").and_then(Json::as_str), Some(name));
        assert_eq!(
            entry.get("unit").and_then(Json::as_str),
            Some(unit),
            "{name}"
        );
        assert_eq!(
            entry.get("better").and_then(Json::as_str),
            Some(better),
            "{name}"
        );
        assert!(valid_name(name) && valid_unit(unit));
        assert_eq!(
            entry.as_obj().map(<[_]>::len),
            Some(3),
            "{name}: exactly name, unit, better"
        );
    }
}
