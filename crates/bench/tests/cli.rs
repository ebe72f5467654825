//! The `superpin` and `reproduce` binaries run as a user would run
//! them: a failed simulated run is exit code 1 with a one-line error,
//! never a panic, and a bad flag is exit code 2 before anything runs.

use std::process::{Command, Output};

#[test]
fn a_failed_run_exits_1_without_a_panic() {
    // A zero budget leaves the guest no room for its heap: it faults,
    // which is the outcome of this run, not a bug in the tool.
    let out = Command::new(env!("CARGO_BIN_EXE_superpin"))
        .args(["--mem-budget", "0", "-t", "icount1", "--", "gcc", "tiny"])
        .env("RUST_BACKTRACE", "0")
        .output()
        .expect("the superpin binary starts");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert!(stderr.starts_with("superpin: gcc: "), "stderr: {stderr}");
}

fn reproduce(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(args)
        .env("RUST_BACKTRACE", "0")
        .output()
        .expect("the reproduce binary starts")
}

#[test]
fn reproduce_rejects_bad_flags_before_running_a_figure() {
    for (args, message) in [
        (
            &["sigstats", "--scale", "tiny", "--threads", "abc"][..],
            "reproduce: `--threads` got `abc`; expected a thread count",
        ),
        (
            &["sigstats", "--scale", "tiny", "--threads", "0"][..],
            "reproduce: `--threads` must be at least 1 (1 = serial execution)",
        ),
        (
            &["sigstats", "--scale"][..],
            "reproduce: `--scale` requires a value",
        ),
        (
            &["sigstats", "--scale", "huge"][..],
            "reproduce: `--scale` got `huge`; expected tiny|small|medium|large",
        ),
    ] {
        let out = reproduce(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: stderr: {stderr}");
        assert_eq!(stderr.trim_end(), message, "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}: a figure ran");
    }
}

#[test]
fn icount1_prints_the_run_summary_and_the_gantt_chart() {
    let out = Command::new(env!("CARGO_BIN_EXE_superpin"))
        .args(["-gantt", "-t", "icount1", "--", "gzip", "tiny"])
        .env("RUST_BACKTRACE", "0")
        .output()
        .expect("the superpin binary starts");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "stdout: {stdout}");
    let has_line = |prefix: &str| stdout.lines().any(|line| line.starts_with(prefix));
    assert!(has_line("superpin: "), "no run summary: {stdout}");
    assert!(has_line("gantt ("), "no Gantt chart: {stdout}");
    assert!(has_line("master   |"), "no Gantt chart: {stdout}");
    assert!(has_line("Total Count: "), "no count: {stdout}");
}

#[test]
fn a_rejected_tool_is_a_usage_error_with_nothing_on_stdout() {
    for (args, message) in [
        (
            &["-t", "nope", "--", "gcc", "tiny"][..],
            "superpin: unknown tool `nope`",
        ),
        (
            &["-sp", "0", "-t", "sampler", "--", "gcc", "tiny"][..],
            "superpin: sampler requires -sp 1 (it is a SuperPin tool)",
        ),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_superpin"))
            .args(args)
            .env("RUST_BACKTRACE", "0")
            .output()
            .expect("the superpin binary starts");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: stderr: {stderr}");
        assert_eq!(stderr.lines().next(), Some(message), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}: the run started");
    }
}
