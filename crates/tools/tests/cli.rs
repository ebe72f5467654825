//! The `spin-replay` binary run as a user would run it: `record` and
//! `replay` read their flags with the grammar and the rejections the
//! other binaries use.

use std::path::PathBuf;
use std::process::{Command, Output};

use superpin::FailPlan;
use superpin_replay::ReplayLog;

fn spin_replay(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_spin-replay"))
        .args(args)
        .env("RUST_BACKTRACE", "0")
        .output()
        .expect("the spin-replay binary starts")
}

/// A log path of this test's own, with no file there yet.
fn log_path(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("cli-{name}.splog"));
    let _ = std::fs::remove_file(&path);
    path.to_string_lossy().into_owned()
}

/// Runs `record gcc` with `flags`, expecting success, and decodes the log.
fn record(name: &str, flags: &[&str]) -> ReplayLog {
    let path = log_path(name);
    let out = spin_replay(&[&["record", "gcc", "-o", &path], flags].concat());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
    let bytes = std::fs::read(&path).expect("the log was written");
    ReplayLog::decode(&bytes).expect("the log decodes")
}

/// Runs `args`, expecting a usage error: exit 2 and one prefixed line
/// naming `flag`.
fn assert_usage_error(args: &[&str], flag: &str) {
    let out = spin_replay(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: stderr: {stderr}");
    let first = stderr.lines().next().unwrap_or_default();
    assert!(first.starts_with("spin-replay: "), "{args:?}: {stderr}");
    assert!(first.contains(flag), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
}

#[test]
fn zero_threads_is_a_usage_error() {
    let path = log_path("zero-threads");
    assert_usage_error(
        &["record", "gcc", "--threads", "0", "-o", &path],
        "--threads",
    );
    assert!(!std::path::Path::new(&path).exists(), "nothing is recorded");
    assert_usage_error(&["replay", &path, "--threads", "0"], "--threads");
}

#[test]
fn chaos_rate_must_be_a_probability() {
    for bad in ["nan", "1.5", "-0.1", "often"] {
        let path = log_path("bad-rate");
        assert_usage_error(
            &["record", "gcc", "--chaos-rate", bad, "-o", &path],
            "--chaos-rate",
        );
    }
}

#[test]
fn chaos_rate_alone_arms_seed_one() {
    let log = record("rate-only", &["--chaos-rate", "0.02"]);
    assert_eq!(log.recipe.chaos, Some(FailPlan::new(1, 0.02)));
    let log = record("seed-only", &["--chaos-seed", "4"]);
    assert_eq!(log.recipe.chaos, Some(FailPlan::new(4, 0.01)));
}

#[test]
fn mem_budget_takes_byte_suffixes() {
    let log = record("budget", &["--mem-budget", "64m"]);
    assert_eq!(log.recipe.mem_budget, Some(64 << 20));
    let path = log_path("bad-budget");
    assert_usage_error(
        &["record", "gcc", "--mem-budget", "lots", "-o", &path],
        "--mem-budget",
    );
}
