//! The `spin-replay` binary run as a user would run it: `record` and
//! `replay` read their flags with the grammar and the rejections the
//! other binaries use, and `record`, `replay` and `diff` take any tool
//! of the `superpin-tools` registry.

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

/// Runs `args`, expecting success, and returns stdout.
fn succeed(args: &[&str]) -> String {
    let out = spin_replay(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{args:?}: stderr: {stderr}");
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn mem_and_bblcount_record_replay_and_self_diff_under_chaos() {
    for tool in ["mem", "bblcount"] {
        let path = log_path(&format!("tool-{tool}"));
        let chaos = ["--chaos-seed", "2", "--chaos-rate", "0.05"];
        let record = [
            &["record", "gcc", "-t", tool, "--threads", "2", "-o", &path][..],
            &chaos,
        ];
        succeed(&record.concat());
        let log = ReplayLog::decode(&std::fs::read(&path).expect("the log was written"))
            .expect("the log decodes");
        assert_eq!(log.recipe.tool, tool);
        let replayed = succeed(&["replay", &path, "--threads", "1"]);
        assert!(replayed.contains("verified"), "{tool}: {replayed}");
        let diffed = succeed(&["diff", &path, &path]);
        assert!(diffed.starts_with("identical:"), "{tool}: {diffed}");
    }
}

#[test]
fn a_cross_tool_diff_runs_the_differ() {
    let icount1 = log_path("cross-icount1");
    let bblcount = log_path("cross-bblcount");
    succeed(&["record", "gcc", "-t", "icount1", "-o", &icount1]);
    succeed(&["record", "gcc", "-t", "bblcount", "-o", &bblcount]);
    let out = spin_replay(&["diff", &icount1, &bblcount]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    // The diff contract: 0 identical, 1 diverged; never a usage error.
    assert!(
        matches!(out.status.code(), Some(0 | 1)),
        "exit {:?}: {stderr}",
        out.status.code()
    );
    assert!(!stderr.contains("usage:"), "{stderr}");
    assert!(
        stdout.starts_with("identical:") || stdout.starts_with("first divergence at epoch"),
        "{stdout}"
    );
}

#[test]
fn an_unknown_tool_or_flag_is_a_usage_error_and_records_nothing() {
    let path = log_path("unknown-tool");
    let out = spin_replay(&["record", "gcc", "-t", "dcache", "-o", &path]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(
        stderr.starts_with("spin-replay: unknown tool `dcache`"),
        "{stderr}"
    );
    assert!(!std::path::Path::new(&path).exists(), "nothing is recorded");
    assert_usage_error(
        &["record", "gcc", "-o", &path, "--plan"],
        "unknown flag `--plan`",
    );
    assert!(!std::path::Path::new(&path).exists(), "nothing is recorded");
}

/// A recognisable log that is damaged is an outcome, not a usage error:
/// `replay` and `diff` exit 1 with the one-line diagnosis `fsck` gives,
/// and no usage text. A file that is no log at all, or cannot be read,
/// stays a usage error (exit 2).
#[test]
fn a_damaged_log_exits_one_with_only_its_diagnosis() {
    let golden = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/golden/gcc_tiny_chaos_96k.splog"
    );
    let bytes = std::fs::read(golden).expect("the golden recording");
    let torn = log_path("torn");
    std::fs::write(&torn, &bytes[..bytes.len() / 2]).expect("write the torn copy");
    for args in [
        vec!["replay", &torn],
        vec!["diff", &torn, golden],
        vec!["diff", golden, &torn],
    ] {
        let out = spin_replay(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: stderr: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
        assert!(
            stderr.starts_with(&format!("spin-replay: {torn}: truncated")),
            "{args:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?}");
    }
    let fsck = spin_replay(&["fsck", &torn]);
    assert_eq!(fsck.status.code(), Some(1));

    let junk = log_path("junk");
    std::fs::write(&junk, b"not a log at all").expect("write the junk file");
    let missing = log_path("missing");
    for path in [&junk, &missing] {
        let out = spin_replay(&["replay", path]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{path}: stderr: {stderr}");
        assert!(stderr.contains("usage:"), "{path}: {stderr}");
    }
}
