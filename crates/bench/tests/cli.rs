//! The `superpin` binary run as a user would run it: a failed simulated
//! run is exit code 1 with a one-line error, never a panic.

use std::process::Command;

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
