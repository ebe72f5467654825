//! Record/replay acceptance over the whole workload catalog.
//!
//! The contract under test: a run recorded at any `--threads N` — with
//! or without fault injection armed — re-executes **bit-identically**
//! from the log alone at a *different* thread count. Every workload in
//! the catalog runs through record → encode → decode → replay for
//! threads {1, 4} × chaos {off, seed 3 rate 0.05}, and the replayed
//! `SuperPinReport` must equal the recorded one field for field, and
//! the recorded report must equal an unrecorded run's: recording is a
//! pure observer. Alongside, the divergence differ's regression: an
//! intentionally perturbed log is pinpointed, a clean pair reports
//! identical, and a perturbed syscall record makes the replay refuse its
//! log.

use superpin::{FailPlan, NondetEvent, SharedMem, SpError, SuperPinRunner};
use superpin_bench::runs::{parallel_over_catalog, run_superpin};
use superpin_replay::{
    build_runner, diff_logs, record_run, replay_run, verify_replay, DiffOutcome, ReplayError,
    ReplayLog, RunRecipe,
};
use superpin_tools::ICount1;
use superpin_workloads::Scale;

const SCALE: Scale = Scale::Tiny;

fn recipe_for(name: &str, threads: usize, chaos: Option<FailPlan>) -> RunRecipe {
    let mut recipe = RunRecipe::standard(name, SCALE);
    recipe.threads = threads;
    recipe.chaos = chaos;
    recipe
}

/// A serial runner for `log`'s recipe, set up to replay it.
fn replaying(log: &ReplayLog) -> SuperPinRunner<ICount1> {
    let shared = SharedMem::new();
    build_runner(&log.recipe, 1, true, ICount1::new(&shared), &shared).expect("runner")
}

fn recorded_log(name: &str, threads: usize, chaos: Option<FailPlan>) -> ReplayLog {
    let recipe = recipe_for(name, threads, chaos);
    let shared = SharedMem::new();
    record_run(&recipe, ICount1::new(&shared), &shared)
        .unwrap_or_else(|e| panic!("{name} record at threads={threads}: {e}"))
}

/// Records at `threads`, round-trips the log through the wire format,
/// and replays at the *other* thread count; the replayed report must
/// equal the recorded one field for field. The recorded report must
/// also equal the same configuration run with no recorder attached.
fn record_and_replay(name: &str, threads: usize, chaos: Option<FailPlan>) {
    let log = recorded_log(name, threads, chaos);
    let program = log.recipe.program().expect("catalog workload");
    let shared = SharedMem::new();
    let cfg = log.recipe.config(threads, false);
    let unrecorded = run_superpin(&program, ICount1::new(&shared), &shared, cfg, name);
    assert_eq!(
        unrecorded,
        log.report,
        "{name} at threads={threads} (chaos={}): recording changed the report",
        chaos.is_some(),
    );
    let decoded = ReplayLog::decode(&log.encode())
        .unwrap_or_else(|e| panic!("{name}: log wire round-trip: {e}"));
    assert_eq!(decoded, log, "{name}: decode(encode(log)) != log");

    let other_threads = if threads == 1 { 4 } else { 1 };
    let shared = SharedMem::new();
    let replayed = replay_run(&decoded, other_threads, ICount1::new(&shared), &shared)
        .unwrap_or_else(|e| panic!("{name} replay at threads={other_threads}: {e}"));
    if let Some(field) = verify_replay(&decoded, &replayed) {
        panic!(
            "{name} recorded at threads={threads} (chaos={}), replayed at \
             threads={other_threads}: first differing report field `{field}`",
            chaos.is_some(),
        );
    }
    assert_eq!(replayed, log.report, "{name}: full-struct equality");
}

#[test]
fn catalog_replays_bit_identically_across_thread_counts() {
    let failures: Vec<String> = parallel_over_catalog(4, |spec| {
        for threads in [1usize, 4] {
            for chaos in [None, Some(FailPlan::new(3, 0.05))] {
                record_and_replay(spec.name, threads, chaos);
            }
        }
        spec.name.to_string()
    });
    assert_eq!(failures.len(), superpin_workloads::catalog().len());
}

#[test]
fn clean_log_pair_diffs_identical() {
    let log = recorded_log("gcc", 1, None);
    let twin = log.clone();
    let outcome =
        diff_logs(&log, &mut replaying(&log), &twin, &mut replaying(&twin)).expect("diff");
    assert!(
        matches!(outcome, DiffOutcome::Identical { epochs } if epochs > 0),
        "clean pair must diff identical: {outcome:?}"
    );
}

#[test]
fn perturbed_log_divergence_is_pinpointed() {
    let log = recorded_log("vortex", 1, None);
    let mut perturbed = log.clone();
    let plan_at = perturbed
        .events
        .iter()
        .position(|e| matches!(e, NondetEvent::EpochPlan { .. }))
        .expect("a planned epoch");
    if let NondetEvent::EpochPlan { planned } = &mut perturbed.events[plan_at] {
        *planned += 1;
    }
    let outcome = diff_logs(
        &log,
        &mut replaying(&log),
        &perturbed,
        &mut replaying(&perturbed),
    )
    .expect("diff");
    let DiffOutcome::Diverged(report) = outcome else {
        panic!("perturbed log must diverge");
    };
    // The report bisects the divergence: an epoch, a quantum window,
    // and a component (the longer first epoch shows up as schedule
    // state, or as the perturbed side refusing its misaligned log).
    assert!(report.epoch >= 1);
    assert!(report.quantum_window.1 >= report.quantum_window.0);
    assert!(report.inst_range.1 >= report.inst_range.0);
    assert!(
        report.component.contains("schedule") || report.component.contains("run B"),
        "unexpected component: {report:?}"
    );
    assert!(report.to_string().contains("first divergence at epoch"));
}

#[test]
fn perturbed_syscall_record_makes_replay_refuse_the_log() {
    let log = recorded_log("gcc", 1, None);
    let mut perturbed = log.clone();
    let syscall_at = perturbed
        .events
        .iter()
        .position(|e| matches!(e, NondetEvent::Syscall(_)))
        .expect("gcc makes syscalls");
    if let NondetEvent::Syscall(record) = &mut perturbed.events[syscall_at] {
        record.args[0] = record.args[0].wrapping_add(1);
    }
    let shared = SharedMem::new();
    let err = replay_run(&perturbed, 1, ICount1::new(&shared), &shared)
        .expect_err("a perturbed syscall record must refuse to replay");
    assert!(
        matches!(err, ReplayError::Sim(SpError::ReplayDivergence { .. })),
        "unexpected error: {err:?}"
    );
}
