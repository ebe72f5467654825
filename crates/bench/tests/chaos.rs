//! The chaos determinism suite (DESIGN.md §4.8): a run with fault
//! injection armed must produce a `SuperPinReport` **field-by-field
//! identical** to the fault-free run — the only fields recovery may
//! change are the `slice_retries` / `slices_degraded` counters.
//!
//! Injected faults (COW fork failures, dispatch aborts, suppressed or
//! corrupted signature checks, dropped index publications, killed
//! workers) are repaired by the slice supervisor: transient retry at the
//! site, or checkpoint-replay of the condemned slice, or — once the
//! retry budget is spent — degradation to injection-free inline
//! execution. All of those paths land on the same simulated state, so
//! host-visible recovery must be invisible in every simulated quantity.

use superpin::{FailPlan, SharedMem, Site, SiteMode, SuperPinConfig, SuperPinReport};
use superpin_bench::runs::run_superpin;
use superpin_replay::recipe::time_scale_for;
use superpin_tools::ICount1;
use superpin_workloads::{catalog, Scale, WorkloadSpec};

const SCALE: Scale = Scale::Tiny;

fn config() -> SuperPinConfig {
    SuperPinConfig::scaled(1000, time_scale_for(SCALE))
}

fn run(spec: &WorkloadSpec, cfg: SuperPinConfig) -> (SuperPinReport, u64) {
    let program = spec.build(SCALE);
    let shared = SharedMem::new();
    let tool = ICount1::new(&shared);
    let report = run_superpin(&program, tool.clone(), &shared, cfg, spec.name);
    (report, tool.total(&shared))
}

/// Asserts a chaos report equals the fault-free baseline everywhere but
/// the recovery counters, which are zeroed out before the whole-struct
/// compare so any *other* divergence still fails loudly.
fn assert_recovery_invisible(
    name: &str,
    label: &str,
    base: &SuperPinReport,
    chaos: &SuperPinReport,
) {
    let mut scrubbed = chaos.clone();
    scrubbed.slice_retries = base.slice_retries;
    scrubbed.slices_degraded = base.slices_degraded;
    assert_eq!(
        base, &scrubbed,
        "{name}: chaos run ({label}) differs from fault-free run beyond the recovery counters"
    );
}

#[test]
fn chaos_runs_are_bit_identical_for_every_workload() {
    let mut total_retries = 0u64;
    for spec in catalog() {
        let (base, count_base) = run(spec, config());
        for seed in [1u64, 2, 3] {
            for threads in [1usize, 4] {
                let cfg = config()
                    .with_threads(threads)
                    .with_chaos(FailPlan::new(seed, 0.05));
                let (got, count) = run(spec, cfg);
                let label = format!("seed={seed} threads={threads}");
                assert_recovery_invisible(spec.name, &label, &base, &got);
                assert_eq!(
                    count_base, count,
                    "{}: merged icount differs ({label})",
                    spec.name
                );
                total_retries += got.slice_retries;
            }
        }
    }
    // The suite must actually exercise recovery, not vacuously pass with
    // zero faults fired.
    assert!(
        total_retries > 0,
        "no failpoint fired across the whole catalog — chaos is not armed"
    );
}

#[test]
fn forced_runaway_slice_recovers_bit_identically() {
    // Suppress the first true quick-signature match: the slice overruns
    // its boundary (a runaway), is condemned at the barrier, and is
    // rebuilt from its checkpoint.
    let spec = catalog().iter().find(|s| s.name == "gcc").expect("catalog");
    let (base, count_base) = run(spec, config());
    for threads in [1usize, 4] {
        let plan = FailPlan::new(1, 0.0).with_site(Site::CoreSignatureQuickMiss, SiteMode::Nth(1));
        let (got, count) = run(spec, config().with_threads(threads).with_chaos(plan));
        assert!(
            got.slice_retries >= 1,
            "runaway slice was never condemned (threads={threads})"
        );
        assert_eq!(got.slices_degraded, 0);
        assert_recovery_invisible(spec.name, "forced runaway", &base, &got);
        assert_eq!(count_base, count, "merged icount differs");
    }
}

#[test]
fn corrupted_full_signature_recovers_bit_identically() {
    // The dual of the runaway: the quick check passes, then the full
    // register comparison is forced to report a mismatch, so the slice
    // sails past its true boundary.
    let spec = catalog().iter().find(|s| s.name == "mcf").expect("catalog");
    let (base, count_base) = run(spec, config());
    let plan = FailPlan::new(2, 0.0).with_site(Site::CoreSignatureFullMismatch, SiteMode::Nth(1));
    let (got, count) = run(spec, config().with_chaos(plan));
    assert!(
        got.slice_retries >= 1,
        "corrupted slice was never condemned"
    );
    assert_recovery_invisible(spec.name, "full mismatch", &base, &got);
    assert_eq!(count_base, count, "merged icount differs");
}

#[test]
fn killed_worker_recovers_bit_identically() {
    // A worker thread dies mid-epoch (its batch and channels dropped);
    // every slice it held is condemned and replayed, and later epochs
    // route around the dead worker.
    let spec = catalog().iter().find(|s| s.name == "gcc").expect("catalog");
    let (base, count_base) = run(spec, config());
    let plan = FailPlan::new(3, 0.0).with_site(Site::ParallelWorkerChannel, SiteMode::Nth(1));
    let (got, count) = run(spec, config().with_threads(4).with_chaos(plan));
    assert!(got.slice_retries >= 1, "lost batch was never repaired");
    assert_recovery_invisible(spec.name, "killed worker", &base, &got);
    assert_eq!(count_base, count, "merged icount differs");
}

#[test]
fn retry_exhaustion_degrades_to_serial_and_stays_correct() {
    // Every armed incarnation re-hits the always-on signature fault, so
    // each slice burns its single retry and degrades to injection-free
    // inline execution — the graceful-degradation floor.
    let spec = catalog()
        .iter()
        .find(|s| s.name == "gzip")
        .expect("catalog");
    let (base, count_base) = run(spec, config());
    let plan = FailPlan::new(4, 0.0).with_site(Site::CoreSignatureQuickMiss, SiteMode::Always);
    let (got, count) = run(
        spec,
        config()
            .with_threads(4)
            .with_max_slice_retries(1)
            .with_chaos(plan),
    );
    assert!(got.slices_degraded >= 1, "no slice was ever degraded");
    assert!(got.slice_retries >= got.slices_degraded);
    assert_recovery_invisible(spec.name, "retry exhaustion", &base, &got);
    assert_eq!(count_base, count, "merged icount differs");
}

#[test]
fn fork_and_publish_failpoints_are_absorbed_in_place() {
    // COW fork failures retry the fork; dropped registry publications
    // republish, and a republish adds nothing because a registry entry
    // is never replaced. Both are transient — counted as retries, no
    // slice condemned.
    let spec = catalog().iter().find(|s| s.name == "gcc").expect("catalog");
    let mut cfg = config();
    cfg.shared_code_cache = true;
    let (base, count_base) = run(spec, cfg.clone());
    let plan = FailPlan::new(5, 0.0)
        .with_site(Site::VmForkCow, SiteMode::Nth(1))
        .with_site(Site::SharedIndexPublish, SiteMode::Nth(1));
    let (got, count) = run(spec, cfg.with_threads(4).with_chaos(plan));
    assert!(
        got.slice_retries >= 2,
        "fork/publish failpoints never fired"
    );
    assert_eq!(got.slices_degraded, 0);
    assert_recovery_invisible(spec.name, "fork+publish", &base, &got);
    assert_eq!(count_base, count, "merged icount differs");
}

#[test]
fn allocation_chaos_under_memory_pressure_recovers_bit_identically() {
    // The chaos × pressure interaction: `vm.mem.alloc` injects a
    // transient allocation failure into the COW fork path while a tight
    // `--mem-budget` is simultaneously walking the eviction ladder
    // (dropping checkpoints, evicting caches, deferring forks). The
    // retry ladder must absorb the fault without perturbing a single
    // governed decision — the baseline here is the *budgeted* supervised
    // run, and the memory counters are compared unscrubbed.
    let budget = 192 * 1024;
    let spec = catalog().iter().find(|s| s.name == "gcc").expect("catalog");
    let (_, count_plain) = run(spec, config());
    let base_cfg = config().with_supervision().with_mem_budget(budget);
    let (base, count_base) = run(spec, base_cfg);
    assert!(
        base.caches_evicted > 0 && base.checkpoints_dropped > 0,
        "budget too loose: the ladder never engaged, the test is vacuous"
    );
    assert_eq!(count_plain, count_base, "pressure alone changed the merge");
    for threads in [1usize, 4] {
        // A pinpoint transient fault on the first allocation...
        let plan = FailPlan::new(6, 0.0).with_site(Site::VmMemAlloc, SiteMode::Nth(1));
        let cfg = config()
            .with_mem_budget(budget)
            .with_threads(threads)
            .with_chaos(plan);
        let (got, count) = run(spec, cfg);
        assert!(
            got.slice_retries >= 1,
            "vm.mem.alloc failpoint never fired (threads={threads})"
        );
        assert_recovery_invisible(spec.name, "alloc fault under pressure", &base, &got);
        assert_eq!(count_base, count, "merged icount differs under pressure");

        // ...and broadband random chaos over every site at once.
        let cfg = config()
            .with_mem_budget(budget)
            .with_threads(threads)
            .with_chaos(FailPlan::new(7, 0.05));
        let (got, count) = run(spec, cfg);
        assert_recovery_invisible(spec.name, "random chaos under pressure", &base, &got);
        assert_eq!(
            count_base, count,
            "merged icount differs under random chaos"
        );
    }
}

#[test]
fn supervision_without_chaos_changes_nothing() {
    // The supervisor alone (checkpoints, journals, watchdogs) must be
    // invisible: same report, zero retries.
    for spec in catalog().iter().step_by(7) {
        let (base, count_base) = run(spec, config());
        for threads in [1usize, 4] {
            let (got, count) = run(spec, config().with_threads(threads).with_supervision());
            assert_eq!(got.slice_retries, 0, "{}: spurious retry", spec.name);
            assert_eq!(got.slices_degraded, 0, "{}: spurious degrade", spec.name);
            assert_eq!(
                &base, &got,
                "{}: supervised run differs at threads={threads}",
                spec.name
            );
            assert_eq!(count_base, count, "{}: merged icount differs", spec.name);
        }
    }
}
