//! The parallel runner's contract: `threads = N` produces a
//! `SuperPinReport` **bit-identical** to `threads = 1` on every workload
//! in the catalog.
//!
//! Epoch batching fixes every scheduling decision (budgets, epoch
//! length, fork points) before slice workers start, and every
//! cross-slice effect (merges, shared-cache publication) is applied in
//! slice order at epoch barriers — so host thread count and host timing
//! must be invisible in all simulated quantities. These tests enforce
//! that field by field and then on the whole report, for the normal
//! epoch configuration, for the degenerate barrier-per-quantum serial
//! baseline, and with the shared code cache (the one cross-slice data
//! structure, the barrier-published trace registry) enabled, with and
//! without chaos.

use superpin::{FailPlan, SharedMem, SuperPinConfig, SuperPinReport};
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

/// Field-by-field comparison before the whole-struct assert, so a
/// determinism regression names the first field that diverged instead
/// of dumping two full reports.
fn assert_identical(name: &str, threads: usize, base: &SuperPinReport, got: &SuperPinReport) {
    let what = |field: &str| format!("{name}: `{field}` differs at threads={threads}");
    assert_eq!(
        base.total_cycles,
        got.total_cycles,
        "{}",
        what("total_cycles")
    );
    assert_eq!(
        base.master_exit_cycles,
        got.master_exit_cycles,
        "{}",
        what("master_exit_cycles")
    );
    assert_eq!(base.breakdown, got.breakdown, "{}", what("breakdown"));
    assert_eq!(
        base.master_insts,
        got.master_insts,
        "{}",
        what("master_insts")
    );
    assert_eq!(
        base.master_syscalls,
        got.master_syscalls,
        "{}",
        what("master_syscalls")
    );
    assert_eq!(base.ptrace, got.ptrace, "{}", what("ptrace"));
    assert_eq!(base.sig_stats, got.sig_stats, "{}", what("sig_stats"));
    assert_eq!(
        base.slices.len(),
        got.slices.len(),
        "{}",
        what("slices.len")
    );
    for (a, b) in base.slices.iter().zip(&got.slices) {
        let slice = |field: &str| format!("{name} slice {}: {field}", a.num);
        assert_eq!(a.num, b.num, "{}", slice("num"));
        assert_eq!(a.insts, b.insts, "{}", slice("insts"));
        assert_eq!(
            a.records_played,
            b.records_played,
            "{}",
            slice("records_played")
        );
        assert_eq!(a.end, b.end, "{}", slice("end"));
        assert_eq!(a.start_cycles, b.start_cycles, "{}", slice("start_cycles"));
        assert_eq!(a.wake_cycles, b.wake_cycles, "{}", slice("wake_cycles"));
        assert_eq!(a.end_cycles, b.end_cycles, "{}", slice("end_cycles"));
        assert_eq!(a.engine, b.engine, "{}", slice("engine"));
        assert_eq!(a.cache, b.cache, "{}", slice("cache"));
        assert_eq!(a.cow_copies, b.cow_copies, "{}", slice("cow_copies"));
    }
    // Belt and braces: any field added later is still covered.
    assert_eq!(base, got, "{name}: reports differ at threads={threads}");
}

#[test]
fn catalog_is_bit_identical_across_thread_counts() {
    for spec in catalog() {
        let (base, count_base) = run(spec, config().with_threads(1));
        for threads in [2, 4] {
            let (got, count) = run(spec, config().with_threads(threads));
            assert_identical(spec.name, threads, &base, &got);
            assert_eq!(count_base, count, "{}: merged icount differs", spec.name);
        }
    }
}

#[test]
fn serial_baseline_with_barrier_per_quantum_is_thread_invariant() {
    // epoch_max_quanta = 1 degenerates to the classic quantum loop
    // (every quantum a barrier) — worst case for sync frequency, and the
    // parallel path must still match it thread-for-thread.
    for spec in catalog().iter().step_by(5) {
        let (base, count_base) = run(spec, config().with_epoch_max_quanta(1).with_threads(1));
        let (got, count) = run(spec, config().with_epoch_max_quanta(1).with_threads(4));
        assert_identical(spec.name, 4, &base, &got);
        assert_eq!(count_base, count, "{}: merged icount differs", spec.name);
    }
}

#[test]
fn shared_code_cache_stays_deterministic_across_threads() {
    // The trace registry is the only cross-slice structure workers read;
    // publishing it at the barrier in slice order must hide all host
    // interleaving, and repairing a chaos-condemned slice before the
    // barrier must hide every fault. gcc has the largest footprint (most
    // traces shared).
    for name in ["gcc", "vortex", "mcf"] {
        let spec = catalog().iter().find(|s| s.name == name).expect("catalog");
        let mut cfg = config();
        cfg.shared_code_cache = true;
        let (base, count_base) = run(spec, cfg.clone().with_threads(1));
        for chaos in [None, Some(FailPlan::new(3, 0.05))] {
            for threads in [1, 2, 4] {
                let mut cfg = cfg.clone().with_threads(threads);
                if let Some(plan) = chaos {
                    cfg = cfg.with_chaos(plan);
                }
                let (mut got, count) = run(spec, cfg);
                // Recovery may move only its own counters.
                got.slice_retries = base.slice_retries;
                got.slices_degraded = base.slices_degraded;
                assert_identical(spec.name, threads, &base, &got);
                assert_eq!(count_base, count, "{}: merged icount differs", spec.name);
            }
        }
    }
}
