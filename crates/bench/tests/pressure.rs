//! The memory-pressure governance suite (DESIGN.md §4.9).
//!
//! A `--mem-budget` arms the [`superpin::MemoryGovernor`]: fork
//! admission is checked against a simulated resident-byte ledger, and
//! sustained pressure walks a three-rung eviction ladder (drop retained
//! checkpoints → evict cold code caches → defer or degrade the fork).
//! Every decision is a pure function of simulated state taken on the
//! supervisor thread, so the suite asserts the two properties the design
//! promises:
//!
//! 1. **No budget, no change** — an unset (or unreachable) budget
//!    reproduces the ungoverned report field-for-field.
//! 2. **Thread invariance** — for any fixed budget, reports are
//!    bit-identical across `--threads {1, 2, 4}`, and merged tool
//!    results always equal the ungoverned baseline: the ladder may move
//!    work, never drop or duplicate it.

use superpin::{SharedMem, SuperPinConfig, SuperPinReport};
use superpin_bench::runs::run_superpin;
use superpin_replay::recipe::time_scale_for;
use superpin_tools::ICount1;
use superpin_workloads::{catalog, Scale, WorkloadSpec};

const SCALE: Scale = Scale::Tiny;

/// Far above any tiny-scale guest's dynamic footprint (so guest `brk` /
/// `mmap` never fail and workload semantics are untouched) but below
/// the governed resident peak of the larger workloads, which is
/// dominated by slice pages, code caches, and retained checkpoints —
/// tight enough to force all three ladder rungs under supervision.
const TIGHT_BUDGET: u64 = 192 * 1024;

/// Tight enough that, under supervision, deferral alone cannot save the
/// larger workloads and rung 3 pins new slices inline.
const STARVATION_BUDGET: u64 = 64 * 1024;

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

#[test]
fn an_unreachable_budget_reproduces_the_ungoverned_report() {
    // `u64::MAX` arms the governor but can never trip it: the only
    // field allowed to move is the peak gauge itself, which the
    // ungoverned run doesn't measure.
    for spec in catalog().iter().step_by(5) {
        let (base, count_base) = run(spec, config());
        let (got, count) = run(spec, config().with_mem_budget(u64::MAX));
        assert!(
            got.peak_resident_bytes > 0,
            "{}: gauge never read",
            spec.name
        );
        assert_eq!(got.slices_deferred, 0, "{}: spurious deferral", spec.name);
        assert_eq!(got.checkpoints_dropped, 0, "{}: spurious drop", spec.name);
        assert_eq!(got.caches_evicted, 0, "{}: spurious eviction", spec.name);
        let mut scrubbed = got.clone();
        scrubbed.peak_resident_bytes = base.peak_resident_bytes;
        assert_eq!(
            base, scrubbed,
            "{}: an unreachable budget changed the report",
            spec.name
        );
        assert_eq!(count_base, count, "{}: merged icount differs", spec.name);
    }
}

#[test]
fn governed_reports_are_thread_invariant() {
    for name in ["gcc", "gzip", "vortex"] {
        let spec = catalog().iter().find(|s| s.name == name).expect("catalog");
        let (_, count_base) = run(spec, config());
        for budget in [TIGHT_BUDGET, STARVATION_BUDGET] {
            for supervise in [false, true] {
                let make = |threads: usize| {
                    let mut cfg = config().with_threads(threads).with_mem_budget(budget);
                    if supervise {
                        cfg = cfg.with_supervision();
                    }
                    cfg
                };
                let (one, count1) = run(spec, make(1));
                for threads in [2usize, 4] {
                    let (got, count) = run(spec, make(threads));
                    assert_eq!(
                        one, got,
                        "{name}: budget={budget} supervise={supervise} report differs at \
                         threads={threads}"
                    );
                    assert_eq!(count1, count, "{name}: merged icount not thread-invariant");
                }
                assert_eq!(
                    count_base, count1,
                    "{name}: budget={budget} supervise={supervise} changed the merged icount"
                );
            }
        }
    }
}

#[test]
fn a_tight_supervised_budget_walks_the_ladder_and_every_workload_completes() {
    let (mut deferred, mut dropped, mut evicted) = (0u64, 0u64, 0u64);
    for spec in catalog() {
        let (_, count_base) = run(spec, config());
        let cfg = config()
            .with_supervision()
            .with_mem_budget(TIGHT_BUDGET)
            .with_threads(4);
        let (got, count) = run(spec, cfg);
        assert!(
            got.peak_resident_bytes > 0,
            "{}: gauge never read",
            spec.name
        );
        assert_eq!(
            count_base, count,
            "{}: pressure changed the merged icount",
            spec.name
        );
        deferred += got.slices_deferred;
        dropped += got.checkpoints_dropped;
        evicted += got.caches_evicted;
    }
    // The ladder must actually be exercised somewhere in the catalog,
    // not vacuously absent (summed so small workloads that never feel
    // pressure don't flake the assertion).
    assert!(
        deferred > 0,
        "no fork was ever deferred under {TIGHT_BUDGET}B"
    );
    assert!(
        dropped > 0,
        "no checkpoint was ever dropped under {TIGHT_BUDGET}B"
    );
    assert!(
        evicted > 0,
        "no code cache was ever evicted under {TIGHT_BUDGET}B"
    );
}

#[test]
fn starvation_reaches_the_degrade_rung_and_stays_correct() {
    let spec = catalog().iter().find(|s| s.name == "gcc").expect("catalog");
    let (_, count_base) = run(spec, config());
    let cfg = || {
        config()
            .with_supervision()
            .with_mem_budget(STARVATION_BUDGET)
    };
    let (got, count) = run(spec, cfg());
    assert!(
        got.slices_degraded > 0,
        "starvation never pinned a slice inline"
    );
    assert!(got.slices_deferred > 0, "starvation never deferred a fork");
    assert_eq!(count_base, count, "degraded slices corrupted the merge");
    let (pooled, count_pooled) = run(spec, cfg().with_threads(4));
    assert_eq!(got, pooled, "threads=4 changed the starved report");
    assert_eq!(
        count_base, count_pooled,
        "degraded slices corrupted the merge"
    );
}
