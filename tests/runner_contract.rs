//! The runner's contracts, one case each, on a small catalog guest —
//! the tier-1 smoke for the epoch step, the worker pool, the pressure
//! ladder and its replay, and for the inlined counts the tools run on.
//! The crate suites (`superpin-bench`'s determinism, chaos, pressure and
//! replay tests) sweep the catalog; these make the plain `cargo test -q`
//! go red when one of them breaks.

use superpin::baseline::run_native;
use superpin::{
    AdmissionDecision, AreaId, AutoMerge, FailPlan, NondetEvent, SharedMem, Site, SiteMode,
    SuperPinConfig, SuperPinReport, SuperPinRunner, SuperTool,
};
use superpin_dbi::{IPoint, Inserter, Pintool, Trace};
use superpin_replay::{record_run, replay_run, verify_replay, ReplayLog, RunRecipe};
use superpin_tools::ICount1;
use superpin_vm::process::Process;
use superpin_workloads::{find, Scale};

const GUEST: &str = "gcc";
const SCALE: Scale = Scale::Tiny;

/// Far above the guest's own footprint, below the governed peak of its
/// slices, caches and checkpoints: tight enough to walk every rung.
const TIGHT_BUDGET: u64 = 192 * 1024;

fn config() -> SuperPinConfig {
    SuperPinConfig::scaled(1000, superpin_serve::time_scale_for(SCALE))
}

fn runner(cfg: SuperPinConfig) -> (SuperPinRunner<ICount1>, ICount1, SharedMem) {
    let program = find(GUEST).expect("catalog guest").build(SCALE);
    let shared = SharedMem::new();
    let tool = ICount1::new(&shared);
    let process = Process::load(1, &program).expect("load");
    let runner = SuperPinRunner::new(process, tool.clone(), shared.clone(), cfg).expect("setup");
    (runner, tool, shared)
}

/// Runs to completion; returns the report and the merged count.
fn run(cfg: SuperPinConfig) -> (SuperPinReport, u64) {
    let (runner, tool, shared) = runner(cfg);
    (runner.run().expect("run"), tool.total(&shared))
}

/// `ICount1` with its count as a plain analysis closure instead of an
/// inlined count.
#[derive(Clone)]
struct PlainICount1 {
    count: u64,
    area: AreaId,
}

impl Pintool for PlainICount1 {
    fn instrument_trace(&mut self, trace: &Trace, inserter: &mut Inserter<Self>) {
        for iref in trace.insts() {
            inserter.insert_call(iref.addr, IPoint::Before, |t, _, _| t.count += 1, vec![]);
        }
    }

    fn instrumentation_is_shareable(&self, _trace: &Trace) -> bool {
        true
    }

    fn name(&self) -> &'static str {
        "icount1"
    }
}

impl SuperTool for PlainICount1 {
    fn reset(&mut self, _slice_num: u32) {
        self.count = 0;
    }

    fn on_slice_end(&mut self, _slice_num: u32, shared: &SharedMem) {
        shared.area(self.area).add(0, self.count);
    }
}

#[test]
fn the_report_is_identical_at_one_and_four_threads() {
    let (serial, count_serial) = run(config());
    let (pooled, count_pooled) = run(config().with_threads(4));
    assert!(serial.slice_count() > 4, "too few slices to feed a pool");
    assert_eq!(serial, pooled, "threads=4 changed the report");
    assert_eq!(count_serial, count_pooled, "threads=4 changed the merge");
}

#[test]
fn a_killed_worker_recovers_to_the_fault_free_report() {
    let (base, count_base) = run(config());
    // The first batch any worker receives kills it: its slices are
    // rebuilt from their checkpoints, later epochs route around it.
    let plan = FailPlan::new(3, 0.0).with_site(Site::ParallelWorkerChannel, SiteMode::Nth(1));
    let (mut got, count) = run(config().with_threads(4).with_chaos(plan));
    assert!(got.slice_retries >= 1, "the lost batch was never repaired");
    // Recovery may move only its own counters.
    got.slice_retries = base.slice_retries;
    got.slices_degraded = base.slices_degraded;
    assert_eq!(base, got, "recovery leaked into the report");
    assert_eq!(count_base, count, "recovery changed the merge");
}

#[test]
fn a_tight_budget_walks_the_ladder_identically_at_one_and_four_threads() {
    let (_, count_plain) = run(config());
    let governed = || config().with_supervision().with_mem_budget(TIGHT_BUDGET);
    let (serial, count_serial) = run(governed());
    assert!(
        serial.slices_deferred > 0,
        "the budget never deferred a fork"
    );
    assert!(
        serial.caches_evicted > 0,
        "the budget never evicted a cache"
    );
    assert!(serial.peak_resident_bytes > 0, "the gauge was never read");
    let (pooled, count_pooled) = run(governed().with_threads(4));
    assert_eq!(serial, pooled, "threads=4 changed the governed report");
    assert_eq!(count_plain, count_serial, "pressure changed the merge");
    assert_eq!(count_plain, count_pooled, "pressure changed the merge");
}

#[test]
fn a_governed_run_recorded_at_four_threads_replays_at_one() {
    let mut recipe = RunRecipe::standard(GUEST, SCALE);
    recipe.spmsec = 1000;
    recipe.threads = 4;
    recipe.supervise = true;
    recipe.mem_budget = Some(TIGHT_BUDGET);
    let shared = SharedMem::new();
    let log = record_run(&recipe, ICount1::new(&shared), &shared).expect("record");
    // The log must hold the ladder's decisions, or the replay below
    // re-applies nothing.
    let ladder_acted = log.events.iter().any(|event| {
        matches!(event, NondetEvent::Admission { evicted, dropped, .. }
            if !evicted.is_empty() || !dropped.is_empty())
    });
    let deferred = log.events.iter().any(|event| {
        matches!(
            event,
            NondetEvent::Admission {
                decision: AdmissionDecision::Defer,
                ..
            }
        )
    });
    assert!(
        ladder_acted && deferred,
        "the recorded run never met pressure"
    );

    let decoded = ReplayLog::decode(&log.encode()).expect("log round-trips");
    let shared = SharedMem::new();
    let replayed = replay_run(&decoded, 1, ICount1::new(&shared), &shared).expect("replay");
    assert_eq!(verify_replay(&decoded, &replayed), None, "replay diverged");
}

#[test]
fn stepping_the_run_renders_the_same_report_as_run() {
    let (whole, count_whole) = run(config());
    for threads in [1, 4] {
        let (mut runner, tool, shared) = runner(config().with_threads(threads));
        runner.start().expect("start");
        let mut epochs = 0u64;
        while runner.step_serial().expect("epoch") {
            epochs += 1;
            assert_eq!(runner.probe().epochs, epochs, "one epoch per step");
        }
        let stepped = runner.finish().expect("finish");
        assert_eq!(whole, stepped, "stepping at threads={threads} differs");
        assert_eq!(count_whole, tool.total(&shared));
    }
}

#[test]
fn inlined_counts_report_exactly_what_plain_closures_do() {
    let program = find(GUEST).expect("catalog guest").build(SCALE);
    let native = run_native(Process::load(1, &program).expect("load"))
        .expect("native")
        .insts;
    // The first quick match any slice sees is suppressed: that slice runs
    // past its boundary and is rebuilt from its checkpoint, so counts are
    // written back, cloned and replayed on the recovery path too.
    let plan = FailPlan::new(3, 0.0).with_site(Site::CoreSignatureQuickMiss, SiteMode::Nth(1));
    for threads in [1, 4] {
        let cfg = || {
            config()
                .with_threads(threads)
                .with_supervision()
                .with_chaos(plan)
        };
        let (inlined, count) = run(cfg());
        let shared = SharedMem::new();
        let plain = PlainICount1 {
            count: 0,
            area: shared.create_area(1, AutoMerge::Manual),
        };
        let area = plain.area;
        let process = Process::load(1, &program).expect("load");
        let report = SuperPinRunner::new(process, plain, shared.clone(), cfg())
            .expect("setup")
            .run()
            .expect("run");
        assert!(inlined.slice_retries >= 1, "the failpoint never fired");
        assert_eq!(inlined, report, "inlining changed the report at t{threads}");
        assert_eq!(count, native, "inlined merge at t{threads}");
        assert_eq!(
            shared.area(area).read(0),
            native,
            "plain merge at t{threads}"
        );
    }
}
