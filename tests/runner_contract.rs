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
use superpin_dbi::{AdoptionCounts, IPoint, Inserter, Pintool, Trace};
use superpin_replay::{record_run, replay_run, verify_replay, ReplayLog, RunRecipe};
use superpin_tools::{ICount1, ICount2};
use superpin_vm::process::Process;
use superpin_workloads::{find, Scale};

const GUEST: &str = "gcc";
const SCALE: Scale = Scale::Tiny;

/// Far above the guest's own footprint, below the governed peak of its
/// slices, caches and checkpoints: tight enough to walk every rung.
const TIGHT_BUDGET: u64 = 192 * 1024;

/// A governed report's pressure figures, pinned exactly: `(peak_resident_bytes,
/// slices_deferred, checkpoints_dropped, caches_evicted, total_cycles)`.
fn governed_numbers(report: &SuperPinReport) -> (u64, u64, u64, u64, u64) {
    (
        report.peak_resident_bytes,
        report.slices_deferred,
        report.checkpoints_dropped,
        report.caches_evicted,
        report.total_cycles,
    )
}

fn config() -> SuperPinConfig {
    SuperPinConfig::scaled(1000, superpin_replay::recipe::time_scale_for(SCALE))
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

/// Runs `tool` on the guest under `cfg`.
fn run_tool<T: SuperTool>(tool: T, shared: &SharedMem, cfg: SuperPinConfig) -> SuperPinReport {
    let program = find(GUEST).expect("catalog guest").build(SCALE);
    let process = Process::load(1, &program).expect("load");
    SuperPinRunner::new(process, tool, shared.clone(), cfg)
        .expect("setup")
        .run()
        .expect("run")
}

/// How a [`Twin`] instruments.
#[derive(Clone, Copy, Debug)]
enum Shape {
    /// `ICount1`'s: 1 before every instruction.
    ICount1,
    /// `ICount2`'s: a block's length before its head.
    ICount2,
    /// 1 before every instruction, to counter `(word / 2) % 2`, and
    /// every fifth word a plain call that reads both counters.
    Mixed,
}

fn counter_0(twin: &mut Twin) -> &mut u64 {
    &mut twin.counts[0]
}

fn counter_1(twin: &mut Twin) -> &mut u64 {
    &mut twin.counts[1]
}

/// A tool of one [`Shape`] whose counts are inlined or, for the twin an
/// inlined tool is checked against, plain closures. It merges
/// `[counts[0], counts[1], seen]`.
#[derive(Clone)]
struct Twin {
    shape: Shape,
    plain_counts: bool,
    counts: [u64; 2],
    /// What the plain calls of [`Shape::Mixed`] read, summed.
    seen: u64,
    area: AreaId,
}

impl Pintool for Twin {
    fn instrument_trace(&mut self, trace: &Trace, inserter: &mut Inserter<Self>) {
        let plain_counts = self.plain_counts;
        let count = |inserter: &mut Inserter<Self>, addr, n, which: usize| {
            if plain_counts {
                inserter.insert_call(
                    addr,
                    IPoint::Before,
                    move |t, _, _| t.counts[which] += n,
                    vec![],
                );
            } else {
                inserter.insert_count(addr, IPoint::Before, n, [counter_0, counter_1][which]);
            }
        };
        match self.shape {
            Shape::ICount1 => {
                for iref in trace.insts() {
                    count(inserter, iref.addr, 1, 0);
                }
            }
            Shape::ICount2 => {
                for bbl in trace.bbls() {
                    count(inserter, bbl.head_addr(), bbl.num_insts() as u64, 0);
                }
            }
            Shape::Mixed => {
                for iref in trace.insts() {
                    let word = iref.addr >> 3;
                    count(inserter, iref.addr, 1, (word / 2 % 2) as usize);
                    if word.is_multiple_of(5) {
                        inserter.insert_call(
                            iref.addr,
                            IPoint::Before,
                            |t, _, _| t.seen += 3 * t.counts[0] + t.counts[1],
                            vec![],
                        );
                    }
                }
            }
        }
    }

    fn instrumentation_is_shareable(&self) -> bool {
        true
    }
}

impl SuperTool for Twin {
    fn reset(&mut self, _slice_num: u32) {
        self.counts = [0; 2];
        self.seen = 0;
    }

    fn on_slice_end(&mut self, _slice_num: u32, shared: &SharedMem) {
        let area = shared.area(self.area);
        area.add(0, self.counts[0]);
        area.add(1, self.counts[1]);
        area.add(2, self.seen);
    }
}

/// Runs a [`Twin`]; returns the report and the merged words.
fn run_twin(shape: Shape, plain_counts: bool, cfg: SuperPinConfig) -> (SuperPinReport, Vec<u64>) {
    let shared = SharedMem::new();
    let tool = Twin {
        shape,
        plain_counts,
        counts: [0; 2],
        seen: 0,
        area: shared.create_area(3, AutoMerge::Manual),
    };
    let area = tool.area;
    let report = run_tool(tool, &shared, cfg);
    (report, shared.area(area).snapshot())
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
fn pinned_and_pooled_slices_in_one_epoch_keep_the_threads_1_report() {
    let (_, count_plain) = run(config());
    // No retries: a slice chaos hits degrades at once and is pinned to
    // the calling thread, while its running neighbours go to the pool.
    // Worker deaths are off, so every pooled slice comes back.
    let chaos = || {
        let plan = FailPlan::new(2, 0.05).with_site(Site::ParallelWorkerChannel, SiteMode::Off);
        config().with_chaos(plan).with_max_slice_retries(0)
    };
    let (serial, count_serial) = run(chaos());
    assert!(serial.slices_degraded >= 1, "chaos never degraded a slice");
    assert!(
        (serial.slices_degraded as usize) < serial.slice_count() / 2,
        "too few slices left for the pool: {} of {} degraded",
        serial.slices_degraded,
        serial.slice_count()
    );
    let (pooled, count_pooled) = run(chaos().with_threads(4));
    assert_eq!(serial, pooled, "threads=4 changed the report");
    assert_eq!(count_plain, count_serial, "degrading changed the merge");
    assert_eq!(count_plain, count_pooled, "degrading changed the merge");
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
    assert_eq!(
        governed_numbers(&serial),
        (218_248, 51, 24, 381, 631_000),
        "the governed figures moved"
    );
    let (pooled, count_pooled) = run(governed().with_threads(4));
    assert_eq!(serial, pooled, "threads=4 changed the governed report");
    assert_eq!(count_plain, count_serial, "pressure changed the merge");
    assert_eq!(count_plain, count_pooled, "pressure changed the merge");
}

#[test]
fn the_shared_code_cache_is_invariant_under_threads_and_chaos_and_saves_jit() {
    let governed = |shared_code_cache| {
        let mut cfg = config().with_supervision().with_mem_budget(TIGHT_BUDGET);
        cfg.shared_code_cache = shared_code_cache;
        cfg
    };
    let (serial, count_serial) = run(governed(true));
    assert_eq!(
        governed_numbers(&serial),
        (213_856, 46, 9, 148, 223_500),
        "the governed figures moved"
    );
    let (pooled, count_pooled) = run(governed(true).with_threads(4));
    assert_eq!(serial, pooled, "threads=4 changed the shared-cache report");
    let chaos = governed(true)
        .with_threads(4)
        .with_chaos(FailPlan::new(3, 0.05));
    let (mut recovered, count_recovered) = run(chaos);
    assert!(recovered.slice_retries >= 1, "chaos never fired");
    // Recovery may move only its own counters.
    recovered.slice_retries = serial.slice_retries;
    recovered.slices_degraded = serial.slices_degraded;
    assert_eq!(serial, recovered, "recovery leaked into the report");
    assert_eq!(count_serial, count_pooled);
    assert_eq!(count_serial, count_recovered);

    // Paper §8: a trace another slice compiled costs only the check.
    let jit = |report: &SuperPinReport| -> u64 {
        report
            .slices
            .iter()
            .map(|slice| slice.engine.cycles.jit)
            .sum()
    };
    let (private, _) = run(governed(false));
    assert!(
        jit(&serial) < jit(&private),
        "sharing never discounted a compile"
    );
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
        for shape in [Shape::ICount1, Shape::ICount2, Shape::Mixed] {
            // The shipped tool where there is one, the inlined twin
            // otherwise; each slice's engine runs either directly.
            let shared = SharedMem::new();
            let (inlined, merged) = match shape {
                Shape::ICount1 => {
                    let tool = ICount1::new(&shared);
                    let report = run_tool(tool.clone(), &shared, cfg());
                    (report, vec![tool.total(&shared), 0, 0])
                }
                Shape::ICount2 => {
                    let tool = ICount2::new(&shared);
                    let report = run_tool(tool.clone(), &shared, cfg());
                    (report, vec![tool.total(&shared), 0, 0])
                }
                Shape::Mixed => run_twin(shape, false, cfg()),
            };
            let (plain, plain_merged) = run_twin(shape, true, cfg());
            assert!(inlined.slice_retries >= 1, "the failpoint never fired");
            assert_eq!(
                inlined, plain,
                "{shape:?} inlined changed the report at t{threads}"
            );
            assert_eq!(merged, plain_merged, "{shape:?} merge at t{threads}");
            assert_eq!(
                merged[0] + merged[1],
                native,
                "{shape:?} count at t{threads}"
            );
            if let Shape::Mixed = shape {
                assert!(
                    merged[1] > 0 && merged[2] > 0,
                    "Mixed never switched or read"
                );
            }
        }
    }
}

#[test]
fn slices_adopt_published_traces_on_code_version() {
    // `churn_t1`'s timeslice: many short slices, each with a cold cache
    // that misses on traces its peers have already published.
    let churn = || SuperPinConfig::scaled(100, superpin_replay::recipe::time_scale_for(SCALE));
    let run_counted = |cfg: SuperPinConfig| {
        let (mut runner, tool, shared) = runner(cfg);
        runner.start().expect("start");
        while runner.step_serial().expect("epoch") {}
        let report = runner.finish().expect("finish");
        (report, tool.total(&shared), runner.adoption_counts())
    };
    let (serial, count_serial, adoptions_serial) = run_counted(churn());
    let (pooled, count_pooled, adoptions_pooled) = run_counted(churn().with_threads(4));
    assert_eq!(serial, pooled, "threads=4 changed the report");
    assert_eq!(count_serial, count_pooled);
    assert_eq!(
        adoptions_serial, adoptions_pooled,
        "threads=4 changed how misses were served"
    );
    // Host-side only, so no report can show it: a miss on a published
    // template adopts it when the code version vouches for it. Two kinds
    // of trace stay private: the cut trace that ends at a slice's
    // boundary is published as membership only, and a peer's template
    // that holds this slice's boundary past its head, or ends at it, is
    // compiled again here. The trace a boundary heads is published and
    // adopted like any other: the detector runs at its entry, outside
    // it. A miss that compiles what it could have adopted moves these.
    assert_eq!(
        adoptions_serial,
        AdoptionCounts {
            adopted: 689,
            compiled: 114,
        },
        "adoption on the code version degraded"
    );
}

#[test]
fn the_boundary_detector_charges_what_its_if_then_call_did() {
    // `churn_t1`'s timeslice, with only the two signature failpoints
    // armed: each fires at this seed, a retried slice replays from its
    // checkpoint, and the retries show where the keys fell.
    let plan = Site::ALL
        .into_iter()
        .fold(FailPlan::new(5, 0.1), |plan, site| {
            plan.with_site(site, SiteMode::Off)
        })
        .with_site(Site::CoreSignatureQuickMiss, SiteMode::Inherit)
        .with_site(Site::CoreSignatureFullMismatch, SiteMode::Inherit);
    for threads in [1, 4] {
        let cfg = SuperPinConfig::scaled(100, superpin_replay::recipe::time_scale_for(SCALE))
            .with_threads(threads)
            .with_supervision()
            .with_chaos(plan);
        let (report, _) = run(cfg);
        let summed = |field: fn(&superpin_dbi::EngineStats) -> u64| {
            report
                .slices
                .iter()
                .map(|slice| field(&slice.engine))
                .sum::<u64>()
        };
        let stats = report.sig_stats;
        // Recorded when the detector was an if/then call compiled into
        // the boundary trace: a quick check is one `if_checks` at
        // `inline_if_check + 2·analysis_arg`, a full check one
        // `then_calls` at `analysis_call + 116·analysis_arg`, plus 16
        // cycles for the registers and 100 more at the stack stage.
        assert_eq!(
            (
                [
                    stats.quick_checks,
                    stats.full_checks,
                    stats.stack_checks,
                    stats.detections
                ],
                summed(|engine| engine.if_checks),
                summed(|engine| engine.then_calls),
                summed(|engine| engine.cycles.analysis),
                report.slice_retries,
            ),
            ([199, 89, 85, 85], 199, 89, 215_064, 20),
            "t{threads}"
        );
    }
}

/// A tool whose every other hook reads its inlined count: a plain
/// routine, an if/then predicate and its then-call, and `on_syscall`
/// each fold the count they see into `seen`. The twin it is checked
/// against counts with a plain closure per instruction. It merges
/// `[count, seen, reads]`.
#[derive(Clone)]
struct Watch {
    plain_counts: bool,
    count: u64,
    seen: u64,
    reads: u64,
    area: AreaId,
}

fn watched(watch: &mut Watch) -> &mut u64 {
    &mut watch.count
}

impl Watch {
    fn new(plain_counts: bool, area: AreaId) -> Watch {
        Watch {
            plain_counts,
            count: 0,
            seen: 0,
            reads: 0,
            area,
        }
    }

    /// Folds the count into `seen`, in order: the sequence of reads,
    /// not only their sum, has to match.
    fn read(&mut self, tag: u64) {
        self.seen = (self.seen ^ self.count.wrapping_add(tag << 56)).wrapping_mul(0x100_0000_01b3);
        self.reads += 1;
    }
}

impl Pintool for Watch {
    fn instrument_trace(&mut self, trace: &Trace, inserter: &mut Inserter<Self>) {
        for iref in trace.insts() {
            if self.plain_counts {
                inserter.insert_call(iref.addr, IPoint::Before, |t, _, _| t.count += 1, vec![]);
            } else {
                inserter.insert_count(iref.addr, IPoint::Before, 1, watched);
            }
            let word = iref.addr >> 3;
            if word.is_multiple_of(7) {
                inserter.insert_call(iref.addr, IPoint::Before, |t, _, _| t.read(1), vec![]);
            }
            if word.is_multiple_of(11) {
                inserter.insert_if_then_call(
                    iref.addr,
                    IPoint::Before,
                    |t, _| {
                        t.read(2);
                        t.count.is_multiple_of(3)
                    },
                    vec![],
                    |t, _, _| t.read(3),
                    vec![],
                );
            }
        }
    }

    fn instrumentation_is_shareable(&self) -> bool {
        true
    }

    fn on_syscall(&mut self, _record: &superpin_vm::kernel::SyscallRecord) {
        self.read(4);
    }
}

impl SuperTool for Watch {
    fn reset(&mut self, _slice_num: u32) {
        self.count = 0;
        self.seen = 0;
        self.reads = 0;
    }

    fn on_slice_end(&mut self, _slice_num: u32, shared: &SharedMem) {
        let area = shared.area(self.area);
        area.add(0, self.count);
        area.add(1, self.seen);
        area.add(2, self.reads);
    }
}

#[test]
fn inlined_counts_are_exact_at_every_flush_point() {
    let program = find(GUEST).expect("catalog guest").build(SCALE);
    let native = run_native(Process::load(1, &program).expect("load"))
        .expect("native")
        .insts;
    // Sliced, with templates adopted across slices: each slice's reads,
    // in order, and its count.
    for threads in [1, 4] {
        let run_watch = |plain_counts| {
            let shared = SharedMem::new();
            let tool = Watch::new(plain_counts, shared.create_area(3, AutoMerge::Manual));
            let area = tool.area;
            let mut cfg = config().with_threads(threads);
            cfg.shared_code_cache = true;
            let report = run_tool(tool, &shared, cfg);
            (report, shared.area(area).snapshot())
        };
        let (inlined, merged) = run_watch(false);
        let (plain, plain_merged) = run_watch(true);
        assert_eq!(inlined, plain, "inlined changed the report at t{threads}");
        assert_eq!(
            merged, plain_merged,
            "a routine read another count at t{threads}"
        );
        assert_eq!(merged[0], native, "count at t{threads}");
        assert!(merged[2] > 0, "nothing read the count");
    }
    // An engine run that ends in a guest fault returns what it counted:
    // the count reaches the tool on the error return too.
    // Twelve words of loop body: every routine runs in the loop.
    let body = " nop\n".repeat(10);
    let faulting = superpin_isa::asm::assemble(&format!(
        "main:\n li r1, 50\nloop:\n subi r1, r1, 1\n{body} bne r1, r0, loop\n ld r2, 0(r0)\n exit 0\n"
    ))
    .expect("assemble");
    let area = SharedMem::new().create_area(3, AutoMerge::Manual);
    let [inlined, plain] = [false, true].map(|plain_counts| {
        let process = Process::load(1, &faulting).expect("load");
        let mut engine = superpin_dbi::Engine::new(process, Watch::new(plain_counts, area));
        assert!(engine.run(u64::MAX / 4).is_err(), "the load faults");
        // No routine at the load: what its trace counted since the last
        // one is still pending when the fault ends the run.
        let word = engine.process().cpu.pc >> 3;
        assert!(!word.is_multiple_of(7) && !word.is_multiple_of(11));
        let tool = engine.tool();
        (
            tool.count,
            tool.seen,
            tool.reads,
            engine.process().inst_count(),
        )
    });
    assert_eq!(inlined, plain, "the error return dropped counts");
    // The faulting load's before-count ran; the load never retired.
    assert_eq!(inlined.0, inlined.3 + 1);
    assert!(inlined.2 >= 50, "the loop's routines never read the count");
}
