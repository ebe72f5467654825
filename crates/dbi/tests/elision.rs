//! Liveness-driven save/restore elision and the clobber-safety verifier.
//!
//! With a [`LiveMap`] installed, the compiler skips spills of registers
//! proven dead at each insertion point: modeled analysis cost shrinks,
//! while call *execution* is untouched, so instrumentation results stay
//! bit-identical. The verifier re-checks every planned save set against
//! `saves ⊇ clobbers ∩ live` in debug builds and must catch a
//! deliberately planted bug.
//!
//! A superblock plan's *refined* liveness adds an annotation on top:
//! the saved registers it proves dead are marked `elided`, while the
//! save set and the charged cost stay those of the conservative map.

use std::sync::Arc;
use superpin_analysis::{TargetSet, Terminator};
use superpin_dbi::cache::CompiledTrace;
use superpin_dbi::{
    analysis_clobbers, discover_trace, CodeCache, CostModel, Engine, IPoint, Inserter, LiveMap,
    LoweredCall, Pintool, ProgramAnalysis, RegSet, Trace,
};
use superpin_isa::asm::assemble;
use superpin_isa::Reg;
use superpin_vm::process::Process;
use superpin_workloads::Scale;

/// A countdown loop: at the loop head only `r8` (the counter) and `r0`
/// (the zero register read by `bne`) are live, so three of the four
/// clobbered registers need no save/restore.
const LOOP: &str = "main:\n li r8, 60\nloop:\n subi r8, r8, 1\n bne r8, r0, loop\n exit 0\n";

#[derive(Clone, Default)]
struct ICount {
    count: u64,
}

impl Pintool for ICount {
    fn instrument_trace(&mut self, trace: &Trace, inserter: &mut Inserter<Self>) {
        for iref in trace.insts() {
            inserter.insert_call(iref.addr, IPoint::Before, |t, _, _| t.count += 1, vec![]);
        }
    }
}

fn run(install_liveness: bool) -> Engine<ICount> {
    let program = assemble(LOOP).expect("assemble");
    let process = Process::load(1, &program).expect("load");
    let mut engine = Engine::new(process, ICount::default());
    if install_liveness {
        let live = LiveMap::compute(&program).expect("liveness");
        engine.set_liveness(Arc::new(live));
    }
    engine.run_to_exit().expect("run");
    engine
}

#[test]
fn elision_reduces_modeled_cost_and_preserves_results() {
    let conservative = run(false);
    let elided = run(true);

    // Instrumentation results are identical: same dynamic icount, same
    // number of analysis calls fired.
    assert_eq!(elided.tool().count, conservative.tool().count);
    assert_eq!(
        elided.process().inst_count(),
        conservative.process().inst_count()
    );
    assert_eq!(
        elided.stats().analysis_calls,
        conservative.stats().analysis_calls
    );

    // Modeled analysis overhead shrinks: at the loop head only r0 of the
    // four clobbered registers is live, so most spills are elided.
    let full = conservative.stats().cycles.analysis;
    let thin = elided.stats().cycles.analysis;
    assert!(
        thin < full,
        "elided {thin} must be below conservative {full}"
    );
    // Steady state: 7 cycles per call instead of 10.
    let calls = conservative.stats().analysis_calls;
    assert_eq!(full, calls * conservative.cost().analysis_call);
    assert!(
        thin <= calls * 7 + 16,
        "elided total {thin} should be ≈7 per call for {calls} calls"
    );
    // Non-analysis components are untouched by elision.
    assert_eq!(elided.stats().cycles.app, conservative.stats().cycles.app);
}

#[test]
fn conservative_charge_matches_flat_analysis_call() {
    // Without liveness, the per-register charging must reproduce the
    // legacy flat `analysis_call` rate exactly (zero-arg calls here).
    let engine = run(false);
    let stats = engine.stats();
    assert_eq!(
        stats.cycles.analysis,
        stats.analysis_calls * engine.cost().analysis_call
    );
}

#[test]
fn compile_plans_minimal_save_sets() {
    let program = assemble(LOOP).expect("assemble");
    let live = Arc::new(LiveMap::compute(&program).expect("liveness"));
    let process = Process::load(1, &program).expect("load");
    let trace = discover_trace(&process.mem, program.entry()).expect("trace");

    let mut inserter: Inserter<u64> = Inserter::new();
    for iref in trace.insts() {
        inserter.insert_call(iref.addr, IPoint::Before, |t, _, _| *t += 1, vec![]);
    }
    let mut cache: CodeCache<u64> = CodeCache::new();
    cache.set_liveness(live);
    let (id, _) = cache.compile(&trace, None, &mut inserter, &CostModel::default());
    let compiled = cache.trace(id);

    // Before `subi` (the loop head) live = {r8, r0}: only r0 of the
    // clobber set needs saving.
    let subi = compiled
        .insts
        .iter()
        .position(|slot| slot.addr == program.entry() + 16)
        .expect("loop head in trace");
    assert_eq!(
        compiled.before(subi)[0].saves,
        RegSet::from_regs(&[Reg::R0])
    );
    // An honest compilation passes the verifier.
    assert!(cache.clobber_violations().is_empty());

    // Without liveness the full clobber set is saved.
    let mut conservative: CodeCache<u64> = CodeCache::new();
    let mut inserter: Inserter<u64> = Inserter::new();
    inserter.insert_call(program.entry(), IPoint::Before, |t, _, _| *t += 1, vec![]);
    let (id, _) = conservative.compile(&trace, None, &mut inserter, &CostModel::default());
    let compiled = conservative.trace(id);
    assert_eq!(compiled.before(0)[0].saves, analysis_clobbers());
}

// The verifier records only in builds with `debug_assertions` (see
// `CodeCache::clobber_violations`), so there is nothing to catch in a
// release-profile test run.
#[cfg(debug_assertions)]
#[test]
fn verifier_catches_an_injected_clobber_bug() {
    let program = assemble(LOOP).expect("assemble");
    let process = Process::load(1, &program).expect("load");
    let mut engine = Engine::new(process, ICount::default());
    engine.set_liveness(Arc::new(LiveMap::compute(&program).expect("liveness")));
    // Plant the bug: r0 is live at the loop head (read by `bne`) and in
    // the clobber set, yet the compiler will skip saving it.
    engine.inject_clobber_bug(Reg::R0);
    engine.run_to_exit().expect("run");

    let violations = engine.clobber_violations();
    assert!(
        !violations.is_empty(),
        "the verifier must catch the planted clobber"
    );
    let v = violations
        .iter()
        .find(|v| v.addr == program.entry() + 16)
        .expect("violation at the loop head");
    assert!(v.missing.contains(Reg::R0), "{v:?}");
    assert!(v.live.contains(Reg::R8), "{v:?}");
    let rendered = v.to_string();
    assert!(rendered.contains("clobbers live register"), "{rendered}");
    assert!(rendered.contains("r0"), "{rendered}");
}

#[test]
fn honest_runs_report_no_violations() {
    assert!(run(true).clobber_violations().is_empty());
    assert!(run(false).clobber_violations().is_empty());
}

/// Compiles `trace` with a plain call before and after every
/// instruction under the conservative map, plus `refined` if given. The
/// clobber verifier must pass either way.
fn compile_instrumented(
    trace: &Trace,
    conservative: &Arc<LiveMap>,
    refined: Option<&Arc<LiveMap>>,
) -> Arc<CompiledTrace<u64>> {
    let mut inserter: Inserter<u64> = Inserter::new();
    for iref in trace.insts() {
        for point in [IPoint::Before, IPoint::After] {
            inserter.insert_call(iref.addr, point, |t, _, _| *t += 1, vec![]);
        }
    }
    let mut cache: CodeCache<u64> = CodeCache::new();
    cache.set_liveness(Arc::clone(conservative));
    if let Some(refined) = refined {
        cache.set_refined_liveness(Arc::clone(refined));
    }
    let (id, _) = cache.compile(trace, None, &mut inserter, &CostModel::default());
    assert_eq!(cache.clobber_violations(), &[], "at {:#x}", trace.entry());
    Arc::clone(cache.trace(id))
}

/// gcc dispatches through resolved `jalr` calls. At those sites the
/// refined liveness proves saved registers dead that the conservative
/// map keeps live, so some call must carry a non-empty `elided` set —
/// and nothing else about the compiled calls may change.
#[test]
fn refined_liveness_elides_at_resolved_calls_without_moving_saves_or_cost() {
    let program = superpin_workloads::find("gcc")
        .expect("gcc")
        .build(Scale::Tiny);
    let analysis = ProgramAnalysis::compute(&program).expect("analysis");
    let conservative = Arc::new(LiveMap::compute(&program).expect("liveness"));
    let refined = Arc::new(analysis.refined_liveness());
    let process = Process::load(1, &program).expect("load");
    let cost = |call: &LoweredCall<u64>| match call {
        LoweredCall::Plain { cost, .. } => *cost,
        _ => unreachable!("only plain calls inserted"),
    };

    let mut sites = 0;
    let mut elided = 0;
    for block in analysis.cfg.blocks() {
        let site = block.insts.last().expect("non-empty block").0;
        let resolved_call = matches!(block.terminator, Terminator::IndirectCall { .. })
            && matches!(
                analysis.targets.indirect_targets.get(&site),
                Some(TargetSet::Resolved(_))
            );
        if !resolved_call {
            continue;
        }
        let trace = discover_trace(&process.mem, block.start).expect("trace");
        assert_eq!(trace.insts().last().expect("non-empty").addr, site);
        sites += 1;

        let plain = compile_instrumented(&trace, &conservative, None);
        let planned = compile_instrumented(&trace, &conservative, Some(&refined));
        for index in 0..plain.insts.len() {
            let lists = [
                (plain.before(index), planned.before(index)),
                (plain.after(index), planned.after(index)),
            ];
            for (without, with) in lists {
                assert_eq!(without.len(), with.len());
                for (a, b) in without.iter().zip(with) {
                    assert_eq!(a.saves, b.saves, "save set moved at {site:#x}");
                    assert!(a.elided.is_empty());
                    assert!(b.elided.is_subset_of(b.saves));
                    assert_eq!(cost(&a.call), cost(&b.call), "cost moved at {site:#x}");
                    elided += b.elided.len();
                }
            }
        }
    }
    assert!(sites > 0, "gcc has resolved indirect call sites");
    assert!(
        elided > 0,
        "refined liveness elided nothing at {sites} sites"
    );
}
