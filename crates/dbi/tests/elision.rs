//! The clobber-safety verifier and a superblock plan's `elided`
//! annotation.
//!
//! Every analysis call saves the whole clobber set. The verifier
//! re-checks every planned save set in debug builds and must catch a
//! deliberately planted bug. A superblock plan's *refined* liveness
//! marks the saved registers it proves dead as `elided`, while the
//! charged cost stays the flat `analysis_call`.

use std::sync::Arc;
use superpin_analysis::{TargetSet, Terminator};
use superpin_dbi::cache::CompiledTrace;
use superpin_dbi::{
    analysis_clobbers, discover_trace, CodeCache, CostModel, Engine, IPoint, Inserter, LiveMap,
    LoweredCall, Pintool, ProgramAnalysis, Trace,
};
use superpin_isa::asm::assemble;
#[cfg(debug_assertions)]
use superpin_isa::Reg;
use superpin_vm::process::Process;
use superpin_workloads::Scale;

/// A countdown loop: at the loop head `r8` is the counter and `bne`
/// reads `r0`.
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

fn run() -> Engine<ICount> {
    let program = assemble(LOOP).expect("assemble");
    let process = Process::load(1, &program).expect("load");
    let mut engine = Engine::new(process, ICount::default());
    engine.run_to_exit().expect("run");
    engine
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
    // Plant the bug: r0 is in the clobber set, yet the compiler will
    // skip saving it.
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
    assert!(run().clobber_violations().is_empty());
}

/// Compiles `trace` with a plain call before and after every
/// instruction, under `refined` if given. The clobber verifier must pass
/// either way.
fn compile_instrumented(trace: &Trace, refined: Option<&Arc<LiveMap>>) -> Arc<CompiledTrace<u64>> {
    let mut inserter: Inserter<u64> = Inserter::new();
    for iref in trace.insts() {
        for point in [IPoint::Before, IPoint::After] {
            inserter.insert_call(iref.addr, point, |t, _, _| *t += 1, vec![]);
        }
    }
    let mut cache: CodeCache<u64> = CodeCache::new();
    if let Some(refined) = refined {
        cache.set_refined_liveness(Arc::clone(refined));
    }
    let (id, _) = cache.compile(trace, None, &mut inserter, &CostModel::default());
    assert_eq!(cache.clobber_violations(), &[], "at {:#x}", trace.entry());
    Arc::clone(cache.trace(id))
}

/// gcc dispatches through resolved `jalr` calls. At those sites the
/// refined liveness proves saved registers dead, so some call must
/// carry a non-empty `elided` set — and nothing else about the compiled
/// calls may change.
#[test]
fn refined_liveness_elides_at_resolved_calls_without_moving_saves_or_cost() {
    let program = superpin_workloads::find("gcc")
        .expect("gcc")
        .build(Scale::Tiny);
    let analysis = ProgramAnalysis::compute(&program).expect("analysis");
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

        let plain = compile_instrumented(&trace, None);
        let planned = compile_instrumented(&trace, Some(&refined));
        for index in 0..plain.insts.len() {
            let lists = [
                (plain.before(index), planned.before(index)),
                (plain.after(index), planned.after(index)),
            ];
            for (without, with) in lists {
                assert_eq!(without.len(), with.len());
                for (a, b) in without.iter().zip(with) {
                    assert!(a.elided.is_empty());
                    assert!(b.elided.is_subset_of(analysis_clobbers()));
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
