//! Whole-program analysis: indirect-target resolution against the
//! generator's ground-truth dispatch tables, call-graph recovery,
//! loop nesting, SMC detection, and refined liveness.

use std::collections::BTreeSet;

use superpin_analysis::{ProgramAnalysis, TargetSet, Terminator};
use superpin_isa::{Inst, ProgramBuilder, Reg};
use superpin_workloads::{catalog, meta, Scale};

/// Every generated workload's dispatch table must be rediscovered by
/// constant propagation: every `jalr` site resolves, and each
/// indirect-call site's target set equals the ground-truth unit table
/// (read from symbols the analysis never sees).
#[test]
fn catalog_dispatch_tables_resolve_exactly() {
    for spec in catalog() {
        let program = spec.build(Scale::Tiny);
        let analysis = ProgramAnalysis::compute(&program).expect("analysis");

        let unresolved = analysis.targets.unresolved_sites();
        assert!(
            unresolved.is_empty(),
            "{}: unresolved jalr sites {unresolved:?}",
            spec.name
        );
        assert!(
            !analysis.targets.stores.unknown,
            "{}: store summary degraded to unknown",
            spec.name
        );

        let truth: BTreeSet<u64> = meta::dispatch_meta(&program)
            .expect("generated workloads have a unit_table")
            .entries
            .into_iter()
            .collect();

        let mut call_sites = 0;
        for block in analysis.cfg.blocks() {
            let site = match block.terminator {
                Terminator::IndirectCall { .. } => block.insts.last().expect("non-empty").0,
                _ => continue,
            };
            let Some(TargetSet::Resolved(set)) = analysis.targets.indirect_targets.get(&site)
            else {
                panic!("{}: dispatch site {site:#x} not resolved", spec.name);
            };
            assert_eq!(
                set, &truth,
                "{}: dispatch site {site:#x} resolved to a different set than the table",
                spec.name
            );
            call_sites += 1;
        }
        assert!(
            call_sites > 0,
            "{}: no indirect call sites found",
            spec.name
        );
    }
}

/// Returns (rets) resolve to the actual return sites: each unit's
/// `jalr ra, ra` must target exactly the fall-throughs of the
/// dispatch `jalr` sites.
#[test]
fn catalog_returns_resolve_to_call_fallthroughs() {
    let spec = superpin_workloads::find("gcc").expect("gcc in catalog");
    let program = spec.build(Scale::Tiny);
    let analysis = ProgramAnalysis::compute(&program).expect("analysis");

    let mut falls: BTreeSet<u64> = BTreeSet::new();
    for block in analysis.cfg.blocks() {
        if let Terminator::IndirectCall { fall } = block.terminator {
            falls.insert(fall);
        }
    }
    for block in analysis.cfg.blocks() {
        if !matches!(block.terminator, Terminator::IndirectJump) {
            continue;
        }
        let site = block.insts.last().expect("non-empty").0;
        match analysis.targets.indirect_targets.get(&site) {
            Some(TargetSet::Resolved(set)) => {
                assert!(
                    set.is_subset(&falls),
                    "ret at {site:#x} resolved outside the call fall-throughs: {set:?}"
                );
                assert!(!set.is_empty(), "ret at {site:#x} resolved to nothing");
            }
            other => panic!("ret at {site:#x} not resolved: {other:?}"),
        }
    }
}

/// No generated workload writes its own code: the SMC region set must
/// be empty (and not degraded) across the catalog.
#[test]
fn catalog_has_no_smc_regions() {
    for spec in catalog() {
        let program = spec.build(Scale::Tiny);
        let analysis = ProgramAnalysis::compute(&program).expect("analysis");
        assert!(
            analysis.smc.is_empty() && !analysis.smc.degraded(),
            "{}: unexpected SMC pages",
            spec.name
        );
    }
}

/// The call graph reaches every unit function from the entry; a
/// deliberately orphaned function is flagged unreachable.
#[test]
fn callgraph_reachability() {
    let spec = superpin_workloads::find("mcf").expect("mcf in catalog");
    let program = spec.build(Scale::Tiny);
    let analysis = ProgramAnalysis::compute(&program).expect("analysis");
    let truth: BTreeSet<u64> = meta::dispatch_meta(&program)
        .expect("table")
        .entries
        .into_iter()
        .collect();
    let reachable = analysis.callgraph.reachable_funcs();
    for unit in &truth {
        assert!(
            reachable.contains(unit),
            "unit at {unit:#x} not reachable through the dispatch table"
        );
    }
    assert!(analysis.callgraph.unreachable_funcs().is_empty());

    // Orphan: a function nothing calls and nothing takes the address of.
    let mut b = ProgramBuilder::new();
    b.label("main");
    b.li(Reg::R1, 1);
    b.exit(0);
    b.label("orphan");
    b.li(Reg::R2, 2);
    b.ret();
    // Make `orphan` a jal target from dead code so it registers as a
    // function without becoming reachable.
    b.label("dead");
    b.call("orphan");
    b.inst(Inst::Halt);
    let program = b.build().expect("build");
    let analysis = ProgramAnalysis::compute(&program).expect("analysis");
    let unreachable: Vec<_> = analysis
        .callgraph
        .unreachable_funcs()
        .iter()
        .filter_map(|f| f.name.clone())
        .collect();
    assert!(
        unreachable.contains(&"orphan".to_owned()),
        "orphan not flagged: {unreachable:?}"
    );
}

/// Loop nesting depth: an inner loop is strictly deeper than its
/// outer loop, and straight-line code has depth zero.
#[test]
fn loop_nesting_depth() {
    let mut b = ProgramBuilder::new();
    b.label("main");
    b.li(Reg::R1, 10);
    b.label("outer");
    b.li(Reg::R2, 10);
    b.label("inner");
    b.subi(Reg::R2, Reg::R2, 1);
    b.bne(Reg::R2, Reg::R0, "inner");
    b.subi(Reg::R1, Reg::R1, 1);
    b.bne(Reg::R1, Reg::R0, "outer");
    b.exit(0);
    let program = b.build().expect("build");
    let analysis = ProgramAnalysis::compute(&program).expect("analysis");
    let cfg = &analysis.cfg;

    let at = |label: &str| {
        cfg.block_at(program.symbol(label).expect("symbol").addr)
            .expect("block")
    };
    assert_eq!(analysis.loops.depth(at("inner")), 2);
    assert_eq!(analysis.loops.depth(at("outer")), 1);
    assert_eq!(analysis.loops.depth(cfg.entry()), 0);
    assert!(analysis.loops.is_header(at("inner")));
    assert!(analysis.loops.is_header(at("outer")));
}

/// A store through a loop-carried pointer into a named buffer is
/// detected as SMC when the buffer is the code section itself.
#[test]
fn smc_flagged_when_code_is_written() {
    let mut b = ProgramBuilder::new();
    b.label("main");
    b.li(Reg::R1, 0);
    b.label("patch");
    // Store to a code address materialized by la.
    b.la(Reg::R2, "patch");
    b.st(Reg::R1, Reg::R2, 0);
    b.exit(0);
    let program = b.build().expect("build");
    let analysis = ProgramAnalysis::compute(&program).expect("analysis");
    assert!(
        !analysis.smc.is_empty(),
        "write to own code page not flagged as SMC"
    );
    let patch = program.symbol("patch").expect("symbol").addr;
    assert!(analysis.smc.covers(patch, 8));
}

/// The refined interprocedural liveness must elide the dispatch-site
/// save/restores: at a resolved `jalr` call whose callees never read
/// the analysis-clobbered registers, those registers are dead.
#[test]
fn refined_liveness_kills_clobbers_at_dispatch() {
    let spec = superpin_workloads::find("gcc").expect("gcc in catalog");
    let program = spec.build(Scale::Tiny);
    let analysis = ProgramAnalysis::compute(&program).expect("analysis");
    let refined = analysis.refined_liveness();
    let conservative = superpin_analysis::LiveMap::compute(&program).expect("liveness");

    let mut improved = 0usize;
    for block in analysis.cfg.blocks() {
        if !matches!(block.terminator, Terminator::IndirectCall { .. }) {
            continue;
        }
        let site = block.insts.last().expect("non-empty").0;
        let cons = conservative.live_before(site);
        let refd = refined.live_before(site);
        assert!(
            refd.is_subset_of(cons),
            "refined liveness grew at {site:#x}"
        );
        if refd.len() < cons.len() {
            improved += 1;
        }
    }
    assert!(improved > 0, "refinement never improved a dispatch site");
}
