//! Static↔dynamic soundness properties for the whole-program analysis.
//!
//! Two contracts tie `superpin-analysis` to the simulator:
//!
//! 1. **Oracle soundness** — the static results *over-approximate* the
//!    dynamic behavior. For every catalog workload and input, a run
//!    with the [`SoundnessOracle`] installed records zero violations:
//!    every dynamic indirect transfer lands inside its static target
//!    set, and every dynamic code-region write lands inside a static
//!    SMC region.
//! 2. **Plan transparency** — the superblock plan (refined liveness)
//!    only annotates compiled calls. Installing it changes no simulated
//!    quantity: the `SuperPinReport` is bit-identical plan-on vs
//!    plan-off at threads 1, 2 and 4, and the merged tool counts agree.

use std::sync::Arc;

use superpin::{PlanKnobs, ProgramAnalysis, SharedMem, SuperPinConfig, SuperPinReport};
use superpin_bench::runs::run_superpin;
use superpin_replay::recipe::time_scale_for;
use superpin_tools::ICount1;
use superpin_workloads::{catalog, Scale};

const SCALE: Scale = Scale::Tiny;

fn config() -> SuperPinConfig {
    SuperPinConfig::scaled(1000, time_scale_for(SCALE))
}

fn run(name: &str, program: &superpin_isa::Program, cfg: SuperPinConfig) -> (SuperPinReport, u64) {
    let shared = SharedMem::new();
    let tool = ICount1::new(&shared);
    let report = run_superpin(program, tool.clone(), &shared, cfg, name);
    (report, tool.total(&shared))
}

/// Property 1: static target sets and SMC regions contain every dynamic
/// observation — the oracle stays clean across the catalog and across
/// distinct workload inputs (different inputs steer indirect branches
/// down different paths, so each input is an independent witness).
#[test]
fn oracle_is_clean_across_catalog_and_inputs() {
    for spec in catalog() {
        for input in [0, 1, 7] {
            let program = spec.build_with_input(SCALE, input);
            let analysis = ProgramAnalysis::compute(&program)
                .unwrap_or_else(|e| panic!("{} input {input}: analysis: {e}", spec.name));
            let oracle = Arc::new(analysis.oracle());
            let cfg = config().with_oracle(Arc::clone(&oracle));
            run(spec.name, &program, cfg);
            assert!(
                oracle.is_clean(),
                "{} input {input}: dynamic behavior escaped the static \
                 over-approximation: {:?}",
                spec.name,
                oracle.violations(),
            );
        }
    }
}

/// Property 2: plan-on reports are bit-identical to the plan-off
/// baseline at every thread count, and the plan does not disturb the
/// oracle (both installed together is the debug-build default).
#[test]
fn plan_on_reports_match_plan_off_at_all_thread_counts() {
    for spec in catalog() {
        let program = spec.build(SCALE);
        let analysis = ProgramAnalysis::compute(&program)
            .unwrap_or_else(|e| panic!("{}: analysis: {e}", spec.name));
        let plan = Arc::new(analysis.plan(PlanKnobs::default()));
        let oracle = Arc::new(analysis.oracle());

        let (base, count_base) = run(spec.name, &program, config().with_threads(1));
        for threads in [1, 2, 4] {
            let cfg = config()
                .with_threads(threads)
                .with_plan(Arc::clone(&plan))
                .with_oracle(Arc::clone(&oracle));
            let (got, count) = run(spec.name, &program, cfg);
            assert_eq!(
                base, got,
                "{}: plan-on report differs from plan-off at threads={threads}",
                spec.name
            );
            assert_eq!(
                count_base, count,
                "{}: merged icount differs at threads={threads}",
                spec.name
            );
        }
        assert!(
            oracle.is_clean(),
            "{}: oracle violations under plan: {:?}",
            spec.name,
            oracle.violations(),
        );
    }
}
