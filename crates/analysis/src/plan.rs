//! Whole-program analysis aggregate, the superblock plan, and the
//! static↔dynamic soundness oracle.
//!
//! [`ProgramAnalysis`] runs every whole-program pass once: CFG,
//! indirect-target resolution, call graph, dominators, natural loops,
//! and SMC regions. From it:
//!
//! * [`ProgramAnalysis::plan`] derives a [`SuperblockPlan`] — the
//!   artifact the DBI engine consumes. It carries exactly what only
//!   whole-program analysis can give: a refined interprocedural
//!   liveness map in which statically resolved `jalr` sites lose the
//!   conservative all-live boundary. The code cache uses it to mark the
//!   saved registers each analysis call could leave unrestored
//!   (`InsertedCall::elided`), a statically verified annotation the
//!   debug clobber verifier checks. Trace selection stays purely
//!   dynamic, as in Pin: the engine decodes at every cache miss, and
//!   trace shapes, instrumentation, and charged costs are identical
//!   with the plan on or off.
//! * [`ProgramAnalysis::oracle`] builds a [`SoundnessOracle`]: the
//!   runner (debug builds) validates every dynamically observed
//!   indirect transfer against the static target sets and every code
//!   write against the SMC regions. A violation is an analysis
//!   soundness bug and fails loudly.

use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};

use superpin_isa::Program;

use crate::callgraph::CallGraph;
use crate::cfg::{AnalysisError, Cfg, Terminator};
use crate::dom::Dominators;
use crate::liveness::LiveMap;
use crate::loops::LoopNest;
use crate::smc::SmcRegions;
use crate::targets::{TargetResolution, TargetSet};

/// The argument of [`ProgramAnalysis::plan`]: a field-less struct. The
/// plan is the refined liveness map, which has nothing to tune; the
/// type stays only so existing `plan(PlanKnobs::default())` callers
/// keep compiling. (Braced, not a unit struct, so `default()` is the
/// idiomatic way to build it.)
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlanKnobs {}

/// Every whole-program static analysis result in one place.
pub struct ProgramAnalysis {
    /// The whole-program CFG.
    pub cfg: Cfg,
    /// Indirect-target resolution and the store summary.
    pub targets: TargetResolution,
    /// The recovered call graph.
    pub callgraph: CallGraph,
    /// Dominator sets over `cfg`.
    pub doms: Dominators,
    /// Natural loops and per-block nesting depth.
    pub loops: LoopNest,
    /// Pages that may be both written and executed.
    pub smc: SmcRegions,
}

impl ProgramAnalysis {
    /// Runs all whole-program passes over `program`.
    pub fn compute(program: &Program) -> Result<ProgramAnalysis, AnalysisError> {
        let cfg = Cfg::build(program)?;
        let targets = TargetResolution::compute(program, &cfg);
        let callgraph = CallGraph::build(program, &cfg, &targets);
        let doms = Dominators::compute(&cfg);
        let loops = LoopNest::compute(&cfg, &doms);
        let smc = SmcRegions::compute(program, &cfg, &targets.stores);
        Ok(ProgramAnalysis {
            cfg,
            targets,
            callgraph,
            doms,
            loops,
            smc,
        })
    }

    /// Block ids whose indirect terminator is fully resolved to block
    /// starts (every static target begins a block), paired with the
    /// extra CFG edges those resolutions induce.
    fn resolved_indirect_edges(&self) -> (BTreeSet<usize>, Vec<(usize, usize)>) {
        let mut resolved = BTreeSet::new();
        let mut edges = Vec::new();
        for (id, block) in self.cfg.blocks().iter().enumerate() {
            if !matches!(
                block.terminator,
                Terminator::IndirectCall { .. } | Terminator::IndirectJump
            ) {
                continue;
            }
            let site = block.insts.last().expect("non-empty block").0;
            let Some(TargetSet::Resolved(set)) = self.targets.indirect_targets.get(&site) else {
                continue;
            };
            let targets: Option<Vec<usize>> =
                set.iter().map(|&addr| self.cfg.block_at(addr)).collect();
            // A resolved target that is not a block start would leave
            // the refinement with a dangling edge; keep the
            // conservative boundary instead.
            let Some(targets) = targets else { continue };
            resolved.insert(id);
            edges.extend(targets.into_iter().map(|t| (id, t)));
        }
        (resolved, edges)
    }

    /// Interprocedurally refined per-instruction liveness: resolved
    /// `jalr` sites propagate liveness through their static targets
    /// instead of assuming everything live. Sound only together with
    /// the oracle-checked target sets.
    pub fn refined_liveness(&self) -> LiveMap {
        let (resolved, edges) = self.resolved_indirect_edges();
        let augmented = self.cfg.with_extra_edges(&edges);
        LiveMap::from_cfg_refined(&augmented, &resolved)
    }

    /// Derives the superblock plan: the refined liveness, computed once
    /// and shared by every engine that installs it.
    pub fn plan(&self, _knobs: PlanKnobs) -> SuperblockPlan {
        SuperblockPlan {
            refined_live: Arc::new(self.refined_liveness()),
        }
    }

    /// Builds the runtime soundness oracle for this analysis.
    pub fn oracle(&self) -> SoundnessOracle {
        SoundnessOracle {
            targets: self.targets.indirect_targets.clone(),
            smc: self.smc.clone(),
            violations: Mutex::new(Vec::new()),
        }
    }
}

/// What whole-program analysis hands the DBI engine: the
/// interprocedurally refined liveness map.
#[derive(Clone, Debug)]
pub struct SuperblockPlan {
    /// Shared (`Arc`) so every slice engine of a run can install it
    /// without deep-copying the per-instruction sets.
    refined_live: Arc<LiveMap>,
}

impl SuperblockPlan {
    /// Shared handle to the refined liveness map (what the DBI code
    /// cache installs).
    pub fn refined_liveness_arc(&self) -> Arc<LiveMap> {
        Arc::clone(&self.refined_live)
    }
}

/// One observed divergence between static analysis and execution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OracleViolation {
    /// A `jalr` at `site` reached `dest`, outside its resolved set.
    Transfer { site: u64, dest: u64 },
    /// A `jalr` at `site` was never analyzed (reached dynamically but
    /// not statically).
    UnknownSite { site: u64, dest: u64 },
    /// A code write touched `[addr, addr + len)` outside every
    /// flagged SMC region.
    CodeWrite { addr: u64, len: u64 },
}

impl std::fmt::Display for OracleViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OracleViolation::Transfer { site, dest } => {
                write!(
                    f,
                    "jalr at {site:#x} reached {dest:#x} outside its static target set"
                )
            }
            OracleViolation::UnknownSite { site, dest } => {
                write!(
                    f,
                    "jalr at {site:#x} (reached {dest:#x}) was never statically analyzed"
                )
            }
            OracleViolation::CodeWrite { addr, len } => {
                write!(
                    f,
                    "code write [{addr:#x}, +{len}) outside every static SMC region"
                )
            }
        }
    }
}

/// Cross-validates dynamic execution against static analysis.
///
/// Shared (`Arc`) across every engine of a run; checks record
/// violations and return whether the observation was admitted so
/// callers can `debug_assert!` on the spot.
#[derive(Debug)]
pub struct SoundnessOracle {
    targets: std::collections::BTreeMap<u64, TargetSet>,
    smc: SmcRegions,
    violations: Mutex<Vec<OracleViolation>>,
}

impl SoundnessOracle {
    /// Validates a dynamic `jalr` transfer `site → dest`. True if the
    /// static analysis admits it.
    pub fn check_transfer(&self, site: u64, dest: u64) -> bool {
        let violation = match self.targets.get(&site) {
            Some(set) if set.admits(dest) => return true,
            Some(_) => OracleViolation::Transfer { site, dest },
            None => OracleViolation::UnknownSite { site, dest },
        };
        self.violations.lock().expect("oracle lock").push(violation);
        false
    }

    /// Validates a dynamic write to code bytes `[addr, addr + len)`.
    /// True if the static SMC regions cover it.
    pub fn check_code_write(&self, addr: u64, len: u64) -> bool {
        if self.smc.covers(addr, len) {
            return true;
        }
        self.violations
            .lock()
            .expect("oracle lock")
            .push(OracleViolation::CodeWrite { addr, len });
        false
    }

    /// All recorded violations, in observation order.
    pub fn violations(&self) -> Vec<OracleViolation> {
        self.violations.lock().expect("oracle lock").clone()
    }

    /// True if nothing unsound was ever observed.
    pub fn is_clean(&self) -> bool {
        self.violations.lock().expect("oracle lock").is_empty()
    }
}
