//! Static lints over a program's CFG and dataflow facts.
//!
//! [`run_lints`] runs five checks and returns a [`LintReport`]:
//!
//! | lint | severity | backed by |
//! |------|----------|-----------|
//! | fall-off-end        | error   | CFG terminators |
//! | undefined-read      | warning | reaching definitions |
//! | unreachable-block   | warning | CFG reachability |
//! | stack-imbalance     | warning | SP-offset dataflow + dominators |
//! | dead-store          | info    | liveness |
//!
//! Errors and warnings indicate real defects; info findings are
//! advisory (a dead store is legal, just wasted work). The severity
//! split is what the workload-lint test keys on: generated benchmarks
//! must be free of errors and warnings.

use std::fmt;

use superpin_isa::{AluOp, Inst, Program, Reg};

use crate::cfg::{AnalysisError, Cfg, Terminator};
use crate::dataflow::{solve, Direction, Problem};
use crate::dom::Dominators;
use crate::liveness::LiveMap;
use crate::reaching::ReachingDefs;
use crate::regset::RegSet;

/// How serious a finding is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    Error,
    Warning,
    Info,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Error => write!(f, "error"),
            Severity::Warning => write!(f, "warning"),
            Severity::Info => write!(f, "info"),
        }
    }
}

/// Which lint produced a finding.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LintKind {
    UndefinedRead,
    UnreachableBlock,
    FallOffEnd,
    StackImbalance,
    DeadStore,
    /// Whole-program: a recovered function no call path can reach.
    UnreachableFunction,
    /// Whole-program: a `jalr` whose target set could not be bounded.
    UnresolvedIndirect,
    /// Whole-program: a self-modifying-code page inside a hot loop.
    SmcOverlapsHotLoop,
}

impl LintKind {
    /// Stable kebab-case name, used in CLI output.
    pub fn slug(self) -> &'static str {
        match self {
            LintKind::UndefinedRead => "undefined-read",
            LintKind::UnreachableBlock => "unreachable-block",
            LintKind::FallOffEnd => "fall-off-end",
            LintKind::StackImbalance => "stack-imbalance",
            LintKind::DeadStore => "dead-store",
            LintKind::UnreachableFunction => "unreachable-function",
            LintKind::UnresolvedIndirect => "unresolved-indirect",
            LintKind::SmcOverlapsHotLoop => "smc-overlaps-hot-loop",
        }
    }

    /// The severity every finding of this kind carries.
    pub fn severity(self) -> Severity {
        match self {
            LintKind::FallOffEnd | LintKind::SmcOverlapsHotLoop => Severity::Error,
            LintKind::UndefinedRead
            | LintKind::UnreachableBlock
            | LintKind::StackImbalance
            | LintKind::UnreachableFunction
            | LintKind::UnresolvedIndirect => Severity::Warning,
            LintKind::DeadStore => Severity::Info,
        }
    }
}

/// A single lint finding, anchored to an instruction address.
#[derive(Clone, Debug)]
pub struct Finding {
    pub kind: LintKind,
    pub addr: u64,
    pub message: String,
}

impl Finding {
    /// The finding's severity (determined by its kind).
    pub fn severity(&self) -> Severity {
        self.kind.severity()
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] {:#x}: {}",
            self.severity(),
            self.kind.slug(),
            self.addr,
            self.message
        )
    }
}

/// All findings for one program, sorted by address.
#[derive(Clone, Debug, Default)]
pub struct LintReport {
    findings: Vec<Finding>,
}

impl LintReport {
    /// Every finding, in address order.
    pub fn findings(&self) -> &[Finding] {
        &self.findings
    }

    /// Findings of one kind.
    pub fn of_kind(&self, kind: LintKind) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(move |f| f.kind == kind)
    }

    /// Number of error-severity findings.
    pub fn errors(&self) -> usize {
        self.count(Severity::Error)
    }

    /// Number of warning-severity findings.
    pub fn warnings(&self) -> usize {
        self.count(Severity::Warning)
    }

    /// Number of info-severity findings.
    pub fn infos(&self) -> usize {
        self.count(Severity::Info)
    }

    fn count(&self, severity: Severity) -> usize {
        self.findings
            .iter()
            .filter(|f| f.severity() == severity)
            .count()
    }

    /// True if the program has no errors or warnings (info findings
    /// are advisory and do not break cleanliness).
    pub fn is_clean(&self) -> bool {
        self.errors() == 0 && self.warnings() == 0
    }
}

/// Runs every lint against `program`.
pub fn run_lints(program: &Program) -> Result<LintReport, AnalysisError> {
    let cfg = Cfg::build(program)?;
    let mut findings = Vec::new();
    lint_fall_off_end(&cfg, &mut findings);
    lint_undefined_reads(&cfg, &mut findings);
    lint_unreachable(&cfg, &mut findings);
    lint_stack_imbalance(&cfg, &mut findings);
    lint_dead_stores(&cfg, &mut findings);
    findings.sort_by_key(|f| (f.addr, f.kind.slug()));
    Ok(LintReport { findings })
}

/// Runs the whole-program lints (on top of [`run_lints`]'s per-block
/// checks): unreachable functions, unresolved indirect transfers, and
/// SMC pages overlapping hot loops.
pub fn run_whole_program_lints(program: &Program) -> Result<LintReport, AnalysisError> {
    let analysis = crate::plan::ProgramAnalysis::compute(program)?;
    let mut report = run_lints(program)?;
    let mut findings = std::mem::take(&mut report.findings);

    for func in analysis.callgraph.unreachable_funcs() {
        let label = match &func.name {
            Some(name) => format!("function `{name}`"),
            None => "function".to_owned(),
        };
        findings.push(Finding {
            kind: LintKind::UnreachableFunction,
            addr: func.entry,
            message: format!("{label} is never reached from the program entry"),
        });
    }

    for site in analysis.targets.unresolved_sites() {
        findings.push(Finding {
            kind: LintKind::UnresolvedIndirect,
            addr: site,
            message: "indirect transfer target set could not be statically bounded".to_owned(),
        });
    }

    // SMC pages are errors when they overlap a block inside a natural
    // loop: the engine must flush its code cache on every rewrite, so
    // self-modifying hot code forfeits the entire point of trace
    // caching.
    let reachable = analysis.cfg.reachable();
    for (id, block) in analysis.cfg.blocks().iter().enumerate() {
        if !reachable[id] || analysis.loops.depth(id) == 0 || block.insts.is_empty() {
            continue;
        }
        if analysis.smc.covers(block.start, 1) || analysis.smc.covers(block.end() - 1, 1) {
            findings.push(Finding {
                kind: LintKind::SmcOverlapsHotLoop,
                addr: block.start,
                message: format!(
                    "block at loop depth {} sits on a page the program may rewrite",
                    analysis.loops.depth(id)
                ),
            });
        }
    }

    findings.sort_by_key(|f| (f.addr, f.kind.slug()));
    Ok(LintReport { findings })
}

// --- fall-off-end ---------------------------------------------------------

fn lint_fall_off_end(cfg: &Cfg, findings: &mut Vec<Finding>) {
    for block in cfg.blocks() {
        let last_addr = block
            .insts
            .last()
            .map(|&(addr, _)| addr)
            .unwrap_or(block.start);
        match block.terminator {
            Terminator::FallOffEnd => findings.push(Finding {
                kind: LintKind::FallOffEnd,
                addr: last_addr,
                message: "execution falls off the end of the code section".to_owned(),
            }),
            Terminator::Jump(target)
            | Terminator::Branch { taken: target, .. }
            | Terminator::Call { target, .. }
                if cfg.block_at(target).is_none() =>
            {
                findings.push(Finding {
                    kind: LintKind::FallOffEnd,
                    addr: last_addr,
                    message: format!("control transfers to {target:#x}, outside the code section"),
                });
            }
            Terminator::Branch { fall, .. } if cfg.block_at(fall).is_none() => {
                findings.push(Finding {
                    kind: LintKind::FallOffEnd,
                    addr: last_addr,
                    message: "branch fall-through runs off the end of the code section".to_owned(),
                });
            }
            _ => {}
        }
    }
}

// --- undefined-read -------------------------------------------------------

/// Registers `inst` architecturally reads, for the undefined-read
/// lint. Unlike [`crate::liveness::inst_uses`] this does not inflate
/// `jalr` to the full set (the continuation's reads are its own), and
/// it narrows `syscall` to the argument registers the kernel actually
/// consumes when the syscall number is a visible in-block `li r0, N`.
fn lint_uses(block_insts: &[(u64, Inst)], idx: usize) -> RegSet {
    let (_, inst) = block_insts[idx];
    match inst {
        Inst::Syscall => crate::liveness::syscall_uses(block_insts, idx),
        _ => RegSet::from_regs(&inst.src_regs()),
    }
}

fn lint_undefined_reads(cfg: &Cfg, findings: &mut Vec<Finding>) {
    let reaching = ReachingDefs::compute(cfg);
    let reachable = cfg.reachable();
    for (id, block) in cfg.blocks().iter().enumerate() {
        if !reachable[id] {
            continue;
        }
        for idx in 0..block.insts.len() {
            let (addr, _) = block.insts[idx];
            for reg in lint_uses(&block.insts, idx).iter() {
                if reaching.maybe_uninit_read(cfg, addr, reg) {
                    findings.push(Finding {
                        kind: LintKind::UndefinedRead,
                        addr,
                        message: format!(
                            "{reg} may be read before any write reaches this instruction"
                        ),
                    });
                }
            }
        }
    }
}

// --- unreachable-block ----------------------------------------------------

fn lint_unreachable(cfg: &Cfg, findings: &mut Vec<Finding>) {
    let reachable = cfg.reachable();
    for (id, block) in cfg.blocks().iter().enumerate() {
        if !reachable[id] {
            findings.push(Finding {
                kind: LintKind::UnreachableBlock,
                addr: block.start,
                message: format!(
                    "block is unreachable from the entry point and all indirect targets \
                     ({} instructions)",
                    block.insts.len()
                ),
            });
        }
    }
}

// --- stack-imbalance ------------------------------------------------------

/// Abstract stack-pointer offset relative to the value at entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum SpFact {
    /// No path reaches here yet (lattice bottom).
    Unreached,
    /// SP is the entry value plus a known constant.
    Known(i64),
    /// SP was rewritten in a way the analysis cannot track.
    Unknown,
    /// Predecessors disagree on a known offset — the defect.
    Conflict,
}

struct SpProblem;

impl Problem for SpProblem {
    type Fact = SpFact;

    fn direction(&self) -> Direction {
        Direction::Forward
    }

    fn init(&self, _cfg: &Cfg) -> SpFact {
        SpFact::Unreached
    }

    fn boundary(&self, cfg: &Cfg, block: crate::cfg::BlockId) -> Option<SpFact> {
        if block == cfg.entry() {
            Some(SpFact::Known(0))
        } else if cfg.address_taken().contains(&block) {
            // Indirect entries arrive with whatever offset the caller
            // had; unknown, but not a defect.
            Some(SpFact::Unknown)
        } else {
            None
        }
    }

    fn merge(&self, acc: &mut SpFact, edge: &SpFact) {
        *acc = merge_sp(*acc, *edge);
    }

    fn transfer(&self, cfg: &Cfg, block: crate::cfg::BlockId, input: &SpFact) -> SpFact {
        let mut fact = *input;
        for &(_, inst) in &cfg.blocks()[block].insts {
            fact = sp_transfer(fact, inst);
        }
        fact
    }
}

fn merge_sp(a: SpFact, b: SpFact) -> SpFact {
    match (a, b) {
        (SpFact::Unreached, x) | (x, SpFact::Unreached) => x,
        (SpFact::Conflict, _) | (_, SpFact::Conflict) => SpFact::Conflict,
        (SpFact::Unknown, _) | (_, SpFact::Unknown) => SpFact::Unknown,
        (SpFact::Known(x), SpFact::Known(y)) => {
            if x == y {
                SpFact::Known(x)
            } else {
                SpFact::Conflict
            }
        }
    }
}

fn sp_transfer(fact: SpFact, inst: Inst) -> SpFact {
    if !crate::liveness::inst_defs(inst).contains(Reg::SP) {
        return fact;
    }
    let offset = match fact {
        SpFact::Known(offset) => offset,
        other => return other, // adjusting an untracked SP stays untracked
    };
    match inst {
        Inst::AluImm {
            op: AluOp::Add,
            rd: Reg::SP,
            rs1: Reg::SP,
            imm,
        } => SpFact::Known(offset + imm as i64),
        Inst::AluImm {
            op: AluOp::Sub,
            rd: Reg::SP,
            rs1: Reg::SP,
            imm,
        } => SpFact::Known(offset - imm as i64),
        Inst::Mov {
            rd: Reg::SP,
            rs: Reg::SP,
        } => SpFact::Known(offset),
        _ => SpFact::Unknown,
    }
}

fn lint_stack_imbalance(cfg: &Cfg, findings: &mut Vec<Finding>) {
    let solution = solve(cfg, &SpProblem);
    let dominators = Dominators::compute(cfg);
    let back_edges = dominators.back_edges(cfg);
    let reachable = cfg.reachable();
    for (id, block) in cfg.blocks().iter().enumerate() {
        if !reachable[id] || solution.entry[id] != SpFact::Conflict {
            continue;
        }
        // Report where tracking breaks down, not everywhere the
        // conflict propagates: some path must still arrive here with a
        // concrete offset. Blocks fed only by already-conflicted
        // predecessors are downstream noise.
        let tracked_arrival = block
            .preds
            .iter()
            .any(|&pred| matches!(solution.exit[pred], SpFact::Known(_)))
            || matches!(SpProblem.boundary(cfg, id), Some(SpFact::Known(_)));
        if !tracked_arrival {
            continue;
        }
        let via_loop = back_edges.iter().any(|&(_, to)| to == id);
        let detail = if via_loop {
            " (a loop shifts the stack pointer on every iteration)"
        } else {
            ""
        };
        findings.push(Finding {
            kind: LintKind::StackImbalance,
            addr: block.start,
            message: format!("predecessors reach this block with different stack offsets{detail}"),
        });
    }
}

// --- dead-store -----------------------------------------------------------

fn lint_dead_stores(cfg: &Cfg, findings: &mut Vec<Finding>) {
    let live = LiveMap::from_cfg(cfg);
    let reachable = cfg.reachable();
    for (id, block) in cfg.blocks().iter().enumerate() {
        if !reachable[id] {
            continue;
        }
        for &(addr, inst) in &block.insts {
            // Only pure register writes: loads can fault and control
            // transfers write link registers as a side effect.
            let is_pure_write = matches!(
                inst,
                Inst::Alu { .. } | Inst::AluImm { .. } | Inst::Li { .. } | Inst::Mov { .. }
            );
            if !is_pure_write {
                continue;
            }
            let rd = inst.dest_reg().expect("pure writes have a destination");
            if !live.live_after(addr).contains(rd) {
                findings.push(Finding {
                    kind: LintKind::DeadStore,
                    addr,
                    message: format!("value written to {rd} is never read"),
                });
            }
        }
    }
}
