//! Backward register liveness.
//!
//! Classic bit-vector liveness over [`RegSet`]s:
//! `live_in = use ∪ (live_out − def)` per instruction, iterated to a
//! fixpoint across the CFG by the worklist solver.
//!
//! Indirect control flow is handled conservatively. A `jalr` may
//! transfer anywhere, so its continuation could read any register:
//! [`inst_uses`] reports the full register set for `jalr`, and blocks
//! it terminates get an all-live boundary fact. The same boundary
//! applies to blocks that fall off the end of code. Blocks ending in
//! `halt` or the exit idiom have an empty live-out — nothing runs
//! after them (the exit syscall's own argument reads are covered by
//! the `syscall` instruction's use set).
//!
//! `syscall` reads are narrowed: when the syscall number is pinned by
//! a visible in-block `li r0, N`, only the argument registers that
//! syscall actually consumes count as uses ([`syscall_uses`]); an
//! unresolvable number falls back to the whole `r0`–`r5` window. This
//! matters for save/restore elision — without it, any `exit` path
//! keeps `r2`–`r5` artificially live throughout the program.

use std::collections::{BTreeSet, HashMap};

use superpin_isa::{Inst, Program, Reg};

use crate::cfg::{AnalysisError, BlockId, Cfg, Terminator};
use crate::dataflow::{solve, Direction, Problem, Solution};
use crate::regset::RegSet;

/// Registers `inst` reads, over-approximated for indirect control
/// flow: a `jalr`'s unknown continuation may read anything, so it
/// uses every register.
pub fn inst_uses(inst: Inst) -> RegSet {
    match inst {
        Inst::Jalr { .. } => RegSet::ALL,
        _ => RegSet::from_regs(&inst.src_regs()),
    }
}

/// Registers the kernel reads when servicing syscall `number`: `r0`
/// (the number itself) plus the argument registers that syscall
/// consumes. Unknown numbers answer the full `r0`–`r5` window.
pub fn kernel_syscall_uses(number: u64) -> RegSet {
    // Argument counts per syscall number (see superpin-vm's kernel):
    // exit 1, write 3, read 3, open 2, close 1, brk 1, mmap 2,
    // munmap 1, gettime 0, getpid 0, getrandom 2, sigaction 2,
    // raise 1, sigreturn 0.
    const ARG_COUNTS: [u8; 14] = [1, 3, 3, 2, 1, 1, 2, 1, 0, 0, 2, 2, 1, 0];
    let args = match ARG_COUNTS.get(number as usize) {
        Some(&n) => n,
        None => 5, // bad number: assume everything is read
    };
    let mut regs = RegSet::from_regs(&[Reg::R0]);
    for arg in 0..args {
        if let Some(reg) = Reg::try_new(1 + arg) {
            regs.insert(reg);
        }
    }
    regs
}

/// Registers the `syscall` at `block_insts[idx]` reads, narrowed by
/// resolving the nearest in-block `li r0, N` that reaches it. Blocks
/// are single-entry, so a visible unclobbered `li` pins the number on
/// every execution; anything else answers the conservative `r0`–`r5`.
pub fn syscall_uses(block_insts: &[(u64, Inst)], idx: usize) -> RegSet {
    block_insts[..idx]
        .iter()
        .rev()
        .find_map(|&(_, inst)| match inst {
            Inst::Li { rd: Reg::R0, imm } => Some(match u64::try_from(imm) {
                Ok(number) => kernel_syscall_uses(number),
                Err(_) => kernel_syscall_uses(u64::MAX),
            }),
            _ if inst_defs(inst).contains(Reg::R0) => Some(kernel_syscall_uses(u64::MAX)),
            _ => None,
        })
        .unwrap_or_else(|| kernel_syscall_uses(u64::MAX))
}

/// [`inst_uses`] with block context: `syscall` reads are narrowed to
/// the resolved syscall's argument window (see [`syscall_uses`]).
///
/// When `resolved_tail` is set, the block's terminating `jalr` is
/// known to transfer only to statically resolved targets whose
/// live-in flows through CFG edges instead, so it reads only its
/// actual source register rather than the conservative full set.
fn inst_uses_at(block_insts: &[(u64, Inst)], idx: usize, resolved_tail: bool) -> RegSet {
    match block_insts[idx].1 {
        Inst::Syscall => syscall_uses(block_insts, idx),
        inst @ Inst::Jalr { .. } if resolved_tail && idx == block_insts.len() - 1 => {
            RegSet::from_regs(&inst.src_regs())
        }
        inst => inst_uses(inst),
    }
}

/// Registers `inst` writes. `syscall` writes its result to `r0`.
pub fn inst_defs(inst: Inst) -> RegSet {
    let mut defs = RegSet::EMPTY;
    if let Some(rd) = inst.dest_reg() {
        defs.insert(rd);
    }
    if matches!(inst, Inst::Syscall) {
        defs.insert(Reg::R0);
    }
    defs
}

/// Backward liveness, optionally refined by a set of blocks whose
/// indirect terminators are statically resolved. A resolved block
/// loses its conservative all-live boundary — its live-out comes from
/// the (augmented) CFG edges to the resolved targets — and its `jalr`
/// reads only its source register.
struct LivenessProblem<'r> {
    resolved_indirect: Option<&'r BTreeSet<BlockId>>,
}

impl LivenessProblem<'_> {
    fn is_resolved(&self, block: BlockId) -> bool {
        self.resolved_indirect.is_some_and(|s| s.contains(&block))
    }
}

impl Problem for LivenessProblem<'_> {
    type Fact = RegSet;

    fn direction(&self) -> Direction {
        Direction::Backward
    }

    fn init(&self, _cfg: &Cfg) -> RegSet {
        RegSet::EMPTY
    }

    fn boundary(&self, cfg: &Cfg, block: BlockId) -> Option<RegSet> {
        match cfg.blocks()[block].terminator {
            // A resolved indirect terminator's live-out flows through
            // the augmented CFG edges to its static targets.
            Terminator::IndirectJump | Terminator::IndirectCall { .. }
                if self.is_resolved(block) =>
            {
                None
            }
            // Control leaves the graph for an unknown destination (or
            // a callee that will return): anything may be read next.
            Terminator::IndirectJump | Terminator::IndirectCall { .. } | Terminator::FallOffEnd => {
                Some(RegSet::ALL)
            }
            _ => None,
        }
    }

    fn merge(&self, acc: &mut RegSet, edge: &RegSet) {
        *acc = acc.union(*edge);
    }

    fn transfer(&self, cfg: &Cfg, block: BlockId, live_out: &RegSet) -> RegSet {
        let insts = &cfg.blocks()[block].insts;
        let resolved = self.is_resolved(block);
        let mut live = *live_out;
        for idx in (0..insts.len()).rev() {
            live = inst_uses_at(insts, idx, resolved).union(live.minus(inst_defs(insts[idx].1)));
        }
        live
    }
}

/// Block-level liveness facts.
#[derive(Clone, Debug)]
pub struct Liveness {
    solution: Solution<RegSet>,
}

impl Liveness {
    /// Solves liveness over `cfg`.
    pub fn compute(cfg: &Cfg) -> Liveness {
        Liveness {
            solution: solve(
                cfg,
                &LivenessProblem {
                    resolved_indirect: None,
                },
            ),
        }
    }

    /// Solves liveness with resolved-indirect refinement: blocks in
    /// `resolved` lose the all-live indirect boundary. `cfg` must
    /// already carry the resolved indirect edges (see
    /// [`Cfg::with_extra_edges`]) or the result is unsound.
    pub fn compute_refined(cfg: &Cfg, resolved: &BTreeSet<BlockId>) -> Liveness {
        Liveness {
            solution: solve(
                cfg,
                &LivenessProblem {
                    resolved_indirect: Some(resolved),
                },
            ),
        }
    }

    /// Registers live at the block's first instruction.
    pub fn live_in(&self, block: BlockId) -> RegSet {
        self.solution.entry[block]
    }

    /// Registers live after the block's last instruction.
    pub fn live_out(&self, block: BlockId) -> RegSet {
        self.solution.exit[block]
    }
}

/// Per-instruction liveness, keyed by address.
///
/// This is the interface the DBI layer consumes: given an insertion
/// point, which registers hold values a later instruction may read?
/// Addresses the map has never seen answer [`RegSet::ALL`] — an
/// unknown instruction gets the conservative answer, never an
/// unsound one.
#[derive(Clone, Debug)]
pub struct LiveMap {
    before: HashMap<u64, RegSet>,
    after: HashMap<u64, RegSet>,
}

impl LiveMap {
    /// Builds the per-instruction map from a solved CFG.
    pub fn from_cfg(cfg: &Cfg) -> LiveMap {
        LiveMap::from_liveness(cfg, &Liveness::compute(cfg), &BTreeSet::new())
    }

    /// Builds the per-instruction map with resolved-indirect
    /// refinement (see [`Liveness::compute_refined`]).
    pub fn from_cfg_refined(cfg: &Cfg, resolved: &BTreeSet<BlockId>) -> LiveMap {
        LiveMap::from_liveness(cfg, &Liveness::compute_refined(cfg, resolved), resolved)
    }

    fn from_liveness(cfg: &Cfg, liveness: &Liveness, resolved: &BTreeSet<BlockId>) -> LiveMap {
        let mut before = HashMap::new();
        let mut after = HashMap::new();
        for (id, block) in cfg.blocks().iter().enumerate() {
            let resolved_tail = resolved.contains(&id);
            let mut live = liveness.live_out(id);
            for idx in (0..block.insts.len()).rev() {
                let (addr, inst) = block.insts[idx];
                after.insert(addr, live);
                live = inst_uses_at(&block.insts, idx, resolved_tail)
                    .union(live.minus(inst_defs(inst)));
                before.insert(addr, live);
            }
        }
        LiveMap { before, after }
    }

    /// Convenience: CFG construction plus liveness in one call.
    pub fn compute(program: &Program) -> Result<LiveMap, AnalysisError> {
        Ok(LiveMap::from_cfg(&Cfg::build(program)?))
    }

    /// Registers live just before the instruction at `addr` executes.
    pub fn live_before(&self, addr: u64) -> RegSet {
        self.before.get(&addr).copied().unwrap_or(RegSet::ALL)
    }

    /// Registers live just after the instruction at `addr` executes.
    pub fn live_after(&self, addr: u64) -> RegSet {
        self.after.get(&addr).copied().unwrap_or(RegSet::ALL)
    }
}
