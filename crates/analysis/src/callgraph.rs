//! Interprocedural call graph recovery.
//!
//! Functions are identified by their entry addresses: the program
//! entry, every `jal` target, and every address-taken block (any of
//! which an indirect call may enter). A function's body is the set of
//! blocks reachable from its entry *without* following call targets
//! (call fall-throughs model returns) and stopping at indirect jumps;
//! blocks may be shared between functions when control merges.
//!
//! Call edges combine direct `jal` targets with the resolved indirect
//! target sets from [`crate::targets`]; an [`TargetSet::Unresolved`]
//! call site conservatively links to every address-taken function.

use std::collections::{BTreeMap, BTreeSet};

use superpin_isa::Program;

use crate::cfg::{BlockId, Cfg, Terminator};
use crate::targets::{TargetResolution, TargetSet};

/// One recovered function.
#[derive(Clone, Debug)]
pub struct FuncInfo {
    /// Entry address.
    pub entry: u64,
    /// Symbol name, when the program has one at the entry address.
    pub name: Option<String>,
    /// Blocks in the body, in address order.
    pub blocks: Vec<BlockId>,
    /// Entry addresses of callees (direct and resolved indirect).
    pub callees: BTreeSet<u64>,
    /// True if the body contains an unresolved indirect call.
    pub has_unresolved_call: bool,
}

/// The whole-program call graph.
#[derive(Clone, Debug)]
pub struct CallGraph {
    funcs: BTreeMap<u64, FuncInfo>,
    entry: u64,
}

impl CallGraph {
    /// Recovers the call graph from the CFG and target resolution.
    pub fn build(program: &Program, cfg: &Cfg, targets: &TargetResolution) -> CallGraph {
        let mut entries: BTreeSet<u64> = BTreeSet::new();
        entries.insert(program.entry());
        for &id in cfg.address_taken() {
            entries.insert(cfg.blocks()[id].start);
        }
        for block in cfg.blocks() {
            if let Terminator::Call { target, .. } = block.terminator {
                if cfg.block_at(target).is_some() {
                    entries.insert(target);
                }
            }
        }

        let address_taken: BTreeSet<u64> = cfg
            .address_taken()
            .iter()
            .map(|&id| cfg.blocks()[id].start)
            .collect();

        let mut funcs = BTreeMap::new();
        for &entry in &entries {
            let blocks = body_blocks(cfg, entry);
            let mut callees = BTreeSet::new();
            let mut has_unresolved_call = false;
            for &id in &blocks {
                let block = &cfg.blocks()[id];
                match block.terminator {
                    Terminator::Call { target, .. } if entries.contains(&target) => {
                        callees.insert(target);
                    }
                    Terminator::Call { .. } => {}
                    Terminator::IndirectCall { .. } | Terminator::IndirectJump => {
                        let site = block.insts.last().expect("non-empty block").0;
                        match targets.indirect_targets.get(&site) {
                            Some(TargetSet::Resolved(set)) => {
                                // A resolved ret targets return sites,
                                // not functions; only entries count as
                                // call edges.
                                callees.extend(set.iter().filter(|a| entries.contains(a)));
                            }
                            Some(TargetSet::Unresolved) => {
                                has_unresolved_call = true;
                                callees.extend(address_taken.iter().copied());
                            }
                            // Site unreached by the value solver:
                            // statically dead, no edges.
                            None => {}
                        }
                    }
                    _ => {}
                }
            }
            let name = program.symbol_for_addr(entry).map(|s| s.name.clone());
            funcs.insert(
                entry,
                FuncInfo {
                    entry,
                    name,
                    blocks,
                    callees,
                    has_unresolved_call,
                },
            );
        }

        CallGraph {
            funcs,
            entry: program.entry(),
        }
    }

    /// Function entries transitively callable from the program entry.
    pub fn reachable_funcs(&self) -> BTreeSet<u64> {
        let mut seen = BTreeSet::new();
        let mut stack = vec![self.entry];
        while let Some(entry) = stack.pop() {
            if !seen.insert(entry) {
                continue;
            }
            if let Some(func) = self.funcs.get(&entry) {
                for &callee in &func.callees {
                    if !seen.contains(&callee) {
                        stack.push(callee);
                    }
                }
            }
        }
        seen
    }

    /// Functions never callable from the program entry.
    pub fn unreachable_funcs(&self) -> Vec<&FuncInfo> {
        let reachable = self.reachable_funcs();
        self.funcs
            .values()
            .filter(|f| !reachable.contains(&f.entry))
            .collect()
    }
}

/// Blocks reachable from `entry` without entering callees: follows
/// branch/jump/fall edges and call fall-throughs, stops at calls'
/// targets and at indirect jumps.
fn body_blocks(cfg: &Cfg, entry: u64) -> Vec<BlockId> {
    let Some(start) = cfg.block_at(entry) else {
        return Vec::new();
    };
    let mut seen = BTreeSet::new();
    let mut stack = vec![start];
    while let Some(id) = stack.pop() {
        if !seen.insert(id) {
            continue;
        }
        let block = &cfg.blocks()[id];
        let nexts: Vec<u64> = match block.terminator {
            Terminator::Jump(t) => vec![t],
            Terminator::Branch { taken, fall } => vec![taken, fall],
            Terminator::FallThrough(fall)
            | Terminator::Syscall { fall }
            | Terminator::Call { fall, .. }
            | Terminator::IndirectCall { fall } => vec![fall],
            Terminator::IndirectJump
            | Terminator::Exit
            | Terminator::Halt
            | Terminator::FallOffEnd => vec![],
        };
        for next in nexts {
            if let Some(succ) = cfg.block_at(next) {
                if !seen.contains(&succ) {
                    stack.push(succ);
                }
            }
        }
    }
    seen.into_iter().collect()
}
