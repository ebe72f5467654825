//! The code cache: compiled, instrumented traces keyed by entry address.

use crate::cost::CostModel;
use crate::inserter::{AnalysisFn, Call, CounterFn, IArg, IPoint, Inserter, PredicateFn};
use crate::spill::{required_saves, ClobberViolation};
use crate::trace::Trace;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;
use superpin_analysis::{LiveMap, RegSet};
use superpin_isa::{Inst, Reg};

/// Hasher for trace-entry keys. Entries are guest addresses — already
/// well distributed — so the default SipHash's per-lookup cost (it
/// dominates a hot dispatch loop) buys nothing; a single multiply-xor
/// finalizer (splitmix64's) is sufficient and an order of magnitude
/// cheaper.
#[derive(Default)]
struct EntryHasher(u64);

impl Hasher for EntryHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Fallback for non-u64 keys (unused by the cache, but required).
        for &byte in bytes {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn write_u64(&mut self, value: u64) {
        let mut v = value.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        v ^= v >> 32;
        self.0 = v;
    }
}

type EntryMap<V> = HashMap<u64, V, BuildHasherDefault<EntryHasher>>;

/// Default cache capacity in cached instructions. Workloads whose hot
/// footprint exceeds this (the paper repeatedly calls out gcc's "large
/// code footprint") take wholesale flushes and recompile, raising their
/// compilation overhead exactly as in the paper.
pub const DEFAULT_CAPACITY_INSTS: usize = 65_536;

/// One argument of a lowered call: everything [`IArg`] can name that is
/// fixed by the instruction and the insertion point is already a value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LoweredArg {
    /// Known at compile time.
    Value(u64),
    /// Effective address of a load/store, from pre-execution registers.
    MemAddr,
    /// Whether the instruction transferred control (after-calls only).
    BranchTaken,
    /// Value of a register when the call runs.
    Reg(Reg),
    /// `mem[sp + 8·i]`, 0 if unmapped.
    StackWord(u32),
}

/// How a call's argument vector is produced at each execution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ArgPlan {
    /// Every argument is a compile-time value: the vector is built once.
    Static(Box<[u64]>),
    /// At least one argument reads execution state; the executor
    /// evaluates the list into its scratch buffer.
    Dynamic(Box<[LoweredArg]>),
}

impl ArgPlan {
    fn lower(args: &[IArg], slot: &CompiledInst, point: IPoint) -> ArgPlan {
        let is_mem = slot.inst.is_mem_read() || slot.inst.is_mem_write();
        let lowered: Vec<LoweredArg> = args
            .iter()
            .map(|arg| match *arg {
                IArg::InstPtr => LoweredArg::Value(slot.addr),
                IArg::UInt(value) => LoweredArg::Value(value),
                IArg::MemAddr if is_mem => LoweredArg::MemAddr,
                // Non-memory instructions have no operand: address 0.
                IArg::MemAddr => LoweredArg::Value(0),
                IArg::MemSize => LoweredArg::Value(match slot.inst {
                    Inst::Ld { width, .. } | Inst::St { width, .. } => width.bytes() as u64,
                    _ => 0,
                }),
                IArg::IsMemWrite => LoweredArg::Value(u64::from(slot.inst.is_mem_write())),
                // Nothing has been taken yet when a before-call runs.
                IArg::BranchTaken if point == IPoint::Before => LoweredArg::Value(0),
                IArg::BranchTaken => LoweredArg::BranchTaken,
                IArg::RegValue(reg) => LoweredArg::Reg(reg),
                IArg::StackWord(i) => LoweredArg::StackWord(i),
                IArg::FallthroughAddr => LoweredArg::Value(slot.addr + slot.size),
            })
            .collect();
        let values: Option<Vec<u64>> = lowered
            .iter()
            .map(|arg| match arg {
                LoweredArg::Value(value) => Some(*value),
                _ => None,
            })
            .collect();
        match values {
            Some(values) => ArgPlan::Static(values.into()),
            None => ArgPlan::Dynamic(lowered.into()),
        }
    }

    fn reads_mem_addr(&self) -> bool {
        matches!(self, ArgPlan::Dynamic(args) if args.contains(&LoweredArg::MemAddr))
    }
}

/// A tool's [`Call`] lowered for the executor: each routine with its
/// argument plan and its static charge summed once, at compile time.
pub enum LoweredCall<T> {
    /// An inlined counter increment
    /// ([`Inserter::insert_count`]): the executor adds `n` to a running
    /// sum and writes it through `counter` only when something else
    /// could observe the counter.
    Count {
        /// The counter accessor.
        counter: CounterFn<T>,
        /// What each execution adds.
        n: u64,
        /// `analysis_call_base + |saves| · save_restore_per_reg`: the
        /// charge of a plain call with no arguments, so inlining moves
        /// no simulated cycle.
        cost: u64,
    },
    /// Unconditional analysis call.
    Plain {
        /// The analysis routine.
        func: AnalysisFn<T>,
        /// `analysis_call_base + |saves| · save_restore_per_reg +
        /// |args| · analysis_arg`: the charge before tool-requested
        /// extra cycles.
        cost: u64,
        /// Its arguments.
        args: ArgPlan,
    },
    /// Inlined predicate guarding an analysis call.
    IfThen {
        /// The inlined quick predicate.
        pred: PredicateFn<T>,
        /// `inline_if_check + |pred_args| · analysis_arg`, charged on
        /// every execution.
        pred_cost: u64,
        /// Predicate arguments.
        pred_args: ArgPlan,
        /// The guarded routine.
        then: AnalysisFn<T>,
        /// The plain-call charge of `then`, added when the predicate
        /// holds.
        then_cost: u64,
        /// Then-call arguments.
        then_args: ArgPlan,
    },
}

/// One analysis call as compiled into the cache: the tool's routine,
/// lowered, plus the register save/restore plan the compiler chose for it.
pub struct InsertedCall<T> {
    /// The analysis call.
    pub call: LoweredCall<T>,
    /// Clobbered registers bracketed with a save/restore around this
    /// call. Without liveness information this is the full clobber set
    /// ([`crate::spill::analysis_clobbers`]); with a
    /// [`LiveMap`] installed, registers dead at the insertion point are
    /// elided.
    pub saves: RegSet,
    /// Subset of `saves` additionally proven dead by the *refined*
    /// interprocedural liveness of a superblock plan
    /// ([`CodeCache::set_refined_liveness`]). These registers skip the
    /// host-side restore, but `saves` is untouched — it is the cost
    /// basis, so charged cycles stay identical with a plan on or off.
    pub elided: RegSet,
}

impl<T> fmt::Debug for InsertedCall<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = match self.call {
            LoweredCall::Count { .. } => "count",
            LoweredCall::Plain { .. } => "plain",
            LoweredCall::IfThen { .. } => "if-then",
        };
        f.debug_struct("InsertedCall")
            .field("call", &kind)
            .field("saves", &self.saves)
            .field("elided", &self.elided)
            .finish()
    }
}

/// One instruction of a compiled trace. Its analysis calls live in the
/// trace's one call array ([`CompiledTrace::before`],
/// [`CompiledTrace::after`]).
#[derive(Debug)]
pub struct CompiledInst {
    /// Guest address.
    pub addr: u64,
    /// The decoded instruction.
    pub inst: Inst,
    /// Encoded size in bytes.
    pub size: u64,
    /// Whether any attached call reads [`LoweredArg::MemAddr`] —
    /// precomputed so the executor only derives the effective address
    /// for slots that can observe it.
    pub needs_mem_ea: bool,
    /// `[start, split, end]` in the trace's call array: the before-calls
    /// are `start..split`, the after-calls `split..end`.
    pub(crate) calls: [u32; 3],
}

/// A compiled trace ready for execution: the trace's instructions, each
/// with its calls already lowered ([`LoweredCall`]). Immutable once built,
/// so engines share it behind an `Arc` (checkpoint clones, templates).
///
/// All of a trace's calls sit in one array in execution order, so the
/// executor walks memory forward instead of chasing one allocation per
/// instruction.
pub struct CompiledTrace<T> {
    /// Entry address (cache key).
    pub entry: u64,
    /// The trace's instructions.
    pub insts: Vec<CompiledInst>,
    /// Every slot's calls, slot by slot, before-calls first.
    pub(crate) calls: Vec<InsertedCall<T>>,
    /// Continuation address if the last instruction falls through.
    pub fallthrough: u64,
    /// Number of basic blocks the source trace had.
    pub num_bbls: usize,
}

impl<T> CompiledTrace<T> {
    /// The calls run before instruction `index` of the trace.
    pub fn before(&self, index: usize) -> &[InsertedCall<T>] {
        let [start, split, _] = self.insts[index].calls;
        &self.calls[start as usize..split as usize]
    }

    /// The calls run after instruction `index` of the trace.
    pub fn after(&self, index: usize) -> &[InsertedCall<T>] {
        let [_, split, end] = self.insts[index].calls;
        &self.calls[split as usize..end as usize]
    }
}

impl<T> fmt::Debug for CompiledTrace<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CompiledTrace")
            .field("entry", &format_args!("{:#x}", self.entry))
            .field("insts", &self.insts.len())
            .field("num_bbls", &self.num_bbls)
            .finish()
    }
}

/// Cache statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Trace lookups.
    pub lookups: u64,
    /// Lookup hits.
    pub hits: u64,
    /// Traces compiled (== misses).
    pub traces_compiled: u64,
    /// Instructions compiled across all traces.
    pub insts_compiled: u64,
    /// Wholesale cache flushes due to capacity pressure.
    pub flushes: u64,
    /// Flushes forced by self-modifying code (a guest write into its own
    /// code region invalidates all translations).
    pub smc_flushes: u64,
}

/// The code cache. Starts *cold*: every SuperPin slice gets a fresh one,
/// which is the source of the paper's per-slice "compilation slowdown"
/// (§6.3: "each slice has its own copy of the code cache, and it starts
/// in a clean state").
///
/// Resident traces sit in a slab and are named by their slab id. Each
/// remembers the last two `(entry pc, id)` pairs control left it for —
/// its *links* — so the steady state of a loop resolves its next trace
/// without hashing. A link is a memo of `index`, never more: every link
/// `(pc, id)` in the slab satisfies `index[pc] == id`, because a slot is
/// only ever re-used for the same entry (a recompile, which starts with
/// no links of its own) and every flush — SMC, capacity, pressure —
/// empties slab and index together. Links belong to this cache, not to
/// the shared [`CompiledTrace`], so engines adopting one template link
/// independently. A linked hit counts in [`CacheStats`] like any hit.
///
/// `Clone` shares the compiled traces (they are immutable behind `Arc`s)
/// and copies links and counters — exactly what a slice checkpoint needs.
#[derive(Clone)]
pub struct CodeCache<T> {
    index: EntryMap<u32>,
    slab: Vec<Resident<T>>,
    resident_insts: usize,
    capacity_insts: usize,
    stats: CacheStats,
    /// Static liveness used to elide save/restores of dead registers
    /// around analysis calls; `None` saves the full clobber set.
    liveness: Option<Arc<LiveMap>>,
    /// Interprocedurally refined liveness from a superblock plan.
    /// Registers in a call's save set that this map proves dead skip
    /// the host-side restore ([`InsertedCall::elided`]) without
    /// changing the charged cost.
    refined: Option<Arc<LiveMap>>,
    /// Host-only counter: restores elided via `refined` across all
    /// compilations. Deliberately *not* part of [`CacheStats`], which
    /// feeds bit-identical-report comparisons.
    elided_restores: u64,
    /// Test hook: a register deliberately omitted from every planned
    /// save set, so the clobber-safety verifier has a bug to catch.
    clobber_bug: Option<Reg>,
    /// Clobber-safety violations found while compiling (populated in
    /// debug/test builds only).
    violations: Vec<ClobberViolation>,
}

#[derive(Clone)]
struct Resident<T> {
    trace: Arc<CompiledTrace<T>>,
    /// Most recent successor first.
    links: [Option<(u64, u32)>; 2],
}

impl<T> fmt::Debug for CodeCache<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CodeCache")
            .field("traces", &self.index.len())
            .field("resident_insts", &self.resident_insts)
            .field("capacity_insts", &self.capacity_insts)
            .finish()
    }
}

impl<T> Default for CodeCache<T> {
    fn default() -> CodeCache<T> {
        CodeCache::new()
    }
}

impl<T> CodeCache<T> {
    /// An empty cache with the default capacity.
    pub fn new() -> CodeCache<T> {
        CodeCache::with_capacity(DEFAULT_CAPACITY_INSTS)
    }

    /// An empty cache bounded at `capacity_insts` cached instructions.
    pub fn with_capacity(capacity_insts: usize) -> CodeCache<T> {
        CodeCache {
            index: EntryMap::default(),
            slab: Vec::new(),
            resident_insts: 0,
            capacity_insts: capacity_insts.max(1),
            stats: CacheStats::default(),
            liveness: None,
            refined: None,
            elided_restores: 0,
            clobber_bug: None,
            violations: Vec::new(),
        }
    }

    /// Installs static liveness for the guest program. Subsequent
    /// compilations elide save/restores of registers proven dead at each
    /// insertion point. Must be installed while the cache is cold (or
    /// after a flush): already-compiled traces keep their conservative
    /// save sets.
    pub fn set_liveness(&mut self, liveness: Arc<LiveMap>) {
        self.liveness = Some(liveness);
    }

    /// Installs the superblock plan's interprocedurally refined
    /// liveness. Registers a call must *save* (per the conservative
    /// map) but that the refined map proves dead are marked
    /// [`InsertedCall::elided`]: the host skips their restore while
    /// the charged cost still covers the full save set. Like
    /// [`CodeCache::set_liveness`], install while cold.
    pub fn set_refined_liveness(&mut self, refined: Arc<LiveMap>) {
        self.refined = Some(refined);
    }

    /// Host-only count of save/restores elided by the refined
    /// liveness across all compilations. Not part of [`CacheStats`].
    pub fn elided_restores(&self) -> u64 {
        self.elided_restores
    }

    /// Test hook: omit `reg` from every save set the compiler plans, so
    /// the debug-build clobber-safety verifier has a deliberate bug to
    /// catch. Never use outside negative tests.
    pub fn inject_clobber_bug(&mut self, reg: Reg) {
        self.clobber_bug = Some(reg);
    }

    /// Clobber-safety violations found while compiling. Verification
    /// runs in debug/test builds (`debug_assertions`); release builds
    /// always report an empty list.
    pub fn clobber_violations(&self) -> &[ClobberViolation] {
        &self.violations
    }

    /// Whether a deliberate clobber bug is armed
    /// ([`inject_clobber_bug`](CodeCache::inject_clobber_bug)). A bugged
    /// cache compiles differently from its peers, so its traces must not
    /// be shared across engines.
    pub fn has_clobber_bug(&self) -> bool {
        self.clobber_bug.is_some()
    }

    /// Statistics so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Number of cached traces.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Drops every trace and, with them, every link and every id handed
    /// out so far.
    fn clear(&mut self) {
        self.index.clear();
        self.slab.clear();
        self.resident_insts = 0;
    }

    /// Drops every cached trace (self-modifying code detected).
    pub fn flush_for_smc(&mut self) {
        self.clear();
        self.stats.smc_flushes += 1;
    }

    /// Instructions currently resident in compiled traces — the
    /// simulated footprint the memory governor charges for this cache.
    pub fn resident_insts(&self) -> usize {
        self.resident_insts
    }

    /// Drops every cached trace under memory pressure (the governor's
    /// cache-eviction rung), returning the instructions freed. Counted as
    /// a capacity flush in [`CacheStats::flushes`]; an already-empty
    /// cache is left untouched and returns 0.
    pub fn evict_for_pressure(&mut self) -> usize {
        let freed = self.resident_insts;
        if freed == 0 {
            return 0;
        }
        self.clear();
        self.stats.flushes += 1;
        freed
    }

    /// Looks up the trace entered at `entry`, returning its slab id.
    /// `from` names the trace control is leaving, if any: its links are
    /// tried first and updated on a miss, so back-to-back transfers
    /// between the same traces skip the hash. A stale `from` (an id from
    /// before a flush) is harmless — see the type docs.
    #[inline]
    pub fn lookup(&mut self, from: Option<u32>, entry: u64) -> Option<u32> {
        self.stats.lookups += 1;
        let from = from.and_then(|id| self.slab.get_mut(id as usize));
        if let Some(resident) = &from {
            for link in resident.links.iter().flatten() {
                if link.0 == entry {
                    self.stats.hits += 1;
                    return Some(link.1);
                }
            }
        }
        let id = *self.index.get(&entry)?;
        self.stats.hits += 1;
        if let Some(resident) = from {
            resident.links = [Some((entry, id)), resident.links[0]];
        }
        Some(id)
    }

    /// The resident trace with slab id `id`, as returned by
    /// [`lookup`](CodeCache::lookup), [`compile`](CodeCache::compile) or
    /// [`adopt`](CodeCache::adopt) since the last flush.
    ///
    /// # Panics
    ///
    /// Panics on an id that no longer names a resident trace.
    #[inline]
    pub fn trace(&self, id: u32) -> &Arc<CompiledTrace<T>> {
        &self.slab[id as usize].trace
    }

    /// Compiles a discovered trace plus the tool's collected
    /// instrumentation and inserts it. Returns the new trace's slab id
    /// and the number of instructions compiled (for JIT cost accounting).
    ///
    /// Every call is lowered against `cost` here ([`LoweredCall`]), so
    /// the executor adds pre-summed charges and, for all-static argument
    /// lists, passes a pre-built vector. A count is planned and charged
    /// exactly like a plain call with no arguments.
    ///
    /// If inserting would exceed capacity, the whole cache is flushed
    /// first (Pin's wholesale-flush policy).
    pub fn compile(
        &mut self,
        trace: &Trace,
        inserter: Inserter<T>,
        cost: &CostModel,
    ) -> (u32, usize)
    where
        T: 'static,
    {
        let mut insts: Vec<CompiledInst> = trace
            .insts()
            .map(|iref| CompiledInst {
                addr: iref.addr,
                inst: iref.inst,
                size: iref.size,
                needs_mem_ea: false,
                calls: [0; 3],
            })
            .collect();
        // Each slot's `(before, after)` lists, laid out flat at the end.
        let mut lists: Vec<[Vec<InsertedCall<T>>; 2]> =
            insts.iter().map(|_| [Vec::new(), Vec::new()]).collect();

        for (addr, point, call) in inserter.into_calls() {
            if let Some(index) = insts.iter().position(|slot| slot.addr == addr) {
                let slot = &mut insts[index];
                // Live registers at the insertion point: before-calls see
                // the instruction's own reads as live; after-calls see
                // its live-out set. Unknown liveness saves everything.
                let live = match &self.liveness {
                    None => RegSet::ALL,
                    Some(map) => match point {
                        IPoint::Before => map.live_before(addr),
                        IPoint::After => map.live_after(addr),
                    },
                };
                let mut saves = required_saves(live);
                if let Some(bug) = self.clobber_bug {
                    saves.remove(bug);
                }
                // Refined interprocedural liveness (superblock plan):
                // saved registers the refined map proves dead skip
                // their host-side restore. `saves` itself is untouched
                // — it is the cost basis.
                let refined_live = self.refined.as_ref().map(|map| match point {
                    IPoint::Before => map.live_before(addr),
                    IPoint::After => map.live_after(addr),
                });
                let elided = match refined_live {
                    None => RegSet::EMPTY,
                    Some(refined) => saves.minus(required_saves(refined)),
                };
                self.elided_restores += elided.len() as u64;
                // Invocation cost: call/return plus one save/restore per
                // clobbered register the compiler decided to preserve.
                // With no liveness installed the full clobber set is
                // saved and this equals the flat `analysis_call`.
                let invoke =
                    cost.analysis_call_base + saves.len() as u64 * cost.save_restore_per_reg;
                let arg_cost = |args: &[IArg]| args.len() as u64 * cost.analysis_arg;
                let call = match call {
                    Call::Count { counter, n } => LoweredCall::Count {
                        counter,
                        n,
                        cost: invoke,
                    },
                    Call::Plain { func, args } => LoweredCall::Plain {
                        func,
                        cost: invoke + arg_cost(&args),
                        args: ArgPlan::lower(&args, slot, point),
                    },
                    Call::IfThen {
                        pred,
                        pred_args,
                        then,
                        then_args,
                    } => LoweredCall::IfThen {
                        pred,
                        pred_cost: cost.inline_if_check + arg_cost(&pred_args),
                        pred_args: ArgPlan::lower(&pred_args, slot, point),
                        then,
                        then_cost: invoke + arg_cost(&then_args),
                        then_args: ArgPlan::lower(&then_args, slot, point),
                    },
                };
                slot.needs_mem_ea |= match &call {
                    LoweredCall::Count { .. } => false,
                    LoweredCall::Plain { args, .. } => args.reads_mem_addr(),
                    LoweredCall::IfThen {
                        pred_args,
                        then_args,
                        ..
                    } => pred_args.reads_mem_addr() || then_args.reads_mem_addr(),
                };
                let list = &mut lists[index][usize::from(point == IPoint::After)];
                if cfg!(debug_assertions) {
                    // Clobber-safety verifier: every planned save set
                    // must cover the live clobbered registers.
                    let missing = required_saves(live).minus(saves);
                    if !missing.is_empty() {
                        self.violations.push(ClobberViolation {
                            addr,
                            point,
                            call_index: list.len(),
                            missing,
                            live,
                        });
                    }
                    // With elision, what is actually restored is
                    // `saves − elided`; it must still cover the
                    // refined requirement.
                    if let Some(refined) = refined_live {
                        let missing = required_saves(refined).minus(saves.minus(elided));
                        if !missing.is_empty() {
                            self.violations.push(ClobberViolation {
                                addr,
                                point,
                                call_index: list.len(),
                                missing,
                                live: refined,
                            });
                        }
                    }
                }
                list.push(InsertedCall {
                    call,
                    saves,
                    elided,
                });
            }
            // Calls aimed at addresses outside the trace are dropped,
            // mirroring Pin: instrumentation only applies to the trace
            // being compiled.
        }

        let mut calls = Vec::with_capacity(lists.iter().flatten().map(Vec::len).sum());
        let at = |calls: &Vec<InsertedCall<T>>| u32::try_from(calls.len()).expect("calls fit u32");
        for (slot, [before, after]) in insts.iter_mut().zip(lists) {
            let start = at(&calls);
            calls.extend(before);
            let split = at(&calls);
            calls.extend(after);
            slot.calls = [start, split, at(&calls)];
        }

        let count = insts.len();
        let id = self.adopt(Arc::new(CompiledTrace {
            entry: trace.entry(),
            insts,
            calls,
            fallthrough: trace.fallthrough(),
            num_bbls: trace.bbls().len(),
        }));
        (id, count)
    }

    /// Inserts a compiled trace — fresh out of
    /// [`compile`](CodeCache::compile), or a peer engine's (host-side
    /// template sharing, which skips the instrument+build work) — with
    /// all of the cache bookkeeping: capacity flush, residency, compile
    /// statistics. Every simulated observable is therefore identical
    /// whichever engine built the trace. Returns its slab id.
    ///
    /// The caller must have verified that compiling locally would have
    /// produced this exact trace (same instructions, pure shareable
    /// instrumentation, no clobber bug armed).
    pub fn adopt(&mut self, trace: Arc<CompiledTrace<T>>) -> u32 {
        let count = trace.insts.len();
        // Recompiling an entry replaces the old trace in its slot (so
        // links to the entry stay true); release its accounting first.
        let mut slot = self.index.get(&trace.entry).copied();
        if let Some(id) = slot {
            self.resident_insts -= self.slab[id as usize].trace.insts.len();
        }
        if self.resident_insts + count > self.capacity_insts {
            self.clear();
            self.stats.flushes += 1;
            slot = None;
        }
        self.resident_insts += count;
        self.stats.traces_compiled += 1;
        self.stats.insts_compiled += count as u64;
        let entry = trace.entry;
        let resident = Resident {
            trace,
            links: [None; 2],
        };
        match slot {
            Some(id) => {
                self.slab[id as usize] = resident;
                id
            }
            None => {
                let id = u32::try_from(self.slab.len()).expect("capacity bounds the slab");
                self.slab.push(resident);
                self.index.insert(entry, id);
                id
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inserter::IPoint;
    use crate::trace::{discover_trace, discover_trace_split};
    use superpin_isa::asm::assemble;
    use superpin_vm::process::Process;

    fn trace_for(src: &str) -> Trace {
        let program = assemble(src).expect("assemble");
        let process = Process::load(1, &program).expect("load");
        discover_trace(&process.mem, program.entry()).expect("trace")
    }

    fn compile_bare(cache: &mut CodeCache<u64>, trace: &Trace) -> u32 {
        cache
            .compile(trace, Inserter::new(), &CostModel::default())
            .0
    }

    #[test]
    fn compile_attaches_calls_to_addresses() {
        let trace = trace_for("main:\n nop\n nop\n jmp main\n");
        let mut inserter: Inserter<u64> = Inserter::new();
        let second = trace.entry() + 8;
        inserter.insert_call(second, IPoint::Before, |t, _, _| *t += 1, vec![]);
        inserter.insert_call(second, IPoint::After, |t, _, _| *t += 1, vec![]);
        // Out-of-trace address: dropped.
        inserter.insert_call(0xdead, IPoint::Before, |t, _, _| *t += 1, vec![]);

        let mut cache: CodeCache<u64> = CodeCache::new();
        let (id, count) = cache.compile(&trace, inserter, &CostModel::default());
        let compiled = cache.trace(id);
        assert_eq!(count, 3);
        assert_eq!(compiled.before(1).len(), 1);
        assert_eq!(compiled.after(1).len(), 1);
        assert_eq!(compiled.before(0).len(), 0);
    }

    #[test]
    fn lowering_folds_what_the_instruction_fixes() {
        let src = ".data\nbuf: .word 0\n.text\nmain:\n la r2, buf\n stw r3, 4(r2)\n jmp main\n";
        let trace = trace_for(src);
        let store = trace.insts().nth(1).expect("store").addr;
        let mut inserter: Inserter<u64> = Inserter::new();
        let every = vec![
            IArg::InstPtr,
            IArg::UInt(9),
            IArg::MemSize,
            IArg::IsMemWrite,
            IArg::BranchTaken,
            IArg::FallthroughAddr,
        ];
        inserter.insert_call(store, IPoint::Before, |_, _, _| {}, every.clone());
        inserter.insert_call(store, IPoint::After, |_, _, _| {}, every);
        let mem_addr = vec![IArg::MemAddr];
        inserter.insert_call(
            trace.entry(),
            IPoint::Before,
            |_, _, _| {},
            mem_addr.clone(),
        );
        inserter.insert_call(store, IPoint::Before, |_, _, _| {}, mem_addr);

        let cost = CostModel::default();
        let mut cache: CodeCache<u64> = CodeCache::new();
        let (id, _) = cache.compile(&trace, inserter, &cost);
        let compiled = cache.trace(id);
        let plan = |call: &InsertedCall<u64>| match &call.call {
            LoweredCall::Plain { args, cost, .. } => (args.clone(), *cost),
            _ => unreachable!("only plain calls inserted"),
        };
        let slot = &compiled.insts[1];
        let folded = vec![store, 9, 4, 1, 0, store + 8];
        let (before, charge) = plan(&compiled.before(1)[0]);
        assert_eq!(before, ArgPlan::Static(folded.into()));
        assert_eq!(charge, cost.analysis_call + 6 * cost.analysis_arg);
        // Only an after-call can see a taken transfer.
        let (after, _) = plan(&compiled.after(1)[0]);
        let ArgPlan::Dynamic(after) = after else {
            panic!("BranchTaken after the instruction is dynamic")
        };
        assert_eq!(after[4], LoweredArg::BranchTaken);
        assert_eq!(after[5], LoweredArg::Value(store + 8));
        // MemAddr is an address only on a memory instruction.
        assert_eq!(plan(&compiled.before(0)[0]).0, ArgPlan::Static([0].into()));
        assert!(!compiled.insts[0].needs_mem_ea);
        assert_eq!(
            plan(&compiled.before(1)[1]).0,
            ArgPlan::Dynamic([LoweredArg::MemAddr].into())
        );
        assert!(slot.needs_mem_ea);
    }

    #[test]
    fn a_count_is_planned_and_charged_like_a_plain_call_without_arguments() {
        let src = "main:\n li r1, 3\nloop:\n subi r1, r1, 1\n bne r1, r0, loop\n exit 0\n";
        let program = assemble(src).expect("assemble");
        let process = Process::load(1, &program).expect("load");
        let trace = discover_trace(&process.mem, program.entry()).expect("trace");
        let live = superpin_analysis::LiveMap::compute(&program).expect("liveness");
        let live = Arc::new(live);
        let cost = CostModel::default();
        for liveness in [None, Some(live)] {
            let mut inserter: Inserter<u64> = Inserter::new();
            for iref in trace.insts() {
                for point in [IPoint::Before, IPoint::After] {
                    inserter.insert_count(iref.addr, point, 3, |t| t);
                    inserter.insert_call(iref.addr, point, |t, _, _| *t += 3, vec![]);
                }
            }
            let mut cache: CodeCache<u64> = CodeCache::new();
            if let Some(liveness) = &liveness {
                cache.set_liveness(Arc::clone(liveness));
                cache.set_refined_liveness(Arc::clone(liveness));
            }
            let (id, _) = cache.compile(&trace, inserter, &cost);
            let compiled = cache.trace(id);
            for index in 0..compiled.insts.len() {
                for list in [compiled.before(index), compiled.after(index)] {
                    let [count, plain] = list else {
                        panic!("one count and one plain call per point")
                    };
                    let LoweredCall::Count { n: 3, cost, .. } = count.call else {
                        panic!("the count comes first")
                    };
                    let LoweredCall::Plain {
                        cost: plain_cost, ..
                    } = plain.call
                    else {
                        panic!("then the plain call")
                    };
                    assert_eq!(cost, plain_cost);
                    assert_eq!((count.saves, count.elided), (plain.saves, plain.elided));
                }
            }
            assert!(!compiled.insts.iter().any(|slot| slot.needs_mem_ea));
        }
    }

    #[test]
    fn lookup_hits_after_compile() {
        let trace = trace_for("main:\n jmp main\n");
        let mut cache: CodeCache<u64> = CodeCache::new();
        assert!(cache.lookup(None, trace.entry()).is_none());
        let id = compile_bare(&mut cache, &trace);
        assert_eq!(cache.lookup(None, trace.entry()), Some(id));
        let stats = cache.stats();
        assert_eq!(stats.lookups, 2);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.traces_compiled, 1);
    }

    /// `main` (4 insts), `second` (2 insts) and the 3-inst tail of `main`.
    fn three_traces() -> (Process, [Trace; 3]) {
        let src = "main:\n nop\n nop\n nop\n jmp second\nsecond:\n nop\n jmp main\n";
        let program = assemble(src).expect("assemble");
        let process = Process::load(1, &program).expect("load");
        let at = |offset| discover_trace(&process.mem, program.entry() + offset).expect("trace");
        let traces = [at(0), at(32), at(8)];
        (process, traces)
    }

    #[test]
    fn capacity_pressure_flushes_wholesale() {
        let (_process, [t1, t2, t3]) = three_traces();
        let mut cache: CodeCache<u64> = CodeCache::with_capacity(6);
        compile_bare(&mut cache, &t1); // 4 resident
        compile_bare(&mut cache, &t2); // 6 resident
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().flushes, 0);
        // Recompiling t1 releases its 4 first (6-4+4 = 6 fits, no flush)...
        compile_bare(&mut cache, &t1);
        assert_eq!(cache.stats().flushes, 0);
        assert_eq!(cache.len(), 2);
        // ...but a brand-new 3-inst trace exceeds capacity → flush.
        assert_eq!(t3.num_insts(), 3);
        compile_bare(&mut cache, &t3);
        assert_eq!(cache.stats().flushes, 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn links_answer_like_the_index_and_count_like_it() {
        let (_process, [t1, t2, t3]) = three_traces();
        let mut cache: CodeCache<u64> = CodeCache::new();
        let (a, b, c) = (
            compile_bare(&mut cache, &t1),
            compile_bare(&mut cache, &t2),
            compile_bare(&mut cache, &t3),
        );
        let before = cache.stats();
        // First transfer a→b resolves through the index and links; the
        // second is answered by the link. Both are one lookup, one hit.
        assert_eq!(cache.lookup(Some(a), t2.entry()), Some(b));
        assert_eq!(cache.lookup(Some(a), t2.entry()), Some(b));
        // Two successors are remembered, a third displaces the older.
        assert_eq!(cache.lookup(Some(a), t3.entry()), Some(c));
        assert_eq!(cache.lookup(Some(a), t1.entry()), Some(a));
        assert_eq!(
            cache.slab[a as usize].links,
            [Some((t1.entry(), a)), Some((t3.entry(), c))]
        );
        assert_eq!(cache.lookup(Some(a), t2.entry()), Some(b));
        // A miss from a linked trace is still a miss, and links nothing.
        assert_eq!(cache.lookup(Some(a), 0xdead), None);
        let after = cache.stats();
        assert_eq!(after.lookups - before.lookups, 6);
        assert_eq!(after.hits - before.hits, 5);
    }

    #[test]
    fn recompiling_an_entry_keeps_links_to_it_true() {
        let (process, [t1, t2, _]) = three_traces();
        let mut cache: CodeCache<u64> = CodeCache::new();
        let a = compile_bare(&mut cache, &t1);
        let b = compile_bare(&mut cache, &t2);
        assert_eq!(cache.lookup(Some(b), t1.entry()), Some(a));
        assert_eq!(cache.lookup(Some(a), t2.entry()), Some(b));
        // Same entry, different shape: split before the third nop.
        let split = discover_trace_split(&process.mem, t1.entry(), Some(t1.entry() + 16))
            .expect("split trace");
        assert_eq!(split.num_insts(), 2);
        let again = compile_bare(&mut cache, &split);
        // The link b→main now reaches the new trace, which starts with no
        // links of its own.
        let linked = cache.lookup(Some(b), t1.entry()).expect("linked hit");
        assert_eq!(linked, again);
        assert_eq!(cache.trace(linked).insts.len(), 2);
        assert_eq!(cache.slab[again as usize].links, [None, None]);
        assert_eq!(cache.resident_insts(), 2 + 2);
    }

    #[test]
    fn every_flush_drops_links_and_tolerates_stale_ids() {
        let (_process, [t1, t2, _]) = three_traces();
        type Flush = fn(&mut CodeCache<u64>);
        let flushes: [Flush; 2] = [
            |cache| cache.flush_for_smc(),
            |cache| {
                cache.evict_for_pressure();
            },
        ];
        for flush in flushes {
            let mut cache: CodeCache<u64> = CodeCache::new();
            let a = compile_bare(&mut cache, &t1);
            let b = compile_bare(&mut cache, &t2);
            assert_eq!(cache.lookup(Some(a), t2.entry()), Some(b));
            flush(&mut cache);
            // `a` and `b` are stale now: nothing is resident, so a lookup
            // from either must miss rather than follow the old link.
            assert_eq!(cache.lookup(Some(a), t2.entry()), None);
            assert_eq!(cache.lookup(Some(b), t1.entry()), None);
            // Recompiled in the other order the ids swap; a stale `from`
            // then names the wrong trace, and still every answer is the
            // index's.
            let b2 = compile_bare(&mut cache, &t2);
            let a2 = compile_bare(&mut cache, &t1);
            assert_eq!((b2, a2), (a, b));
            assert_eq!(cache.lookup(Some(a), t2.entry()), Some(b2));
            assert_eq!(cache.lookup(Some(a), t1.entry()), Some(a2));
            assert_eq!(cache.trace(a2).entry, t1.entry());
        }
        // A capacity flush inside `compile` does the same.
        let mut cache: CodeCache<u64> = CodeCache::with_capacity(5);
        let a = compile_bare(&mut cache, &t1);
        let b = compile_bare(&mut cache, &t2);
        assert_eq!((cache.stats().flushes, cache.len()), (1, 1));
        assert_eq!(b, 0, "the slab restarted");
        assert_eq!(cache.lookup(Some(a), t1.entry()), None);
    }

    #[test]
    fn fallthrough_and_bbl_metadata() {
        let trace = trace_for("main:\n beq r1, r2, main\n nop\n jmp main\n");
        let mut cache: CodeCache<u64> = CodeCache::new();
        let id = compile_bare(&mut cache, &trace);
        let compiled = cache.trace(id);
        assert_eq!(compiled.num_bbls, 2);
        assert_eq!(compiled.fallthrough, trace.fallthrough());
    }
}
