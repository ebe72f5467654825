//! The code cache: compiled, instrumented traces keyed by entry address.

use crate::cost::CostModel;
use crate::inserter::{
    AnalysisFn, Call, CounterFn, CounterId, Counters, Guarded, IArg, IPoint, Inserter, PredicateFn,
};
use crate::spill::{analysis_clobbers, required_saves, ClobberViolation};
use crate::trace::{InstRef, Trace};
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
pub(crate) struct EntryHasher(u64);

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

/// A map keyed by guest pc: the code cache's index, the trace registry
/// and an engine's fresh compiles all hash with [`EntryHasher`].
pub(crate) type EntryMap<V> = HashMap<u64, V, BuildHasherDefault<EntryHasher>>;

/// Default cache capacity in cached instructions. Workloads whose hot
/// footprint exceeds this (the paper repeatedly calls out gcc's "large
/// code footprint") take wholesale flushes and recompile, raising their
/// compilation overhead exactly as in the paper.
pub const DEFAULT_CAPACITY_INSTS: usize = 65_536;

/// Traces a new cache has room for before its index and slab grow. A
/// `churn_t1` slice fills its cold cache with about thirty, so one
/// allocation each covers it.
const INITIAL_TRACES: usize = 32;

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
    fn lower(args: &[IArg], iref: &InstRef, point: IPoint) -> ArgPlan {
        let is_mem = iref.inst.is_mem_read() || iref.inst.is_mem_write();
        let lowered: Vec<LoweredArg> = args
            .iter()
            .map(|arg| match *arg {
                IArg::InstPtr => LoweredArg::Value(iref.addr),
                IArg::UInt(value) => LoweredArg::Value(value),
                IArg::MemAddr if is_mem => LoweredArg::MemAddr,
                // Non-memory instructions have no operand: address 0.
                IArg::MemAddr => LoweredArg::Value(0),
                IArg::MemSize => LoweredArg::Value(match iref.inst {
                    Inst::Ld { width, .. } | Inst::St { width, .. } => width.bytes() as u64,
                    _ => 0,
                }),
                IArg::IsMemWrite => LoweredArg::Value(u64::from(iref.inst.is_mem_write())),
                // Nothing has been taken yet when a before-call runs.
                IArg::BranchTaken if point == IPoint::Before => LoweredArg::Value(0),
                IArg::BranchTaken => LoweredArg::BranchTaken,
                IArg::RegValue(reg) => LoweredArg::Reg(reg),
                IArg::StackWord(i) => LoweredArg::StackWord(i),
                IArg::FallthroughAddr => LoweredArg::Value(iref.addr + iref.size),
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
    /// A run of inlined counter increments
    /// ([`Inserter::insert_count`]) to one counter, folded at compile
    /// time into one write through `counter`. It sits where the run
    /// closes: right before a plain or if/then call, or where a count
    /// names a different counter.
    Count {
        /// The counter accessor.
        counter: CounterFn<T>,
        /// What the folded counts add, summed.
        n: u64,
        /// Their charges, summed. Each is `analysis_call`: the charge of
        /// a plain call with no arguments, so inlining moves no simulated
        /// cycle.
        cost: u64,
        /// How many counts were folded; each is one
        /// [`analysis_calls`](crate::EngineStats::analysis_calls).
        calls: u32,
    },
    /// Unconditional analysis call.
    Plain {
        /// The analysis routine.
        func: AnalysisFn<T>,
        /// `analysis_call + |args| · analysis_arg`: the charge before
        /// tool-requested extra cycles.
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

impl<T> LoweredCall<T> {
    /// Whether any argument of the call is [`LoweredArg::MemAddr`].
    fn reads_mem_addr(&self) -> bool {
        match self {
            LoweredCall::Count { .. } => false,
            LoweredCall::Plain { args, .. } => args.reads_mem_addr(),
            LoweredCall::IfThen {
                pred_args,
                then_args,
                ..
            } => pred_args.reads_mem_addr() || then_args.reads_mem_addr(),
        }
    }
}

/// One analysis call as compiled into the cache: the tool's routine,
/// lowered, plus the saved registers a superblock plan proves dead
/// there. Every call saves and restores the whole clobber set
/// ([`analysis_clobbers`]), inside the flat
/// [`analysis_call`](CostModel::analysis_call) charge.
pub struct InsertedCall<T> {
    /// The analysis call.
    pub call: LoweredCall<T>,
    /// Clobbered registers proven dead by the *refined* interprocedural
    /// liveness of a superblock plan
    /// ([`CodeCache::set_refined_liveness`]): registers whose restore a
    /// code generator could skip. A statically verified annotation, not
    /// a runtime saving: `elided ⊆ analysis_clobbers()` by construction,
    /// the debug clobber verifier checks that the saves left after it
    /// still cover every register the refined map keeps live, and the
    /// executor never reads it, because analysis routines never touch
    /// guest registers. Charged cycles are identical with a plan on or
    /// off. A folded count carries the intersection of its members'
    /// sets, so what it still restores covers what every member needs.
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
            .field("elided", &self.elided)
            .finish()
    }
}

/// What the executor reads on every execution of one trace slot: the
/// decoded instruction, its encoded size, and whether the slot is
/// *quiet* — it has no calls, so nothing needs its effective address
/// and the executor runs it without touching its [`CompiledInst`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HotSlot {
    /// The decoded instruction.
    pub inst: Inst,
    /// Encoded size in bytes (8, or 16 for `li`).
    pub size: u8,
    /// No before- or after-calls and no effective address to derive.
    pub quiet: bool,
}

/// The cold half of one instruction of a compiled trace: what the
/// executor reads only at a slot with calls, at a taken exit and when a
/// trace exits. The instruction itself is in the slot's [`HotSlot`].
/// Its analysis calls live in the trace's one call array
/// ([`CompiledTrace::before`], [`CompiledTrace::after`]).
#[derive(Debug)]
pub struct CompiledInst {
    /// Guest address.
    pub addr: u64,
    /// Whether any attached call reads [`LoweredArg::MemAddr`] —
    /// precomputed so the executor only derives the effective address
    /// for slots that can observe it.
    pub needs_mem_ea: bool,
    /// `[start, split, end]` in the trace's call array: the before-calls
    /// are `start..split`, the after-calls `split..end`.
    pub(crate) calls: [u32; 3],
    /// The run of counts still open at the end of the before-calls and
    /// at the end of the after-calls: what a trace exit at that point
    /// adds to the engine's pending run.
    pub(crate) open: [OpenRun; 2],
}

/// Counts a trace executed since its last non-count call or counter
/// switch and not yet written to their counter. Between two such
/// points and a trace exit the counts a trace executes are fixed at
/// compile time, so each point of a trace has one. Empty when `calls`
/// is 0.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct OpenRun {
    /// Index into [`CompiledTrace::counters`].
    pub(crate) counter: u32,
    /// How many counts the run holds.
    pub(crate) calls: u32,
    /// What they add, summed.
    pub(crate) n: u64,
    /// Their charges, summed.
    pub(crate) cost: u64,
}

/// The run [`CodeCache::compile`] has open while it lays a trace out.
/// Empty while `run.calls` is 0.
struct Fold {
    /// The inserter's index of the run's accessor.
    counter: u32,
    run: OpenRun,
    elided: RegSet,
}

impl Fold {
    const EMPTY: Fold = Fold {
        counter: 0,
        run: OpenRun {
            counter: 0,
            calls: 0,
            n: 0,
            cost: 0,
        },
        elided: RegSet::EMPTY,
    };
}

/// A trace's call array as [`CodeCache::compile`] lays it out, in
/// execution order, folding counts: a run closes right before any other
/// routine (it may read a counter) and where a count names another
/// counter; otherwise it stays open across lists and slots.
struct Layout<'a, T> {
    /// The inserter's counter accessors, by the index counts name.
    accessors: Counters<'a, T>,
    calls: Vec<InsertedCall<T>>,
    /// The trace's counters.
    counters: Vec<(CounterId, CounterFn<T>)>,
    open: Fold,
}

impl<T> Layout<'_, T> {
    /// Where the next call lands in the array.
    fn at(&self) -> u32 {
        u32::try_from(self.calls.len()).expect("calls fit u32")
    }

    /// The run open right now: what a trace exit here settles.
    fn open_run(&self) -> OpenRun {
        self.open.run
    }

    /// Writes the open run, if any, as the one op that adds it to its
    /// counter.
    fn close(&mut self) {
        if self.open.run.calls != 0 {
            let fold = std::mem::replace(&mut self.open, Fold::EMPTY);
            self.calls.push(InsertedCall {
                call: LoweredCall::Count {
                    counter: Arc::clone(&self.accessors.get(fold.counter).1),
                    n: fold.run.n,
                    cost: fold.run.cost,
                    calls: fold.run.calls,
                },
                elided: fold.elided,
            });
        }
    }

    /// Lays out the next routine of the trace, a flush point.
    fn call(&mut self, inserted: InsertedCall<T>) {
        self.close();
        self.calls.push(inserted);
    }

    /// Lays out the next count of the trace: `n` added to the counter of
    /// the inserter's accessor `counter`, charged `cost`, with `elided`
    /// planned as for a call.
    fn count(&mut self, counter: u32, n: u64, cost: u64, elided: RegSet) {
        let fold = &mut self.open;
        if fold.run.calls != 0 && fold.counter == counter {
            fold.run.calls += 1;
            fold.run.n += n;
            fold.run.cost += cost;
            fold.elided = fold.elided.intersect(elided);
            return;
        }
        self.close();
        let (id, accessor) = self.accessors.get(counter);
        let index = match self.counters.iter().position(|(known, _)| known == id) {
            Some(index) => index,
            None => {
                self.counters.push((*id, Arc::clone(accessor)));
                self.counters.len() - 1
            }
        };
        self.open = Fold {
            counter,
            run: OpenRun {
                counter: u32::try_from(index).expect("counters fit u32"),
                calls: 1,
                n,
                cost,
            },
            elided,
        };
    }
}

/// A compiled trace ready for execution: the trace's instructions, each
/// with its calls already lowered ([`LoweredCall`]). Immutable once built,
/// so engines share it behind an `Arc` (checkpoint clones, templates).
///
/// Each slot is split in two parallel arrays. `hot` holds what every
/// execution reads — the instruction, its size and the `quiet` flag —
/// in 24 bytes a slot; `insts` holds the rest (address, call ranges,
/// open count runs), 72 bytes a slot. The instruction and its size
/// are stored only in `hot`. A quiet slot is executed from `hot` alone;
/// the executor reads `insts` at a slot with calls, at a taken exit (the
/// next slot's address, the `jalr` oracle check), when settling the
/// open count run where the trace exits, and, in debug builds, for the
/// desync check on every slot.
///
/// All of a trace's calls sit in one array in execution order, so the
/// executor walks memory forward instead of chasing one allocation per
/// instruction.
pub struct CompiledTrace<T> {
    /// Entry address (cache key).
    pub entry: u64,
    /// Every slot's instruction, size and quiet flag, in trace order.
    pub hot: Vec<HotSlot>,
    /// Every slot's cold half, parallel to `hot`.
    pub insts: Vec<CompiledInst>,
    /// Every slot's calls, slot by slot, before-calls first.
    pub(crate) calls: Vec<InsertedCall<T>>,
    /// The distinct counters the trace's counts write, named by
    /// [`OpenRun::counter`], each with its id: the address of the tool's
    /// counter `fn`, equal in every engine (a template adopted from a
    /// peer carries the peer's accessor). The
    /// engine keys its pending run on the id, so exits of its own traces
    /// and of adopted ones add to one run.
    pub(crate) counters: Vec<(CounterId, CounterFn<T>)>,
    /// Continuation address if the last instruction falls through.
    pub fallthrough: u64,
    /// Number of basic blocks the source trace had.
    pub num_bbls: usize,
    /// The [`code_version`](superpin_vm::mem::AddressSpace::code_version)
    /// the source trace was discovered at, when it lies wholly in code
    /// regions; `None` otherwise. An engine whose process is at the same
    /// version would discover the same instructions at
    /// [`entry`](CompiledTrace::entry).
    pub code: Option<u64>,
}

impl<T> CompiledTrace<T> {
    /// The trace's instructions in order, as discovery produced them.
    #[cfg(test)]
    pub(crate) fn inst_refs(&self) -> impl Iterator<Item = InstRef> + Clone + '_ {
        self.insts.iter().zip(&self.hot).map(|(slot, hot)| InstRef {
            addr: slot.addr,
            inst: hot.inst,
            size: u64::from(hot.size),
        })
    }

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
    /// Interprocedurally refined liveness from a superblock plan.
    /// Registers in a call's save set that this map proves dead are
    /// annotated [`InsertedCall::elided`] without changing the charged
    /// cost.
    refined: Option<Arc<LiveMap>>,
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
            index: EntryMap::with_capacity_and_hasher(INITIAL_TRACES, Default::default()),
            slab: Vec::with_capacity(INITIAL_TRACES),
            resident_insts: 0,
            capacity_insts: capacity_insts.max(1),
            stats: CacheStats::default(),
            refined: None,
            clobber_bug: None,
            violations: Vec::new(),
        }
    }

    /// Installs the superblock plan's interprocedurally refined
    /// liveness. Clobbered registers every call saves but that the
    /// refined map proves dead are marked [`InsertedCall::elided`],
    /// while the charged cost still covers the full save set. Install
    /// while the cache is cold (or after a flush): already-compiled
    /// traces keep their annotations.
    pub fn set_refined_liveness(&mut self, refined: Arc<LiveMap>) {
        self.refined = Some(refined);
    }

    /// See [`Engine::inject_clobber_bug`](crate::Engine::inject_clobber_bug).
    pub(crate) fn inject_clobber_bug(&mut self, reg: Reg) {
        self.clobber_bug = Some(reg);
    }

    /// Clobber-safety violations found while compiling. Verification
    /// runs in debug/test builds (`debug_assertions`); release builds
    /// always report an empty list.
    pub fn clobber_violations(&self) -> &[ClobberViolation] {
        &self.violations
    }

    /// Whether a deliberate clobber bug is armed
    /// ([`Engine::inject_clobber_bug`](crate::Engine::inject_clobber_bug)). A bugged
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
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.index.len()
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
    /// instrumentation and inserts it, draining `inserter` for the next
    /// trace. Returns the new trace's slab id and the number of
    /// instructions compiled (for JIT cost accounting). `code` is
    /// recorded as [`CompiledTrace::code`]: pass the code version the
    /// trace was discovered at only when it vouches for every
    /// instruction of the trace.
    ///
    /// Every call is lowered against `cost` here ([`LoweredCall`]), so
    /// the executor adds pre-summed charges and, for all-static argument
    /// lists, passes a pre-built vector. A count is planned and charged
    /// exactly like a plain call with no arguments, then folded: each run
    /// of counts to one counter becomes one [`LoweredCall::Count`] where
    /// the run closes inside a list, and the run still open at the end of
    /// each list is recorded for the executor to add, at a trace exit
    /// there, to the engine's pending run, which reaches the counter at
    /// the engine's next flush point
    /// ([`Inserter::insert_count`]). An `icount1` trace compiles to an
    /// empty call array.
    ///
    /// The layout is one pass over the slots. The calls are put in
    /// `(address, point)` order first — a stable sort, so each slot's
    /// before- and after-list keep the order the tool inserted them in,
    /// whatever order it visited the slots in; tools that insert slot by
    /// slot skip the sort — and then each slot takes its calls off the
    /// front, straight into the pre-sized arrays.
    ///
    /// If inserting would exceed capacity, the whole cache is flushed
    /// first (Pin's wholesale-flush policy).
    pub fn compile(
        &mut self,
        trace: &Trace,
        code: Option<u64>,
        inserter: &mut Inserter<T>,
        cost: &CostModel,
    ) -> (u32, usize)
    where
        T: 'static,
    {
        // Trace discovery only moves forward, so slots are sorted by
        // address, and calls in address order meet their slots in turn.
        debug_assert!(trace
            .insts()
            .zip(trace.insts().skip(1))
            .all(|(a, b)| a.addr < b.addr));
        let (pending, accessors) = inserter.parts();
        let order = |(addr, point, _): &(u64, IPoint, Call<T>)| (*addr, *point == IPoint::After);
        if !pending.is_sorted_by_key(order) {
            pending.sort_by_key(order);
        }
        // Counts to one counter with nothing between them fold away
        // entirely (icount1); otherwise every call may need an entry.
        let mut first = None;
        let folds_away = pending.iter().all(|(_, _, call)| match call {
            Call::Count { counter, .. } => first.get_or_insert(*counter) == counter,
            _ => false,
        });
        let len = trace.num_insts();
        let mut hot = Vec::with_capacity(len);
        let mut insts = Vec::with_capacity(len);
        let mut layout = Layout {
            accessors,
            calls: Vec::with_capacity(if folds_away { 0 } else { pending.len() }),
            counters: Vec::new(),
            open: Fold::EMPTY,
        };
        let mut pending = pending.drain(..);
        for iref in trace.insts() {
            // The slot's runs of calls, read off the keys still pending.
            // Calls before them aim at addresses outside the trace and
            // are dropped, mirroring Pin: instrumentation only applies to
            // the trace being compiled.
            let rest = pending.as_slice();
            let [dropped, split, end] = [
                (iref.addr, false),
                (iref.addr, true),
                (iref.addr + 1, false),
            ]
            .map(|key| rest.iter().take_while(|call| order(call) < key).count());
            let runs = [split - dropped, end - split];
            if dropped > 0 {
                pending.nth(dropped - 1);
            }
            let mut slot = CompiledInst {
                addr: iref.addr,
                needs_mem_ea: false,
                calls: [0; 3],
                open: [OpenRun::default(); 2],
            };
            for (list, point) in [IPoint::Before, IPoint::After].into_iter().enumerate() {
                slot.calls[list] = layout.at();
                for (call_index, (_, _, call)) in pending.by_ref().take(runs[list]).enumerate() {
                    let elided = self.plan_saves(iref.addr, point, call_index);
                    let call = match call {
                        Call::Count { counter, n } => {
                            layout.count(counter, n, cost.analysis_call, elided);
                            continue;
                        }
                        Call::Plain { func, args } => LoweredCall::Plain {
                            func,
                            cost: cost.call(args.len()),
                            args: ArgPlan::lower(&args, iref, point),
                        },
                        Call::IfThen(guarded) => {
                            let Guarded {
                                pred,
                                pred_args,
                                then,
                                then_args,
                            } = *guarded;
                            LoweredCall::IfThen {
                                pred,
                                pred_cost: cost.if_check(pred_args.len()),
                                pred_args: ArgPlan::lower(&pred_args, iref, point),
                                then,
                                then_cost: cost.call(then_args.len()),
                                then_args: ArgPlan::lower(&then_args, iref, point),
                            }
                        }
                    };
                    slot.needs_mem_ea |= call.reads_mem_addr();
                    layout.call(InsertedCall { call, elided });
                }
                slot.open[list] = layout.open_run();
            }
            slot.calls[2] = layout.at();
            hot.push(HotSlot {
                inst: iref.inst,
                size: u8::try_from(iref.size).expect("an instruction is 8 or 16 bytes"),
                quiet: slot.calls[0] == slot.calls[2] && !slot.needs_mem_ea,
            });
            insts.push(slot);
        }
        drop(pending);
        let id = self.adopt(Arc::new(CompiledTrace {
            entry: trace.entry(),
            hot,
            insts,
            calls: layout.calls,
            counters: layout.counters,
            fallthrough: trace.fallthrough(),
            num_bbls: trace.bbls().len(),
            code,
        }));
        (id, len)
    }

    /// Plans the register saves of the `call_index`-th call of the
    /// `point` list at `addr` — the clobber set, less an injected bug —
    /// and returns those the refined liveness proves dead (`elided`).
    /// Debug builds check the plan here (the clobber-safety verifier).
    fn plan_saves(&mut self, addr: u64, point: IPoint, call_index: usize) -> RegSet {
        let mut saves = analysis_clobbers();
        if let Some(bug) = self.clobber_bug {
            saves.remove(bug);
        }
        let refined_live = self.refined.as_ref().map(|map| match point {
            IPoint::Before => map.live_before(addr),
            IPoint::After => map.live_after(addr),
        });
        let elided = match refined_live {
            None => RegSet::EMPTY,
            Some(refined) => saves.minus(required_saves(refined)),
        };
        if cfg!(debug_assertions) {
            // Clobber-safety verifier: every planned save set must hold
            // the whole clobber set.
            let missing = analysis_clobbers().minus(saves);
            if !missing.is_empty() {
                self.violations.push(ClobberViolation {
                    addr,
                    point,
                    call_index,
                    missing,
                    live: RegSet::ALL,
                });
            }
            // With elision, what is actually restored is `saves −
            // elided`; it must still cover the refined requirement.
            if let Some(refined) = refined_live {
                let missing = required_saves(refined).minus(saves.minus(elided));
                if !missing.is_empty() {
                    self.violations.push(ClobberViolation {
                        addr,
                        point,
                        call_index,
                        missing,
                        live: refined,
                    });
                }
            }
        }
        elided
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
    use crate::trace::{discover_trace, fetch_decoded, TraceSlot};
    use superpin_isa::asm::assemble;
    use superpin_vm::process::Process;

    fn trace_for(src: &str) -> Trace {
        let program = assemble(src).expect("assemble");
        let process = Process::load(1, &program).expect("load");
        discover_trace(&process.mem, program.entry()).expect("trace")
    }

    fn compile_bare(cache: &mut CodeCache<u64>, trace: &Trace) -> u32 {
        cache
            .compile(trace, None, &mut Inserter::new(), &CostModel::default())
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
        let (id, count) = cache.compile(&trace, None, &mut inserter, &CostModel::default());
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
        let (id, _) = cache.compile(&trace, None, &mut inserter, &cost);
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
        // A plan only annotates and an injected save-set bug is only the
        // verifier's to see: neither moves a charge off the flat
        // `analysis_call`.
        for plan in [None, Some(&live)] {
            for bug in [None, Some(Reg::R0)] {
                let mut inserter: Inserter<u64> = Inserter::new();
                for iref in trace.insts() {
                    for point in [IPoint::Before, IPoint::After] {
                        inserter.insert_count(iref.addr, point, 3, |t| t);
                        inserter.insert_call(iref.addr, point, |t, _, _| *t += 3, vec![]);
                    }
                }
                let mut cache: CodeCache<u64> = CodeCache::new();
                if let Some(plan) = plan {
                    cache.set_refined_liveness(Arc::clone(plan));
                }
                if let Some(bug) = bug {
                    cache.inject_clobber_bug(bug);
                }
                let (id, _) = cache.compile(&trace, None, &mut inserter, &cost);
                let compiled = cache.trace(id);
                for index in 0..compiled.insts.len() {
                    for list in [compiled.before(index), compiled.after(index)] {
                        let [count, plain] = list else {
                            panic!("one count and one plain call per point")
                        };
                        let LoweredCall::Count {
                            n: 3,
                            cost: count_cost,
                            ..
                        } = count.call
                        else {
                            panic!("the count comes first")
                        };
                        let LoweredCall::Plain {
                            cost: plain_cost, ..
                        } = plain.call
                        else {
                            panic!("then the plain call")
                        };
                        let case = format!("plan {} bug {bug:?}", plan.is_some());
                        assert_eq!(count_cost, cost.analysis_call, "{case}");
                        assert_eq!(plain_cost, cost.analysis_call, "{case}");
                        assert_eq!(count.elided, plain.elided);
                    }
                }
                assert!(!compiled.insts.iter().any(|slot| slot.needs_mem_ea));
            }
        }
    }

    #[test]
    fn counts_fold_into_one_op_per_flush_point() {
        type Two = (u64, u64);
        let a: fn(&mut Two) -> &mut u64 = |t| &mut t.0;
        let b: fn(&mut Two) -> &mut u64 = |t| &mut t.1;
        let trace = trace_for("main:\n nop\n nop\n nop\n jmp main\n");
        let addrs: Vec<u64> = trace.insts().map(|iref| iref.addr).collect();
        let cost = CostModel::default();
        let compile = |mut inserter: Inserter<Two>| {
            let mut cache: CodeCache<Two> = CodeCache::new();
            let (id, _) = cache.compile(&trace, None, &mut inserter, &cost);
            Arc::clone(cache.trace(id))
        };
        let run = |counter, calls: u32, n| OpenRun {
            counter,
            calls,
            n,
            cost: u64::from(calls) * cost.analysis_call,
        };
        // `(counter index, n, calls)` of a folded op.
        let folded = |compiled: &CompiledTrace<Two>, call: &InsertedCall<Two>| {
            let LoweredCall::Count {
                counter, n, calls, ..
            } = &call.call
            else {
                panic!("not a count")
            };
            let index = compiled
                .counters
                .iter()
                .position(|(_, c)| Arc::ptr_eq(c, counter));
            (index.expect("a known counter"), *n, *calls)
        };

        // icount1: no call at all, and each exit settles every count
        // before it.
        let mut inserter = Inserter::new();
        for &addr in &addrs {
            inserter.insert_count(addr, IPoint::Before, 1, a);
        }
        let compiled = compile(inserter);
        assert!(compiled.calls.is_empty());
        assert_eq!(compiled.counters.len(), 1);
        for (k, slot) in compiled.insts.iter().enumerate() {
            let k = k as u32 + 1;
            assert_eq!(slot.open, [run(0, k, u64::from(k)); 2]);
        }

        // Alternating counters: one op at each switch, for the run the
        // switch closes.
        let mut inserter = Inserter::new();
        for (i, &addr) in addrs.iter().enumerate() {
            let (counter, n) = if i % 2 == 0 { (a, 1) } else { (b, 2) };
            inserter.insert_count(addr, IPoint::Before, n, counter);
        }
        let compiled = compile(inserter);
        assert_eq!(compiled.counters.len(), 2);
        assert!(compiled.before(0).is_empty());
        for i in 1..addrs.len() {
            let [op] = compiled.before(i) else {
                panic!("one op at the switch before slot {i}")
            };
            let closed = if i % 2 == 1 { (0, 1, 1) } else { (1, 2, 1) };
            assert_eq!(folded(&compiled, op), closed);
        }
        assert_eq!(compiled.insts[3].open[1], run(1, 1, 2));

        // A count before a plain call: one op holding the whole run,
        // right before the call; nothing left open after it.
        let mut inserter = Inserter::new();
        inserter.insert_count(addrs[0], IPoint::Before, 1, a);
        inserter.insert_count(addrs[0], IPoint::After, 1, a);
        inserter.insert_count(addrs[1], IPoint::Before, 1, a);
        inserter.insert_call(addrs[1], IPoint::Before, |_, _, _| {}, vec![]);
        inserter.insert_count(addrs[2], IPoint::After, 5, a);
        let compiled = compile(inserter);
        assert_eq!(compiled.insts[0].open, [run(0, 1, 1), run(0, 2, 2)]);
        let [op, plain] = compiled.before(1) else {
            panic!("the folded op, then the call")
        };
        assert_eq!(folded(&compiled, op), (0, 3, 3));
        assert!(matches!(plain.call, LoweredCall::Plain { .. }));
        assert_eq!(compiled.insts[1].open, [OpenRun::default(); 2]);
        assert_eq!(compiled.insts[2].open, [OpenRun::default(), run(0, 1, 5)]);
        assert_eq!(compiled.calls.len(), 2);
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
        let (mut process, [t1, t2, _]) = three_traces();
        let mut cache: CodeCache<u64> = CodeCache::new();
        let a = compile_bare(&mut cache, &t1);
        let b = compile_bare(&mut cache, &t2);
        assert_eq!(cache.lookup(Some(b), t1.entry()), Some(a));
        assert_eq!(cache.lookup(Some(a), t2.entry()), Some(b));
        // Same entry, different shape: split before the third nop.
        let mut slot = TraceSlot::default();
        let split = slot
            .discover_with(
                fetch_decoded(&mut process),
                t1.entry(),
                Some(t1.entry() + 16),
            )
            .expect("split trace")
            .clone();
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
    fn only_slots_without_calls_are_quiet() {
        fn count(total: &mut u64) -> &mut u64 {
            total
        }
        let trace = trace_for("main:\n nop\n li r1, 5\n addi r1, r1, 1\n jmp main\n");
        let addrs: Vec<u64> = trace.insts().map(|iref| iref.addr).collect();
        let mut inserter: Inserter<u64> = Inserter::new();
        inserter.insert_count(addrs[0], IPoint::Before, 1, count);
        inserter.insert_call(addrs[1], IPoint::After, |_, _, _| {}, vec![]);
        inserter.insert_count(addrs[2], IPoint::Before, 1, count);
        inserter.insert_count(addrs[3], IPoint::Before, 1, count);
        let mut cache: CodeCache<u64> = CodeCache::new();
        let (id, _) = cache.compile(&trace, None, &mut inserter, &CostModel::default());
        let compiled = cache.trace(id);
        // The plain call closes the first count run inside slot 1's
        // after-list; the second run stays open to the trace exit, so
        // slots 2 and 3 carry no call.
        let quiet: Vec<bool> = compiled.hot.iter().map(|hot| hot.quiet).collect();
        assert_eq!(quiet, [true, false, true, true]);
        for (hot, iref) in compiled.hot.iter().zip(trace.insts()) {
            assert_eq!((hot.inst, u64::from(hot.size)), (iref.inst, iref.size));
        }
        assert_eq!(std::mem::size_of::<HotSlot>(), 24);
        assert_eq!(std::mem::size_of::<CompiledInst>(), 72);
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
