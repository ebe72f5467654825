//! The instrumentation engine: dispatcher + JIT loop over a guest process.

use crate::cache::{
    ArgPlan, CodeCache, CompiledTrace, EntryMap, InsertedCall, LoweredArg, LoweredCall,
    DEFAULT_CAPACITY_INSTS,
};
use crate::cost::CostModel;
use crate::inserter::{CallCtx, CounterFn, CounterId, EngineCtl, IPoint, Inserter};
use crate::registry::{Entry, TraceRegistry};
use crate::signature::{Detector, Signature, SignatureStats, FULL_ARGS, QUICK_ARGS};
use crate::spill::ClobberViolation;
use crate::tool::Pintool;
use crate::trace::{fetch_decoded, TraceSlot};
use std::fmt;
use std::sync::Arc;
use superpin_analysis::{SoundnessOracle, SuperblockPlan};
use superpin_fault::{FailpointRegistry, Site};
use superpin_isa::Inst;
use superpin_vm::cpu::ExecOutcome;
use superpin_vm::kernel::SyscallRecord;
use superpin_vm::process::Process;
use superpin_vm::VmError;

/// Where the engine's cycles went (paper §6.3's overhead taxonomy).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CycleBreakdown {
    /// Application instructions executed out of the code cache.
    pub app: u64,
    /// Inserted analysis calls, their arguments, and tool-charged extras.
    pub analysis: u64,
    /// JIT compilation ("compilation slowdown").
    pub jit: u64,
    /// Per-trace dispatch.
    pub dispatch: u64,
    /// Syscall servicing / playback.
    pub syscall: u64,
}

impl CycleBreakdown {
    /// Sum of all components.
    pub fn total(&self) -> u64 {
        self.app + self.analysis + self.jit + self.dispatch + self.syscall
    }
}

/// Execution counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Cycle accounting.
    pub cycles: CycleBreakdown,
    /// Instructions executed under instrumentation.
    pub insts_executed: u64,
    /// Trace dispatches.
    pub traces_executed: u64,
    /// Plain analysis calls invoked.
    pub analysis_calls: u64,
    /// Inlined if-checks evaluated.
    pub if_checks: u64,
    /// Then-calls triggered by a true if-check.
    pub then_calls: u64,
    /// Compilations that adopted a shared-cache trace at the cheaper
    /// consistency-check rate (paper §8 extension).
    pub shared_cache_adoptions: u64,
    /// Compilations of a trace no engine had compiled before (full JIT
    /// price while sharing). Zero without a shared cache.
    pub shared_cache_misses: u64,
    /// Frozen at 0: engines read the trace registry without locks, so
    /// nothing can contend. Kept only so the SPLOG v3 and report-JSON
    /// layouts, and every digest over them, stay unchanged; dropped at
    /// the next format bump.
    pub shared_cache_contention: u64,
}

/// How an engine's cache misses found a published template: host-side
/// counts only. [`EngineStats`] and [`CacheStats`](crate::CacheStats)
/// reach reports, so these stay out of both; they change whenever the
/// host takes another route to the same translation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AdoptionCounts {
    /// Misses that adopted a published template on its code version
    /// alone, without discovering the trace.
    pub adopted: u64,
    /// Misses on a published template that the code version could not
    /// vouch for, which discovered the trace and compiled it.
    pub compiled: u64,
}

/// Where an engine forms each trace it compiles and where its tool
/// inserts the trace's calls: `compile` drains the inserter and keeps
/// its capacity and counter accessors, and the slot keeps its vectors.
struct Compiling<T> {
    traces: TraceSlot,
    inserter: Inserter<T>,
}

impl<T> Default for Compiling<T> {
    fn default() -> Compiling<T> {
        Compiling {
            traces: TraceSlot::default(),
            inserter: Inserter::default(),
        }
    }
}

/// Why [`Engine::run`] returned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineStop {
    /// The cycle budget was consumed; call `run` again to continue.
    BudgetExhausted,
    /// Parked at a syscall: service with [`Engine::service_syscall`] or
    /// replay with [`Engine::playback_syscall`].
    SyscallEntry,
    /// The guest exited with this code.
    Exited(i64),
    /// An analysis routine requested a stop (`SP_EndSlice`), or the
    /// boundary detector found the slice boundary
    /// ([`Engine::detect_boundary`]). The pending instruction has *not*
    /// executed if the stop came from the detector or a before-call.
    ToolStop,
    /// The guest executed `halt`.
    Halted,
}

/// Result of one [`Engine::run`] invocation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunResult {
    /// Why the engine stopped.
    pub stop: EngineStop,
    /// Cycles consumed during this invocation.
    pub cycles: u64,
}

enum TraceExit {
    Continue,
    Stop(EngineStop),
}

/// What an engine shares with its peers: the registry published at the
/// last epoch barrier, read without locks, and its own compiles since,
/// which the runner drains and publishes at the next barrier.
#[derive(Clone)]
struct Sharing<T> {
    registry: Arc<TraceRegistry<T>>,
    fresh: EntryMap<Entry<T>>,
}

/// A Pin-like execution engine: owns the guest [`Process`], the tool, and
/// a (cold) code cache.
///
/// # Example
///
/// ```
/// use superpin_dbi::{Engine, NullTool};
/// use superpin_isa::asm::assemble;
///
/// let program = assemble("main:\n li r1, 3\nloop:\n subi r1, r1, 1\n bne r1, r0, loop\n exit 0\n")?;
/// let process = superpin_vm::process::Process::load(1, &program)?;
/// let mut engine = Engine::new(process, NullTool);
/// let (code, cycles) = engine.run_to_exit()?;
/// assert_eq!(code, 0);
/// assert!(cycles > 0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct Engine<T: Pintool> {
    process: Process,
    tool: T,
    cache: CodeCache<T>,
    cost: CostModel,
    stats: EngineStats,
    /// Trace formation ends just before this address (SuperPin slice
    /// boundaries; see [`TraceSlot::discover_with`]).
    split_point: Option<u64>,
    /// SuperPin's slice-boundary detector, run at each entry of the
    /// trace the split point heads (see [`Engine::detect_boundary`]).
    /// Boxed, so the fields the dispatch loop reads stay as close
    /// together as they were without it.
    detector: Option<Box<Detector>>,
    /// The trace registry and this engine's fresh compiles (see
    /// [`Engine::enter_epoch`]). `None` keeps every compile private.
    sharing: Option<Sharing<T>>,
    /// Whether registry membership discounts the simulated JIT (see
    /// [`Engine::set_shared_code_cache`]).
    shared_code_cache: bool,
    /// The guest code version last observed; a mismatch means the guest
    /// wrote into its code region (self-modifying code) and every
    /// translation must be discarded.
    code_version_seen: u64,
    /// Whether the next trace entry is charged the simulated dispatcher.
    /// Direct branches between cached traces are *linked* (as in Pin) and
    /// skip it; indirect transfers and re-entries after syscalls/stops
    /// pay [`CostModel::dispatch_per_trace`]. (How the host finds the
    /// next trace is the cache's business: see [`CodeCache::lookup`].)
    pending_dispatch: bool,
    /// Armed chaos registry for the [`Site::DbiEngineDispatch`]
    /// failpoint. `None` (the default) costs nothing: the dispatch path
    /// takes one branch on an `Option` it would otherwise not have.
    fault: Option<Arc<FailpointRegistry>>,
    /// Salt mixed into every dispatch failpoint key; the supervisor bumps
    /// it per retry so a re-armed slice does not deterministically re-hit
    /// the fault that killed it.
    fault_salt: u64,
    /// Dispatches evaluated against the failpoint while armed (the
    /// per-engine half of the key, deterministic per execution).
    fault_dispatches: u64,
    /// Static↔dynamic soundness oracle: every taken `jalr` and every
    /// code write is validated against the static analysis (debug builds
    /// assert; release builds record).
    oracle: Option<Arc<SoundnessOracle>>,
    /// Where dynamic argument lists are evaluated: one buffer re-used by
    /// every call, so no execution allocates.
    scratch: Vec<u64>,
    /// Where [`compile_trace`](Engine::compile_trace) forms and
    /// instruments every trace, refilled by the next compile. Boxed: a
    /// miss is rare, and the fields the dispatch loop reads stay as close
    /// together as they were without it.
    compiling: Box<Compiling<T>>,
    /// How misses on published templates went (host-side only).
    adoptions: AdoptionCounts,
    /// The counts trace exits settled and no flush point has written
    /// yet; 0 whenever [`run`](Engine::run) is not on the stack.
    pending: PendingRun<T>,
}

impl<T: Pintool + Clone> Clone for Engine<T> {
    /// Checkpoint clone: compiled traces are shared (immutable `Arc`s),
    /// everything else — process, tool, counters, chaos arming — is
    /// copied.
    fn clone(&self) -> Engine<T> {
        Engine {
            process: self.process.clone(),
            tool: self.tool.clone(),
            cache: self.cache.clone(),
            cost: self.cost,
            stats: self.stats,
            split_point: self.split_point,
            detector: self.detector.clone(),
            sharing: self.sharing.clone(),
            shared_code_cache: self.shared_code_cache,
            code_version_seen: self.code_version_seen,
            pending_dispatch: self.pending_dispatch,
            fault: self.fault.clone(),
            fault_salt: self.fault_salt,
            fault_dispatches: self.fault_dispatches,
            oracle: self.oracle.clone(),
            scratch: Vec::new(),
            compiling: Box::default(),
            adoptions: self.adoptions,
            pending: PendingRun::default(),
        }
    }
}

impl<T: Pintool> fmt::Debug for Engine<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Engine")
            .field("pid", &self.process.pid())
            .field("tool", &self.tool.name())
            .field("stats", &self.stats)
            .finish()
    }
}

impl<T: Pintool + 'static> Engine<T> {
    /// Creates an engine with the default cost model and cache capacity.
    pub fn new(process: Process, tool: T) -> Engine<T> {
        Engine::with_config(process, tool, CostModel::default(), DEFAULT_CAPACITY_INSTS)
    }

    /// Creates an engine with an explicit cost model and cache capacity.
    pub fn with_config(
        process: Process,
        tool: T,
        cost: CostModel,
        cache_capacity_insts: usize,
    ) -> Engine<T> {
        let code_version_seen = process.mem.code_version();
        Engine {
            process,
            tool,
            cache: CodeCache::with_capacity(cache_capacity_insts),
            cost,
            stats: EngineStats::default(),
            split_point: None,
            detector: None,
            sharing: None,
            shared_code_cache: false,
            code_version_seen,
            pending_dispatch: true,
            fault: None,
            fault_salt: 0,
            fault_dispatches: 0,
            oracle: None,
            scratch: Vec::new(),
            compiling: Box::default(),
            adoptions: AdoptionCounts::default(),
            pending: PendingRun::default(),
        }
    }

    /// Arms (or with `None` disarms) the [`Site::DbiEngineDispatch`]
    /// failpoint and the boundary detector's
    /// [`Site::CoreSignatureQuickMiss`] and
    /// [`Site::CoreSignatureFullMismatch`], and zeroes
    /// [`injected_faults`](Engine::injected_faults). `salt` is mixed
    /// into every key; pass the retry attempt so a recovered slice sees
    /// a fresh schedule (see [`Engine::run`]'s dispatch path).
    pub fn arm_fault_injection(&mut self, registry: Option<Arc<FailpointRegistry>>, salt: u64) {
        self.fault = registry;
        self.fault_salt = salt;
        if let Some(detector) = &mut self.detector {
            detector.injected_faults = 0;
        }
    }

    /// Sets the trace split point: it heads every trace that holds it.
    /// Must be set before the affected code compiles (SuperPin sets it
    /// when a slice wakes, while the slice's cache is still cold).
    ///
    /// A trace whose range `(entry, fallthrough]` holds the split point
    /// was shaped by it, so it is never published as a template, and a
    /// template whose range holds it is never adopted.
    pub fn set_split_point(&mut self, split: Option<u64>) {
        self.split_point = split;
    }

    /// Makes `signature`'s pc the split point and arms SuperPin's
    /// slice-boundary detector (paper §4.4) for slice `slice`: each entry
    /// of the trace the boundary heads first runs the two-stage check,
    /// after the entry's dispatch and before the trace's first
    /// instruction, with the guest state as that instruction would see
    /// it. The split point heads every trace that holds it, so this is
    /// every time the guest reaches it. The check is charged as the
    /// if/then call it stands for: an inlined quick check of two
    /// arguments ([`CostModel::if_check`]), and on a quick match a full
    /// check of every register and stack word ([`CostModel::call`] plus
    /// one cycle per compare it made). A detection ends the run with
    /// [`EngineStop::ToolStop`] before the instruction executes.
    ///
    /// The check is not a flush point of [`Inserter::insert_count`]: it
    /// runs with inlined counts still pending, and reads registers and
    /// stack words only.
    pub fn detect_boundary(&mut self, signature: Arc<Signature>, slice: u32) {
        self.split_point = Some(signature.pc);
        self.detector = Some(Box::new(Detector {
            signature,
            slice: u64::from(slice),
            stats: SignatureStats::default(),
            injected_faults: 0,
        }));
    }

    /// What the boundary detector's checks have found so far.
    pub fn signature_stats(&self) -> SignatureStats {
        self.detector
            .as_ref()
            .map_or_else(SignatureStats::default, |detector| detector.stats)
    }

    /// Signature failpoints fired since the last
    /// [`arm_fault_injection`](Engine::arm_fault_injection). A slice
    /// supervisor reads this at every barrier: a poisoned slice is rolled
    /// back in the same epoch the fault fired.
    pub fn injected_faults(&self) -> u64 {
        self.detector
            .as_ref()
            .map_or(0, |detector| detector.injected_faults)
    }

    /// Turns paper §8's shared code cache on for the simulated charge:
    /// compiling a trace that is in the registry (see
    /// [`enter_epoch`](Engine::enter_epoch)), or that this engine
    /// already compiled this epoch, costs
    /// [`CostModel::shared_cache_check`] per instruction instead of
    /// [`CostModel::compile_per_inst`]. Off (the default), every compile
    /// pays full price whatever the registry holds.
    pub fn set_shared_code_cache(&mut self, on: bool) {
        self.shared_code_cache = on;
    }

    /// Starts an epoch reading `registry`, the traces published at the
    /// last barrier. The engine adopts a published template instead of
    /// instrumenting when its tool certifies its instrumentation
    /// shareable ([`Pintool::instrumentation_is_shareable`]), the split
    /// point lies outside the template's range and the template's code
    /// version is this process's, so its own discovery would produce the
    /// same instructions (the miss path, `compile_miss`); it compiles
    /// the trace otherwise. Simulated cycles are charged exactly as for a
    /// compile. Compiles not yet drained by
    /// [`take_fresh_traces`](Engine::take_fresh_traces) are carried
    /// over.
    pub fn enter_epoch(&mut self, registry: Arc<TraceRegistry<T>>) {
        let fresh = self
            .sharing
            .take()
            .map_or_else(EntryMap::default, |sharing| sharing.fresh);
        self.sharing = Some(Sharing { registry, fresh });
    }

    /// Drains the traces this engine compiled since the last drain, each
    /// with its template when shareable. A trace no peer may adopt is
    /// kept only while the shared code cache is on, where its
    /// membership alone discounts the charge. Sorted by pc, so barrier
    /// publication is deterministic; empty before the first
    /// [`enter_epoch`](Engine::enter_epoch).
    pub fn take_fresh_traces(&mut self) -> Vec<(u64, Entry<T>)> {
        let Some(sharing) = &mut self.sharing else {
            return Vec::new();
        };
        let mut fresh: Vec<_> = sharing.fresh.drain().collect();
        // The map's order is its hasher's; this sort is what makes the
        // barrier's publication order, and so every peer's view, a
        // function of the simulation alone.
        fresh.sort_unstable_by_key(|&(pc, _)| pc);
        fresh
    }

    /// Installs a superblock plan: its refined interprocedural liveness
    /// goes into the code cache ([`CodeCache::set_refined_liveness`]),
    /// which annotates each call's [`InsertedCall::elided`] registers.
    /// Traces are still formed by decoding at every cache miss, so trace
    /// shapes, instrumentation results, and charged costs are identical
    /// with or without a plan. Install while the cache is cold; the map
    /// stays installed across self-modifying code.
    pub fn set_plan(&mut self, plan: Arc<SuperblockPlan>) {
        self.cache.set_refined_liveness(plan.refined_liveness_arc());
    }

    /// Installs the static↔dynamic soundness oracle and turns on the
    /// guest's code-write log to feed its SMC checks. Every taken
    /// `jalr` and every code write is validated against the static
    /// analysis; debug builds assert on a violation, release builds
    /// record it (see [`SoundnessOracle::violations`]).
    pub fn set_oracle(&mut self, oracle: Arc<SoundnessOracle>) {
        self.process.mem.log_code_writes(true);
        self.oracle = Some(oracle);
    }

    /// Clobber-safety violations found while compiling instrumentation
    /// (debug/test builds only; see
    /// [`CodeCache::clobber_violations`]).
    pub fn clobber_violations(&self) -> &[ClobberViolation] {
        self.cache.clobber_violations()
    }

    /// Test hook: omit `reg` from every save set the compiler plans, so
    /// the debug-build clobber-safety verifier has a deliberate bug to
    /// catch. Never use outside negative tests.
    pub fn inject_clobber_bug(&mut self, reg: superpin_isa::Reg) {
        self.cache.inject_clobber_bug(reg);
    }

    /// The guest process.
    pub fn process(&self) -> &Process {
        &self.process
    }

    /// Mutable access to the guest process.
    pub fn process_mut(&mut self) -> &mut Process {
        &mut self.process
    }

    /// The tool.
    pub fn tool(&self) -> &T {
        &self.tool
    }

    /// Mutable access to the tool.
    pub fn tool_mut(&mut self) -> &mut T {
        &mut self.tool
    }

    /// The cost model in effect.
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// Execution statistics.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Code-cache statistics.
    pub fn cache_stats(&self) -> crate::cache::CacheStats {
        self.cache.stats()
    }

    /// How this engine's misses on published templates went. Host-side
    /// only: never part of [`stats`](Engine::stats) or a report.
    pub fn adoption_counts(&self) -> AdoptionCounts {
        self.adoptions
    }

    /// Instructions resident in the code cache (the memory governor's
    /// charge basis for this engine).
    pub fn cache_resident_insts(&self) -> usize {
        self.cache.resident_insts()
    }

    /// Evicts the whole code cache under memory pressure, returning the
    /// instructions freed. Subsequent execution recompiles on demand.
    pub fn evict_code_cache(&mut self) -> usize {
        self.cache.evict_for_pressure()
    }

    /// Consumes the engine, returning the process and tool.
    pub fn into_parts(self) -> (Process, T) {
        (self.process, self.tool)
    }

    /// Runs instrumented code for approximately `budget` cycles.
    ///
    /// The budget is a soft target: a trace always completes once
    /// entered, so the engine may overshoot by up to one trace's cost
    /// (bounded by [`crate::trace::MAX_INSTS_PER_TRACE`]).
    ///
    /// Counts that trace exits settled wait in one pending run, which
    /// is written to the tool before every other analysis routine, before
    /// every compile or adoption, and here on every return, an error
    /// included: whatever sees the tool from outside `run` sees exact
    /// counts ([`Inserter::insert_count`]).
    ///
    /// # Errors
    ///
    /// Propagates guest execution errors.
    pub fn run(&mut self, budget: u64) -> Result<RunResult, VmError> {
        let result = self.dispatch(budget);
        self.pending.flush(&mut self.tool);
        result
    }

    /// [`run`](Engine::run)'s dispatch loop, leaving the counts of the
    /// last trace exits pending.
    fn dispatch(&mut self, budget: u64) -> Result<RunResult, VmError> {
        if let Some(code) = self.process.exited() {
            return Ok(RunResult {
                stop: EngineStop::Exited(code),
                cycles: 0,
            });
        }
        let mut spent = 0u64;
        // Resuming after a stop always re-enters through the dispatcher.
        self.pending_dispatch = true;
        // The trace control is leaving, whose links answer the next
        // lookup. Never carried across `run` calls: the cache may have
        // been evicted in between.
        let mut from = None;
        loop {
            // Self-modifying code: any write into the code region since
            // the last dispatch invalidates every translation.
            let code_version = self.process.mem.code_version();
            if code_version != self.code_version_seen {
                self.code_version_seen = code_version;
                self.cache.flush_for_smc();
                from = None;
                self.pending_dispatch = true;
                if let Some(oracle) = &self.oracle {
                    for (addr, len) in self.process.mem.take_code_writes() {
                        let admitted = oracle.check_code_write(addr, len as u64);
                        debug_assert!(
                            admitted,
                            "soundness oracle: code write [{addr:#x}, +{len}) outside every \
                             static SMC region"
                        );
                    }
                }
            }
            let pc = self.process.cpu.pc;
            let id = match self.cache.lookup(from, pc) {
                Some(id) => id,
                None => {
                    // The tool instruments, or certifies a template, next.
                    self.pending.flush(&mut self.tool);
                    self.compile_miss(pc, &mut spent)?
                }
            };
            from = Some(id);
            if self.pending_dispatch {
                if let Some(registry) = &self.fault {
                    // Key = pid, per-engine dispatch ordinal, retry salt:
                    // pure simulation state, so a given seed fires at the
                    // same dispatch on every run and on no others.
                    self.fault_dispatches += 1;
                    let key = (self.process.pid() << 32)
                        ^ self.fault_dispatches
                        ^ (self.fault_salt << 56);
                    if registry.fire(Site::DbiEngineDispatch, key) {
                        return Err(VmError::FaultInjected {
                            site: Site::DbiEngineDispatch.name(),
                        });
                    }
                }
                self.stats.cycles.dispatch += self.cost.dispatch_per_trace;
                spent += self.cost.dispatch_per_trace;
                self.pending_dispatch = false;
            }
            self.stats.traces_executed += 1;
            if self.split_point == Some(pc) && self.check_boundary(&mut spent) {
                return Ok(RunResult {
                    stop: EngineStop::ToolStop,
                    cycles: spent,
                });
            }

            // The trace stays borrowed from the cache while the executor
            // works on the engine's other fields; whatever it tallied is
            // booked on every exit path, a guest fault included.
            let mut exec = Executor {
                process: &mut self.process,
                tool: &mut self.tool,
                pending: &mut self.pending,
                scratch: &mut self.scratch,
                oracle: self.oracle.as_deref(),
                split_point: self.split_point,
                tally: Tally::default(),
            };
            let exit = exec.run(self.cache.trace(id));
            let tally = exec.tally;
            let app = tally.insts * self.cost.cached_cpi;
            self.stats.cycles.app += app;
            self.stats.cycles.analysis += tally.analysis;
            self.stats.insts_executed += tally.insts;
            self.stats.analysis_calls += tally.calls;
            self.stats.if_checks += tally.if_checks;
            self.stats.then_calls += tally.then_calls;
            spent += app + tally.analysis;
            self.pending_dispatch |= tally.took_indirect;
            match exit? {
                TraceExit::Stop(stop) => {
                    return Ok(RunResult {
                        stop,
                        cycles: spent,
                    });
                }
                TraceExit::Continue => {
                    if spent >= budget {
                        return Ok(RunResult {
                            stop: EngineStop::BudgetExhausted,
                            cycles: spent,
                        });
                    }
                }
            }
        }
    }

    /// Adopts, or forms, instruments and compiles, the trace entered at
    /// `pc` after a cache miss, returning its slab id.
    ///
    /// The registry is probed once: its entry for `pc` gives both the
    /// membership the shared JIT charge reads and the template a miss
    /// may adopt. A template its code version vouches for is adopted at
    /// once ([`vouches_for`](Engine::vouches_for)); anything else is
    /// compiled here ([`compile_trace`](Engine::compile_trace)). Both
    /// routes charge the same simulated cycles.
    ///
    /// Kept out of line: a miss is rare next to the dispatch loop in
    /// [`run`](Engine::run), and with this body inlined that loop ran
    /// 2–3 % slower on `steady_t1` and `churn_t1`.
    #[inline(never)]
    fn compile_miss(&mut self, pc: u64, spent: &mut u64) -> Result<u32, VmError> {
        // A miss always routes through the dispatcher into the JIT.
        self.pending_dispatch = true;
        let published = self
            .sharing
            .as_ref()
            .and_then(|sharing| sharing.registry.entry(pc));
        let in_registry = published.is_some();
        let template = published.and_then(Option::as_ref);
        let has_template = template.is_some();
        let vouched = template
            .filter(|template| self.vouches_for(pc, template))
            .map(Arc::clone);
        let (id, count, per_inst) = match vouched {
            Some(template) => {
                self.adoptions.adopted += 1;
                let per_inst = self.jit_rate(pc, in_registry);
                let count = template.insts.len();
                (self.cache.adopt(template), count, per_inst)
            }
            None => {
                self.adoptions.compiled += u64::from(has_template);
                self.compile_trace(pc, in_registry)?
            }
        };
        let jit = count as u64 * per_inst;
        self.stats.cycles.jit += jit;
        *spent += jit;
        Ok(id)
    }

    /// Runs the boundary detector at the split point, charging what it
    /// ran to the stats and `spent`; returns whether it detected the
    /// boundary.
    #[inline]
    fn check_boundary(&mut self, spent: &mut u64) -> bool {
        let Some(detector) = &mut self.detector else {
            return false;
        };
        let fault = self.fault.as_deref();
        let (full, detected) = detector.check(&self.process, fault, self.fault_salt);
        self.stats.if_checks += 1;
        let mut analysis = self.cost.if_check(QUICK_ARGS);
        if let Some(extra) = full {
            self.stats.then_calls += 1;
            analysis += self.cost.call(FULL_ARGS) + extra;
        }
        self.stats.cycles.analysis += analysis;
        *spent += analysis;
        detected
    }

    /// Whether this engine may adopt `template`, the registry's entry
    /// for `pc`, without discovering the trace. Discovery here would
    /// reproduce it exactly when it was discovered in code this process
    /// holds too (an equal
    /// [`code_version`](superpin_vm::mem::AddressSpace::code_version),
    /// see [`CompiledTrace::code`]) and the split point lies outside it
    /// ([`holds_split`]). The tool must also certify its instrumentation
    /// shareable, as for a discovered trace.
    fn vouches_for(&self, pc: u64, template: &CompiledTrace<T>) -> bool {
        template.code == Some(self.process.mem.code_version())
            && !holds_split(self.split_point, pc, template.fallthrough)
            && !self.cache.has_clobber_bug()
            && self.tool.instrumentation_is_shareable()
    }

    /// Discovers, instruments and compiles the trace entered at `pc`,
    /// whose registry membership is `in_registry`. Returns the slab id,
    /// the instructions charged and the JIT price per instruction.
    fn compile_trace(&mut self, pc: u64, in_registry: bool) -> Result<(u32, usize, u64), VmError> {
        // Discovery routes through the process decode cache: a forked
        // slice inherits its master's decoded pages, so discovering a
        // trace the master already walked decodes nothing.
        let Compiling { traces, inserter } = &mut *self.compiling;
        let trace = traces.discover_with(fetch_decoded(&mut self.process), pc, self.split_point)?;
        let shareable = self.sharing.is_some()
            && !self.cache.has_clobber_bug()
            && !holds_split(self.split_point, pc, trace.fallthrough())
            && self.tool.instrumentation_is_shareable();
        self.tool.instrument_trace(trace, inserter);
        let code = self.process.mem.code_version_over(pc, trace.fallthrough());
        let (id, count) = self.cache.compile(trace, code, inserter, &self.cost);
        let per_inst = self.jit_rate(pc, in_registry);
        // Kept for the barrier: what a peer can adopt, and with the
        // shared charge on, the bare membership it pays less for.
        match &mut self.sharing {
            Some(sharing) if shareable || self.shared_code_cache => {
                let template = shareable.then(|| Arc::clone(self.cache.trace(id)));
                sharing.fresh.entry(pc).or_insert(template);
            }
            _ => {}
        }
        Ok((id, count, per_inst))
    }

    /// The simulated JIT price per instruction of the trace entered at
    /// `pc`, which the registry holds when `in_registry`. With the shared
    /// code cache on, a trace in the registry — or one this engine
    /// already compiled this epoch, say before a cache flush — costs
    /// only the consistency check. Whether the host then adopts a
    /// template or compiles does not enter into it, so both routes cost
    /// the same simulated cycles.
    fn jit_rate(&mut self, pc: u64, in_registry: bool) -> u64 {
        match &self.sharing {
            Some(sharing) if self.shared_code_cache => {
                if in_registry || sharing.fresh.contains_key(&pc) {
                    self.stats.shared_cache_adoptions += 1;
                    self.cost.shared_cache_check
                } else {
                    self.stats.shared_cache_misses += 1;
                    self.cost.compile_per_inst
                }
            }
            _ => self.cost.compile_per_inst,
        }
    }

    /// Services the syscall the guest is parked at, charging syscall cost
    /// and notifying the tool. Returns the record plus cycles charged.
    ///
    /// # Errors
    ///
    /// Propagates kernel errors.
    pub fn service_syscall(&mut self, now_ns: u64) -> Result<(SyscallRecord, u64), VmError> {
        let record = self.process.do_syscall(now_ns)?;
        self.stats.cycles.syscall += self.cost.syscall;
        self.tool.on_syscall(&record);
        Ok((record, self.cost.syscall))
    }

    /// Plays back a recorded syscall instead of executing it (SuperPin
    /// slices, paper §4.2), charging syscall cost and notifying the tool.
    /// Returns cycles charged.
    ///
    /// # Errors
    ///
    /// Propagates memory errors from re-applying the record.
    pub fn playback_syscall(&mut self, record: &SyscallRecord) -> Result<u64, VmError> {
        self.process.playback_syscall(record)?;
        self.stats.cycles.syscall += self.cost.syscall;
        self.tool.on_syscall(record);
        Ok(self.cost.syscall)
    }

    /// Runs the guest to completion in standalone "Pin mode", servicing
    /// syscalls inline. The virtual `gettime` clock is derived from the
    /// cycles this engine has consumed. Returns the exit code and total
    /// cycles.
    ///
    /// # Errors
    ///
    /// Propagates guest errors; `halt` surfaces as
    /// [`VmError::UnexpectedHalt`].
    pub fn run_to_exit(&mut self) -> Result<(i64, u64), VmError> {
        let mut total = 0u64;
        loop {
            let result = self.run(u64::MAX / 4)?;
            total += result.cycles;
            match result.stop {
                EngineStop::SyscallEntry => {
                    let now_ns = cycles_to_ns(self.stats.cycles.total());
                    let (record, cycles) = self.service_syscall(now_ns)?;
                    total += cycles;
                    if let Some(code) = record.exited {
                        return Ok((code, total));
                    }
                }
                EngineStop::Exited(code) => return Ok((code, total)),
                EngineStop::Halted => {
                    return Err(VmError::UnexpectedHalt {
                        pc: self.process.cpu.pc,
                    })
                }
                EngineStop::ToolStop => {
                    // Standalone mode has no slice supervisor; a tool stop
                    // simply continues.
                }
                EngineStop::BudgetExhausted => {}
            }
        }
    }
}

/// The counts trace exits settled since the last flush point, not yet
/// written to their counter. One per engine: a trace exit adds its open
/// run here instead of calling the counter accessor, and the sum reaches
/// the tool at the next flush point — another analysis routine, a
/// compile or adoption, the return from [`Engine::run`].
///
/// The run is keyed by the counter's [`CounterId`], not by accessor:
/// every engine's inserter boxes its own accessor and an adopted template
/// carries a peer's, yet all of them name one counter, so exits of own
/// and adopted traces add to the run without switching it. After a
/// flush the id and accessor stay, holding 0, so the next `run` adds to
/// them without cloning the accessor again.
struct PendingRun<T> {
    /// The counter the run is for; [`CounterId::NONE`] before the first.
    id: CounterId,
    accessor: Option<CounterFn<T>>,
    n: u64,
}

impl<T> Default for PendingRun<T> {
    fn default() -> PendingRun<T> {
        PendingRun {
            id: CounterId::NONE,
            accessor: None,
            n: 0,
        }
    }
}

impl<T> PendingRun<T> {
    /// Adds `n` for the counter `(id, accessor)` names; a run pending
    /// for another counter is written out first.
    #[inline]
    fn add(&mut self, (id, accessor): &(CounterId, CounterFn<T>), n: u64, tool: &mut T) {
        if self.id == *id {
            self.n += n;
        } else {
            self.flush(tool);
            self.id = *id;
            self.accessor = Some(Arc::clone(accessor));
            self.n = n;
        }
    }

    /// Writes the pending counts, if any, to their counter.
    #[inline]
    fn flush(&mut self, tool: &mut T) {
        if self.n != 0 {
            if let Some(accessor) = &self.accessor {
                *accessor(tool) += self.n;
            }
            self.n = 0;
        }
    }
}

/// What one trace execution adds to [`EngineStats`], accumulated in
/// registers and booked once per trace.
#[derive(Clone, Copy, Default)]
struct Tally {
    analysis: u64,
    insts: u64,
    calls: u64,
    if_checks: u64,
    then_calls: u64,
    /// A `jalr` was taken: indirect transfers cannot be trace-linked, so
    /// the next entry pays the dispatcher. Direct branches are linked.
    took_indirect: bool,
}

/// The one trace executor: the engine's fields a running trace touches,
/// borrowed apart from the code cache that lends the trace.
struct Executor<'a, T> {
    process: &'a mut Process,
    tool: &'a mut T,
    /// The engine's pending count run: trace exits add to it, and every
    /// other routine flushes it first.
    pending: &'a mut PendingRun<T>,
    scratch: &'a mut Vec<u64>,
    oracle: Option<&'a SoundnessOracle>,
    /// The engine's split point, which only ever heads a trace.
    split_point: Option<u64>,
    tally: Tally,
}

impl<'a, T: Pintool> Executor<'a, T> {
    /// Executes `trace` until it exits, then books what the exit point
    /// fixes: the instructions retired and the run of counts the
    /// compiler left open there ([`CompiledInst`](crate::cache::CompiledInst)),
    /// which goes to the pending run. A syscall, `halt` or guest fault
    /// leaves before the instruction retires and settles the before-list
    /// run; a taken exit or the trace end settles the after-list run. A
    /// tool stop settles none: the stopping call flushed the pending run
    /// and had the trace's own run written just before it. Either way
    /// the counts reach the tool before anything outside `Engine::run`
    /// can observe it.
    fn run(&mut self, trace: &'a CompiledTrace<T>) -> Result<TraceExit, VmError> {
        let (index, point, exit) = self.run_trace(trace);
        let after = point == IPoint::After;
        self.tally.insts = index as u64 + u64::from(after);
        if !matches!(exit, Ok(TraceExit::Stop(EngineStop::ToolStop))) {
            let run = trace.insts[index].open[usize::from(after)];
            if run.calls != 0 {
                let counter = &trace.counters[run.counter as usize];
                self.pending.add(counter, run.n, self.tool);
                self.tally.analysis += run.cost;
                self.tally.calls += u64::from(run.calls);
            }
        }
        exit
    }

    /// Executes `trace` until it exits. Returns where control left —
    /// the slot, and whether before or after its instruction retired —
    /// and how.
    ///
    /// Each slot's instruction comes from the trace's hot array. A quiet
    /// slot ([`HotSlot`](crate::cache::HotSlot)) runs from there alone;
    /// its cold half is read only when the instruction transfers control.
    fn run_trace(
        &mut self,
        trace: &'a CompiledTrace<T>,
    ) -> (usize, IPoint, Result<TraceExit, VmError>) {
        for (index, hot) in trace.hot.iter().enumerate() {
            debug_assert_eq!(trace.insts[index].addr, self.process.cpu.pc, "trace desync");
            // The boundary detector runs only at a trace's entry, so the
            // split point must never be reached mid-trace.
            debug_assert!(
                index == 0 || self.split_point != Some(trace.insts[index].addr),
                "split point {:#x} reached at slot {index} of the trace at {:#x}",
                trace.insts[index].addr,
                trace.entry
            );
            let leave = |point, exit| (index, point, exit);
            let stop = |point, stop| leave(point, Ok(TraceExit::Stop(stop)));

            // A slot with calls: its address, its after-calls and the
            // effective address, computed from pre-execution registers
            // for both before- and after-calls and only when a call asks
            // for it — nothing else can observe it.
            let mut mem_ea = 0;
            let calls = if hot.quiet {
                None
            } else {
                let slot = &trace.insts[index];
                if slot.needs_mem_ea {
                    mem_ea = mem_effective_address(self.process, hot.inst);
                }
                let [start, split, end] = slot.calls.map(|i| i as usize);
                if start != split
                    && self.run_calls(&trace.calls[start..split], slot.addr, mem_ea, false)
                {
                    // Stop requested before execution: the instruction is
                    // NOT executed; pc stays at the boundary (paper §4.4 —
                    // the boundary instruction belongs to the next slice).
                    return stop(IPoint::Before, EngineStop::ToolStop);
                }
                Some((slot.addr, &trace.calls[split..end]))
            };

            let taken = match self.process.exec_decoded(hot.inst, u64::from(hot.size)) {
                Ok(ExecOutcome::Next) => false,
                Ok(ExecOutcome::Jumped) => true,
                Ok(ExecOutcome::Syscall) => return stop(IPoint::Before, EngineStop::SyscallEntry),
                Ok(ExecOutcome::Halt) => return stop(IPoint::Before, EngineStop::Halted),
                Err(fault) => return leave(IPoint::Before, Err(fault)),
            };

            if let Some((addr, after)) = calls {
                if !after.is_empty() && self.run_calls(after, addr, mem_ea, taken) {
                    return stop(IPoint::After, EngineStop::ToolStop);
                }
            }

            if taken {
                if matches!(hot.inst, Inst::Jalr { .. }) {
                    self.tally.took_indirect = true;
                    if let Some(oracle) = self.oracle {
                        let addr = trace.insts[index].addr;
                        let dest = self.process.cpu.pc;
                        let admitted = oracle.check_transfer(addr, dest);
                        debug_assert!(
                            admitted,
                            "soundness oracle: jalr at {addr:#x} reached {dest:#x} outside \
                             its static target set"
                        );
                    }
                }
                // Control left the straight line unless the target happens
                // to be the next slot (branch to fall-through).
                let next_matches = trace
                    .insts
                    .get(index + 1)
                    .is_some_and(|next| next.addr == self.process.cpu.pc);
                if !next_matches {
                    return leave(IPoint::After, Ok(TraceExit::Continue));
                }
            }
        }
        // The budget is only checked *between* traces (see `Engine::run`):
        // a trace always completes once entered. Preempting mid-trace would
        // re-enter the block through a side trace and re-run its
        // block-granularity instrumentation — real Pin never re-instruments
        // on a context switch, and block-counting tools (icount2) rely on
        // block entry firing exactly once per block execution.
        let last = trace.insts.len() - 1;
        (last, IPoint::After, Ok(TraceExit::Continue))
    }

    /// Runs a call list; returns `true` if a stop was requested.
    ///
    /// A stop request short-circuits the remaining calls in the list:
    /// once a routine ends the slice (`SP_EndSlice`), the calls after it
    /// must not observe the instruction.
    ///
    /// A count here is a whole folded run: one write through its
    /// accessor, charged for every count it holds. Any other routine
    /// may read a counter, so the pending run is flushed before it.
    ///
    /// Forced inline: out of line, the call and the tally it then keeps
    /// in memory cost a tenth of `dbi.pin_minst_per_s` under `icount1`.
    #[inline(always)]
    fn run_calls(
        &mut self,
        calls: &'a [InsertedCall<T>],
        pc: u64,
        mem_ea: u64,
        taken: bool,
    ) -> bool {
        for inserted in calls {
            let stop = match &inserted.call {
                LoweredCall::Count {
                    counter,
                    n,
                    cost,
                    calls,
                } => {
                    *counter(self.tool) += n;
                    self.tally.analysis += cost;
                    self.tally.calls += u64::from(*calls);
                    false
                }
                LoweredCall::Plain { func, cost, args } => {
                    self.pending.flush(self.tool);
                    let mut ctl = EngineCtl::default();
                    let args = eval_args(args, self.scratch, self.process, mem_ea, taken);
                    func(self.tool, &CallCtx { pc, args }, &mut ctl);
                    self.tally.analysis += cost + ctl.extra_cycles();
                    self.tally.calls += 1;
                    ctl.stop_requested()
                }
                LoweredCall::IfThen {
                    pred,
                    pred_cost,
                    pred_args,
                    then,
                    then_cost,
                    then_args,
                } => {
                    self.pending.flush(self.tool);
                    let mut ctl = EngineCtl::default();
                    self.tally.if_checks += 1;
                    self.tally.analysis += pred_cost;
                    let args = eval_args(pred_args, self.scratch, self.process, mem_ea, taken);
                    if pred(self.tool, &CallCtx { pc, args }) {
                        let args = eval_args(then_args, self.scratch, self.process, mem_ea, taken);
                        then(self.tool, &CallCtx { pc, args }, &mut ctl);
                        self.tally.analysis += then_cost + ctl.extra_cycles();
                        self.tally.then_calls += 1;
                    }
                    ctl.stop_requested()
                }
            };
            if stop {
                return true;
            }
        }
        false
    }
}

/// The argument vector `plan` denotes right now: the pre-built one, or
/// the dynamic list evaluated into `scratch`.
#[inline]
fn eval_args<'a>(
    plan: &'a ArgPlan,
    scratch: &'a mut Vec<u64>,
    process: &Process,
    mem_ea: u64,
    taken: bool,
) -> &'a [u64] {
    match plan {
        ArgPlan::Static(values) => values,
        ArgPlan::Dynamic(args) => {
            scratch.clear();
            scratch.extend(args.iter().map(|arg| match *arg {
                LoweredArg::Value(value) => value,
                LoweredArg::MemAddr => mem_ea,
                LoweredArg::BranchTaken => u64::from(taken),
                LoweredArg::Reg(reg) => process.cpu.regs.get(reg),
                LoweredArg::StackWord(i) => {
                    let sp = process.cpu.regs.get(superpin_isa::Reg::SP);
                    process
                        .mem
                        .read_u64(sp.wrapping_add(8 * i as u64))
                        .unwrap_or(0)
                }
            }));
            scratch
        }
    }
}

// The parallel runner moves engines onto pool worker threads, so
// `Engine<T>: Send` for any `Send` tool is a load-bearing property:
// losing it (say, by caching an `Rc` somewhere) must fail compilation
// here rather than at the runner's distant spawn site.
const _: () = {
    const fn assert_send<S: Send>() {}
    #[allow(dead_code)]
    const fn engine_is_send_for_send_tools<T: Pintool + Send + 'static>() {
        assert_send::<Engine<T>>();
    }
};

/// Whether `split` lies in `(entry, fallthrough]`, the range of a trace
/// entered at `entry`: such a trace ends at the split or runs through
/// it, so its shape is one engine's own, and it is neither published as
/// a template nor adopted. A trace the split heads is the one any engine
/// forms there.
fn holds_split(split: Option<u64>, entry: u64, fallthrough: u64) -> bool {
    split.is_some_and(|split| entry < split && split <= fallthrough)
}

/// Converts 2.2 GHz cycles to virtual nanoseconds.
pub fn cycles_to_ns(cycles: u64) -> u64 {
    ((cycles as u128) * 10 / 22) as u64
}

/// Effective address of a load/store (0 for anything else).
fn mem_effective_address(process: &Process, inst: Inst) -> u64 {
    match inst {
        Inst::Ld { base, offset, .. } | Inst::St { base, offset, .. } => process
            .cpu
            .regs
            .get(base)
            .wrapping_add(offset as i64 as u64),
        _ => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inserter::{IArg, IPoint};
    use crate::tool::NullTool;
    use crate::trace::Trace;
    use superpin_isa::asm::assemble;

    fn process_for(src: &str) -> Process {
        Process::load(1, &assemble(src).expect("assemble")).expect("load")
    }

    const LOOP_100: &str =
        "main:\n li r1, 100\nloop:\n subi r1, r1, 1\n bne r1, r0, loop\n exit 0\n";

    #[derive(Clone, Default)]
    struct ICount1 {
        count: u64,
    }

    impl Pintool for ICount1 {
        fn instrument_trace(&mut self, trace: &Trace, inserter: &mut Inserter<Self>) {
            for iref in trace.insts() {
                inserter.insert_call(
                    iref.addr,
                    IPoint::Before,
                    |tool, _, _| tool.count += 1,
                    vec![],
                );
            }
        }
        fn name(&self) -> &'static str {
            "icount1-test"
        }
        fn instrumentation_is_shareable(&self) -> bool {
            true
        }
    }

    #[test]
    fn null_tool_matches_native_count() {
        let mut native = process_for(LOOP_100);
        native.run(u64::MAX, 0).expect("native");
        let truth = native.inst_count();

        let mut engine = Engine::new(process_for(LOOP_100), NullTool);
        let (code, _) = engine.run_to_exit().expect("run");
        assert_eq!(code, 0);
        assert_eq!(engine.process().inst_count(), truth);
    }

    #[test]
    fn icount_tool_counts_every_instruction() {
        let mut engine = Engine::new(process_for(LOOP_100), ICount1::default());
        engine.run_to_exit().expect("run");
        // The tool's before-calls fire for syscall instructions too, so
        // the tool count equals the process's dynamic count.
        assert_eq!(engine.tool().count, engine.process().inst_count());
        assert_eq!(engine.process().inst_count(), 204);
    }

    #[test]
    fn jit_compiles_each_trace_once() {
        let mut engine = Engine::new(process_for(LOOP_100), NullTool);
        engine.run_to_exit().expect("run");
        let cache = engine.cache_stats();
        // Loop body trace compiled once, re-dispatched ~100 times.
        assert!(
            cache.traces_compiled <= 4,
            "traces {}",
            cache.traces_compiled
        );
        assert!(engine.stats().traces_executed >= 99);
        assert!(cache.hits >= 95, "hits {}", cache.hits);
    }

    #[test]
    fn budget_pauses_and_resumes_consistently() {
        let mut engine = Engine::new(process_for(LOOP_100), ICount1::default());
        let mut stops = 0;
        loop {
            let result = engine.run(5_000).expect("run");
            match result.stop {
                EngineStop::BudgetExhausted => stops += 1,
                EngineStop::SyscallEntry => {
                    let (record, _) = engine.service_syscall(0).expect("svc");
                    if record.exited.is_some() {
                        break;
                    }
                }
                EngineStop::Exited(_) => break,
                other => panic!("unexpected stop {other:?}"),
            }
            assert!(stops < 10_000, "no forward progress");
        }
        assert_eq!(engine.tool().count, 204);
    }

    #[test]
    fn cycle_breakdown_components_are_populated() {
        let mut engine = Engine::new(process_for(LOOP_100), ICount1::default());
        engine.run_to_exit().expect("run");
        let cycles = engine.stats().cycles;
        assert!(cycles.app > 0);
        assert!(cycles.analysis > 0);
        assert!(cycles.jit > 0);
        assert!(cycles.dispatch > 0);
        assert!(cycles.syscall > 0);
        assert_eq!(
            cycles.total(),
            cycles.app + cycles.analysis + cycles.jit + cycles.dispatch + cycles.syscall
        );
    }

    #[test]
    fn icount1_slowdown_in_paper_band() {
        // Steady-state slowdown vs native for a long loop must land in
        // the 8–16× band around the paper's 12× average (Fig. 3).
        let src = "main:\n li r1, 200000\nloop:\n subi r1, r1, 1\n bne r1, r0, loop\n exit 0\n";
        let mut native = process_for(src);
        native.run(u64::MAX, 0).expect("native");
        let native_cycles = native.inst_count(); // native_cpi == 1

        let mut engine = Engine::new(process_for(src), ICount1::default());
        let (_, cycles) = engine.run_to_exit().expect("run");
        let slowdown = cycles as f64 / native_cycles as f64;
        assert!(
            (8.0..=16.0).contains(&slowdown),
            "icount1 slowdown {slowdown:.1} outside paper band"
        );
    }

    #[derive(Clone, Default)]
    struct StopAtThird {
        seen: u64,
    }

    impl Pintool for StopAtThird {
        fn instrument_trace(&mut self, trace: &Trace, inserter: &mut Inserter<Self>) {
            for iref in trace.insts() {
                inserter.insert_call(
                    iref.addr,
                    IPoint::Before,
                    |tool, _, ctl| {
                        tool.seen += 1;
                        if tool.seen == 3 {
                            ctl.request_stop();
                        }
                    },
                    vec![],
                );
            }
        }
    }

    #[test]
    fn tool_stop_parks_before_instruction() {
        let mut engine = Engine::new(process_for(LOOP_100), StopAtThird::default());
        let result = engine.run(u64::MAX / 4).expect("run");
        assert_eq!(result.stop, EngineStop::ToolStop);
        // Two instructions executed; the third is pending.
        assert_eq!(engine.process().inst_count(), 2);
        // Resuming re-instruments from the parked pc and continues.
        let result = engine.run(u64::MAX / 4).expect("run");
        // Tool keeps requesting at seen==3 only once; run continues to
        // the exit syscall.
        assert_eq!(result.stop, EngineStop::SyscallEntry);
    }

    #[derive(Clone, Default)]
    struct MemWatch {
        reads: Vec<(u64, u64)>,
        writes: Vec<(u64, u64)>,
    }

    impl Pintool for MemWatch {
        fn instrument_trace(&mut self, trace: &Trace, inserter: &mut Inserter<Self>) {
            for iref in trace.insts() {
                if iref.inst.is_mem_read() || iref.inst.is_mem_write() {
                    inserter.insert_call(
                        iref.addr,
                        IPoint::Before,
                        |tool, ctx, _| {
                            if ctx.arg(2) == 1 {
                                tool.writes.push((ctx.arg(0), ctx.arg(1)));
                            } else {
                                tool.reads.push((ctx.arg(0), ctx.arg(1)));
                            }
                        },
                        vec![IArg::MemAddr, IArg::MemSize, IArg::IsMemWrite],
                    );
                }
            }
        }
    }

    #[test]
    fn memory_args_report_effective_addresses() {
        let src = r#"
            .data
            buf: .word 1, 2
            .text
            main:
                la  r2, buf
                ld  r3, 8(r2)
                stw r3, 0(r2)
                exit 0
        "#;
        let mut engine = Engine::new(process_for(src), MemWatch::default());
        engine.run_to_exit().expect("run");
        let tool = engine.tool();
        assert_eq!(tool.reads, vec![(superpin_isa::DATA_BASE + 8, 8)]);
        assert_eq!(tool.writes, vec![(superpin_isa::DATA_BASE, 4)]);
    }

    #[derive(Clone, Default)]
    struct IfThenCounter {
        then_hits: u64,
    }

    impl Pintool for IfThenCounter {
        fn instrument_trace(&mut self, trace: &Trace, inserter: &mut Inserter<Self>) {
            for iref in trace.insts() {
                inserter.insert_if_then_call(
                    iref.addr,
                    IPoint::Before,
                    |_, ctx| ctx.arg(0) % 2 == 0,
                    vec![IArg::InstPtr],
                    |tool, _, _| tool.then_hits += 1,
                    vec![],
                );
            }
        }
    }

    #[test]
    fn if_then_fires_only_on_true_predicate() {
        let mut engine = Engine::new(
            process_for("main:\n nop\n nop\n exit 0\n"),
            IfThenCounter::default(),
        );
        engine.run_to_exit().expect("run");
        let stats = engine.stats();
        assert!(stats.if_checks >= 5);
        assert_eq!(stats.then_calls, engine.tool().then_hits);
        // Addresses are 8-aligned, so every check is true here.
        assert_eq!(stats.then_calls, stats.if_checks);
    }

    /// Runs `engine` to exit reading `registry`, with the shared charge
    /// `on` or off; returns the engine.
    fn run_sharing<T: Pintool + 'static>(
        mut engine: Engine<T>,
        registry: &Arc<TraceRegistry<T>>,
        on: bool,
    ) -> Engine<T> {
        engine.set_shared_code_cache(on);
        engine.enter_epoch(Arc::clone(registry));
        engine.run_to_exit().expect("run");
        engine
    }

    /// The trace `engine`'s cache holds for `pc`.
    fn resident<T: Pintool + 'static>(engine: &mut Engine<T>, pc: u64) -> Arc<CompiledTrace<T>> {
        let id = engine.cache.lookup(None, pc).expect("resident");
        Arc::clone(engine.cache.trace(id))
    }

    #[test]
    fn a_published_trace_is_adopted_only_after_the_barrier() {
        // Peers are forks of one process, as SuperPin slices are: only
        // they share a code version.
        let parent = process_for(LOOP_100);
        let peer = |pid| Engine::new(parent.fork(pid), ICount1::default());
        let empty = Arc::new(TraceRegistry::new());
        let mut a = run_sharing(peer(2), &empty, false);
        let fresh = a.take_fresh_traces();
        assert!(!fresh.is_empty() && fresh.iter().all(|(_, t)| t.is_some()));
        assert!(a.take_fresh_traces().is_empty(), "a drain empties");

        // Before the barrier B reads the registry A's compiles are not in.
        let mut before = run_sharing(peer(3), &empty, false);
        let published = empty.publish(fresh.iter().cloned());
        let mut after = run_sharing(peer(4), &published, false);
        for (pc, template) in &fresh {
            let template = template.as_ref().expect("shareable");
            assert!(Arc::ptr_eq(&resident(&mut a, *pc), template));
            assert!(!Arc::ptr_eq(&resident(&mut before, *pc), template));
            assert!(Arc::ptr_eq(&resident(&mut after, *pc), template));
        }
        // An adopter has nothing fresh to publish, and counts the same.
        assert!(after.take_fresh_traces().is_empty());
        assert_eq!(after.tool().count, a.tool().count);
    }

    #[test]
    fn the_shared_charge_applies_only_when_the_cache_is_on() {
        let solo = {
            let mut engine = Engine::new(process_for(LOOP_100), ICount1::default());
            engine.run_to_exit().expect("solo");
            engine.stats()
        };
        // Forks of one process, so B's code version vouches for A's
        // templates.
        let parent = process_for(LOOP_100);
        let peer = |pid| Engine::new(parent.fork(pid), ICount1::default());
        let empty = Arc::new(TraceRegistry::new());
        let mut a = run_sharing(peer(2), &empty, true);
        assert_eq!(a.stats().shared_cache_adoptions, 0);
        assert!(a.stats().shared_cache_misses > 0, "the first compiler pays");
        assert_eq!(a.stats().cycles, solo.cycles);
        let published = empty.publish(a.take_fresh_traces());

        let on = run_sharing(peer(3), &published, true);
        assert!(on.adoption_counts().adopted > 0);
        let stats = on.stats();
        assert!(stats.shared_cache_adoptions > 0, "B must pay the check");
        assert_eq!(stats.shared_cache_misses, 0, "nothing new to claim");
        assert_eq!(
            stats.cycles.jit,
            on.cache_stats().insts_compiled * on.cost().shared_cache_check
        );
        assert!(stats.cycles.jit * 4 < solo.cycles.jit);

        // Off, the registry only saves host work: B's stats are a solo
        // engine's, adopted templates and all.
        let off = run_sharing(peer(4), &published, false);
        assert!(off.adoption_counts().adopted > 0);
        assert_eq!(off.stats(), solo);
    }

    /// Runs a fork of `parent` to exit with `split`, reading `registry`.
    fn forked(
        parent: &Process,
        split: Option<u64>,
        registry: &Arc<TraceRegistry<ICount1>>,
    ) -> Engine<ICount1> {
        let mut engine = Engine::new(parent.fork(2), ICount1::default());
        engine.set_split_point(split);
        run_sharing(engine, registry, false)
    }

    /// What `engine` compiled, published into an empty registry.
    fn published(engine: &mut Engine<ICount1>) -> Arc<TraceRegistry<ICount1>> {
        Arc::new(TraceRegistry::new()).publish(engine.take_fresh_traces())
    }

    #[test]
    fn identity_adoption_skips_code_rewritten_after_fork() {
        let parent = process_for(LOOP_100);
        let entry = parent.cpu.pc;
        let registry = published(&mut forked(&parent, None, &Arc::new(TraceRegistry::new())));
        let template = |pc| Arc::clone(registry.template(pc).expect("published"));

        // A fork that kept the code adopts every template on identity.
        let mut same = forked(&parent, None, &registry);
        assert_eq!(same.adoption_counts().compiled, 0);
        assert!(same.adoption_counts().adopted > 0);
        assert!(Arc::ptr_eq(&resident(&mut same, entry), &template(entry)));

        // A fork that rewrote the loop bound after the fork must run its
        // own code: its code version vouches for no template, so every
        // trace is compiled as a solo engine on that code compiles it,
        // the untouched loop body included.
        let patched = assemble(&LOOP_100.replace("li r1, 100", "li r1, 30")).expect("assemble");
        let mut engine = Engine::new(rewritten(&parent, &patched), ICount1::default());
        engine.enter_epoch(Arc::clone(&registry));
        engine.run_to_exit().expect("run");
        assert_eq!(engine.tool().count, native_count(&patched));
        assert_eq!(engine.process().inst_count(), native_count(&patched));
        assert_eq!(engine.adoption_counts().adopted, 0);
        assert!(engine.adoption_counts().compiled > 0);
        let mut solo = Engine::new(
            Process::load(1, &patched).expect("load"),
            ICount1::default(),
        );
        solo.run_to_exit().expect("solo");
        assert_eq!(engine.tool().count, solo.tool().count);
        for pc in [entry, entry + LOOP_AT] {
            let resident_trace = resident(&mut engine, pc);
            assert!(!Arc::ptr_eq(&resident_trace, &template(pc)));
            assert!(resident_trace
                .inst_refs()
                .eq(resident(&mut solo, pc).inst_refs()));
        }
    }

    /// A fork of `parent` whose code has been overwritten by `program`'s.
    fn rewritten(parent: &Process, program: &superpin_isa::Program) -> Process {
        let mut child = parent.fork(2);
        child
            .mem
            .write(program.code_base(), program.code())
            .expect("rewrite code");
        child
    }

    /// `program`'s native instruction count.
    fn native_count(program: &superpin_isa::Program) -> u64 {
        let mut native = Process::load(1, program).expect("load");
        native.run(u64::MAX, 0).expect("native");
        native.inst_count()
    }

    #[test]
    fn forks_that_rewrite_their_code_apart_never_share_a_template() {
        // Both forks change their code once, from the same version: only
        // a process-wide version keeps them apart.
        let parent = process_for(LOOP_100);
        let entry = parent.cpu.pc;
        let [thirty, fifty] = ["li r1, 30", "li r1, 50"]
            .map(|li| assemble(&LOOP_100.replace("li r1, 100", li)).expect("assemble"));
        let mut publisher = run_sharing(
            Engine::new(rewritten(&parent, &thirty), ICount1::default()),
            &Arc::new(TraceRegistry::new()),
            false,
        );
        assert_eq!(publisher.tool().count, native_count(&thirty));
        let registry = published(&mut publisher);
        let template = Arc::clone(registry.template(entry).expect("published"));

        let mut other = run_sharing(
            Engine::new(rewritten(&parent, &fifty), ICount1::default()),
            &registry,
            false,
        );
        assert_eq!(other.tool().count, native_count(&fifty));
        assert_eq!(other.adoption_counts().adopted, 0);
        assert!(!Arc::ptr_eq(&resident(&mut other, entry), &template));
    }

    /// A loop whose body trace, at [`LOOP_AT`] past the entry (after a
    /// 16-byte `li`), holds a two-word `li` and runs on into the exit.
    const BODY: &str = "main:\n li r1, 20\nloop:\n addi r2, r2, 1\n li r3, 7\n \
                        subi r1, r1, 1\n bne r1, r0, loop\n exit 0\n";
    const LOOP_AT: u64 = 16;

    #[test]
    fn a_trace_is_shared_exactly_when_the_split_is_outside_it() {
        let parent = process_for(BODY);
        let body = parent.cpu.pc + LOOP_AT;
        let native = {
            let mut native = parent.fork(9);
            native.run(u64::MAX, 0).expect("native");
            native.inst_count()
        };
        let empty = Arc::new(TraceRegistry::new());
        let registry = published(&mut forked(&parent, None, &empty));
        let template = Arc::clone(registry.template(body).expect("published"));
        let fallthrough = template.fallthrough;
        // Every word from two before the entry to two past the
        // fall-through, the `li`'s second word included.
        let mut inside = 0;
        for split in (body - 16..=fallthrough + 16).step_by(8) {
            let outside = !(body < split && split <= fallthrough);
            inside += usize::from(!outside);
            // With an empty registry, the publisher compiles all it runs.
            let mut publisher = forked(&parent, Some(split), &empty);
            assert_eq!(publisher.tool().count, native, "{split:#x}");
            let shared = published(&mut publisher).template(body).is_some();
            assert_eq!(shared, outside, "published with the split at {split:#x}");

            // An adopter takes the template or compiles what the
            // publisher compiled, and is charged alike either way.
            let mut adopter = forked(&parent, Some(split), &registry);
            let resident_body = resident(&mut adopter, body);
            let adopted = Arc::ptr_eq(&resident_body, &template);
            assert_eq!(adopted, outside, "adopted with the split at {split:#x}");
            assert!(resident_body
                .inst_refs()
                .eq(resident(&mut publisher, body).inst_refs()));
            assert_eq!(adopter.tool().count, native, "{split:#x}");
            assert_eq!(adopter.stats(), publisher.stats(), "{split:#x}");
            assert_eq!(adopter.cache_stats(), publisher.cache_stats(), "{split:#x}");
        }
        // Every word past the entry up to the fall-through.
        assert_eq!(
            inside,
            usize::try_from((fallthrough - body) / 8).expect("fits")
        );
    }

    thread_local! {
        /// Calls of [`counted`] on this thread: one per write through
        /// any accessor boxing it.
        static ACCESSOR_CALLS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    }

    /// The counter `fn` of [`Counted`], which counts its own calls.
    fn counted(tool: &mut Counted) -> &mut u64 {
        ACCESSOR_CALLS.with(|calls| calls.set(calls.get() + 1));
        &mut tool.count
    }

    /// One inlined count per instruction, as `ICount1`.
    #[derive(Clone, Default)]
    struct Counted {
        count: u64,
    }

    impl Pintool for Counted {
        fn instrument_trace(&mut self, trace: &Trace, inserter: &mut Inserter<Self>) {
            for iref in trace.insts() {
                inserter.insert_count(iref.addr, IPoint::Before, 1, counted);
            }
        }
        fn instrumentation_is_shareable(&self) -> bool {
            true
        }
    }

    #[test]
    fn counter_identity_is_equal_across_engines() {
        // Each iteration runs three traces: the loop head, `f`, and the
        // rest of the loop.
        let src = "main:\n li r1, 40\nloop:\n call f\n subi r1, r1, 1\n bne r1, r0, loop\n \
                   exit 0\nf:\n addi r2, r2, 1\n ret\n";
        let parent = process_for(src);
        let entry = parent.cpu.pc;
        let peer = |pid| Engine::new(parent.fork(pid), Counted::default());
        let mut publisher = run_sharing(peer(2), &Arc::new(TraceRegistry::new()), false);
        // Only `f` is published: the adopter compiles the loop itself
        // and adopts `f`, whose template carries the publisher's
        // accessor.
        let fresh = publisher.take_fresh_traces();
        let is_f = |template: &Option<Arc<CompiledTrace<Counted>>>| {
            let template = template.as_ref().expect("shareable");
            template
                .hot
                .iter()
                .any(|hot| matches!(hot.inst, Inst::Jalr { .. }))
        };
        let f = fresh.iter().find(|(_, t)| is_f(t)).expect("f compiled").0;
        let registry =
            Arc::new(TraceRegistry::new()).publish(fresh.into_iter().filter(|(_, t)| is_f(t)));

        ACCESSOR_CALLS.with(|calls| calls.set(0));
        let mut adopter = run_sharing(peer(3), &registry, false);
        let calls = ACCESSOR_CALLS.with(std::cell::Cell::get);
        assert_eq!(adopter.adoption_counts().adopted, 1);
        assert_eq!(adopter.tool().count, adopter.process().inst_count());
        assert_eq!(adopter.tool().count, publisher.tool().count);
        // One write per flush point: a compile or adoption after some
        // exit, and the return at the exit syscall. Keyed by accessor,
        // the run would switch twice an iteration.
        let compiled = adopter.cache_stats().traces_compiled;
        assert!(
            calls <= compiled + 1,
            "{calls} accessor calls for {compiled} compiles"
        );

        // The adopted template and the adopter's own traces carry the
        // accessors two inserters boxed for one counter `fn`, under one
        // one-word id ...
        let own = resident(&mut adopter, entry);
        let adopted = resident(&mut adopter, f);
        let (own_id, own_accessor) = &own.counters[0];
        let (adopted_id, adopted_accessor) = &adopted.counters[0];
        assert!(!Arc::ptr_eq(own_accessor, adopted_accessor));
        assert_eq!(own_id, adopted_id);
        let counter: fn(&mut Counted) -> &mut u64 = counted;
        assert_eq!(*own_id, CounterId(counter as usize));
        assert_eq!(resident(&mut publisher, entry).counters[0].0, *own_id);
        // ... so their exits add to one pending run without switching it.
        let mut tool = Counted::default();
        let mut pending = PendingRun::default();
        pending.add(&own.counters[0], 2, &mut tool);
        pending.add(&adopted.counters[0], 3, &mut tool);
        let accessor = pending.accessor.as_ref().expect("pending");
        assert!(Arc::ptr_eq(accessor, own_accessor), "the run switched");
        assert_eq!((pending.n, tool.count), (5, 0));
        pending.flush(&mut tool);
        assert_eq!((pending.n, tool.count), (0, 5));
    }

    #[test]
    fn branch_taken_arg() {
        #[derive(Clone, Default)]
        struct TakenWatch {
            taken: u64,
            not_taken: u64,
        }
        impl Pintool for TakenWatch {
            fn instrument_trace(&mut self, trace: &Trace, inserter: &mut Inserter<Self>) {
                for iref in trace.insts() {
                    if matches!(iref.inst, Inst::Branch { .. }) {
                        inserter.insert_call(
                            iref.addr,
                            IPoint::After,
                            |tool, ctx, _| {
                                if ctx.arg(0) == 1 {
                                    tool.taken += 1;
                                } else {
                                    tool.not_taken += 1;
                                }
                            },
                            vec![IArg::BranchTaken],
                        );
                    }
                }
            }
        }
        let mut engine = Engine::new(process_for(LOOP_100), TakenWatch::default());
        engine.run_to_exit().expect("run");
        assert_eq!(engine.tool().taken, 99);
        assert_eq!(engine.tool().not_taken, 1);
    }
}
