//! The instrumentation-insertion API, modelled on Pin's
//! `INS_InsertCall` / `INS_InsertIfCall` / `INS_InsertThenCall`.
//!
//! Analysis routines are closures over the tool state. An
//! [`Inserter`] collects them while the tool instruments a freshly
//! discovered [`Trace`](crate::trace::Trace); the engine then compiles
//! the trace + calls into the code cache.

use std::fmt;
use std::sync::Arc;
use superpin_isa::Reg;

/// Where an analysis call is attached relative to its instruction
/// (Pin's `IPOINT_BEFORE` / `IPOINT_AFTER`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum IPoint {
    /// Runs before the instruction executes.
    Before,
    /// Runs after the instruction executes (not supported on `syscall`,
    /// which hands control to the supervisor — use
    /// [`Pintool::on_syscall`](crate::tool::Pintool::on_syscall) instead).
    After,
}

/// Argument descriptors materialized for analysis calls (Pin's `IARG_*`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IArg {
    /// The instrumented instruction's address (`IARG_INST_PTR`).
    InstPtr,
    /// A constant (`IARG_UINT32`/`IARG_UINT64`).
    UInt(u64),
    /// Effective address of the instruction's memory operand
    /// (`IARG_MEMORYOP_EA`); 0 for non-memory instructions. Always
    /// computed from pre-execution register values.
    MemAddr,
    /// Bytes accessed by the memory operand; 0 for non-memory
    /// instructions.
    MemSize,
    /// 1 if the instruction writes memory, else 0.
    IsMemWrite,
    /// 1 if a control transfer was taken by this instruction
    /// (`IARG_BRANCH_TAKEN`; meaningful only at [`IPoint::After`]).
    BranchTaken,
    /// Pre-execution value of a register (`IARG_REG_VALUE`).
    RegValue(Reg),
    /// The `i`th 64-bit word above the stack pointer, i.e.
    /// `mem[sp + 8·i]`; 0 if unmapped. SuperPin's full signature check
    /// compares "the top 100 words on the stack" (paper §4.4).
    StackWord(u32),
    /// The address execution continues at if the instruction falls
    /// through (`IARG_FALLTHROUGH_ADDR`).
    FallthroughAddr,
}

/// Runtime context passed to every analysis routine.
#[derive(Clone, Copy, Debug)]
pub struct CallCtx<'a> {
    /// Address of the instrumented instruction.
    pub pc: u64,
    /// Argument values, in the order the call requested them.
    pub args: &'a [u64],
}

impl CallCtx<'_> {
    /// The `i`th requested argument (0 if fewer were requested —
    /// analysis code stays panic-free on tool bugs).
    pub fn arg(&self, i: usize) -> u64 {
        self.args.get(i).copied().unwrap_or(0)
    }
}

/// Control surface handed to analysis routines.
///
/// Lets a routine charge extra virtual cycles (e.g. SuperPin's full
/// signature comparison walks 100 stack words, paper §4.4) and request
/// that the engine stop at the end of the current instruction (used by
/// `SP_EndSlice` and by signature-detection hits).
#[derive(Debug, Default)]
pub struct EngineCtl {
    stop: bool,
    extra_cycles: u64,
}

impl EngineCtl {
    /// Ask the engine to stop after the current instruction completes.
    pub fn request_stop(&mut self) {
        self.stop = true;
    }

    /// Whether a stop has been requested.
    pub fn stop_requested(&self) -> bool {
        self.stop
    }

    /// Charge additional virtual cycles to the analysis account.
    pub fn charge_cycles(&mut self, cycles: u64) {
        self.extra_cycles += cycles;
    }

    /// Cycles charged so far.
    pub fn extra_cycles(&self) -> u64 {
        self.extra_cycles
    }
}

/// A plain analysis routine over tool state `T`.
pub type AnalysisFn<T> = Arc<dyn Fn(&mut T, &CallCtx<'_>, &mut EngineCtl) + Send + Sync>;

/// A predicate routine (`INS_InsertIfCall`): returns `true` to trigger
/// the paired then-call.
pub type PredicateFn<T> = Arc<dyn Fn(&mut T, &CallCtx<'_>) -> bool + Send + Sync>;

/// A counter accessor ([`Inserter::insert_count`]): projects the tool
/// state onto the `u64` a count adds to.
pub type CounterFn<T> = Arc<dyn Fn(&mut T) -> &mut u64 + Send + Sync>;

/// One inserted call: plain, if/then guarded, or an inlined count.
pub enum Call<T> {
    /// Unconditional analysis call.
    Plain {
        /// The analysis routine.
        func: AnalysisFn<T>,
        /// Arguments materialized at each execution.
        args: Vec<IArg>,
    },
    /// `INS_InsertIfCall` + `INS_InsertThenCall`: a cheap inlined
    /// predicate guarding an expensive call (paper §4.4 uses this pair
    /// for signature detection). Boxed, so the call kinds a trace holds
    /// many of stay small to collect and move.
    IfThen(Box<Guarded<T>>),
    /// [`Inserter::insert_count`]: add `n` to the counter the
    /// inserter's `counter`-th accessor projects to. Counts name their
    /// accessor by index, so collecting and compiling one moves no
    /// reference count.
    Count {
        /// Index of the accessor in the inserter that holds the call.
        counter: u32,
        /// What each execution adds.
        n: u64,
    },
}

/// The predicate and routine of a [`Call::IfThen`].
pub struct Guarded<T> {
    /// The inlined quick predicate.
    pub pred: PredicateFn<T>,
    /// Predicate arguments.
    pub pred_args: Vec<IArg>,
    /// The expensive guarded routine.
    pub then: AnalysisFn<T>,
    /// Then-call arguments.
    pub then_args: Vec<IArg>,
}

impl<T> Clone for Call<T> {
    fn clone(&self) -> Call<T> {
        match self {
            Call::Plain { func, args } => Call::Plain {
                func: Arc::clone(func),
                args: args.clone(),
            },
            Call::IfThen(guarded) => Call::IfThen(Box::new(Guarded {
                pred: Arc::clone(&guarded.pred),
                pred_args: guarded.pred_args.clone(),
                then: Arc::clone(&guarded.then),
                then_args: guarded.then_args.clone(),
            })),
            Call::Count { counter, n } => Call::Count {
                counter: *counter,
                n: *n,
            },
        }
    }
}

impl<T> fmt::Debug for Call<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Call::Plain { args, .. } => f.debug_struct("Plain").field("args", args).finish(),
            Call::IfThen(guarded) => f
                .debug_struct("IfThen")
                .field("pred_args", &guarded.pred_args)
                .field("then_args", &guarded.then_args)
                .finish(),
            Call::Count { n, .. } => f.debug_struct("Count").field("n", n).finish(),
        }
    }
}

/// Collects instrumentation for one trace while a tool's
/// `instrument_trace` hook runs.
///
/// An inserter can serve one trace after another: the compiler drains
/// its calls ([`CodeCache::compile`](crate::CodeCache::compile)) and
/// keeps its capacity and its counter accessors. An engine owns one, so
/// instrumenting a trace allocates neither a call list nor an accessor
/// once it is warm.
pub struct Inserter<T> {
    calls: Calls<T>,
    /// The counter accessors [`Call::Count`] indexes, one per distinct
    /// counter, so the compiler folds consecutive counts to the same
    /// counter by index. Each is found again by its [`CounterId`].
    counters: Vec<(CounterId, CounterFn<T>)>,
}

/// An inserter's calls: each with the address and point it attaches
/// to, in the order the tool inserted them.
pub(crate) type Calls<T> = Vec<(u64, IPoint, Call<T>)>;

/// Which counter an accessor projects to: the address of the counter
/// `fn` handed to [`insert_count`](Inserter::insert_count), the same in
/// every engine. Two accessors with equal ids write the same `u64` of
/// any one tool, whichever inserter boxed them, so the engine adds
/// counts bound for either into one pending run (see
/// [`CompiledTrace::counters`](crate::CompiledTrace)).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct CounterId(pub(crate) usize);

impl CounterId {
    /// Names no counter: no `fn` lives at address 0.
    pub(crate) const NONE: CounterId = CounterId(0);
}

impl<T> Default for Inserter<T> {
    fn default() -> Inserter<T> {
        Inserter {
            calls: Vec::new(),
            counters: Vec::new(),
        }
    }
}

impl<T> Clone for Inserter<T> {
    fn clone(&self) -> Inserter<T> {
        Inserter {
            calls: self.calls.clone(),
            counters: self.counters.clone(),
        }
    }
}

impl<T> Inserter<T> {
    /// The collected calls, for the compiler to order and drain, and
    /// the counter accessors their counts index.
    pub(crate) fn parts(&mut self) -> (&mut Calls<T>, Counters<'_, T>) {
        (&mut self.calls, Counters(&self.counters))
    }
}

/// An inserter's counter accessors, by the index [`Call::Count`] names.
pub(crate) struct Counters<'a, T>(&'a [(CounterId, CounterFn<T>)]);

impl<'a, T> Counters<'a, T> {
    /// The accessor `index` names, with its id.
    pub(crate) fn get(&self, index: u32) -> &'a (CounterId, CounterFn<T>) {
        &self.0[index as usize]
    }
}

impl<T> fmt::Debug for Inserter<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Inserter")
            .field("calls", &self.calls.len())
            .finish()
    }
}

impl<T: 'static> Inserter<T> {
    /// Creates an empty inserter.
    pub fn new() -> Inserter<T> {
        Inserter::default()
    }

    /// Inserts an unconditional analysis call at `addr`
    /// (`INS_InsertCall`).
    pub fn insert_call(
        &mut self,
        addr: u64,
        point: IPoint,
        func: impl Fn(&mut T, &CallCtx<'_>, &mut EngineCtl) + Send + Sync + 'static,
        args: Vec<IArg>,
    ) {
        self.calls.push((
            addr,
            point,
            Call::Plain {
                func: Arc::new(func),
                args,
            },
        ));
    }

    /// Inserts an if/then guarded pair at `addr`
    /// (`INS_InsertIfCall` + `INS_InsertThenCall`). The predicate is
    /// charged as a cheap inlined check; the then-call is only charged
    /// (and run) when the predicate returns `true`.
    pub fn insert_if_then_call(
        &mut self,
        addr: u64,
        point: IPoint,
        pred: impl Fn(&mut T, &CallCtx<'_>) -> bool + Send + Sync + 'static,
        pred_args: Vec<IArg>,
        then: impl Fn(&mut T, &CallCtx<'_>, &mut EngineCtl) + Send + Sync + 'static,
        then_args: Vec<IArg>,
    ) {
        self.calls.push((
            addr,
            point,
            Call::IfThen(Box::new(Guarded {
                pred: Arc::new(pred),
                pred_args,
                then: Arc::new(then),
                then_args,
            })),
        ));
    }

    /// Inserts an inlined counter increment at `addr`: each execution
    /// adds `n` to the `u64` that `counter` projects the tool onto. This
    /// is the shape Pin inlines — icount's `docount` — instead of
    /// calling it.
    ///
    /// The simulated charge is that of a plain call with no arguments
    /// (the flat `analysis_call`), and it counts as one
    /// [`analysis_calls`](crate::EngineStats::analysis_calls); only the
    /// host side changes. Within a trace, between any other analysis
    /// routine, a count to a different counter and a trace exit, the
    /// counts a trace executes are fixed, so
    /// [`CodeCache::compile`](crate::CodeCache::compile) sums them: one
    /// write right before the routine or at the switch, and at each trace
    /// exit the sum still open there. The engine adds each exit's sum to
    /// one pending run and writes it to the counter only at a *flush
    /// point*: before any other analysis routine, before a trace is
    /// compiled or adopted (`instrument_trace` may read the tool), and on
    /// every return from [`Engine::run`](crate::Engine::run), an error
    /// included. The executor does no per-instruction work for a count,
    /// and every other routine, syscall hook, slice merge and checkpoint
    /// sees exactly the count a per-instruction closure would have
    /// produced. The one exception is the slice-boundary detector
    /// ([`Engine::detect_boundary`](crate::Engine::detect_boundary)),
    /// which runs with counts still pending.
    ///
    /// `counter` must be a pure projection: it may run once per flush,
    /// not once per execution, and the engine writes a run of counts
    /// through any accessor that names the same `fn` — possibly one a
    /// peer engine boxed. A counter whose target depends on a value
    /// (say, a table indexed by opcode) or a routine that does more than
    /// add stays an [`insert_call`](Inserter::insert_call).
    pub fn insert_count(
        &mut self,
        addr: u64,
        point: IPoint,
        n: u64,
        counter: fn(&mut T) -> &mut u64,
    ) {
        // One accessor per distinct counter `fn`, boxed the first time.
        let id = CounterId(counter as usize);
        let known = self.counters.iter().position(|(known, _)| *known == id);
        let index = known.unwrap_or_else(|| {
            self.counters.push((id, Arc::new(counter)));
            self.counters.len() - 1
        });
        let index = u32::try_from(index).expect("counters fit u32");
        self.calls
            .push((addr, point, Call::Count { counter: index, n }));
    }

    /// Number of calls collected.
    pub fn len(&self) -> usize {
        self.calls.len()
    }

    /// Whether no calls were collected.
    pub fn is_empty(&self) -> bool {
        self.calls.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct Counter {
        hits: u64,
    }

    #[test]
    fn collects_calls_in_order() {
        let mut inserter: Inserter<Counter> = Inserter::new();
        inserter.insert_call(0x10, IPoint::Before, |t, _, _| t.hits += 1, vec![]);
        inserter.insert_if_then_call(
            0x18,
            IPoint::After,
            |_, _| true,
            vec![IArg::InstPtr],
            |t, _, _| t.hits += 10,
            vec![],
        );
        assert_eq!(inserter.len(), 2);
        let (calls, _) = inserter.parts();
        assert_eq!(calls[0].0, 0x10);
        assert!(matches!(calls[1].2, Call::IfThen(_)));
    }

    #[test]
    fn counts_share_one_accessor_per_counter_fn() {
        #[derive(Default)]
        struct Two {
            a: u64,
            b: u64,
        }
        let a: fn(&mut Two) -> &mut u64 = |t| &mut t.a;
        let b: fn(&mut Two) -> &mut u64 = |t| &mut t.b;
        let mut inserter: Inserter<Two> = Inserter::new();
        let drained = |inserter: &mut Inserter<Two>| {
            let (calls, counters) = inserter.parts();
            calls
                .drain(..)
                .map(|(_, _, call)| match call {
                    Call::Count { counter, n } => (Arc::clone(&counters.get(counter).1), n),
                    other => panic!("not a count: {other:?}"),
                })
                .collect::<Vec<(CounterFn<Two>, u64)>>()
        };
        inserter.insert_count(0x10, IPoint::Before, 1, a);
        inserter.insert_count(0x18, IPoint::Before, 2, b);
        inserter.insert_count(0x18, IPoint::After, 3, a);
        let counters = drained(&mut inserter);
        // One accessor per counter `fn`, shared by its counts.
        assert!(Arc::ptr_eq(&counters[0].0, &counters[2].0));
        assert!(!Arc::ptr_eq(&counters[0].0, &counters[1].0));
        let mut two = Two::default();
        for (counter, n) in &counters {
            *counter(&mut two) += n;
        }
        assert_eq!((two.a, two.b), (4, 2));

        // The next trace through the same inserter reuses the accessor.
        inserter.insert_count(0x20, IPoint::Before, 5, b);
        let next = drained(&mut inserter);
        assert!(Arc::ptr_eq(&next[0].0, &counters[1].0));
    }

    #[test]
    fn engine_ctl_accumulates() {
        let mut ctl = EngineCtl::default();
        assert!(!ctl.stop_requested());
        ctl.charge_cycles(3);
        ctl.charge_cycles(4);
        ctl.request_stop();
        assert!(ctl.stop_requested());
        assert_eq!(ctl.extra_cycles(), 7);
    }

    #[test]
    fn call_ctx_arg_is_total() {
        let ctx = CallCtx { pc: 0, args: &[9] };
        assert_eq!(ctx.arg(0), 9);
        assert_eq!(ctx.arg(5), 0);
    }
}
