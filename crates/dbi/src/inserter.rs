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

/// The counter `fn` a tool hands to [`Inserter::insert_count`].
type CounterPtr<T> = fn(&mut T) -> &mut u64;

/// Boxes a closure as a [`CounterFn`]. The bound is what gives the
/// closure its higher-ranked signature (the returned borrow lives as
/// long as the argument's).
fn counter_fn<T>(accessor: impl Fn(&mut T) -> &mut u64 + Send + Sync + 'static) -> CounterFn<T> {
    Arc::new(accessor)
}

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
    /// for signature detection).
    IfThen {
        /// The inlined quick predicate.
        pred: PredicateFn<T>,
        /// Predicate arguments.
        pred_args: Vec<IArg>,
        /// The expensive guarded routine.
        then: AnalysisFn<T>,
        /// Then-call arguments.
        then_args: Vec<IArg>,
    },
    /// [`Inserter::insert_count`]: add `n` to the counter `counter`
    /// projects to.
    Count {
        /// The counter accessor.
        counter: CounterFn<T>,
        /// What each execution adds.
        n: u64,
    },
}

impl<T> Clone for Call<T> {
    fn clone(&self) -> Call<T> {
        match self {
            Call::Plain { func, args } => Call::Plain {
                func: Arc::clone(func),
                args: args.clone(),
            },
            Call::IfThen {
                pred,
                pred_args,
                then,
                then_args,
            } => Call::IfThen {
                pred: Arc::clone(pred),
                pred_args: pred_args.clone(),
                then: Arc::clone(then),
                then_args: then_args.clone(),
            },
            Call::Count { counter, n } => Call::Count {
                counter: Arc::clone(counter),
                n: *n,
            },
        }
    }
}

impl<T> fmt::Debug for Call<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Call::Plain { args, .. } => f.debug_struct("Plain").field("args", args).finish(),
            Call::IfThen {
                pred_args,
                then_args,
                ..
            } => f
                .debug_struct("IfThen")
                .field("pred_args", pred_args)
                .field("then_args", then_args)
                .finish(),
            Call::Count { n, .. } => f.debug_struct("Count").field("n", n).finish(),
        }
    }
}

/// Collects instrumentation for one trace while a tool's
/// `instrument_trace` hook runs.
pub struct Inserter<T> {
    calls: Vec<(u64, IPoint, Call<T>)>,
    /// One shared accessor per distinct counter `fn` handed to
    /// [`insert_count`](Inserter::insert_count), so the executor can
    /// tell consecutive counts to the same counter apart by pointer.
    counters: Vec<(CounterPtr<T>, CounterFn<T>)>,
}

impl<T> Default for Inserter<T> {
    fn default() -> Inserter<T> {
        Inserter {
            calls: Vec::new(),
            counters: Vec::new(),
        }
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
            Call::IfThen {
                pred: Arc::new(pred),
                pred_args,
                then: Arc::new(then),
                then_args,
            },
        ));
    }

    /// Inserts an inlined counter increment at `addr`: each execution
    /// adds `n` to the `u64` that `counter` projects the tool onto. This
    /// is the shape Pin inlines — icount's `docount` — instead of
    /// calling it.
    ///
    /// The simulated charge is that of a plain call with no arguments
    /// (`analysis_call_base` plus one save/restore per preserved
    /// register), and it counts as one
    /// [`analysis_calls`](crate::EngineStats::analysis_calls); only the
    /// host side changes. The engine keeps the running sum in a register
    /// and writes it to the counter before any other analysis routine
    /// runs and whenever execution of the trace ends for any reason, so
    /// every other routine, syscall hook, `fini` and checkpoint sees
    /// exactly the count a per-instruction closure would have produced.
    /// Counts to the same counter between two such points cost one
    /// dynamic call in total.
    ///
    /// `counter` must be a pure projection: it may run once per flush,
    /// not once per execution. A counter whose target depends on a value
    /// (say, a table indexed by opcode) or a routine that does more than
    /// add stays an [`insert_call`](Inserter::insert_call).
    pub fn insert_count(
        &mut self,
        addr: u64,
        point: IPoint,
        n: u64,
        counter: fn(&mut T) -> &mut u64,
    ) {
        let known = self
            .counters
            .iter()
            .find(|(known, _)| std::ptr::fn_addr_eq(*known, counter));
        let counter = match known {
            Some((_, shared)) => Arc::clone(shared),
            None => {
                let shared = counter_fn(counter);
                self.counters.push((counter, Arc::clone(&shared)));
                shared
            }
        };
        self.calls.push((addr, point, Call::Count { counter, n }));
    }

    /// Number of calls collected.
    pub fn len(&self) -> usize {
        self.calls.len()
    }

    /// Whether no calls were collected.
    pub fn is_empty(&self) -> bool {
        self.calls.is_empty()
    }

    /// Drains the collected calls (used by the compiler).
    pub(crate) fn into_calls(self) -> Vec<(u64, IPoint, Call<T>)> {
        self.calls
    }

    /// Re-homes every call collected for an inner tool type `U` onto this
    /// inserter's tool type `T`, through a projection.
    ///
    /// This is how wrapper tools compose: SuperPin's slice wrapper runs
    /// the user tool's `instrument_trace` into an `Inserter<U>`, then
    /// absorbs it so the user's analysis routines see `&mut U` while the
    /// engine drives `&mut T`. Each distinct counter accessor is composed
    /// with `project` once, so counts stay one dynamic call per flush.
    pub fn absorb<U: 'static>(&mut self, inner: Inserter<U>, project: fn(&mut T) -> &mut U) {
        let mut composed: Vec<(CounterFn<U>, CounterFn<T>)> = Vec::new();
        for (addr, point, call) in inner.into_calls() {
            let mapped = match call {
                Call::Plain { func, args } => Call::Plain {
                    func: Arc::new(move |t: &mut T, ctx: &CallCtx<'_>, ctl: &mut EngineCtl| {
                        func(project(t), ctx, ctl)
                    }) as AnalysisFn<T>,
                    args,
                },
                Call::IfThen {
                    pred,
                    pred_args,
                    then,
                    then_args,
                } => Call::IfThen {
                    pred: Arc::new(move |t: &mut T, ctx: &CallCtx<'_>| pred(project(t), ctx))
                        as PredicateFn<T>,
                    pred_args,
                    then: Arc::new(move |t: &mut T, ctx: &CallCtx<'_>, ctl: &mut EngineCtl| {
                        then(project(t), ctx, ctl)
                    }) as AnalysisFn<T>,
                    then_args,
                },
                Call::Count { counter, n } => {
                    let known = composed
                        .iter()
                        .find(|(inner, _)| Arc::ptr_eq(inner, &counter));
                    let counter = match known {
                        Some((_, outer)) => Arc::clone(outer),
                        None => {
                            let accessor = Arc::clone(&counter);
                            let outer = counter_fn(move |t: &mut T| accessor(project(t)));
                            composed.push((counter, Arc::clone(&outer)));
                            outer
                        }
                    };
                    Call::Count { counter, n }
                }
            };
            self.calls.push((addr, point, mapped));
        }
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
        let calls = inserter.into_calls();
        assert_eq!(calls[0].0, 0x10);
        assert!(matches!(calls[1].2, Call::IfThen { .. }));
    }

    #[test]
    fn absorb_projects_inner_tool() {
        struct Wrapper {
            inner: Counter,
            own: u64,
        }
        let mut inner: Inserter<Counter> = Inserter::new();
        inner.insert_call(0x10, IPoint::Before, |t, _, _| t.hits += 5, vec![]);

        let mut outer: Inserter<Wrapper> = Inserter::new();
        outer.insert_call(0x10, IPoint::Before, |t, _, _| t.own += 1, vec![]);
        outer.absorb(inner, |w| &mut w.inner);
        assert_eq!(outer.len(), 2);

        let mut wrapper = Wrapper {
            inner: Counter::default(),
            own: 0,
        };
        let ctx = CallCtx {
            pc: 0x10,
            args: &[],
        };
        let mut ctl = EngineCtl::default();
        for (_, _, call) in outer.into_calls() {
            if let Call::Plain { func, .. } = call {
                func(&mut wrapper, &ctx, &mut ctl);
            }
        }
        assert_eq!(wrapper.own, 1);
        assert_eq!(wrapper.inner.hits, 5);
    }

    #[test]
    fn counts_share_one_accessor_per_counter_and_absorb_composes_it_once() {
        #[derive(Default)]
        struct Two {
            a: u64,
            b: u64,
        }
        struct Wrapper {
            inner: Two,
        }
        let a: fn(&mut Two) -> &mut u64 = |t| &mut t.a;
        let mut inner: Inserter<Two> = Inserter::new();
        inner.insert_count(0x10, IPoint::Before, 1, a);
        inner.insert_count(0x18, IPoint::Before, 2, |t| &mut t.b);
        inner.insert_count(0x18, IPoint::After, 3, a);
        let mut outer: Inserter<Wrapper> = Inserter::new();
        outer.absorb(inner, |w| &mut w.inner);

        let counters: Vec<(CounterFn<Wrapper>, u64)> = outer
            .into_calls()
            .into_iter()
            .map(|(_, _, call)| match call {
                Call::Count { counter, n } => (counter, n),
                other => panic!("not a count: {other:?}"),
            })
            .collect();
        // One composed accessor per counter `fn`, shared by its counts.
        assert!(Arc::ptr_eq(&counters[0].0, &counters[2].0));
        assert!(!Arc::ptr_eq(&counters[0].0, &counters[1].0));
        let mut wrapper = Wrapper {
            inner: Two::default(),
        };
        for (counter, n) in &counters {
            *counter(&mut wrapper) += n;
        }
        assert_eq!((wrapper.inner.a, wrapper.inner.b), (4, 2));
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
