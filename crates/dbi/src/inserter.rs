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
    /// for signature detection). Boxed, so the call kinds a trace holds
    /// many of stay small to collect and move.
    IfThen(Box<Guarded<T>>),
    /// [`Inserter::insert_count`]: add `n` to the counter the
    /// inserter's `counter`-th accessor projects to. Counts name their
    /// accessor by index, so collecting, absorbing and compiling one
    /// moves no reference count.
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
/// [`absorb`](Inserter::absorb) drains the inner one's, and both keep
/// their capacity and their counter accessors. An engine and the slice
/// wrapper each own one, so instrumenting a trace allocates neither a
/// call list nor an accessor once they are warm.
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

/// Which counter an accessor projects to. Two accessors with equal ids
/// write the same `u64` of any one tool, whichever inserter composed
/// them, so the engine adds counts bound for either into one pending
/// run (see [`CompiledTrace::counters`](crate::CompiledTrace)). Two
/// words, compared at every trace exit that settles counts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct CounterId {
    /// The address of the counter `fn` handed to
    /// [`insert_count`](Inserter::insert_count): the same in every
    /// engine. For an accessor absorbed twice (a wrapper of a wrapper),
    /// the address of the composed accessor it was absorbed from,
    /// private to the inserter that composed it: that accessor is held
    /// by the one composed over it, so no other can take its address
    /// while either lives, and a heap address is never a `fn`'s.
    counter: usize,
    /// The [`absorb`](Inserter::absorb) projection's address; 0 for a
    /// counter inserted directly.
    projection: usize,
}

impl CounterId {
    /// Names no counter: no `fn` or allocation lives at address 0.
    pub(crate) const NONE: CounterId = CounterId {
        counter: 0,
        projection: 0,
    };
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
    /// The index of the accessor `id` names, made by `make` the first
    /// time.
    fn counter(&mut self, id: CounterId, make: impl FnOnce() -> CounterFn<T>) -> u32 {
        let known = self.counters.iter().position(|(known, _)| *known == id);
        let index = known.unwrap_or_else(|| {
            self.counters.push((id, make()));
            self.counters.len() - 1
        });
        u32::try_from(index).expect("counters fit u32")
    }

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
    /// produced. The one exception is
    /// [`Pintool::probe_boundary`](crate::Pintool::probe_boundary), which
    /// runs with counts still pending.
    ///
    /// `counter` must be a pure projection: it may run once per flush,
    /// not once per execution, and the engine writes a run of counts
    /// through any accessor that names the same `fn` and projection —
    /// possibly one a peer engine's wrapper composed. A counter whose
    /// target depends on a value (say, a table indexed by opcode) or a
    /// routine that does more than add stays an
    /// [`insert_call`](Inserter::insert_call).
    pub fn insert_count(
        &mut self,
        addr: u64,
        point: IPoint,
        n: u64,
        counter: fn(&mut T) -> &mut u64,
    ) {
        let id = CounterId {
            counter: counter as usize,
            projection: 0,
        };
        let index = self.counter(id, || counter_fn(counter));
        self.calls
            .push((addr, point, Call::Count { counter: index, n }));
    }

    /// Makes room for `additional` more calls, so a tool that knows how
    /// many it will insert grows the list once.
    pub fn reserve(&mut self, additional: usize) {
        self.calls.reserve(additional);
    }

    /// Number of calls collected.
    pub fn len(&self) -> usize {
        self.calls.len()
    }

    /// Whether no calls were collected.
    pub fn is_empty(&self) -> bool {
        self.calls.is_empty()
    }

    /// Moves every call collected for an inner tool type `U` onto this
    /// inserter's tool type `T`, through a projection, leaving `inner`
    /// empty for the next trace.
    ///
    /// This is how wrapper tools compose: SuperPin's slice wrapper runs
    /// the user tool's `instrument_trace` into an `Inserter<U>`, then
    /// absorbs it so the user's analysis routines see `&mut U` while the
    /// engine drives `&mut T`. Each distinct counter accessor is composed
    /// with `project` once and kept, so the compiler still folds the
    /// absorbed counts per counter. Its id is the tool's counter `fn` and
    /// `project`, the same in every wrapper that absorbs that tool, so
    /// an engine running its own traces and templates adopted from a
    /// peer settles their counts into one pending run. A flush through a
    /// composed accessor is a chain of four indirect calls: the composed
    /// closure, `project`, the inner `Arc<dyn Fn>`, and the tool's `fn`.
    pub fn absorb<U: 'static>(&mut self, inner: &mut Inserter<U>, project: fn(&mut T) -> &mut U) {
        self.calls.reserve(inner.calls.len());
        for (addr, point, call) in inner.calls.drain(..) {
            let mapped = match call {
                Call::Plain { func, args } => Call::Plain {
                    func: Arc::new(move |t: &mut T, ctx: &CallCtx<'_>, ctl: &mut EngineCtl| {
                        func(project(t), ctx, ctl)
                    }) as AnalysisFn<T>,
                    args,
                },
                Call::IfThen(guarded) => {
                    let Guarded {
                        pred,
                        pred_args,
                        then,
                        then_args,
                    } = *guarded;
                    Call::IfThen(Box::new(Guarded {
                        pred: Arc::new(move |t: &mut T, ctx: &CallCtx<'_>| pred(project(t), ctx))
                            as PredicateFn<T>,
                        pred_args,
                        then: Arc::new(move |t: &mut T, ctx: &CallCtx<'_>, ctl: &mut EngineCtl| {
                            then(project(t), ctx, ctl)
                        }) as AnalysisFn<T>,
                        then_args,
                    }))
                }
                Call::Count { counter, n } => {
                    let (inner_id, accessor) = &inner.counters[counter as usize];
                    let id = CounterId {
                        counter: match inner_id.projection {
                            0 => inner_id.counter,
                            _ => Arc::as_ptr(accessor).cast::<()>() as usize,
                        },
                        projection: project as usize,
                    };
                    let counter = self.counter(id, || {
                        let accessor = Arc::clone(accessor);
                        counter_fn(move |t: &mut T| accessor(project(t)))
                    });
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
        let (calls, _) = inserter.parts();
        assert_eq!(calls[0].0, 0x10);
        assert!(matches!(calls[1].2, Call::IfThen(_)));
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
        outer.absorb(&mut inner, |w| &mut w.inner);
        assert_eq!(outer.len(), 2);
        assert!(inner.is_empty(), "absorbing drains the inner inserter");

        let mut wrapper = Wrapper {
            inner: Counter::default(),
            own: 0,
        };
        let ctx = CallCtx {
            pc: 0x10,
            args: &[],
        };
        let mut ctl = EngineCtl::default();
        for (_, _, call) in outer.parts().0.drain(..) {
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
        let b: fn(&mut Two) -> &mut u64 = |t| &mut t.b;
        let mut inner: Inserter<Two> = Inserter::new();
        let mut outer: Inserter<Wrapper> = Inserter::new();
        let mut absorbed = |inner: &mut Inserter<Two>| {
            outer.absorb(inner, |w| &mut w.inner);
            let (calls, counters) = outer.parts();
            calls
                .drain(..)
                .map(|(_, _, call)| match call {
                    Call::Count { counter, n } => (Arc::clone(&counters.get(counter).1), n),
                    other => panic!("not a count: {other:?}"),
                })
                .collect::<Vec<(CounterFn<Wrapper>, u64)>>()
        };
        inner.insert_count(0x10, IPoint::Before, 1, a);
        inner.insert_count(0x18, IPoint::Before, 2, b);
        inner.insert_count(0x18, IPoint::After, 3, a);
        let counters = absorbed(&mut inner);
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

        // The next trace through the same pair of inserters reuses both
        // accessors.
        inner.insert_count(0x20, IPoint::Before, 5, b);
        let next = absorbed(&mut inner);
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
