//! The run's nondeterministic surface, as recordable events (rr-style
//! record/replay, PAPERS.md: "Engineering Record And Replay For
//! Deployability").
//!
//! The SuperPin simulation is deterministic by construction — every
//! scheduling decision happens on the supervisor thread in a fixed
//! order, so a report is bit-identical for any `--threads N`. What this
//! module captures is the *decision stream* at the points where a live
//! run consults something other than pure guest state: syscall effects
//! (kernel results and guest input bytes), epoch plans, governed fork
//! admissions with their eviction-ladder actions, and the supervision
//! ledger that chaos recovery accumulates. In [`RunMode::Record`] the
//! runner appends each event as it makes the decision; in
//! [`RunMode::Replay`] it takes the recorded decisions back in the same
//! order, *substituted* for the live ones, so a replayed run re-executes
//! from the log alone.
//!
//! Fault-injection firings are deliberately **not** individual events:
//! a firing is a pure function of `(FailPlan, site, key)`, so the log's
//! header stores the serialized plan (see `FailPlan::encode`) and that
//! is the whole schedule. Replay runs with injection disarmed — every
//! recovery is state-invisible by the chaos suite's contract — and the
//! recorded [`NondetEvent::FaultLedger`] substitutes the two counters
//! (`slice_retries`, `slices_degraded`) that recovery legitimately
//! perturbs, which is also what makes a run recorded at `--threads 4`
//! under chaos replay bit-identically at `--threads 1`: worker-death
//! firings are keyed on worker index and would not recur.

use crate::error::SpError;
use crate::report::SliceReport;
use std::collections::VecDeque;
use superpin_isa::NUM_REGS;
use superpin_vm::kernel::SyscallRecord;

/// Outcome of the memory governor's admission check for one fork.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdmissionDecision {
    /// The fork fits the budget (possibly after walking the eviction
    /// ladder).
    Admit,
    /// Over budget with nothing left to evict and nothing running that
    /// could free memory by completing: admit the fork but pin the new
    /// slice to inline serial execution (ladder rung 3).
    AdmitDegraded,
    /// Over budget while live slices can still complete and free their
    /// footprint: stall the master and re-check at a later barrier.
    Defer,
}

/// One recorded decision from the run's nondeterministic surface.
#[derive(Clone, Debug, PartialEq)]
pub enum NondetEvent {
    /// The complete architectural effect of one master syscall — the
    /// kernel's return value, guest input bytes written, address-space
    /// operations, register writes, and exit status. On replay the
    /// record is *applied* to the guest (after verifying the number and
    /// arguments still match) instead of re-executing the kernel.
    Syscall(SyscallRecord),
    /// The epoch planner's decision: how many quanta the next epoch
    /// spans. Substituted verbatim on replay, which makes the event the
    /// natural channel for intentionally perturbing a log in divergence
    /// tests.
    EpochPlan {
        /// Quanta planned for the epoch (clamped to at least 1).
        planned: u64,
    },
    /// A governed fork-admission decision together with the eviction
    /// ladder's actions: which Done-slice checkpoints were dropped
    /// (rung 1) and which slice code caches were flushed (rung 2), in
    /// ladder order. Recorded only when a memory governor is armed.
    Admission {
        /// The final admission outcome.
        decision: AdmissionDecision,
        /// Slice numbers whose retained checkpoints were dropped.
        dropped: Vec<u32>,
        /// Slice numbers whose code caches were evicted.
        evicted: Vec<u32>,
    },
    /// The supervision ledger at run end: retries and degradations that
    /// chaos recovery charged. Host-thread-dependent under worker-death
    /// injection, hence recorded and substituted rather than recomputed.
    FaultLedger {
        /// Condemnations plus transient retries charged.
        slice_retries: u64,
        /// Slices degraded to inline serial execution by the supervisor.
        slices_degraded: u64,
    },
}

impl NondetEvent {
    /// A short stable name for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            NondetEvent::Syscall(_) => "syscall",
            NondetEvent::EpochPlan { .. } => "epoch-plan",
            NondetEvent::Admission { .. } => "admission",
            NondetEvent::FaultLedger { .. } => "fault-ledger",
        }
    }
}

/// How the runner treats the nondeterministic surface. The mode holds
/// the events themselves, and the runner hands a recording back through
/// [`take_recording`](RunMode::take_recording).
#[derive(Debug, Default)]
pub enum RunMode {
    /// Make every decision live (the default; zero overhead).
    #[default]
    Live,
    /// Make decisions live and append each one, in decision order.
    Record(Vec<NondetEvent>),
    /// Substitute recorded decisions, front first, for live ones.
    Replay(VecDeque<NondetEvent>),
}

impl RunMode {
    /// The record side of a decision point: appends `event()` to the
    /// recording; free in every other mode (the event is never built).
    pub fn record(&mut self, event: impl FnOnce() -> NondetEvent) {
        if let RunMode::Record(events) = self {
            events.push(event());
        }
    }

    /// Takes the events recorded so far; empty in any other mode.
    pub fn take_recording(&mut self) -> Vec<NondetEvent> {
        match self {
            RunMode::Record(events) => std::mem::take(events),
            _ => Vec::new(),
        }
    }

    /// The replay side of a decision point: `None` unless replaying,
    /// otherwise the next logged event as unwrapped by `pick`, which
    /// answers `None` to any event but the `want`ed kind ("a syscall").
    /// `at` says where the run stands, for the error.
    ///
    /// # Errors
    ///
    /// [`SpError::ReplayDivergence`] when the log holds another kind of
    /// event here, or nothing more at all.
    pub fn replayed<V>(
        &mut self,
        context: &'static str,
        want: &str,
        at: &dyn std::fmt::Display,
        pick: impl FnOnce(NondetEvent) -> Option<V>,
    ) -> Option<Result<V, SpError>> {
        let RunMode::Replay(events) = self else {
            return None;
        };
        let detail = match events.pop_front() {
            Some(event) => {
                let kind = event.kind();
                match pick(event) {
                    Some(value) => return Some(Ok(value)),
                    None => format!("expected {want} record at {at}, log has a {kind} event"),
                }
            }
            None => format!("log exhausted at {at}"),
        };
        Some(Err(SpError::ReplayDivergence { context, detail }))
    }
}

/// One live slice's architectural state at an epoch barrier.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SliceProbe {
    /// Slice number.
    pub num: u32,
    /// Instructions the slice has executed.
    pub insts: u64,
    /// The slice's guest pc.
    pub pc: u64,
    /// Order-independent digest of the slice's guest memory contents.
    pub mem_digest: u64,
}

/// A snapshot of the whole run's observable state at an epoch barrier,
/// from [`SuperPinRunner::probe`](crate::SuperPinRunner::probe). The
/// divergence differ compares probes of two lockstep replays epoch by
/// epoch to bisect the first divergence to an instruction range.
#[derive(Clone, Debug, PartialEq)]
pub struct RunProbe {
    /// Virtual time in cycles.
    pub now: u64,
    /// Epochs executed so far.
    pub epochs: u64,
    /// The scheduling quantum in cycles (fixed per run; lets probe
    /// consumers convert cycle windows to quantum indices).
    pub quantum: u64,
    /// Whether the master has exited.
    pub master_exited: bool,
    /// Master instructions executed.
    pub master_insts: u64,
    /// Master guest pc.
    pub master_pc: u64,
    /// The master's full register file.
    pub master_regs: [u64; NUM_REGS],
    /// Digest of the master's guest memory contents.
    pub master_mem_digest: u64,
    /// Per-slice probes for every live (unmerged) slice, in fork order.
    pub slices: Vec<SliceProbe>,
    /// Reports of slices already merged, in slice order (merged slices
    /// leave the live set, so lockstep comparison needs their finals).
    pub merged: Vec<SliceReport>,
}
