//! Slice supervision: checkpoints, replay journals, watchdog state, and
//! the bounded retry → degrade ladder (see DESIGN.md §4.8).
//!
//! The supervisor's contract is **bit-identical recovery**: a slice that
//! is condemned (injected fault, runaway, lost worker) is rebuilt by
//! cloning its wake-time checkpoint and replaying the exact epoch
//! schedule it already received — same budgets, same quantum timestamps,
//! same trace registries — with fault injection off. Because every
//! simulated quantity is a pure function of that schedule, the rebuilt
//! slice is field-by-field identical to one that never faulted; the only
//! trace recovery leaves in the report is the
//! [`slice_retries`](crate::report::SuperPinReport::slice_retries) /
//! [`slices_degraded`](crate::report::SuperPinReport::slices_degraded)
//! counters.

use crate::api::SuperTool;
use crate::error::SpError;
use crate::slice::{SliceRuntime, SpSliceTool};
use std::collections::HashMap;
use std::sync::Arc;
use superpin_dbi::TraceRegistry;
use superpin_sched::{watchdog_deadline_quanta, SliceEta};

/// One step of a slice's deterministic epoch schedule, recorded by the
/// runner as it dispatches work and replayed verbatim on recovery.
pub enum ReplayStep<T: SuperTool> {
    /// One epoch of instrumented execution
    /// ([`SliceRuntime::advance_epoch`] with exactly these arguments).
    Advance {
        /// Per-quantum cycle budget the scheduler granted.
        budget: u64,
        /// Quanta in the (possibly truncated) epoch.
        quanta: u64,
        /// Virtual time at the epoch's start.
        epoch_start: u64,
        /// Quantum length in cycles.
        quantum: u64,
    },
    /// An epoch barrier: fresh traces drained (the condemned incarnation
    /// already published them, and a registry entry is never replaced)
    /// and this registry installed for the next epoch.
    Snapshot(Arc<TraceRegistry<SpSliceTool<T>>>),
    /// The memory governor flushed this slice's code cache at a barrier.
    /// Eviction changes cycle accounting (re-execution recompiles at
    /// full JIT cost), so a rebuilt slice must replay it at the same
    /// point in its schedule to stay bit-identical.
    EvictCache,
}

/// Outcome of condemning a slice.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Rebuild and re-arm injection with this salt (fresh fault
    /// schedule, so the retry cannot re-hit the fault that condemned it).
    Retry {
        /// Salt for [`SliceRuntime::arm_chaos`].
        salt: u64,
    },
    /// Retry budget exhausted: rebuild injection-free and pin the slice
    /// to the supervisor thread for the rest of its life.
    Degrade,
    /// The slice already failed while degraded — a genuine defect.
    Unrecoverable,
}

/// Per-slice recovery state, created when the slice wakes (its boundary,
/// records, and split point are final from that moment on).
struct SliceGuard<T: SuperTool> {
    /// Injection-free deep copy of the slice at wake. `None` after the
    /// memory governor's eviction ladder reclaimed it — the slice can no
    /// longer be rebuilt, which is why the ladder only drops checkpoints
    /// of committed ([`Done`](crate::slice::SliceState::Done)) slices.
    checkpoint: Option<SliceRuntime<T>>,
    /// Epoch schedule delivered since the checkpoint.
    journal: Vec<ReplayStep<T>>,
    /// Quanta of execution granted since wake (watchdog clock).
    quanta_since_wake: u64,
    /// Watchdog deadline in quanta-since-wake, fixed at the first
    /// dispatch from the epoch planner's completion prediction.
    deadline: Option<u64>,
    retries: u32,
    degraded: bool,
}

/// Tracks every woken slice's checkpoint + journal and owns the retry
/// accounting surfaced in the report.
pub struct SliceSupervisor<T: SuperTool> {
    guards: HashMap<u32, SliceGuard<T>>,
    watchdog_factor: u64,
    max_retries: u32,
    /// Condemnations repaired by checkpoint replay (plus transient fork
    /// and publish retries).
    pub slice_retries: u64,
    /// Slices that exhausted the retry budget and run pinned + disarmed.
    pub slices_degraded: u64,
}

impl<T: SuperTool> SliceSupervisor<T> {
    /// A supervisor with no guards yet.
    pub fn new(watchdog_factor: u64, max_retries: u32) -> SliceSupervisor<T> {
        SliceSupervisor {
            guards: HashMap::new(),
            watchdog_factor: watchdog_factor.max(1),
            max_retries,
            slice_retries: 0,
            slices_degraded: 0,
        }
    }

    /// Checkpoints a freshly woken slice. Idempotent per slice.
    pub fn guard(&mut self, slice: &SliceRuntime<T>) {
        self.guards
            .entry(slice.num())
            .or_insert_with(|| SliceGuard {
                checkpoint: Some(slice.checkpoint()),
                journal: Vec::new(),
                quanta_since_wake: 0,
                deadline: None,
                retries: 0,
                degraded: false,
            });
    }

    /// Whether this slice is pinned to the supervisor thread.
    pub fn is_degraded(&self, num: u32) -> bool {
        self.guards.get(&num).is_some_and(|guard| guard.degraded)
    }

    /// Whether the slice's watchdog clock has passed its deadline.
    pub fn watchdog_expired(&self, num: u32) -> bool {
        self.guards.get(&num).is_some_and(|guard| {
            guard
                .deadline
                .is_some_and(|deadline| guard.quanta_since_wake > deadline)
        })
    }

    /// Journals one epoch of dispatched work and advances the watchdog
    /// clock. The deadline is pinned on first dispatch: `factor ×` the
    /// planner's completion prediction for the slice (and never less
    /// than `factor` quanta, so fresh slices are never condemned on
    /// their first barrier).
    pub fn journal_advance(
        &mut self,
        num: u32,
        budget: u64,
        quanta: u64,
        epoch_start: u64,
        quantum: u64,
        eta: SliceEta,
    ) {
        let factor = self.watchdog_factor;
        let Some(guard) = self.guards.get_mut(&num) else {
            return;
        };
        if guard.deadline.is_none() {
            guard.deadline =
                Some(guard.quanta_since_wake + watchdog_deadline_quanta(eta, budget, factor));
        }
        guard.quanta_since_wake += quanta;
        guard.journal.push(ReplayStep::Advance {
            budget,
            quanta,
            epoch_start,
            quantum,
        });
    }

    /// Journals the trace registry a barrier handed the slice.
    pub fn journal_snapshot(&mut self, num: u32, registry: Arc<TraceRegistry<SpSliceTool<T>>>) {
        if let Some(guard) = self.guards.get_mut(&num) {
            guard.journal.push(ReplayStep::Snapshot(registry));
        }
    }

    /// Journals a governor-driven code-cache eviction so a later rebuild
    /// replays it at the same point in the schedule.
    pub fn journal_evict(&mut self, num: u32) {
        if let Some(guard) = self.guards.get_mut(&num) {
            guard.journal.push(ReplayStep::EvictCache);
        }
    }

    /// Simulated bytes held by retained checkpoints (each is a full
    /// materialized copy of its slice's address space at wake). Charged
    /// against the memory governor's budget.
    pub fn retained_checkpoint_bytes(&self) -> u64 {
        self.guards
            .values()
            .filter_map(|guard| guard.checkpoint.as_ref())
            .map(|checkpoint| checkpoint.full_resident_bytes())
            .sum()
    }

    /// Reclaims a slice's retained checkpoint (eviction-ladder rung 1).
    /// Returns the simulated bytes freed — 0 when the slice is unguarded
    /// or its checkpoint is already gone. The caller must only drop
    /// checkpoints of slices that can no longer be condemned (committed
    /// `Done` slices awaiting merge); a later
    /// [`rebuild`](SliceSupervisor::rebuild) of this slice fails with
    /// [`SpError::CheckpointDropped`].
    pub fn drop_checkpoint(&mut self, num: u32) -> u64 {
        self.guards
            .get_mut(&num)
            .and_then(|guard| guard.checkpoint.take())
            .map(|checkpoint| checkpoint.full_resident_bytes())
            .unwrap_or(0)
    }

    /// Condemns a slice, charging its retry budget.
    pub fn condemn(&mut self, num: u32) -> Verdict {
        let guard = self
            .guards
            .get_mut(&num)
            .expect("condemned slice is guarded");
        if guard.degraded {
            return Verdict::Unrecoverable;
        }
        guard.retries += 1;
        self.slice_retries += 1;
        if guard.retries > self.max_retries {
            guard.degraded = true;
            self.slices_degraded += 1;
            Verdict::Degrade
        } else {
            Verdict::Retry {
                salt: guard.retries as u64,
            }
        }
    }

    /// Counts a transient non-slice retry (fork or publish failpoint that
    /// was absorbed on the spot).
    pub fn note_transient_retry(&mut self) {
        self.slice_retries += 1;
    }

    /// Rebuilds the slice by replaying its journal over a clone of the
    /// checkpoint, injection off. Deterministic: the result is the state
    /// a fault-free slice would hold at the current barrier.
    ///
    /// # Errors
    ///
    /// Propagates replay errors — with injection off these are genuine
    /// defects (true divergence), which the runner reports as
    /// [`SpError::Unrecoverable`] — and returns
    /// [`SpError::CheckpointDropped`] if the eviction ladder reclaimed
    /// the checkpoint (a supervision bug: only committed slices lose
    /// their checkpoint, and committed slices are never condemned).
    pub fn rebuild(&self, num: u32) -> Result<SliceRuntime<T>, SpError> {
        let guard = self.guards.get(&num).expect("rebuilt slice is guarded");
        let Some(checkpoint) = &guard.checkpoint else {
            return Err(SpError::CheckpointDropped { slice: num });
        };
        let mut slice = checkpoint.clone();
        for step in &guard.journal {
            match step {
                ReplayStep::Advance {
                    budget,
                    quanta,
                    epoch_start,
                    quantum,
                } => slice.advance_epoch(*budget, *quanta, *epoch_start, *quantum)?,
                ReplayStep::Snapshot(registry) => {
                    // Drain compilations the condemned incarnation already
                    // published; mirror its barrier exactly.
                    slice.take_fresh_traces();
                    slice.enter_epoch(Arc::clone(registry));
                }
                ReplayStep::EvictCache => {
                    slice.evict_code_cache();
                }
            }
        }
        Ok(slice)
    }

    /// Drops a merged slice's guard.
    pub fn release(&mut self, num: u32) {
        self.guards.remove(&num);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shared::SharedMem;
    use superpin_dbi::{Inserter, Pintool, Trace};

    #[derive(Clone, Default)]
    struct Nop;
    impl Pintool for Nop {
        fn instrument_trace(&mut self, _: &Trace, _: &mut Inserter<Self>) {}
    }
    impl SuperTool for Nop {
        fn reset(&mut self, _: u32) {}
        fn on_slice_end(&mut self, _: u32, _: &SharedMem) {}
    }

    #[test]
    fn condemn_ladder_retries_then_degrades_then_unrecoverable() {
        let program = superpin_isa::asm::assemble("main:\n exit 0\n").expect("assemble");
        let mut process = superpin_vm::process::Process::load(1, &program).expect("load");
        let bubble = crate::bubble::Bubble::reserve(&mut process.mem).expect("bubble");
        let cfg = crate::config::SuperPinConfig::paper_default();
        let slice = SliceRuntime::spawn(1, &process, &Nop, &bubble, &cfg, 0, None).expect("spawn");

        let mut sup: SliceSupervisor<Nop> = SliceSupervisor::new(8, 2);
        sup.guard(&slice);
        assert_eq!(sup.condemn(1), Verdict::Retry { salt: 1 });
        assert_eq!(sup.condemn(1), Verdict::Retry { salt: 2 });
        assert_eq!(sup.condemn(1), Verdict::Degrade);
        assert!(sup.is_degraded(1));
        assert_eq!(sup.condemn(1), Verdict::Unrecoverable);
        assert_eq!(sup.slice_retries, 3);
        assert_eq!(sup.slices_degraded, 1);

        // Rung-1 eviction: dropping the checkpoint frees its full
        // resident footprint once, and a rebuild afterwards is refused.
        assert!(sup.retained_checkpoint_bytes() > 0);
        let freed = sup.drop_checkpoint(1);
        assert_eq!(freed, slice.full_resident_bytes());
        assert_eq!(sup.retained_checkpoint_bytes(), 0);
        assert_eq!(sup.drop_checkpoint(1), 0, "second drop frees nothing");
        assert!(matches!(
            sup.rebuild(1),
            Err(SpError::CheckpointDropped { slice: 1 })
        ));
    }

    /// Architectural + accounting view of a slice for bit-identity
    /// assertions.
    fn probe(slice: &SliceRuntime<Nop>) -> (u64, u64, u64, usize, u64, u64) {
        let process = slice.engine().process();
        (
            process.inst_count(),
            process.cpu.pc,
            process.mem.content_digest(),
            slice.cache_resident_insts(),
            slice.engine().stats().cycles.total(),
            slice.records_played(),
        )
    }

    #[test]
    fn journaled_eviction_rebuilds_the_condemned_slice_bit_identically() {
        use crate::slice::Boundary;

        // A hot loop long enough to stay running across several epochs,
        // so a mid-schedule eviction forces real recompilation after it.
        let src = "main:\n li r1, 5000\n\
                   loop:\n subi r1, r1, 1\n nop\n nop\n bne r1, r0, loop\n exit 0\n";
        let program = superpin_isa::asm::assemble(src).expect("assemble");
        let mut process = superpin_vm::process::Process::load(1, &program).expect("load");
        let bubble = crate::bubble::Bubble::reserve(&mut process.mem).expect("bubble");
        let cfg = crate::config::SuperPinConfig::paper_default();
        let mut live =
            SliceRuntime::spawn(1, &process, &Nop, &bubble, &cfg, 0, None).expect("spawn");
        live.wake(Boundary::ProgramExit, Vec::new(), 0);

        // Two supervisors guard the same wake-time state; only `sup` is
        // told about the governor's eviction (`blind` models a journal
        // that dropped the EvictCache step).
        let mut sup: SliceSupervisor<Nop> = SliceSupervisor::new(8, 2);
        let mut blind: SliceSupervisor<Nop> = SliceSupervisor::new(8, 2);
        sup.guard(&live);
        blind.guard(&live);

        const BUDGET: u64 = 800;
        const QUANTA: u64 = 2;
        const QUANTUM: u64 = 400;
        for epoch in 0..4u64 {
            if epoch == 2 {
                // Governor pressure between barriers: flush the live
                // slice's code cache and journal it (in `sup` only).
                assert!(live.cache_resident_insts() > 0, "cache must be warm");
                assert!(live.evict_code_cache() > 0, "eviction must free insts");
                sup.journal_evict(1);
            }
            let eta = live.eta();
            let epoch_start = epoch * QUANTA * QUANTUM;
            live.advance_epoch(BUDGET, QUANTA, epoch_start, QUANTUM)
                .expect("advance");
            sup.journal_advance(1, BUDGET, QUANTA, epoch_start, QUANTUM, eta);
            blind.journal_advance(1, BUDGET, QUANTA, epoch_start, QUANTUM, eta);
        }

        // The full-journal rebuild lands on exactly the condemned
        // incarnation's state: same pc, instruction count, memory
        // contents, resident cache, and cycle accounting.
        let rebuilt = sup.rebuild(1).expect("rebuild");
        assert_eq!(probe(&rebuilt), probe(&live));
        assert_eq!(rebuilt.state(), live.state());

        // The EvictCache step is load-bearing: a journal without it
        // replays the same schedule but never repays the recompilation,
        // so its accounting diverges from the live slice.
        let blind_rebuilt = blind.rebuild(1).expect("rebuild");
        assert_ne!(probe(&blind_rebuilt), probe(&live));
    }
}
