//! Run reports: the data behind every figure in the paper's §6.

use crate::master::PtraceStats;
use crate::signature::SignatureStats;
use crate::slice::SliceEnd;
use superpin_dbi::{CacheStats, EngineStats};

/// Per-slice results.
///
/// `PartialEq`/`Eq` back the determinism suite: a `threads=N` run must
/// produce slice reports bit-identical to `threads=1`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SliceReport {
    /// Slice number (fork order, 1-based).
    pub num: u32,
    /// Dynamic instructions the slice executed/played back.
    pub insts: u64,
    /// Syscall records played back.
    pub records_played: u64,
    /// How the slice ended.
    pub end: SliceEnd,
    /// Fork time (cycles).
    pub start_cycles: u64,
    /// Time the slice woke — its boundary became known (cycles).
    pub wake_cycles: u64,
    /// Completion time (cycles).
    pub end_cycles: u64,
    /// Engine statistics (cycle breakdown, calls, …).
    pub engine: EngineStats,
    /// Code-cache statistics (per-slice cold-start compilation).
    pub cache: CacheStats,
    /// Copy-on-write page copies taken by the slice.
    pub cow_copies: u64,
}

/// The master's run-time decomposition, matching Figure 6's stacking:
/// `total = native + fork&other + sleep + pipeline`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TimeBreakdown {
    /// Pure native work: `master instructions × native CPI`.
    pub native_cycles: u64,
    /// Residual master overhead while running: forking, COW faults,
    /// ptrace stops, syscalls, and SMP/HT contention ("fork & others").
    pub fork_other_cycles: u64,
    /// Master stalls waiting for a free slice slot ("sleep").
    pub sleep_cycles: u64,
    /// Time after master exit until the last slice completed
    /// ("pipeline delay", paper §3/§6.3).
    pub pipeline_cycles: u64,
}

impl TimeBreakdown {
    /// Total wall time of the run.
    pub fn total_cycles(&self) -> u64 {
        self.native_cycles + self.fork_other_cycles + self.sleep_cycles + self.pipeline_cycles
    }
}

/// Complete results of one SuperPin run.
///
/// `PartialEq`/`Eq` exist so whole reports can be compared bit-for-bit
/// across host thread counts (the parallel runner's contract).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SuperPinReport {
    /// Wall time until the last slice merged (cycles).
    pub total_cycles: u64,
    /// Wall time at master exit (cycles).
    pub master_exit_cycles: u64,
    /// The Figure 6 decomposition.
    pub breakdown: TimeBreakdown,
    /// Master's dynamic instruction count.
    pub master_insts: u64,
    /// Master syscalls serviced.
    pub master_syscalls: u64,
    /// Ptrace stop statistics (paper §6.3 "Ptrace Overhead").
    pub ptrace: PtraceStats,
    /// Per-slice reports, in slice order.
    pub slices: Vec<SliceReport>,
    /// Aggregated signature-detection statistics (paper §4.4).
    pub sig_stats: SignatureStats,
    /// Slices created on timer expiry.
    pub forks_on_timeout: u64,
    /// Slices created because a syscall forced a boundary.
    pub forks_on_syscall: u64,
    /// Times the master stalled on the max-slice limit.
    pub stall_events: u64,
    /// Master COW page copies (fork overhead, paper §6.3).
    pub master_cow_copies: u64,
    /// Scheduling epochs executed (barrier-to-barrier spans). A pure
    /// function of the virtual-time state, so it must be identical
    /// across host thread counts like every other field.
    pub epochs: u64,
    /// Slice executions the supervisor rolled back to a checkpoint and
    /// re-armed (injected faults, runaways, lost workers). 0 in a
    /// fault-free run; every *other* field must match the fault-free run
    /// exactly — recovery is invisible to the simulation.
    pub slice_retries: u64,
    /// Slices that exhausted their retry budget and finished pinned to
    /// the supervisor thread with injection disabled.
    pub slices_degraded: u64,
    /// High-water mark of governed resident bytes (master + slice
    /// private pages + code caches + retained checkpoints + shared
    /// state). 0 when no `--mem-budget` is set — the governor is not
    /// built and charges nothing.
    pub peak_resident_bytes: u64,
    /// Fork-deferral episodes: times the master stalled because
    /// admitting the next slice would exceed the memory budget even
    /// after walking the eviction ladder. 0 without a budget.
    pub slices_deferred: u64,
    /// Retained recovery checkpoints reclaimed by the eviction ladder's
    /// first rung. 0 without a budget.
    pub checkpoints_dropped: u64,
    /// Slice code caches flushed by the eviction ladder's second rung
    /// (coldest first, by last-active quantum). 0 without a budget.
    pub caches_evicted: u64,
}

impl SuperPinReport {
    /// Sum of instructions across all slices — must equal
    /// [`master_insts`](SuperPinReport::master_insts) for a correct run.
    pub fn slice_inst_total(&self) -> u64 {
        self.slices.iter().map(|slice| slice.insts).sum()
    }

    /// Number of slices.
    pub fn slice_count(&self) -> usize {
        self.slices.len()
    }
}
