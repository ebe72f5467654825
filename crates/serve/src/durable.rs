//! Crash durability for fleet runs: the WAL handle and the resume
//! prefix.
//!
//! The fleet is a pure function of `(job file, knobs)`, so its durable
//! journal does not need to checkpoint runner state — it journals the
//! *decisions* (one [`RoundFrame`] per settled round) and recovery
//! re-derives everything else by re-executing from round 0, verifying
//! each re-executed round against its committed frame, then continuing
//! live past the prefix. That is the record/replay engine doing double
//! duty as the recovery engine.
//!
//! Durability is strictly best-effort relative to job progress: a WAL
//! that stops accepting writes (disk full, torn append, failed fsync —
//! injected by the `io.*` chaos sites or real) **degrades the fleet to
//! non-durable** with counted warnings in [`WalStatus`]; it never
//! fails a job or changes a scheduling decision. For the same reason,
//! WAL state stays out of the deterministic report renders — a resumed
//! run and an uninterrupted run commit different round counts but must
//! stay byte-identical where it matters.

use std::collections::VecDeque;

use superpin::FailPlan;
use superpin_replay::fleet::{FleetRecipe, RoundFrame};
use superpin_replay::wal::{
    FsyncPolicy, WalIoError, WalOp, WalSink, WalWriter, WAL_FRAME_HEADER, WAL_FRAME_RECORD,
};

/// Observability counters for one fleet WAL. Deliberately *not* part
/// of [`ServiceReport`](crate::ServiceReport): an interrupted-then-
/// resumed run and an uninterrupted run have different WAL histories
/// but byte-identical reports.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WalStatus {
    /// Rounds committed to the log by *this process* (a resumed run
    /// starts from the salvaged count).
    pub rounds_committed: u64,
    /// Frame appends that failed (torn writes and disk-full included).
    pub append_failures: u64,
    /// Commit fsyncs that failed.
    pub fsync_failures: u64,
    /// The WAL stopped accepting writes and the fleet continued
    /// non-durable.
    pub degraded: bool,
    /// The failure that caused the degradation.
    pub last_error: Option<String>,
}

/// A fleet's write-ahead log handle: one committed frame per settled
/// round, graceful degradation on any write failure.
pub struct FleetWal {
    writer: Option<WalWriter>,
    status: WalStatus,
}

impl FleetWal {
    /// Opens a fresh WAL on `sink`: preamble plus a header frame
    /// carrying the recipe. The host-I/O fault sites arm from `chaos`
    /// when one is given; `spin-serve` gives none, so a fleet's guest
    /// chaos plan (stored in the recipe) never tears its own journal.
    ///
    /// # Errors
    ///
    /// [`WalIoError`] if even the preamble/header cannot be written —
    /// the caller decides whether to run non-durable or abort.
    pub fn create(
        sink: Box<dyn WalSink>,
        recipe: &FleetRecipe,
        policy: FsyncPolicy,
        chaos: Option<FailPlan>,
    ) -> Result<FleetWal, WalIoError> {
        let mut writer = WalWriter::create(sink, policy, chaos)?;
        let mut payload = Vec::new();
        recipe.encode_into(&mut payload);
        writer.append(WAL_FRAME_HEADER, &payload)?;
        Ok(FleetWal {
            writer: Some(writer),
            status: WalStatus::default(),
        })
    }

    /// Continues a salvaged WAL whose sink is already truncated to the
    /// durable prefix. `frames`/`commits` prime the writer's counters
    /// (and the fault-site keys of an armed `chaos` plan) where the
    /// interrupted process left off.
    pub fn resume(
        sink: Box<dyn WalSink>,
        policy: FsyncPolicy,
        chaos: Option<FailPlan>,
        frames: u64,
        commits: u64,
    ) -> FleetWal {
        FleetWal {
            writer: Some(WalWriter::resume(sink, policy, chaos, frames, commits)),
            status: WalStatus {
                rounds_committed: commits,
                ..WalStatus::default()
            },
        }
    }

    /// A handle that was never writable (e.g. the WAL file could not
    /// be created): the fleet runs non-durable but the warning is
    /// still counted and carried.
    pub fn degraded_from(err: WalIoError) -> FleetWal {
        let mut wal = FleetWal {
            writer: None,
            status: WalStatus::default(),
        };
        wal.degrade(err);
        wal
    }

    /// The counters (read after the run for the status line).
    pub fn status(&self) -> &WalStatus {
        &self.status
    }

    /// Journals one settled round: record frame + commit marker +
    /// policy fsync. Infallible by contract — any failure degrades the
    /// fleet to non-durable and is counted, never propagated.
    pub(crate) fn append_round(&mut self, frame: &RoundFrame) {
        let Some(writer) = self.writer.as_mut() else {
            return;
        };
        let result = writer.append_committed(WAL_FRAME_RECORD, &frame.encode(), frame.round);
        match result {
            Ok(()) => self.status.rounds_committed += 1,
            Err(err) => self.degrade(err),
        }
    }

    /// Seals a naturally completed run with the clean end frame.
    pub(crate) fn finish(&mut self) {
        if let Some(writer) = self.writer.as_mut() {
            if let Err(err) = writer.end() {
                self.degrade(err);
            }
        }
    }

    fn degrade(&mut self, err: WalIoError) {
        match err.op {
            WalOp::Append => self.status.append_failures += 1,
            WalOp::Fsync => self.status.fsync_failures += 1,
        }
        self.status.degraded = true;
        self.status.last_error = Some(err.to_string());
        // Drop the writer: once an append tore or an fsync lied, the
        // tail of the file is untrustworthy — stop writing rather than
        // journal rounds that may not be durable.
        self.writer = None;
    }
}

/// The durability context a fleet run executes under: an optional WAL
/// to append to, and an optional committed prefix to verify against
/// (resume). Both empty means a plain, non-durable run; a prefix with
/// no WAL is a replay, which verifies every committed round and writes
/// nothing.
#[derive(Default)]
pub struct Durability {
    /// Journal for newly settled rounds.
    pub wal: Option<FleetWal>,
    /// Committed rounds to verify during re-execution, oldest first.
    /// While non-empty, settled rounds are checked against the front
    /// frame instead of being appended (they are already durable).
    pub resume: VecDeque<RoundFrame>,
}

impl Durability {
    /// A plain, non-durable run.
    pub fn none() -> Durability {
        Durability::default()
    }

    /// The WAL counters, if a WAL was attached.
    pub fn status(&self) -> Option<&WalStatus> {
        self.wal.as_ref().map(FleetWal::status)
    }
}
