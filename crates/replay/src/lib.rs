#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # superpin-replay
//!
//! First-class record/replay for SuperPin runs, with divergence
//! diffing.
//!
//! A live run's complete nondeterministic surface — syscall effects,
//! epoch plans, governed fork admissions, and the fault-recovery
//! ledger — streams into a versioned binary log (`.splog`); see
//! [`superpin::record`] for what is captured and why fault firings are
//! stored as the plan rather than per firing. A [`ReplayLog`] holds the
//! parsed log: the [`RunRecipe`] (everything needed to rebuild the
//! run's initial state), the event stream, and the recorded run's final
//! report. [`replay_run`] re-executes a run from the log alone —
//! including at a *different* thread count than the recording, the
//! design's headline property — and [`verify_replay`] checks the
//! replayed report field for field. [`diff_logs`] replays two logs in
//! lockstep and bisects their first divergence to an epoch barrier,
//! quantum window, and instruction range.
//!
//! Two kinds of file leave this crate — the `.splog` recording
//! ([`log`]) and the `SPWAL` fleet journal ([`wal`], payloads in
//! [`fleet`]), which is both a fleet run's crash journal and its
//! recording — and both are the same framed [`container`]: a magic +
//! version preamble and CRC'd frames, read by one damage-tolerant
//! [`container::walk`]. Every payload type has one layout, its
//! [`wire::Wire`] impl, from which both encoding and decoding come;
//! decoding goes through the bounds-checked [`wire::Reader`], so no
//! byte of any file can panic or abort a reader.
//!
//! The `spin-replay` CLI (in `superpin-tools`) fronts all of this:
//! `record` emits a `.splog`, `replay` re-executes and verifies, `diff`
//! pinpoints the first divergence between two logs, and `fsck` walks
//! either container and can quarantine the intact prefix.

pub mod codec;
pub mod container;
pub mod differ;
pub mod drive;
pub mod fleet;
pub mod fsck;
pub mod json;
pub mod log;
pub mod recipe;
pub mod wal;
pub mod wire;

#[cfg(test)]
pub(crate) mod testutil;

pub use container::{crc32, explain_decode_failure, walk, Format, FrameDamage};
pub use differ::{diff_logs, diff_runners};
pub use differ::{DiffOutcome, DivergenceReport, RegDelta};
pub use drive::{build_runner, record, record_run, replay, replay_run, verify_replay, ReplayError};
pub use fleet::{
    diff_round, recover_fleet_wal, FleetEvent, FleetRecipe, FleetRecovery, RoundFrame,
};
pub use log::ReplayLog;
pub use recipe::RunRecipe;
pub use wal::{
    atomic_write, salvage, FsyncPolicy, MemSink, WalCause, WalIoError, WalOp, WalSink, WalWriter,
};
pub use wire::CodecError;
