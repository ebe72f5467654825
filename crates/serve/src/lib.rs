#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # superpin-serve
//!
//! Multi-tenant **service mode**: a deterministic job-queue daemon
//! that runs many guest programs over one governed SuperPin fleet.
//!
//! A job file declares tenants (weights, optional resident caps) and
//! jobs (workload, scale, tool, arrival time, per-job knobs); the
//! fleet scheduler admits jobs through the tenant-weighted memory
//! ladder, selects runnable jobs by weighted-fair virtual time, and
//! advances the selected jobs one epoch per round on one shared worker
//! pool. Every scheduling decision is fixed serially at round
//! barriers, so the whole run — per-job reports, tenant scoreboards,
//! the decision trace — is byte-identical across `--threads`, chaos
//! included.
//!
//! * [`spec`] — the job-file grammar and typed validation.
//! * [`fleet`] — the round-based weighted-fair scheduler; each job is
//!   a [`Runner`](superpin::Runner) built through the tool table
//!   ([`superpin_tools::lookup_serve`]).
//! * [`durable`] — crash durability: the WAL handle and resume prefix.
//! * [`report`] — deterministic outcome rendering (text + JSONL).
//!
//! The `spin-serve` CLI fronts all of this, including `--wal` /
//! `--resume` crash-durable runs and `--replay`, which re-verifies a
//! finished run's journal (see [`superpin_replay::fleet`]).

pub mod durable;
pub mod fleet;
pub mod report;
pub mod spec;

pub use durable::{Durability, FleetWal, WalStatus};
pub use fleet::{run_service, run_service_durable, FleetConfig, FleetError};
pub use report::{JobOutcome, ServiceReport, TenantSummary};
pub use spec::{parse_jobs, JobFile, JobSpec, SpecError, TenantSpec};
