#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # superpin-perfbench
//!
//! The one benchmark every host-time performance claim about this
//! reproduction is measured with: five workloads that stress different
//! layers of the stack, eleven end-to-end metrics with regression
//! bounds, and a traced repetition that yields per-layer numbers. It
//! calls only the other crates' public functions and times them from
//! outside, on a [`hostclock::HostClock`] that holds every few tens of
//! milliseconds of work against a frozen reference kernel, so that a
//! shared host's slow phases do not read as regressions.
//! `BENCHMARK.json` at the repository root declares it; see this
//! crate's README for why each workload and constant was chosen and
//! which end-to-end metric each layer metric should move.
//!
//! ```text
//! cargo run --release -p superpin-perfbench -- --seed 1           # all five workloads
//! cargo run --release -p superpin-perfbench -- --seed 1 --trace   # + per-layer metrics and trace files
//! cargo run --release -p superpin-perfbench -- --compare A.json B.json
//! ```

pub mod compare;
pub mod fleet;
pub mod harness;
pub mod hostclock;
pub mod inputs;
pub mod json;
pub mod metrics;
pub mod record_replay;
pub mod sliced;
pub mod stats;
pub mod trace;
