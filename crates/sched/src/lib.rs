#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # superpin-sched
//!
//! A deterministic multiprocessor timing model: the substitute for the
//! paper's 8-way 2.2 GHz Xeon MP testbed (16 logical processors with
//! hyperthreading enabled, §6.2).
//!
//! The crate is *unit-agnostic*: all durations are abstract ticks (the
//! SuperPin runner uses 2.2 GHz cycles). It provides:
//!
//! * [`Machine`] — CPU topology plus the two contention effects the paper
//!   calls out in §6.3: hyperthread siblings sharing a physical core's
//!   throughput, and the SMP scalability tax ("Running on all processors
//!   taxes the memory and other subsystems").
//! * [`QuantumScheduler`] — fair-share assignment of runnable tasks onto
//!   the machine per quantum, with round-robin rotation when
//!   oversubscribed.
//! * [`EpochPlanner`] — batches quanta into multi-quantum epochs between
//!   predicted scheduling events, so a parallel runner synchronizes its
//!   workers once per epoch instead of once per quantum.
//! * [`Timeline`] — labelled time-segment recording, used to produce the
//!   run-time breakdown of Figure 6 (native / fork&others / sleep /
//!   pipeline).
//! * [`FleetQueue`] — weighted-fair virtual-time scheduling of whole
//!   *jobs* for the multi-tenant service front end (`superpin-serve`),
//!   with [`fair_shares`] for deterministic proportional budget splits.
//! * [`OrderedPool`] — the one host worker pool: jobs scattered by value,
//!   results gathered by input position, pinned jobs kept on the calling
//!   thread, a dead worker reported as a typed [`WorkerLost`]. Every
//!   slice phase of the runner and every round of the service fleet
//!   runs on it; the pool alone decides when a round stays inline.

mod epoch;
mod fleet;
mod machine;
mod pool;
mod scheduler;
mod timeline;

pub use epoch::{
    predict_completion_quanta, watchdog_deadline_quanta, EpochPlanner, SliceEta,
    DEFAULT_TICKS_PER_INST, DEFERRAL_REVIEW_QUANTA,
};
pub use fleet::{fair_shares, FleetQueue, WFQ_SCALE};
pub use machine::Machine;
pub use pool::{OrderedPool, WorkerLost};
pub use scheduler::{Policy, QuantumScheduler, Share};
pub use timeline::Timeline;
