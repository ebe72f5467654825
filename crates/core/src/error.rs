//! SuperPin error type.

use std::fmt;
use superpin_vm::mem::MemError;
use superpin_vm::VmError;

/// Errors surfaced by the SuperPin runtime.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SpError {
    /// A guest-execution error in the master or a slice.
    Vm(VmError),
    /// A memory-management error while setting up a slice (bubble,
    /// trampoline, private stack).
    Mem(MemError),
    /// A slice reached a syscall the master never recorded for its span —
    /// master/slice divergence, which indicates a signature false
    /// positive or a replay bug.
    SliceDiverged {
        /// The diverging slice number.
        slice: u32,
        /// Guest pc of the unexpected syscall.
        pc: u64,
    },
    /// A slice's next recorded syscall does not match the syscall the
    /// slice actually reached.
    RecordMismatch {
        /// The diverging slice number.
        slice: u32,
        /// Guest pc of the syscall.
        pc: u64,
        /// Syscall number recorded by the master.
        recorded: u64,
        /// Syscall number the slice issued.
        actual: u64,
    },
    /// The simulation made no forward progress (internal scheduling bug
    /// guard).
    NoProgress,
    /// A pool worker died holding its batch (its result channel
    /// disconnected). Under supervision the runner rebuilds the lost
    /// slices from their checkpoints and retires the worker; without
    /// it, and for a fleet job, the loss is fatal to that run.
    WorkerLost {
        /// Index of the dead worker in the pool.
        worker: usize,
    },
    /// A slice overran its watchdog deadline: the signature never fired
    /// within `watchdog_factor ×` the predicted completion, or the slice
    /// executed past its known span.
    Runaway {
        /// The runaway slice number.
        slice: u32,
        /// Instructions the slice had executed when condemned.
        insts: u64,
        /// The slice's known span (0 if the boundary was still open).
        span: u64,
    },
    /// A slice exhausted its retry budget and then failed again while
    /// degraded to serial re-execution — a genuine, non-injected defect.
    Unrecoverable {
        /// The slice that could not be recovered.
        slice: u32,
        /// The terminal failure.
        cause: Box<SpError>,
    },
    /// A slice needed its wake-time checkpoint rebuilt, but the memory
    /// governor had already reclaimed it. The eviction ladder only drops
    /// checkpoints of committed (Done) slices, which are never condemned,
    /// so this error indicates a supervision bug.
    CheckpointDropped {
        /// The slice whose checkpoint was reclaimed.
        slice: u32,
    },
    /// A replaying run consulted its log and found the recorded decision
    /// incompatible with the live state (wrong event kind, exhausted
    /// log, or a syscall whose recorded number/arguments no longer match
    /// the guest's registers). The run's trajectory has departed from
    /// the recording.
    ReplayDivergence {
        /// The decision point that diverged (e.g. `"master syscall"`).
        context: &'static str,
        /// Human-readable description of the mismatch.
        detail: String,
    },
}

impl fmt::Display for SpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpError::Vm(err) => write!(f, "guest execution error: {err}"),
            SpError::Mem(err) => write!(f, "slice setup memory error: {err}"),
            SpError::SliceDiverged { slice, pc } => {
                write!(f, "slice {slice} diverged: unrecorded syscall at {pc:#x}")
            }
            SpError::RecordMismatch {
                slice,
                pc,
                recorded,
                actual,
            } => write!(
                f,
                "slice {slice} record mismatch at {pc:#x}: recorded syscall {recorded}, got {actual}"
            ),
            SpError::NoProgress => write!(f, "simulation made no forward progress"),
            SpError::WorkerLost { worker } => {
                write!(f, "worker thread {worker} died (channel disconnected)")
            }
            SpError::Runaway { slice, insts, span } => write!(
                f,
                "slice {slice} runaway: {insts} instructions against a span of {span}"
            ),
            SpError::Unrecoverable { slice, cause } => {
                write!(f, "slice {slice} unrecoverable after retries: {cause}")
            }
            SpError::CheckpointDropped { slice } => {
                write!(f, "slice {slice} checkpoint was reclaimed under memory pressure")
            }
            SpError::ReplayDivergence { context, detail } => {
                write!(f, "replay divergence at {context}: {detail}")
            }
        }
    }
}

impl std::error::Error for SpError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SpError::Vm(err) => Some(err),
            SpError::Mem(err) => Some(err),
            SpError::Unrecoverable { cause, .. } => Some(cause.as_ref()),
            _ => None,
        }
    }
}

impl From<VmError> for SpError {
    fn from(err: VmError) -> SpError {
        SpError::Vm(err)
    }
}

impl From<MemError> for SpError {
    fn from(err: MemError) -> SpError {
        SpError::Mem(err)
    }
}

impl From<superpin_sched::WorkerLost> for SpError {
    fn from(lost: superpin_sched::WorkerLost) -> SpError {
        SpError::WorkerLost {
            worker: lost.worker,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error as _;

    /// Walks `source()` links, collecting each level's message.
    fn chain(err: &dyn std::error::Error) -> Vec<String> {
        let mut out = vec![err.to_string()];
        let mut cursor = err.source();
        while let Some(inner) = cursor {
            out.push(inner.to_string());
            cursor = inner.source();
        }
        out
    }

    #[test]
    fn unrecoverable_chains_through_to_the_root_cause() {
        let root = MemError::OutOfMemory {
            requested: 0x1000,
            limit: 0x2000,
        };
        let err = SpError::Unrecoverable {
            slice: 7,
            cause: Box::new(SpError::Vm(VmError::Mem(root))),
        };
        let messages = chain(&err);
        assert_eq!(messages.len(), 4, "chain: {messages:?}");
        assert!(messages[0].contains("slice 7 unrecoverable"));
        assert!(messages[1].contains("guest execution error"));
        assert!(messages[2].contains("memory fault"));
        assert!(messages[3].contains("out of memory"));
    }

    #[test]
    fn leaf_errors_have_no_source() {
        assert!(SpError::NoProgress.source().is_none());
        assert!(SpError::WorkerLost { worker: 2 }.source().is_none());
        assert!(SpError::CheckpointDropped { slice: 1 }.source().is_none());
        let div = SpError::ReplayDivergence {
            context: "master syscall",
            detail: "log exhausted".into(),
        };
        assert!(div.source().is_none());
        assert!(div.to_string().contains("master syscall"));
        assert!(div.to_string().contains("log exhausted"));
    }

    #[test]
    fn vm_and_mem_variants_expose_their_source() {
        let vm = SpError::Vm(VmError::ProcessExited);
        assert_eq!(
            vm.source().expect("vm source").to_string(),
            VmError::ProcessExited.to_string()
        );
        let mem = SpError::Mem(MemError::Unmapped(0x10));
        assert!(mem
            .source()
            .expect("mem source")
            .to_string()
            .contains("unmapped"));
    }
}
