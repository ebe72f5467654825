//! The master application + control process (paper §4.2–§4.3).
//!
//! The master runs the application *natively* (uninstrumented) under a
//! ptrace-style [`Controller`]. The control logic here decides, at each
//! syscall stop, whether to record the syscall's effects for later slice
//! playback or to force a new timeslice; timeouts are handled by the
//! runner between quanta (the analogue of the timer process, §4.3).

use crate::config::SuperPinConfig;
use crate::error::SpError;
use crate::record::{NondetEvent, RunMode};
use crate::syscall_policy::{classify, SyscallAction};
use superpin_dbi::cycles_to_ns;
use superpin_isa::Reg;
use superpin_vm::kernel::{SyscallNo, SyscallRecord};
use superpin_vm::process::Process;
use superpin_vm::ptrace::{Controller, PtraceStats, StopReason};

/// What the master's advance surfaced to the runner.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MasterEvent {
    /// Budget consumed; nothing to handle.
    None,
    /// Parked at a syscall that requires forking a new slice before it
    /// can proceed (unknown/unsafe syscall, record budget exceeded, or
    /// recording disabled).
    NeedForkAtSyscall,
    /// The application exited.
    Exited,
}

/// The master application runtime.
pub struct MasterRuntime {
    controller: Controller,
    /// Records accumulated since the last fork (the pending slice's
    /// playback queue).
    span_records: Vec<SyscallRecord>,
    /// Recordable (budget-counted) syscalls in the current span.
    span_recordable: usize,
    cow_charged: u64,
    exited: bool,
    pending_force: bool,
    syscall_count: u64,
}

impl MasterRuntime {
    /// Wraps a loaded master process.
    pub fn new(process: Process) -> MasterRuntime {
        MasterRuntime {
            controller: Controller::new(process),
            span_records: Vec::new(),
            span_recordable: 0,
            cow_charged: 0,
            exited: false,
            pending_force: false,
            syscall_count: 0,
        }
    }

    /// The master process.
    pub fn process(&self) -> &Process {
        self.controller.process()
    }

    /// Mutable master process (the runner marks its pages COW-pending at
    /// each fork and installs the chaos registry).
    pub fn process_mut(&mut self) -> &mut Process {
        self.controller.process_mut()
    }

    /// Whether the application has exited.
    pub fn exited(&self) -> bool {
        self.exited
    }

    /// Whether the master is parked at a syscall waiting for a fork slot.
    pub fn pending_force(&self) -> bool {
        self.pending_force
    }

    /// Ptrace stop statistics.
    pub fn ptrace_stats(&self) -> PtraceStats {
        self.controller.stats()
    }

    /// Total syscalls serviced.
    pub fn syscall_count(&self) -> u64 {
        self.syscall_count
    }

    /// Takes the records accumulated for the span that just ended
    /// (called by the runner at each fork and at exit).
    pub fn take_span_records(&mut self) -> Vec<SyscallRecord> {
        self.span_recordable = 0;
        std::mem::take(&mut self.span_records)
    }

    /// Runs the master natively for up to `budget` cycles at virtual time
    /// `now_cycles`. Returns cycles consumed and the event (if any) the
    /// runner must handle.
    ///
    /// # Errors
    ///
    /// Propagates guest errors.
    pub fn advance(
        &mut self,
        budget: u64,
        now_cycles: u64,
        cfg: &SuperPinConfig,
        mode: &mut RunMode,
    ) -> Result<(u64, MasterEvent), SpError> {
        if self.exited {
            return Ok((0, MasterEvent::Exited));
        }
        if self.pending_force {
            return Ok((0, MasterEvent::NeedForkAtSyscall));
        }
        let cost = &cfg.cost;
        let mut used = 0u64;
        loop {
            let inst_budget = budget.saturating_sub(used) / cost.native_cpi;
            if inst_budget == 0 {
                break;
            }
            let before = self.process().inst_count();
            let reason = self.controller.resume(inst_budget)?;
            used += (self.process().inst_count() - before) * cost.native_cpi;
            match reason {
                StopReason::Timeout => break,
                StopReason::SyscallEntry => {
                    used += cost.ptrace_stop;
                    let raw = self.process().cpu.regs.get(Reg::R0);
                    let number =
                        SyscallNo::from_raw(raw).ok_or(superpin_vm::VmError::BadSyscall {
                            pc: self.process().cpu.pc,
                            number: raw,
                        })?;
                    let action = classify(number, cfg.max_sysrecs > 0);
                    let over_budget = action == SyscallAction::RecordReplay
                        && cfg.max_sysrecs > 0
                        && self.span_recordable >= cfg.max_sysrecs
                        && number != SyscallNo::Exit;
                    if action == SyscallAction::ForceSlice || over_budget {
                        self.pending_force = true;
                        return Ok((used, MasterEvent::NeedForkAtSyscall));
                    }
                    used += self.service_syscall(now_cycles + used, action, cfg, mode)?;
                    if self.exited {
                        return Ok((used, MasterEvent::Exited));
                    }
                }
                StopReason::Exited(_) => {
                    self.exited = true;
                    return Ok((used, MasterEvent::Exited));
                }
                StopReason::Halted => {
                    return Err(SpError::Vm(superpin_vm::VmError::UnexpectedHalt {
                        pc: self.process().cpu.pc,
                    }))
                }
            }
        }
        // Charge master-side copy-on-write faults taken this advance.
        let cow = self.process().mem.stats().cow_copies;
        let delta = cow - self.cow_charged;
        if delta > 0 {
            used += delta * cost.cow_fault;
            self.cow_charged = cow;
        }
        Ok((used, MasterEvent::None))
    }

    /// Executes the syscall the master is parked at (used both inline and
    /// to resolve a pending forced fork once a slot frees up). Appends
    /// the record to the current span. Returns cycles charged.
    ///
    /// In [`RunMode::Record`] the record is streamed into the log after
    /// live execution; in [`RunMode::Replay`] the next recorded syscall
    /// is *applied* to the parked guest instead of re-executing the
    /// kernel, after verifying that its number and arguments still match
    /// the live registers (a mismatch is a typed divergence error). The
    /// played-back record joins the span like a live one, so slices play
    /// back the substituted effects too.
    fn service_syscall(
        &mut self,
        now_cycles: u64,
        action: SyscallAction,
        cfg: &SuperPinConfig,
        mode: &mut RunMode,
    ) -> Result<u64, SpError> {
        let pc = self.process().cpu.pc;
        let replayed = mode.replayed(
            "master syscall",
            "a syscall",
            &format_args!("pc {pc:#x}"),
            |event| match event {
                NondetEvent::Syscall(record) => Some(record),
                _ => None,
            },
        );
        let record = match replayed {
            Some(record) => {
                let record = record?;
                let regs = &self.process().cpu.regs;
                let live_number = regs.get(Reg::R0);
                let live_args = [
                    regs.get(Reg::R1),
                    regs.get(Reg::R2),
                    regs.get(Reg::R3),
                    regs.get(Reg::R4),
                    regs.get(Reg::R5),
                ];
                if record.number as u64 != live_number || record.args != live_args {
                    return Err(SpError::ReplayDivergence {
                        context: "master syscall",
                        detail: format!(
                            "at pc {pc:#x}: recorded syscall {}{:?}, guest is issuing \
                             {live_number}{live_args:?}",
                            record.number as u64, record.args
                        ),
                    });
                }
                self.controller.playback_syscall(&record)?;
                record
            }
            None => {
                let record = self
                    .controller
                    .step_over_syscall(cycles_to_ns(now_cycles))?;
                mode.record(|| NondetEvent::Syscall(record.clone()));
                record
            }
        };
        self.syscall_count += 1;
        if record.exited.is_some() {
            self.exited = true;
        }
        if action == SyscallAction::RecordReplay {
            self.span_recordable += 1;
        }
        self.span_records.push(record);
        Ok(cfg.cost.syscall)
    }

    /// Resolves a pending forced-fork syscall: executes and records it so
    /// the ending slice can play it back as its final record. Returns
    /// cycles charged.
    ///
    /// # Errors
    ///
    /// Propagates guest errors.
    ///
    /// # Panics
    ///
    /// Panics if no forced fork is pending (runner logic error).
    pub fn resolve_forced_syscall(
        &mut self,
        now_cycles: u64,
        cfg: &SuperPinConfig,
        mode: &mut RunMode,
    ) -> Result<u64, SpError> {
        assert!(self.pending_force, "no forced fork pending");
        self.pending_force = false;
        // The forced syscall is still recorded (our kernel records every
        // syscall's effects); what the *force* preserves from the paper
        // is the fork-at-syscall scheduling behaviour.
        self.service_syscall(now_cycles, SyscallAction::RecordReplay, cfg, mode)
    }
}

impl std::fmt::Debug for MasterRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MasterRuntime")
            .field("exited", &self.exited)
            .field("pending_force", &self.pending_force)
            .field("span_records", &self.span_records.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use superpin_isa::asm::assemble;

    fn master(src: &str) -> MasterRuntime {
        let program = assemble(src).expect("assemble");
        MasterRuntime::new(Process::load(1, &program).expect("load"))
    }

    fn cfg() -> SuperPinConfig {
        SuperPinConfig::paper_default()
    }

    #[test]
    fn runs_and_records_syscalls() {
        let mut m = master("main:\n li r0, 9\n syscall\n li r0, 8\n syscall\n exit 0\n");
        let (used, event) = m
            .advance(u64::MAX / 8, 0, &cfg(), &mut RunMode::Live)
            .expect("advance");
        assert_eq!(event, MasterEvent::Exited);
        assert!(used > 0);
        let records = m.take_span_records();
        assert_eq!(records.len(), 3); // getpid, gettime, exit
        assert!(records[2].exited.is_some());
        assert_eq!(m.syscall_count(), 3);
    }

    #[test]
    fn budget_limits_progress() {
        let mut m =
            master("main:\n li r1, 1000\nloop:\n subi r1, r1, 1\n bne r1, r0, loop\n exit 0\n");
        let (used, event) = m
            .advance(10, 0, &cfg(), &mut RunMode::Live)
            .expect("advance");
        assert_eq!(event, MasterEvent::None);
        assert_eq!(used, 10);
        assert_eq!(m.process().inst_count(), 10);
    }

    #[test]
    fn sysrec_budget_forces_fork() {
        let mut config = cfg();
        config.max_sysrecs = 2;
        let mut m = master(
            "main:\n li r0, 9\n syscall\n li r0, 9\n syscall\n li r0, 9\n syscall\n exit 0\n",
        );
        let (_, event) = m
            .advance(u64::MAX / 8, 0, &config, &mut RunMode::Live)
            .expect("advance");
        assert_eq!(event, MasterEvent::NeedForkAtSyscall);
        assert!(m.pending_force());
        assert_eq!(m.take_span_records().len(), 2);
        // Resolving executes the third getpid and starts a new span.
        m.resolve_forced_syscall(0, &config, &mut RunMode::Live)
            .expect("resolve");
        assert!(!m.pending_force());
        let (_, event) = m
            .advance(u64::MAX / 8, 0, &config, &mut RunMode::Live)
            .expect("advance");
        assert_eq!(event, MasterEvent::Exited);
        let records = m.take_span_records();
        // getpid (forced) + exit.
        assert_eq!(records.len(), 2);
    }

    #[test]
    fn disabled_recording_forces_on_first_recordable() {
        let mut config = cfg();
        config.max_sysrecs = 0;
        let mut m = master("main:\n li r0, 9\n syscall\n exit 0\n");
        let (_, event) = m
            .advance(u64::MAX / 8, 0, &config, &mut RunMode::Live)
            .expect("advance");
        assert_eq!(event, MasterEvent::NeedForkAtSyscall);
    }

    #[test]
    fn duplicate_syscalls_do_not_consume_record_budget() {
        let mut config = cfg();
        config.max_sysrecs = 1;
        // brk twice (Duplicate), then getpid (RecordReplay), then exit.
        let mut m = master(
            "main:\n li r0, 5\n li r1, 0x1000100\n syscall\n li r0, 5\n li r1, 0x1000200\n syscall\n li r0, 9\n syscall\n exit 0\n",
        );
        let (_, event) = m
            .advance(u64::MAX / 8, 0, &config, &mut RunMode::Live)
            .expect("advance");
        // brk+brk fit (no budget), getpid takes the 1 slot, exit passes.
        assert_eq!(event, MasterEvent::Exited);
        assert_eq!(m.take_span_records().len(), 4);
    }

    #[test]
    fn exit_never_forces() {
        let mut config = cfg();
        config.max_sysrecs = 1;
        let mut m = master("main:\n li r0, 8\n syscall\n exit 0\n");
        let (_, event) = m
            .advance(u64::MAX / 8, 0, &config, &mut RunMode::Live)
            .expect("advance");
        // gettime consumes the single slot; exit must still pass through.
        assert_eq!(event, MasterEvent::Exited);
    }
}
