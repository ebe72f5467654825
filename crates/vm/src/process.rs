//! Guest processes: CPU state + address space + kernel state, with `fork`.

use crate::cpu::{self, CpuState, ExecOutcome};
use crate::decode::{DecodeCache, RunStop};
use crate::error::VmError;
use crate::kernel::{self, KernelState, SyscallRecord};
use crate::mem::{AddressSpace, RegionKind};
use std::sync::Arc;
use superpin_fault::{FailpointRegistry, Site};
use superpin_isa::{Program, Reg, HEAP_BASE, STACK_TOP};

/// Default stack reservation (1 MiB), mapped just below [`STACK_TOP`].
pub const STACK_LEN: u64 = 1 << 20;

/// Why [`Process::run`] / [`Process::run_until_syscall`] returned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunExit {
    /// The instruction budget was used up; the process is still runnable.
    BudgetExhausted,
    /// Parked at a `syscall` instruction awaiting service
    /// (only from [`Process::run_until_syscall`]).
    SyscallEntry,
    /// The process called `exit` with this code.
    Exited(i64),
    /// The process executed `halt` (only injected runtime stubs do this).
    Halted,
}

/// A guest process.
///
/// `fork` produces a copy-on-write duplicate, mirroring how SuperPin forks
/// instrumentation slices from the master application.
#[derive(Clone, Debug)]
pub struct Process {
    /// Architectural CPU state.
    pub cpu: CpuState,
    /// The process's virtual memory.
    pub mem: AddressSpace,
    /// Per-process kernel state (fds, RNG).
    pub kernel: KernelState,
    exited: Option<i64>,
    inst_count: u64,
    /// Armed chaos failpoint registry, if any ([`Site::VmForkCow`] fires
    /// in [`try_fork`](Process::try_fork)). `None` — the default — is
    /// zero-cost: no registry is consulted anywhere on the hot path.
    fault: Option<Arc<FailpointRegistry>>,
    /// Pre-decoded code pages for the native run loop. Purely a host-side
    /// accelerator: keyed on `mem.code_version()`, so guest-visible
    /// behaviour (including self-modifying code) is identical to
    /// re-decoding every step. Forks inherit the parent's decoded pages,
    /// which stay valid because the fork shares the same code bytes.
    decode: DecodeCache,
}

impl Process {
    /// Loads a program image into a fresh address space: code and data
    /// sections copied in, a 1 MiB stack mapped below [`STACK_TOP`], `pc`
    /// at the entry point, and `sp` just under the stack top.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::Mem`] if the image's sections overlap.
    pub fn load(pid: u64, program: &Program) -> Result<Process, VmError> {
        let mut mem = AddressSpace::new(HEAP_BASE);
        mem.map_region(
            program.code_base(),
            program.code_len().max(1),
            RegionKind::Code,
        )?;
        mem.write(program.code_base(), program.code())?;
        let data_len = program.data().len() as u64 + program.bss_len();
        if data_len > 0 {
            mem.map_region(program.data_base(), data_len, RegionKind::Data)?;
            mem.write(program.data_base(), program.data())?;
        }
        let stack_base = STACK_TOP - STACK_LEN;
        mem.map_region(stack_base, STACK_LEN, RegionKind::Stack)?;

        let mut cpu = CpuState::at(program.entry());
        cpu.regs.set(Reg::SP, STACK_TOP - 64);
        cpu.regs.set(Reg::FP, STACK_TOP - 64);

        Ok(Process {
            cpu,
            mem,
            kernel: KernelState::new(pid),
            exited: None,
            inst_count: 0,
            fault: None,
            decode: DecodeCache::new(),
        })
    }

    /// Process id.
    pub fn pid(&self) -> u64 {
        self.kernel.pid
    }

    /// Exit code, if the process has exited.
    pub fn exited(&self) -> Option<i64> {
        self.exited
    }

    /// Dynamic instructions executed so far (syscall instructions count
    /// once, when serviced).
    pub fn inst_count(&self) -> u64 {
        self.inst_count
    }

    /// Everything written to stdout/stderr.
    pub fn output(&self) -> &[u8] {
        self.kernel.fds.stdout()
    }

    /// Copy-on-write duplicate with a new pid. The child shares all page
    /// frames until one side writes. Fault counters and the instruction
    /// count start at zero in the child.
    pub fn fork(&self, child_pid: u64) -> Process {
        let mut kernel = self.kernel.clone();
        kernel.pid = child_pid;
        Process {
            mem: self.mem.fork(),
            kernel,
            inst_count: 0,
            fault: self.fault.clone(),
            decode: self.decode.clone(),
            ..*self
        }
    }

    /// Arms (or with `None` disarms) chaos fault injection on this
    /// process. Only [`try_fork`](Process::try_fork) consults the
    /// registry; the plain [`fork`](Process::fork) stays infallible.
    pub fn set_fault_registry(&mut self, registry: Option<Arc<FailpointRegistry>>) {
        self.fault = registry;
    }

    /// The armed fault registry, if any.
    pub fn fault_registry(&self) -> Option<&Arc<FailpointRegistry>> {
        self.fault.as_ref()
    }

    /// The native run loop's decode cache (diagnostics/tests).
    pub fn decode_cache(&self) -> &DecodeCache {
        &self.decode
    }

    /// Fetches and decodes the instruction at `pc` through the decode
    /// cache — equivalent to [`cpu::fetch_at`] on this process's memory,
    /// just memoized. A DBI engine's trace discovery uses this so a
    /// forked slice re-decodes nothing its master already decoded.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::Mem`] for unmapped fetches or
    /// [`VmError::Decode`] for invalid encodings.
    pub fn fetch_decoded(&mut self, pc: u64) -> Result<(superpin_isa::Inst, u64), VmError> {
        self.decode.fetch(&self.mem, pc)
    }

    /// Fallible fork: like [`fork`](Process::fork), but consults the
    /// [`Site::VmForkCow`] and [`Site::VmMemAlloc`] failpoints first when
    /// a registry is armed.
    /// `chaos_key` must be derived from deterministic simulation state
    /// (e.g. child pid and retry attempt) so the schedule replays
    /// identically for a given seed.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::FaultInjected`] when the failpoint fires.
    pub fn try_fork(&self, child_pid: u64, chaos_key: u64) -> Result<Process, VmError> {
        if let Some(registry) = &self.fault {
            if registry.fire(Site::VmForkCow, chaos_key) {
                return Err(VmError::FaultInjected {
                    site: Site::VmForkCow.name(),
                });
            }
            // Transient kernel allocation failure while building the
            // child (page tables, kernel structures): an ENOMEM the
            // caller absorbs through the same retry ladder as a failed
            // COW fork.
            if registry.fire(Site::VmMemAlloc, chaos_key) {
                return Err(VmError::FaultInjected {
                    site: Site::VmMemAlloc.name(),
                });
            }
        }
        Ok(self.fork(child_pid))
    }

    /// Runs up to `max_insts` instructions, servicing syscalls inline
    /// (plain uninstrumented execution).
    ///
    /// # Errors
    ///
    /// Propagates fetch/decode/memory/kernel errors.
    pub fn run(&mut self, max_insts: u64, now_ns: u64) -> Result<RunExit, VmError> {
        let mut used = 0u64;
        loop {
            let start = self.inst_count;
            match self.run_until_syscall(max_insts - used)? {
                RunExit::SyscallEntry => {
                    used += self.inst_count - start;
                    let record = self.do_syscall(now_ns)?;
                    used += 1;
                    if let Some(code) = record.exited {
                        return Ok(RunExit::Exited(code));
                    }
                    if used >= max_insts {
                        return Ok(RunExit::BudgetExhausted);
                    }
                }
                other => return Ok(other),
            }
        }
    }

    /// Runs up to `max_insts` instructions, stopping *at* (before) any
    /// `syscall` instruction so a supervisor can service or replay it —
    /// the ptrace-style syscall-entry stop.
    ///
    /// The instructions run through [`DecodeCache::run`], which streams
    /// them straight out of the decoded page `pc` is on and re-checks
    /// the page, the alignment and `code_version` after every one, so
    /// the result is exactly a [`cpu::step`] loop's, self-modifying code
    /// and code `munmap` included, without a decode per step.
    ///
    /// # Errors
    ///
    /// Propagates fetch/decode/memory errors and
    /// [`VmError::ProcessExited`] if called after exit.
    pub fn run_until_syscall(&mut self, max_insts: u64) -> Result<RunExit, VmError> {
        if self.exited.is_some() {
            return Err(VmError::ProcessExited);
        }
        let stop = self.decode.run(
            &mut self.cpu,
            &mut self.mem,
            max_insts,
            &mut self.inst_count,
        )?;
        match stop {
            RunStop::Syscall => Ok(RunExit::SyscallEntry),
            RunStop::Halt => Ok(RunExit::Halted),
            RunStop::Budget => Ok(RunExit::BudgetExhausted),
        }
    }

    /// Executes one already-decoded instruction, updating the dynamic
    /// instruction count. This is the execution primitive used by the DBI
    /// engine, which decodes instructions out of its code cache rather
    /// than re-fetching them from guest memory.
    ///
    /// Forced inline, as is the [`cpu::exec_decoded`] it wraps: the DBI
    /// executor runs every slot through here. With this function out of
    /// line, `superpin-perfbench`'s `steady_t1` read 53.1
    /// `guest_minst_per_s` against 57.9 inlined on a 2-vCPU x86-64 host
    /// (four alternating runs, medians; 54.1 with only the dispatcher
    /// out of line).
    ///
    /// # Errors
    ///
    /// Propagates memory errors; [`VmError::ProcessExited`] after exit.
    #[inline(always)]
    pub fn exec_decoded(
        &mut self,
        inst: superpin_isa::Inst,
        size: u64,
    ) -> Result<ExecOutcome, VmError> {
        if self.exited.is_some() {
            return Err(VmError::ProcessExited);
        }
        let outcome = cpu::exec_decoded(&mut self.cpu, &mut self.mem, inst, size)?;
        if matches!(outcome, ExecOutcome::Next | ExecOutcome::Jumped) {
            self.inst_count += 1;
        }
        Ok(outcome)
    }

    /// Services the syscall the process is parked at, returning its full
    /// effect record. Counts the syscall instruction.
    ///
    /// # Errors
    ///
    /// Propagates kernel errors; [`VmError::ProcessExited`] after exit.
    pub fn do_syscall(&mut self, now_ns: u64) -> Result<SyscallRecord, VmError> {
        if self.exited.is_some() {
            return Err(VmError::ProcessExited);
        }
        let record =
            kernel::execute_syscall(&mut self.cpu, &mut self.mem, &mut self.kernel, now_ns)?;
        self.inst_count += 1;
        if let Some(code) = record.exited {
            self.exited = Some(code);
        }
        Ok(record)
    }

    /// Plays back a previously recorded syscall instead of executing it
    /// (the slice-side half of record-and-playback, paper §4.2). Counts
    /// the syscall instruction. Marks the process exited if the record
    /// was an `exit`.
    ///
    /// # Errors
    ///
    /// Propagates memory errors from re-applying recorded writes.
    pub fn playback_syscall(&mut self, record: &SyscallRecord) -> Result<(), VmError> {
        if self.exited.is_some() {
            return Err(VmError::ProcessExited);
        }
        kernel::apply_record(&mut self.cpu, &mut self.mem, record)?;
        self.inst_count += 1;
        if let Some(code) = record.exited {
            self.exited = Some(code);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use superpin_isa::asm::assemble;

    fn load(src: &str) -> Process {
        Process::load(1, &assemble(src).expect("assemble")).expect("load")
    }

    #[test]
    fn runs_to_exit() {
        let mut p = load("main:\n li r1, 1\n exit 7\n");
        let exit = p.run(u64::MAX, 0).expect("run");
        assert_eq!(exit, RunExit::Exited(7));
        assert_eq!(p.exited(), Some(7));
        // li + (li, li, syscall) = 4 dynamic instructions.
        assert_eq!(p.inst_count(), 4);
    }

    #[test]
    fn budget_exhaustion_pauses_and_resumes() {
        let mut p =
            load("main:\n li r1, 100\nloop:\n subi r1, r1, 1\n bne r1, r0, loop\n exit 0\n");
        assert_eq!(p.run(10, 0).expect("run"), RunExit::BudgetExhausted);
        assert_eq!(p.inst_count(), 10);
        assert_eq!(p.run(u64::MAX, 0).expect("run"), RunExit::Exited(0));
        // 1 li + 100*(subi+bne) + 3 exit insts.
        assert_eq!(p.inst_count(), 204);
    }

    #[test]
    fn run_until_syscall_parks_at_entry() {
        let mut p = load("main:\n li r0, 9\n syscall\n exit 0\n");
        assert_eq!(
            p.run_until_syscall(u64::MAX).expect("run"),
            RunExit::SyscallEntry
        );
        let before = p.cpu.pc;
        let record = p.do_syscall(0).expect("syscall");
        assert_eq!(record.ret, 1, "getpid returns pid");
        assert_eq!(p.cpu.pc, before + 8);
    }

    #[test]
    fn run_after_exit_is_an_error() {
        let mut p = load("main:\n exit 0\n");
        p.run(u64::MAX, 0).expect("run");
        assert!(matches!(
            p.run_until_syscall(1),
            Err(VmError::ProcessExited)
        ));
    }

    #[test]
    fn fork_isolates_memory() {
        // brk(HEAP_BASE + 0x100) so the heap exists, then exit.
        let mut parent = load("main:\n li r0, 5\n li r1, 0x1000100\n syscall\n exit 0\n");
        parent.run_until_syscall(u64::MAX).expect("run");
        parent.do_syscall(0).expect("brk");
        parent
            .mem
            .write_u64(superpin_isa::HEAP_BASE, 11)
            .expect("write heap");

        let mut child = parent.fork(2);
        assert_eq!(child.pid(), 2);
        assert_eq!(
            child.mem.read_u64(superpin_isa::HEAP_BASE).expect("read"),
            11
        );
        child
            .mem
            .write_u64(superpin_isa::HEAP_BASE, 22)
            .expect("write");
        assert_eq!(
            parent.mem.read_u64(superpin_isa::HEAP_BASE).expect("read"),
            11
        );
        assert_eq!(child.mem.stats().cow_copies, 1);
    }

    #[test]
    fn fork_preserves_cpu_and_fds() {
        let mut parent = load("main:\n li r5, 77\n exit 0\n");
        parent.run_until_syscall(2).ok();
        parent.kernel.fds.set_stdin(b"in".to_vec());
        let child = parent.fork(9);
        assert_eq!(child.cpu, parent.cpu);
        assert_eq!(child.kernel.pid, 9);
        assert_eq!(child.inst_count(), 0);
    }

    #[test]
    fn stdout_capture() {
        let mut p = load(
            r#"
            .data
            msg: .byte 104, 105
            .text
            main:
                li r0, 1
                li r1, 1
                la r2, msg
                li r3, 2
                syscall
                exit 0
            "#,
        );
        // ABI: r0=number(write=1), r1=fd, r2=buf, r3=len.
        p.run(u64::MAX, 0).expect("run");
        assert_eq!(p.output(), b"hi");
    }

    #[test]
    fn halt_surfaces_as_halted() {
        let mut p = load("main:\n halt\n");
        assert_eq!(p.run(u64::MAX, 0).expect("run"), RunExit::Halted);
    }
}
