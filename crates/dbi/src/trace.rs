//! Trace and basic-block discovery.
//!
//! Like Pin, the JIT unit is a *trace*: a single-entry, multiple-exit
//! straight-line region. A trace starts at the requested address and
//! extends across fall-through basic-block boundaries until it reaches an
//! unconditional control transfer, a syscall, a block-count limit, or an
//! instruction-count limit.

use superpin_isa::Inst;
use superpin_vm::cpu::fetch_at;
use superpin_vm::mem::AddressSpace;
use superpin_vm::process::Process;
use superpin_vm::VmError;

/// Upper bound on basic blocks per trace (Pin uses similar small limits).
pub const MAX_BBLS_PER_TRACE: usize = 3;

/// Upper bound on instructions per trace.
pub const MAX_INSTS_PER_TRACE: usize = 96;

/// One decoded instruction within a trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InstRef {
    /// Virtual address of the instruction.
    pub addr: u64,
    /// The decoded instruction.
    pub inst: Inst,
    /// Encoded size in bytes.
    pub size: u64,
}

/// A single-entry basic block: instructions up to and including the first
/// block terminator.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BasicBlock {
    insts: Vec<InstRef>,
}

impl BasicBlock {
    /// The instructions of the block, in order.
    pub fn insts(&self) -> &[InstRef] {
        &self.insts
    }

    /// Address of the first instruction.
    pub fn head_addr(&self) -> u64 {
        self.insts[0].addr
    }

    /// Number of instructions — what `icount2` adds per block execution.
    pub fn num_insts(&self) -> usize {
        self.insts.len()
    }

    /// The block's final (terminating or trace-truncated) instruction.
    pub fn tail(&self) -> InstRef {
        *self.insts.last().expect("blocks are non-empty")
    }
}

/// A discovered trace: one or more basic blocks laid out contiguously.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Trace {
    entry: u64,
    bbls: Vec<BasicBlock>,
}

impl Trace {
    /// Entry address (the code-cache key).
    pub fn entry(&self) -> u64 {
        self.entry
    }

    /// The trace's basic blocks in order (`TRACE_BblHead`/`BBL_Next`).
    pub fn bbls(&self) -> &[BasicBlock] {
        &self.bbls
    }

    /// Iterates every instruction of the trace in order.
    pub fn insts(&self) -> impl Iterator<Item = &InstRef> + Clone {
        self.bbls.iter().flat_map(|bbl| bbl.insts().iter())
    }

    /// Total instruction count.
    pub fn num_insts(&self) -> usize {
        self.bbls.iter().map(BasicBlock::num_insts).sum()
    }

    /// Address immediately after the trace's last instruction (the
    /// fall-through continuation if the last block doesn't transfer).
    pub fn fallthrough(&self) -> u64 {
        let tail = self.bbls.last().expect("traces are non-empty").tail();
        tail.addr + tail.size
    }
}

/// Discovers the trace starting at `entry` by decoding guest memory.
///
/// Blocks end at any [`Inst::ends_basic_block`] instruction. The trace
/// continues past *conditional* branches (their fall-through starts the
/// next block) and stops at unconditional transfers, syscalls, `halt`,
/// or the size limits.
///
/// # Errors
///
/// Propagates decode/fetch errors.
pub fn discover_trace(mem: &AddressSpace, entry: u64) -> Result<Trace, VmError> {
    discover_trace_split(mem, entry, None)
}

/// [`discover_trace`] with an optional *split point*: the trace ends just
/// before `split`, so that address always begins its own trace/block.
///
/// SuperPin slices set the split to their boundary pc (paper §4.4): the
/// signature detector then runs at a trace head, before any
/// block-granularity instrumentation of the boundary block has run, which
/// keeps block-counting tools exact across slice boundaries.
///
/// # Errors
///
/// Propagates decode/fetch errors.
pub fn discover_trace_split(
    mem: &AddressSpace,
    entry: u64,
    split: Option<u64>,
) -> Result<Trace, VmError> {
    discover_trace_with(
        |pc| {
            fetch_at(mem, pc).map(|(inst, size)| InstRef {
                addr: pc,
                inst,
                size,
            })
        },
        entry,
        split,
    )
}

/// [`discover_trace_split`] through `process`'s decode cache
/// ([`Process::fetch_decoded`]): the same trace, decoding only words no
/// earlier fetch in this process, or in the one it was forked from,
/// decoded.
///
/// # Errors
///
/// Propagates fetch errors.
pub fn discover_trace_decoded(
    process: &mut Process,
    entry: u64,
    split: Option<u64>,
) -> Result<Trace, VmError> {
    let mut slot = TraceSlot::default();
    slot.discover_decoded(process, entry, split)?;
    Ok(slot.into_trace())
}

/// Fetches through `process`'s decode cache
/// ([`Process::fetch_decoded`]), as [`InstRef`]s: the instruction
/// source [`TraceSlot::discover_decoded`] discovers from.
pub fn fetch_decoded(process: &mut Process) -> impl FnMut(u64) -> Result<InstRef, VmError> + '_ {
    |pc| {
        let (inst, size) = process.fetch_decoded(pc)?;
        Ok(InstRef {
            addr: pc,
            inst,
            size,
        })
    }
}

/// [`discover_trace_split`] over an arbitrary instruction source.
///
/// The fetch closure says where decoded instructions come from: a
/// fresh guest-memory decode ([`fetch_at`]) or, in the engine, the
/// process's per-page decode cache. Both yield identical [`InstRef`]s
/// for the same pc.
///
/// # Errors
///
/// Propagates fetch errors.
pub fn discover_trace_with(
    fetch: impl FnMut(u64) -> Result<InstRef, VmError>,
    entry: u64,
    split: Option<u64>,
) -> Result<Trace, VmError> {
    let mut slot = TraceSlot::default();
    slot.discover_with(fetch, entry, split)?;
    Ok(slot.into_trace())
}

/// Where one discovery after another forms its trace. The last trace's
/// vectors are emptied and refilled rather than dropped, so once warm a
/// discovery allocates nothing: the engine forms every trace it compiles
/// in one slot, and the signature recorder every trace it scans.
#[derive(Clone, Debug, Default)]
pub struct TraceSlot {
    trace: Option<Trace>,
    /// The last trace's block vectors, waiting to be refilled. An empty
    /// slot has no capacity.
    spare: [Vec<InstRef>; MAX_BBLS_PER_TRACE],
}

impl TraceSlot {
    /// [`discover_trace_decoded`] into this slot.
    ///
    /// # Errors
    ///
    /// Propagates fetch errors.
    pub fn discover_decoded(
        &mut self,
        process: &mut Process,
        entry: u64,
        split: Option<u64>,
    ) -> Result<&Trace, VmError> {
        self.discover_with(fetch_decoded(process), entry, split)
    }

    /// [`discover_trace_with`] into this slot: the one place with the
    /// termination rule.
    ///
    /// # Errors
    ///
    /// Propagates fetch errors; the slot then holds no trace a caller
    /// can see, and the next discovery starts over.
    pub fn discover_with(
        &mut self,
        mut fetch: impl FnMut(u64) -> Result<InstRef, VmError>,
        entry: u64,
        split: Option<u64>,
    ) -> Result<&Trace, VmError> {
        let trace = self.trace.get_or_insert_with(|| Trace {
            entry,
            bbls: Vec::with_capacity(MAX_BBLS_PER_TRACE),
        });
        let spare = &mut self.spare;
        for bbl in trace.bbls.drain(..) {
            stash(spare, bbl.insts);
        }
        // A block never holds more than a trace does, so a buffer made
        // that large never grows.
        let mut fresh = || match spare.iter_mut().find(|insts| insts.capacity() > 0) {
            Some(insts) => {
                let mut insts = std::mem::take(insts);
                insts.clear();
                insts
            }
            None => Vec::with_capacity(MAX_INSTS_PER_TRACE),
        };
        trace.entry = entry;
        // A buffer is taken only when an instruction needs one, so
        // ending a block takes none for a block that never starts.
        let mut current = Vec::new();
        let mut pc = entry;
        let mut total = 0usize;

        loop {
            if split == Some(pc) && total > 0 {
                if !current.is_empty() {
                    trace.bbls.push(BasicBlock {
                        insts: std::mem::take(&mut current),
                    });
                }
                break;
            }
            let inst_ref = fetch(pc)?;
            if current.capacity() == 0 {
                current = fresh();
            }
            current.push(inst_ref);
            total += 1;
            pc += inst_ref.size;

            let ends_block = inst_ref.inst.ends_basic_block();
            if ends_block {
                let continues = matches!(inst_ref.inst, Inst::Branch { .. });
                trace.bbls.push(BasicBlock {
                    insts: std::mem::take(&mut current),
                });
                if !continues
                    || trace.bbls.len() >= MAX_BBLS_PER_TRACE
                    || total >= MAX_INSTS_PER_TRACE
                {
                    break;
                }
            } else if total >= MAX_INSTS_PER_TRACE {
                trace.bbls.push(BasicBlock {
                    insts: std::mem::take(&mut current),
                });
                break;
            }
        }
        // Every way out of the loop has moved `current` into a block.
        debug_assert_eq!(current.capacity(), 0);
        Ok(trace)
    }

    /// The trace the last successful discovery formed.
    fn into_trace(self) -> Trace {
        self.trace.expect("a discovery succeeded")
    }
}

/// Keeps `insts` in the first empty slot of `spare`.
fn stash(spare: &mut [Vec<InstRef>], insts: Vec<InstRef>) {
    if let Some(slot) = spare.iter_mut().find(|slot| slot.capacity() == 0) {
        *slot = insts;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use superpin_isa::asm::assemble;

    fn mem_for(src: &str) -> (AddressSpace, u64) {
        let program = assemble(src).expect("assemble");
        let process = Process::load(1, &program).expect("load");
        (process.mem.clone(), program.entry())
    }

    #[test]
    fn single_block_ends_at_jmp() {
        let (mem, entry) = mem_for("main:\n nop\n nop\n jmp main\n");
        let trace = discover_trace(&mem, entry).expect("trace");
        assert_eq!(trace.bbls().len(), 1);
        assert_eq!(trace.num_insts(), 3);
        assert_eq!(trace.entry(), entry);
    }

    #[test]
    fn conditional_branch_extends_trace() {
        let (mem, entry) = mem_for(
            "main:\n beq r1, r2, out\n nop\n beq r3, r4, out\n nop\n jmp main\nout:\n exit 0\n",
        );
        let trace = discover_trace(&mem, entry).expect("trace");
        // bbl1 = [beq], bbl2 = [nop, beq], bbl3 = [nop, jmp] — 3-block cap.
        assert_eq!(trace.bbls().len(), 3);
        assert_eq!(trace.bbls()[0].num_insts(), 1);
        assert_eq!(trace.bbls()[1].num_insts(), 2);
        assert_eq!(trace.bbls()[2].num_insts(), 2);
    }

    #[test]
    fn bbl_cap_stops_trace() {
        let (mem, entry) = mem_for(
            "main:\n beq r1, r2, main\n beq r1, r2, main\n beq r1, r2, main\n beq r1, r2, main\n exit 0\n",
        );
        let trace = discover_trace(&mem, entry).expect("trace");
        assert_eq!(trace.bbls().len(), MAX_BBLS_PER_TRACE);
        // Fall-through resumes at the 4th branch.
        assert_eq!(trace.fallthrough(), entry + 3 * 8);
    }

    #[test]
    fn syscall_terminates_block_and_trace() {
        let (mem, entry) = mem_for("main:\n nop\n syscall\n nop\n jmp main\n");
        let trace = discover_trace(&mem, entry).expect("trace");
        assert_eq!(trace.bbls().len(), 1);
        assert_eq!(trace.num_insts(), 2);
        assert!(matches!(trace.bbls()[0].tail().inst, Inst::Syscall));
    }

    #[test]
    fn inst_cap_truncates_long_block() {
        let body = "nop\n".repeat(2 * MAX_INSTS_PER_TRACE);
        let src = format!("main:\n{body} jmp main\n");
        let (mem, entry) = mem_for(&src);
        let trace = discover_trace(&mem, entry).expect("trace");
        assert_eq!(trace.num_insts(), MAX_INSTS_PER_TRACE);
        assert_eq!(
            trace.fallthrough(),
            entry + (MAX_INSTS_PER_TRACE as u64) * 8
        );
    }

    #[test]
    fn fallthrough_after_variable_length() {
        let (mem, entry) = mem_for("main:\n li r1, 1\n jmp main\n");
        let trace = discover_trace(&mem, entry).expect("trace");
        assert_eq!(trace.num_insts(), 2);
        // li is 16 bytes, jmp 8.
        assert_eq!(trace.fallthrough(), entry + 24);
    }

    #[test]
    fn a_slot_rediscovers_what_a_fresh_discovery_finds() {
        let (mem, entry) =
            mem_for("main:\n beq r1, r2, main\n nop\n beq r3, r4, main\n nop\n nop\n jmp main\n");
        let fetch = |pc| {
            fetch_at(&mem, pc).map(|(inst, size)| InstRef {
                addr: pc,
                inst,
                size,
            })
        };
        let mut slot = TraceSlot::default();
        // Three blocks, fewer, a split, a failed fetch, then three again:
        // whatever the slot held before must not show.
        let starts = [
            (entry, None),
            (entry + 24, None),
            (entry, Some(entry + 16)),
            (0xdead_0000, None),
            (entry + 8, None),
            (entry, None),
        ];
        for (start, split) in starts {
            let fresh = discover_trace_split(&mem, start, split).ok();
            let reused = slot.discover_with(fetch, start, split).ok().cloned();
            assert_eq!(reused, fresh, "{start:#x} {split:?}");
        }
    }

    #[test]
    fn discover_trace_reports_bad_code() {
        let (mut mem, entry) = mem_for("main:\n nop\n jmp main\n");
        mem.write(entry, &[0xff; 8]).expect("poison");
        assert!(matches!(
            discover_trace(&mem, entry),
            Err(VmError::Decode { pc, .. }) if pc == entry
        ));
    }
}
