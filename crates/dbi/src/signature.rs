//! Signature recording and detection (paper §4.4).
//!
//! A timeslice that ends on a timeout ends at an arbitrary instruction, so
//! SuperPin needs "a reliable mechanism that would uniquely identify a
//! timeslice boundary". When a new slice is forked, it records a
//! *signature* of the master's state at the boundary: the architectural
//! register file plus the top 100 words of the stack. The *previous*
//! slice then checks exactly that instruction pointer with a cheap
//! inlined two-register check (`INS_InsertIfCall`); only when the quick
//! check matches does the expensive full comparison run
//! (`INS_InsertThenCall`), verifying the architectural state and then the
//! top-of-stack state. The engine runs that check beside its split
//! point, at each entry of the trace the boundary heads
//! ([`Engine::detect_boundary`](crate::Engine::detect_boundary)), and
//! charges it as the if/then call.

use crate::trace::{fetch_decoded, InstRef, TraceSlot};
use std::collections::HashMap;
use std::sync::Arc;
use superpin_fault::{FailpointRegistry, Site};
use superpin_isa::{Reg, NUM_REGS};
use superpin_vm::mem::{PAGE_MASK, PAGE_SIZE};
use superpin_vm::process::Process;
use superpin_vm::VmError;

/// Number of stack words captured and compared by the full check.
pub const STACK_WORDS: usize = 100;

/// Default quick-check registers used when the recorder "cannot ascertain
/// a clear candidate within a specified block count".
pub const DEFAULT_QUICK_REGS: [Reg; 2] = [Reg::R1, Reg::SP];

/// How many basic blocks ahead the recorder scans while choosing the two
/// registers most likely to change.
pub const QUICK_SCAN_BLOCKS: usize = 4;

/// A recorded slice-boundary signature.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Signature {
    /// The boundary instruction pointer — detection is only attempted
    /// here.
    pub pc: u64,
    /// Full architectural register state at the boundary.
    pub regs: [u64; NUM_REGS],
    /// The top [`STACK_WORDS`] stack words (`mem[sp + 8·i]`), zero-filled
    /// where unmapped.
    pub stack: Vec<u64>,
    /// The two registers checked by the inlined quick detector.
    pub quick_regs: [Reg; 2],
    /// The recorded values of those two registers.
    pub quick_vals: [u64; 2],
}

impl Signature {
    /// Captures the signature of `process`'s current state, inferring the
    /// quick-check registers by scanning ahead (which fills the
    /// process's decode cache, and nothing a guest can observe).
    pub fn capture(process: &mut Process) -> Signature {
        let quick_regs = infer_quick_regs(process);
        Signature::capture_with_quick_regs(process, quick_regs)
    }

    /// Captures a signature with explicitly chosen quick-check registers.
    ///
    /// Word `i` of the stack is `mem[sp + 8·i]`, 0 where unmapped, with
    /// the address wrapping at 2^64, exactly as the detector's
    /// [`IArg::StackWord`](crate::IArg::StackWord) arguments read
    /// it, so capture and detection see the same words whatever the
    /// guest's SP. The words are read a page at a time: mapping is
    /// decided per page, so one read of the words wholly inside a page
    /// answers as reading each would, and a word straddling a page end
    /// (or 2^64) is read on its own.
    pub fn capture_with_quick_regs(process: &Process, quick_regs: [Reg; 2]) -> Signature {
        let regs = process.cpu.regs.snapshot();
        let sp = process.cpu.regs.get(Reg::SP);
        let mut stack = vec![0; STACK_WORDS];
        let mut bytes = [0u8; 8 * STACK_WORDS];
        let mut i = 0;
        while i < STACK_WORDS {
            let addr = sp.wrapping_add(8 * i as u64);
            let in_page = (PAGE_SIZE - (addr & PAGE_MASK) as usize) / 8;
            let run = in_page.min(STACK_WORDS - i);
            if run == 0 {
                stack[i] = process.mem.read_u64(addr).unwrap_or(0);
                i += 1;
                continue;
            }
            let bytes = &mut bytes[..8 * run];
            if process.mem.read(addr, bytes).is_ok() {
                for (word, le) in stack[i..i + run].iter_mut().zip(bytes.chunks_exact(8)) {
                    *word = u64::from_le_bytes(le.try_into().expect("eight bytes"));
                }
            }
            i += run;
        }
        Signature {
            pc: process.cpu.pc,
            regs,
            stack,
            quick_regs,
            quick_vals: [regs[quick_regs[0].index()], regs[quick_regs[1].index()]],
        }
    }

    /// Whether the two quick-check values match.
    pub fn quick_match(&self, v0: u64, v1: u64) -> bool {
        self.quick_vals == [v0, v1]
    }

    /// Whether a full register snapshot matches.
    pub fn regs_match(&self, regs: &[u64]) -> bool {
        regs.len() == NUM_REGS && self.regs[..] == *regs
    }

    /// Whether `process`'s top stack words are the recorded ones. Word
    /// `i` is read as the capture and the detector's
    /// [`IArg::StackWord`](crate::IArg::StackWord) read it:
    /// `mem[sp + 8·i]`, 0 where unmapped, the address wrapping at 2^64.
    /// Reading stops at the first word that differs.
    pub fn stack_matches(&self, process: &Process) -> bool {
        let sp = process.cpu.regs.get(Reg::SP);
        self.stack.len() == STACK_WORDS
            && self
                .stack
                .iter()
                .zip(0u64..)
                .all(|(&word, i)| process.mem.read_u64(sp.wrapping_add(8 * i)).unwrap_or(0) == word)
    }
}

/// Chooses "the two registers that are most likely to change" by scanning
/// the code ahead of the boundary for register writes, most-written
/// first. Falls back to [`DEFAULT_QUICK_REGS`] when fewer than two
/// distinct written registers are found within [`QUICK_SCAN_BLOCKS`]
/// blocks. The code is read through the process's decode cache.
fn infer_quick_regs(process: &mut Process) -> [Reg; 2] {
    let pc = process.cpu.pc;
    infer_quick_regs_from(pc, &mut TraceSlot::default(), fetch_decoded(process)).0
}

/// [`infer_quick_regs`] scanning from `pc` over the traces formed in
/// `slot` from the instructions `fetch` yields. Also returns the hull
/// `[lowest entry, highest fall-through)` of the traces scanned, or
/// `None` when a discovery failed and ended the scan.
fn infer_quick_regs_from(
    mut pc: u64,
    slot: &mut TraceSlot,
    mut fetch: impl FnMut(u64) -> Result<InstRef, VmError>,
) -> ([Reg; 2], Option<(u64, u64)>) {
    let mut writes = [0u32; NUM_REGS];
    let mut hull = Some((pc, pc));
    for _ in 0..QUICK_SCAN_BLOCKS {
        let Ok(trace) = slot.discover_with(&mut fetch, pc, None) else {
            hull = None;
            break;
        };
        hull = hull.map(|(lo, hi)| (lo.min(trace.entry()), hi.max(trace.fallthrough())));
        // Registers written inside loop bodies are the ones "highly
        // likely to change over loop iterations" (paper §4.4); weight
        // blocks ending in a backward branch accordingly.
        for bbl in trace.bbls() {
            let is_loop_body = bbl.insts().iter().any(|iref| {
                matches!(iref.inst, superpin_isa::Inst::Branch { target, .. }
                    if target <= iref.addr)
            });
            let weight = if is_loop_body { 8 } else { 1 };
            for iref in bbl.insts() {
                if let Some(rd) = iref.inst.dest_reg() {
                    writes[rd.index()] += weight;
                }
            }
        }
        // Follow the static fall-through / unconditional target.
        let tail = trace.bbls().last().expect("traces are non-empty").tail();
        pc = match tail.inst.static_target() {
            Some(target) if !matches!(tail.inst, superpin_isa::Inst::Branch { .. }) => target,
            _ => trace.fallthrough(),
        };
        if pc == 0 {
            break;
        }
    }

    let mut ranked: [usize; NUM_REGS] = std::array::from_fn(|i| i);
    ranked.sort_by_key(|&i| std::cmp::Reverse(writes[i]));
    let first_ok = writes[ranked[0]] > 0;
    let second_ok = writes[ranked[1]] > 0;
    let regs = match (first_ok, second_ok) {
        (true, true) => [Reg::new(ranked[0] as u8), Reg::new(ranked[1] as u8)],
        (true, false) => {
            let primary = Reg::new(ranked[0] as u8);
            let fallback = if primary == DEFAULT_QUICK_REGS[0] {
                DEFAULT_QUICK_REGS[1]
            } else {
                DEFAULT_QUICK_REGS[0]
            };
            [primary, fallback]
        }
        _ => DEFAULT_QUICK_REGS,
    };
    (regs, hull)
}

/// The quick-check registers a run has already chosen, by boundary pc
/// and [`code_version`](superpin_vm::mem::AddressSpace::code_version).
///
/// A third of a sliced run's timeouts land on a boundary pc an earlier
/// one already scanned. The choice is a function of the code the scan
/// read, so it is kept only when every trace scanned lies in code
/// regions — which the version vouches for — and reused while the
/// version stays the same. A scan that read anything else, or failed,
/// is made again at every capture. Host-only: the signatures it yields
/// are the ones [`Signature::capture`] would.
#[derive(Debug, Default)]
pub struct QuickRegsMemo {
    known: HashMap<(u64, u64), [Reg; 2]>,
    /// Where the scans form their traces.
    slot: TraceSlot,
}

impl QuickRegsMemo {
    /// [`Signature::capture`], choosing the quick-check registers from
    /// the memo when it can.
    pub fn capture(&mut self, process: &mut Process) -> Signature {
        let key = (process.cpu.pc, process.mem.code_version());
        let quick_regs = match self.known.get(&key) {
            Some(&regs) => regs,
            None => {
                let (regs, hull) =
                    infer_quick_regs_from(key.0, &mut self.slot, fetch_decoded(process));
                let in_code = hull
                    .is_some_and(|(lo, hi)| process.mem.code_version_over(lo, hi) == Some(key.1));
                if in_code {
                    self.known.insert(key, regs);
                }
                regs
            }
        };
        Signature::capture_with_quick_regs(process, quick_regs)
    }
}

/// Detection statistics (used to reproduce the paper's "only about 2% of
/// the time does the quick detector trigger a full architectural state
/// check").
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SignatureStats {
    /// Quick (inlined two-register) checks evaluated.
    pub quick_checks: u64,
    /// Quick checks that matched, triggering a full check.
    pub full_checks: u64,
    /// Full checks whose architectural state matched, triggering a stack
    /// comparison.
    pub stack_checks: u64,
    /// Boundary detections (stack check matched).
    pub detections: u64,
}

impl SignatureStats {
    /// Fraction of quick checks that escalated to a full check.
    pub fn full_check_rate(&self) -> f64 {
        if self.quick_checks == 0 {
            0.0
        } else {
            self.full_checks as f64 / self.quick_checks as f64
        }
    }

    /// Accumulates another stats record.
    pub fn absorb(&mut self, other: &SignatureStats) {
        self.quick_checks += other.quick_checks;
        self.full_checks += other.full_checks;
        self.stack_checks += other.stack_checks;
        self.detections += other.detections;
    }
}

/// Arguments of the detector's inlined quick check: the two quick
/// registers.
pub(crate) const QUICK_ARGS: usize = 2;

/// Arguments of the detector's full check: every register and the top
/// [`STACK_WORDS`] stack words.
pub(crate) const FULL_ARGS: usize = NUM_REGS + STACK_WORDS;

/// The slice-boundary detector an engine runs beside its split point
/// ([`Engine::detect_boundary`](crate::Engine::detect_boundary)): the
/// signature it looks for, and what its checks found.
#[derive(Clone, Debug)]
pub(crate) struct Detector {
    pub(crate) signature: Arc<Signature>,
    /// The slice whose boundary it is: the high half of every signature
    /// failpoint key.
    pub(crate) slice: u64,
    pub(crate) stats: SignatureStats,
    /// Signature failpoints fired since the engine was last armed.
    pub(crate) injected_faults: u64,
}

impl Detector {
    /// The two-stage check at the boundary pc (paper §4.4): an inlined
    /// quick check of the two likely-to-change registers
    /// (`INS_InsertIfCall`), escalating to the full comparison of every
    /// register and then the top stack words (`INS_InsertThenCall`) only
    /// on a quick match. The stack is read only once all registers
    /// match.
    ///
    /// Returns the full check's extra cycles, one compare per register
    /// and per stack word it read, if the quick check escalated, and
    /// whether the boundary was detected. `fault` and `salt` arm the
    /// [`Site::CoreSignatureQuickMiss`] and
    /// [`Site::CoreSignatureFullMismatch`] failpoints, keyed by slice,
    /// the stage's check ordinal and the salt.
    #[inline]
    pub(crate) fn check(
        &mut self,
        process: &Process,
        fault: Option<&FailpointRegistry>,
        salt: u64,
    ) -> (Option<u64>, bool) {
        let (sig, regs) = (&self.signature, &process.cpu.regs);
        self.stats.quick_checks += 1;
        if !sig.quick_match(regs.get(sig.quick_regs[0]), regs.get(sig.quick_regs[1])) {
            return (None, false);
        }
        self.escalate(process, fault, salt)
    }

    /// The check past a quick match: about one in 165 on `steady_t1`,
    /// so kept out of the dispatch loop.
    #[cold]
    #[inline(never)]
    fn escalate(
        &mut self,
        process: &Process,
        fault: Option<&FailpointRegistry>,
        salt: u64,
    ) -> (Option<u64>, bool) {
        let (sig, slice, stats) = (&self.signature, self.slice, &mut self.stats);
        let injected = &mut self.injected_faults;
        let mut injects = |site: Site, ordinal: u64| {
            let key = (slice << 32) ^ ordinal ^ (salt << 56);
            let fired = fault.is_some_and(|fault| fault.fire(site, key));
            *injected += u64::from(fired);
            fired
        };
        // Failpoint: suppress a genuine quick match, so the slice sails
        // past its true boundary (manufactured runaway).
        if injects(Site::CoreSignatureQuickMiss, stats.quick_checks) {
            return (None, false);
        }
        stats.full_checks += 1;
        // Full architectural comparison: one compare per register.
        let mut extra = NUM_REGS as u64;
        let mut detected = false;
        // Failpoint: pretend the full comparison rejected, skipping the
        // stack stage entirely (manufactured runaway with a skewed check
        // mix).
        if sig.regs_match(&process.cpu.regs.snapshot())
            && !injects(Site::CoreSignatureFullMismatch, stats.full_checks)
        {
            stats.stack_checks += 1;
            // Top-of-stack comparison: one compare per word.
            extra += STACK_WORDS as u64;
            detected = sig.stack_matches(process);
            stats.detections += u64::from(detected);
        }
        (Some(extra), detected)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use superpin_isa::asm::assemble;

    fn process_for(src: &str) -> Process {
        Process::load(1, &assemble(src).expect("assemble")).expect("load")
    }

    #[test]
    fn capture_records_regs_and_stack() {
        let mut process = process_for("main:\n li r3, 77\n exit 0\n");
        process.run_until_syscall(1).expect("run one inst");
        let sp = process.cpu.regs.get(Reg::SP);
        process.mem.write_u64(sp, 0xabcd).expect("poke stack");
        let sig = Signature::capture(&mut process);
        assert_eq!(sig.regs[3], 77);
        assert_eq!(sig.stack.len(), STACK_WORDS);
        assert_eq!(sig.stack[0], 0xabcd);
        assert_eq!(sig.pc, process.cpu.pc);
    }

    #[test]
    fn capture_wraps_like_the_detector_near_the_top_of_memory() {
        use crate::{Engine, IArg, IPoint, Inserter, Pintool, Trace};
        use superpin_vm::mem::RegionKind;

        /// Records the stack words `IArg::StackWord` arguments read.
        #[derive(Clone, Default)]
        struct StackArgs {
            seen: Option<Vec<u64>>,
        }
        impl Pintool for StackArgs {
            fn instrument_trace(&mut self, trace: &Trace, inserter: &mut Inserter<Self>) {
                inserter.insert_call(
                    trace.entry(),
                    IPoint::Before,
                    |probe: &mut StackArgs, ctx, ctl| {
                        probe.seen.get_or_insert_with(|| ctx.args.to_vec());
                        ctl.request_stop();
                    },
                    (0..STACK_WORDS as u32).map(IArg::StackWord).collect(),
                );
            }
        }

        let mut process = process_for("main:\n nop\n exit 0\n");
        // `sp + 8·i` wraps past 2^64 from i = 2 on; map page 0 so the
        // wrapped words hold data rather than the unmapped default.
        process
            .mem
            .map_region(0, 4096, RegionKind::Data)
            .expect("map page 0");
        for i in 0..STACK_WORDS as u64 {
            process.mem.write_u64(8 * i, 0x1000 + i).expect("poke");
        }
        process.cpu.regs.set(Reg::SP, u64::MAX - 8);
        let sig = Signature::capture_with_quick_regs(&process, DEFAULT_QUICK_REGS);
        // The two words below 2^64 are unmapped; the third starts at 7:
        // the top byte of word 0 (0x1000, so zero), then the low seven
        // bytes of word 1.
        assert_eq!(sig.stack[..2], [0, 0]);
        assert_eq!(sig.stack[2], 0x1001 << 8);
        // The detector's stack stage reads the same words.
        assert!(sig.stack_matches(&process));

        let mut engine = Engine::new(process, StackArgs::default());
        engine.run(u64::MAX / 4).expect("run to the stop");
        assert_eq!(engine.tool().seen.as_deref(), Some(&sig.stack[..]));
    }

    #[test]
    fn quick_match_uses_recorded_values() {
        let process = process_for("main:\n exit 0\n");
        let sig = Signature::capture_with_quick_regs(&process, [Reg::R1, Reg::R2]);
        assert!(sig.quick_match(0, 0));
        assert!(!sig.quick_match(1, 0));
    }

    #[test]
    fn infer_prefers_frequently_written_registers() {
        // Loop writes r5 (counter) and r6 (accumulator) heavily.
        let mut process = process_for(
            "main:\nloop:\n addi r5, r5, 1\n add r6, r6, r5\n bne r5, r7, loop\n exit 0\n",
        );
        let quick = infer_quick_regs(&mut process);
        assert!(quick.contains(&Reg::R5), "quick {quick:?}");
        assert!(quick.contains(&Reg::R6), "quick {quick:?}");
    }

    #[test]
    fn infer_falls_back_to_defaults() {
        // A pure jump loop: no register writes anywhere in scan range.
        let mut process = process_for("main:\n jmp main\n");
        assert_eq!(infer_quick_regs(&mut process), DEFAULT_QUICK_REGS);
    }

    #[test]
    fn infer_with_single_written_register() {
        let mut process = process_for("main:\nloop:\n addi r9, r9, 1\n jmp loop\n");
        let quick = infer_quick_regs(&mut process);
        assert_eq!(quick[0], Reg::R9);
        assert_eq!(quick[1], DEFAULT_QUICK_REGS[0]);
    }

    /// A xorshift stream: the seeded source of the property tests.
    fn xorshift(mut seed: u64) -> impl FnMut() -> u64 {
        move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        }
    }

    /// Capture reads code through the decode cache, warm from running or
    /// inherited by a fork; a scan of raw memory must pick the same
    /// registers, so the signature is the same.
    #[test]
    fn capture_through_the_decode_cache_equals_raw_memory_discovery() {
        use superpin_vm::cpu::fetch_at;
        use superpin_vm::process::RunExit;
        use superpin_workloads::{find, Scale};

        let mut next = xorshift(0x9e37_79b9_7f4a_7c15);
        for guest in ["gcc", "mcf", "crafty"] {
            let program = find(guest).expect("catalog guest").build(Scale::Tiny);
            let mut process = Process::load(1, &program).expect("load");
            let mut points = 0;
            while points < 40 {
                let mut fork = process.fork(2);
                for process in [&mut process, &mut fork] {
                    let raw = |pc| {
                        fetch_at(&process.mem, pc).map(|(inst, size)| InstRef {
                            addr: pc,
                            inst,
                            size,
                        })
                    };
                    let (raw, _) =
                        infer_quick_regs_from(process.cpu.pc, &mut TraceSlot::default(), raw);
                    let expected = Signature::capture_with_quick_regs(process, raw);
                    assert_eq!(Signature::capture(process), expected, "{guest}");
                }
                points += 1;
                let steps = 1 + next() % 800;
                if let RunExit::Exited(_) = process.run(steps, 0).expect("run") {
                    break;
                }
            }
            assert!(points >= 20, "{guest} exited after {points} points");
        }
    }

    /// The signature as first stated: quick-check registers from a fresh
    /// scan, and each stack word read on its own.
    fn per_word_capture(process: &mut Process) -> Signature {
        let quick_regs = infer_quick_regs(process);
        let sp = process.cpu.regs.get(Reg::SP);
        let regs = process.cpu.regs.snapshot();
        Signature {
            pc: process.cpu.pc,
            regs,
            stack: (0..STACK_WORDS as u64)
                .map(|i| process.mem.read_u64(sp.wrapping_add(8 * i)).unwrap_or(0))
                .collect(),
            quick_regs,
            quick_vals: [regs[quick_regs[0].index()], regs[quick_regs[1].index()]],
        }
    }

    /// The memoised, page-run capture equals the per-word one with a
    /// fresh scan: at random points of three guests, and there under
    /// every awkward stack pointer — 8 bytes below a page end, unaligned,
    /// unaligned below the end of the stack with nothing mapped past it,
    /// on an unmapped page, and close enough to 2^64 to wrap.
    #[test]
    fn memoised_page_run_capture_equals_a_per_word_fresh_capture() {
        use superpin_vm::process::RunExit;
        use superpin_workloads::{find, Scale};

        let mut next = xorshift(0x2545_f491_4f6c_dd1d);
        for guest in ["gcc", "mcf", "crafty"] {
            let program = find(guest).expect("catalog guest").build(Scale::Tiny);
            let mut process = Process::load(1, &program).expect("load");
            let mut memo = QuickRegsMemo::default();
            let mut points = 0u64;
            loop {
                let sp = process.cpu.regs.get(Reg::SP);
                let page_end = (sp | PAGE_MASK) + 1;
                let unmapped = (1..)
                    .map(|k| 0x4000_0000_0000 + k * PAGE_SIZE as u64)
                    .find(|&addr| !process.mem.is_mapped(addr))
                    .expect("an unmapped page");
                let stack_end = process
                    .mem
                    .regions()
                    .iter()
                    .find(|region| region.contains(sp))
                    .expect("SP is mapped")
                    .end();
                assert!(!process.mem.is_mapped(stack_end));
                let sps = [
                    sp,
                    page_end - 8,
                    sp + 1 + next() % 7,
                    stack_end - 8 * (1 + next() % 99) - (1 + next() % 7),
                    unmapped + 8 * (next() % 512),
                    0u64.wrapping_sub(1 + next() % 800),
                ];
                for sp in sps {
                    let mut probe = process.clone();
                    // Something to see in the last words below the end.
                    probe
                        .mem
                        .write_u64(stack_end - 16, 0x5151_5151_5151_5151)
                        .expect("poke the stack");
                    probe.cpu.regs.set(Reg::SP, sp);
                    let want = per_word_capture(&mut probe.clone());
                    assert_eq!(memo.capture(&mut probe), want, "{guest} sp {sp:#x}");
                }
                points += 1;
                let steps = 1 + next() % 400;
                if let RunExit::Exited(_) = process.run(steps, 0).expect("run") {
                    break;
                }
                if points == 60 {
                    break;
                }
            }
            assert!(points >= 20, "{guest} exited after {points} points");
            // Guests revisit their loops, so some boundaries recur and the
            // memo answers them.
            assert!(
                (memo.known.len() as u64) < points,
                "{guest}: {} scans kept for {points} points",
                memo.known.len()
            );
        }
    }

    /// A code write between two captures at one pc moves the code
    /// version, so the memo must scan again and see the new code.
    #[test]
    fn a_code_write_between_captures_at_one_pc_is_scanned_again() {
        let src = "main:\nloop:\n addi r5, r5, 1\n add r6, r6, r5\n bne r5, r7, loop\n exit 0\n";
        let program = assemble(src).expect("assemble");
        let rewritten =
            assemble(&src.replace("add r6, r6, r5", "add r9, r9, r5")).expect("assemble");
        let mut process = Process::load(1, &program).expect("load");
        let mut memo = QuickRegsMemo::default();
        let first = memo.capture(&mut process);
        assert_eq!(first, per_word_capture(&mut process.clone()));
        assert_eq!(memo.capture(&mut process), first, "a hit on unchanged code");
        assert_eq!(memo.known.len(), 1);

        process
            .mem
            .write(rewritten.code_base(), rewritten.code())
            .expect("rewrite code");
        let second = memo.capture(&mut process);
        assert_eq!(second, per_word_capture(&mut process.clone()));
        assert_eq!((first.pc, second.pc), (process.cpu.pc, process.cpu.pc));
        assert!(
            first.quick_regs.contains(&Reg::R6),
            "{:?}",
            first.quick_regs
        );
        assert!(
            second.quick_regs.contains(&Reg::R9),
            "{:?}",
            second.quick_regs
        );
        assert_eq!(memo.known.len(), 2);
    }

    #[test]
    fn full_and_stack_match() {
        let mut process = process_for("main:\n exit 0\n");
        let sig = Signature::capture(&mut process);
        let regs = process.cpu.regs.snapshot();
        assert!(sig.regs_match(&regs));
        let mut wrong = regs;
        wrong[4] ^= 1;
        assert!(!sig.regs_match(&wrong));
        assert!(sig.stack_matches(&process));
        // The deepest mapped word of the hundred decides too.
        let sp = process.cpu.regs.get(Reg::SP);
        let deepest = (0..STACK_WORDS as u64)
            .rev()
            .map(|i| sp + 8 * i)
            .find(|&addr| process.mem.is_mapped(addr + 7))
            .expect("sp is mapped");
        let word = process.mem.read_u64(deepest).expect("mapped");
        process.mem.write_u64(deepest, word ^ 1).expect("poke");
        assert!(!sig.stack_matches(&process));
    }

    #[test]
    fn stats_rate() {
        let stats = SignatureStats {
            quick_checks: 100,
            full_checks: 2,
            ..SignatureStats::default()
        };
        assert!((stats.full_check_rate() - 0.02).abs() < 1e-12);
        let mut total = SignatureStats::default();
        total.absorb(&stats);
        total.absorb(&stats);
        assert_eq!(total.quick_checks, 200);
        assert_eq!(SignatureStats::default().full_check_rate(), 0.0);
    }
}
