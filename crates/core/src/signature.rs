//! Signature recording and detection (paper §4.4).
//!
//! A timeslice that ends on a timeout ends at an arbitrary instruction, so
//! SuperPin needs "a reliable mechanism that would uniquely identify a
//! timeslice boundary". When a new slice is forked, it records a
//! *signature* of the master's state at the boundary: the architectural
//! register file plus the top 100 words of the stack. The *previous*
//! slice then instruments exactly that instruction pointer with a cheap
//! inlined two-register check (`INS_InsertIfCall`); only when the quick
//! check matches does the expensive full comparison run
//! (`INS_InsertThenCall`), verifying the architectural state and then the
//! top-of-stack state.

use superpin_dbi::trace::discover_trace;
use superpin_isa::{Reg, NUM_REGS};
use superpin_vm::process::Process;

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
    /// quick-check registers by scanning ahead.
    pub fn capture(process: &Process) -> Signature {
        let quick_regs = infer_quick_regs(process);
        Signature::capture_with_quick_regs(process, quick_regs)
    }

    /// Captures a signature with explicitly chosen quick-check registers.
    ///
    /// Stack addresses wrap at 2^64 exactly as the detector's
    /// [`IArg::StackWord`](superpin_dbi::IArg::StackWord) arguments do,
    /// so capture and detection read the same words whatever the
    /// guest's SP.
    pub fn capture_with_quick_regs(process: &Process, quick_regs: [Reg; 2]) -> Signature {
        let regs = process.cpu.regs.snapshot();
        let sp = process.cpu.regs.get(Reg::SP);
        let stack = (0..STACK_WORDS as u64)
            .map(|i| process.mem.read_u64(sp.wrapping_add(8 * i)).unwrap_or(0))
            .collect();
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

    /// Whether a stack snapshot matches.
    pub fn stack_match(&self, stack: &[u64]) -> bool {
        stack.len() == self.stack.len() && self.stack[..] == *stack
    }
}

/// Chooses "the two registers that are most likely to change" by scanning
/// the code ahead of the boundary for register writes, most-written
/// first. Falls back to [`DEFAULT_QUICK_REGS`] when fewer than two
/// distinct written registers are found within [`QUICK_SCAN_BLOCKS`]
/// blocks.
pub fn infer_quick_regs(process: &Process) -> [Reg; 2] {
    let mut writes = [0u32; NUM_REGS];
    let mut pc = process.cpu.pc;
    for _ in 0..QUICK_SCAN_BLOCKS {
        let Ok(trace) = discover_trace(&process.mem, pc) else {
            break;
        };
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

    let mut ranked: Vec<usize> = (0..NUM_REGS).collect();
    ranked.sort_by_key(|&i| std::cmp::Reverse(writes[i]));
    let first_ok = writes[ranked[0]] > 0;
    let second_ok = writes[ranked[1]] > 0;
    match (first_ok, second_ok) {
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
        let sig = Signature::capture(&process);
        assert_eq!(sig.regs[3], 77);
        assert_eq!(sig.stack.len(), STACK_WORDS);
        assert_eq!(sig.stack[0], 0xabcd);
        assert_eq!(sig.pc, process.cpu.pc);
    }

    #[test]
    fn capture_wraps_like_the_detector_near_the_top_of_memory() {
        use superpin_dbi::{Engine, IArg, IPoint, Inserter, Pintool, Trace};
        use superpin_vm::mem::RegionKind;

        /// Records the stack words the detector's then-call would see.
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
        // The two words below 2^64 are unmapped; the third starts at 7.
        assert_eq!(sig.stack[..2], [0, 0]);
        assert_eq!(sig.stack[2], (0x1000 >> 56) | (0x1001 << 8));

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
        let process = process_for(
            "main:\nloop:\n addi r5, r5, 1\n add r6, r6, r5\n bne r5, r7, loop\n exit 0\n",
        );
        let quick = infer_quick_regs(&process);
        assert!(quick.contains(&Reg::R5), "quick {quick:?}");
        assert!(quick.contains(&Reg::R6), "quick {quick:?}");
    }

    #[test]
    fn infer_falls_back_to_defaults() {
        // A pure jump loop: no register writes anywhere in scan range.
        let process = process_for("main:\n jmp main\n");
        assert_eq!(infer_quick_regs(&process), DEFAULT_QUICK_REGS);
    }

    #[test]
    fn infer_with_single_written_register() {
        let process = process_for("main:\nloop:\n addi r9, r9, 1\n jmp loop\n");
        let quick = infer_quick_regs(&process);
        assert_eq!(quick[0], Reg::R9);
        assert_eq!(quick[1], DEFAULT_QUICK_REGS[0]);
    }

    #[test]
    fn full_and_stack_match() {
        let process = process_for("main:\n exit 0\n");
        let sig = Signature::capture(&process);
        let regs = process.cpu.regs.snapshot();
        assert!(sig.regs_match(&regs));
        let mut wrong = regs;
        wrong[4] ^= 1;
        assert!(!sig.regs_match(&wrong));
        assert!(sig.stack_match(&sig.stack.clone()));
        assert!(!sig.stack_match(&sig.stack[1..]));
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
