//! `DecodeCache::run` against a `cpu::step` loop on seeded random code.
//!
//! The streamed interpreter takes each instruction from the decoded page
//! it is on and falls back to a checked fetch on a page change, a
//! misaligned pc, a code write or a word it has not decoded. Each
//! generated guest walks into every one of those: stores into the very
//! next instruction and into a later word of the same page, calls and
//! returns across pages, a jump to a misaligned pc, a 16-byte `li` in the
//! last word of a page, a `munmap` of a code region it later calls into,
//! and counted loops that stream the same words many times. Every budget
//! from 0 to past the end of the run is cut, then resumed with the same
//! cache: CPU state, instruction count, the stop or error and
//! `content_digest` must equal the reference's at the cut and at the end.

use proptest::TestRng;
use superpin_isa::{encode, AluOp, BranchKind, Inst, MemWidth, Reg};
use superpin_vm::cpu::{self, CpuState, ExecOutcome};
use superpin_vm::decode::{DecodeCache, RunStop};
use superpin_vm::kernel::{self, KernelState};
use superpin_vm::mem::{AddressSpace, RegionKind, PAGE_SIZE};

/// Three pages of straight-line code.
const CODE: u64 = 0x10_000;
const CODE_PAGES: u64 = 3;
/// One page holding a leaf routine; the guest may `munmap` it.
const LEAF: u64 = 0x20_000;
const DATA: u64 = 0x40_000;
const PAGE: u64 = PAGE_SIZE as u64;
/// No guest runs longer than this, loops included.
const CAP: u64 = 400;
const CASES: u32 = 40;

/// Scratch registers the generated ALU work uses. `r5`, `r6` and `r11`
/// feed the stores into code, `r7` counts loops down, `r8` and `r9`
/// belong to the leaf routine.
const WORK: [Reg; 4] = [Reg::R1, Reg::R2, Reg::R3, Reg::R4];
/// Never written: the loops count down to it.
const ZERO: Reg = Reg::R10;

/// A guest under construction: the code image of the three code pages.
struct Gen<'a> {
    rng: &'a mut TestRng,
    code: Vec<u8>,
}

impl Gen<'_> {
    fn pc(&self) -> u64 {
        CODE + self.code.len() as u64
    }

    fn emit(&mut self, inst: Inst) {
        encode(inst, &mut self.code);
    }

    fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.rng.below(items.len() as u64) as usize]
    }

    fn alu(&mut self) -> Inst {
        let op = self.pick(&[AluOp::Add, AluOp::Sub, AluOp::Xor, AluOp::Or, AluOp::Mul]);
        let (rd, rs1, rs2) = (self.pick(&WORK), self.pick(&WORK), self.pick(&WORK));
        if self.rng.below(2) == 0 {
            Inst::Alu { op, rd, rs1, rs2 }
        } else {
            let imm = self.rng.below(64) as i32 - 32;
            Inst::AluImm { op, rd, rs1, imm }
        }
    }

    /// One 8-byte instruction as the word a store writes over code.
    fn alu_word(&mut self) -> i64 {
        let mut bytes = Vec::new();
        encode(self.alu(), &mut bytes);
        i64::from_le_bytes(bytes[..8].try_into().expect("one word"))
    }

    fn li(&mut self, rd: Reg, imm: i64) {
        self.emit(Inst::Li { rd, imm });
    }

    /// A counted loop that stores an ALU instruction into the word
    /// `words` after the store itself (1 = the very next instruction),
    /// alternating between two encodings: from the second iteration on,
    /// the word it rewrites has been decoded before.
    fn store_into_code(&mut self, words: u64) {
        let (first, second) = (self.alu_word(), self.alu_word());
        self.li(Reg::R6, first);
        self.li(Reg::R11, first ^ second);
        let count = 2 + self.rng.below(3) as i64;
        self.li(Reg::R7, count);
        let head = self.pc();
        // The store sits after the next 16-byte `li`.
        let target = head + 16 + 8 * words;
        self.li(Reg::R5, target as i64);
        self.emit(Inst::St {
            rs: Reg::R6,
            base: Reg::R5,
            offset: 0,
            width: MemWidth::D,
        });
        for _ in 0..words {
            self.emit(Inst::Nop);
        }
        self.emit(Inst::Alu {
            op: AluOp::Xor,
            rd: Reg::R6,
            rs1: Reg::R6,
            rs2: Reg::R11,
        });
        self.count_down(head);
    }

    /// Closes a counted loop on `r7` back to `head`.
    fn count_down(&mut self, head: u64) {
        self.emit(Inst::AluImm {
            op: AluOp::Sub,
            rd: Reg::R7,
            rs1: Reg::R7,
            imm: 1,
        });
        self.emit(Inst::Branch {
            kind: BranchKind::Ne,
            rs1: Reg::R7,
            rs2: ZERO,
            target: head,
        });
    }

    fn snippet(&mut self) {
        match self.rng.below(10) {
            0..=2 => {
                let inst = self.alu();
                self.emit(inst);
            }
            3 => {
                // A counted loop: its body streams from the decoded page.
                let count = 1 + self.rng.below(6) as i64;
                self.li(Reg::R7, count);
                let head = self.pc();
                for _ in 0..1 + self.rng.below(3) {
                    let inst = self.alu();
                    self.emit(inst);
                }
                self.count_down(head);
            }
            4 => {
                let offset = 8 * self.rng.below(16) as i32;
                self.li(Reg::R5, DATA as i64);
                let rs = self.pick(&WORK);
                self.emit(Inst::St {
                    rs,
                    base: Reg::R5,
                    offset,
                    width: MemWidth::D,
                });
                let rd = self.pick(&WORK);
                self.emit(Inst::Ld {
                    rd,
                    base: Reg::R5,
                    offset,
                    width: MemWidth::W,
                });
            }
            5 => self.store_into_code(1),
            6 => {
                let words = 2 + self.rng.below(4);
                self.store_into_code(words);
            }
            7 => {
                // A call into the leaf page and back: two page changes.
                self.emit(Inst::Jal {
                    rd: Reg::RA,
                    target: LEAF,
                });
            }
            8 => {
                // A forward jump over a few words that are never run.
                let skip = 1 + self.rng.below(4);
                let target = self.pc() + 8 + 8 * skip;
                self.emit(Inst::Jmp { target });
                for _ in 0..skip {
                    self.emit(Inst::Halt);
                }
            }
            _ => {
                // getpid, or now and then a `munmap` of the leaf page.
                let munmap = self.rng.below(4) == 0;
                self.li(Reg::R0, if munmap { 7 } else { 9 });
                self.li(Reg::R1, LEAF as i64);
                self.emit(Inst::Syscall);
            }
        }
    }

    /// Lays out the rest of the current page: a few snippets, a jump
    /// over most of the page, a few more snippets near its end, and a
    /// 16-byte `li` in its last word whose payload is on the next page.
    fn fill_page(&mut self) {
        let end = (self.pc() / PAGE + 1) * PAGE;
        for _ in 0..2 + self.rng.below(4) {
            self.snippet();
        }
        let tail = end - 256;
        self.emit(Inst::Jmp { target: tail });
        while self.pc() < tail {
            self.emit(Inst::Halt);
        }
        // The longest snippet is 136 bytes.
        while self.pc() + 136 <= end {
            self.snippet();
        }
        while self.pc() < end - 8 {
            let inst = self.alu();
            self.emit(inst);
        }
        let reg = self.pick(&WORK);
        let imm = self.rng.next_u64() as i64;
        self.li(reg, imm);
    }
}

/// A random guest in a fresh address space, with the misaligned jump
/// planted in a third of the cases.
fn guest(rng: &mut TestRng) -> (AddressSpace, CpuState) {
    let mut gen = Gen {
        rng,
        code: Vec::new(),
    };
    gen.fill_page();
    gen.fill_page();
    // The last page: a little more work, then in a third of the guests
    // a jump to a misaligned pc inside this page's first instruction,
    // which has run and been decoded by then (it starts one word in,
    // after the payload of the `li` that ends the page before), then
    // `exit`.
    let first = gen.pc();
    for _ in 0..4 {
        gen.snippet();
    }
    if gen.rng.below(3) == 0 {
        gen.emit(Inst::Jmp { target: first + 4 });
    }
    gen.li(Reg::R0, 0);
    gen.li(Reg::R1, 0);
    gen.emit(Inst::Syscall);
    let code = gen.code;
    assert!(
        code.len() as u64 <= CODE_PAGES * PAGE,
        "guest overflows its pages"
    );

    let mut leaf = Vec::new();
    encode(
        Inst::AluImm {
            op: AluOp::Add,
            rd: Reg::R8,
            rs1: Reg::R8,
            imm: 1,
        },
        &mut leaf,
    );
    encode(
        Inst::Jalr {
            rd: Reg::R9,
            rs: Reg::RA,
            offset: 0,
        },
        &mut leaf,
    );

    let mut mem = AddressSpace::new(0x0100_0000);
    mem.map_region(CODE, CODE_PAGES * PAGE, RegionKind::Code)
        .expect("map code");
    mem.map_region(LEAF, PAGE, RegionKind::Code)
        .expect("map leaf");
    mem.map_region(DATA, PAGE, RegionKind::Data)
        .expect("map data");
    mem.write(CODE, &code).expect("write code");
    mem.write(LEAF, &leaf).expect("write leaf");
    (mem, CpuState::at(CODE))
}

/// A guest mid-run: what both interpreters advance.
#[derive(Clone)]
struct Machine {
    cpu: CpuState,
    mem: AddressSpace,
    kernel: KernelState,
    count: u64,
}

/// Why a drive returned.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Stop {
    Budget,
    Halt,
    Exited(i64),
    Error(String),
}

impl Machine {
    /// Services the syscall `cpu.pc` is parked at.
    fn syscall(&mut self) -> Option<Stop> {
        match kernel::execute_syscall(&mut self.cpu, &mut self.mem, &mut self.kernel, 0) {
            Ok(record) => {
                self.count += 1;
                record.exited.map(Stop::Exited)
            }
            Err(err) => Some(Stop::Error(format!("{err:?}"))),
        }
    }

    /// The reference: one `cpu::step` at a time until `count` reaches
    /// `limit` or the guest stops.
    fn step_to(&mut self, limit: u64) -> Stop {
        loop {
            if self.count >= limit {
                return Stop::Budget;
            }
            match cpu::step(&mut self.cpu, &mut self.mem) {
                Ok(ExecOutcome::Next | ExecOutcome::Jumped) => self.count += 1,
                Ok(ExecOutcome::Halt) => return Stop::Halt,
                Ok(ExecOutcome::Syscall) => {
                    if let Some(stop) = self.syscall() {
                        return stop;
                    }
                }
                Err(err) => return Stop::Error(format!("{err:?}")),
            }
        }
    }

    /// The same drive through `DecodeCache::run`.
    fn run_to(&mut self, cache: &mut DecodeCache, limit: u64) -> Stop {
        loop {
            let budget = limit.saturating_sub(self.count);
            match cache.run(&mut self.cpu, &mut self.mem, budget, &mut self.count) {
                Ok(RunStop::Budget) => return Stop::Budget,
                Ok(RunStop::Halt) => return Stop::Halt,
                Ok(RunStop::Syscall) => {
                    if let Some(stop) = self.syscall() {
                        return stop;
                    }
                }
                Err(err) => return Stop::Error(format!("{err:?}")),
            }
        }
    }

    /// Everything the two interpreters must agree on.
    fn observe(&self, stop: &Stop) -> (CpuState, u64, Stop, u64) {
        (
            self.cpu,
            self.count,
            stop.clone(),
            self.mem.content_digest(),
        )
    }
}

#[test]
fn prop_streamed_run_matches_step_loop_at_every_budget() {
    let mut stops = Vec::new();
    for case in 0..CASES {
        let mut rng = TestRng::deterministic("streamed_run", case);
        let (mem, cpu) = guest(&mut rng);
        let start = Machine {
            cpu,
            mem,
            kernel: KernelState::new(1),
            count: 0,
        };

        let mut reference = start.clone();
        let end = reference.step_to(CAP);
        let want_end = reference.observe(&end);

        for cut in 0..=CAP.min(reference.count + 1) {
            let mut want = start.clone();
            let stop = want.step_to(cut);
            let want = want.observe(&stop);

            let mut got = start.clone();
            let mut cache = DecodeCache::new();
            let stop = got.run_to(&mut cache, cut);
            assert_eq!(got.observe(&stop), want, "case {case}, cut at {cut}");

            // Resume with the same cache to the end of the run.
            if stop == Stop::Budget {
                let stop = got.run_to(&mut cache, CAP);
                assert_eq!(
                    got.observe(&stop),
                    want_end,
                    "case {case}, resumed at {cut}"
                );
            }
        }
        stops.push(end);
    }
    // The generator reaches more than one kind of ending.
    assert!(stops.iter().any(|stop| matches!(stop, Stop::Exited(0))));
    assert!(stops.iter().any(|stop| matches!(stop, Stop::Error(_))));
}
