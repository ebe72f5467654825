//! Per-page pre-decoded instruction streams.
//!
//! The baseline interpreter decodes every instruction on every execution:
//! `cpu::fetch` pays a region binary-search, a `BTreeMap` page lookup, a
//! byte copy, and a full `decode` per step. For a hot loop that is pure
//! waste — the bytes have not changed. A [`DecodeCache`] memoizes the
//! decode per 8-byte code word, so each guest instruction is decoded once
//! and every later execution is an array read.
//!
//! # Invalidation
//!
//! The cache is keyed on [`AddressSpace::code_version`], the monotonic
//! counter the address space bumps on every write into (or unmap of) a
//! [`RegionKind::Code`] region. Any mismatch clears the whole cache, so
//! self-modifying code observes its new bytes on the very next fetch —
//! the version is re-checked before *every* cached read, including
//! mid-run, because a store can rewrite the instruction directly after
//! itself.
//!
//! # What is (not) cached
//!
//! Only pages inside `RegionKind::Code` regions are cached: writes
//! elsewhere do not bump `code_version`, so caching a data page would go
//! stale silently. Regions are page-aligned, so a page is either wholly
//! code or not cacheable. Two deliberate holes fall back to a plain
//! [`cpu::fetch_at`]:
//!
//! * a 16-byte `li` occupying the *last* word of a page — its payload
//!   word lives on the next page, which may not be code;
//! * faulting or undecodable words — mappings can change without a
//!   `code_version` bump, so negative results are never memoized.

use crate::cpu::{self, CpuState, ExecOutcome};
use crate::error::VmError;
use crate::mem::{AddressSpace, RegionKind, PAGE_MASK, PAGE_SHIFT, PAGE_SIZE};
use std::sync::Arc;
use superpin_isa::Inst;

/// Instruction words (8-byte slots) per page.
const WORDS_PER_PAGE: usize = PAGE_SIZE / 8;

/// One lazily-filled pre-decoded code page: a decode memo per 8-byte
/// word, `None` until that word is first executed.
#[derive(Clone)]
struct DecodedPage {
    slots: Box<[Option<(Inst, u8)>; WORDS_PER_PAGE]>,
}

impl DecodedPage {
    fn new() -> DecodedPage {
        DecodedPage {
            slots: Box::new([None; WORDS_PER_PAGE]),
        }
    }
}

impl std::fmt::Debug for DecodedPage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let filled = self.slots.iter().filter(|slot| slot.is_some()).count();
        f.debug_struct("DecodedPage")
            .field("filled", &filled)
            .finish()
    }
}

/// Why a decoded run stopped, for the caller's outer loop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunStop {
    /// The instruction budget was exhausted mid-stream.
    Budget,
    /// A `syscall` was reached; `pc` parks on it.
    Syscall,
    /// A `halt` was reached; `pc` parks on it.
    Halt,
}

/// A per-process decode cache: pre-decoded code pages plus the
/// `code_version` they were decoded under.
///
/// Guest programs touch a handful of code pages, so the store is a small
/// vector scanned linearly with a last-hit memo — cheaper than any hash
/// map for the page counts involved, and the memo alone answers almost
/// every fetch in straight-line code.
#[derive(Clone, Debug, Default)]
pub struct DecodeCache {
    /// `code_version` the cached decodes were taken under.
    version: u64,
    /// `(page index, decoded page)`, unordered; scanned linearly. Pages
    /// sit behind `Arc` so cloning a cache (per-slice process
    /// checkpoints) shares the decoded arrays; a clone that fills a new
    /// slot copies-on-write via [`Arc::make_mut`].
    pages: Vec<(u64, Arc<DecodedPage>)>,
    /// Index into `pages` of the most recent hit.
    last: usize,
}

impl DecodeCache {
    /// An empty cache.
    pub fn new() -> DecodeCache {
        DecodeCache::default()
    }

    /// Number of pages currently cached (test/diagnostic aid).
    pub fn cached_pages(&self) -> usize {
        self.pages.len()
    }

    /// Drops every cached page (the `code_version` key makes this
    /// automatic on self-modifying code; this is for tests).
    pub fn clear(&mut self) {
        self.pages.clear();
        self.last = 0;
    }

    /// Index into `pages` for `page_idx`, if cached. The last-hit memo
    /// answers nearly every call; the linear scan only runs on page
    /// transitions, over a handful of entries.
    #[inline]
    fn locate(&self, page_idx: u64) -> Option<usize> {
        match self.pages.get(self.last) {
            Some(&(cached, _)) if cached == page_idx => Some(self.last),
            _ => self
                .pages
                .iter()
                .position(|&(cached, _)| cached == page_idx),
        }
    }

    /// Fetches and decodes the instruction at `pc`, consulting and
    /// filling the cache.
    ///
    /// Exactly equivalent to [`cpu::fetch_at`] — same results, same
    /// errors — just memoized.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::Mem`] for unmapped fetches or
    /// [`VmError::Decode`] for invalid encodings.
    #[inline]
    pub fn fetch(&mut self, mem: &AddressSpace, pc: u64) -> Result<(Inst, u64), VmError> {
        if self.version != mem.code_version() {
            self.pages.clear();
            self.last = 0;
            self.version = mem.code_version();
        }
        if pc & 7 != 0 {
            // Misaligned pc: never cached (slots are per 8-byte word).
            return cpu::fetch_at(mem, pc);
        }
        let page_idx = pc >> PAGE_SHIFT;
        let word = ((pc & PAGE_MASK) >> 3) as usize;
        let slot_idx = match self.locate(page_idx) {
            Some(idx) => idx,
            None => {
                if !is_code_page(mem, pc) {
                    return cpu::fetch_at(mem, pc);
                }
                self.pages.push((page_idx, Arc::new(DecodedPage::new())));
                self.pages.len() - 1
            }
        };
        self.last = slot_idx;
        if let Some((inst, size)) = self.pages[slot_idx].1.slots[word] {
            return Ok((inst, size as u64));
        }
        let (inst, size) = cpu::fetch_at(mem, pc)?;
        // A 16-byte `li` in the last word spills its payload onto the
        // next page, which may not be covered by `code_version`; leave
        // that one slot uncached.
        if !(size == 16 && word == WORDS_PER_PAGE - 1) {
            Arc::make_mut(&mut self.pages[slot_idx].1).slots[word] = Some((inst, size as u8));
        }
        Ok((inst, size))
    }

    /// Executes decoded instructions starting at `cpu.pc` until a
    /// syscall, halt, fault, or `budget` instructions — the "whole
    /// decoded run" interpreter loop. Every retired instruction is added
    /// to `*retired` as it executes, so a caller's dynamic instruction
    /// count stays exact even when the run ends in an error — identical
    /// to a step loop that counted per iteration.
    ///
    /// The loop streams: it keeps the decoded page the last
    /// [`fetch`](DecodeCache::fetch) served and takes each next
    /// instruction straight from that page's array while three things
    /// hold, re-checked after every instruction: `pc` is on the same
    /// page, `pc` is word-aligned, and `code_version` still equals the
    /// version the page was decoded under. A page change, a misaligned
    /// target, a word not yet decoded (or never memoized: a `li` in the
    /// page's last word) and any code write fall back to `fetch`, which
    /// decodes, fills and re-validates. A store that rewrites the very
    /// next instruction bumps `code_version` before that instruction is
    /// read, so self-modifying code stays exact; a code `munmap` bumps
    /// it too. A non-code page is never streamed: every instruction on
    /// one goes through `fetch`.
    ///
    /// # Errors
    ///
    /// Propagates fetch, decode, and memory errors; `cpu.pc` is left on
    /// the faulting instruction.
    pub fn run(
        &mut self,
        cpu: &mut CpuState,
        mem: &mut AddressSpace,
        budget: u64,
        retired: &mut u64,
    ) -> Result<RunStop, VmError> {
        let mut executed = 0u64;
        let result = 'run: loop {
            if executed >= budget {
                break Ok(RunStop::Budget);
            }
            let (mut inst, mut size) = match self.fetch(mem, cpu.pc) {
                Ok(decoded) => decoded,
                Err(err) => break Err(err),
            };
            // The page `fetch` just served, if it is a cached code page:
            // its first byte and its decoded words.
            let page_base = cpu.pc & !PAGE_MASK;
            let page = self
                .pages
                .get(self.last)
                .filter(|&&(cached, _)| cached == page_base >> PAGE_SHIFT)
                .map(|(_, page)| &page.slots);
            let version = self.version;
            loop {
                match cpu::exec_decoded(cpu, mem, inst, size) {
                    Ok(ExecOutcome::Next | ExecOutcome::Jumped) => executed += 1,
                    Ok(ExecOutcome::Syscall) => break 'run Ok(RunStop::Syscall),
                    Ok(ExecOutcome::Halt) => break 'run Ok(RunStop::Halt),
                    Err(err) => break 'run Err(err),
                }
                if executed >= budget {
                    break 'run Ok(RunStop::Budget);
                }
                let offset = cpu.pc.wrapping_sub(page_base);
                let streamed = match page {
                    Some(slots)
                        if offset < PAGE_SIZE as u64
                            && offset & 7 == 0
                            && mem.code_version() == version =>
                    {
                        slots[(offset >> 3) as usize]
                    }
                    _ => None,
                };
                match streamed {
                    Some((next, next_size)) => (inst, size) = (next, u64::from(next_size)),
                    None => break,
                }
            }
        };
        *retired += executed;
        result
    }
}

/// Whether the page containing `addr` lies inside a code region. Regions
/// are page-aligned, so checking the page's first byte covers the page.
fn is_code_page(mem: &AddressSpace, addr: u64) -> bool {
    let page_start = addr & !PAGE_MASK;
    mem.regions()
        .iter()
        .any(|region| region.kind == RegionKind::Code && region.contains(page_start))
}

#[cfg(test)]
mod tests {
    use super::*;
    use superpin_isa::{encode, AluOp, Reg};

    fn space_with_code(insts: &[Inst]) -> (AddressSpace, u64) {
        let mut code = Vec::new();
        for &inst in insts {
            encode(inst, &mut code);
        }
        let mut mem = AddressSpace::new(0x0100_0000);
        mem.map_region(0x1000, code.len().max(1) as u64, RegionKind::Code)
            .expect("map code");
        mem.map_region(0x8000, 4096, RegionKind::Data)
            .expect("map data");
        mem.write(0x1000, &code).expect("write code");
        (mem, 0x1000)
    }

    #[test]
    fn cached_fetch_matches_plain_fetch() {
        let (mem, entry) = space_with_code(&[
            Inst::Li {
                rd: Reg::R1,
                imm: 7,
            },
            Inst::AluImm {
                op: AluOp::Add,
                rd: Reg::R1,
                rs1: Reg::R1,
                imm: 1,
            },
            Inst::Halt,
        ]);
        let mut cache = DecodeCache::new();
        let mut pc = entry;
        for _ in 0..3 {
            let plain = cpu::fetch_at(&mem, pc).expect("plain fetch");
            let cached = cache.fetch(&mem, pc).expect("cached fetch");
            assert_eq!(plain, cached);
            // Second fetch comes from the memo.
            assert_eq!(cache.fetch(&mem, pc).expect("memo fetch"), plain);
            pc += plain.1;
        }
        assert_eq!(cache.cached_pages(), 1);
    }

    #[test]
    fn code_write_invalidates_cache() {
        let (mut mem, entry) = space_with_code(&[Inst::Nop, Inst::Halt]);
        let mut cache = DecodeCache::new();
        assert_eq!(cache.fetch(&mem, entry).expect("fetch").0, Inst::Nop);
        // Overwrite the nop with a halt.
        let mut halt = Vec::new();
        encode(Inst::Halt, &mut halt);
        mem.write(entry, &halt).expect("smc write");
        assert_eq!(
            cache.fetch(&mem, entry).expect("fetch after smc").0,
            Inst::Halt,
            "cache must observe self-modified code"
        );
    }

    #[test]
    fn code_unmap_invalidates_cache() {
        let (mut mem, entry) = space_with_code(&[Inst::Nop, Inst::Halt]);
        let mut cache = DecodeCache::new();
        cache.fetch(&mem, entry).expect("fetch");
        assert_eq!(cache.cached_pages(), 1);
        mem.unmap(entry).expect("unmap code");
        assert!(
            cache.fetch(&mem, entry).is_err(),
            "fetch from unmapped ex-code page must fault, not serve stale decode"
        );
    }

    #[test]
    fn data_pages_are_not_cached() {
        let (mut mem, _) = space_with_code(&[Inst::Halt]);
        // Place a decodable word in the data region and execute it.
        let mut nop = Vec::new();
        encode(Inst::Nop, &mut nop);
        mem.write(0x8000, &nop).expect("write data");
        let mut cache = DecodeCache::new();
        assert_eq!(cache.fetch(&mem, 0x8000).expect("fetch").0, Inst::Nop);
        assert_eq!(cache.cached_pages(), 0, "data pages must not be cached");
        // Rewrite the data word (no code_version bump) — the fetch must
        // see the new bytes because data words are never memoized.
        let mut halt = Vec::new();
        encode(Inst::Halt, &mut halt);
        mem.write(0x8000, &halt).expect("rewrite data");
        assert_eq!(cache.fetch(&mem, 0x8000).expect("refetch").0, Inst::Halt);
    }

    #[test]
    fn li_in_last_page_word_is_not_memoized() {
        // Map two pages of code; place a 16-byte li so its opcode word is
        // the last word of page one and its payload the first word of
        // page two.
        let mut mem = AddressSpace::new(0x0100_0000);
        mem.map_region(0x1000, 2 * PAGE_SIZE as u64, RegionKind::Code)
            .expect("map code");
        let li = Inst::Li {
            rd: Reg::R1,
            imm: 0x1234_5678,
        };
        let mut bytes = Vec::new();
        encode(li, &mut bytes);
        let addr = 0x1000 + PAGE_SIZE as u64 - 8;
        mem.write(addr, &bytes).expect("write li");
        let mut cache = DecodeCache::new();
        assert_eq!(cache.fetch(&mem, addr).expect("fetch"), (li, 16));
        // Fetch again: still correct (served by plain decode each time).
        assert_eq!(cache.fetch(&mem, addr).expect("refetch"), (li, 16));
    }

    #[test]
    fn run_retires_and_stops_like_step_loop() {
        let countdown = |n| {
            space_with_code(&[
                Inst::Li {
                    rd: Reg::R1,
                    imm: n,
                },
                // loop: subi r1, r1, 1; bne r1, r0, loop
                Inst::AluImm {
                    op: AluOp::Sub,
                    rd: Reg::R1,
                    rs1: Reg::R1,
                    imm: 1,
                },
                Inst::Branch {
                    kind: superpin_isa::BranchKind::Ne,
                    rs1: Reg::R1,
                    rs2: Reg::R0,
                    target: 0x1000 + 16,
                },
                Inst::Halt,
            ])
        };
        // li + n × (subi, bne) instructions, then halt.
        for (n, insts) in [(3, 7), (10_000, 20_001)] {
            let (mut mem, entry) = countdown(n);
            let mut cache = DecodeCache::new();
            let mut cpu = CpuState::at(entry);
            let mut retired = 0u64;
            let stop = cache
                .run(&mut cpu, &mut mem, u64::MAX, &mut retired)
                .expect("run");
            assert_eq!((retired, stop), (insts, RunStop::Halt));
        }
        // Budget stop mid-loop.
        let (mut mem, entry) = countdown(3);
        let mut cpu = CpuState::at(entry);
        let mut cache = DecodeCache::new();
        let mut retired = 0u64;
        let stop = cache.run(&mut cpu, &mut mem, 4, &mut retired).expect("run");
        assert_eq!((retired, stop), (4, RunStop::Budget));
    }

    #[test]
    fn run_observes_store_to_next_instruction() {
        // A store rewrites the instruction immediately after itself:
        // st writes a halt over the nop at entry+24 — the run must stop
        // there instead of executing the stale nop.
        let mut halt_bytes = Vec::new();
        encode(Inst::Halt, &mut halt_bytes);
        let halt_word = u64::from_le_bytes(halt_bytes[..8].try_into().unwrap());
        let (mut mem, entry) = space_with_code(&[
            Inst::Li {
                rd: Reg::R1,
                imm: halt_word as i64,
            },
            Inst::St {
                rs: Reg::R1,
                base: Reg::R2,
                offset: 0,
                width: superpin_isa::MemWidth::D,
            },
            Inst::Nop,
            Inst::Nop,
        ]);
        let mut cache = DecodeCache::new();
        let mut cpu = CpuState::at(entry);
        cpu.regs.set(Reg::R2, entry + 24);
        // Warm the cache over the whole stream first.
        for pc in [entry, entry + 16, entry + 24, entry + 32] {
            cache.fetch(&mem, pc).expect("warm");
        }
        let mut retired = 0u64;
        let stop = cache
            .run(&mut cpu, &mut mem, u64::MAX, &mut retired)
            .expect("run");
        // li, st, then the freshly-written halt parks: 2 retired.
        assert_eq!((retired, stop), (2, RunStop::Halt));
        assert_eq!(cpu.pc, entry + 24);
    }
}
