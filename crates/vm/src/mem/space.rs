//! Virtual address spaces.

use super::page::{PageFrame, PAGE_MASK, PAGE_SHIFT, PAGE_SIZE};
use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Classification of a mapped region.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RegionKind {
    /// Executable program code.
    Code,
    /// Initialized data + BSS.
    Data,
    /// The main stack.
    Stack,
    /// The `brk`-managed heap.
    Heap,
    /// An anonymous `mmap` area.
    Mmap,
    /// SuperPin's pre-reserved *bubble* placeholder for instrumentation
    /// allocations (paper §4.1).
    Bubble,
}

/// A contiguous page-aligned mapping.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Region {
    /// First virtual address of the region (page aligned).
    pub start: u64,
    /// Length in bytes (page aligned).
    pub len: u64,
    /// What the region is used for.
    pub kind: RegionKind,
}

impl Region {
    /// Whether `addr` falls inside this region.
    pub fn contains(&self, addr: u64) -> bool {
        addr >= self.start && addr < self.start + self.len
    }

    /// One past the last address of the region.
    pub fn end(&self) -> u64 {
        self.start + self.len
    }
}

/// Memory access errors.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MemError {
    /// Address not covered by any mapped region.
    Unmapped(u64),
    /// A requested mapping overlaps an existing region.
    Overlap {
        /// Requested base address.
        addr: u64,
        /// Requested length in bytes.
        len: u64,
    },
    /// A mapping request was not page aligned.
    Unaligned {
        /// The misaligned address.
        addr: u64,
    },
    /// An unmap request did not match a mapped region.
    NoSuchMapping {
        /// The address no mapping starts at.
        addr: u64,
    },
    /// A dynamic allocation (`brk` grow or anonymous `mmap`) would push
    /// the space past its configured byte budget — the emulated kernel's
    /// ENOMEM.
    OutOfMemory {
        /// Bytes the allocation asked for.
        requested: u64,
        /// The per-space dynamic-memory budget in bytes.
        limit: u64,
    },
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemError::Unmapped(addr) => write!(f, "access to unmapped address {addr:#x}"),
            MemError::Overlap { addr, len } => {
                write!(f, "mapping {addr:#x}+{len:#x} overlaps an existing region")
            }
            MemError::Unaligned { addr } => write!(f, "address {addr:#x} is not page aligned"),
            MemError::NoSuchMapping { addr } => {
                write!(f, "no mapping starts at {addr:#x}")
            }
            MemError::OutOfMemory { requested, limit } => {
                write!(
                    f,
                    "out of memory: {requested:#x} bytes requested against a {limit:#x}-byte budget"
                )
            }
        }
    }
}

impl std::error::Error for MemError {}

/// Counters exposed for the fork/COW cost model (paper §6.3, "Fork
/// Overhead").
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemStats {
    /// Demand-zero page allocations (first touch of a fresh page).
    pub minor_faults: u64,
    /// Copy-on-write page copies: first write on *this* side to a page
    /// that was resident at this side's most recent fork boundary. This
    /// deliberately mirrors Linux semantics — after `fork(2)` every
    /// shared page is mapped read-only in both parent and child, so each
    /// side pays exactly one COW fault on its first write regardless of
    /// which side writes first. Counting first-writes (rather than
    /// observing `Arc` reference counts) keeps the counter a pure
    /// function of this space's own write history, independent of
    /// sibling lifetimes and write interleaving.
    pub cow_copies: u64,
}

/// A paged virtual address space with copy-on-write [`fork`].
///
/// Pages are allocated lazily on first touch within a mapped region.
/// Reads of never-touched pages observe zeroes without allocating.
///
/// [`fork`]: AddressSpace::fork
///
/// Resident frames live in a slab (`frames`, indexed by the slot that
/// `pages` maps a page index to) so that a small direct-mapped software
/// TLB can remember `page → slot` and answer the common single-page
/// access without the region search and the `BTreeMap` walk. The TLB is
/// a pure host-side memo: every observable (bytes, [`MemStats`],
/// [`code_version`](AddressSpace::code_version), the code-write log) is
/// what the untranslated path would have produced. See [`Tlb`] for the
/// hit and invalidation rules.
#[derive(Clone, Debug)]
pub struct AddressSpace {
    regions: Vec<Region>,
    /// Page index → slot in `frames`, for every resident page.
    pages: BTreeMap<u64, u32>,
    /// Frame slab; `None` marks a slot on the `free_slots` list.
    frames: Vec<Option<PageFrame>>,
    free_slots: Vec<u32>,
    tlb: Tlb,
    brk: u64,
    heap_base: u64,
    /// Next address tried for hint-less `mmap`.
    mmap_cursor: u64,
    /// Page indices still write-shared since the last fork boundary on
    /// this side: the first write to each charges one COW fault (see
    /// [`MemStats::cow_copies`]). Populated for the child by [`fork`]
    /// and for the parent by [`mark_cow_shared`]; drained by writes,
    /// [`unmap`] and `brk` shrinks.
    ///
    /// [`fork`]: AddressSpace::fork
    /// [`mark_cow_shared`]: AddressSpace::mark_cow_shared
    /// [`unmap`]: AddressSpace::unmap
    cow_pending: BTreeSet<u64>,
    stats: MemStats,
    /// Bumped on every write into a [`RegionKind::Code`] region, so a
    /// DBI engine can detect self-modifying code and invalidate its
    /// translations.
    code_version: u64,
    /// Optional budget for *dynamic* memory (the `brk` heap plus
    /// anonymous `mmap` regions), in bytes. `None` (the default) never
    /// fails an allocation; `Some(limit)` makes `brk` grows and `mmap`s
    /// past the budget return [`MemError::OutOfMemory`] — the emulated
    /// kernel turns that into an errno for the guest. Inherited across
    /// [`fork`](AddressSpace::fork), so slices observe the master's
    /// budget deterministically.
    mem_limit: Option<u64>,
    /// When `Some`, every write into a code region is also logged as
    /// `(addr, len)` for a static↔dynamic soundness oracle to audit
    /// alongside the [`code_version`](AddressSpace::code_version) bump.
    /// `None` (the default) costs one branch per write. Bounded: the
    /// consumer drains it at every code-version mismatch.
    code_write_log: Option<Vec<(u64, usize)>>,
}

/// Base address for hint-less anonymous mappings.
const MMAP_BASE: u64 = 0x2000_0000;

/// Entries in the software TLB, direct-mapped by the low page-index bits.
const TLB_ENTRIES: usize = 64;

#[derive(Clone, Copy)]
struct TlbEntry {
    /// Page index this entry translates; `u64::MAX` (no address shifts
    /// down to it) when empty.
    page: u64,
    /// The page's slot in the frame slab.
    slot: u32,
    /// Set only by a completed write to a non-code page: the page is then
    /// resident and no longer COW-pending, so a later write owes no fault
    /// and bumps no version. Exclusivity of the frame is *not* cached —
    /// a write hit re-proves it with [`PageFrame::get_mut`], because
    /// `fork(&self)` and `clone` share frames without touching this side.
    write_ok: bool,
}

/// Direct-mapped `page → slot` memo over the frame slab.
///
/// An entry is valid as long as `pages[page] == slot`, which only page
/// removal breaks; `write_ok` additionally needs the page to stay out of
/// `cow_pending` and its region to stay non-code. So the whole table is
/// flushed by what removes pages (`unmap`, a shrinking `set_brk`) and by
/// both operations that refill `cow_pending` (`fork`, on the child, and
/// `mark_cow_shared`). Mapping a region or growing the heap flushes
/// nothing: a new region overlaps no old one, so it cannot change what
/// any resident page is. Cells make the fill possible from
/// `read(&self)`; an address space is owned by one thread at a time (it
/// is `Send`, not `Sync`).
#[derive(Clone)]
struct Tlb([Cell<TlbEntry>; TLB_ENTRIES]);

impl Tlb {
    const EMPTY: TlbEntry = TlbEntry {
        page: u64::MAX,
        slot: 0,
        write_ok: false,
    };

    fn new() -> Tlb {
        Tlb(std::array::from_fn(|_| Cell::new(Tlb::EMPTY)))
    }

    #[inline]
    fn cell(&self, page: u64) -> &Cell<TlbEntry> {
        &self.0[page as usize % TLB_ENTRIES]
    }

    /// The entry translating `page`, if present.
    #[inline]
    fn get(&self, page: u64) -> Option<TlbEntry> {
        let entry = self.cell(page).get();
        (entry.page == page).then_some(entry)
    }

    fn flush(&self) {
        for cell in &self.0 {
            cell.set(Tlb::EMPTY);
        }
    }
}

impl fmt::Debug for Tlb {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let valid = self.0.iter().filter(|c| c.get().page != u64::MAX).count();
        f.debug_struct("Tlb").field("valid", &valid).finish()
    }
}

fn page_index(addr: u64) -> u64 {
    addr >> PAGE_SHIFT
}

fn page_align_up(value: u64) -> u64 {
    (value + PAGE_MASK) & !PAGE_MASK
}

impl AddressSpace {
    /// Creates an empty address space with the heap rooted at `heap_base`.
    pub fn new(heap_base: u64) -> AddressSpace {
        AddressSpace {
            regions: Vec::new(),
            pages: BTreeMap::new(),
            frames: Vec::new(),
            free_slots: Vec::new(),
            tlb: Tlb::new(),
            brk: heap_base,
            heap_base,
            mmap_cursor: MMAP_BASE,
            cow_pending: BTreeSet::new(),
            stats: MemStats::default(),
            code_version: 0,
            mem_limit: None,
            code_write_log: None,
        }
    }

    /// Sets (or clears) the dynamic-memory budget. Existing mappings are
    /// never retroactively failed; only future `brk` grows and `mmap`s
    /// check the budget.
    pub fn set_mem_limit(&mut self, limit: Option<u64>) {
        self.mem_limit = limit;
    }

    /// The dynamic-memory budget, if one is set.
    pub fn mem_limit(&self) -> Option<u64> {
        self.mem_limit
    }

    /// Bytes currently committed to dynamic memory: the page-aligned
    /// `brk` heap plus every anonymous `mmap` region. This is the
    /// quantity charged against [`mem_limit`](AddressSpace::mem_limit).
    pub fn dynamic_bytes(&self) -> u64 {
        self.regions
            .iter()
            .filter(|region| matches!(region.kind, RegionKind::Heap | RegionKind::Mmap))
            .map(|region| region.len)
            .sum()
    }

    /// Bytes of resident (allocated) pages — the simulated physical
    /// footprint the memory governor charges.
    pub fn resident_bytes(&self) -> u64 {
        self.pages.len() as u64 * PAGE_SIZE as u64
    }

    /// Monotonic counter bumped by every write into a code region.
    /// Translation caches compare it to detect self-modifying code.
    pub fn code_version(&self) -> u64 {
        self.code_version
    }

    /// Enables (or with `false` disables and discards) the code-write
    /// log: subsequent writes that bump
    /// [`code_version`](AddressSpace::code_version) also record their
    /// `(addr, len)` for [`take_code_writes`](Self::take_code_writes).
    pub fn log_code_writes(&mut self, enable: bool) {
        self.code_write_log = if enable {
            Some(self.code_write_log.take().unwrap_or_default())
        } else {
            None
        };
    }

    /// Drains the logged code writes since the last drain. Empty unless
    /// [`log_code_writes`](Self::log_code_writes) is enabled.
    pub fn take_code_writes(&mut self) -> Vec<(u64, usize)> {
        match &mut self.code_write_log {
            Some(log) => std::mem::take(log),
            None => Vec::new(),
        }
    }

    /// Current program break.
    pub fn brk(&self) -> u64 {
        self.brk
    }

    /// Cumulative fault counters.
    pub fn stats(&self) -> MemStats {
        self.stats
    }

    /// Resets the fault counters (used after fork to measure a child's own
    /// COW behaviour).
    pub fn reset_stats(&mut self) {
        self.stats = MemStats::default();
    }

    /// Number of resident (allocated) pages.
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }

    /// All mapped regions in ascending address order.
    pub fn regions(&self) -> &[Region] {
        &self.regions
    }

    /// Copy-on-write duplicate of this space. O(resident pages); no page
    /// contents are copied until one side writes.
    ///
    /// Every page resident at the fork becomes COW-pending in the child:
    /// its first write there charges one [`MemStats::cow_copies`] fault.
    /// The *parent's* pending set is untouched because `fork` takes
    /// `&self`; a supervisor that wants parent-side fork faults calls
    /// [`mark_cow_shared`](AddressSpace::mark_cow_shared) as well.
    pub fn fork(&self) -> AddressSpace {
        let mut child = self.clone();
        child.reset_stats();
        child.cow_pending = child.pages.keys().copied().collect();
        child.tlb.flush();
        child
    }

    /// Marks every resident page COW-pending on *this* side, as a real
    /// `fork(2)` does when it write-protects the parent's mappings. The
    /// SuperPin runner calls this on the master at each slice fork so the
    /// master's subsequent first-writes charge fork overhead exactly like
    /// the child's — deterministically, whatever the sibling does.
    pub fn mark_cow_shared(&mut self) {
        self.cow_pending = self.pages.keys().copied().collect();
        self.tlb.flush();
    }

    /// Rebuilds every resident page frame as an exclusive copy, dropping
    /// shared `Arc` references to sibling spaces. Checkpoints call this
    /// so a stored snapshot neither keeps a live slice's frames
    /// artificially shared nor mutates under it. Purely a host-memory
    /// hygiene operation: guest-visible contents and all counters are
    /// unchanged.
    pub fn materialize(&mut self) {
        for frame in self.frames.iter_mut().flatten() {
            *frame = PageFrame::from_bytes(frame.bytes());
        }
    }

    /// Maps a page-aligned region.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::Unaligned`] or [`MemError::Overlap`].
    pub fn map_region(&mut self, start: u64, len: u64, kind: RegionKind) -> Result<(), MemError> {
        if start & PAGE_MASK != 0 {
            return Err(MemError::Unaligned { addr: start });
        }
        let len = page_align_up(len.max(1));
        let candidate = Region { start, len, kind };
        for existing in &self.regions {
            if candidate.start < existing.end() && existing.start < candidate.end() {
                return Err(MemError::Overlap { addr: start, len });
            }
        }
        self.regions.push(candidate);
        self.regions.sort_by_key(|region| region.start);
        Ok(())
    }

    /// Maps an anonymous region of `len` bytes. With `Some(hint)` the
    /// mapping is placed exactly at the (page-aligned) hint, which is how
    /// SuperPin replays `mmap` in slices "given the same address" (paper
    /// §4.2); with `None` the kernel chooses the next free address above
    /// the mmap base.
    ///
    /// # Errors
    ///
    /// With a hint, fails like [`map_region`](Self::map_region). Without a
    /// hint, only alignment errors are possible (the search skips used
    /// space). With a [`mem_limit`](AddressSpace::mem_limit) set, a
    /// request past the budget fails with [`MemError::OutOfMemory`].
    pub fn map_anonymous(&mut self, hint: Option<u64>, len: u64) -> Result<u64, MemError> {
        let len = page_align_up(len.max(1));
        if let Some(limit) = self.mem_limit {
            if self.dynamic_bytes().saturating_add(len) > limit {
                return Err(MemError::OutOfMemory {
                    requested: len,
                    limit,
                });
            }
        }
        if let Some(addr) = hint {
            self.map_region(addr, len, RegionKind::Mmap)?;
            return Ok(addr);
        }
        let mut addr = self.mmap_cursor;
        loop {
            match self.map_region(addr, len, RegionKind::Mmap) {
                Ok(()) => {
                    self.mmap_cursor = addr + len;
                    return Ok(addr);
                }
                Err(MemError::Overlap { .. }) => {
                    // Skip past the colliding region.
                    let next = self
                        .regions
                        .iter()
                        .filter(|region| region.end() > addr)
                        .map(Region::end)
                        .min()
                        .unwrap_or(addr + len);
                    addr = page_align_up(next.max(addr + PAGE_SIZE as u64));
                }
                Err(other) => return Err(other),
            }
        }
    }

    /// Unmaps the region starting exactly at `start`, discarding its pages.
    ///
    /// Unmapping a [`RegionKind::Code`] region bumps
    /// [`code_version`](AddressSpace::code_version): removing code is
    /// self-modification as far as any decode or translation cache is
    /// concerned, so the same invalidation channel covers it.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::NoSuchMapping`] if no region starts there.
    pub fn unmap(&mut self, start: u64) -> Result<(), MemError> {
        let pos = self
            .regions
            .iter()
            .position(|region| region.start == start)
            .ok_or(MemError::NoSuchMapping { addr: start })?;
        let region = self.regions.remove(pos);
        if region.kind == RegionKind::Code {
            self.code_version += 1;
        }
        self.release_pages(region.start, region.end());
        Ok(())
    }

    /// Discards the resident pages of the page-aligned range
    /// `[start, end)` and every translation with them.
    fn release_pages(&mut self, start: u64, end: u64) {
        let keys: Vec<u64> = self
            .pages
            .range(page_index(start)..page_index(end))
            .map(|(&index, _)| index)
            .collect();
        for key in keys {
            if let Some(slot) = self.pages.remove(&key) {
                self.frames[slot as usize] = None;
                self.free_slots.push(slot);
            }
            self.cow_pending.remove(&key);
        }
        self.tlb.flush();
    }

    /// Budget-checked [`set_brk`](AddressSpace::set_brk): a grow past the
    /// [`mem_limit`](AddressSpace::mem_limit) fails without changing any
    /// state, so the kernel can hand the guest an errno. Shrinks and
    /// unbudgeted spaces never fail. The infallible `set_brk` remains the
    /// replay path — a recorded successful `brk` re-applies unchecked.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::OutOfMemory`] when the grow exceeds the budget.
    pub fn try_set_brk(&mut self, new_brk: u64) -> Result<u64, MemError> {
        if let Some(limit) = self.mem_limit {
            let new_heap = page_align_up(new_brk.max(self.heap_base)) - self.heap_base;
            let old_heap = page_align_up(self.brk) - self.heap_base;
            if new_heap > old_heap {
                let other = self.dynamic_bytes() - old_heap;
                if other.saturating_add(new_heap) > limit {
                    return Err(MemError::OutOfMemory {
                        requested: new_heap - old_heap,
                        limit,
                    });
                }
            }
        }
        Ok(self.set_brk(new_brk))
    }

    /// Adjusts the program break. Growing maps heap pages; shrinking
    /// releases them. Returns the new break (mirroring Linux `brk`).
    pub fn set_brk(&mut self, new_brk: u64) -> u64 {
        let new_brk = new_brk.max(self.heap_base);
        let old_end = page_align_up(self.brk);
        let new_end = page_align_up(new_brk);
        // Rebuild the heap region to span [heap_base, new_end).
        self.regions
            .retain(|region| region.kind != RegionKind::Heap);
        if new_end > self.heap_base {
            self.regions.push(Region {
                start: self.heap_base,
                len: new_end - self.heap_base,
                kind: RegionKind::Heap,
            });
            self.regions.sort_by_key(|region| region.start);
        }
        if new_end < old_end {
            self.release_pages(new_end, old_end);
        }
        self.brk = new_brk;
        self.brk
    }

    fn region_for(&self, addr: u64) -> Option<&Region> {
        // Regions are sorted; binary search by start.
        let idx = self.regions.partition_point(|region| region.start <= addr);
        idx.checked_sub(1)
            .map(|i| &self.regions[i])
            .filter(|region| region.contains(addr))
    }

    /// Whether `addr` is covered by a mapping.
    pub fn is_mapped(&self, addr: u64) -> bool {
        self.region_for(addr).is_some()
    }

    /// Reads `buf.len()` bytes starting at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::Unmapped`] if any byte is outside a region.
    #[inline]
    pub fn read(&self, addr: u64, buf: &mut [u8]) -> Result<(), MemError> {
        let offset = (addr & PAGE_MASK) as usize;
        if let Some(bytes) = offset
            .checked_add(buf.len())
            .and_then(|end| self.tlb_frame(addr)?.bytes().get(offset..end))
        {
            buf.copy_from_slice(bytes);
            return Ok(());
        }
        self.read_untranslated(addr, buf)
    }

    /// The frame in `slot`, for a slot `pages` maps some page to.
    fn frame(&self, slot: u32) -> &PageFrame {
        self.frames[slot as usize]
            .as_ref()
            .expect("a mapped page's slot holds its frame")
    }

    /// The resident frame the TLB translates `addr`'s page to.
    #[inline]
    fn tlb_frame(&self, addr: u64) -> Option<&PageFrame> {
        let entry = self.tlb.get(page_index(addr))?;
        self.frames.get(entry.slot as usize)?.as_ref()
    }

    /// [`read`](Self::read) without a translation: any length, any
    /// residency. Leaves a (read-only) translation for each resident page
    /// it touches.
    fn read_untranslated(&self, mut addr: u64, mut buf: &mut [u8]) -> Result<(), MemError> {
        while !buf.is_empty() {
            if !self.is_mapped(addr) {
                return Err(MemError::Unmapped(addr));
            }
            let offset = (addr & PAGE_MASK) as usize;
            let chunk = buf.len().min(PAGE_SIZE - offset);
            let page = page_index(addr);
            match self.pages.get(&page) {
                Some(&slot) => {
                    let frame = self.frame(slot);
                    buf[..chunk].copy_from_slice(&frame.bytes()[offset..offset + chunk]);
                    // Keep a same-page write translation if there is one.
                    if self.tlb.get(page).is_none() {
                        self.tlb.cell(page).set(TlbEntry {
                            page,
                            slot,
                            write_ok: false,
                        });
                    }
                }
                None => buf[..chunk].fill(0),
            }
            addr += chunk as u64;
            buf = &mut buf[chunk..];
        }
        Ok(())
    }

    /// Writes `data` starting at `addr`, taking COW/minor faults as needed.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::Unmapped`] if any byte is outside a region.
    #[inline]
    pub fn write(&mut self, addr: u64, data: &[u8]) -> Result<(), MemError> {
        // Hit: a page some earlier write left resident, fault-free and
        // outside the code regions, in a frame nobody shares right now.
        let offset = (addr & PAGE_MASK) as usize;
        if let Some(entry) = self.tlb.get(page_index(addr)).filter(|e| e.write_ok) {
            if let Some(bytes) = offset.checked_add(data.len()).and_then(|end| {
                let frame = self.frames.get_mut(entry.slot as usize)?.as_mut()?;
                frame.get_mut()?.get_mut(offset..end)
            }) {
                bytes.copy_from_slice(data);
                return Ok(());
            }
        }
        self.write_untranslated(addr, data)
    }

    /// [`write`](Self::write) without a translation: takes the faults,
    /// bumps the code version, and leaves a translation behind.
    fn write_untranslated(&mut self, mut addr: u64, mut data: &[u8]) -> Result<(), MemError> {
        while !data.is_empty() {
            let offset = (addr & PAGE_MASK) as usize;
            let chunk = data.len().min(PAGE_SIZE - offset);
            let is_code = match self.region_for(addr) {
                None => return Err(MemError::Unmapped(addr)),
                Some(region) => region.kind == RegionKind::Code,
            };
            if is_code {
                self.code_version += 1;
                if let Some(log) = &mut self.code_write_log {
                    log.push((addr, chunk));
                }
            }
            let page = page_index(addr);
            let slot = match self.pages.get(&page) {
                Some(&slot) => slot,
                None => {
                    self.stats.minor_faults += 1;
                    let slot = self.alloc_slot(PageFrame::zeroed());
                    self.pages.insert(page, slot);
                    slot
                }
            };
            // `make_mut` still copies the frame when a sibling shares it
            // (memory isolation), but the *charge* comes from the
            // deterministic pending set, not the Arc refcount.
            let (bytes, _copied) = self.frames[slot as usize]
                .as_mut()
                .expect("a mapped page's slot holds its frame")
                .make_mut();
            bytes[offset..offset + chunk].copy_from_slice(&data[..chunk]);
            if self.cow_pending.remove(&page) {
                self.stats.cow_copies += 1;
            }
            self.tlb.cell(page).set(TlbEntry {
                page,
                slot,
                write_ok: !is_code,
            });
            addr += chunk as u64;
            data = &data[chunk..];
        }
        Ok(())
    }

    fn alloc_slot(&mut self, frame: PageFrame) -> u32 {
        match self.free_slots.pop() {
            Some(slot) => {
                self.frames[slot as usize] = Some(frame);
                slot
            }
            None => {
                let slot = u32::try_from(self.frames.len()).expect("under 2^32 resident pages");
                self.frames.push(Some(frame));
                slot
            }
        }
    }

    /// Reads a little-endian u64.
    ///
    /// # Errors
    ///
    /// See [`read`](Self::read).
    pub fn read_u64(&self, addr: u64) -> Result<u64, MemError> {
        let mut buf = [0u8; 8];
        self.read(addr, &mut buf)?;
        Ok(u64::from_le_bytes(buf))
    }

    /// Writes a little-endian u64.
    ///
    /// # Errors
    ///
    /// See [`write`](Self::write).
    pub fn write_u64(&mut self, addr: u64, value: u64) -> Result<(), MemError> {
        self.write(addr, &value.to_le_bytes())
    }

    /// Reads `len` bytes into a fresh buffer.
    ///
    /// # Errors
    ///
    /// See [`read`](Self::read).
    pub fn read_bytes(&self, addr: u64, len: usize) -> Result<Vec<u8>, MemError> {
        let mut buf = vec![0u8; len];
        self.read(addr, &mut buf)?;
        Ok(buf)
    }

    /// A FNV-1a digest of all resident page contents plus region layout —
    /// used by tests to compare master and slice address spaces.
    pub fn content_digest(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut hash = FNV_OFFSET;
        let mut mix = |byte: u8| {
            hash ^= byte as u64;
            hash = hash.wrapping_mul(FNV_PRIME);
        };
        for region in &self.regions {
            for byte in region.start.to_le_bytes() {
                mix(byte);
            }
            for byte in region.len.to_le_bytes() {
                mix(byte);
            }
        }
        for (&index, &slot) in &self.pages {
            let frame = self.frame(slot);
            // Skip pages that are all zero: a never-touched page and an
            // explicitly zeroed page must digest identically.
            if frame.bytes().iter().all(|&b| b == 0) {
                continue;
            }
            for byte in index.to_le_bytes() {
                mix(byte);
            }
            for &byte in frame.bytes().iter() {
                mix(byte);
            }
        }
        hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space_with_one_region() -> AddressSpace {
        let mut space = AddressSpace::new(0x0100_0000);
        space
            .map_region(0x1000, 3 * PAGE_SIZE as u64, RegionKind::Data)
            .expect("map");
        space
    }

    #[test]
    fn read_of_untouched_page_is_zero() {
        let space = space_with_one_region();
        assert_eq!(space.read_u64(0x1000).expect("read"), 0);
        assert_eq!(space.resident_pages(), 0, "reads must not allocate");
    }

    #[test]
    fn write_then_read_round_trips() {
        let mut space = space_with_one_region();
        space.write_u64(0x1008, 0xdead_beef).expect("write");
        assert_eq!(space.read_u64(0x1008).expect("read"), 0xdead_beef);
        assert_eq!(space.resident_pages(), 1);
    }

    #[test]
    fn cross_page_access() {
        let mut space = space_with_one_region();
        let addr = 0x1000 + PAGE_SIZE as u64 - 4;
        space.write_u64(addr, 0x0123_4567_89ab_cdef).expect("write");
        assert_eq!(space.read_u64(addr).expect("read"), 0x0123_4567_89ab_cdef);
        assert_eq!(space.resident_pages(), 2);
    }

    #[test]
    fn unmapped_access_faults() {
        let mut space = space_with_one_region();
        assert_eq!(space.read_u64(0x0), Err(MemError::Unmapped(0)));
        assert_eq!(
            space.write_u64(0x1000 + 3 * PAGE_SIZE as u64, 1),
            Err(MemError::Unmapped(0x1000 + 3 * PAGE_SIZE as u64))
        );
    }

    #[test]
    fn fork_shares_pages_until_write() {
        let mut parent = space_with_one_region();
        parent.write_u64(0x1000, 42).expect("write");
        let mut child = parent.fork();
        assert_eq!(child.read_u64(0x1000).expect("read"), 42);
        assert_eq!(child.stats().cow_copies, 0);

        child.write_u64(0x1000, 7).expect("write");
        assert_eq!(child.stats().cow_copies, 1, "first write must COW");
        assert_eq!(child.read_u64(0x1000).expect("read"), 7);
        assert_eq!(parent.read_u64(0x1000).expect("read"), 42);

        // The parent was never marked shared (`fork` takes `&self`), so
        // its writes charge nothing until a supervisor opts it in with
        // `mark_cow_shared`.
        parent.write_u64(0x1000, 43).expect("write");
        assert_eq!(parent.stats().cow_copies, 0);
    }

    #[test]
    fn fork_cow_counted_on_parent_when_parent_writes_first() {
        let mut parent = space_with_one_region();
        parent.write_u64(0x1000, 1).expect("write");
        parent.reset_stats();
        let child = parent.fork();
        parent.mark_cow_shared();
        parent.write_u64(0x1000, 2).expect("write");
        assert_eq!(parent.stats().cow_copies, 1);
        // Second write to the same page is free: the fault fired.
        parent.write_u64(0x1000, 3).expect("write");
        assert_eq!(parent.stats().cow_copies, 1);
        assert_eq!(child.read_u64(0x1000).expect("read"), 1);
    }

    #[test]
    fn cow_charges_are_independent_of_sibling_write_order() {
        // Linux semantics: both sides fault on their first write to a
        // shared page, whichever writes first. The charge must not
        // depend on the interleaving (SuperPin's bit-identical recovery
        // relies on this).
        let run = |child_first: bool| {
            let mut parent = space_with_one_region();
            parent.write_u64(0x1000, 1).expect("write");
            parent.reset_stats();
            let mut child = parent.fork();
            parent.mark_cow_shared();
            if child_first {
                child.write_u64(0x1000, 2).expect("write");
                parent.write_u64(0x1000, 3).expect("write");
            } else {
                parent.write_u64(0x1000, 3).expect("write");
                child.write_u64(0x1000, 2).expect("write");
            }
            (parent.stats().cow_copies, child.stats().cow_copies)
        };
        assert_eq!(run(true), run(false));
        assert_eq!(run(true), (1, 1));
    }

    #[test]
    fn materialize_preserves_contents_and_counters() {
        let mut parent = space_with_one_region();
        parent.write_u64(0x1000, 42).expect("write");
        let mut snapshot = parent.fork();
        let stats_before = snapshot.stats();
        snapshot.materialize();
        assert_eq!(snapshot.stats(), stats_before);
        assert_eq!(snapshot.content_digest(), parent.content_digest());
        // The snapshot still owes a COW fault on first write.
        snapshot.write_u64(0x1000, 7).expect("write");
        assert_eq!(snapshot.stats().cow_copies, 1);
        assert_eq!(parent.read_u64(0x1000).expect("read"), 42);
    }

    #[test]
    fn mapping_overlap_rejected() {
        let mut space = space_with_one_region();
        assert!(matches!(
            space.map_region(0x1000, 1, RegionKind::Mmap),
            Err(MemError::Overlap { .. })
        ));
        assert!(matches!(
            space.map_region(0x1001, 1, RegionKind::Mmap),
            Err(MemError::Unaligned { .. })
        ));
    }

    #[test]
    fn anonymous_mmap_skips_collisions() {
        let mut space = AddressSpace::new(0x0100_0000);
        let a = space.map_anonymous(None, PAGE_SIZE as u64).expect("map a");
        let b = space.map_anonymous(None, PAGE_SIZE as u64).expect("map b");
        assert_ne!(a, b);
        assert!(space.is_mapped(a));
        assert!(space.is_mapped(b));
        // Hinted mapping at an occupied address fails.
        assert!(space.map_anonymous(Some(a), 1).is_err());
    }

    #[test]
    fn unmap_releases_pages() {
        let mut space = AddressSpace::new(0x0100_0000);
        let addr = space
            .map_anonymous(None, 2 * PAGE_SIZE as u64)
            .expect("map");
        space.write_u64(addr, 1).expect("write");
        assert_eq!(space.resident_pages(), 1);
        space.unmap(addr).expect("unmap");
        assert_eq!(space.resident_pages(), 0);
        assert!(!space.is_mapped(addr));
        assert_eq!(space.unmap(addr), Err(MemError::NoSuchMapping { addr }));
    }

    #[test]
    fn brk_grows_and_shrinks_heap() {
        let heap_base = 0x0100_0000;
        let mut space = AddressSpace::new(heap_base);
        assert!(!space.is_mapped(heap_base));
        let new_brk = space.set_brk(heap_base + 100);
        assert_eq!(new_brk, heap_base + 100);
        assert!(space.is_mapped(heap_base));
        space.write_u64(heap_base, 5).expect("write");
        assert_eq!(space.resident_pages(), 1);
        // Shrink back to base: heap unmapped, pages gone.
        space.set_brk(heap_base);
        assert!(!space.is_mapped(heap_base));
        assert_eq!(space.resident_pages(), 0);
        // Growing again observes fresh zeroes.
        space.set_brk(heap_base + 8);
        assert_eq!(space.read_u64(heap_base).expect("read"), 0);
    }

    #[test]
    fn brk_never_goes_below_heap_base() {
        let heap_base = 0x0100_0000;
        let mut space = AddressSpace::new(heap_base);
        assert_eq!(space.set_brk(0), heap_base);
    }

    #[test]
    fn digest_equal_for_identical_spaces() {
        let mut a = space_with_one_region();
        a.write_u64(0x1010, 123).expect("write");
        let b = a.fork();
        assert_eq!(a.content_digest(), b.content_digest());
        let mut c = a.fork();
        c.write_u64(0x1010, 124).expect("write");
        assert_ne!(a.content_digest(), c.content_digest());
    }

    #[test]
    fn digest_ignores_explicit_zero_pages() {
        let mut a = space_with_one_region();
        let b = a.fork();
        // Touch a page with zeroes: logically identical content.
        a.write_u64(0x1000, 0).expect("write");
        assert_eq!(a.content_digest(), b.content_digest());
    }

    #[test]
    fn mem_limit_fails_dynamic_allocations_past_budget() {
        let heap_base = 0x0100_0000;
        let mut space = AddressSpace::new(heap_base);
        space.set_mem_limit(Some(2 * PAGE_SIZE as u64));

        // One page of heap and one page of mmap fit exactly.
        let brk = space
            .try_set_brk(heap_base + PAGE_SIZE as u64)
            .expect("brk within budget");
        assert_eq!(brk, heap_base + PAGE_SIZE as u64);
        let addr = space
            .map_anonymous(None, PAGE_SIZE as u64)
            .expect("mmap within budget");

        // A third page fails either way, without changing state.
        assert!(matches!(
            space.try_set_brk(heap_base + 2 * PAGE_SIZE as u64),
            Err(MemError::OutOfMemory { .. })
        ));
        assert_eq!(space.brk(), heap_base + PAGE_SIZE as u64);
        assert!(matches!(
            space.map_anonymous(None, 1),
            Err(MemError::OutOfMemory { .. })
        ));

        // Releasing the mmap frees budget for the heap to grow — the
        // guest can recover from ENOMEM.
        space.unmap(addr).expect("unmap");
        space
            .try_set_brk(heap_base + 2 * PAGE_SIZE as u64)
            .expect("brk after recovery");
    }

    #[test]
    fn mem_limit_allows_shrink_and_is_inherited_by_fork() {
        let heap_base = 0x0100_0000;
        let mut space = AddressSpace::new(heap_base);
        space.set_mem_limit(Some(PAGE_SIZE as u64));
        space.try_set_brk(heap_base + 8).expect("grow");
        // Shrinks always succeed, even at a 0-byte budget.
        space.set_mem_limit(Some(0));
        assert_eq!(space.try_set_brk(heap_base).expect("shrink"), heap_base);

        let child = space.fork();
        assert_eq!(child.mem_limit(), Some(0));
        assert!(matches!(
            space.fork().try_set_brk(heap_base + 1),
            Err(MemError::OutOfMemory { .. })
        ));
    }

    #[test]
    fn unbudgeted_space_never_fails_allocations() {
        let heap_base = 0x0100_0000;
        let mut space = AddressSpace::new(heap_base);
        assert_eq!(space.mem_limit(), None);
        let brk = space
            .try_set_brk(heap_base + (1 << 20))
            .expect("unbudgeted brk");
        assert_eq!(brk, space.brk());
        space.map_anonymous(None, 1 << 20).expect("unbudgeted mmap");
    }

    #[test]
    fn bubble_region_reserves_and_releases() {
        let mut space = AddressSpace::new(0x0100_0000);
        space
            .map_region(0x4000_0000, 16 * PAGE_SIZE as u64, RegionKind::Bubble)
            .expect("map bubble");
        assert!(space.is_mapped(0x4000_0000));
        space.unmap(0x4000_0000).expect("unmap bubble");
        // After release the space is free for application mmaps at the
        // same address — preserving precise memory mappings (paper §4.1).
        let addr = space
            .map_anonymous(Some(0x4000_0000), PAGE_SIZE as u64)
            .expect("remap");
        assert_eq!(addr, 0x4000_0000);
    }

    /// The TLB against the same space without one: each step applies one
    /// random operation to a space and to its twin, whose translations
    /// are flushed first so that it always takes the untranslated path.
    mod tlb_model {
        use super::*;
        use proptest::prelude::*;

        const HEAP: u64 = 0x0100_0000;
        const CODE: u64 = 0x1000;
        const DATA: u64 = 0x8000;

        fn fresh() -> AddressSpace {
            let mut space = AddressSpace::new(HEAP);
            let pages = |n: u64| n * PAGE_SIZE as u64;
            space
                .map_region(CODE, pages(2), RegionKind::Code)
                .expect("code");
            space
                .map_region(DATA, pages(3), RegionKind::Data)
                .expect("data");
            space.set_brk(HEAP + pages(2));
            space.log_code_writes(true);
            space
        }

        /// An address worth touching: in or just past a region of
        /// `space` (or the fixed ones, mapped or not by now), at, near
        /// or straddling a page boundary.
        fn pick_addr(space: &AddressSpace, a: u64, b: u64) -> u64 {
            let bases = [CODE, DATA, HEAP, MMAP_BASE, 0x5000];
            let base = match space.regions().get((a % 8) as usize) {
                Some(region) => region.start,
                None => bases[(a >> 3) as usize % bases.len()],
            };
            let page = (a >> 8) % 4;
            let offset = match (a >> 12) % 4 {
                0 => 0,
                1 => PAGE_SIZE as u64 - 1 - b % 12,
                2 => b % 16,
                _ => b % PAGE_SIZE as u64,
            };
            base + page * PAGE_SIZE as u64 + offset
        }

        /// Applies operation `(kind, a, b)` to `spaces[who]`, forking
        /// into a new entry for `fork`. Returns what the caller could
        /// observe of it.
        fn apply(spaces: &mut Vec<AddressSpace>, kind: u8, a: u64, b: u64) -> String {
            let who = (a >> 56) as usize % spaces.len();
            let addr = pick_addr(&spaces[who], a, b);
            let len = (b >> 16) as usize % 24;
            let space = &mut spaces[who];
            match kind {
                0..=2 => {
                    let mut buf = vec![0xAA; len];
                    let result = space.read(addr, &mut buf);
                    format!("read {addr:#x}+{len}: {result:?} {buf:?}")
                }
                3..=5 => {
                    let data: Vec<u8> = (0..len).map(|i| (b >> 24) as u8 ^ i as u8).collect();
                    format!("write {addr:#x}+{len}: {:?}", space.write(addr, &data))
                }
                6 => format!("read_u64 {addr:#x}: {:?}", space.read_u64(addr)),
                7 => {
                    if spaces.len() < 4 {
                        let child = spaces[who].fork();
                        spaces.push(child);
                    }
                    format!("fork of {who}")
                }
                8 => {
                    space.mark_cow_shared();
                    "mark_cow_shared".to_string()
                }
                9 => {
                    space.materialize();
                    "materialize".to_string()
                }
                10 => {
                    let hint = b
                        .is_multiple_of(2)
                        .then_some(MMAP_BASE + (a >> 20) % 4 * PAGE_SIZE as u64);
                    let len = (b >> 8) % 3 * PAGE_SIZE as u64 + 1;
                    format!("map_anonymous: {:?}", space.map_anonymous(hint, len))
                }
                11 => {
                    // Any region may go, the code region included.
                    let start = space
                        .regions()
                        .get((b % 8) as usize)
                        .map_or(addr, |r| r.start);
                    format!("unmap {start:#x}: {:?}", space.unmap(start))
                }
                _ => {
                    let brk = HEAP + (b >> 8) % (4 * PAGE_SIZE as u64);
                    format!("set_brk: {:#x}", space.set_brk(brk))
                }
            }
        }

        fn observables(space: &mut AddressSpace) -> (MemStats, u64, Vec<(u64, usize)>, u64, usize) {
            (
                space.stats(),
                space.code_version(),
                space.take_code_writes(),
                space.content_digest(),
                space.resident_pages(),
            )
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]

            #[test]
            fn prop_tlb_is_unobservable(
                ops in proptest::collection::vec((0u8..13, any::<u64>(), any::<u64>()), 40..400),
            ) {
                let mut spaces = vec![fresh()];
                let mut twins = vec![fresh()];
                for (step, (kind, a, b)) in ops.into_iter().enumerate() {
                    for twin in &twins {
                        twin.tlb.flush();
                    }
                    let got = apply(&mut spaces, kind, a, b);
                    let want = apply(&mut twins, kind, a, b);
                    prop_assert_eq!(&got, &want, "step {}", step);
                    // Drain the write logs together now and then, compare
                    // the rest every step.
                    if step % 16 == 0 {
                        for (space, twin) in spaces.iter_mut().zip(&mut twins) {
                            prop_assert_eq!(observables(space), observables(twin), "step {}", step);
                        }
                    }
                    for (space, twin) in spaces.iter().zip(&twins) {
                        prop_assert_eq!(space.stats(), twin.stats(), "step {}: {}", step, got);
                        prop_assert_eq!(space.code_version(), twin.code_version());
                    }
                }
                for (space, twin) in spaces.iter_mut().zip(&mut twins) {
                    prop_assert_eq!(observables(space), observables(twin));
                    // Every mapped byte, read both ways.
                    for region in space.regions().to_vec() {
                        let len = region.len.min(8 * PAGE_SIZE as u64) as usize;
                        twin.tlb.flush();
                        prop_assert_eq!(
                            space.read_bytes(region.start, len),
                            twin.read_bytes(region.start, len)
                        );
                    }
                }
            }
        }

        /// The hits the model relies on really happen, and stop when
        /// they must.
        #[test]
        fn hits_follow_the_rules() {
            let mut space = fresh();
            let hit = |space: &AddressSpace, addr: u64| space.tlb.get(page_index(addr));
            // A read of a never-touched page leaves nothing to hit.
            space.read_u64(DATA).expect("read");
            assert!(hit(&space, DATA).is_none());
            // A write leaves a write translation; a cross-page read next
            // to it does not downgrade it.
            space.write_u64(DATA, 1).expect("write");
            assert!(hit(&space, DATA).expect("filled").write_ok);
            space.write_u64(DATA + PAGE_SIZE as u64, 2).expect("write");
            space
                .read_u64(DATA + PAGE_SIZE as u64 - 4)
                .expect("straddle");
            assert!(hit(&space, DATA).expect("kept").write_ok);
            // Code pages translate for reads only, so every write still
            // bumps the version.
            space.write_u64(CODE, 3).expect("code write");
            assert!(!hit(&space, CODE).expect("filled").write_ok);
            let version = space.code_version();
            space.write_u64(CODE, 4).expect("code write");
            assert_eq!(space.code_version(), version + 1);
            // A fork shares every frame: the parent's write translation
            // survives (`fork` takes `&self`) but cannot be used until
            // the frame is private again, and the child starts empty.
            let child = space.fork();
            assert!(hit(&child, DATA).is_none());
            assert!(hit(&space, DATA).expect("kept").write_ok);
            space.write_u64(DATA, 5).expect("write");
            assert_eq!(child.read_u64(DATA).expect("read"), 1);
            assert_eq!(space.read_u64(DATA).expect("read"), 5);
            // Everything that refills the pending set or moves regions
            // empties the table.
            space.mark_cow_shared();
            assert!(hit(&space, DATA).is_none());
            space.write_u64(DATA, 6).expect("write");
            assert_eq!(space.stats().cow_copies, 1);
            space.write_u64(DATA, 7).expect("write");
            space.set_brk(HEAP);
            assert!(hit(&space, DATA).is_none());
        }
    }
}
