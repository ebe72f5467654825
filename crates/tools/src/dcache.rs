//! A data-cache simulator SuperTool (paper §5.2).
//!
//! The serial version models a direct-mapped data cache. The SuperPin
//! adaptation follows the paper's recipe for tools with cross-slice
//! dependences (§4.5):
//!
//! 1. *Assume* the first access to each cache set in a slice hits, but
//!    record the assumed line address.
//! 2. At slice end, compare each assumption with the **previous slice's
//!    final cache state** (kept in shared memory).
//! 3. Reconcile during the in-order merge: a wrong assumption converts
//!    one hit into one miss.
//!
//! Because a set's content after its first in-slice access is identical
//! under both the serial and the sliced simulation, the reconciled totals
//! are *exactly* equal to a serial run — which the tests assert.

use std::fmt;
use superpin::{AreaId, AutoMerge, SharedMem, SuperTool};
use superpin_dbi::{IArg, IPoint, Inserter, Pintool, Trace};
use superpin_isa::Program;

/// Cache geometry (direct-mapped).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DCacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Line size in bytes.
    pub line_bytes: u64,
}

impl DCacheConfig {
    /// 4 KiB direct-mapped with 64-byte lines (64 sets) — small enough
    /// that conflict behaviour shows up in miniature workloads.
    pub fn small() -> DCacheConfig {
        DCacheConfig {
            size_bytes: 4 * 1024,
            line_bytes: 64,
        }
    }

    /// Number of sets.
    pub fn num_sets(&self) -> usize {
        (self.size_bytes / self.line_bytes).max(1) as usize
    }
}

impl Default for DCacheConfig {
    fn default() -> DCacheConfig {
        DCacheConfig::small()
    }
}

/// Hit/miss totals.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DCacheResult {
    /// Cache hits.
    pub hits: u64,
    /// Cache misses.
    pub misses: u64,
}

impl DCacheResult {
    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Miss ratio in [0, 1].
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses() == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses() as f64
        }
    }
}

impl fmt::Display for DCacheResult {
    /// `H hits, M misses (miss ratio R%)`, as the cache tools render it.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} hits, {} misses (miss ratio {:.2}%)",
            self.hits,
            self.misses,
            100.0 * self.miss_ratio()
        )
    }
}

/// The data-cache SuperTool.
#[derive(Clone, Debug)]
pub struct DCache {
    cfg: DCacheConfig,
    /// Resident line per set (`None` = not yet touched this slice /
    /// empty in serial mode).
    sets: Vec<Option<u64>>,
    /// First line accessed per set this slice (the §5.2 "special record
    /// of the line address containing the assumed hit").
    first_line: Vec<Option<u64>>,
    hits: u64,
    misses: u64,
    /// True once `reset` ran, i.e. the tool is running under SuperPin
    /// (`SP_Init` returned true).
    sp_mode: bool,
    hits_area: AreaId,
    misses_area: AreaId,
    /// Final cache state carried between slices: one word per set,
    /// `0` = empty, else `line + 1`.
    state_area: AreaId,
}

impl DCache {
    /// Creates the tool and its shared areas.
    pub fn new(shared: &SharedMem, cfg: DCacheConfig) -> DCache {
        let num_sets = cfg.num_sets();
        DCache {
            cfg,
            sets: vec![None; num_sets],
            first_line: vec![None; num_sets],
            hits: 0,
            misses: 0,
            sp_mode: false,
            hits_area: shared.create_area(1, AutoMerge::Manual),
            misses_area: shared.create_area(1, AutoMerge::Manual),
            state_area: shared.create_area(num_sets, AutoMerge::Manual),
        }
    }

    /// Slice-local (or serial-mode) totals before reconciliation.
    pub fn local_result(&self) -> DCacheResult {
        DCacheResult {
            hits: self.hits,
            misses: self.misses,
        }
    }

    /// The merged totals from shared memory (SuperPin mode).
    pub fn merged_result(&self, shared: &SharedMem) -> DCacheResult {
        DCacheResult {
            hits: shared.area(self.hits_area).read(0),
            misses: shared.area(self.misses_area).read(0),
        }
    }

    fn set_of(&self, line: u64) -> usize {
        (line % self.cfg.num_sets() as u64) as usize
    }

    /// Simulates one data access.
    pub fn access(&mut self, addr: u64) {
        let line = addr / self.cfg.line_bytes;
        let set = self.set_of(line);
        match self.sets[set] {
            Some(resident) if resident == line => self.hits += 1,
            Some(_) => {
                self.misses += 1;
                self.sets[set] = Some(line);
            }
            None => {
                if self.sp_mode {
                    // §5.2: "We assume that the first access in a slice
                    // will be a hit ... but also make a special record of
                    // the line address containing the assumed hit."
                    self.first_line[set] = Some(line);
                    self.hits += 1;
                } else {
                    // Serial mode: a cold set is simply a miss.
                    self.misses += 1;
                }
                self.sets[set] = Some(line);
            }
        }
    }
}

impl Pintool for DCache {
    fn instrument_trace(&mut self, trace: &Trace, inserter: &mut Inserter<Self>) {
        for iref in trace.insts() {
            if iref.inst.is_mem_read() || iref.inst.is_mem_write() {
                inserter.insert_call(
                    iref.addr,
                    IPoint::Before,
                    |tool, ctx, _| tool.access(ctx.arg(0)),
                    vec![IArg::MemAddr],
                );
            }
        }
    }

    fn instrumentation_is_shareable(&self) -> bool {
        // Calls depend only on the trace; all state is touched at
        // analysis time, so clones instrument identically.
        true
    }

    fn name(&self) -> &'static str {
        "dcache"
    }
}

impl SuperTool for DCache {
    fn reset(&mut self, _slice_num: u32) {
        self.sets.fill(None);
        self.first_line.fill(None);
        self.hits = 0;
        self.misses = 0;
        self.sp_mode = true;
    }

    fn on_slice_end(&mut self, _slice_num: u32, shared: &SharedMem) {
        let state = shared.area(self.state_area);
        let mut hits = self.hits;
        let mut misses = self.misses;
        // §5.2: "when the slice completes, we compare the line of our
        // first access with the final cache state of the previous slice.
        // If they do not match, we subtract the assumed hit and add a
        // miss to our record."
        for (set, first) in self.first_line.iter().enumerate() {
            if let Some(line) = first {
                if state.read(set) != line + 1 {
                    hits -= 1;
                    misses += 1;
                }
            }
        }
        shared.area(self.hits_area).add(0, hits);
        shared.area(self.misses_area).add(0, misses);
        // Publish this slice's final state; untouched sets inherit the
        // previous slice's lines.
        for (set, resident) in self.sets.iter().enumerate() {
            if let Some(line) = resident {
                state.write(set, line + 1);
            }
        }
    }

    fn fini_shared(&self, shared: &SharedMem, _program: &Program) -> String {
        format!("dcache: {}\n", self.merged_result(shared))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tool() -> (DCache, SharedMem) {
        let shared = SharedMem::new();
        let cache = DCache::new(&shared, DCacheConfig::small());
        (cache, shared)
    }

    #[test]
    fn serial_mode_cold_miss_then_hit() {
        let (mut cache, _) = tool();
        cache.access(0x100);
        cache.access(0x108); // same line
        cache.access(0x100 + 4096); // conflicting line, same set
        cache.access(0x100); // conflict miss again
        let result = cache.local_result();
        assert_eq!(result.hits, 1);
        assert_eq!(result.misses, 3);
        assert!((result.miss_ratio() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn sliced_reconciliation_matches_serial() {
        // Serial reference over a fixed access stream.
        let stream: Vec<u64> = vec![
            0x100, 0x140, 0x100, 0x2100, 0x140, 0x100, 0x4100, 0x140, 0x100, 0x140,
        ];
        let (mut serial, _) = tool();
        for &addr in &stream {
            serial.access(addr);
        }
        let want = serial.local_result();

        // Sliced: split the stream at arbitrary points; each chunk is a
        // slice with assumed-hit reconciliation.
        for split in 1..stream.len() {
            let (shared_case, shared) = {
                let shared = SharedMem::new();
                (DCache::new(&shared, DCacheConfig::small()), shared)
            };
            let mut tool_template = shared_case;
            let chunks = [&stream[..split], &stream[split..]];
            for (i, chunk) in chunks.iter().enumerate() {
                let mut slice_tool = tool_template.clone();
                slice_tool.reset(i as u32 + 1);
                for &addr in *chunk {
                    slice_tool.access(addr);
                }
                slice_tool.on_slice_end(i as u32 + 1, &shared);
                tool_template = slice_tool; // template irrelevant; keep areas
            }
            let got = tool_template.merged_result(&shared);
            assert_eq!(got, want, "split at {split} diverged");
        }
    }

    #[test]
    fn first_slice_assumptions_reconcile_against_empty_cache() {
        let (mut cache, shared) = tool();
        cache.reset(1);
        cache.access(0x100);
        cache.access(0x100);
        // Locally: assumed hit + real hit.
        assert_eq!(cache.local_result().hits, 2);
        cache.on_slice_end(1, &shared);
        // Previous state is empty ⇒ the assumed hit becomes a miss.
        let merged = cache.merged_result(&shared);
        assert_eq!(merged, DCacheResult { hits: 1, misses: 1 });
    }

    #[test]
    fn correct_assumption_survives_merge() {
        let (mut slice1, shared) = tool();
        slice1.reset(1);
        slice1.access(0x100);
        slice1.on_slice_end(1, &shared);

        let mut slice2 = slice1.clone();
        slice2.reset(2);
        slice2.access(0x108); // same line as slice 1's final state
        slice2.on_slice_end(2, &shared);

        let merged = slice2.merged_result(&shared);
        // Slice 1: cold miss. Slice 2: assumed hit, confirmed.
        assert_eq!(merged, DCacheResult { hits: 1, misses: 1 });
    }

    #[test]
    fn untouched_sets_inherit_previous_state() {
        let (mut slice1, shared) = tool();
        slice1.reset(1);
        slice1.access(0x100);
        slice1.on_slice_end(1, &shared);

        // Slice 2 touches nothing; slice 3's assumption still sees slice
        // 1's state.
        let mut slice2 = slice1.clone();
        slice2.reset(2);
        slice2.on_slice_end(2, &shared);

        let mut slice3 = slice2.clone();
        slice3.reset(3);
        slice3.access(0x100);
        slice3.on_slice_end(3, &shared);

        let merged = slice3.merged_result(&shared);
        assert_eq!(merged, DCacheResult { hits: 1, misses: 1 });
    }
}
