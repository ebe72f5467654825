//! A set-associative LRU data-cache SuperTool.
//!
//! The paper's §5.2 walkthrough covers the direct-mapped case, where the
//! first access to a set fully determines its content. With
//! associativity, a slice's early accesses touch sets whose *other* ways
//! still hold unknown pre-slice lines, so hit/miss verdicts and even LRU
//! eviction victims can depend on state only the previous slice knows.
//!
//! This tool applies the paper's general recipe (§4.5):
//!
//! 1. *Assume* and record: while a set still contains unknown pre-slice
//!    lines, the slice logs the set's access sequence (run-length
//!    compressed) instead of judging it, and models unknown ways with
//!    placeholders.
//! 2. Once a set has observed `ways` distinct lines, its content is
//!    fully determined and the slice judges accesses locally.
//! 3. *Reconcile at merge*: the logged prefix is replayed — in slice
//!    order — against the previous slice's final state (kept in a shared
//!    area, lines in LRU-to-MRU order), which yields the exact verdicts
//!    a serial simulation would have produced.

use crate::dcache::DCacheResult;
use superpin::{AreaId, AutoMerge, SharedMem, SuperTool};
use superpin_dbi::{IArg, IPoint, Inserter, Pintool, Trace};
use superpin_isa::Program;

/// Geometry of the set-associative cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AssocDCacheConfig {
    /// Number of sets (power of two recommended).
    pub num_sets: usize,
    /// Ways per set.
    pub ways: usize,
    /// Line size in bytes.
    pub line_bytes: u64,
}

impl AssocDCacheConfig {
    /// 4 KiB, 2-way, 64-byte lines (32 sets).
    pub fn small() -> AssocDCacheConfig {
        AssocDCacheConfig {
            num_sets: 32,
            ways: 2,
            line_bytes: 64,
        }
    }

    /// 8 KiB, 4-way, 64-byte lines (32 sets).
    pub fn four_way() -> AssocDCacheConfig {
        AssocDCacheConfig {
            num_sets: 32,
            ways: 4,
            line_bytes: 64,
        }
    }
}

impl Default for AssocDCacheConfig {
    fn default() -> AssocDCacheConfig {
        AssocDCacheConfig::small()
    }
}

/// One set: resident lines in LRU→MRU order. `None` = unknown pre-slice
/// line (placeholder).
type SetState = Vec<Option<u64>>;

/// A serial set-associative LRU cache simulator (also the merge-time
/// replay engine).
#[derive(Clone, Debug)]
pub struct LruCache {
    cfg: AssocDCacheConfig,
    /// Per set, lines in LRU→MRU order (index 0 evicted first).
    sets: Vec<Vec<u64>>,
    hits: u64,
    misses: u64,
}

impl LruCache {
    /// An empty cache.
    pub fn new(cfg: AssocDCacheConfig) -> LruCache {
        LruCache {
            cfg,
            sets: vec![Vec::new(); cfg.num_sets],
            hits: 0,
            misses: 0,
        }
    }

    /// Creates a cache from explicit per-set contents (LRU→MRU order).
    pub fn from_state(cfg: AssocDCacheConfig, sets: Vec<Vec<u64>>) -> LruCache {
        assert_eq!(sets.len(), cfg.num_sets, "state must cover every set");
        LruCache {
            cfg,
            sets,
            hits: 0,
            misses: 0,
        }
    }

    /// Simulates one access by line id; returns `true` on a hit.
    pub fn access_line(&mut self, line: u64) -> bool {
        let set = (line % self.cfg.num_sets as u64) as usize;
        let ways = self.cfg.ways;
        let entries = &mut self.sets[set];
        if let Some(pos) = entries.iter().position(|&resident| resident == line) {
            entries.remove(pos);
            entries.push(line); // MRU
            self.hits += 1;
            true
        } else {
            if entries.len() >= ways {
                entries.remove(0); // evict LRU
            }
            entries.push(line);
            self.misses += 1;
            false
        }
    }

    /// Simulates one access by byte address.
    pub fn access(&mut self, addr: u64) -> bool {
        self.access_line(addr / self.cfg.line_bytes)
    }

    /// Totals so far.
    pub fn result(&self) -> DCacheResult {
        DCacheResult {
            hits: self.hits,
            misses: self.misses,
        }
    }

    /// Per-set contents, LRU→MRU.
    pub fn state(&self) -> &[Vec<u64>] {
        &self.sets
    }
}

/// The set-associative SuperTool.
#[derive(Clone, Debug)]
pub struct AssocDCache {
    cfg: AssocDCacheConfig,
    /// Slice-local model: per set, LRU→MRU entries, `None` = unknown
    /// pre-slice line.
    sets: Vec<SetState>,
    /// Per-set logged access prefix as (line, repeat-count) pairs —
    /// consecutive accesses to the same line are guaranteed hits, so
    /// they compress losslessly. Recorded while the set still contains
    /// unknowns.
    logs: Vec<Vec<(u64, u64)>>,
    /// Whether each set still contains unknown ways (log active).
    logging: Vec<bool>,
    /// Hits/misses judged locally (post-determinism only).
    hits: u64,
    misses: u64,
    sp_mode: bool,
    hits_area: AreaId,
    misses_area: AreaId,
    /// Carried final state: `num_sets × ways` words, LRU→MRU, `0` =
    /// empty, else `line + 1`.
    state_area: AreaId,
}

impl AssocDCache {
    /// Creates the tool and its shared areas.
    pub fn new(shared: &SharedMem, cfg: AssocDCacheConfig) -> AssocDCache {
        AssocDCache {
            cfg,
            sets: vec![Vec::new(); cfg.num_sets],
            logs: vec![Vec::new(); cfg.num_sets],
            logging: vec![true; cfg.num_sets],
            hits: 0,
            misses: 0,
            sp_mode: false,
            hits_area: shared.create_area(1, AutoMerge::Manual),
            misses_area: shared.create_area(1, AutoMerge::Manual),
            state_area: shared.create_area(cfg.num_sets * cfg.ways, AutoMerge::Manual),
        }
    }

    /// The geometry.
    pub fn config(&self) -> AssocDCacheConfig {
        self.cfg
    }

    /// Merged totals from shared memory.
    pub fn merged_result(&self, shared: &SharedMem) -> DCacheResult {
        DCacheResult {
            hits: shared.area(self.hits_area).read(0),
            misses: shared.area(self.misses_area).read(0),
        }
    }

    /// Slice-local judged totals (serial mode: the full result).
    pub fn local_result(&self) -> DCacheResult {
        DCacheResult {
            hits: self.hits,
            misses: self.misses,
        }
    }

    /// Simulates one access.
    pub fn access(&mut self, addr: u64) {
        let line = addr / self.cfg.line_bytes;
        let set_index = (line % self.cfg.num_sets as u64) as usize;
        let ways = self.cfg.ways;

        if self.sp_mode && self.logging[set_index] {
            // Log (RLE) while the set still has unknown pre-slice ways.
            let log = &mut self.logs[set_index];
            match log.last_mut() {
                Some((last, count)) if *last == line => *count += 1,
                _ => log.push((line, 1)),
            }
            // Maintain the placeholder model to detect determinism.
            let entries = &mut self.sets[set_index];
            if let Some(pos) = entries.iter().position(|&e| e == Some(line)) {
                entries.remove(pos);
                entries.push(Some(line));
            } else {
                // Not among known lines. Whether it hits an unknown way
                // cannot be decided yet; conservatively *keep* unknowns
                // (an assumed hit cannot evict). The merge replay fixes
                // everything; the model only tracks known lines to test
                // for determinism.
                if entries.len() >= ways {
                    entries.remove(0);
                }
                entries.push(Some(line));
            }
            // Determined once `ways` distinct known lines are resident.
            let known = self.sets[set_index].iter().filter(|e| e.is_some()).count();
            if known >= ways {
                self.logging[set_index] = false;
            }
            return;
        }

        // Locally judged access (serial mode, or a determined set).
        let entries = &mut self.sets[set_index];
        if let Some(pos) = entries.iter().position(|&e| e == Some(line)) {
            entries.remove(pos);
            entries.push(Some(line));
            self.hits += 1;
        } else {
            if entries.len() >= ways {
                entries.remove(0);
            }
            entries.push(Some(line));
            self.misses += 1;
        }
    }

    fn read_carried_state(&self, shared: &SharedMem) -> Vec<Vec<u64>> {
        let area = shared.area(self.state_area);
        (0..self.cfg.num_sets)
            .map(|set| {
                (0..self.cfg.ways)
                    .filter_map(|way| {
                        let word = area.read(set * self.cfg.ways + way);
                        (word != 0).then(|| word - 1)
                    })
                    .collect()
            })
            .collect()
    }

    fn write_carried_state(&self, shared: &SharedMem, state: &[Vec<u64>]) {
        let area = shared.area(self.state_area);
        for (set, entries) in state.iter().enumerate() {
            for way in 0..self.cfg.ways {
                let word = entries.get(way).map(|&line| line + 1).unwrap_or(0);
                area.write(set * self.cfg.ways + way, word);
            }
        }
    }
}

impl Pintool for AssocDCache {
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
        "dcache-assoc"
    }
}

impl SuperTool for AssocDCache {
    fn reset(&mut self, _slice_num: u32) {
        self.sets = vec![Vec::new(); self.cfg.num_sets];
        self.logs = vec![Vec::new(); self.cfg.num_sets];
        self.logging = vec![true; self.cfg.num_sets];
        self.hits = 0;
        self.misses = 0;
        self.sp_mode = true;
    }

    fn on_slice_end(&mut self, _slice_num: u32, shared: &SharedMem) {
        // Replay this slice's logged prefixes — and re-derive the final
        // state — against the previous slice's carried state.
        let mut replay = LruCache::from_state(self.cfg, self.read_carried_state(shared));
        let mut hits = self.hits;
        let mut misses = self.misses;
        for log in &self.logs {
            for &(line, count) in log {
                if replay.access_line(line) {
                    hits += 1;
                } else {
                    misses += 1;
                }
                // The collapsed repeats re-access the MRU line: all hits.
                hits += count - 1;
            }
        }
        // Post-log accesses were judged exactly; re-apply their effect on
        // the state by replaying the determined sets' known contents: a
        // determined set's final content is exactly its slice-local
        // entries (all known), in order.
        let mut final_state = replay.state().to_vec();
        for (set, entries) in self.sets.iter().enumerate() {
            if !self.logging[set] {
                // Fully determined: local order is authoritative.
                final_state[set] = entries.iter().map(|e| e.expect("determined")).collect();
            }
            // Still-logging sets were fully handled by the replay above
            // (their logged prefix is their entire access history).
        }
        shared.area(self.hits_area).add(0, hits);
        shared.area(self.misses_area).add(0, misses);
        self.write_carried_state(shared, &final_state);
    }

    fn fini_shared(&self, shared: &SharedMem, _program: &Program) -> String {
        format!(
            "dcache-assoc ({}-way LRU): {}\n",
            self.cfg.ways,
            self.merged_result(shared)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sliced_result(cfg: AssocDCacheConfig, chunks: &[&[u64]]) -> DCacheResult {
        let shared = SharedMem::new();
        let template = AssocDCache::new(&shared, cfg);
        let mut tool = template.clone();
        for (i, chunk) in chunks.iter().enumerate() {
            tool = template.clone();
            tool.reset(i as u32 + 1);
            for &addr in *chunk {
                tool.access(addr);
            }
            tool.on_slice_end(i as u32 + 1, &shared);
        }
        tool.merged_result(&shared)
    }

    fn serial_result(cfg: AssocDCacheConfig, stream: &[u64]) -> DCacheResult {
        let mut cache = LruCache::new(cfg);
        for &addr in stream {
            cache.access(addr);
        }
        cache.result()
    }

    #[test]
    fn lru_basics() {
        let mut cache = LruCache::new(AssocDCacheConfig::small());
        // Two lines in the same set (set stride = 32 lines * 64 B).
        let (a, b, c) = (0x0, 0x800 * 64, 0x1000 * 64);
        assert!(!cache.access(a));
        assert!(!cache.access(b));
        assert!(cache.access(a)); // still resident (2-way)
        assert!(!cache.access(c)); // evicts b (LRU)
        assert!(!cache.access(b)); // b was evicted
        assert_eq!(cache.result().misses, 4);
        assert_eq!(cache.result().hits, 1);
    }

    #[test]
    fn conflict_aware_reconciliation_across_one_split() {
        let cfg = AssocDCacheConfig::small();
        // Lines A and B map to set 0; slice 2's first access to B must
        // be judged against slice 1's final state {A, B}.
        let a = 0u64;
        let b = 32 * 64; // same set, different line
        let stream = [a, b, a, b, b, a];
        let want = serial_result(cfg, &stream);
        for split in 1..stream.len() {
            let got = sliced_result(cfg, &[&stream[..split], &stream[split..]]);
            assert_eq!(got, want, "split at {split}");
        }
    }

    #[test]
    fn unknown_way_eviction_is_replay_exact() {
        let cfg = AssocDCacheConfig::small();
        // Slice 1 leaves {A, B}; slice 2 accesses C (evicts A), then A
        // (miss!), exercising the order-dependent eviction case.
        let a = 0u64;
        let b = 32 * 64;
        let c = 64 * 64;
        let stream = [a, b, c, a, c, b];
        let want = serial_result(cfg, &stream);
        for split in 1..stream.len() {
            let got = sliced_result(cfg, &[&stream[..split], &stream[split..]]);
            assert_eq!(got, want, "split at {split}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The sliced set-associative simulation with merge-time replay
        /// is exact for arbitrary streams and split points, at 2 and 4
        /// ways.
        #[test]
        fn prop_sliced_equals_serial(
            // Small address universe to force conflicts.
            stream in proptest::collection::vec(0u64..(8 * 32 * 64), 1..200),
            cut in 0usize..199,
            four_way in any::<bool>(),
        ) {
            let cfg = if four_way {
                AssocDCacheConfig::four_way()
            } else {
                AssocDCacheConfig::small()
            };
            let want = serial_result(cfg, &stream);
            let cut = cut.min(stream.len() - 1).max(1.min(stream.len() - 1));
            let chunks: Vec<&[u64]> = if cut == 0 || cut >= stream.len() {
                vec![&stream[..]]
            } else {
                vec![&stream[..cut], &stream[cut..]]
            };
            prop_assert_eq!(sliced_result(cfg, &chunks), want);
        }

        /// Three-way splits are exact too (state chains through merges).
        #[test]
        fn prop_three_slices_exact(
            stream in proptest::collection::vec(0u64..(4 * 32 * 64), 3..150),
            cut1 in 1usize..50,
            cut2 in 1usize..50,
        ) {
            let cfg = AssocDCacheConfig::small();
            let want = serial_result(cfg, &stream);
            let a = cut1.min(stream.len() - 2);
            let b = (a + cut2).min(stream.len() - 1);
            let chunks: Vec<&[u64]> = vec![&stream[..a], &stream[a..b], &stream[b..]];
            prop_assert_eq!(sliced_result(cfg, &chunks), want);
        }
    }
}
