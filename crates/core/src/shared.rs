//! Shared-memory areas for cross-slice result aggregation
//! (`SP_CreateSharedArea`, paper §5).
//!
//! "Because SuperPin slices an application into separate processes with
//! their own copy of Pin and the Pintool, the data a Pintool records will
//! only be local to its slice. A merge function must be called to combine
//! the output of the last completed slice into a collective total"
//! (paper §4.5). [`SharedArea`] is the shared-memory region those merges
//! target; [`SharedMem`] is the per-run registry of areas.

use std::fmt;
use std::sync::Arc;
use std::sync::Mutex;

/// How an area is merged when a slice ends (the `autoMerge` argument of
/// `SP_CreateSharedArea`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum AutoMerge {
    /// The tool merges manually in its slice-end function.
    #[default]
    Manual,
    /// Each local word is added to the shared word.
    Add,
    /// Each shared word becomes `max(shared, local)`.
    Max,
    /// Each shared word becomes `min(shared, local)`.
    Min,
}

/// Identifier of a [`SharedArea`] within a [`SharedMem`] registry.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct AreaId(usize);

/// A shared-memory region of 64-bit words, visible to every slice and to
/// the tool's renderer ([`SuperTool::fini_shared`](crate::SuperTool::fini_shared)).
#[derive(Clone)]
pub struct SharedArea {
    words: Arc<Mutex<Vec<u64>>>,
    auto: AutoMerge,
}

impl SharedArea {
    /// A zeroed area of `len` words.
    pub fn new(len: usize, auto: AutoMerge) -> SharedArea {
        SharedArea {
            words: Arc::new(Mutex::new(vec![0; len])),
            auto,
        }
    }

    /// Number of words.
    pub fn len(&self) -> usize {
        self.words.lock().expect("mutex poisoned").len()
    }

    /// Whether the area has zero words.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Reads word `i` (0 if out of range).
    pub fn read(&self, i: usize) -> u64 {
        self.words
            .lock()
            .expect("mutex poisoned")
            .get(i)
            .copied()
            .unwrap_or(0)
    }

    /// Writes word `i` (ignored if out of range).
    pub fn write(&self, i: usize, value: u64) {
        if let Some(slot) = self.words.lock().expect("mutex poisoned").get_mut(i) {
            *slot = value;
        }
    }

    /// Atomically adds `value` to word `i`.
    pub fn add(&self, i: usize, value: u64) {
        if let Some(slot) = self.words.lock().expect("mutex poisoned").get_mut(i) {
            *slot = slot.wrapping_add(value);
        }
    }

    /// A snapshot of all words.
    pub fn snapshot(&self) -> Vec<u64> {
        self.words.lock().expect("mutex poisoned").clone()
    }

    /// Merges slice-local words into the area per its [`AutoMerge`] mode.
    /// [`AutoMerge::Manual`] areas are untouched.
    pub fn merge_locals(&self, locals: &[u64]) {
        let mut words = self.words.lock().expect("mutex poisoned");
        for (slot, &local) in words.iter_mut().zip(locals) {
            match self.auto {
                AutoMerge::Manual => {}
                AutoMerge::Add => *slot = slot.wrapping_add(local),
                AutoMerge::Max => *slot = (*slot).max(local),
                AutoMerge::Min => *slot = (*slot).min(local),
            }
        }
    }
}

impl fmt::Debug for SharedArea {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SharedArea")
            .field("len", &self.len())
            .field("auto", &self.auto)
            .finish()
    }
}

/// The registry of shared areas for one SuperPin run. Cloning shares the
/// underlying storage (it models one shared-memory segment mapped into
/// every process).
#[derive(Clone, Debug, Default)]
pub struct SharedMem {
    areas: Arc<Mutex<Vec<SharedArea>>>,
    /// Buffered ordered output appended by slice merges (paper §4.5: "if
    /// we are tracing instructions, the slice output will be buffered,
    /// then appended to the output during merging").
    output: Arc<Mutex<Vec<u8>>>,
}

impl SharedMem {
    /// An empty registry.
    pub fn new() -> SharedMem {
        SharedMem::default()
    }

    /// Creates a zeroed area of `len` words (the `SP_CreateSharedArea`
    /// analogue) and returns its id.
    pub fn create_area(&self, len: usize, auto: AutoMerge) -> AreaId {
        let mut areas = self.areas.lock().expect("mutex poisoned");
        areas.push(SharedArea::new(len, auto));
        AreaId(areas.len() - 1)
    }

    /// The area with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this registry.
    pub fn area(&self, id: AreaId) -> SharedArea {
        self.areas.lock().expect("mutex poisoned")[id.0].clone()
    }

    /// Number of registered areas.
    #[cfg(test)]
    pub(crate) fn area_count(&self) -> usize {
        self.areas.lock().expect("mutex poisoned").len()
    }

    /// Appends bytes to the merged output stream (used by tracing tools
    /// during in-order merges).
    pub fn append_output(&self, bytes: &[u8]) {
        self.output
            .lock()
            .expect("mutex poisoned")
            .extend_from_slice(bytes);
    }

    /// The merged output so far.
    pub fn output(&self) -> Vec<u8> {
        self.output.lock().expect("mutex poisoned").clone()
    }

    /// Simulated resident bytes of the shared segment: every area's
    /// words plus the buffered merge output. Charged against the memory
    /// governor's budget; a pure function of simulated state, so it is
    /// identical across host thread counts.
    pub fn resident_bytes(&self) -> u64 {
        let words: usize = self
            .areas
            .lock()
            .expect("mutex poisoned")
            .iter()
            .map(|area| area.len())
            .sum();
        let output = self.output.lock().expect("mutex poisoned").len();
        (words as u64) * 8 + output as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_merge_accumulates() {
        let area = SharedArea::new(3, AutoMerge::Add);
        area.merge_locals(&[1, 2, 3]);
        area.merge_locals(&[10, 20, 30]);
        assert_eq!(area.snapshot(), vec![11, 22, 33]);
    }

    #[test]
    fn max_and_min_merges() {
        let max = SharedArea::new(2, AutoMerge::Max);
        max.merge_locals(&[5, 1]);
        max.merge_locals(&[3, 9]);
        assert_eq!(max.snapshot(), vec![5, 9]);

        let min = SharedArea::new(2, AutoMerge::Min);
        min.write(0, u64::MAX);
        min.write(1, u64::MAX);
        min.merge_locals(&[5, 1]);
        min.merge_locals(&[3, 9]);
        assert_eq!(min.snapshot(), vec![3, 1]);
    }

    #[test]
    fn manual_merge_is_a_no_op() {
        let area = SharedArea::new(2, AutoMerge::Manual);
        area.merge_locals(&[7, 7]);
        assert_eq!(area.snapshot(), vec![0, 0]);
        area.add(0, 7);
        assert_eq!(area.read(0), 7);
    }

    #[test]
    fn out_of_range_access_is_total() {
        let area = SharedArea::new(1, AutoMerge::Add);
        assert_eq!(area.read(5), 0);
        area.write(5, 1); // ignored
        area.add(5, 1); // ignored
        assert_eq!(area.snapshot(), vec![0]);
    }

    #[test]
    fn clones_share_storage() {
        let mem = SharedMem::new();
        let id = mem.create_area(1, AutoMerge::Add);
        let clone = mem.clone();
        clone.area(id).add(0, 42);
        assert_eq!(mem.area(id).read(0), 42);
        assert_eq!(mem.area_count(), clone.area_count());
    }

    #[test]
    fn resident_bytes_counts_areas_and_output() {
        let mem = SharedMem::new();
        assert_eq!(mem.resident_bytes(), 0);
        mem.create_area(4, AutoMerge::Add);
        mem.create_area(2, AutoMerge::Manual);
        mem.append_output(b"abc");
        assert_eq!(mem.resident_bytes(), 6 * 8 + 3);
    }

    #[test]
    fn output_appends_in_order() {
        let mem = SharedMem::new();
        mem.append_output(b"slice0;");
        mem.append_output(b"slice1;");
        assert_eq!(mem.output(), b"slice0;slice1;");
    }
}
