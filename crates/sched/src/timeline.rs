//! Labelled time-segment recording.

/// Records labelled, non-overlapping time segments for one actor (the
/// master, a slice, …). Adjacent segments with the same label coalesce.
///
/// The SuperPin runner uses a `Timeline` per actor to produce Figure 6's
/// breakdown of master run time into *running*, *sleep* (stalled on the
/// max-slice limit), and the post-exit *pipeline delay*.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Timeline {
    segments: Vec<(u64, u64, &'static str)>,
}

impl Timeline {
    /// Creates an empty timeline.
    pub fn new() -> Timeline {
        Timeline::default()
    }

    /// Appends a segment `[start, end)` with `label`.
    ///
    /// Zero-length segments are ignored. Segments must be appended in
    /// non-decreasing time order.
    ///
    /// # Panics
    ///
    /// Panics if `end < start` or if `start` precedes the previous
    /// segment's end (overlap).
    pub fn push(&mut self, start: u64, end: u64, label: &'static str) {
        assert!(end >= start, "segment ends before it starts");
        if end == start {
            return;
        }
        if let Some(last) = self.segments.last_mut() {
            assert!(start >= last.1, "segments must not overlap");
            if last.2 == label && last.1 == start {
                last.1 = end;
                return;
            }
        }
        self.segments.push((start, end, label));
    }

    /// Total ticks recorded under `label`.
    pub fn total(&self, label: &str) -> u64 {
        self.segments
            .iter()
            .filter(|(_, _, l)| *l == label)
            .map(|(s, e, _)| e - s)
            .sum()
    }

    /// End time of the last segment (0 if empty).
    #[cfg(test)]
    pub(crate) fn end(&self) -> u64 {
        self.segments.last().map(|&(_, end, _)| end).unwrap_or(0)
    }

    /// The raw segments.
    #[cfg(test)]
    pub(crate) fn segments(&self) -> &[(u64, u64, &'static str)] {
        &self.segments
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coalesces_adjacent_same_label() {
        let mut t = Timeline::new();
        t.push(0, 10, "run");
        t.push(10, 20, "run");
        t.push(20, 30, "sleep");
        assert_eq!(t.segments().len(), 2);
        assert_eq!(t.total("run"), 20);
        assert_eq!(t.total("sleep"), 10);
        assert_eq!(t.end(), 30);
    }

    #[test]
    fn gap_prevents_coalescing() {
        let mut t = Timeline::new();
        t.push(0, 10, "run");
        t.push(15, 20, "run");
        assert_eq!(t.segments().len(), 2);
        assert_eq!(t.total("run"), 15);
    }

    #[test]
    fn zero_length_segments_ignored() {
        let mut t = Timeline::new();
        t.push(5, 5, "run");
        assert!(t.segments().is_empty());
        assert_eq!(t.end(), 0);
    }

    #[test]
    fn totals_per_label() {
        let mut t = Timeline::new();
        t.push(0, 4, "a");
        t.push(4, 6, "b");
        t.push(6, 10, "a");
        assert_eq!(t.total("a"), 8);
        assert_eq!(t.total("b"), 2);
    }

    #[test]
    #[should_panic(expected = "overlap")]
    fn overlap_panics() {
        let mut t = Timeline::new();
        t.push(0, 10, "run");
        t.push(5, 12, "run");
    }

    #[test]
    #[should_panic(expected = "ends before")]
    fn inverted_segment_panics() {
        let mut t = Timeline::new();
        t.push(10, 5, "run");
    }
}
