//! The trace registry: which traces some engine has already compiled,
//! published at the epoch barrier (paper §8's shared code cache).
//!
//! A [`TraceRegistry`] is immutable. Engines read it without locks for
//! the whole epoch; at the barrier the parallel runner drains every
//! slice's fresh compiles *in slice order* and [`publish`]es them into
//! the registry the next epoch reads. What an engine sees is therefore
//! a pure function of virtual time, never of host interleaving.
//!
//! Each entry answers two questions:
//!
//! * **Membership** — some engine compiled the trace entered at this pc.
//!   With the shared code cache on, a later compile of it is charged the
//!   consistency-check rate instead of the full JIT price. That is the
//!   only use of a bare membership, so engines publish one only then.
//! * **Template** — the compiled trace itself, present only if the
//!   publishing engine's tool certified it shareable
//!   ([`Pintool::instrumentation_is_shareable`](crate::Pintool::instrumentation_is_shareable)).
//!   An engine missing on that pc adopts it instead of re-instrumenting
//!   (a host-side saving; the simulated charge is the same either way)
//!   when the template's code version vouches for it, and compiles the
//!   trace otherwise (see
//!   [`Engine::enter_epoch`](crate::Engine::enter_epoch)).
//!
//! [`publish`]: TraceRegistry::publish

use crate::cache::{CompiledTrace, EntryMap};
use std::sync::Arc;

/// A published entry: the compiled trace when it may be shared, `None`
/// when only its membership may.
pub type Entry<T> = Option<Arc<CompiledTrace<T>>>;

/// A registry folds its delta into a new base once the delta holds more
/// than `1 / FOLD_DIVISOR` of the base's entries. Between folds a
/// publish copies only the delta, and a fold copies the base once for
/// every base/16 entries published since the last, so a barrier that adds
/// an entry or two copies tens of entries, not the whole registry.
const FOLD_DIVISOR: usize = 16;

/// An immutable `pc → entry` map of compiled traces (see the module
/// docs), in two layers: a frozen base shared by every registry
/// published since it was folded, and the small delta published on top
/// of it.
pub struct TraceRegistry<T> {
    /// The entries as of the last fold.
    base: Arc<EntryMap<Entry<T>>>,
    /// Entries published since: a pc the base lacks, or the template for
    /// a pc the base holds as membership only. It shadows the base.
    delta: EntryMap<Entry<T>>,
    /// Distinct pcs across both layers.
    len: usize,
}

impl<T> TraceRegistry<T> {
    /// An empty registry.
    pub fn new() -> TraceRegistry<T> {
        TraceRegistry {
            base: Arc::default(),
            delta: EntryMap::default(),
            len: 0,
        }
    }

    /// The entry published for the trace entered at `pc`, if any: both
    /// answers from one probe of each layer, the delta first.
    pub fn entry(&self, pc: u64) -> Option<&Entry<T>> {
        self.delta.get(&pc).or_else(|| self.base.get(&pc))
    }

    /// The shareable compiled trace entered at `pc`, if one was
    /// published.
    pub fn template(&self, pc: u64) -> Option<&Arc<CompiledTrace<T>>> {
        self.entry(pc)?.as_ref()
    }

    /// Number of published traces.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether nothing has been published.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Publishes `fresh` compiles, in order: a pc the registry lacks
    /// joins it, and a template fills an entry that has none. An entry
    /// is never replaced, so the first publisher wins. Returns the
    /// registry for the next epoch — `self` itself when nothing was
    /// added, a new one otherwise, which shares this one's base and
    /// copies only its delta. The delta is folded into a new base once
    /// it holds more than a sixteenth of the base's entries.
    pub fn publish(
        self: &Arc<Self>,
        fresh: impl IntoIterator<Item = (u64, Entry<T>)>,
    ) -> Arc<Self> {
        let mut next: Option<TraceRegistry<T>> = None;
        for (pc, template) in fresh {
            let held = next.as_ref().unwrap_or(self).entry(pc);
            let joins = held.is_none();
            let adds = match held {
                None => true,
                Some(held) => held.is_none() && template.is_some(),
            };
            if adds {
                let next = next.get_or_insert_with(|| TraceRegistry {
                    base: Arc::clone(&self.base),
                    delta: self.delta.clone(),
                    len: self.len,
                });
                next.delta.insert(pc, template);
                next.len += usize::from(joins);
            }
        }
        next.map_or_else(|| Arc::clone(self), |next| Arc::new(next.folded()))
    }

    /// This registry with its delta folded into a new base, once the
    /// delta has outgrown its share of the base.
    fn folded(mut self) -> TraceRegistry<T> {
        if self.delta.len() * FOLD_DIVISOR > self.base.len() {
            Arc::make_mut(&mut self.base).extend(self.delta.drain());
        }
        self
    }
}

impl<T> Default for TraceRegistry<T> {
    fn default() -> TraceRegistry<T> {
        TraceRegistry::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CodeCache;
    use crate::cost::CostModel;
    use crate::inserter::Inserter;
    use crate::tool::NullTool;
    use crate::trace::discover_trace;
    use superpin_isa::asm::assemble;
    use superpin_vm::process::Process;

    /// A compiled trace to publish (its contents do not matter here).
    fn compiled() -> Arc<CompiledTrace<NullTool>> {
        let program = assemble("main:\n nop\n exit 0\n").expect("assemble");
        let process = Process::load(1, &program).expect("load");
        let trace = discover_trace(&process.mem, process.cpu.pc).expect("trace");
        let mut cache = CodeCache::with_capacity(1 << 10);
        let (id, _) = cache.compile(&trace, None, &mut Inserter::new(), &CostModel::default());
        Arc::clone(cache.trace(id))
    }

    #[test]
    fn a_membership_only_entry_gains_a_template_and_is_never_replaced() {
        let empty = Arc::new(TraceRegistry::new());
        let members = empty.publish([(0x10, None)]);
        assert!(members.entry(0x10).is_some());
        assert!(members.template(0x10).is_none());

        let first = compiled();
        let filled = members.publish([(0x10, Some(Arc::clone(&first)))]);
        assert!(Arc::ptr_eq(filled.template(0x10).expect("filled"), &first));

        // Neither a later template nor a later membership-only publish
        // replaces the entry.
        let kept = filled.publish([(0x10, Some(compiled())), (0x10, None)]);
        assert!(Arc::ptr_eq(&kept, &filled));
        assert!(Arc::ptr_eq(kept.template(0x10).expect("kept"), &first));
        assert_eq!(kept.len(), 1);
    }

    #[test]
    fn a_barrier_with_nothing_new_returns_the_same_registry() {
        let empty = Arc::new(TraceRegistry::<NullTool>::new());
        assert!(Arc::ptr_eq(&empty.publish([]), &empty));

        let one = empty.publish([(0x10, None), (0x20, Some(compiled()))]);
        assert_eq!(one.len(), 2);
        assert!(empty.is_empty(), "a published registry never changes");
        assert!(Arc::ptr_eq(
            &one.publish([(0x10, None), (0x20, None)]),
            &one
        ));
    }

    #[test]
    fn the_first_publisher_in_order_wins() {
        let (a, b) = (compiled(), compiled());
        let registry =
            Arc::new(TraceRegistry::new()).publish([(0x10, Some(Arc::clone(&a))), (0x10, Some(b))]);
        assert!(Arc::ptr_eq(registry.template(0x10).expect("a"), &a));
    }

    #[test]
    fn entries_read_as_published_across_folds() {
        // One pc a barrier, as most barriers go. Every third joins as
        // membership only and gains its template a barrier later, where a
        // second template for it must not replace the first.
        let (first, late) = (compiled(), compiled());
        let pc = |i: u64| 0x1000 + 8 * i;
        let mut registry = Arc::new(TraceRegistry::new());
        let mut snapshots = Vec::new();
        for i in 0..200 {
            let mut fresh = vec![(pc(i), (i % 3 != 0).then(|| Arc::clone(&first)))];
            if i % 3 == 1 {
                fresh.push((pc(i - 1), Some(Arc::clone(&first))));
                fresh.push((pc(i - 1), Some(Arc::clone(&late))));
            }
            registry = registry.publish(fresh);
            snapshots.push(Arc::clone(&registry));
        }
        let bases: Vec<_> = snapshots.iter().map(|s| Arc::as_ptr(&s.base)).collect();
        let folds = 1 + bases.windows(2).filter(|w| w[0] != w[1]).count();
        assert!(folds > 10 && folds < 100, "{folds} folds");
        assert!(snapshots.iter().any(|s| s.delta.len() > 1));
        // Every snapshot, the oldest included, reads exactly what had been
        // published when it was.
        for (n, snapshot) in (0..).zip(&snapshots) {
            assert_eq!(snapshot.len(), n as usize + 1);
            for i in 0..200 {
                let filled = i % 3 != 0 || i < n;
                match snapshot.entry(pc(i)) {
                    None => assert!(i > n, "{i} at {n}"),
                    Some(entry) => {
                        assert!(i <= n, "{i} at {n}");
                        let template = entry.as_ref();
                        assert_eq!(template.is_some(), filled, "{i} at {n}");
                        assert!(template.is_none_or(|t| Arc::ptr_eq(t, &first)));
                    }
                }
            }
        }
    }
}
