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

/// An immutable `pc → entry` map of compiled traces (see the module
/// docs).
pub struct TraceRegistry<T> {
    entries: EntryMap<Entry<T>>,
}

impl<T> TraceRegistry<T> {
    /// An empty registry.
    pub fn new() -> TraceRegistry<T> {
        TraceRegistry {
            entries: EntryMap::default(),
        }
    }

    /// The entry published for the trace entered at `pc`, if any: both
    /// answers from one probe.
    pub fn entry(&self, pc: u64) -> Option<&Entry<T>> {
        self.entries.get(&pc)
    }

    /// The shareable compiled trace entered at `pc`, if one was
    /// published.
    pub fn template(&self, pc: u64) -> Option<&Arc<CompiledTrace<T>>> {
        self.entry(pc)?.as_ref()
    }

    /// Number of published traces.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing has been published.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Publishes `fresh` compiles, in order: a pc the registry lacks
    /// joins it, and a template fills an entry that has none. An entry
    /// is never replaced, so the first publisher wins. Returns the
    /// registry for the next epoch — `self` itself when nothing was
    /// added, a new one otherwise.
    pub fn publish(
        self: &Arc<Self>,
        fresh: impl IntoIterator<Item = (u64, Entry<T>)>,
    ) -> Arc<Self> {
        let mut next: Option<TraceRegistry<T>> = None;
        for (pc, template) in fresh {
            let adds = match next.as_ref().unwrap_or(self).entries.get(&pc) {
                None => true,
                Some(held) => held.is_none() && template.is_some(),
            };
            if adds {
                next.get_or_insert_with(|| TraceRegistry {
                    entries: self.entries.clone(),
                })
                .entries
                .insert(pc, template);
            }
        }
        next.map_or_else(|| Arc::clone(self), Arc::new)
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
}
