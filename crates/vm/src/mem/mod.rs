//! Paged virtual memory with copy-on-write sharing.
//!
//! An [`AddressSpace`] maps page-aligned regions (code, data, stack, heap,
//! `mmap` areas, and SuperPin's *bubble*, see paper §4.1) onto 4 KiB page
//! frames. Frames are reference-counted; [`AddressSpace::fork`] shares
//! every frame with the child, and the first write to a shared frame takes
//! a counted copy-on-write fault — the dominant fork cost in SuperPin's
//! overhead breakdown (paper §6.3).

mod page;
mod space;

pub use page::{PageFrame, PAGE_MASK, PAGE_SHIFT, PAGE_SIZE};
pub use space::{AddressSpace, MemError, MemStats, Region, RegionKind};
