//! The memory bubble (paper §4.1).
//!
//! "SuperPin allocates a large bubble of anonymous memory at the start of
//! execution, which is used as a placeholder for the code cache
//! structures. Then, immediately after spawning each slice, that memory
//! is deallocated. Thus, any subsequent code cache allocations will occur
//! in the bubble memory, away from the memory allocated by the
//! application. This preserves precise memory mappings between the master
//! and slices."
//!
//! In this reproduction the per-slice code cache lives host-side, but the
//! transparency property the bubble protects — that application `mmap`s
//! land at identical addresses in the master and every slice — is real
//! and tested: while the bubble is mapped, the guest allocator cannot
//! place anything inside it, and a slice releases it on spawn so
//! instrumentation-side allocations (modelled as reservations within the
//! bubble range) never collide with replayed application mappings.

use superpin_vm::mem::{AddressSpace, MemError, RegionKind};

/// Base address of the bubble reservation.
pub const BUBBLE_BASE: u64 = 0x4000_0000;

/// Default bubble size (64 MiB of address space).
pub const BUBBLE_LEN: u64 = 64 << 20;

/// A reserved bubble of guest address space.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Bubble {
    base: u64,
    len: u64,
}

impl Bubble {
    /// Reserves the bubble in the master's address space at startup.
    ///
    /// # Errors
    ///
    /// Returns a memory error if the range is already occupied.
    pub fn reserve(mem: &mut AddressSpace) -> Result<Bubble, MemError> {
        Bubble::reserve_at(mem, BUBBLE_BASE, BUBBLE_LEN)
    }

    /// Reserves a bubble at an explicit location.
    ///
    /// # Errors
    ///
    /// Returns a memory error if the range is already occupied.
    pub fn reserve_at(mem: &mut AddressSpace, base: u64, len: u64) -> Result<Bubble, MemError> {
        mem.map_region(base, len, RegionKind::Bubble)?;
        Ok(Bubble { base, len })
    }

    /// Base address.
    #[cfg(test)]
    pub(crate) fn base(&self) -> u64 {
        self.base
    }

    /// Length in bytes.
    #[cfg(test)]
    pub(crate) fn len(&self) -> u64 {
        self.len
    }

    /// Whether the bubble is zero-sized (never true for reserved bubbles).
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether `addr` falls inside the bubble range.
    #[cfg(test)]
    pub(crate) fn contains(&self, addr: u64) -> bool {
        addr >= self.base && addr < self.base + self.len
    }

    /// Releases the bubble in a freshly spawned slice's address space,
    /// freeing the range for the slice's instrumentation allocations.
    ///
    /// # Errors
    ///
    /// Returns a memory error if the bubble is not mapped (double
    /// release).
    pub fn release(&self, mem: &mut AddressSpace) -> Result<(), MemError> {
        mem.unmap(self.base)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use superpin_vm::mem::AddressSpace;

    #[test]
    fn bubble_excludes_application_mmaps() {
        let mut mem = AddressSpace::new(0x0100_0000);
        let bubble = Bubble::reserve(&mut mem).expect("reserve");
        // A hinted mmap inside the bubble fails while it is mapped.
        assert!(mem.map_anonymous(Some(BUBBLE_BASE), 4096).is_err());
        // Hint-less mmaps never land inside the bubble.
        for _ in 0..8 {
            let addr = mem.map_anonymous(None, 1 << 20).expect("mmap");
            assert!(!bubble.contains(addr), "app mmap {addr:#x} inside bubble");
        }
    }

    #[test]
    fn release_frees_the_range_in_a_slice() {
        let mut master = AddressSpace::new(0x0100_0000);
        let bubble = Bubble::reserve(&mut master).expect("reserve");
        let mut slice = master.fork();
        bubble.release(&mut slice).expect("release");
        // Double release is an error.
        assert!(bubble.release(&mut slice).is_err());
        // Slice-side instrumentation allocations fit in the bubble...
        let addr = slice
            .map_anonymous(Some(BUBBLE_BASE), 1 << 20)
            .expect("cache alloc");
        assert_eq!(addr, BUBBLE_BASE);
        // ...while the master still holds the reservation.
        assert!(master.is_mapped(BUBBLE_BASE));
    }

    #[test]
    fn mappings_stay_congruent_between_master_and_slice() {
        let mut master = AddressSpace::new(0x0100_0000);
        let bubble = Bubble::reserve(&mut master).expect("reserve");
        // Master maps an application region while the bubble is live.
        let app = master.map_anonymous(None, 8192).expect("app mmap");
        let mut slice = master.fork();
        bubble.release(&mut slice).expect("release");
        // Replaying a later master mmap at the same hint succeeds in the
        // slice: precise memory mappings preserved.
        let later = master.map_anonymous(None, 4096).expect("later mmap");
        let replayed = slice.map_anonymous(Some(later), 4096).expect("replay");
        assert_eq!(later, replayed);
        assert!(slice.is_mapped(app));
    }

    #[test]
    fn contains_bounds() {
        let mut mem = AddressSpace::new(0x0100_0000);
        let bubble = Bubble::reserve_at(&mut mem, 0x5000_0000, 4096).expect("reserve");
        assert!(bubble.contains(0x5000_0000));
        assert!(bubble.contains(0x5000_0fff));
        assert!(!bubble.contains(0x5000_1000));
        assert_eq!(bubble.len(), 4096);
        assert!(!bubble.is_empty());
    }
}
