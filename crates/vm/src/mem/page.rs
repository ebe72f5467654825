//! Page frames.

use std::fmt;
use std::sync::Arc;

/// Page size in bytes (4 KiB, matching the Linux systems the paper ran on).
pub const PAGE_SIZE: usize = 4096;

/// log2 of [`PAGE_SIZE`].
pub const PAGE_SHIFT: u32 = 12;

/// Mask selecting the offset-within-page bits of an address.
pub const PAGE_MASK: u64 = (PAGE_SIZE as u64) - 1;

/// A reference-counted 4 KiB page frame.
///
/// Cloning a `PageFrame` is O(1) and shares the underlying bytes; frames
/// become *copy-on-write* when shared between address spaces after a
/// [`fork`](super::AddressSpace::fork).
#[derive(Clone)]
pub struct PageFrame {
    bytes: Arc<[u8; PAGE_SIZE]>,
}

impl PageFrame {
    /// A fresh zero-filled frame.
    pub fn zeroed() -> PageFrame {
        PageFrame {
            bytes: Arc::new([0u8; PAGE_SIZE]),
        }
    }

    /// A frame initialized from up to [`PAGE_SIZE`] bytes (the remainder is
    /// zero-filled).
    pub fn from_bytes(src: &[u8]) -> PageFrame {
        let mut buf = [0u8; PAGE_SIZE];
        let len = src.len().min(PAGE_SIZE);
        buf[..len].copy_from_slice(&src[..len]);
        PageFrame {
            bytes: Arc::new(buf),
        }
    }

    /// Read-only view of the page contents.
    #[inline]
    pub fn bytes(&self) -> &[u8; PAGE_SIZE] {
        &self.bytes
    }

    /// Whether this frame is shared with another address space (or another
    /// mapping) and would need a copy before writing.
    pub fn is_shared(&self) -> bool {
        Arc::strong_count(&self.bytes) > 1
    }

    /// Mutable access to the page contents only if no other address space
    /// holds this frame — the software TLB's write-hit check, which must
    /// never copy.
    #[inline]
    pub fn get_mut(&mut self) -> Option<&mut [u8; PAGE_SIZE]> {
        Arc::get_mut(&mut self.bytes)
    }

    /// Mutable access to the page contents, copying the frame first if it
    /// is shared. Returns `true` if a copy-on-write copy was performed.
    pub fn make_mut(&mut self) -> (&mut [u8; PAGE_SIZE], bool) {
        let copied = self.is_shared();
        // `Arc::make_mut` clones the inner array when the refcount > 1.
        (Arc::make_mut(&mut self.bytes), copied)
    }
}

impl fmt::Debug for PageFrame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PageFrame")
            .field("shared", &self.is_shared())
            .field("first_bytes", &&self.bytes[..8])
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_frame_is_zero() {
        let frame = PageFrame::zeroed();
        assert!(frame.bytes().iter().all(|&b| b == 0));
        assert!(!frame.is_shared());
    }

    #[test]
    fn from_bytes_pads_with_zeroes() {
        let frame = PageFrame::from_bytes(&[1, 2, 3]);
        assert_eq!(&frame.bytes()[..4], &[1, 2, 3, 0]);
    }

    #[test]
    fn clone_shares_until_write() {
        let mut a = PageFrame::from_bytes(&[9]);
        let b = a.clone();
        assert!(a.is_shared());
        let (bytes, copied) = a.make_mut();
        assert!(copied, "write to shared frame must copy");
        bytes[0] = 7;
        assert_eq!(a.bytes()[0], 7);
        assert_eq!(b.bytes()[0], 9, "sibling frame must keep original data");
        assert!(!a.is_shared());
    }

    #[test]
    fn exclusive_write_does_not_copy() {
        let mut a = PageFrame::zeroed();
        let (_, copied) = a.make_mut();
        assert!(!copied);
    }
}
