//! Little-endian wire primitives shared by every codec in this crate.
//!
//! Deliberately minimal: fixed-width integers, length-prefixed byte
//! strings, count-prefixed lists, and a bounds-checked [`Reader`].
//! Every multi-byte integer is little-endian; every length or count
//! prefix is a `u32`. Decoding never panics and never reserves memory
//! from a count it has not checked against the bytes left
//! ([`Reader::vec`]) — truncated or malformed input surfaces as
//! [`CodecError`].

use std::fmt;

/// A malformed or truncated byte stream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended before the value being decoded.
    Truncated {
        /// What was being decoded.
        what: &'static str,
    },
    /// A tag/discriminant byte had no defined meaning.
    BadTag {
        /// What was being decoded.
        what: &'static str,
        /// The offending tag value.
        tag: u64,
    },
    /// A length-prefixed string was not valid UTF-8.
    BadUtf8,
    /// The log's magic or version did not match this build.
    BadHeader {
        /// Human-readable description.
        detail: String,
    },
    /// A container frame is structurally wrong (CRC mismatch, unknown
    /// kind, bytes after the end frame).
    Corrupt {
        /// Byte offset of the offending frame.
        offset: usize,
        /// Human-readable description.
        detail: String,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated { what } => write!(f, "truncated log while decoding {what}"),
            CodecError::BadTag { what, tag } => write!(f, "bad {what} tag {tag}"),
            CodecError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
            CodecError::BadHeader { detail } => write!(f, "bad log header: {detail}"),
            CodecError::Corrupt { offset, detail } => {
                write!(f, "corrupt at byte {offset}: {detail}")
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// Appends a `u8`.
pub fn put_u8(out: &mut Vec<u8>, value: u8) {
    out.push(value);
}

/// Appends a `u16`, little-endian.
pub fn put_u16(out: &mut Vec<u8>, value: u16) {
    out.extend_from_slice(&value.to_le_bytes());
}

/// Appends a `u32`, little-endian.
pub fn put_u32(out: &mut Vec<u8>, value: u32) {
    out.extend_from_slice(&value.to_le_bytes());
}

/// Appends a `u64`, little-endian.
pub fn put_u64(out: &mut Vec<u8>, value: u64) {
    out.extend_from_slice(&value.to_le_bytes());
}

/// Appends an `i64`, little-endian.
pub fn put_i64(out: &mut Vec<u8>, value: i64) {
    out.extend_from_slice(&value.to_le_bytes());
}

/// Appends a `bool` as one byte.
pub fn put_bool(out: &mut Vec<u8>, value: bool) {
    out.push(u8::from(value));
}

/// Appends a `u32` length prefix followed by the bytes.
pub fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_u32(out, u32::try_from(bytes.len()).expect("field under 4 GiB"));
    out.extend_from_slice(bytes);
}

/// Appends a length-prefixed UTF-8 string.
pub fn put_str(out: &mut Vec<u8>, value: &str) {
    put_bytes(out, value.as_bytes());
}

/// Appends a `u32` count, then each item with `elem`: the list
/// [`Reader::vec`] reads back.
pub fn put_vec<T>(out: &mut Vec<u8>, items: &[T], mut elem: impl FnMut(&mut Vec<u8>, &T)) {
    put_u32(
        out,
        u32::try_from(items.len()).expect("list under 4 Gi items"),
    );
    for item in items {
        elem(out, item);
    }
}

/// Appends an `Option<u64>` as a presence byte plus the value.
pub fn put_opt_u64(out: &mut Vec<u8>, value: Option<u64>) {
    match value {
        Some(value) => {
            put_u8(out, 1);
            put_u64(out, value);
        }
        None => put_u8(out, 0),
    }
}

/// Bounds-checked cursor over an encoded byte stream.
#[derive(Clone, Copy, Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wraps a byte slice.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether the stream is fully consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// The unconsumed tail of the stream (for bridging to external
    /// cursor-based decoders).
    pub fn tail(&self) -> &'a [u8] {
        &self.buf[self.pos..]
    }

    /// Advances past `len` bytes an external decoder consumed.
    pub fn skip(&mut self, len: usize, what: &'static str) -> Result<(), CodecError> {
        self.take(len, what).map(|_| ())
    }

    fn take(&mut self, len: usize, what: &'static str) -> Result<&'a [u8], CodecError> {
        if self.remaining() < len {
            return Err(CodecError::Truncated { what });
        }
        let chunk = &self.buf[self.pos..self.pos + len];
        self.pos += len;
        Ok(chunk)
    }

    fn array<const N: usize>(&mut self, what: &'static str) -> Result<[u8; N], CodecError> {
        let chunk = self.take(N, what)?;
        Ok(chunk.try_into().expect("take returned N bytes"))
    }

    /// Reads a `u8`.
    pub fn u8(&mut self, what: &'static str) -> Result<u8, CodecError> {
        Ok(self.take(1, what)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self, what: &'static str) -> Result<u16, CodecError> {
        self.array(what).map(u16::from_le_bytes)
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self, what: &'static str) -> Result<u32, CodecError> {
        self.array(what).map(u32::from_le_bytes)
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self, what: &'static str) -> Result<u64, CodecError> {
        self.array(what).map(u64::from_le_bytes)
    }

    /// Reads a little-endian `i64`.
    pub fn i64(&mut self, what: &'static str) -> Result<i64, CodecError> {
        self.array(what).map(i64::from_le_bytes)
    }

    /// Reads a `bool` byte (0 or 1; anything else is a bad tag).
    pub fn bool(&mut self, what: &'static str) -> Result<bool, CodecError> {
        match self.u8(what)? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(CodecError::BadTag {
                what,
                tag: tag as u64,
            }),
        }
    }

    /// Reads a `u32`-length-prefixed byte string.
    pub fn bytes(&mut self, what: &'static str) -> Result<&'a [u8], CodecError> {
        let len = self.u32(what)? as usize;
        self.take(len, what)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self, what: &'static str) -> Result<String, CodecError> {
        let bytes = self.bytes(what)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| CodecError::BadUtf8)
    }

    /// Reads a `u32` count, then that many elements with `elem`.
    ///
    /// `min_elem_bytes` (at least 1) is the shortest encoding of one
    /// element. A count that cannot fit in the bytes left is
    /// [`CodecError::Truncated`] *before* anything is reserved, so the
    /// allocation is bounded by the input's own length — a flipped bit
    /// in a count field can never ask the allocator for gigabytes.
    pub fn vec<T>(
        &mut self,
        what: &'static str,
        min_elem_bytes: usize,
        mut elem: impl FnMut(&mut Reader<'a>) -> Result<T, CodecError>,
    ) -> Result<Vec<T>, CodecError> {
        let count = self.u32(what)? as usize;
        let fits = count
            .checked_mul(min_elem_bytes.max(1))
            .is_some_and(|need| need <= self.remaining());
        if !fits {
            return Err(CodecError::Truncated { what });
        }
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            out.push(elem(self)?);
        }
        Ok(out)
    }

    /// Reads an `Option<u64>` written by [`put_opt_u64`].
    pub fn opt_u64(&mut self, what: &'static str) -> Result<Option<u64>, CodecError> {
        match self.u8(what)? {
            0 => Ok(None),
            1 => Ok(Some(self.u64(what)?)),
            tag => Err(CodecError::BadTag {
                what,
                tag: tag as u64,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut out = Vec::new();
        put_u8(&mut out, 7);
        put_u16(&mut out, 0xBEEF);
        put_u32(&mut out, 0xDEAD_BEEF);
        put_u64(&mut out, u64::MAX - 3);
        put_i64(&mut out, -42);
        put_bool(&mut out, true);
        put_str(&mut out, "gcc");
        put_opt_u64(&mut out, Some(99));
        put_opt_u64(&mut out, None);

        let mut reader = Reader::new(&out);
        assert_eq!(reader.u8("a").unwrap(), 7);
        assert_eq!(reader.u16("b").unwrap(), 0xBEEF);
        assert_eq!(reader.u32("c").unwrap(), 0xDEAD_BEEF);
        assert_eq!(reader.u64("d").unwrap(), u64::MAX - 3);
        assert_eq!(reader.i64("e").unwrap(), -42);
        assert!(reader.bool("f").unwrap());
        assert_eq!(reader.str("g").unwrap(), "gcc");
        assert_eq!(reader.opt_u64("h").unwrap(), Some(99));
        assert_eq!(reader.opt_u64("i").unwrap(), None);
        assert!(reader.is_empty());
    }

    #[test]
    fn truncation_and_bad_tags_are_typed_errors() {
        let mut reader = Reader::new(&[1, 2]);
        assert_eq!(
            reader.u32("len"),
            Err(CodecError::Truncated { what: "len" })
        );
        let mut reader = Reader::new(&[9]);
        assert_eq!(
            reader.bool("flag"),
            Err(CodecError::BadTag {
                what: "flag",
                tag: 9
            })
        );
        // A string whose length prefix overruns the buffer.
        let mut out = Vec::new();
        put_u32(&mut out, 100);
        out.push(b'x');
        let mut reader = Reader::new(&out);
        assert_eq!(
            reader.str("name"),
            Err(CodecError::Truncated { what: "name" })
        );
    }

    fn counted(count: u32, body: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        put_u32(&mut out, count);
        out.extend_from_slice(body);
        out
    }

    #[test]
    fn vec_checks_the_count_against_the_bytes_left_before_reserving() {
        let truncated = Err(CodecError::Truncated { what: "list" });
        let read =
            |bytes: &[u8], min: usize| Reader::new(bytes).vec("list", min, |r| r.u16("item"));

        // The 44 GB abort: a count the input cannot possibly hold.
        assert_eq!(read(&counted(u32::MAX, &[1, 0, 2, 0]), 2), truncated);
        // One element more than fits.
        assert_eq!(read(&counted(3, &[1, 0, 2, 0]), 2), truncated);
        // `count * min_elem_bytes` overflows usize.
        assert_eq!(read(&counted(u32::MAX, &[0; 8]), usize::MAX / 2), truncated);
        // Zero elements reads only the count.
        assert_eq!(read(&counted(0, &[9, 9]), 2), Ok(vec![]));
        // Exact fit consumes everything.
        let bytes = counted(2, &[1, 0, 2, 0]);
        let mut reader = Reader::new(&bytes);
        assert_eq!(reader.vec("list", 2, |r| r.u16("item")), Ok(vec![1, 2]));
        assert!(reader.is_empty());
        // An understated minimum still fails typed, in the element.
        assert_eq!(
            read(&counted(3, &[1, 0, 2, 0]), 1),
            Err(CodecError::Truncated { what: "item" })
        );
    }
}
