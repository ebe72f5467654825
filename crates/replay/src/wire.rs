//! The one wire layout of every persisted type.
//!
//! A type reaches disk only through [`Wire`]: `put` appends its bytes,
//! `get` reads them back, and `MIN_BYTES` is the shortest encoding of a
//! value. Both directions come from one statement of the layout —
//! `wire_struct!` lists a struct's fields once, in wire order, and
//! `wire_enum!` gives each variant its tag and fields once — so what
//! replay reads is by construction what record wrote.
//!
//! The primitives are fixed: integers are little-endian, `usize` goes
//! out as a `u64`, an `f64` as its bit pattern, a `bool` as one byte,
//! an `Option` as a presence byte (0 or 1) before the value, strings
//! and byte strings as a `u32` length and the bytes, a `Vec` as a `u32`
//! count and the elements, a fixed array as its elements alone.
//! Decoding never panics and never reserves memory from a count it has
//! not checked against the bytes left ([`Reader::vec`]): malformed input
//! is a [`CodecError`] naming the innermost field that failed.
//!
//! **Adding a field** is one entry in the type's `wire_struct!` list
//! (or report table in [`crate::codec`]), at the place its bytes go —
//! both decode into a struct literal, so a field left out of its list
//! does not compile; adding a variant is one `wire_enum!` arm with an unused tag. Any
//! such change moves the bytes of every file that carries the type, so
//! it lands with a version bump of that file's [`Format`] (`SPLOG` for
//! run recordings, `SPWAL` for fleet journals), and old files are then
//! refused with "re-record" instead of being misread. A change that
//! leaves every byte where it was (a rename, a new JSON-only view)
//! needs no bump; the checked-in fixtures under `tests/golden` prove it.
//!
//! [`Format`]: crate::container::Format

use std::fmt;
use std::sync::Arc;

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

/// What a primitive's error says until [`Reader::field`] names it.
const UNNAMED: &str = "";

impl CodecError {
    /// Names an error a primitive raised; an inner field's name wins.
    fn named(self, name: &'static str) -> CodecError {
        match self {
            CodecError::Truncated { what: UNNAMED } => CodecError::Truncated { what: name },
            CodecError::BadTag { what: UNNAMED, tag } => CodecError::BadTag { what: name, tag },
            other => other,
        }
    }
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

/// A type with one wire layout.
pub trait Wire: Sized {
    /// The shortest encoding of any value: what [`Reader::vec`] checks
    /// a count against before reserving.
    const MIN_BYTES: usize;

    /// Appends the value's bytes.
    fn put(&self, out: &mut Vec<u8>);

    /// Reads a value back.
    ///
    /// # Errors
    ///
    /// [`CodecError`] on truncation, an unknown tag or bad UTF-8.
    fn get(r: &mut Reader<'_>) -> Result<Self, CodecError>;
}

/// A value's whole encoding.
pub(crate) fn to_bytes<T: Wire>(value: &T) -> Vec<u8> {
    let mut out = Vec::new();
    value.put(&mut out);
    out
}

/// Reads one value from the front of `bytes`, naming it `what` in an
/// error no inner field named.
///
/// # Errors
///
/// As [`Wire::get`].
pub(crate) fn from_bytes<T: Wire>(bytes: &[u8], what: &'static str) -> Result<T, CodecError> {
    Reader::new(bytes).field(what)
}

/// `T::MIN_BYTES` for the type of the field `project` borrows; lets
/// the layout macros size a field without restating its type.
pub(crate) const fn min_bytes_of<S, T: Wire>(_project: fn(&S) -> &T) -> usize {
    T::MIN_BYTES
}

/// The smallest entry of `sizes` (0 when empty).
pub(crate) const fn min_of(sizes: &[usize]) -> usize {
    let mut min = if sizes.is_empty() { 0 } else { usize::MAX };
    let mut index = 0;
    while index < sizes.len() {
        if sizes[index] < min {
            min = sizes[index];
        }
        index += 1;
    }
    min
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

    /// Reads a `T` named `name`: the name any error from inside it
    /// carries, unless a field within named it first.
    ///
    /// # Errors
    ///
    /// As [`Wire::get`].
    pub fn field<T: Wire>(&mut self, name: &'static str) -> Result<T, CodecError> {
        T::get(self).map_err(|err| err.named(name))
    }

    fn take(&mut self, len: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < len {
            return Err(CodecError::Truncated { what: UNNAMED });
        }
        let chunk = &self.buf[self.pos..self.pos + len];
        self.pos += len;
        Ok(chunk)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        let chunk = self.take(N)?;
        Ok(chunk.try_into().expect("take returned N bytes"))
    }

    /// Reads a `u32`-length-prefixed byte string, borrowed.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] when the length overruns the input.
    pub(crate) fn bytes(&mut self) -> Result<&'a [u8], CodecError> {
        let len = u32::get(self)? as usize;
        self.take(len)
    }

    /// Reads a `u32` count, then that many `T`s. A count that cannot
    /// fit in the bytes left at `T::MIN_BYTES` (at least 1) each is
    /// [`CodecError::Truncated`] *before* anything is reserved, so the
    /// allocation is bounded by the input's own length — a flipped bit
    /// in a count field can never ask the allocator for gigabytes.
    ///
    /// # Errors
    ///
    /// As [`Wire::get`].
    pub fn vec<T: Wire>(&mut self) -> Result<Vec<T>, CodecError> {
        let count = u32::get(self)? as usize;
        let fits = count
            .checked_mul(T::MIN_BYTES.max(1))
            .is_some_and(|need| need <= self.remaining());
        if !fits {
            return Err(CodecError::Truncated { what: UNNAMED });
        }
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            out.push(T::get(self)?);
        }
        Ok(out)
    }
}

/// Little-endian fixed-width integers.
macro_rules! wire_int {
    ($($int:ty),*) => {$(
        impl Wire for $int {
            const MIN_BYTES: usize = std::mem::size_of::<$int>();
            fn put(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
                r.array().map(<$int>::from_le_bytes)
            }
        }
    )*};
}

wire_int!(u8, u16, u32, u64, i64);

/// A `u64` on the wire (as is every count the recipes store).
impl Wire for usize {
    const MIN_BYTES: usize = u64::MIN_BYTES;
    fn put(&self, out: &mut Vec<u8>) {
        (*self as u64).put(out);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        u64::get(r).map(|value| value as usize)
    }
}

/// The IEEE bit pattern, as a `u64`.
impl Wire for f64 {
    const MIN_BYTES: usize = u64::MIN_BYTES;
    fn put(&self, out: &mut Vec<u8>) {
        self.to_bits().put(out);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        u64::get(r).map(f64::from_bits)
    }
}

/// One byte, 0 or 1; anything else is a bad tag.
impl Wire for bool {
    const MIN_BYTES: usize = 1;
    fn put(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match u8::get(r)? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(CodecError::BadTag {
                what: UNNAMED,
                tag: tag.into(),
            }),
        }
    }
}

/// Appends a `u32` length or count.
fn put_len(out: &mut Vec<u8>, len: usize) {
    u32::try_from(len).expect("under 4 Gi").put(out);
}

/// A `u32` length and the UTF-8 bytes.
impl Wire for String {
    const MIN_BYTES: usize = u32::MIN_BYTES;
    fn put(&self, out: &mut Vec<u8>) {
        put_len(out, self.len());
        out.extend_from_slice(self.as_bytes());
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let bytes = r.bytes()?;
        String::from_utf8(bytes.to_vec()).map_err(|_| CodecError::BadUtf8)
    }
}

/// A `u32` length and the bytes, copied in bulk.
impl Wire for Arc<[u8]> {
    const MIN_BYTES: usize = u32::MIN_BYTES;
    fn put(&self, out: &mut Vec<u8>) {
        put_len(out, self.len());
        out.extend_from_slice(self);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        r.bytes().map(Arc::from)
    }
}

/// A presence byte (0 or 1; anything else is a bad tag), then the value.
impl<T: Wire> Wire for Option<T> {
    const MIN_BYTES: usize = 1;
    fn put(&self, out: &mut Vec<u8>) {
        self.is_some().put(out);
        if let Some(value) = self {
            value.put(out);
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        if bool::get(r)? {
            T::get(r).map(Some)
        } else {
            Ok(None)
        }
    }
}

/// A `u32` count, then the elements ([`Reader::vec`]).
impl<T: Wire> Wire for Vec<T> {
    const MIN_BYTES: usize = u32::MIN_BYTES;
    fn put(&self, out: &mut Vec<u8>) {
        put_len(out, self.len());
        for item in self {
            item.put(out);
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        r.vec()
    }
}

/// The `N` elements alone: the length is part of the type.
impl<T: Wire, const N: usize> Wire for [T; N] {
    const MIN_BYTES: usize = N * T::MIN_BYTES;
    fn put(&self, out: &mut Vec<u8>) {
        for item in self {
            item.put(out);
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let mut items: [Option<T>; N] = std::array::from_fn(|_| None);
        for item in &mut items {
            *item = Some(T::get(r)?);
        }
        Ok(items.map(|item| item.expect("every element was read")))
    }
}

/// The two values in order.
impl<A: Wire, B: Wire> Wire for (A, B) {
    const MIN_BYTES: usize = A::MIN_BYTES + B::MIN_BYTES;
    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
        self.1.put(out);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok((A::get(r)?, B::get(r)?))
    }
}

/// Implements [`Wire`] for a struct from its fields, listed once in
/// wire order: `wire_struct!(MemDelta { addr, bytes })`. Each field
/// goes through its own type's `Wire`; a decode error names the field
/// as `Type.field`.
macro_rules! wire_struct {
    ($ty:ident { $($field:ident),* $(,)? }) => {
        impl $crate::wire::Wire for $ty {
            const MIN_BYTES: usize =
                0 $(+ $crate::wire::min_bytes_of(|v: &$ty| &v.$field))*;
            fn put(&self, out: &mut Vec<u8>) {
                $($crate::wire::Wire::put(&self.$field, out);)*
            }
            fn get(
                r: &mut $crate::wire::Reader<'_>,
            ) -> Result<Self, $crate::wire::CodecError> {
                Ok($ty {
                    $($field: r.field(concat!(stringify!($ty), ".", stringify!($field)))?,)*
                })
            }
        }
    };
}

/// Implements [`Wire`] for an enum: a `u8` tag, then the variant's
/// fields. Each arm states a variant's tag and its fields' wire types
/// once — `2 => Brk { brk: u64 }`, `2 => Nth(n: u64)` (named for its
/// binding), `0 => Inherit {}` — and `what` names the tag in a
/// [`CodecError::BadTag`].
macro_rules! wire_enum {
    ($ty:ident, $what:literal { $($tag:literal => $variant:ident $fields:tt),* $(,)? }) => {
        impl $crate::wire::Wire for $ty {
            const MIN_BYTES: usize =
                1 + $crate::wire::min_of(&[$($crate::wire::wire_enum!(@min $fields)),*]);
            fn put(&self, out: &mut Vec<u8>) {
                match self {
                    $($crate::wire::wire_enum!(@pat $ty $variant $fields) => {
                        out.push($tag);
                        $crate::wire::wire_enum!(@put out $fields);
                    })*
                }
            }
            fn get(
                r: &mut $crate::wire::Reader<'_>,
            ) -> Result<Self, $crate::wire::CodecError> {
                match r.field::<u8>($what)? {
                    $($tag => Ok($crate::wire::wire_enum!(@get r $ty $variant $fields)),)*
                    tag => Err($crate::wire::CodecError::BadTag { what: $what, tag: tag.into() }),
                }
            }
        }
    };
    (@min { $($f:ident: $t:ty),* }) => { 0 $(+ <$t as $crate::wire::Wire>::MIN_BYTES)* };
    (@min ( $($f:ident: $t:ty),* )) => { 0 $(+ <$t as $crate::wire::Wire>::MIN_BYTES)* };
    (@pat $ty:ident $variant:ident { $($f:ident: $t:ty),* }) => { $ty::$variant { $($f),* } };
    (@pat $ty:ident $variant:ident ( $($f:ident: $t:ty),* )) => { $ty::$variant ( $($f),* ) };
    (@put $out:ident { $($f:ident: $t:ty),* }) => { $($crate::wire::Wire::put($f, $out);)* };
    (@put $out:ident ( $($f:ident: $t:ty),* )) => { $($crate::wire::Wire::put($f, $out);)* };
    (@get $r:ident $ty:ident $variant:ident { $($f:ident: $t:ty),* }) => {
        $ty::$variant {
            $($f: $r.field::<$t>(concat!(stringify!($ty), "::", stringify!($variant), ".", stringify!($f)))?),*
        }
    };
    (@get $r:ident $ty:ident $variant:ident ( $($f:ident: $t:ty),* )) => {
        $ty::$variant (
            $($r.field::<$t>(concat!(stringify!($ty), "::", stringify!($variant), ".", stringify!($f)))?),*
        )
    };
}

/// A struct that a flat view (the report JSON, the replay verifier's
/// diff) reads as named values.
pub(crate) trait Fields<V> {
    /// Calls `visit` with each value's name and value, in wire order.
    fn each(&self, visit: &mut impl FnMut(&'static str, V));
}

/// Implements [`Wire`] and [`Fields`] for a struct from one table of
/// its fields, in wire order: `"name" => field` is a value the view
/// calls `name`, and `.. => field` a nested struct whose own table the
/// view flattens in place — `wire_table!(Report -> Value { "total" =>
/// total, .. => breakdown } then slices)`. The optional `then` field
/// goes on the wire last and is left out of the view. Decoding builds
/// a struct literal, so a field the table leaves out does not compile;
/// a decode error names `Type.field`.
macro_rules! wire_table {
    (
        $ty:ident -> $value:ident
        { $($name:tt => $field:ident),* $(,)? }
        $(then $tail:ident)?
    ) => {
        impl $crate::wire::Fields<$value> for $ty {
            fn each(&self, visit: &mut impl FnMut(&'static str, $value)) {
                $($crate::wire::wire_table!(@each visit $value $name self.$field);)*
            }
        }

        impl $crate::wire::Wire for $ty {
            const MIN_BYTES: usize = 0
                $(+ $crate::wire::min_bytes_of(|v: &$ty| &v.$field))*
                $(+ $crate::wire::min_bytes_of(|v: &$ty| &v.$tail))?;
            fn put(&self, out: &mut Vec<u8>) {
                $($crate::wire::Wire::put(&self.$field, out);)*
                $($crate::wire::Wire::put(&self.$tail, out);)?
            }
            fn get(
                r: &mut $crate::wire::Reader<'_>,
            ) -> Result<Self, $crate::wire::CodecError> {
                Ok($ty {
                    $($field: r.field(concat!(stringify!($ty), ".", stringify!($field)))?,)*
                    $($tail: r.field(concat!(stringify!($ty), ".", stringify!($tail)))?,)?
                })
            }
        }
    };
    (@each $visit:ident $value:ident .. $field:expr) => {
        $crate::wire::Fields::<$value>::each(&$field, $visit)
    };
    (@each $visit:ident $value:ident $name:literal $field:expr) => {
        $visit($name, $value::from($field))
    };
}

pub(crate) use {wire_enum, wire_struct, wire_table};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut out = Vec::new();
        7u8.put(&mut out);
        0xBEEFu16.put(&mut out);
        0xDEAD_BEEFu32.put(&mut out);
        (u64::MAX - 3).put(&mut out);
        (-42i64).put(&mut out);
        true.put(&mut out);
        "gcc".to_owned().put(&mut out);
        Some(99u64).put(&mut out);
        None::<u64>.put(&mut out);
        0.05f64.put(&mut out);
        [1u64, 2, 3].put(&mut out);

        let mut r = Reader::new(&out);
        assert_eq!(r.field::<u8>("a"), Ok(7));
        assert_eq!(r.field::<u16>("b"), Ok(0xBEEF));
        assert_eq!(r.field::<u32>("c"), Ok(0xDEAD_BEEF));
        assert_eq!(r.field::<u64>("d"), Ok(u64::MAX - 3));
        assert_eq!(r.field::<i64>("e"), Ok(-42));
        assert_eq!(r.field::<bool>("f"), Ok(true));
        assert_eq!(r.field::<String>("g").as_deref(), Ok("gcc"));
        assert_eq!(r.field::<Option<u64>>("h"), Ok(Some(99)));
        assert_eq!(r.field::<Option<u64>>("i"), Ok(None));
        assert_eq!(r.field::<f64>("j"), Ok(0.05));
        assert_eq!(r.field::<[u64; 3]>("k"), Ok([1, 2, 3]));
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn truncation_and_bad_tags_are_typed_errors_naming_the_field() {
        let mut r = Reader::new(&[1, 2]);
        assert_eq!(
            r.field::<u32>("len"),
            Err(CodecError::Truncated { what: "len" })
        );
        assert_eq!(
            from_bytes::<bool>(&[9], "flag"),
            Err(CodecError::BadTag {
                what: "flag",
                tag: 9
            })
        );
        assert_eq!(
            from_bytes::<Option<u8>>(&[2, 0], "presence"),
            Err(CodecError::BadTag {
                what: "presence",
                tag: 2
            })
        );
        // A string whose length prefix overruns the buffer.
        let bytes = [100, 0, 0, 0, b'x'];
        assert_eq!(
            from_bytes::<String>(&bytes, "name"),
            Err(CodecError::Truncated { what: "name" })
        );
        assert_eq!(
            from_bytes::<String>(&[1, 0, 0, 0, 0xFF], "name"),
            Err(CodecError::BadUtf8)
        );
    }

    #[test]
    fn an_inner_name_wins_over_an_outer_one() {
        struct Pair {
            a: u64,
            b: Vec<u32>,
        }
        wire_struct!(Pair { a, b });
        assert_eq!(Pair::MIN_BYTES, 8 + 4);
        let bytes = to_bytes(&Pair { a: 1, b: vec![2] });
        assert_eq!(
            from_bytes::<Pair>(&bytes[..10], "pair").map(drop),
            Err(CodecError::Truncated { what: "Pair.b" })
        );
        let pair: Pair = from_bytes(&bytes, "pair").expect("whole");
        assert_eq!((pair.a, pair.b), (1, vec![2]));
    }

    #[test]
    fn enums_state_tags_and_minimum_sizes_once() {
        #[derive(Debug, PartialEq)]
        enum Shape {
            Dot {},
            Line(u32),
            Box { w: u64, h: u64 },
        }
        wire_enum!(Shape, "shape" {
            0 => Dot {},
            1 => Line(len: u32),
            7 => Box { w: u64, h: u64 },
        });
        assert_eq!(Shape::MIN_BYTES, 1);
        for shape in [Shape::Dot {}, Shape::Line(3), Shape::Box { w: 4, h: 5 }] {
            assert_eq!(from_bytes(&to_bytes(&shape), "shape"), Ok(shape));
        }
        assert_eq!(to_bytes(&Shape::Line(3)), [1, 3, 0, 0, 0]);
        assert_eq!(
            from_bytes::<Shape>(&[2], "outer"),
            Err(CodecError::BadTag {
                what: "shape",
                tag: 2
            })
        );
        assert_eq!(
            from_bytes::<Shape>(&[7, 0], "outer"),
            Err(CodecError::Truncated {
                what: "Shape::Box.w"
            })
        );
    }

    fn counted(count: u32, body: &[u8]) -> Vec<u8> {
        let mut out = to_bytes(&count);
        out.extend_from_slice(body);
        out
    }

    #[test]
    fn vec_checks_the_count_against_the_bytes_left_before_reserving() {
        let truncated = Err(CodecError::Truncated { what: "list" });
        let read = |bytes: &[u8]| from_bytes::<Vec<u16>>(bytes, "list");

        // The 44 GB abort: a count the input cannot possibly hold.
        assert_eq!(read(&counted(u32::MAX, &[1, 0, 2, 0])), truncated);
        // One element more than fits.
        assert_eq!(read(&counted(3, &[1, 0, 2, 0])), truncated);
        // `count * MIN_BYTES` overflows usize.
        struct Huge;
        impl Wire for Huge {
            const MIN_BYTES: usize = usize::MAX / 2;
            fn put(&self, _: &mut Vec<u8>) {}
            fn get(_: &mut Reader<'_>) -> Result<Self, CodecError> {
                Ok(Huge)
            }
        }
        assert_eq!(
            from_bytes::<Vec<Huge>>(&counted(3, &[0; 8]), "list").map(drop),
            truncated.clone().map(drop)
        );
        // Zero elements reads only the count.
        assert_eq!(read(&counted(0, &[9, 9])), Ok(vec![]));
        // Exact fit consumes everything.
        let bytes = counted(2, &[1, 0, 2, 0]);
        let mut r = Reader::new(&bytes);
        assert_eq!(r.field::<Vec<u16>>("list"), Ok(vec![1, 2]));
        assert_eq!(r.remaining(), 0);
        // An understated minimum passes the count check, and still
        // fails typed, in the element.
        struct Loose;
        impl Wire for Loose {
            const MIN_BYTES: usize = 1;
            fn put(&self, _: &mut Vec<u8>) {}
            fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
                u16::get(r).map(|_| Loose)
            }
        }
        assert_eq!(
            from_bytes::<Vec<Loose>>(&counted(3, &[1, 0, 2, 0]), "list").map(drop),
            truncated.map(drop)
        );
    }
}
