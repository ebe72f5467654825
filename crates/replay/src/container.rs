//! The one on-disk container every SuperPin artefact is written in.
//!
//! `.splog` recordings and `SPWAL` fleet journals differ only in what
//! their frames *mean*; the bytes around the payloads are the same, and
//! this module is the only code that knows them (all integers
//! little-endian):
//!
//! ```text
//! magic[5]             which kind of file (see [`FORMATS`])
//! version: u16         must equal the format's current version
//! frame*               kind: u8, len: u32, payload[len], crc32: u32
//! ```
//!
//! The CRC covers `kind`, `len` and the payload. Kinds run from 1 to
//! the length of the format's kind table; one of them is the END kind
//! (empty payload, nothing may follow it), which distinguishes a
//! complete file from one that merely stops at a frame boundary.
//!
//! Reading goes through [`walk`], which never hard-fails past the
//! preamble: it borrows every intact frame up to the first torn or
//! corrupt one and reports where and how the file stops being readable
//! ([`FrameDamage`]). The typed decoder [`ReplayLog::decode`] demands a
//! [`Walk::complete`] walk and then decodes payloads; the journal
//! reader ([`salvage`]) layers commit markers on top; `spin-replay
//! fsck` prints the same walk.
//!
//! [`ReplayLog::decode`]: crate::ReplayLog::decode
//! [`salvage`]: crate::wal::salvage

use crate::wire::{from_bytes, CodecError, Reader, Wire};

/// Bytes before the first frame (magic + version).
pub const PREAMBLE_LEN: usize = 7;

/// Per-frame overhead: kind (1) + length (4) + CRC (4).
pub const FRAME_OVERHEAD: usize = 9;

/// Frame kind shared by all formats: the header, always first.
pub const KIND_HEADER: u8 = 0x01;

/// What distinguishes one kind of container file from another — all
/// the walker needs to know.
#[derive(Debug, PartialEq, Eq)]
pub struct Format {
    /// Name used in messages.
    pub name: &'static str,
    /// File magic.
    pub magic: &'static [u8; 5],
    /// The only version this build reads and writes.
    pub version: u16,
    /// Kind names: frame kind `k` (1-based) is `kinds[k - 1]`, and
    /// anything outside the table is corruption.
    pub kinds: &'static [&'static str],
    /// The END kind: empty payload, nothing may follow it.
    pub end: u8,
}

/// A single-run recording: one recipe, the decision stream, the final
/// report (see [`crate::log`]).
pub const SPLOG: Format = Format {
    name: "SPLOG",
    magic: b"SPLOG",
    version: 3,
    kinds: &["header", "event", "report", "end"],
    end: 0x04,
};

/// A fleet journal: one recipe, then record/commit pairs (see
/// [`crate::wal`] and [`crate::fleet`]).
pub const SPWAL: Format = Format {
    name: "SPWAL",
    magic: b"SPWAL",
    version: 2,
    kinds: &["header", "record", "commit", "end"],
    end: 0x04,
};

/// Every format this build knows.
pub const FORMATS: [&Format; 2] = [&SPLOG, &SPWAL];

impl Format {
    /// The format whose magic `bytes` start with.
    pub fn sniff(bytes: &[u8]) -> Option<&'static Format> {
        FORMATS
            .into_iter()
            .find(|format| bytes.starts_with(format.magic))
    }

    /// A fresh file: magic and version, ready for frames.
    pub fn preamble(&self) -> Vec<u8> {
        let mut out = self.magic.to_vec();
        self.version.put(&mut out);
        out
    }
}

const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut index = 0;
    while index < 256 {
        let mut crc = index as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[index] = crc;
        index += 1;
    }
    table
};

/// IEEE CRC-32 (the zlib/PNG polynomial) over `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = u32::MAX;
    for &byte in bytes {
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ u32::from(byte)) & 0xFF) as usize];
    }
    !crc
}

/// Appends one whole frame — kind, length, payload, CRC over the
/// preceding three — to `out`.
pub fn encode_frame(out: &mut Vec<u8>, kind: u8, payload: &[u8]) {
    let start = out.len();
    out.push(kind);
    u32::try_from(payload.len())
        .expect("frame under 4 GiB")
        .put(out);
    out.extend_from_slice(payload);
    crc32(&out[start..]).put(out);
}

/// Where and how a framed file stops being readable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FrameDamage {
    /// The file ends mid-frame — the classic kill-mid-write tear.
    Torn {
        /// Byte offset of the torn frame's first byte.
        offset: usize,
    },
    /// A frame is structurally wrong (CRC mismatch, unknown kind,
    /// bytes after the end frame).
    Corrupt {
        /// Byte offset of the offending frame.
        offset: usize,
        /// Human-readable description.
        detail: String,
    },
}

impl std::fmt::Display for FrameDamage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameDamage::Torn { offset } => {
                write!(f, "torn frame at byte {offset} (file ends mid-frame)")
            }
            FrameDamage::Corrupt { offset, detail } => {
                write!(f, "corrupt at byte {offset}: {detail}")
            }
        }
    }
}

impl From<FrameDamage> for CodecError {
    fn from(damage: FrameDamage) -> CodecError {
        match damage {
            FrameDamage::Torn { .. } => CodecError::Truncated { what: "frame" },
            FrameDamage::Corrupt { offset, detail } => CodecError::Corrupt { offset, detail },
        }
    }
}

/// One intact frame, borrowed from the file's bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Frame<'a> {
    /// Frame kind byte.
    pub kind: u8,
    /// Frame payload.
    pub payload: &'a [u8],
    /// Byte offset of the frame's first byte in the file.
    pub offset: usize,
}

impl Frame<'_> {
    /// Byte offset just past the frame's CRC.
    pub fn end(&self) -> usize {
        self.offset + self.payload.len() + FRAME_OVERHEAD
    }
}

/// Everything structurally intact in a (possibly damaged) file.
#[derive(Clone, Debug)]
pub struct Walk<'a> {
    /// Every intact frame, in file order, up to the first damage.
    pub frames: Vec<Frame<'a>>,
    /// Byte offset just past the last intact frame.
    pub valid_len: usize,
    /// The first damage found, if any.
    pub damage: Option<FrameDamage>,
    /// The file ends with an END frame and no trailing bytes.
    pub clean_end: bool,
}

/// Reads the frame starting at `offset`.
fn read_frame<'a>(
    bytes: &'a [u8],
    offset: usize,
    format: &Format,
) -> Result<Frame<'a>, FrameDamage> {
    let torn = FrameDamage::Torn { offset };
    let corrupt = |detail: String| FrameDamage::Corrupt { offset, detail };
    let mut reader = Reader::new(&bytes[offset..]);
    if reader.remaining() < FRAME_OVERHEAD {
        return Err(torn);
    }
    let Ok(kind) = reader.field::<u8>("frame kind") else {
        return Err(torn);
    };
    if kind == 0 || usize::from(kind) > format.kinds.len() {
        return Err(corrupt(format!("unknown frame kind 0x{kind:02x}")));
    }
    // `bytes` is the u32 length and the payload it promises.
    let (Ok(payload), Ok(stored)) = (reader.bytes(), reader.field::<u32>("frame crc")) else {
        return Err(torn);
    };
    let frame = Frame {
        kind,
        payload,
        offset,
    };
    if crc32(&bytes[offset..frame.end() - 4]) != stored {
        return Err(corrupt("frame CRC mismatch".to_owned()));
    }
    Ok(frame)
}

/// Walks a container frame by frame, stopping at the first torn or
/// corrupt frame instead of hard-failing. Borrows payloads, never
/// panics on arbitrary input, and allocates nothing sized by a length
/// field.
///
/// # Errors
///
/// [`CodecError::BadHeader`] only when the preamble itself is unusable
/// (too short, wrong magic, another version) — there is nothing to
/// salvage without it.
pub fn walk<'a>(bytes: &'a [u8], format: &Format) -> Result<Walk<'a>, CodecError> {
    let bad_header = |detail: String| CodecError::BadHeader { detail };
    let name = format.name;
    if bytes.len() < PREAMBLE_LEN {
        return Err(bad_header(format!(
            "{} bytes is shorter than the {PREAMBLE_LEN}-byte {name} preamble",
            bytes.len()
        )));
    }
    let (magic, version) = bytes[..PREAMBLE_LEN].split_at(format.magic.len());
    if magic != format.magic {
        return Err(bad_header(format!(
            "magic \"{}\" is not {name}'s \"{}\" — if an older build wrote this file, re-record",
            magic.escape_ascii(),
            format.magic.escape_ascii()
        )));
    }
    let version: u16 = from_bytes(version, "version")?;
    if version != format.version {
        return Err(bad_header(format!(
            "{name} version {version}, this build reads {} — re-record",
            format.version
        )));
    }

    let mut out = Walk {
        frames: Vec::new(),
        valid_len: PREAMBLE_LEN,
        damage: None,
        clean_end: false,
    };
    while out.valid_len < bytes.len() {
        if out.clean_end {
            out.clean_end = false;
            out.damage = Some(FrameDamage::Corrupt {
                offset: out.valid_len,
                detail: "bytes after the end frame".to_owned(),
            });
            break;
        }
        match read_frame(bytes, out.valid_len, format) {
            Ok(frame) => {
                out.clean_end = frame.kind == format.end;
                out.valid_len = frame.end();
                out.frames.push(frame);
            }
            Err(damage) => {
                out.damage = Some(damage);
                break;
            }
        }
    }
    Ok(out)
}

impl Walk<'_> {
    /// Demands a whole file: no damage, sealed with the END frame.
    ///
    /// # Errors
    ///
    /// The damage as a [`CodecError`], or `Truncated` when the file
    /// stops cleanly at a frame boundary without an END frame.
    pub fn complete(&self) -> Result<(), CodecError> {
        match &self.damage {
            Some(damage) => Err(damage.clone().into()),
            None if !self.clean_end => Err(CodecError::Truncated { what: "end frame" }),
            None => Ok(()),
        }
    }

    /// Intact frames by kind, in the format's own words:
    /// `1 header, 357 event, 1 report, 1 end`.
    pub fn census(&self, format: &Format) -> String {
        let parts: Vec<String> = (1u8..)
            .zip(format.kinds)
            .map(|(kind, name)| {
                let count = self.frames.iter().filter(|f| f.kind == kind).count();
                format!("{count} {name}")
            })
            .collect();
        parts.join(", ")
    }

    /// Why the walk is not [`complete`](Walk::complete), in words an
    /// operator can act on; `None` when it is.
    pub fn diagnosis(&self) -> Option<String> {
        match &self.damage {
            Some(FrameDamage::Torn { offset }) => Some(format!(
                "truncated mid-frame at byte {offset} (salvageable: last good frame ends at \
                 byte {})",
                self.valid_len
            )),
            Some(corrupt @ FrameDamage::Corrupt { .. }) => Some(format!(
                "{corrupt} ({} byte(s) salvageable)",
                self.valid_len
            )),
            None if !self.clean_end => {
                Some("truncated (salvageable: end frame missing)".to_owned())
            }
            None => None,
        }
    }
}

/// Turns a typed decoder's failure into an actionable message by
/// walking the same bytes: "truncated …" when the file is a clean
/// prefix that simply stops (kill mid-write, `fsck --repair` helps),
/// "corrupt at byte X" when a frame is structurally wrong, and the raw
/// codec error when the frames are fine but a payload is not.
pub fn explain_decode_failure(bytes: &[u8], format: &Format, err: &CodecError) -> String {
    let Ok(walked) = walk(bytes, format) else {
        // Preamble-level: the codec error already says it all.
        return err.to_string();
    };
    let census = walked.census(format);
    match walked.diagnosis() {
        Some(diagnosis) => format!("{diagnosis}; intact: {census}"),
        None => format!("{err} (frames are structurally intact: {census})"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<u8> {
        let mut out = SPLOG.preamble();
        encode_frame(&mut out, KIND_HEADER, b"recipe");
        encode_frame(&mut out, 0x02, b"event-1");
        encode_frame(&mut out, 0x02, b"");
        encode_frame(&mut out, 0x03, b"report");
        encode_frame(&mut out, SPLOG.end, &[]);
        out
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The standard IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn walk_borrows_every_frame_of_a_whole_file() {
        let bytes = sample();
        let walked = walk(&bytes, &SPLOG).expect("preamble ok");
        assert!(walked.clean_end);
        assert_eq!(walked.damage, None);
        assert_eq!(walked.valid_len, bytes.len());
        assert_eq!(walked.complete(), Ok(()));
        assert_eq!(walked.diagnosis(), None);
        assert_eq!(walked.census(&SPLOG), "1 header, 2 event, 1 report, 1 end");
        let payloads: Vec<&[u8]> = walked.frames.iter().map(|f| f.payload).collect();
        assert_eq!(payloads, [&b"recipe"[..], b"event-1", b"", b"report", b""]);
        assert_eq!(walked.frames[1].offset, walked.frames[0].end());
    }

    #[test]
    fn preamble_faults_are_bad_headers() {
        let bytes = sample();
        for bad in [
            &bytes[..6],
            &[b"XPLOG", &bytes[5..]].concat(),
            &[b"SPLOG\x01\x00", &bytes[7..]].concat(),
        ] {
            assert!(matches!(
                walk(bad, &SPLOG),
                Err(CodecError::BadHeader { .. })
            ));
        }
        // Another format's file is a magic mismatch, not a walk.
        assert!(walk(&bytes, &SPWAL).is_err());
        assert_eq!(Format::sniff(&bytes), Some(&SPLOG));
        assert_eq!(Format::sniff(b"ELF"), None);
    }

    #[test]
    fn truncation_at_every_offset_tears_or_stops_clean() {
        let bytes = sample();
        let boundaries: Vec<usize> = walk(&bytes, &SPLOG)
            .expect("whole")
            .frames
            .iter()
            .map(Frame::end)
            .collect();
        for cut in PREAMBLE_LEN..bytes.len() {
            let walked = walk(&bytes[..cut], &SPLOG).expect("preamble intact");
            assert!(walked.valid_len <= cut);
            assert!(!walked.clean_end);
            assert!(walked.complete().is_err());
            if cut == PREAMBLE_LEN || boundaries.contains(&cut) {
                assert_eq!(walked.damage, None, "cut {cut} is a frame boundary");
                assert_eq!(walked.valid_len, cut);
            } else {
                assert_eq!(
                    walked.damage,
                    Some(FrameDamage::Torn {
                        offset: walked.valid_len
                    })
                );
            }
        }
    }

    #[test]
    fn every_flipped_bit_is_caught_at_or_before_its_frame() {
        let bytes = sample();
        for index in PREAMBLE_LEN..bytes.len() {
            for bit in 0..8 {
                let mut damaged = bytes.clone();
                damaged[index] ^= 1 << bit;
                let walked = walk(&damaged, &SPLOG).expect("preamble intact");
                let damage = walked.damage.clone().expect("a flip never walks clean");
                let (FrameDamage::Torn { offset } | FrameDamage::Corrupt { offset, .. }) = damage;
                assert!(offset <= index, "damage reported past the flipped byte");
                assert_eq!(offset, walked.valid_len);
                assert!(walked.complete().is_err());
            }
        }
    }

    #[test]
    fn unknown_kinds_and_trailing_bytes_are_corrupt() {
        let mut bytes = SPLOG.preamble();
        encode_frame(&mut bytes, 0x05, b"future");
        let walked = walk(&bytes, &SPLOG).expect("preamble ok");
        assert_eq!(
            walked.damage,
            Some(FrameDamage::Corrupt {
                offset: PREAMBLE_LEN,
                detail: "unknown frame kind 0x05".to_owned(),
            })
        );

        let mut bytes = sample();
        let sealed = bytes.len();
        bytes.push(0);
        let walked = walk(&bytes, &SPLOG).expect("preamble ok");
        assert!(!walked.clean_end);
        assert_eq!(walked.valid_len, sealed);
        assert!(
            matches!(walked.damage, Some(FrameDamage::Corrupt { offset, .. }) if offset == sealed)
        );
    }

    #[test]
    fn a_length_field_of_four_gigabytes_is_a_torn_frame() {
        let mut bytes = SPLOG.preamble();
        bytes.push(0x02);
        bytes.extend_from_slice(&[0xFF; 4]);
        bytes.extend_from_slice(&[0; 16]);
        let walked = walk(&bytes, &SPLOG).expect("preamble ok");
        assert_eq!(
            walked.damage,
            Some(FrameDamage::Torn {
                offset: PREAMBLE_LEN
            })
        );
        assert!(walked.frames.is_empty());
    }

    #[test]
    fn explanations_name_truncation_or_corruption() {
        let bytes = sample();
        let err = CodecError::Truncated { what: "frame" };
        let torn = explain_decode_failure(&bytes[..bytes.len() - 3], &SPLOG, &err);
        assert!(torn.starts_with("truncated mid-frame at byte"), "{torn}");
        assert!(torn.contains("2 event, 1 report, 0 end"), "{torn}");
        let unsealed = explain_decode_failure(&bytes[..bytes.len() - 9], &SPLOG, &err);
        assert!(unsealed.contains("end frame missing"), "{unsealed}");
        let mut flipped = bytes.clone();
        flipped[PREAMBLE_LEN + 6] ^= 1;
        let corrupt = explain_decode_failure(&flipped, &SPLOG, &err);
        assert!(
            corrupt.starts_with("corrupt at byte 7: frame CRC mismatch"),
            "{corrupt}"
        );
        let intact = explain_decode_failure(&bytes, &SPLOG, &CodecError::BadUtf8);
        assert!(intact.contains("structurally intact"), "{intact}");
    }
}
