//! The decisions behind `spin-replay fsck`, shared by both containers:
//! is this a whole file, and what can be saved of a damaged one. The
//! frame walk ([`crate::container::walk`]) vouches for structure; the
//! typed readers here vouch for payloads.

use crate::container::{encode_frame, Format, Walk, SPLOG, SPWAL};
use crate::wire::CodecError;
use crate::{recover_fleet_wal, ReplayLog};

/// Only the journal is written incrementally: a missing end frame
/// means "still running" there, and "truncated" everywhere else.
pub fn is_journal(format: &Format) -> bool {
    *format == SPWAL
}

/// Reads `bytes` with `format`'s typed reader.
///
/// # Errors
///
/// Whatever keeps the file from being a whole recording or a
/// consistently committed journal.
pub fn decode_whole(format: &Format, bytes: &[u8]) -> Result<(), CodecError> {
    if *format == SPLOG {
        ReplayLog::decode(bytes).map(drop)
    } else {
        let unpaired = recover_fleet_wal(bytes)?.damage;
        unpaired.map_or(Ok(()), |damage| Err(damage.into()))
    }
}

/// The quarantine copy for a damaged file: everything up to the last
/// intact frame, sealed with an end frame when that makes a one-shot
/// file whole again (its header and body survived). A journal is never
/// sealed — its run did not finish — and resumes from the prefix as-is.
pub fn repair(format: &Format, bytes: &[u8], walked: &Walk<'_>) -> Vec<u8> {
    let mut salvaged = bytes[..walked.valid_len].to_vec();
    if !is_journal(format) {
        let unsealed = salvaged.len();
        encode_frame(&mut salvaged, format.end, &[]);
        if decode_whole(format, &salvaged).is_err() {
            salvaged.truncate(unsealed);
        }
    }
    salvaged
}
