//! The crash-durable fleet journal (`SPWAL`): a streaming writer and
//! commit markers over the shared framed container.
//!
//! A `.splog` is written in one shot at run end; a journal must
//! survive being killed mid-write. The bytes are
//! [`crate::container`]'s — CRC frames a reader can walk up to the
//! first tear — and this module adds what makes them a journal. Frame
//! kinds: `0x01` Header (format-specific, first), `0x02` Record (one
//! journalled unit), `0x03` Commit (a `u64` sequence number;
//! everything up to and including this frame is durable once it
//! reaches disk), `0x04` End (empty; the writer completed cleanly). A
//! Record is *not* durable until its Commit frame lands — the salvage
//! reader discards a trailing Record with no Commit, exactly like a
//! database WAL discards an unterminated transaction.
//!
//! Writing goes through [`WalWriter`], which appends frames
//! incrementally and applies the [`FsyncPolicy`] at commit markers.
//! The writer is also where the host-I/O fault sites live
//! (`io.wal.append`, `io.wal.fsync`, `io.disk.full`): an injected
//! append fault tears the frame mid-write — only a prefix reaches the
//! sink — so chaos runs exercise the exact failure the salvage reader
//! exists for.
//!
//! Reading goes through [`salvage`]: the container walk plus the
//! commit markers' meaning — the last committed sequence number and
//! the byte offset of the durable prefix ([`WalSalvage`]).

use std::path::Path;
use std::sync::{Arc, Mutex};

use superpin_fault::{FailPlan, FailpointRegistry, Site};

use crate::container::{
    encode_frame, walk, Frame, FrameDamage, FRAME_OVERHEAD, PREAMBLE_LEN, SPWAL,
};
use crate::wire::CodecError;

/// Frame kind: format-specific header, must come first.
pub const WAL_FRAME_HEADER: u8 = crate::container::KIND_HEADER;
/// Frame kind: one journalled record.
pub const WAL_FRAME_RECORD: u8 = 0x02;
/// Frame kind: commit marker (`u64` sequence number payload).
pub const WAL_FRAME_COMMIT: u8 = 0x03;
/// Frame kind: clean end of log (empty payload).
pub const WAL_FRAME_END: u8 = SPWAL.end;

/// When the writer flushes commits to stable storage.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// fsync after every commit marker (strongest durability).
    EveryCommit,
    /// fsync after every N commit markers.
    EveryN(u32),
    /// Never fsync mid-run (the OS flushes when it likes); the clean
    /// end-of-log still syncs.
    Off,
}

impl FsyncPolicy {
    /// Parses the CLI spelling: `commit`, `off`, or `every=N` (N ≥ 1).
    pub fn parse(text: &str) -> Option<FsyncPolicy> {
        match text {
            "commit" => Some(FsyncPolicy::EveryCommit),
            "off" => Some(FsyncPolicy::Off),
            _ => text
                .strip_prefix("every=")
                .and_then(|n| n.parse().ok())
                .filter(|&n| n > 0)
                .map(FsyncPolicy::EveryN),
        }
    }
}

impl std::fmt::Display for FsyncPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FsyncPolicy::EveryCommit => write!(f, "commit"),
            FsyncPolicy::EveryN(n) => write!(f, "every={n}"),
            FsyncPolicy::Off => write!(f, "off"),
        }
    }
}

/// Which WAL operation failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WalOp {
    /// Appending a frame.
    Append,
    /// Flushing commits to stable storage.
    Fsync,
}

/// Why a WAL operation failed.
#[derive(Debug)]
pub enum WalCause {
    /// A chaos fault site fired (deterministic injection).
    Injected(Site),
    /// A real host I/O error.
    Io(std::io::Error),
}

/// A WAL write failed. Carries enough to count and describe the
/// failure; callers degrade to non-durable rather than aborting.
#[derive(Debug)]
pub struct WalIoError {
    /// The operation that failed.
    pub op: WalOp,
    /// Frame index (appends) or commit index (fsyncs) at the failure.
    pub at: u64,
    /// Injected fault or real I/O error.
    pub cause: WalCause,
}

impl std::fmt::Display for WalIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (op, unit) = match self.op {
            WalOp::Append => ("append", "frame"),
            WalOp::Fsync => ("fsync", "commit"),
        };
        match &self.cause {
            WalCause::Injected(site) => {
                write!(f, "wal {op} at {unit} {}: injected {site} fault", self.at)
            }
            WalCause::Io(err) => write!(f, "wal {op} at {unit} {}: {err}", self.at),
        }
    }
}

impl std::error::Error for WalIoError {}

/// Where WAL bytes go. `std::fs::File` is the real sink; [`MemSink`]
/// backs the in-process kill-anywhere tests.
pub trait WalSink: Send {
    /// Appends `bytes` at the end of the log.
    fn write_all(&mut self, bytes: &[u8]) -> std::io::Result<()>;
    /// Flushes everything appended so far to stable storage.
    fn sync(&mut self) -> std::io::Result<()>;
}

impl WalSink for std::fs::File {
    fn write_all(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        std::io::Write::write_all(self, bytes)
    }

    fn sync(&mut self) -> std::io::Result<()> {
        self.sync_data()
    }
}

/// A shared in-memory sink: clone it, hand one clone to the writer,
/// and read the accumulated bytes from the other — the moral
/// equivalent of re-reading the file after a kill.
#[derive(Clone, Debug, Default)]
pub struct MemSink {
    buf: Arc<Mutex<Vec<u8>>>,
}

impl MemSink {
    /// An empty sink.
    pub fn new() -> MemSink {
        MemSink::default()
    }

    /// A sink pre-loaded with `bytes` (resuming an existing log).
    pub fn from_bytes(bytes: Vec<u8>) -> MemSink {
        MemSink {
            buf: Arc::new(Mutex::new(bytes)),
        }
    }

    /// A snapshot of everything written so far.
    pub fn bytes(&self) -> Vec<u8> {
        self.buf.lock().expect("wal buffer lock").clone()
    }
}

impl WalSink for MemSink {
    fn write_all(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.buf
            .lock()
            .expect("wal buffer lock")
            .extend_from_slice(bytes);
        Ok(())
    }

    fn sync(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Streaming WAL writer: appends CRC-framed records incrementally and
/// applies the fsync policy at commit markers.
pub struct WalWriter {
    sink: Box<dyn WalSink>,
    policy: FsyncPolicy,
    chaos: Option<FailpointRegistry>,
    frames: u64,
    commits: u64,
    syncs: u64,
    commits_since_sync: u32,
}

impl WalWriter {
    /// Opens a fresh log on `sink`: writes the magic and version, arms
    /// the host-I/O fault sites from `chaos` (if any).
    ///
    /// # Errors
    ///
    /// [`WalIoError`] if the preamble cannot be written.
    pub fn create(
        sink: Box<dyn WalSink>,
        policy: FsyncPolicy,
        chaos: Option<FailPlan>,
    ) -> Result<WalWriter, WalIoError> {
        let mut writer = WalWriter::resume(sink, policy, chaos, 0, 0);
        let preamble = SPWAL.preamble();
        writer.sink.write_all(&preamble).map_err(|err| WalIoError {
            op: WalOp::Append,
            at: 0,
            cause: WalCause::Io(err),
        })?;
        Ok(writer)
    }

    /// Continues an existing log whose sink is already positioned past
    /// the durable prefix. `frames` and `commits` prime the counters so
    /// fault-site keys continue where the interrupted process left off
    /// (rate-mode chaos schedules stay identical to an uninterrupted
    /// run).
    pub fn resume(
        sink: Box<dyn WalSink>,
        policy: FsyncPolicy,
        chaos: Option<FailPlan>,
        frames: u64,
        commits: u64,
    ) -> WalWriter {
        WalWriter {
            sink,
            policy,
            chaos: chaos.map(FailpointRegistry::new),
            frames,
            commits,
            syncs: 0,
            commits_since_sync: 0,
        }
    }

    /// Frames appended so far (header and commits included).
    #[cfg(test)]
    pub(crate) fn frames(&self) -> u64 {
        self.frames
    }

    /// Commit markers appended so far.
    #[cfg(test)]
    pub(crate) fn commits(&self) -> u64 {
        self.commits
    }

    /// fsyncs performed so far.
    #[cfg(test)]
    pub(crate) fn syncs(&self) -> u64 {
        self.syncs
    }

    /// Encodes `batch` and hands it to the sink in one write. Each
    /// frame is keyed by its own frame number at the fault sites, in
    /// order: a full disk stops the batch at that frame's boundary, a
    /// torn append lets half of that frame through.
    fn write_frames(&mut self, batch: &[(u8, &[u8])]) -> Result<(), WalIoError> {
        let first = self.frames;
        let len = batch.iter().map(|(_, p)| p.len() + FRAME_OVERHEAD).sum();
        let mut bytes = Vec::with_capacity(len);
        for (frame, &(kind, payload)) in (first..).zip(batch) {
            let start = bytes.len();
            encode_frame(&mut bytes, kind, payload);
            let fault = self.chaos.as_ref().and_then(|registry| {
                if registry.fire(Site::IoDiskFull, frame) {
                    Some((Site::IoDiskFull, start))
                } else if registry.fire(Site::IoWalAppend, frame) {
                    Some((Site::IoWalAppend, start + (bytes.len() - start) / 2))
                } else {
                    None
                }
            });
            if let Some((site, cut)) = fault {
                if cut > 0 {
                    let _ = self.sink.write_all(&bytes[..cut]);
                }
                self.frames = frame;
                return Err(WalIoError {
                    op: WalOp::Append,
                    at: frame,
                    cause: WalCause::Injected(site),
                });
            }
        }
        self.sink.write_all(&bytes).map_err(|err| WalIoError {
            op: WalOp::Append,
            at: first,
            cause: WalCause::Io(err),
        })?;
        self.frames += batch.len() as u64;
        Ok(())
    }

    /// Appends one CRC-framed record.
    ///
    /// # Errors
    ///
    /// [`WalIoError`] on a real write failure or an injected
    /// `io.disk.full` (nothing written) / `io.wal.append` (a torn
    /// prefix of the frame reaches the sink) fault.
    pub fn append(&mut self, kind: u8, payload: &[u8]) -> Result<(), WalIoError> {
        self.write_frames(&[(kind, payload)])
    }

    /// Appends one CRC-framed record *and* its commit marker for `seq`
    /// in a single sink write — one syscall per round — then applies
    /// the fsync policy.
    ///
    /// # Errors
    ///
    /// [`WalIoError`] if the write or the policy-due fsync fails. An
    /// injected fault on the record frame leaves the sink as
    /// [`Self::append`] would (nothing, or a torn record prefix); a
    /// fault on the commit frame lands after the whole record frame is
    /// in the sink.
    pub fn append_committed(
        &mut self,
        kind: u8,
        payload: &[u8],
        seq: u64,
    ) -> Result<(), WalIoError> {
        self.write_frames(&[(kind, payload), (WAL_FRAME_COMMIT, &seq.to_le_bytes())])?;
        self.commits += 1;
        self.after_commit()
    }

    /// The fsync-policy step after a commit marker lands.
    fn after_commit(&mut self) -> Result<(), WalIoError> {
        let due = match self.policy {
            FsyncPolicy::EveryCommit => true,
            FsyncPolicy::EveryN(n) => {
                self.commits_since_sync += 1;
                if self.commits_since_sync >= n {
                    self.commits_since_sync = 0;
                    true
                } else {
                    false
                }
            }
            FsyncPolicy::Off => false,
        };
        if due {
            self.fsync()?;
        }
        Ok(())
    }

    /// Appends the clean end-of-log frame and syncs unconditionally.
    ///
    /// # Errors
    ///
    /// [`WalIoError`] if the append or final fsync fails.
    pub fn end(&mut self) -> Result<(), WalIoError> {
        self.append(WAL_FRAME_END, &[])?;
        self.fsync()
    }

    fn fsync(&mut self) -> Result<(), WalIoError> {
        let commit = self.commits;
        if let Some(registry) = &self.chaos {
            if registry.fire(Site::IoWalFsync, commit) {
                return Err(WalIoError {
                    op: WalOp::Fsync,
                    at: commit,
                    cause: WalCause::Injected(Site::IoWalFsync),
                });
            }
        }
        self.sink.sync().map_err(|err| WalIoError {
            op: WalOp::Fsync,
            at: commit,
            cause: WalCause::Io(err),
        })?;
        self.syncs += 1;
        Ok(())
    }
}

/// Everything a salvage walk recovered from a (possibly damaged) WAL.
#[derive(Clone, Debug)]
pub struct WalSalvage<'a> {
    /// Every intact frame, in log order, up to the first damage.
    pub frames: Vec<Frame<'a>>,
    /// Sequence number of the last intact commit marker.
    pub last_committed: Option<u64>,
    /// Number of intact commit markers.
    pub commits: u64,
    /// Byte offset just past the last intact commit marker (the
    /// durable prefix — truncate here before resuming). Equals the
    /// preamble length when nothing committed.
    pub committed_len: usize,
    /// Byte offset just past the last intact frame of any kind.
    pub valid_len: usize,
    /// The first damage found, if any.
    pub damage: Option<FrameDamage>,
    /// The log ends with a clean end frame and no trailing bytes.
    pub clean_end: bool,
}

/// Walks a WAL byte stream and reads its commit markers, stopping at
/// the first torn, corrupt or malformed-commit frame instead of
/// hard-failing. Never panics on arbitrary input.
///
/// # Errors
///
/// [`CodecError::BadHeader`] only when the preamble itself is unusable
/// (wrong magic, unknown version, or shorter than the preamble) —
/// there is nothing to salvage without it.
pub fn salvage(bytes: &[u8]) -> Result<WalSalvage<'_>, CodecError> {
    let walked = walk(bytes, &SPWAL)?;
    let mut out = WalSalvage {
        frames: walked.frames,
        last_committed: None,
        commits: 0,
        committed_len: PREAMBLE_LEN,
        valid_len: walked.valid_len,
        damage: walked.damage,
        clean_end: walked.clean_end,
    };
    for (index, frame) in out.frames.iter().enumerate() {
        if frame.kind != WAL_FRAME_COMMIT {
            continue;
        }
        match commit_sequence(frame.payload) {
            Some(seq) => {
                out.last_committed = Some(seq);
                out.commits += 1;
                out.committed_len = frame.end();
            }
            None => {
                out.damage = Some(FrameDamage::Corrupt {
                    offset: frame.offset,
                    detail: format!(
                        "commit frame payload is {} bytes, not 8",
                        frame.payload.len()
                    ),
                });
                out.valid_len = frame.offset;
                out.clean_end = false;
                out.frames.truncate(index);
                break;
            }
        }
    }
    Ok(out)
}

/// The round number a commit frame's payload holds: exactly one
/// little-endian `u64`, as [`WalWriter::append_committed`] writes it.
pub(crate) fn commit_sequence(payload: &[u8]) -> Option<u64> {
    payload.try_into().ok().map(u64::from_le_bytes)
}

/// Writes `bytes` to `path` atomically: everything lands in a
/// temporary sibling first, which is fsynced and then renamed over the
/// target — a crash at any point leaves either the old file or the new
/// one, never a half-written hybrid.
///
/// # Errors
///
/// Any underlying I/O error (the temporary file is removed on
/// failure where possible).
pub fn atomic_write(path: impl AsRef<Path>, bytes: &[u8]) -> std::io::Result<()> {
    let path = path.as_ref();
    let mut tmp_name = path.as_os_str().to_owned();
    tmp_name.push(format!(".tmp.{}", std::process::id()));
    let tmp = std::path::PathBuf::from(tmp_name);
    let result = (|| {
        let mut file = std::fs::File::create(&tmp)?;
        std::io::Write::write_all(&mut file, bytes)?;
        file.sync_data()?;
        drop(file);
        std::fs::rename(&tmp, path)
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use superpin_fault::SiteMode;

    #[test]
    fn fsync_policy_parses_and_renders() {
        assert_eq!(FsyncPolicy::parse("commit"), Some(FsyncPolicy::EveryCommit));
        assert_eq!(FsyncPolicy::parse("off"), Some(FsyncPolicy::Off));
        assert_eq!(FsyncPolicy::parse("every=8"), Some(FsyncPolicy::EveryN(8)));
        assert_eq!(FsyncPolicy::parse("every=0"), None);
        assert_eq!(FsyncPolicy::parse("sometimes"), None);
        for policy in [
            FsyncPolicy::EveryCommit,
            FsyncPolicy::EveryN(3),
            FsyncPolicy::Off,
        ] {
            assert_eq!(FsyncPolicy::parse(&policy.to_string()), Some(policy));
        }
    }

    fn write_sample(policy: FsyncPolicy) -> (MemSink, WalWriter) {
        let sink = MemSink::new();
        let mut writer =
            WalWriter::create(Box::new(sink.clone()), policy, None).expect("preamble writes");
        writer.append(WAL_FRAME_HEADER, b"recipe").expect("header");
        for round in 1..=3u64 {
            writer
                .append_committed(WAL_FRAME_RECORD, format!("round-{round}").as_bytes(), round)
                .expect("record + commit");
        }
        (sink, writer)
    }

    #[test]
    fn writer_and_salvage_round_trip() {
        let (sink, mut writer) = write_sample(FsyncPolicy::Off);
        writer.end().expect("end");
        let bytes = sink.bytes();
        let salvaged = salvage(&bytes).expect("preamble ok");
        assert!(salvaged.clean_end);
        assert_eq!(salvaged.damage, None);
        assert_eq!(salvaged.commits, 3);
        assert_eq!(salvaged.last_committed, Some(3));
        assert_eq!(salvaged.valid_len, bytes.len());
        // header + 3 × (record + commit) + end
        assert_eq!(salvaged.frames.len(), 8);
        assert_eq!(salvaged.frames[0].payload, b"recipe");
        // The committed prefix excludes the end frame.
        assert!(salvaged.committed_len < salvaged.valid_len);
    }

    #[test]
    fn a_v1_journal_is_a_bad_header() {
        // v1 round frames carried no outcome CRCs; there is no v1 reader.
        let (sink, _) = write_sample(FsyncPolicy::Off);
        let bytes = sink.bytes();
        let v1 = [&bytes[..5], &1u16.to_le_bytes(), &bytes[7..]].concat();
        let Err(CodecError::BadHeader { detail }) = salvage(&v1) else {
            panic!("a v1 journal must be a bad header");
        };
        assert_eq!(detail, "SPWAL version 1, this build reads 2 — re-record");
    }

    #[test]
    fn fsync_policy_controls_sync_count() {
        let (_, writer) = write_sample(FsyncPolicy::EveryCommit);
        assert_eq!(writer.syncs(), 3);
        let (_, writer) = write_sample(FsyncPolicy::EveryN(2));
        assert_eq!(writer.syncs(), 1);
        let (_, writer) = write_sample(FsyncPolicy::Off);
        assert_eq!(writer.syncs(), 0);
        // end() always syncs.
        let (_, mut writer) = write_sample(FsyncPolicy::Off);
        writer.end().expect("end");
        assert_eq!(writer.syncs(), 1);
    }

    #[test]
    fn salvage_truncation_at_every_offset_never_panics() {
        let (sink, mut writer) = write_sample(FsyncPolicy::Off);
        writer.end().expect("end");
        let bytes = sink.bytes();
        for len in 0..bytes.len() {
            let cut = &bytes[..len];
            match salvage(cut) {
                Ok(salvaged) => {
                    assert!(salvaged.valid_len <= len);
                    assert!(salvaged.committed_len <= salvaged.valid_len);
                    // A cut that is not exactly a frame boundary tears.
                    if salvaged.valid_len < len {
                        assert!(matches!(salvaged.damage, Some(FrameDamage::Torn { .. })));
                    }
                }
                Err(CodecError::BadHeader { .. }) => assert!(len < PREAMBLE_LEN),
                Err(other) => panic!("unexpected error: {other}"),
            }
        }
    }

    #[test]
    fn salvage_reports_corruption_offset() {
        let (sink, mut writer) = write_sample(FsyncPolicy::Off);
        writer.end().expect("end");
        let mut bytes = sink.bytes();
        // Flip one payload byte in the second record frame: everything
        // before it salvages, the damage names its offset.
        let victim = salvage(&bytes)
            .expect("clean")
            .frames
            .iter()
            .filter(|f| f.kind == WAL_FRAME_RECORD)
            .nth(1)
            .expect("two records")
            .offset;
        bytes[victim + 6] ^= 0xFF;
        let salvaged = salvage(&bytes).expect("preamble ok");
        assert_eq!(
            salvaged.damage,
            Some(FrameDamage::Corrupt {
                offset: victim,
                detail: "frame CRC mismatch".to_owned(),
            })
        );
        assert_eq!(salvaged.valid_len, victim);
        assert_eq!(salvaged.commits, 1);
        assert_eq!(salvaged.last_committed, Some(1));
    }

    #[test]
    fn injected_append_fault_tears_the_frame() {
        let plan = FailPlan::new(1, 0.0).with_site(Site::IoWalAppend, SiteMode::Nth(4));
        let sink = MemSink::new();
        let mut writer = WalWriter::create(Box::new(sink.clone()), FsyncPolicy::Off, Some(plan))
            .expect("create");
        writer.append(WAL_FRAME_HEADER, b"recipe").expect("header");
        writer
            .append_committed(WAL_FRAME_RECORD, b"round-1", 1)
            .expect("r1 + c1");
        let before = sink.bytes().len();
        let err = writer
            .append(WAL_FRAME_RECORD, b"round-2")
            .expect_err("nth(4) fires on the fourth append");
        assert_eq!(err.op, WalOp::Append);
        assert!(matches!(err.cause, WalCause::Injected(Site::IoWalAppend)));
        let bytes = sink.bytes();
        assert!(bytes.len() > before, "a torn prefix reached the sink");
        let salvaged = salvage(&bytes).expect("preamble ok");
        assert!(matches!(salvaged.damage, Some(FrameDamage::Torn { .. })));
        assert_eq!(salvaged.commits, 1);
        assert_eq!(salvaged.committed_len, before);
    }

    #[test]
    fn injected_disk_full_is_a_clean_boundary() {
        let plan = FailPlan::new(1, 0.0).with_site(Site::IoDiskFull, SiteMode::Nth(3));
        let sink = MemSink::new();
        let mut writer = WalWriter::create(Box::new(sink.clone()), FsyncPolicy::Off, Some(plan))
            .expect("create");
        writer.append(WAL_FRAME_HEADER, b"recipe").expect("header");
        let before = sink.bytes().len();
        let err = writer
            .append_committed(WAL_FRAME_RECORD, b"round-1", 1)
            .expect_err("disk full on the third frame, the commit marker");
        assert!(matches!(err.cause, WalCause::Injected(Site::IoDiskFull)));
        assert_eq!((err.at, writer.frames(), writer.commits()), (2, 2, 0));
        let bytes = sink.bytes();
        let record_frame = b"round-1".len() + FRAME_OVERHEAD;
        assert_eq!(
            bytes.len(),
            before + record_frame,
            "the batch stops at the full disk"
        );
        let salvaged = salvage(&bytes).expect("preamble ok");
        assert_eq!(salvaged.damage, None, "disk-full leaves a clean boundary");
        assert_eq!(salvaged.commits, 0);
    }

    #[test]
    fn injected_fsync_fault_surfaces() {
        let plan = FailPlan::new(1, 0.0).with_site(Site::IoWalFsync, SiteMode::Always);
        let sink = MemSink::new();
        let mut writer =
            WalWriter::create(Box::new(sink.clone()), FsyncPolicy::EveryCommit, Some(plan))
                .expect("create");
        let err = writer
            .append_committed(WAL_FRAME_RECORD, b"round-1", 1)
            .expect_err("fsync fails");
        assert_eq!(err.op, WalOp::Fsync);
        // The frames themselves landed; only durability is in doubt.
        assert_eq!(salvage(&sink.bytes()).expect("preamble ok").commits, 1);
    }

    #[test]
    fn atomic_write_replaces_whole_file() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("superpin-wal-test-{}.txt", std::process::id()));
        atomic_write(&path, b"first").expect("write");
        assert_eq!(std::fs::read(&path).expect("read"), b"first");
        atomic_write(&path, b"second, longer contents").expect("rewrite");
        assert_eq!(
            std::fs::read(&path).expect("read"),
            b"second, longer contents"
        );
        std::fs::remove_file(&path).expect("cleanup");
    }
}
