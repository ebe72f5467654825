//! Adversarial-input suite for the on-disk container, run over one
//! sample of each kind of file written in it: a `.splog` recording and
//! an `SPWAL` fleet journal.
//!
//! One set of properties, checked by [`check_damaged`] for every
//! mutation of every sample:
//!
//! * **never panic** — walk, typed reader, explanation, repair and
//!   journal recovery all return typed results on arbitrary bytes;
//! * **damage is located** — at or before the first mutated byte, and
//!   no mutation reads back as a different whole file (CRC);
//! * **salvage is idempotent** — the intact prefix re-walks clean, the
//!   repaired copy re-walks clean, a journal's durable prefix salvages
//!   to the same commits;
//! * **truncation only shortens** — what survives is a prefix of the
//!   original's frames (and of a journal's committed rounds), never
//!   something else.

use proptest::prelude::*;
use superpin::FailPlan;
use superpin_replay::container::{Format, SPLOG, SPWAL};
use superpin_replay::fleet::{recover_fleet_wal, FleetEvent, FleetRecipe, RoundFrame};
use superpin_replay::fsck::{decode_whole, is_journal, repair};
use superpin_replay::wal::{salvage, FsyncPolicy, MemSink, WalWriter, WAL_FRAME_RECORD};
use superpin_replay::{explain_decode_failure, walk, CodecError, FrameDamage};
use superpin_replay::{ReplayLog, RunRecipe};
use superpin_workloads::Scale;

fn sample_recipe() -> FleetRecipe {
    FleetRecipe {
        spec_text: "tenant a weight=1\njob tenant=a workload=x\n".to_owned(),
        threads: 2,
        slots: 2,
        fleet_budget: Some(1 << 20),
        chaos: Some(FailPlan::new(3, 0.02)),
        spmsec: 1000,
    }
}

fn sample_round(round: u64) -> RoundFrame {
    RoundFrame {
        round,
        fleet_now: round * 1717,
        selected: vec![0, round as u32 % 3],
        deltas: vec![1500 + round, 900],
        events: vec![
            FleetEvent::Admit {
                job: round as u32,
                fleet_now: round * 1717,
                budget: round.is_multiple_of(2).then_some(4096),
            },
            FleetEvent::Complete {
                job: round as u32,
                fleet_now: round * 1717 + 3,
            },
        ],
        usages: vec![round * 64, 128],
        outcomes: vec![0x0C0F_FEE0 ^ round as u32],
    }
}

/// A well-formed 12-round WAL, sealed with an end frame.
fn sample_wal() -> Vec<u8> {
    let sink = MemSink::new();
    let mut writer =
        WalWriter::create(Box::new(sink.clone()), FsyncPolicy::Off, None).expect("wal opens");
    let mut header = Vec::new();
    sample_recipe().encode_into(&mut header);
    writer.append(0x01, &header).expect("header");
    for round in 1..=12u64 {
        writer
            .append_committed(WAL_FRAME_RECORD, &sample_round(round).encode(), round)
            .expect("record + commit");
    }
    writer.end().expect("end");
    sink.bytes()
}

fn sample_splog() -> Vec<u8> {
    use superpin::master::PtraceStats;
    use superpin::{AdmissionDecision, NondetEvent, SuperPinReport, TimeBreakdown};
    let report = SuperPinReport {
        total_cycles: 10,
        master_exit_cycles: 8,
        breakdown: TimeBreakdown::default(),
        master_insts: 5,
        master_syscalls: 1,
        ptrace: PtraceStats::default(),
        slices: Vec::new(),
        sig_stats: Default::default(),
        forks_on_timeout: 0,
        forks_on_syscall: 0,
        stall_events: 0,
        master_cow_copies: 0,
        epochs: 2,
        slice_retries: 0,
        slices_degraded: 0,
        peak_resident_bytes: 0,
        slices_deferred: 0,
        checkpoints_dropped: 0,
        caches_evicted: 0,
    };
    ReplayLog {
        recipe: RunRecipe::standard("gcc", Scale::Tiny),
        events: vec![
            NondetEvent::EpochPlan { planned: 4 },
            NondetEvent::Admission {
                decision: AdmissionDecision::Admit,
                dropped: vec![],
                evicted: vec![3],
            },
        ],
        report,
    }
    .encode()
}

/// One whole file of each kind.
fn samples() -> [(&'static Format, Vec<u8>); 2] {
    [(&SPLOG, sample_splog()), (&SPWAL, sample_wal())]
}

/// The shared properties of `damaged`, a mutation of the whole file
/// `original`.
fn check_damaged(format: &Format, original: &[u8], damaged: &[u8]) {
    // For a pure truncation, the cut.
    let first_mutated = std::iter::zip(original, damaged)
        .position(|(a, b)| a != b)
        .unwrap_or(damaged.len());
    let whole = walk(original, format).expect("sample walks");
    let typed = decode_whole(format, damaged);
    let Ok(walked) = walk(damaged, format) else {
        assert!(first_mutated < 7, "preamble rejected past the preamble");
        assert!(matches!(typed, Err(CodecError::BadHeader { .. })));
        return;
    };

    // Damage is located, and what survives is a prefix of the original.
    assert!(walked.valid_len <= damaged.len());
    if let Some(FrameDamage::Torn { offset } | FrameDamage::Corrupt { offset, .. }) = walked.damage
    {
        assert_eq!(offset, walked.valid_len);
        assert!(offset <= first_mutated, "damage reported past the mutation");
    }
    assert!(walked.frames.len() <= whole.frames.len());
    assert_eq!(walked.frames[..], whole.frames[..walked.frames.len()]);

    // No mutation reads back as a different whole file.
    match &typed {
        // (A journal cut between transactions is a whole, shorter one.)
        Ok(()) if is_journal(format) => assert!(original.starts_with(damaged)),
        Ok(()) => assert_eq!(damaged, original, "a mutation decoded whole"),
        Err(err) => {
            let explained = explain_decode_failure(damaged, format, err);
            let located = explained.contains("truncated") || explained.contains("corrupt");
            assert!(located, "unhelpful explanation `{explained}`");
        }
    }

    // Salvage is idempotent: the intact prefix and the repaired copy
    // both re-walk clean, and repairing changes nothing before them.
    let prefix = walk(&damaged[..walked.valid_len], format).expect("prefix walks");
    assert_eq!(prefix.damage, None);
    assert_eq!(prefix.frames, walked.frames);
    let repaired = repair(format, damaged, &walked);
    assert_eq!(repaired[..walked.valid_len], damaged[..walked.valid_len]);
    let rewalked = walk(&repaired, format).expect("repaired copy walks");
    assert_eq!(rewalked.damage, None);
    if rewalked.clean_end && !walked.clean_end {
        assert_eq!(
            decode_whole(format, &repaired),
            Ok(()),
            "sealed but not whole"
        );
    }

    if is_journal(format) {
        let full = recover_fleet_wal(original).expect("sample recovers");
        let scanned = salvage(damaged).expect("preamble intact");
        assert!(scanned.committed_len <= scanned.valid_len);
        assert!(scanned.valid_len <= walked.valid_len);
        // Resume never chases its own tail.
        let again = salvage(&damaged[..scanned.committed_len]).expect("durable prefix scans");
        assert_eq!(again.damage, None);
        assert_eq!(again.commits, scanned.commits);
        // No intact header frame yet is typed, not a panic.
        if let Ok(recovered) = recover_fleet_wal(damaged) {
            assert!(recovered.rounds.len() <= full.rounds.len());
            assert_eq!(
                recovered.rounds[..],
                full.rounds[..recovered.rounds.len()],
                "salvage changed committed history"
            );
        }
    }
}

#[test]
fn samples_are_whole() {
    for (format, bytes) in samples() {
        assert_eq!(decode_whole(format, &bytes), Ok(()), "{}", format.name);
        let walked = walk(&bytes, format).expect("walks");
        assert!(walked.clean_end && walked.damage.is_none());
        assert_eq!(Format::sniff(&bytes), Some(format));
    }
    let recovered = recover_fleet_wal(&sample_wal()).expect("recovers");
    assert_eq!(recovered.rounds.len(), 12);
    assert!(recovered.clean_end);
    assert_eq!(recovered.rounds[4], sample_round(5));
}

/// Exhaustive truncation: every sample cut at *every* byte offset —
/// every frame boundary and every mid-frame position.
#[test]
fn truncation_at_every_offset_only_shortens() {
    for (format, bytes) in samples() {
        for cut in 0..bytes.len() {
            check_damaged(format, &bytes, &bytes[..cut]);
            assert!(decode_whole(format, &bytes[..cut]).is_err() || is_journal(format));
        }
    }
}

proptest! {
    #![proptest_config(proptest::ProptestConfig::with_cases(256))]

    /// Any single bit flip, in each sample.
    #[test]
    fn prop_survives_bit_flips(pos in 0usize..8192, bit in 0u32..8) {
        for (format, bytes) in samples() {
            let mut damaged = bytes.clone();
            let index = pos % bytes.len();
            damaged[index] ^= 1 << bit;
            check_damaged(format, &bytes, &damaged);
        }
    }

    /// Multi-byte stomp: overwrite a window with one arbitrary byte.
    #[test]
    fn prop_survives_stomps(pos in 0usize..8192, len in 1usize..64, fill in 0u32..256) {
        for (format, bytes) in samples() {
            let mut damaged = bytes.clone();
            let start = pos % bytes.len();
            let end = (start + len).min(bytes.len());
            damaged[start..end].fill(fill as u8);
            check_damaged(format, &bytes, &damaged);
        }
    }

    /// A flip and a cut together (the shape that used to abort the
    /// fleet log reader with a 44 GB reservation).
    #[test]
    fn prop_survives_flip_then_truncation(
        pos in 0usize..8192,
        bit in 0u32..8,
        cut in 0usize..8192,
    ) {
        for (format, bytes) in samples() {
            let mut damaged = bytes.clone();
            let index = pos % bytes.len();
            damaged[index] ^= 1 << bit;
            let cut = cut % (bytes.len() + 1);
            check_damaged(format, &bytes, &damaged[..cut]);
        }
    }

    /// Frame payloads of arbitrary junk round-trip through the writer
    /// and salvage cleanly (the container is content-agnostic).
    #[test]
    fn prop_wal_roundtrips_arbitrary_payloads(
        payloads in proptest::collection::vec(
            proptest::collection::vec(0u32..256, 0..96),
            1..12,
        ),
    ) {
        let expected: Vec<Vec<u8>> = payloads
            .iter()
            .map(|payload| payload.iter().map(|&b| b as u8).collect())
            .collect();
        let sink = MemSink::new();
        let mut writer = WalWriter::create(Box::new(sink.clone()), FsyncPolicy::Off, None)
            .expect("wal opens");
        for (seq, payload) in (1u64..).zip(&expected) {
            writer.append_committed(WAL_FRAME_RECORD, payload, seq).expect("append");
        }
        writer.end().expect("end");
        let bytes = sink.bytes();
        let scanned = salvage(&bytes).expect("scans");
        prop_assert!(scanned.damage.is_none());
        prop_assert!(scanned.clean_end);
        prop_assert_eq!(scanned.commits, payloads.len() as u64);
        let recovered: Vec<&[u8]> = scanned
            .frames
            .iter()
            .filter(|frame| frame.kind == WAL_FRAME_RECORD)
            .map(|frame| frame.payload)
            .collect();
        prop_assert_eq!(recovered, expected);
    }
}
