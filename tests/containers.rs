//! Tier-1 smoke for the on-disk container: one real file of each kind
//! — a `.splog` from a recorded run and the `SPWAL` journal of one
//! fleet run — round-trips, then takes a few hundred
//! seeded bit flips, stomps and truncations through the frame walk,
//! the typed reader and the repair path. No input may panic or abort a
//! reader; damage is reported at or before the first mutated byte; a
//! repaired copy re-walks clean.
//!
//! (`crates/replay/tests/fuzz_codec.rs` is the thorough version, over
//! synthetic samples; this one is fast enough for `cargo test -q` and
//! uses what the producers really write.)
//!
//! Two checked-in files pin the wire layout itself: each must decode,
//! re-encode to itself byte for byte, and equal what a fresh run of
//! its own recipe writes today. A codec change that moves one byte
//! fails here, and so does one that can no longer read old files.

use superpin::{NondetEvent, SharedMem};
use superpin_replay::container::{Format, SPLOG, SPWAL};
use superpin_replay::fsck::{decode_whole, is_journal, repair};
use superpin_replay::wal::{WalWriter, WAL_FRAME_HEADER, WAL_FRAME_RECORD};
use superpin_replay::{
    explain_decode_failure, record_run, recover_fleet_wal, walk, FleetRecipe, FrameDamage,
    FsyncPolicy, MemSink, ReplayLog, RunRecipe,
};
use superpin_serve::{parse_jobs, run_service_durable, Durability, FleetConfig, FleetWal};
use superpin_tools::ICount1;
use superpin_workloads::Scale;

const MUTATIONS_PER_KIND: u64 = 300;

/// Written by `spin-replay record gcc --threads 4 --chaos-seed 1
/// --chaos-rate 0.05 --mem-budget 96k --tag golden`: every event kind,
/// a chaos plan, a budget and a tag.
const GOLDEN_SPLOG: &[u8] = include_bytes!("golden/gcc_tiny_chaos_96k.splog");

/// The journal [`real_journal`] writes.
const GOLDEN_SPWAL: &[u8] = include_bytes!("golden/two_tenant_fleet.spwal");

/// xorshift64*: seeded, so a failure reproduces.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound as u64) as usize
    }
}

/// A recorded tiny run, through the `.splog` wire format and back.
fn real_splog() -> Vec<u8> {
    let shared = SharedMem::new();
    let recipe = RunRecipe::standard("gcc", Scale::Tiny);
    let log = record_run(&recipe, ICount1::new(&shared), &shared).expect("gcc records");
    let bytes = log.encode();
    assert_eq!(ReplayLog::decode(&bytes).expect("round trip"), log);
    bytes
}

/// The `SPWAL` journal of one fleet run.
fn real_journal() -> Vec<u8> {
    let text = "tenant alpha weight=2\n\
                tenant beta weight=1\n\
                job tenant=alpha workload=gcc scale=tiny tool=icount2 arrive=0\n\
                job tenant=beta workload=vortex scale=tiny tool=branch arrive=1000\n";
    let file = parse_jobs(text).expect("spec parses");
    let cfg = FleetConfig {
        threads: 1,
        slots: 2,
        fleet_budget: Some(1 << 20),
        chaos: None,
        spmsec: 1000,
    };
    let recipe = FleetRecipe {
        spec_text: text.to_owned(),
        threads: 1,
        slots: 2,
        fleet_budget: cfg.fleet_budget,
        chaos: None,
        spmsec: cfg.spmsec,
    };
    let sink = MemSink::new();
    let wal = FleetWal::create(Box::new(sink.clone()), &recipe, FsyncPolicy::Off, None)
        .expect("wal opens");
    let mut dur = Durability {
        wal: Some(wal),
        resume: Default::default(),
    };
    let report = run_service_durable(&file, &cfg, &mut dur).expect("fleet runs");

    let spwal = sink.bytes();
    let recovered = recover_fleet_wal(&spwal).expect("journal recovers");
    assert_eq!(recovered.recipe, recipe);
    assert_eq!(recovered.rounds.len() as u64, report.rounds);
    assert!(recovered.clean_end && recovered.damage.is_none());
    let crcs: Vec<u32> = recovered
        .rounds
        .iter()
        .flat_map(|round| round.outcomes.iter().copied())
        .collect();
    assert_eq!(crcs.len(), report.outcomes.len(), "one outcome CRC per job");
    spwal
}

/// Walk, typed reader, explanation, repair — on one damaged copy.
fn check_damaged(format: &Format, original: &[u8], damaged: &[u8], what: &str) {
    let first_mutated = std::iter::zip(original, damaged)
        .position(|(a, b)| a != b)
        .unwrap_or(damaged.len());
    let typed = decode_whole(format, damaged);
    let Ok(walked) = walk(damaged, format) else {
        assert!(
            first_mutated < 7,
            "{what}: preamble rejected past the preamble"
        );
        assert!(typed.is_err(), "{what}");
        return;
    };
    if let Some(FrameDamage::Torn { offset } | FrameDamage::Corrupt { offset, .. }) = walked.damage
    {
        assert!(offset <= first_mutated, "{what}: damage past the mutation");
    }
    match typed {
        // A journal cut between transactions is a whole, shorter one.
        Ok(()) if is_journal(format) => assert!(original.starts_with(damaged), "{what}"),
        Ok(()) => assert_eq!(damaged, original, "{what}: a mutation decoded whole"),
        Err(err) => assert!(!explain_decode_failure(damaged, format, &err).is_empty()),
    }
    let repaired = repair(format, damaged, &walked);
    let rewalked = walk(&repaired, format).expect("repaired copy walks");
    assert_eq!(rewalked.damage, None, "{what}: repaired copy is damaged");
    assert_eq!(rewalked.frames[..walked.frames.len()], walked.frames[..]);
    if is_journal(format) {
        let _ = recover_fleet_wal(damaged);
    }
}

fn fuzz(format: &'static Format, bytes: &[u8]) {
    assert_eq!(Format::sniff(bytes), Some(format));
    assert_eq!(decode_whole(format, bytes), Ok(()));
    let mut rng = Rng(0x5EED_0000 + u64::from(format.magic[2]));
    for case in 0..MUTATIONS_PER_KIND {
        let mut damaged = bytes.to_vec();
        let at = rng.below(bytes.len());
        let what = match case % 3 {
            0 => {
                damaged[at] ^= 1 << rng.below(8);
                format!("{} bit flip at byte {at}", format.name)
            }
            1 => {
                let end = (at + 1 + rng.below(64)).min(bytes.len());
                let fill = rng.next() as u8;
                damaged[at..end].fill(fill);
                format!("{} stomp {at}..{end} with {fill:#04x}", format.name)
            }
            _ => {
                damaged.truncate(at);
                format!("{} truncation at byte {at}", format.name)
            }
        };
        check_damaged(format, bytes, &damaged, &what);
    }
    // The shape that used to abort the readers: a count or length
    // field of 0xFFFF_FFFF, at some 256 places across the file.
    for at in (7..bytes.len().saturating_sub(4)).step_by(bytes.len() / 256 + 1) {
        let mut damaged = bytes.to_vec();
        damaged[at..at + 4].fill(0xFF);
        check_damaged(
            format,
            bytes,
            &damaged,
            &format!("{} 0xFFFFFFFF at {at}", format.name),
        );
    }
}

#[test]
fn golden_splog_reads_rewrites_and_rerecords_to_the_same_bytes() {
    let log = ReplayLog::decode(GOLDEN_SPLOG).expect("golden log decodes");
    assert_eq!(log.encode(), GOLDEN_SPLOG, "re-encoding moved a byte");

    let recipe = &log.recipe;
    assert!(recipe.chaos.is_some() && recipe.mem_budget.is_some());
    assert_eq!(
        (recipe.tool.as_str(), recipe.tag.as_str()),
        ("icount1", "golden")
    );
    let kinds = |pick: fn(&NondetEvent) -> bool| log.events.iter().filter(|e| pick(e)).count();
    assert!(kinds(|e| matches!(e, NondetEvent::Syscall(_))) > 0);
    assert!(kinds(|e| matches!(e, NondetEvent::EpochPlan { .. })) > 0);
    assert!(kinds(|e| matches!(e, NondetEvent::Admission { .. })) > 0);
    assert!(kinds(|e| matches!(e, NondetEvent::FaultLedger { .. })) > 0);
    assert!(!log.report.slices.is_empty());

    let shared = SharedMem::new();
    let fresh = record_run(recipe, ICount1::new(&shared), &shared).expect("gcc records");
    assert!(fresh.encode() == GOLDEN_SPLOG, "a fresh recording differs");
}

#[test]
fn golden_journal_reads_rewrites_and_rejournals_to_the_same_bytes() {
    let recovered = recover_fleet_wal(GOLDEN_SPWAL).expect("golden journal recovers");
    assert!(recovered.clean_end && recovered.damage.is_none());

    let sink = MemSink::new();
    let mut writer =
        WalWriter::create(Box::new(sink.clone()), FsyncPolicy::Off, None).expect("wal opens");
    let mut header = Vec::new();
    recovered.recipe.encode_into(&mut header);
    writer.append(WAL_FRAME_HEADER, &header).expect("header");
    for round in &recovered.rounds {
        writer
            .append_committed(WAL_FRAME_RECORD, &round.encode(), round.round)
            .expect("record + commit");
    }
    writer.end().expect("end");
    assert!(sink.bytes() == GOLDEN_SPWAL, "re-encoding moved a byte");

    assert!(real_journal() == GOLDEN_SPWAL, "a fresh journal differs");
}

#[test]
fn splog_survives_damage() {
    fuzz(&SPLOG, &real_splog());
}

#[test]
fn journal_survives_damage() {
    fuzz(&SPWAL, &real_journal());
}
