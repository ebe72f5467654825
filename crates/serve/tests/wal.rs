//! The crash-durability suite.
//!
//! The acceptance bar: a fleet run killed at **any byte** of its WAL
//! and resumed must produce output byte-identical to the uninterrupted
//! run — reports, counters, renders, and the WAL file itself — across
//! thread counts and with chaos on. And a WAL that stops accepting
//! writes (torn append, disk full, failed fsync) must degrade the run
//! to non-durable without changing a single output byte.

use std::collections::VecDeque;

use superpin::{FailPlan, Site, SiteMode};
use superpin_replay::fleet::{recover_fleet_wal, FleetRecipe};
use superpin_replay::json::first_report_difference;
use superpin_replay::wal::{salvage, FsyncPolicy, MemSink, WAL_FRAME_COMMIT};
use superpin_serve::durable::{Durability, FleetWal};
use superpin_serve::{
    parse_jobs, run_service, run_service_durable, FleetConfig, JobFile, ServiceReport,
};

/// A compact two-tenant mix with a staggered arrival — enough rounds
/// to cut at interesting places, small enough to re-run dozens of
/// times.
fn mix() -> (String, JobFile) {
    let catalog = superpin_workloads::catalog();
    let (w0, w1) = (catalog[0].name, catalog[1].name);
    let text = format!(
        "tenant alpha weight=2\n\
         tenant beta weight=1\n\
         job tenant=alpha workload={w0} scale=tiny tool=icount2 arrive=0\n\
         job tenant=beta workload={w1} scale=tiny tool=branch arrive=1000\n\
         job tenant=alpha workload={w1} scale=tiny tool=icount1 arrive=3000\n"
    );
    let file = parse_jobs(&text).expect("suite spec parses");
    (text, file)
}

fn config(threads: usize, chaos: Option<FailPlan>) -> FleetConfig {
    FleetConfig {
        threads,
        slots: 2,
        fleet_budget: Some(1 << 20),
        chaos,
        spmsec: 1000,
    }
}

fn recipe(text: &str, cfg: &FleetConfig) -> FleetRecipe {
    FleetRecipe {
        spec_text: text.to_owned(),
        threads: cfg.threads as u32,
        slots: cfg.slots as u32,
        fleet_budget: cfg.fleet_budget,
        chaos: cfg.chaos,
        spmsec: cfg.spmsec,
    }
}

/// Asserts two runs are the same run, byte by byte where it counts.
fn assert_identical(a: &ServiceReport, b: &ServiceReport, what: &str) {
    assert_eq!(a.events, b.events, "{what}: decision traces differ");
    for (oa, ob) in a.outcomes.iter().zip(&b.outcomes) {
        if let Some(field) = first_report_difference(&oa.report, &ob.report) {
            panic!("{what}: job {} report field `{field}` differs", oa.job);
        }
        assert_eq!(
            oa.to_json(),
            ob.to_json(),
            "{what}: job {} outcome bytes differ",
            oa.job
        );
    }
    assert_eq!(a.rounds, b.rounds, "{what}: round counts differ");
    assert_eq!(
        a.fleet_cycles, b.fleet_cycles,
        "{what}: fleet clocks differ"
    );
    assert_eq!(
        a.render_text(),
        b.render_text(),
        "{what}: text renders differ"
    );
    assert_eq!(a.jsonl(), b.jsonl(), "{what}: JSONL renders differ");
}

/// One uninterrupted durable run: report plus the complete WAL bytes.
fn baseline(text: &str, file: &JobFile, cfg: &FleetConfig) -> (ServiceReport, Vec<u8>) {
    let sink = MemSink::new();
    let wal = FleetWal::create(
        Box::new(sink.clone()),
        &recipe(text, cfg),
        FsyncPolicy::Off,
        cfg.chaos,
    )
    .expect("wal opens");
    let mut dur = Durability {
        wal: Some(wal),
        resume: VecDeque::new(),
    };
    let report = run_service_durable(file, cfg, &mut dur).expect("baseline runs");
    let status = dur.status().expect("wal attached");
    assert!(!status.degraded, "baseline WAL degraded: {status:?}");
    assert_eq!(status.rounds_committed, report.rounds);
    (report, sink.bytes())
}

/// Resumes from `prefix` (an arbitrary cut of the baseline WAL) and
/// asserts the continued run reproduces `expected` exactly — report
/// and final WAL bytes both.
fn resume_from(
    prefix: &[u8],
    file: &JobFile,
    cfg: &FleetConfig,
    expected: &ServiceReport,
    full_wal: &[u8],
    what: &str,
) {
    let rec = recover_fleet_wal(prefix).unwrap_or_else(|err| panic!("{what}: recover: {err}"));
    let rounds = rec.rounds.len() as u64;
    let sink = MemSink::from_bytes(prefix[..rec.committed_len].to_vec());
    let wal = FleetWal::resume(
        Box::new(sink.clone()),
        FsyncPolicy::Off,
        cfg.chaos,
        1 + 2 * rounds,
        rounds,
    );
    let mut dur = Durability {
        wal: Some(wal),
        resume: rec.rounds.into(),
    };
    let resumed = run_service_durable(file, cfg, &mut dur)
        .unwrap_or_else(|err| panic!("{what}: resume: {err}"));
    assert_identical(expected, &resumed, what);
    assert_eq!(
        sink.bytes(),
        full_wal,
        "{what}: resumed WAL bytes differ from the uninterrupted WAL"
    );
}

/// Every commit boundary of `wal`, as byte lengths a kill could leave
/// the file at.
fn commit_boundaries(wal: &[u8]) -> Vec<usize> {
    salvage(wal)
        .expect("baseline WAL scans")
        .frames
        .iter()
        .filter(|frame| frame.kind == WAL_FRAME_COMMIT)
        .map(|frame| frame.end())
        .collect()
}

/// The kill-anywhere matrix body: cut the WAL at every commit
/// boundary (subsampled when the run is long) and at mid-frame
/// offsets around each, resume, and demand byte-identity.
fn kill_anywhere(threads: usize, chaos: Option<FailPlan>, what: &str) {
    let (text, file) = mix();
    let cfg = config(threads, chaos);
    let (expected, full) = baseline(&text, &file, &cfg);
    let boundaries = commit_boundaries(&full);
    assert!(
        boundaries.len() >= 2,
        "{what}: mix too small to cut meaningfully ({} commits)",
        boundaries.len()
    );
    // Every boundary when short, every k-th (plus first and last) when
    // long — each resume re-executes the whole run, so keep the matrix
    // honest but bounded.
    let stride = boundaries.len().div_ceil(8);
    let mut cuts: Vec<usize> = boundaries.iter().copied().step_by(stride).collect();
    cuts.push(*boundaries.last().expect("non-empty"));
    // A kill rarely lands exactly on a frame boundary: also cut inside
    // the commit frame (torn commit — its round must roll back) and
    // just past it (torn next record).
    for &boundary in &[boundaries[0], *boundaries.last().expect("non-empty")] {
        cuts.push(boundary - 3);
        if boundary + 5 < full.len() {
            cuts.push(boundary + 5);
        }
    }
    // And the complete file: resume of a finished run re-verifies and
    // re-emits without diverging.
    cuts.push(full.len());
    cuts.sort_unstable();
    cuts.dedup();
    for cut in cuts {
        resume_from(
            &full[..cut],
            &file,
            &cfg,
            &expected,
            &full,
            &format!("{what}: cut at byte {cut} of {}", full.len()),
        );
    }
}

#[test]
fn kill_anywhere_serial() {
    kill_anywhere(1, None, "serial");
}

#[test]
fn kill_anywhere_parallel() {
    kill_anywhere(4, None, "4 threads");
}

#[test]
fn kill_anywhere_under_chaos() {
    // Guest chaos on, host-I/O sites quiesced: the cut/resume matrix
    // must hold with tenants faulting on their own schedules.
    let chaos = FailPlan::new(3, 0.02)
        .with_site(Site::IoWalAppend, SiteMode::Off)
        .with_site(Site::IoWalFsync, SiteMode::Off)
        .with_site(Site::IoDiskFull, SiteMode::Off);
    kill_anywhere(1, Some(chaos), "chaos serial");
    kill_anywhere(4, Some(chaos), "chaos 4 threads");
}

#[test]
fn wal_never_changes_the_run() {
    // Attaching a WAL is pure observation: the report is byte-equal to
    // a plain run's.
    let (text, file) = mix();
    let cfg = config(2, None);
    let plain = run_service(&file, &cfg).expect("plain run");
    let (durable, _) = baseline(&text, &file, &cfg);
    assert_identical(&plain, &durable, "plain vs durable");
}

/// A WAL failure degrades durability, never the run: inject each I/O
/// fault class, demand the report stays byte-equal to the plain run
/// and the failure is counted — then salvage what was committed and
/// prove a resume from the degraded file still reproduces the run.
fn degradation_case(site: Site, mode: SiteMode, expect_fsync: bool, what: &str) {
    let (text, file) = mix();
    let cfg = config(1, None);
    let plain = run_service(&file, &cfg).expect("plain run");

    let wal_chaos = FailPlan::new(11, 0.0).with_site(site, mode);
    let sink = MemSink::new();
    let policy = FsyncPolicy::EveryCommit;
    let mut dur = Durability {
        wal: Some(
            FleetWal::create(
                Box::new(sink.clone()),
                &recipe(&text, &cfg),
                policy,
                Some(wal_chaos),
            )
            .expect("header precedes the armed fault"),
        ),
        resume: VecDeque::new(),
    };
    let report = run_service_durable(&file, &cfg, &mut dur).expect("degraded run completes");
    assert_identical(&plain, &report, what);
    let status = dur.status().expect("wal attached").clone();
    assert!(status.degraded, "{what}: fault did not degrade");
    if expect_fsync {
        assert_eq!(
            (status.append_failures, status.fsync_failures),
            (0, 1),
            "{what}: wrong failure class counted"
        );
    } else {
        assert_eq!(
            (status.append_failures, status.fsync_failures),
            (1, 0),
            "{what}: wrong failure class counted"
        );
    }
    assert!(
        status.rounds_committed < report.rounds,
        "{what}: degradation should cut journaling short"
    );

    // The torn/short file is still a valid salvage target, and a
    // resume from it (faults disarmed, as after replacing the disk)
    // reproduces the run.
    let bytes = sink.bytes();
    let rec = recover_fleet_wal(&bytes).unwrap_or_else(|err| panic!("{what}: recover: {err}"));
    // A failed *fsync* leaves the commit frame's bytes in place —
    // salvage may legitimately find one more committed round than the
    // writer acknowledged (the bytes might have reached disk anyway).
    assert!(
        rec.rounds.len() as u64 >= status.rounds_committed,
        "{what}: salvage lost acknowledged rounds"
    );
    let clean_cfg = cfg.clone();
    let resume_sink = MemSink::from_bytes(bytes[..rec.committed_len].to_vec());
    let rounds = rec.rounds.len() as u64;
    let mut dur = Durability {
        wal: Some(FleetWal::resume(
            Box::new(resume_sink),
            policy,
            None,
            1 + 2 * rounds,
            rounds,
        )),
        resume: rec.rounds.into(),
    };
    let resumed =
        run_service_durable(&file, &clean_cfg, &mut dur).expect("resume from degraded file");
    assert_identical(&plain, &resumed, &format!("{what}: resumed"));
    assert!(
        !dur.status().expect("wal attached").degraded,
        "{what}: resume with faults disarmed must stay durable"
    );
}

#[test]
fn torn_append_degrades_gracefully() {
    // 6th append = round 3's record frame (header, then record+commit
    // pairs, then commit frames also count as appends).
    degradation_case(Site::IoWalAppend, SiteMode::Nth(6), false, "torn append");
}

#[test]
fn disk_full_degrades_gracefully() {
    degradation_case(Site::IoDiskFull, SiteMode::Nth(6), false, "disk full");
}

#[test]
fn failed_fsync_degrades_gracefully() {
    degradation_case(Site::IoWalFsync, SiteMode::Nth(2), true, "failed fsync");
}
