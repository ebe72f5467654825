//! The fleet determinism suite.
//!
//! The service-mode acceptance bar: with a fixed job-arrival schedule,
//! the per-job reports and the per-tenant fleet counters must be
//! **byte-identical** across `--threads {1, 2, 4}` — including under
//! chaos and under a tight fleet budget that forces the
//! eviction/deferral ladder. Plus the fairness floor: a low-weight
//! tenant still completes while a high-weight tenant floods the fleet,
//! and replay: a journal recorded at one thread count re-verifies at
//! another, down to each outcome line's CRC.

use superpin::FailPlan;
use superpin_replay::fleet::{recover_fleet_wal, FleetEvent, FleetRecipe};
use superpin_replay::json::first_report_difference;
use superpin_replay::wal::{FsyncPolicy, MemSink, WalWriter, WAL_FRAME_HEADER, WAL_FRAME_RECORD};
use superpin_serve::{
    parse_jobs, run_service, run_service_durable, Durability, FleetConfig, FleetError, FleetWal,
    JobFile, ServiceReport,
};

fn workloads() -> (&'static str, &'static str) {
    let catalog = superpin_workloads::catalog();
    assert!(catalog.len() >= 2, "catalog too small for the suite");
    (catalog[0].name, catalog[1].name)
}

/// A fixed two-tenant mix with staggered arrivals — the suite's
/// standard schedule.
fn two_tenant_file() -> JobFile {
    let (w0, w1) = workloads();
    let text = format!(
        "tenant alpha weight=3\n\
         tenant beta weight=1\n\
         job tenant=alpha workload={w0} scale=tiny tool=icount2 arrive=0\n\
         job tenant=beta workload={w1} scale=tiny tool=icount1 arrive=0\n\
         job tenant=alpha workload={w1} scale=tiny tool=bblcount arrive=2000\n\
         job tenant=beta workload={w0} scale=tiny tool=branch arrive=4000\n\
         job tenant=alpha workload={w0} scale=tiny tool=mem arrive=4000\n"
    );
    parse_jobs(&text).expect("suite spec parses")
}

fn config(threads: usize, chaos: Option<FailPlan>, fleet_budget: Option<u64>) -> FleetConfig {
    FleetConfig {
        threads,
        slots: 2,
        fleet_budget,
        chaos,
        spmsec: 1000,
    }
}

/// Asserts two runs are the same run, field by field and byte by byte.
fn assert_identical(a: &ServiceReport, b: &ServiceReport, what: &str) {
    assert_eq!(a.events, b.events, "{what}: decision traces differ");
    assert_eq!(
        a.outcomes.len(),
        b.outcomes.len(),
        "{what}: job counts differ"
    );
    for (oa, ob) in a.outcomes.iter().zip(&b.outcomes) {
        let ja = oa.to_json();
        let jb = ob.to_json();
        // Field-by-field first for a readable failure, then the full
        // byte equality the CI diff asserts.
        if let Some(field) = first_report_difference(&oa.report, &ob.report) {
            panic!("{what}: job {} report field `{field}` differs", oa.job);
        }
        assert_eq!(ja, jb, "{what}: job {} outcome bytes differ", oa.job);
    }
    for (ta, tb) in a.tenants.iter().zip(&b.tenants) {
        assert_eq!(ta.name, tb.name, "{what}: tenant order differs");
        // Unscrubbed counters, every field.
        assert_eq!(
            (
                ta.counters.admitted,
                ta.counters.deferred,
                ta.counters.degraded,
                ta.counters.evicted,
                ta.completed,
            ),
            (
                tb.counters.admitted,
                tb.counters.deferred,
                tb.counters.degraded,
                tb.counters.evicted,
                tb.completed,
            ),
            "{what}: tenant {} counters differ",
            ta.name
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

fn run_across_threads(chaos: Option<FailPlan>, fleet_budget: Option<u64>, what: &str) {
    let file = two_tenant_file();
    let t1 = run_service(&file, &config(1, chaos, fleet_budget)).expect("t1");
    for threads in [2usize, 4] {
        let tn = run_service(&file, &config(threads, chaos, fleet_budget)).expect("tn");
        assert_identical(&t1, &tn, &format!("{what} t1-vs-t{threads}"));
    }
    // Sanity on the t1 run itself: every job completed and merged.
    assert_eq!(t1.outcomes.len(), file.jobs.len());
    for outcome in &t1.outcomes {
        assert!(outcome.report.total_cycles > 0);
        assert!(outcome.complete >= outcome.arrive);
    }
}

#[test]
fn plain_fleet_is_thread_invariant() {
    run_across_threads(None, None, "plain");
}

#[test]
fn chaotic_fleet_is_thread_invariant() {
    run_across_threads(Some(FailPlan::new(3, 0.02)), None, "chaos seed 3");
}

#[test]
fn tight_budget_fleet_is_thread_invariant() {
    run_across_threads(None, Some(64 << 10), "tight budget");
}

#[test]
fn tight_budget_actually_exercises_the_ladder() {
    let file = two_tenant_file();
    let report = run_service(&file, &config(1, None, Some(64 << 10))).expect("runs");
    let pressure: u64 = report
        .tenants
        .iter()
        .map(|t| t.counters.deferred + t.counters.degraded + t.counters.evicted)
        .sum();
    assert!(
        pressure > 0,
        "a 64 KiB fleet budget should defer, degrade, or evict at least once; \
         counters: {:?}",
        report
            .tenants
            .iter()
            .map(|t| (
                t.name.clone(),
                t.counters.deferred,
                t.counters.degraded,
                t.counters.evicted
            ))
            .collect::<Vec<_>>()
    );
    // Pressure must not break completion: every job still finishes.
    assert_eq!(report.outcomes.len(), file.jobs.len());
}

#[test]
fn chaos_domains_are_per_tenant() {
    // Adding a job for tenant beta must not change tenant alpha's
    // chaos schedule: alpha's reports are identical across the two
    // fleets because its fault domain derives from the tenant id, not
    // from fleet composition.
    let (w0, w1) = workloads();
    let base = format!(
        "tenant alpha weight=1\n\
         tenant beta weight=1\n\
         job tenant=alpha workload={w0} scale=tiny tool=icount2 arrive=0\n"
    );
    let extended =
        format!("{base}job tenant=beta workload={w1} scale=tiny tool=icount1 arrive=0\n");
    let chaos = Some(FailPlan::new(7, 0.05));
    let small = run_service(&parse_jobs(&base).expect("parses"), &config(1, chaos, None))
        .expect("small fleet");
    let big = run_service(
        &parse_jobs(&extended).expect("parses"),
        &config(1, chaos, None),
    )
    .expect("big fleet");
    // Scheduling times differ (beta shares rounds), but alpha's
    // *report* — everything the guest and its faults determine — must
    // not.
    assert_eq!(
        first_report_difference(&small.outcomes[0].report, &big.outcomes[0].report),
        None,
        "tenant alpha's report changed when tenant beta joined the fleet"
    );
}

#[test]
fn low_weight_tenant_is_not_starved() {
    let (w0, w1) = workloads();
    let text = format!(
        "tenant whale weight=100\n\
         tenant minnow weight=1\n\
         job tenant=whale workload={w0} scale=tiny tool=icount2 arrive=0\n\
         job tenant=whale workload={w1} scale=tiny tool=icount2 arrive=0\n\
         job tenant=whale workload={w0} scale=tiny tool=icount1 arrive=0\n\
         job tenant=whale workload={w1} scale=tiny tool=icount1 arrive=0\n\
         job tenant=minnow workload={w0} scale=tiny tool=icount2 arrive=0\n"
    );
    let file = parse_jobs(&text).expect("parses");
    let cfg = FleetConfig {
        threads: 1,
        slots: 1, // one job per round: contention is real
        fleet_budget: None,
        chaos: None,
        spmsec: 1000,
    };
    let report = run_service(&file, &cfg).expect("runs");
    // The guarantee is starvation-*freedom*, not priority: at a 100:1
    // weight ratio the whale's backlog drains first (that IS weighted
    // fairness), but the minnow's job still runs to completion with a
    // bounded turnaround.
    let minnow = report
        .outcomes
        .iter()
        .find(|o| o.tenant == "minnow")
        .expect("minnow's job completed despite a 100:1 weight deficit");
    assert!(minnow.turnaround > 0);
    assert!(minnow.complete <= report.fleet_cycles);
    let summary = report
        .tenants
        .iter()
        .find(|t| t.name == "minnow")
        .expect("minnow summary");
    assert_eq!(summary.completed, 1);
    assert_eq!(summary.counters.admitted, 1);
    // And the minnow was admitted immediately — weight shapes service
    // share, never queue entry.
    let admitted_at = report
        .events
        .iter()
        .find_map(|event| match *event {
            FleetEvent::Admit {
                job: 4, fleet_now, ..
            } => Some(fleet_now),
            _ => None,
        })
        .expect("minnow admission logged");
    assert_eq!(admitted_at, 0);
}

/// Records a two-tenant fleet with guest chaos at `threads = 1` into
/// an in-memory journal, as `spin-serve --wal` does.
fn record_journal() -> (ServiceReport, Vec<u8>) {
    let (w0, w1) = workloads();
    let text = format!(
        "tenant alpha weight=2\n\
         tenant beta weight=1\n\
         job tenant=alpha workload={w0} scale=tiny tool=icount2 arrive=0\n\
         job tenant=beta workload={w1} scale=tiny tool=branch arrive=1000\n"
    );
    let file = parse_jobs(&text).expect("parses");
    let cfg = config(1, Some(FailPlan::new(3, 0.02)), Some(1 << 20));
    let recipe = FleetRecipe {
        spec_text: text,
        threads: 1,
        slots: cfg.slots as u32,
        fleet_budget: cfg.fleet_budget,
        chaos: cfg.chaos,
        spmsec: cfg.spmsec,
    };
    let sink = MemSink::new();
    let wal = FleetWal::create(Box::new(sink.clone()), &recipe, FsyncPolicy::Off, None)
        .expect("wal opens");
    let mut dur = Durability {
        wal: Some(wal),
        resume: Default::default(),
    };
    let recorded = run_service_durable(&file, &cfg, &mut dur).expect("recording run");
    (recorded, sink.bytes())
}

/// Replays a finished journal as `spin-serve --replay` does: the run is
/// rebuilt from the recipe alone and re-executed at `threads` with every
/// committed round queued for verification and no writer. Returns the
/// committed round count beside the run.
fn replay(journal: &[u8], threads: usize) -> (u64, Result<ServiceReport, FleetError>) {
    let recovery = recover_fleet_wal(journal).expect("journal recovers");
    assert!(recovery.clean_end && recovery.damage.is_none());
    let file = parse_jobs(&recovery.recipe.spec_text).expect("recorded spec parses");
    let cfg = FleetConfig {
        threads,
        slots: recovery.recipe.slots as usize,
        fleet_budget: recovery.recipe.fleet_budget,
        chaos: recovery.recipe.chaos,
        spmsec: recovery.recipe.spmsec,
    };
    let rounds = recovery.rounds.len() as u64;
    let mut dur = Durability {
        wal: None,
        resume: recovery.rounds.into(),
    };
    (rounds, run_service_durable(&file, &cfg, &mut dur))
}

#[test]
fn journal_replays_across_thread_counts() {
    let (recorded, journal) = record_journal();
    let (rounds, replayed) = replay(&journal, 4);
    let replayed = replayed.expect("replay at 4 threads verifies every committed round");
    assert_eq!(
        rounds, recorded.rounds,
        "the recording committed every round"
    );
    assert_eq!(
        replayed.rounds, rounds,
        "replay settled rounds past the journal"
    );
    assert_eq!(replayed.jsonl(), recorded.jsonl());
}

#[test]
fn an_altered_outcome_crc_is_a_divergence_naming_its_job() {
    let (_, journal) = record_journal();
    let recovery = recover_fleet_wal(&journal).expect("journal recovers");
    let mut rounds = recovery.rounds;
    let frame = rounds
        .iter_mut()
        .find(|frame| !frame.outcomes.is_empty())
        .expect("some round completes a job");
    frame.outcomes[0] ^= 1;
    let (altered, job) = frame
        .events
        .iter()
        .find_map(|event| match *event {
            FleetEvent::Complete { job, .. } => Some((frame.round, job)),
            _ => None,
        })
        .expect("an outcome CRC belongs to a completion");

    // Re-frame the journal around the altered round: every CRC is valid.
    let sink = MemSink::new();
    let mut writer =
        WalWriter::create(Box::new(sink.clone()), FsyncPolicy::Off, None).expect("wal opens");
    let mut header = Vec::new();
    recovery.recipe.encode_into(&mut header);
    writer.append(WAL_FRAME_HEADER, &header).expect("header");
    for frame in &rounds {
        writer
            .append_committed(WAL_FRAME_RECORD, &frame.encode(), frame.round)
            .expect("round");
    }
    writer.end().expect("end");

    match replay(&sink.bytes(), 1).1 {
        Err(FleetError::WalDivergence { round, detail }) => {
            assert_eq!(round, altered);
            let named = format!("job {job} outcome: committed crc");
            assert!(detail.starts_with(&named), "{detail}");
        }
        other => panic!(
            "an altered outcome CRC replayed as {:?}",
            other.map(|report| report.rounds)
        ),
    }
}
