//! `spin-serve` — the multi-tenant service front end.
//!
//! Reads a job file (tenants + jobs + arrival schedule), runs the
//! whole mix over one governed fleet, and prints the deterministic
//! summary. `--emit-reports` streams per-job outcome JSON lines;
//! `--record` writes a fleet log; `--replay` re-runs a recorded fleet
//! (at any `--threads`) and byte-verifies the decision trace and every
//! outcome line against the log.
//!
//! `--wal PATH` journals every settled round to a crash-durable
//! write-ahead log; after a crash, `--resume PATH` salvages the
//! committed prefix, re-executes it with verification, and continues
//! the run live — the final output is byte-identical to an
//! uninterrupted run. WAL and recovery status lines go to stderr so
//! stdout stays deterministic.

use std::io::Read;

use superpin::cli::{chaos_plan, ArgError, Args};
use superpin_replay::container::{explain_decode_failure, FrameDamage, SPFL};
use superpin_replay::fleet::{diff_fleet, recover_fleet_wal, FleetLog, FleetRecipe};
use superpin_replay::wal::{atomic_write, FsyncPolicy, WalCause, WalIoError, WalOp};
use superpin_serve::durable::{Durability, FleetWal};
use superpin_serve::{parse_jobs, run_service, run_service_durable, FleetConfig};

#[derive(Debug, PartialEq)]
struct Options {
    jobs: Option<String>,
    threads: usize,
    slots: usize,
    fleet_budget: Option<u64>,
    chaos_seed: Option<u64>,
    chaos_rate: Option<f64>,
    spmsec: u64,
    emit_reports: Option<String>,
    record: Option<String>,
    replay: Option<String>,
    wal: Option<String>,
    resume: Option<String>,
    wal_fsync: FsyncPolicy,
    /// Flags seen that `--resume` refuses (the WAL header fixes them).
    resume_conflicts: Vec<&'static str>,
}

fn usage() -> ! {
    eprintln!(
        "usage: spin-serve --jobs FILE|- [--threads N] [--fleet-slots N] \
         [--fleet-budget BYTES[k|m|g]] [--chaos-seed N] [--chaos-rate F] [--spmsec MSEC] \
         [--emit-reports PATH] [--record LOG] [--wal PATH] [--wal-fsync commit|off|every=N]\n\
         \x20      spin-serve --replay LOG [--threads N]\n\
         \x20      spin-serve --resume WAL [--threads N] [--emit-reports PATH] \
         [--wal-fsync commit|off|every=N]\n\
         job file lines: `tenant NAME weight=N [budget=BYTES]` and\n\
         `job tenant=NAME workload=NAME [scale=S] [tool=T] [arrive=CYCLES] \
         [mem-budget=BYTES] [chaos-rate=F] [plan=on|off]`"
    );
    std::process::exit(2);
}

fn parse_options(args: &[String]) -> Result<Options, ArgError> {
    let mut options = Options {
        jobs: None,
        threads: 1,
        slots: 4,
        fleet_budget: None,
        chaos_seed: None,
        chaos_rate: None,
        spmsec: 1000,
        emit_reports: None,
        record: None,
        replay: None,
        wal: None,
        resume: None,
        wal_fsync: FsyncPolicy::EveryCommit,
        resume_conflicts: Vec::new(),
    };
    // Flags the WAL header fixes; `--resume` rejects them on sight.
    const FIXED_BY_WAL_HEADER: &[&str] = &[
        "--jobs",
        "--fleet-slots",
        "--fleet-budget",
        "--chaos-seed",
        "--chaos-rate",
        "--spmsec",
        "--record",
        "--replay",
        "--wal",
    ];
    let mut args = Args::new(args);
    while let Some(arg) = args.next() {
        if let Some(&flag) = FIXED_BY_WAL_HEADER.iter().find(|&&flag| flag == arg) {
            options.resume_conflicts.push(flag);
        }
        match arg {
            "--jobs" => options.jobs = Some(args.text("--jobs")?.to_owned()),
            "--threads" => options.threads = args.threads()?,
            "--fleet-slots" => {
                options.slots = args.at_least(
                    "--fleet-slots",
                    "a round width",
                    1,
                    " — a zero-wide round can never advance any job",
                )?
            }
            "--fleet-budget" => options.fleet_budget = Some(args.bytes("--fleet-budget")?),
            "--chaos-seed" => {
                options.chaos_seed = Some(args.value("--chaos-seed", "a seed integer")?)
            }
            "--chaos-rate" => options.chaos_rate = Some(args.probability("--chaos-rate")?),
            "--spmsec" => options.spmsec = args.value("--spmsec", "milliseconds")?,
            "--emit-reports" => {
                options.emit_reports = Some(args.text("--emit-reports")?.to_owned())
            }
            "--record" => options.record = Some(args.text("--record")?.to_owned()),
            "--replay" => options.replay = Some(args.text("--replay")?.to_owned()),
            "--wal" => options.wal = Some(args.text("--wal")?.to_owned()),
            "--resume" => options.resume = Some(args.text("--resume")?.to_owned()),
            "--wal-fsync" => {
                let expected = "`commit`, `off`, or `every=N`";
                options.wal_fsync = args.parse_with("--wal-fsync", expected, FsyncPolicy::parse)?;
            }
            other => return Err(ArgError::UnknownFlag(other.to_owned())),
        }
    }
    if options.record.is_some() && options.replay.is_some() {
        return Err(ArgError::Rule(
            "`--record` and `--replay` are mutually exclusive".to_owned(),
        ));
    }
    if let (Some(_), Some(flag)) = (&options.resume, options.resume_conflicts.first()) {
        return Err(ArgError::Rule(format!(
            "`{flag}` cannot accompany `--resume`: the WAL header already fixes that \
             knob (only `--threads`, `--emit-reports`, and `--wal-fsync` may vary on resume)"
        )));
    }
    if options.jobs.is_none() && options.replay.is_none() && options.resume.is_none() {
        return Err(ArgError::Rule(
            "a job file is required: `--jobs FILE` (or `-` for stdin), or `--replay LOG`"
                .to_owned(),
        ));
    }
    Ok(options)
}

fn read_jobs(path: &str) -> std::io::Result<String> {
    if path == "-" {
        let mut text = String::new();
        std::io::stdin().read_to_string(&mut text)?;
        Ok(text)
    } else {
        std::fs::read_to_string(path)
    }
}

fn fail(message: impl std::fmt::Display) -> ! {
    eprintln!("spin-serve: {message}");
    std::process::exit(1);
}

/// Post-run WAL status, on stderr: stdout must stay byte-identical
/// between an uninterrupted run and a kill-then-resume run, and the
/// two commit different round counts.
fn report_wal_status(dur: &Durability) {
    let Some(status) = dur.status() else {
        return;
    };
    if status.degraded {
        eprintln!(
            "spin-serve: warning: wal degraded to non-durable after {} append / {} fsync \
             failure(s) ({}); {} round(s) were committed before that",
            status.append_failures,
            status.fsync_failures,
            status.last_error.as_deref().unwrap_or("no error recorded"),
            status.rounds_committed,
        );
    } else {
        eprintln!(
            "spin-serve: wal: {} round(s) committed",
            status.rounds_committed
        );
    }
}

/// Streams per-job outcome JSON lines to `path`, atomically: a crash
/// mid-write leaves either the old file or the new one, never a torn
/// half.
fn emit_reports(path: &str, report: &superpin_serve::ServiceReport) {
    atomic_write(path, report.jsonl().as_bytes())
        .unwrap_or_else(|err| fail(format_args!("writing {path}: {err}")));
    println!("reports: {} job lines -> {path}", report.outcomes.len());
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse_options(&args) {
        Ok(options) => options,
        Err(err) => {
            eprintln!("spin-serve: {err}");
            usage();
        }
    };

    if let Some(log_path) = &options.replay {
        let bytes = std::fs::read(log_path)
            .unwrap_or_else(|err| fail(format_args!("reading {log_path}: {err}")));
        // A failed decode is explained by walking the same frames: a
        // truncation (`spin-replay fsck --repair` can seal the intact
        // prefix) reads very differently from a CRC mismatch.
        let log = FleetLog::decode(&bytes).unwrap_or_else(|err| {
            let why = explain_decode_failure(&bytes, &SPFL, &err);
            fail(format_args!("decoding {log_path}: {why}"))
        });
        let file = parse_jobs(&log.recipe.spec_text)
            .unwrap_or_else(|err| fail(format_args!("recorded spec: {err}")));
        let cfg = FleetConfig {
            threads: options.threads,
            slots: log.recipe.slots as usize,
            fleet_budget: log.recipe.fleet_budget,
            chaos: log.recipe.chaos,
            spmsec: log.recipe.spmsec,
        };
        let report = run_service(&file, &cfg).unwrap_or_else(|err| fail(err));
        let outcomes: Vec<String> = report.outcomes.iter().map(|o| o.to_json()).collect();
        match diff_fleet(&log, &report.events, &outcomes) {
            None => println!(
                "replay OK: {} events, {} jobs byte-identical (recorded at {} threads, \
                 replayed at {})",
                log.events.len(),
                log.outcomes.len(),
                log.recipe.threads,
                options.threads,
            ),
            Some(divergence) => fail(format_args!("replay diverged: {divergence}")),
        }
        return;
    }

    if let Some(wal_path) = &options.resume {
        let bytes = std::fs::read(wal_path)
            .unwrap_or_else(|err| fail(format_args!("reading {wal_path}: {err}")));
        let recovery = recover_fleet_wal(&bytes)
            .unwrap_or_else(|err| fail(format_args!("recovering {wal_path}: {err}")));
        match &recovery.damage {
            Some(FrameDamage::Torn { offset }) => eprintln!(
                "spin-serve: recovery: {wal_path}: truncated (salvageable, last committed \
                 round {}); torn frame at byte {offset}",
                recovery.rounds.len()
            ),
            Some(FrameDamage::Corrupt { offset, detail }) => eprintln!(
                "spin-serve: recovery: {wal_path}: corrupt at offset {offset} ({detail}); \
                 salvaging {} committed round(s)",
                recovery.rounds.len()
            ),
            None if recovery.clean_end => eprintln!(
                "spin-serve: recovery: {wal_path}: clean end frame; re-verifying {} \
                 committed round(s)",
                recovery.rounds.len()
            ),
            None => eprintln!(
                "spin-serve: recovery: {wal_path}: in-progress log (no end frame), last \
                 committed round {}",
                recovery.rounds.len()
            ),
        }
        if recovery.committed_len < bytes.len() {
            eprintln!(
                "spin-serve: recovery: discarding {} uncommitted frame(s), truncating \
                 {} -> {} bytes",
                recovery.discarded,
                bytes.len(),
                recovery.committed_len
            );
        }
        let file = parse_jobs(&recovery.recipe.spec_text)
            .unwrap_or_else(|err| fail(format_args!("journalled spec: {err}")));
        let cfg = FleetConfig {
            threads: options.threads,
            slots: recovery.recipe.slots as usize,
            fleet_budget: recovery.recipe.fleet_budget,
            chaos: recovery.recipe.chaos,
            spmsec: recovery.recipe.spmsec,
        };
        // Truncate the file to the durable prefix, then reopen it for
        // appending: frames past the last commit marker are
        // unterminated transactions and must not survive.
        let rounds = recovery.rounds.len() as u64;
        let sink = std::fs::OpenOptions::new()
            .write(true)
            .open(wal_path)
            .and_then(|file| {
                file.set_len(recovery.committed_len as u64)?;
                file.sync_data()?;
                std::fs::OpenOptions::new().append(true).open(wal_path)
            })
            .unwrap_or_else(|err| fail(format_args!("truncating {wal_path}: {err}")));
        // Frame/commit counters resume where the durable prefix ends
        // (header + record/commit pair per round), so rate-mode I/O
        // chaos keyed on them continues the interrupted schedule.
        let wal = FleetWal::resume(
            Box::new(sink),
            options.wal_fsync,
            cfg.chaos,
            1 + 2 * rounds,
            rounds,
        );
        let mut dur = Durability {
            wal: Some(wal),
            resume: recovery.rounds.into(),
        };
        let report = run_service_durable(&file, &cfg, &mut dur).unwrap_or_else(|err| fail(err));
        print!("{}", report.render_text());
        report_wal_status(&dur);
        if let Some(path) = &options.emit_reports {
            emit_reports(path, &report);
        }
        return;
    }

    let jobs_path = options.jobs.as_deref().expect("checked by parse_options");
    let spec_text =
        read_jobs(jobs_path).unwrap_or_else(|err| fail(format_args!("reading {jobs_path}: {err}")));
    let file = match parse_jobs(&spec_text) {
        Ok(file) => file,
        Err(err) => {
            eprintln!("spin-serve: {err}");
            usage();
        }
    };
    if let Some(budget) = options.fleet_budget {
        if let Err(err) = file.check_fleet_budget(budget) {
            eprintln!("spin-serve: {err}");
            usage();
        }
    }

    let cfg = FleetConfig {
        threads: options.threads,
        slots: options.slots,
        fleet_budget: options.fleet_budget,
        chaos: chaos_plan(options.chaos_seed, options.chaos_rate),
        spmsec: options.spmsec,
    };
    let recipe = FleetRecipe {
        spec_text,
        threads: cfg.threads as u32,
        slots: cfg.slots as u32,
        fleet_budget: cfg.fleet_budget,
        chaos: cfg.chaos,
        spmsec: cfg.spmsec,
    };
    let mut dur = match &options.wal {
        Some(path) => {
            // A WAL that cannot even open degrades the run to
            // non-durable with a counted warning — durability is
            // best-effort, jobs are not.
            let wal = match std::fs::File::create(path) {
                Ok(sink) => FleetWal::create(Box::new(sink), &recipe, options.wal_fsync, cfg.chaos)
                    .unwrap_or_else(FleetWal::degraded_from),
                Err(err) => FleetWal::degraded_from(WalIoError {
                    op: WalOp::Append,
                    at: 0,
                    cause: WalCause::Io(err),
                }),
            };
            Durability {
                wal: Some(wal),
                resume: Default::default(),
            }
        }
        None => Durability::none(),
    };
    let report = run_service_durable(&file, &cfg, &mut dur).unwrap_or_else(|err| fail(err));
    print!("{}", report.render_text());
    report_wal_status(&dur);

    if let Some(path) = &options.emit_reports {
        emit_reports(path, &report);
    }
    if let Some(path) = &options.record {
        let log = FleetLog {
            recipe,
            events: report.events.clone(),
            outcomes: report.outcomes.iter().map(|o| o.to_json()).collect(),
        };
        atomic_write(path, &log.encode())
            .unwrap_or_else(|err| fail(format_args!("writing {path}: {err}")));
        println!("recorded: {} events -> {path}", report.events.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Options, ArgError> {
        let owned: Vec<String> = args.iter().map(|s| (*s).to_owned()).collect();
        parse_options(&owned)
    }

    #[test]
    fn parses_the_full_surface() {
        let options = parse(&[
            "--jobs",
            "fleet.jobs",
            "--threads",
            "4",
            "--fleet-slots",
            "3",
            "--fleet-budget",
            "2m",
            "--chaos-seed",
            "3",
            "--chaos-rate",
            "0.05",
            "--spmsec",
            "500",
            "--emit-reports",
            "out.jsonl",
            "--record",
            "fleet.spflog",
        ])
        .expect("parses");
        assert_eq!(options.jobs.as_deref(), Some("fleet.jobs"));
        assert_eq!(options.threads, 4);
        assert_eq!(options.slots, 3);
        assert_eq!(options.fleet_budget, Some(2 << 20));
        assert_eq!(options.chaos_seed, Some(3));
        assert_eq!(options.chaos_rate, Some(0.05));
        assert_eq!(options.spmsec, 500);
        assert_eq!(options.emit_reports.as_deref(), Some("out.jsonl"));
        assert_eq!(options.record.as_deref(), Some("fleet.spflog"));
    }

    #[test]
    fn defaults_are_serial_four_slots() {
        let options = parse(&["--jobs", "-"]).expect("parses");
        assert_eq!(options.threads, 1);
        assert_eq!(options.slots, 4);
        assert_eq!(options.fleet_budget, None);
        assert_eq!(options.record, None);
    }

    /// The message of the range or cross-flag rule `args` break.
    fn rule(args: &[&str]) -> String {
        match parse(args) {
            Err(ArgError::Rule(message)) => message,
            other => panic!("{args:?} broke no rule: {other:?}"),
        }
    }

    #[test]
    fn rejects_zero_threads_and_slots() {
        assert_eq!(
            rule(&["--jobs", "f", "--threads", "0"]),
            "`--threads` must be at least 1 (1 = serial execution)"
        );
        assert_eq!(
            rule(&["--jobs", "f", "--fleet-slots", "0"]),
            "`--fleet-slots` must be at least 1 — a zero-wide round can never advance any job"
        );
    }

    #[test]
    fn rejects_bad_values_with_typed_errors() {
        assert_eq!(
            rule(&["--jobs", "f", "--chaos-rate", "1.5"]),
            "`--chaos-rate` is a probability and must be within [0, 1] (got 1.5)"
        );
        assert_eq!(
            parse(&["--jobs", "f", "--fleet-budget", "banana"]),
            Err(ArgError::InvalidValue {
                flag: "--fleet-budget",
                value: "banana".to_owned(),
                expected: "a byte count with optional k/m/g suffix (e.g. 64m)",
            })
        );
        assert_eq!(
            parse(&["--jobs", "f", "--threads"]),
            Err(ArgError::MissingValue("--threads"))
        );
        assert_eq!(
            parse(&["--frobnicate"]),
            Err(ArgError::UnknownFlag("--frobnicate".to_owned()))
        );
    }

    #[test]
    fn rejects_contradictory_modes() {
        assert!(rule(&["--threads", "2"]).starts_with("a job file is required"));
        assert_eq!(
            rule(&["--jobs", "f", "--record", "a", "--replay", "b"]),
            "`--record` and `--replay` are mutually exclusive"
        );
    }

    #[test]
    fn parses_the_durability_surface() {
        let options = parse(&[
            "--jobs",
            "fleet.jobs",
            "--wal",
            "fleet.spwal",
            "--wal-fsync",
            "every=8",
        ])
        .expect("parses");
        assert_eq!(options.wal.as_deref(), Some("fleet.spwal"));
        assert_eq!(options.wal_fsync, FsyncPolicy::EveryN(8));
        // The default policy is the safe one.
        let defaults = parse(&["--jobs", "f"]).expect("parses");
        assert_eq!(defaults.wal_fsync, FsyncPolicy::EveryCommit);
        assert_eq!(
            parse(&["--jobs", "f", "--wal-fsync", "sometimes"]),
            Err(ArgError::InvalidValue {
                flag: "--wal-fsync",
                value: "sometimes".to_owned(),
                expected: "`commit`, `off`, or `every=N`",
            })
        );
    }

    #[test]
    fn resume_stands_alone() {
        // Resume satisfies the job-file requirement by itself...
        let options = parse(&["--resume", "cut.spwal", "--threads", "4"]).expect("parses");
        assert_eq!(options.resume.as_deref(), Some("cut.spwal"));
        // ...and refuses every knob the WAL header already fixes.
        for (flag, value) in [
            ("--jobs", "f"),
            ("--fleet-slots", "2"),
            ("--fleet-budget", "1m"),
            ("--chaos-seed", "3"),
            ("--chaos-rate", "0.1"),
            ("--spmsec", "500"),
            ("--record", "a"),
            ("--replay", "b"),
            ("--wal", "w"),
        ] {
            let message = rule(&["--resume", "cut.spwal", flag, value]);
            assert!(
                message.starts_with(&format!("`{flag}` cannot accompany `--resume`")),
                "{flag} must conflict with --resume: {message}"
            );
        }
    }
}
