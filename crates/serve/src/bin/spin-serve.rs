//! `spin-serve` — the multi-tenant service front end.
//!
//! Reads a job file (tenants + jobs + arrival schedule), runs the
//! whole mix over one governed fleet, and prints the deterministic
//! summary. `--emit-reports` streams per-job outcome JSON lines.
//!
//! `--wal PATH` journals every settled round to a crash-durable
//! write-ahead log, which is also the run's one recording. After a
//! crash, `--resume PATH` salvages the committed prefix, re-executes it
//! with verification, and continues the run live — the final output is
//! byte-identical to an uninterrupted run. `--replay PATH` is `--resume`
//! without a writer: it re-runs a finished journal (at any `--threads`),
//! verifies every committed round — decisions, charges, usages and a
//! CRC of each outcome line — and never writes the file. WAL and
//! recovery status lines go to stderr so stdout stays deterministic.

use superpin::cli::{chaos_plan, ArgError, Args};
use superpin_replay::container::FrameDamage;
use superpin_replay::fleet::{recover_fleet_wal, FleetRecipe, FleetRecovery};
use superpin_replay::wal::{atomic_write, FsyncPolicy, WalCause, WalIoError, WalOp};
use superpin_serve::durable::{Durability, FleetWal};
use superpin_serve::{parse_jobs, run_service_durable, FleetConfig, JobFile, ServiceReport};

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
    replay: Option<String>,
    wal: Option<String>,
    resume: Option<String>,
    wal_fsync: FsyncPolicy,
    /// Flags seen that `--resume` or `--replay` refuse.
    journal_conflicts: Vec<&'static str>,
}

fn usage() -> ! {
    eprintln!(
        "usage: spin-serve --jobs FILE|- [--threads N] [--fleet-slots N] \
         [--fleet-budget BYTES[k|m|g]] [--chaos-seed N] [--chaos-rate F] [--spmsec MSEC] \
         [--emit-reports PATH] [--wal PATH] [--wal-fsync commit|off|every=N]\n\
         \x20      spin-serve --resume WAL [--threads N] [--emit-reports PATH] \
         [--wal-fsync commit|off|every=N]\n\
         \x20      spin-serve --replay WAL [--threads N] [--emit-reports PATH]\n\
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
        replay: None,
        wal: None,
        resume: None,
        wal_fsync: FsyncPolicy::EveryCommit,
        journal_conflicts: Vec::new(),
    };
    // Flags the WAL header fixes, which `--resume` and `--replay` reject
    // on sight, and `--wal-fsync`, which only `--replay` rejects.
    const FIXED_BY_WAL_HEADER: &[&str] = &[
        "--jobs",
        "--fleet-slots",
        "--fleet-budget",
        "--chaos-seed",
        "--chaos-rate",
        "--spmsec",
        "--wal",
        "--wal-fsync",
    ];
    let mut args = Args::new(args);
    while let Some(arg) = args.next() {
        if let Some(&flag) = FIXED_BY_WAL_HEADER.iter().find(|&&flag| flag == arg) {
            options.journal_conflicts.push(flag);
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
    let (mode, varies) = match (&options.replay, &options.resume) {
        (Some(_), Some(_)) => {
            return Err(ArgError::Rule(
                "`--replay` and `--resume` are mutually exclusive".to_owned(),
            ))
        }
        (Some(_), None) => ("replay", "`--threads` and `--emit-reports`"),
        (None, Some(_)) => ("resume", "`--threads`, `--emit-reports`, and `--wal-fsync`"),
        (None, None) if options.jobs.is_none() => {
            return Err(ArgError::Rule(
                "a job file is required: `--jobs FILE` (or `-` for stdin), `--resume WAL`, \
                 or `--replay WAL`"
                    .to_owned(),
            ))
        }
        (None, None) => return Ok(options),
    };
    let refused = options
        .journal_conflicts
        .iter()
        .find(|&&flag| mode == "replay" || flag != "--wal-fsync");
    if let Some(&flag) = refused {
        let why = match flag {
            "--wal-fsync" => "replay never writes the journal",
            _ => "the WAL header already fixes that knob",
        };
        return Err(ArgError::Rule(format!(
            "`{flag}` cannot accompany `--{mode}`: {why} (only {varies} may vary on {mode})"
        )));
    }
    Ok(options)
}

fn read_jobs(path: &str) -> std::io::Result<String> {
    match path {
        "-" => std::io::read_to_string(std::io::stdin()),
        _ => std::fs::read_to_string(path),
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
fn emit_reports(path: &str, report: &ServiceReport) {
    atomic_write(path, report.jsonl().as_bytes())
        .unwrap_or_else(|err| fail(format_args!("writing {path}: {err}")));
    println!("reports: {} job lines -> {path}", report.outcomes.len());
}

/// Reads the journal at `path` and rebuilds the run it records, to
/// execute at `threads`. Returns the file's length alongside.
fn load_journal(path: &str, threads: usize) -> (usize, FleetRecovery, JobFile, FleetConfig) {
    let bytes =
        std::fs::read(path).unwrap_or_else(|err| fail(format_args!("reading {path}: {err}")));
    let recovery = recover_fleet_wal(&bytes)
        .unwrap_or_else(|err| fail(format_args!("recovering {path}: {err}")));
    let file = parse_jobs(&recovery.recipe.spec_text)
        .unwrap_or_else(|err| fail(format_args!("journalled spec: {err}")));
    let cfg = FleetConfig {
        threads,
        slots: recovery.recipe.slots as usize,
        fleet_budget: recovery.recipe.fleet_budget,
        chaos: recovery.recipe.chaos,
        spmsec: recovery.recipe.spmsec,
    };
    (bytes.len(), recovery, file, cfg)
}

/// `--replay`: `--resume` without a writer. Every committed round is
/// re-executed and `diff_round`-checked; the journal is never written,
/// so only a finished one can replay OK.
fn replay(path: &str, options: &Options) {
    let (_, recovery, file, cfg) = load_journal(path, options.threads);
    let rounds = recovery.rounds.len() as u64;
    let unfinished = |why: String| -> ! {
        fail(format_args!(
            "{path}: {why} after {rounds} committed round(s); `--resume` finishes an \
             unfinished run"
        ))
    };
    match &recovery.damage {
        Some(damage) => unfinished(damage.to_string()),
        None if !recovery.clean_end => unfinished("no end frame".to_owned()),
        None => {}
    }
    let recorded_threads = recovery.recipe.threads;
    let mut dur = Durability {
        wal: None,
        resume: recovery.rounds.into(),
    };
    let report = run_service_durable(&file, &cfg, &mut dur).unwrap_or_else(|err| fail(err));
    if report.rounds > rounds {
        unfinished(format!(
            "the run settled {} more round(s)",
            report.rounds - rounds
        ));
    }
    if let Some(out) = &options.emit_reports {
        emit_reports(out, &report);
    }
    println!(
        "replay OK: {rounds} rounds, {} jobs verified (recorded at {recorded_threads} threads, \
         replayed at {})",
        report.outcomes.len(),
        options.threads,
    );
}

/// `--resume`: salvage the committed prefix, verify it by re-execution,
/// and continue the run live on the same file.
fn resume(path: &str, options: &Options) {
    let (len, recovery, file, cfg) = load_journal(path, options.threads);
    match &recovery.damage {
        Some(FrameDamage::Torn { offset }) => eprintln!(
            "spin-serve: recovery: {path}: truncated (salvageable, last committed round {}); \
             torn frame at byte {offset}",
            recovery.rounds.len()
        ),
        Some(FrameDamage::Corrupt { offset, detail }) => eprintln!(
            "spin-serve: recovery: {path}: corrupt at offset {offset} ({detail}); salvaging {} \
             committed round(s)",
            recovery.rounds.len()
        ),
        None if recovery.clean_end => eprintln!(
            "spin-serve: recovery: {path}: clean end frame; re-verifying {} committed round(s)",
            recovery.rounds.len()
        ),
        None => eprintln!(
            "spin-serve: recovery: {path}: in-progress log (no end frame), last committed \
             round {}",
            recovery.rounds.len()
        ),
    }
    if recovery.committed_len < len {
        eprintln!(
            "spin-serve: recovery: discarding {} uncommitted frame(s), truncating {len} -> {} \
             bytes",
            recovery.discarded, recovery.committed_len
        );
    }
    // Truncate the file to the durable prefix, then reopen it for
    // appending: frames past the last commit marker are unterminated
    // transactions and must not survive.
    let rounds = recovery.rounds.len() as u64;
    let sink = std::fs::OpenOptions::new()
        .write(true)
        .open(path)
        .and_then(|file| {
            file.set_len(recovery.committed_len as u64)?;
            file.sync_data()?;
            std::fs::OpenOptions::new().append(true).open(path)
        })
        .unwrap_or_else(|err| fail(format_args!("truncating {path}: {err}")));
    // Frame/commit counters resume where the durable prefix ends
    // (header + record/commit pair per round).
    let wal = FleetWal::resume(
        Box::new(sink),
        options.wal_fsync,
        None,
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
    if let Some(out) = &options.emit_reports {
        emit_reports(out, &report);
    }
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
    if let Some(path) = &options.replay {
        return replay(path, &options);
    }
    if let Some(path) = &options.resume {
        return resume(path, &options);
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
    let mut dur = match &options.wal {
        Some(path) => {
            let recipe = FleetRecipe {
                spec_text,
                threads: cfg.threads as u32,
                slots: cfg.slots as u32,
                fleet_budget: cfg.fleet_budget,
                chaos: cfg.chaos,
                spmsec: cfg.spmsec,
            };
            // A WAL that cannot even open degrades the run to
            // non-durable with a counted warning — durability is
            // best-effort, jobs are not. The guest chaos plan stays in
            // the recipe and never arms the journal's own I/O sites.
            let wal = match std::fs::File::create(path) {
                Ok(sink) => FleetWal::create(Box::new(sink), &recipe, options.wal_fsync, None)
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
    }

    #[test]
    fn defaults_are_serial_four_slots() {
        let options = parse(&["--jobs", "-"]).expect("parses");
        assert_eq!(options.threads, 1);
        assert_eq!(options.slots, 4);
        assert_eq!(options.fleet_budget, None);
        assert_eq!(options.wal, None);
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
            rule(&["--replay", "a", "--resume", "b"]),
            "`--replay` and `--resume` are mutually exclusive"
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
        // Each satisfies the job-file requirement by itself...
        let options = parse(&["--resume", "cut.spwal", "--threads", "4"]).expect("parses");
        assert_eq!(options.resume.as_deref(), Some("cut.spwal"));
        let options =
            parse(&["--replay", "done.spwal", "--emit-reports", "r.jsonl"]).expect("parses");
        assert_eq!(options.replay.as_deref(), Some("done.spwal"));
        assert_eq!(options.emit_reports.as_deref(), Some("r.jsonl"));
        // ...and refuses every knob the WAL header already fixes;
        // `--replay` also refuses `--wal-fsync`, since it never writes.
        let fixed = [
            ("--jobs", "f"),
            ("--fleet-slots", "2"),
            ("--fleet-budget", "1m"),
            ("--chaos-seed", "3"),
            ("--chaos-rate", "0.1"),
            ("--spmsec", "500"),
            ("--wal", "w"),
        ];
        for (mode, extra) in [
            ("--resume", None),
            ("--replay", Some(("--wal-fsync", "off"))),
        ] {
            for (flag, value) in fixed.into_iter().chain(extra) {
                let message = rule(&[mode, "cut.spwal", flag, value]);
                assert!(
                    message.starts_with(&format!("`{flag}` cannot accompany `{mode}`")),
                    "{flag} must conflict with {mode}: {message}"
                );
            }
        }
        parse(&["--resume", "cut.spwal", "--wal-fsync", "off"]).expect("resume may set fsync");
    }
}
