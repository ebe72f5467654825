//! `spin-replay` — record, replay, and diff SuperPin runs.
//!
//! ```text
//! spin-replay record gcc -o gcc.splog --threads 4 --chaos-seed 2 --chaos-rate 0.02
//! spin-replay replay gcc.splog --threads 1 --emit-report report.json
//! spin-replay diff gcc.splog gcc-perturbed.splog
//! ```
//!
//! `record` executes a workload live, streaming its nondeterministic
//! surface (syscall effects, epoch plans, governed admissions, the
//! fault ledger) into a versioned `.splog` log alongside the final
//! report. `replay` re-executes a run from the log alone — at any
//! `--threads` count — and verifies the replayed report field for field
//! against the recording. `diff` replays two logs in lockstep and
//! bisects their first divergence to an epoch barrier, quantum window,
//! and master instruction range. `fsck` walks any SuperPin container —
//! `.splog` recording, `SPFL` fleet log, or `SPWAL` fleet journal — and
//! prints a frame census plus an integrity verdict; `--repair`
//! truncates to the last good frame into a `<file>.salvaged` quarantine
//! copy, never touching the original.
//!
//! Exit status: 0 on success (`replay` verified / `diff` identical /
//! `fsck` clean or in-progress journal), 1 on divergence, damage, or
//! simulator error, 2 on usage or I/O errors and unreadable preambles.

use std::process::ExitCode;
use superpin::{FailPlan, SharedMem};
use superpin_replay::container::SPLOG;
use superpin_replay::fsck;
use superpin_replay::json::report_to_json;
use superpin_replay::{
    atomic_write, diff_logs, explain_decode_failure, record_run, replay_run, salvage,
    verify_replay, walk, DiffOutcome, Format, ReplayLog, RunRecipe,
};
use superpin_tools::{ICount1, ICount2};
use superpin_workloads::Scale;

const USAGE: &str = "\
usage: spin-replay <verb> [options]

verbs:
  record <workload> -o <log.splog>   run live, write the log
  replay <log.splog>                 re-execute from the log, verify
  diff <a.splog> <b.splog>           lockstep-replay both, report the
                                     first divergence
  fsck <file> [--repair]             frame census + integrity verdict
                                     for any .splog / SPFL / SPWAL
                                     file; --repair truncates to the
                                     last good frame into
                                     <file>.salvaged

record options:
  -o <path>            output log path (required)
  -t <tool>            icount1 | icount2 (default icount1)
  --scale <s>          tiny | small | medium | large (default tiny)
  --input <n>          workload input id (default 0)
  --threads <n>        host threads (default 1)
  --spmsec <n>         timeslice in paper milliseconds (default 2000)
  --spmp <n>           max running slices (default 8)
  --chaos-seed <n>     arm fault injection with this seed
  --chaos-rate <r>     fault rate in [0,1] (default 0.01 when armed)
  --mem-budget <bytes> arm the memory governor
  --supervise          arm the slice supervisor (implied by chaos)
  --plan               install the superblock plan (refined liveness)
  --tag <str>          free-form provenance tag stored in the header

replay options:
  --threads <n>        host threads for the replay (default 1)

common options:
  --emit-report <path> write the (recorded / replayed) report as JSON
  --help               show this help";

fn fail(message: &str) -> ExitCode {
    eprintln!("spin-replay: {message}");
    eprintln!("{USAGE}");
    ExitCode::from(2)
}

fn parse_scale(text: &str) -> Option<Scale> {
    match text {
        "tiny" => Some(Scale::Tiny),
        "small" => Some(Scale::Small),
        "medium" => Some(Scale::Medium),
        "large" => Some(Scale::Large),
        _ => None,
    }
}

fn load_log(path: &str) -> Result<ReplayLog, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    // On failure, walk the bytes to say *why*: a salvageable
    // truncation (kill mid-write) reads very differently from
    // corruption, and `fsck --repair` can fix the former.
    ReplayLog::decode(&bytes)
        .map_err(|e| format!("{path}: {}", explain_decode_failure(&bytes, &SPLOG, &e)))
}

fn write_file(path: &str, contents: &[u8]) -> Result<(), String> {
    atomic_write(path, contents).map_err(|e| format!("cannot write {path}: {e}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help") || args.is_empty() {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    match args[0].as_str() {
        "record" => cmd_record(&args[1..]),
        "replay" => cmd_replay(&args[1..]),
        "diff" => cmd_diff(&args[1..]),
        "fsck" => cmd_fsck(&args[1..]),
        other => fail(&format!("unknown verb `{other}`")),
    }
}

struct RecordArgs {
    recipe: RunRecipe,
    out: String,
    emit_report: Option<String>,
}

fn parse_record_args(args: &[String]) -> Result<RecordArgs, String> {
    let mut workload = None;
    let mut out = None;
    let mut emit_report = None;
    let mut scale = Scale::Tiny;
    let mut input = 0u64;
    let mut tool = "icount1".to_string();
    let mut threads = 1usize;
    let mut spmsec = 2000u64;
    let mut spmp = 8usize;
    let mut chaos_seed = None;
    let mut chaos_rate = 0.01f64;
    let mut mem_budget = None;
    let mut supervise = false;
    let mut plan = false;
    let mut tag = String::new();

    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value = |what: &str| {
            iter.next()
                .cloned()
                .ok_or_else(|| format!("{what} needs a value"))
        };
        match arg.as_str() {
            "-o" => out = Some(value("-o")?),
            "-t" => tool = value("-t")?,
            "--scale" => {
                let text = value("--scale")?;
                scale = parse_scale(&text).ok_or_else(|| format!("unknown scale `{text}`"))?;
            }
            "--input" => input = value("--input")?.parse().map_err(|_| "bad --input")?,
            "--threads" => threads = value("--threads")?.parse().map_err(|_| "bad --threads")?,
            "--spmsec" => spmsec = value("--spmsec")?.parse().map_err(|_| "bad --spmsec")?,
            "--spmp" => spmp = value("--spmp")?.parse().map_err(|_| "bad --spmp")?,
            "--chaos-seed" => {
                chaos_seed = Some(
                    value("--chaos-seed")?
                        .parse()
                        .map_err(|_| "bad --chaos-seed")?,
                )
            }
            "--chaos-rate" => {
                chaos_rate = value("--chaos-rate")?
                    .parse()
                    .map_err(|_| "bad --chaos-rate")?
            }
            "--mem-budget" => {
                mem_budget = Some(
                    value("--mem-budget")?
                        .parse()
                        .map_err(|_| "bad --mem-budget")?,
                )
            }
            "--supervise" => supervise = true,
            "--plan" => plan = true,
            "--tag" => tag = value("--tag")?,
            "--emit-report" => emit_report = Some(value("--emit-report")?),
            other if !other.starts_with('-') && workload.is_none() => {
                workload = Some(other.to_string());
            }
            other => return Err(format!("unknown record option `{other}`")),
        }
    }

    let workload = workload.ok_or("record needs a workload name")?;
    let out = out.ok_or("record needs -o <path>")?;
    let mut recipe = RunRecipe::standard(&workload, scale);
    recipe.input = input;
    recipe.tool = tool;
    recipe.threads = threads.max(1);
    recipe.spmsec = spmsec;
    recipe.spmp = spmp;
    recipe.chaos = chaos_seed.map(|seed| FailPlan::new(seed, chaos_rate));
    recipe.mem_budget = mem_budget;
    recipe.supervise = supervise;
    recipe.plan = plan;
    recipe.tag = tag;
    Ok(RecordArgs {
        recipe,
        out,
        emit_report,
    })
}

fn cmd_record(args: &[String]) -> ExitCode {
    let parsed = match parse_record_args(args) {
        Ok(parsed) => parsed,
        Err(message) => return fail(&message),
    };
    let shared = SharedMem::new();
    let recorded = match parsed.recipe.tool.as_str() {
        "icount1" => record_run(&parsed.recipe, ICount1::new(&shared), &shared),
        "icount2" => record_run(&parsed.recipe, ICount2::new(&shared), &shared),
        other => return fail(&format!("unknown tool `{other}`")),
    };
    let log = match recorded {
        Ok(log) => log,
        Err(err) => {
            eprintln!("spin-replay: record failed: {err}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(message) = write_file(&parsed.out, &log.encode()) {
        return fail(&message);
    }
    if let Some(path) = &parsed.emit_report {
        if let Err(message) = write_file(path, report_to_json(&log.report).as_bytes()) {
            return fail(&message);
        }
    }
    println!(
        "recorded {} at threads={}: {} events, {} epochs, {} slices -> {}",
        log.recipe.name,
        log.recipe.threads,
        log.events.len(),
        log.report.epochs,
        log.report.slices.len(),
        parsed.out,
    );
    ExitCode::SUCCESS
}

fn cmd_replay(args: &[String]) -> ExitCode {
    let mut log_path = None;
    let mut threads = 1usize;
    let mut emit_report = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--threads" => match iter.next().and_then(|v| v.parse().ok()) {
                Some(n) => threads = n,
                None => return fail("bad --threads"),
            },
            "--emit-report" => match iter.next() {
                Some(path) => emit_report = Some(path.clone()),
                None => return fail("--emit-report needs a path"),
            },
            other if !other.starts_with('-') && log_path.is_none() => {
                log_path = Some(other.to_string());
            }
            other => return fail(&format!("unknown replay option `{other}`")),
        }
    }
    let log_path = match log_path {
        Some(path) => path,
        None => return fail("replay needs a log path"),
    };
    let log = match load_log(&log_path) {
        Ok(log) => log,
        Err(message) => return fail(&message),
    };
    let shared = SharedMem::new();
    let replayed = match log.recipe.tool.as_str() {
        "icount1" => replay_run(&log, threads.max(1), ICount1::new(&shared), &shared),
        "icount2" => replay_run(&log, threads.max(1), ICount2::new(&shared), &shared),
        other => return fail(&format!("log records unknown tool `{other}`")),
    };
    let report = match replayed {
        Ok(report) => report,
        Err(err) => {
            eprintln!("spin-replay: replay DIVERGED: {err}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(path) = &emit_report {
        if let Err(message) = write_file(path, report_to_json(&report).as_bytes()) {
            return fail(&message);
        }
    }
    match verify_replay(&log, &report) {
        None => {
            println!(
                "replay of {} verified: report identical to the recording \
                 (recorded threads={}, replayed threads={}, {} epochs)",
                log.recipe.name,
                log.recipe.threads,
                threads.max(1),
                report.epochs,
            );
            ExitCode::SUCCESS
        }
        Some(field) => {
            eprintln!("spin-replay: replay DIVERGED: first differing report field: {field}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_diff(args: &[String]) -> ExitCode {
    let paths: Vec<&String> = args.iter().filter(|a| !a.starts_with('-')).collect();
    if paths.len() != 2 || args.len() != 2 {
        return fail("diff needs exactly two log paths");
    }
    let (log_a, log_b) = match (load_log(paths[0]), load_log(paths[1])) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(message), _) | (_, Err(message)) => return fail(&message),
    };
    let shared_a = SharedMem::new();
    let shared_b = SharedMem::new();
    let outcome = match (log_a.recipe.tool.as_str(), log_b.recipe.tool.as_str()) {
        ("icount1", "icount1") => diff_logs(
            &log_a,
            ICount1::new(&shared_a),
            &shared_a,
            &log_b,
            ICount1::new(&shared_b),
            &shared_b,
        ),
        ("icount1", "icount2") => diff_logs(
            &log_a,
            ICount1::new(&shared_a),
            &shared_a,
            &log_b,
            ICount2::new(&shared_b),
            &shared_b,
        ),
        ("icount2", "icount1") => diff_logs(
            &log_a,
            ICount2::new(&shared_a),
            &shared_a,
            &log_b,
            ICount1::new(&shared_b),
            &shared_b,
        ),
        ("icount2", "icount2") => diff_logs(
            &log_a,
            ICount2::new(&shared_a),
            &shared_a,
            &log_b,
            ICount2::new(&shared_b),
            &shared_b,
        ),
        (a, b) => return fail(&format!("cannot diff tools `{a}` vs `{b}`")),
    };
    match outcome {
        Ok(DiffOutcome::Identical { epochs }) => {
            println!(
                "identical: {} vs {} agree at every epoch barrier ({epochs} epochs)",
                paths[0], paths[1]
            );
            ExitCode::SUCCESS
        }
        Ok(DiffOutcome::Diverged(report)) => {
            println!("{report}");
            ExitCode::FAILURE
        }
        Err(err) => {
            eprintln!("spin-replay: diff failed: {err}");
            ExitCode::FAILURE
        }
    }
}

/// Walk, census by kind, verdict — the same for all three containers.
/// `--repair` quarantines the intact prefix as `<file>.salvaged`,
/// sealed with an end frame when that makes it a whole file again.
fn cmd_fsck(args: &[String]) -> ExitCode {
    let mut repair = false;
    let mut path = None;
    for arg in args {
        match arg.as_str() {
            "--repair" => repair = true,
            other if !other.starts_with('-') && path.is_none() => path = Some(other.to_string()),
            other => return fail(&format!("unknown fsck option `{other}`")),
        }
    }
    let Some(path) = path else {
        return fail("fsck needs a file path");
    };
    let bytes = match std::fs::read(&path) {
        Ok(bytes) => bytes,
        Err(err) => return fail(&format!("cannot read {path}: {err}")),
    };
    let Some(format) = Format::sniff(&bytes) else {
        eprintln!(
            "spin-replay: {path}: unrecognized magic \"{}\" — not a .splog, SPFL, or SPWAL file",
            bytes[..bytes.len().min(5)].escape_ascii()
        );
        return ExitCode::from(2);
    };
    let walked = match walk(&bytes, format) {
        Ok(walked) => walked,
        Err(err) => {
            eprintln!("spin-replay: {path}: {err}");
            return ExitCode::from(2);
        }
    };
    println!(
        "{path}: {} v{}, {} intact frame(s): {}",
        format.name,
        format.version,
        walked.frames.len(),
        walked.census(format)
    );
    let journal = fsck::is_journal(format);
    if let (true, Ok(salvaged)) = (journal, salvage(&bytes)) {
        println!(
            "  durable prefix: {} of {} byte(s), last committed round: {}",
            salvaged.committed_len,
            bytes.len(),
            salvaged
                .last_committed
                .map_or_else(|| "none".to_owned(), |round| round.to_string()),
        );
    }
    let diagnosis = match walked.diagnosis() {
        // A journal that merely lacks its end frame is still running.
        Some(_) if journal && walked.damage.is_none() => None,
        other => other,
    };
    let Some(diagnosis) = diagnosis else {
        return match fsck::decode_whole(format, &bytes) {
            Ok(()) if walked.clean_end => {
                println!("  verdict: clean (sealed with an end frame)");
                ExitCode::SUCCESS
            }
            Ok(()) => {
                println!("  verdict: in-progress (no end frame yet; resumable as-is)");
                ExitCode::SUCCESS
            }
            Err(err) => {
                println!(
                    "  verdict: frames intact but not a whole {}: {err}",
                    format.name
                );
                ExitCode::FAILURE
            }
        };
    };
    println!("  verdict: {diagnosis}");
    if !repair {
        return ExitCode::FAILURE;
    }
    let salvaged = fsck::repair(format, &bytes, &walked);
    // Next to the original, never over it.
    let out = format!("{path}.salvaged");
    match atomic_write(&out, &salvaged) {
        Ok(()) => {
            println!("  repaired: {} byte(s) -> {out}", salvaged.len());
            ExitCode::FAILURE // the original is still damaged
        }
        Err(err) => fail(&format!("cannot write {out}: {err}")),
    }
}
