//! `spin-replay` — record, replay, and diff SuperPin runs.
//!
//! ```text
//! spin-replay record gcc -o gcc.splog --threads 4 --chaos-seed 2 --chaos-rate 0.02
//! spin-replay replay gcc.splog --threads 1 --emit-report report.json
//! spin-replay diff gcc.splog gcc-perturbed.splog
//! ```
//!
//! `record` executes a workload live with any tool of the
//! `superpin-tools` registry (`-t`), streaming its nondeterministic
//! surface (syscall effects, epoch plans, governed admissions, the
//! fault ledger) into a versioned `.splog` log alongside the final
//! report. `replay` re-executes a run from the log alone — at any
//! `--threads` count — and verifies the replayed report field for field
//! against the recording. `diff` replays two logs in lockstep and
//! bisects their first divergence to an epoch barrier, quantum window,
//! and master instruction range. `fsck` walks either SuperPin container
//! — a `.splog` recording or an `SPWAL` fleet journal — and prints a
//! frame census plus an integrity verdict; `--repair`
//! truncates to the last good frame into a `<file>.salvaged` quarantine
//! copy, never touching the original.
//!
//! Exit status: 0 on success (`replay` verified / `diff` identical /
//! `fsck` clean or in-progress journal), 1 on divergence, damage, or
//! simulator error, 2 on usage or I/O errors and unreadable preambles.

use std::process::ExitCode;
use superpin::cli::{chaos_plan, ArgError, Args};
use superpin_replay::container::SPLOG;
use superpin_replay::fsck;
use superpin_replay::json::report_to_json;
use superpin_replay::{
    atomic_write, diff_logs, explain_decode_failure, record, replay, salvage, verify_replay, walk,
    DiffOutcome, Format, ReplayLog, RunRecipe,
};
use superpin_tools::{lookup_serve, AnyTool};
use superpin_workloads::Scale;

const USAGE: &str = "\
usage: spin-replay <verb> [options]

verbs:
  record <workload> -o <log.splog>   run live, write the log
  replay <log.splog>                 re-execute from the log, verify
  diff <a.splog> <b.splog>           lockstep-replay both, report the
                                     first divergence
  fsck <file> [--repair]             frame census + integrity verdict
                                     for a .splog or SPWAL file;
                                     --repair truncates to the last
                                     good frame into <file>.salvaged

record options:
  -o <path>            output log path (required)
  -t <tool>            icount1 | icount2 | bblcount | insmix | itrace |
                       branch | mem (default icount1)
  --scale <s>          tiny | small | medium | large (default tiny)
  --input <n>          workload input id (default 0)
  --threads <n>        host threads (default 1)
  --spmsec <n>         timeslice in paper milliseconds (default 2000)
  --spmp <n>           max running slices (default 8)
  --chaos-seed <n>     arm fault injection with this seed (default 1
                       when only --chaos-rate is given)
  --chaos-rate <r>     fault rate in [0,1] (default 0.01 when armed)
  --mem-budget <bytes> arm the memory governor; k/m/g suffixes (64m)
  --supervise          arm the slice supervisor (implied by chaos)
  --plan               install the superblock plan (refined liveness)
                       and the soundness oracle
  --tag <str>          free-form provenance tag stored in the header

replay options:
  --threads <n>        host threads for the replay (default 1)

common options:
  --emit-report <path> write the (recorded / replayed) report as JSON
  --help               show this help";

fn fail(message: impl std::fmt::Display) -> ExitCode {
    eprintln!("spin-replay: {message}");
    eprintln!("{USAGE}");
    ExitCode::from(2)
}

/// Reads and decodes a `.splog`. A file that cannot be read, or whose
/// preamble is not a log's, is a usage error (exit 2); a recognisable
/// log that is damaged exits 1 with only its diagnosis, as `fsck` does.
fn load_log(path: &str) -> Result<ReplayLog, ExitCode> {
    let bytes = std::fs::read(path).map_err(|e| fail(format!("cannot read {path}: {e}")))?;
    ReplayLog::decode(&bytes).map_err(|e| {
        // Walk the bytes to say *why*: a salvageable truncation (kill
        // mid-write) reads very differently from corruption, and
        // `fsck --repair` can fix the former.
        let why = format!("{path}: {}", explain_decode_failure(&bytes, &SPLOG, &e));
        if walk(&bytes, &SPLOG).is_err() {
            return fail(why);
        }
        eprintln!("spin-replay: {why}");
        ExitCode::FAILURE
    })
}

fn write_file(path: &str, contents: &[u8]) -> Result<(), String> {
    atomic_write(path, contents).map_err(|e| format!("cannot write {path}: {e}"))
}

/// The serve-registry tool a log's recipe names.
fn log_tool(log: &ReplayLog) -> Result<Box<dyn AnyTool>, ExitCode> {
    lookup_serve(&log.recipe.tool)
        .ok_or_else(|| fail(format!("log records unknown tool `{}`", log.recipe.tool)))
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
        other => fail(format!("unknown verb `{other}`")),
    }
}

struct RecordArgs {
    recipe: RunRecipe,
    out: String,
    emit_report: Option<String>,
}

fn parse_record_args(args: &[String]) -> Result<RecordArgs, ArgError> {
    let mut recipe = RunRecipe::standard("", Scale::Tiny);
    let (mut out, mut emit_report) = (None, None);
    let (mut chaos_seed, mut chaos_rate) = (None, None);
    let mut args = Args::new(args);
    while let Some(arg) = args.next() {
        match arg {
            "-o" => out = Some(args.text("-o")?.to_owned()),
            "-t" => recipe.tool = args.text("-t")?.to_owned(),
            "--scale" => recipe.scale = args.parse_with("--scale", Scale::CHOICES, Scale::parse)?,
            "--input" => recipe.input = args.value("--input", "a workload input id")?,
            "--threads" => recipe.threads = args.threads()?,
            "--spmsec" => recipe.spmsec = args.value("--spmsec", "milliseconds")?,
            "--spmp" => recipe.spmp = args.value("--spmp", "a slice count")?,
            "--chaos-seed" => chaos_seed = Some(args.value("--chaos-seed", "a seed integer")?),
            "--chaos-rate" => chaos_rate = Some(args.probability("--chaos-rate")?),
            "--mem-budget" => recipe.mem_budget = Some(args.bytes("--mem-budget")?),
            "--supervise" => recipe.supervise = true,
            "--plan" => recipe.plan = true,
            "--tag" => recipe.tag = args.text("--tag")?.to_owned(),
            "--emit-report" => emit_report = Some(args.text("--emit-report")?.to_owned()),
            name if !name.starts_with('-') && recipe.name.is_empty() => {
                recipe.name = name.to_owned()
            }
            other => return Err(ArgError::UnknownFlag(other.to_owned())),
        }
    }
    if recipe.name.is_empty() {
        return Err(ArgError::Rule("record needs a workload name".to_owned()));
    }
    let out = out.ok_or_else(|| ArgError::Rule("record needs -o <path>".to_owned()))?;
    recipe.chaos = chaos_plan(chaos_seed, chaos_rate);
    Ok(RecordArgs {
        recipe,
        out,
        emit_report,
    })
}

fn cmd_record(args: &[String]) -> ExitCode {
    let parsed = match parse_record_args(args) {
        Ok(parsed) => parsed,
        Err(err) => return fail(err),
    };
    let Some(tool) = lookup_serve(&parsed.recipe.tool) else {
        return fail(format!("unknown tool `{}`", parsed.recipe.tool));
    };
    let recorded = tool
        .runner(&parsed.recipe, parsed.recipe.threads, false)
        .and_then(|mut runner| record(&parsed.recipe, &mut *runner));
    let log = match recorded {
        Ok(log) => log,
        Err(err) => {
            eprintln!("spin-replay: record failed: {err}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(message) = write_file(&parsed.out, &log.encode()) {
        return fail(message);
    }
    if let Some(path) = &parsed.emit_report {
        if let Err(message) = write_file(path, report_to_json(&log.report).as_bytes()) {
            return fail(message);
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

/// `replay <log> [--threads N] [--emit-report PATH]`.
fn parse_replay_args(args: &[String]) -> Result<(String, usize, Option<String>), ArgError> {
    let (mut log_path, mut threads, mut emit_report) = (None, 1, None);
    let mut args = Args::new(args);
    while let Some(arg) = args.next() {
        match arg {
            "--threads" => threads = args.threads()?,
            "--emit-report" => emit_report = Some(args.text("--emit-report")?.to_owned()),
            path if !path.starts_with('-') && log_path.is_none() => {
                log_path = Some(path.to_owned())
            }
            other => return Err(ArgError::UnknownFlag(other.to_owned())),
        }
    }
    let log_path = log_path.ok_or_else(|| ArgError::Rule("replay needs a log path".to_owned()))?;
    Ok((log_path, threads, emit_report))
}

fn cmd_replay(args: &[String]) -> ExitCode {
    let (log_path, threads, emit_report) = match parse_replay_args(args) {
        Ok(parsed) => parsed,
        Err(err) => return fail(err),
    };
    let log = match load_log(&log_path) {
        Ok(log) => log,
        Err(code) => return code,
    };
    let tool = match log_tool(&log) {
        Ok(tool) => tool,
        Err(code) => return code,
    };
    let replayed = tool
        .runner(&log.recipe, threads, true)
        .and_then(|mut runner| replay(&log, &mut *runner));
    let report = match replayed {
        Ok(report) => report,
        Err(err) => {
            eprintln!("spin-replay: replay DIVERGED: {err}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(path) = &emit_report {
        if let Err(message) = write_file(path, report_to_json(&report).as_bytes()) {
            return fail(message);
        }
    }
    match verify_replay(&log, &report) {
        None => {
            println!(
                "replay of {} verified: report identical to the recording \
                 (recorded threads={}, replayed threads={}, {} epochs)",
                log.recipe.name, log.recipe.threads, threads, report.epochs,
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
    let loaded = load_log(paths[0]).and_then(|a| Ok((a, load_log(paths[1])?)));
    let (log_a, log_b) = match loaded {
        Ok(logs) => logs,
        Err(code) => return code,
    };
    let (tool_a, tool_b) = match log_tool(&log_a).and_then(|a| Ok((a, log_tool(&log_b)?))) {
        Ok(tools) => tools,
        Err(code) => return code,
    };
    // Each log replays serially with the tool it names.
    let outcome = tool_a.runner(&log_a.recipe, 1, true).and_then(|mut a| {
        let mut b = tool_b.runner(&log_b.recipe, 1, true)?;
        diff_logs(&log_a, &mut *a, &log_b, &mut *b)
    });
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

/// Walk, census by kind, verdict — the same for both containers.
/// `--repair` quarantines the intact prefix as `<file>.salvaged`,
/// sealed with an end frame when that makes it a whole file again.
fn cmd_fsck(args: &[String]) -> ExitCode {
    let mut repair = false;
    let mut path = None;
    for arg in Args::new(args) {
        match arg {
            "--repair" => repair = true,
            other if !other.starts_with('-') && path.is_none() => path = Some(other.to_owned()),
            other => return fail(ArgError::UnknownFlag(other.to_owned())),
        }
    }
    let Some(path) = path else {
        return fail("fsck needs a file path");
    };
    let bytes = match std::fs::read(&path) {
        Ok(bytes) => bytes,
        Err(err) => return fail(format!("cannot read {path}: {err}")),
    };
    let Some(format) = Format::sniff(&bytes) else {
        eprintln!(
            "spin-replay: {path}: unrecognized magic \"{}\" — not a .splog or SPWAL file",
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
        Err(err) => fail(format!("cannot write {out}: {err}")),
    }
}
