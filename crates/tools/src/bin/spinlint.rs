//! `spinlint` — static lints over superpin programs.
//!
//! Runs the `superpin-analysis` lint suite (undefined register reads,
//! unreachable blocks, fall-off-end, stack imbalance, dead stores)
//! over assembly files or generated workloads and prints the findings
//! compiler-style. With `--whole-program` the interprocedural passes
//! run too: unreachable functions, indirect transfers whose target set
//! cannot be statically bounded, and self-modifying code overlapping a
//! hot loop.
//!
//! ```text
//! spinlint prog.s another.s          # lint assembly source files
//! spinlint --workload gcc            # lint one generated workload
//! spinlint --all-workloads           # lint the whole catalog
//! spinlint --whole-program --all-workloads --emit-json lint.json
//! ```
//!
//! Exit status: 0 if every linted program is free of errors and
//! warnings (info findings are advisory), 1 otherwise, 2 on usage or
//! input errors. Error-severity findings always force a nonzero exit,
//! so CI can gate on the catalog staying lint-clean.

use std::process::ExitCode;

use superpin::cli::{ArgError, Args};
use superpin::json;
use superpin_analysis::{run_lints, run_whole_program_lints, LintReport, Severity};
use superpin_isa::{asm, Program};
use superpin_workloads::{catalog, find, Scale};

const USAGE: &str = "\
usage: spinlint [options] [file.s ...]
  <file.s>            lint assembly source files
  --workload <name>   lint the generated workload <name>
  --all-workloads     lint every workload in the catalog
  --whole-program     also run interprocedural lints (call-graph
                      reachability, indirect-target resolution, SMC)
  --scale <s>         workload scale: tiny | small | medium | large (default tiny)
  --input <n>         workload input id (default 0)
  --emit-json <path>  write all findings as JSON to <path> ('-' = stdout)
  --quiet             suppress info-severity findings
  --help              show this help";

struct Options {
    files: Vec<String>,
    workloads: Vec<String>,
    all_workloads: bool,
    whole_program: bool,
    scale: Scale,
    input: u64,
    emit_json: Option<String>,
    quiet: bool,
}

/// The options, or `None` for `-h`/`--help`.
fn parse_args(args: &[String]) -> Result<Option<Options>, ArgError> {
    let mut options = Options {
        files: Vec::new(),
        workloads: Vec::new(),
        all_workloads: false,
        whole_program: false,
        scale: Scale::Tiny,
        input: 0,
        emit_json: None,
        quiet: false,
    };
    let mut args = Args::new(args);
    while let Some(arg) = args.next() {
        match arg {
            "--workload" => options.workloads.push(args.text("--workload")?.to_owned()),
            "--all-workloads" => options.all_workloads = true,
            "--whole-program" => options.whole_program = true,
            "--scale" => {
                options.scale = args.parse_with("--scale", Scale::CHOICES, Scale::parse)?
            }
            "--input" => options.input = args.value("--input", "a workload input id")?,
            "--emit-json" => options.emit_json = Some(args.text("--emit-json")?.to_owned()),
            "--quiet" => options.quiet = true,
            "--help" | "-h" => return Ok(None),
            other if other.starts_with('-') => return Err(ArgError::UnknownFlag(other.to_owned())),
            file => options.files.push(file.to_owned()),
        }
    }
    if options.files.is_empty() && options.workloads.is_empty() && !options.all_workloads {
        return Err(ArgError::Rule("nothing to lint".to_owned()));
    }
    Ok(Some(options))
}

/// Lints one program; `None` means the analysis itself failed.
fn lint_one(name: &str, program: &Program, options: &Options) -> Option<LintReport> {
    let result = if options.whole_program {
        run_whole_program_lints(program)
    } else {
        run_lints(program)
    };
    match result {
        Ok(report) => {
            print_report(name, &report, options.quiet);
            Some(report)
        }
        Err(e) => {
            eprintln!("{name}: analysis failed: {e}");
            None
        }
    }
}

fn print_report(name: &str, report: &LintReport, quiet: bool) {
    let mut shown = 0usize;
    for finding in report.findings() {
        if quiet && finding.severity() == Severity::Info {
            continue;
        }
        println!("{name}: {finding}");
        shown += 1;
    }
    let suppressed = report.findings().len() - shown;
    let status = if report.is_clean() { "clean" } else { "DIRTY" };
    println!(
        "{name}: {} — {} error(s), {} warning(s), {} info ({} shown)",
        status,
        report.errors(),
        report.warnings(),
        report.infos(),
        report.findings().len() - suppressed,
    );
}

/// Serializes every report through the shared JSON writer.
fn reports_to_json(reports: &[(String, LintReport)], whole_program: bool) -> String {
    let (mut total_errors, mut total_warnings) = (0, 0);
    let mut w = json::object();
    w.key("programs").array();
    for (name, report) in reports {
        total_errors += report.errors();
        total_warnings += report.warnings();
        w.object()
            .string("name", name)
            .uint("errors", report.errors() as u64)
            .uint("warnings", report.warnings() as u64)
            .uint("infos", report.infos() as u64)
            .boolean("clean", report.is_clean())
            .key("findings")
            .array();
        for finding in report.findings() {
            w.object()
                .string("kind", finding.kind.slug())
                .string("severity", &finding.severity().to_string())
                .uint("addr", finding.addr)
                .string("message", &finding.message)
                .end();
        }
        w.end().end();
    }
    w.end()
        .boolean("whole_program", whole_program)
        .uint("total_errors", total_errors as u64)
        .uint("total_warnings", total_warnings as u64)
        .boolean("clean", total_errors == 0 && total_warnings == 0);
    w.finish()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse_args(&args) {
        Ok(Some(options)) => options,
        Ok(None) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(err) => {
            eprintln!("spinlint: {err}");
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };

    let mut reports: Vec<(String, LintReport)> = Vec::new();
    let mut analysis_failed = false;
    for path in &options.files {
        let source = match std::fs::read_to_string(path) {
            Ok(source) => source,
            Err(e) => {
                eprintln!("spinlint: {path}: {e}");
                return ExitCode::from(2);
            }
        };
        match asm::assemble(&source) {
            Ok(program) => match lint_one(path, &program, &options) {
                Some(report) => reports.push((path.clone(), report)),
                None => analysis_failed = true,
            },
            Err(e) => {
                eprintln!("spinlint: {path}: {e}");
                return ExitCode::from(2);
            }
        }
    }

    let mut specs = Vec::new();
    if options.all_workloads {
        specs.extend(catalog());
    } else {
        for name in &options.workloads {
            match find(name) {
                Some(spec) => specs.push(spec),
                None => {
                    eprintln!(
                        "spinlint: unknown workload `{name}` (try one of: {})",
                        catalog()
                            .iter()
                            .map(|s| s.name)
                            .collect::<Vec<_>>()
                            .join(", ")
                    );
                    return ExitCode::from(2);
                }
            }
        }
    }
    for spec in specs {
        let program = spec.build_with_input(options.scale, options.input);
        match lint_one(spec.name, &program, &options) {
            Some(report) => reports.push((spec.name.to_owned(), report)),
            None => analysis_failed = true,
        }
    }

    if let Some(path) = &options.emit_json {
        let json = reports_to_json(&reports, options.whole_program);
        if path == "-" {
            println!("{json}");
        } else if let Err(e) = superpin_replay::atomic_write(path, json.as_bytes()) {
            eprintln!("spinlint: {path}: {e}");
            return ExitCode::from(2);
        }
    }

    let all_clean = !analysis_failed && reports.iter().all(|(_, report)| report.is_clean());
    if all_clean {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
