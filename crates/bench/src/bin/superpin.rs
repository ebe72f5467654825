//! A Pin-style command line for the reproduction, mirroring the paper's
//! invocation and switches (§2.2, §5):
//!
//! ```text
//! superpin [-sp 0|1] [-spmsec MSEC] [-spmp N] [-spsysrecs N] [-threads N]
//!          -t icount1|icount2|dcache|dcache-assoc|icache|bblcount|insmix|
//!             itrace|branch|mem|sampler
//!          -- <benchmark> [tiny|small|medium|large]
//! ```
//!
//! Examples:
//!
//! ```text
//! superpin -t icount2 -- gzip small
//! superpin -sp 1 -spmsec 500 -spmp 16 -t icount1 -- gcc medium
//! superpin -sp 0 -t dcache -- mcf small        # traditional Pin mode
//! superpin -threads 4 -t icount1 -- gcc medium # 4 host worker threads
//! ```
//!
//! `-threads N` fans slice execution out over N host worker threads; the
//! report is bit-identical to `-threads 1` (see the parallel-runner
//! section in DESIGN.md). This binary measures simulated time only; host
//! wall time is measured by `superpin-perfbench` (`crates/perfbench`).
//!
//! Exit codes: 0 on success, 1 when the run itself fails (the guest
//! faults, for example under a `--mem-budget` too small for it), 2 on a
//! command-line error.
//!
//! Chaos testing (DESIGN.md §4.8): `--chaos-seed N` arms the seeded
//! failpoint registry and slice supervisor; `--chaos-rate F` sets the
//! per-site firing probability (default 0.01); `--watchdog-factor K`
//! condemns a slice whose signature has not fired within K× the
//! scheduler's predicted completion. The report stays bit-identical to
//! the fault-free run except the `slice_retries` / `slices_degraded`
//! counters:
//!
//! ```text
//! superpin --chaos-seed 1 --chaos-rate 0.05 -threads 4 -t icount1 -- gcc tiny
//! ```

use superpin::cli::{chaos_plan, ArgError, Args};
use superpin::SuperPinReport;
use superpin_dbi::cycles_to_secs;
use superpin_replay::recipe::{time_scale_for, RunRecipe};
use superpin_tools::{lookup, tool_names};
use superpin_workloads::Scale;

/// The switches that shape what this binary does with a run, not the
/// run itself (that is the [`RunRecipe`]).
#[derive(Debug, PartialEq)]
struct Options {
    sp: bool,
    gantt: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: superpin [-sp 0|1] [-spmsec MSEC] [-spmp N] [-spsysrecs N] [-threads N] [-gantt] \
         [--chaos-seed N] [--chaos-rate F] [--watchdog-factor K] [--mem-budget BYTES[k|m|g]] \
         -t TOOL -- BENCHMARK [tiny|small|medium|large]\n\
         tools: {}",
        tool_names().collect::<Vec<_>>().join(" ")
    );
    std::process::exit(2);
}

fn parse_args() -> (Options, RunRecipe) {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_options(&args) {
        Ok(parsed) => parsed,
        Err(err) => {
            eprintln!("superpin: {err}");
            usage();
        }
    }
}

/// Parses the command line into its output switches and the run's
/// recipe: a 1000 ms timeslice and `small` scale unless told otherwise,
/// and a chaos plan when either chaos flag is given (`--chaos-rate`
/// without `--chaos-seed` defaults the seed to 1, and vice versa the
/// rate to 0.01). The tool must be in the tool table, and have a serial
/// Pin form when `-sp 0` asks for one; the benchmark must be in the
/// workload catalog.
fn parse_options(args: &[String]) -> Result<(Options, RunRecipe), ArgError> {
    let mut options = Options {
        sp: true,
        gantt: false,
    };
    let mut recipe = RunRecipe {
        tool: String::new(),
        spmsec: 1000,
        ..RunRecipe::standard("", Scale::Small)
    };
    let (mut chaos_seed, mut chaos_rate) = (None, None);
    let mut args = Args::new(args);
    let mut after_dashes = Vec::new();
    while let Some(arg) = args.next() {
        match arg {
            "-sp" => options.sp = args.switch("-sp", &["1"], &["0"], "0|1")?,
            "-spmsec" => recipe.spmsec = args.value("-spmsec", "milliseconds")?,
            "-spmp" => recipe.spmp = args.value("-spmp", "a slice count")?,
            "-spsysrecs" => recipe.spsysrecs = args.value("-spsysrecs", "a record count")?,
            "-gantt" => options.gantt = true,
            "-threads" | "--threads" => recipe.threads = args.threads()?,
            "--chaos-seed" => chaos_seed = Some(args.value("--chaos-seed", "a seed integer")?),
            "--chaos-rate" => chaos_rate = Some(args.probability("--chaos-rate")?),
            "--watchdog-factor" => {
                let factor: u64 = args.value("--watchdog-factor", "an integer multiplier")?;
                if factor <= 1 {
                    return Err(ArgError::Rule(format!(
                        "`--watchdog-factor` must be greater than 1 (got {factor}): a factor \
                         of 1 condemns any slice one quantum behind its predicted completion"
                    )));
                }
                recipe.watchdog_factor = factor;
            }
            "--mem-budget" => recipe.mem_budget = Some(args.bytes("--mem-budget")?),
            "-t" => recipe.tool = args.text("-t")?.to_owned(),
            "--" => after_dashes.extend(args.by_ref()),
            other => return Err(ArgError::UnknownFlag(other.to_owned())),
        }
    }
    if after_dashes.is_empty() || recipe.tool.is_empty() {
        return Err(ArgError::Rule(
            "a `-t TOOL` and a benchmark after `--` are required".to_owned(),
        ));
    }
    match lookup(&recipe.tool) {
        None => return Err(ArgError::Rule(format!("unknown tool `{}`", recipe.tool))),
        Some(tool) if !options.sp && !tool.has_pin_mode() => {
            return Err(ArgError::Rule(format!(
                "{} requires -sp 1 (it is a SuperPin tool)",
                recipe.tool
            )))
        }
        Some(_) => {}
    }
    recipe.name = after_dashes[0].to_owned();
    if recipe.spec().is_none() {
        return Err(ArgError::Rule(format!(
            "unknown benchmark `{}`",
            recipe.name
        )));
    }
    if let Some(&scale) = after_dashes.get(1) {
        recipe.scale = Scale::parse(scale).ok_or_else(|| ArgError::InvalidValue {
            flag: "BENCHMARK scale",
            value: scale.to_owned(),
            expected: Scale::CHOICES,
        })?;
    }
    recipe.chaos = chaos_plan(chaos_seed, chaos_rate);
    Ok((options, recipe))
}

/// Unwraps a run step's result, or reports the failure as
/// `superpin: <benchmark>: <error>` and exits 1. A guest that faults
/// (say, under a `--mem-budget` too small for it) is an outcome of the
/// run the user asked for, not a crash of this tool.
fn or_exit<V, E: std::fmt::Display>(result: Result<V, E>, recipe: &RunRecipe) -> V {
    result.unwrap_or_else(|err| {
        eprintln!("superpin: {}: {err}", recipe.name);
        std::process::exit(1);
    })
}

/// Prints a SuperPin run's slice, time, chaos and memory lines (and the
/// Gantt chart with `-gantt`).
fn print_summary(report: &SuperPinReport, options: &Options, recipe: &RunRecipe) {
    let present = |cycles| cycles_to_secs(cycles) * time_scale_for(recipe.scale);
    println!(
        "superpin: {} slices ({} timer, {} syscall), {} stalls",
        report.slice_count(),
        report.forks_on_timeout,
        report.forks_on_syscall,
        report.stall_events
    );
    println!(
        "runtime {:.2}s presented ({} cycles); breakdown: native {:.2}s, fork&others {:.2}s, sleep {:.2}s, pipeline {:.2}s",
        present(report.total_cycles),
        report.total_cycles,
        present(report.breakdown.native_cycles),
        present(report.breakdown.fork_other_cycles),
        present(report.breakdown.sleep_cycles),
        present(report.breakdown.pipeline_cycles),
    );
    if recipe.chaos.is_some() {
        println!(
            "chaos: {} slice retries, {} slices degraded",
            report.slice_retries, report.slices_degraded
        );
    }
    if recipe.mem_budget.is_some() {
        println!(
            "memory: peak {} bytes resident, {} slices deferred, {} checkpoints dropped, {} caches evicted",
            report.peak_resident_bytes,
            report.slices_deferred,
            report.checkpoints_dropped,
            report.caches_evicted
        );
    }
    if options.gantt {
        print!("{}", superpin_bench::render::render_gantt(report, 100));
    }
}

fn main() {
    let (options, recipe) = parse_args();
    let spec = recipe.spec().expect("parse_options checked the benchmark");
    let program = spec.build(recipe.scale);
    println!(
        "{} @ {:?}: {} static instructions",
        spec.name,
        recipe.scale,
        program.static_inst_count()
    );
    // Pin or SuperPin runs the tool; either way it renders its own result.
    let tool = lookup(&recipe.tool).expect("parse_options checked the tool");
    if options.sp {
        let mut runner = or_exit(tool.runner(&recipe, recipe.threads, false), &recipe);
        let report = or_exit(runner.run_to_end(), &recipe);
        print_summary(&report, &options, &recipe);
    } else {
        or_exit(tool.pin(&program), &recipe);
    }
    print!("{}", tool.render(&program));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(text: &[&str]) -> Vec<String> {
        text.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn valid_command_line_parses() {
        let (options, recipe) = parse_options(&args(&[
            "-t",
            "icount2",
            "--threads",
            "4",
            "--",
            "gcc",
            "tiny",
        ]))
        .expect("parse");
        assert_eq!(recipe.tool, "icount2");
        assert_eq!(recipe.threads, 4);
        assert_eq!(recipe.name, "gcc");
        assert_eq!(recipe.scale, Scale::Tiny);
        assert_eq!(recipe.mem_budget, None);
        assert!(options.sp);
        let serial = parse_options(&args(&["-sp", "0", "-t", "icount2", "--", "gcc"]));
        assert!(!serial.expect("parse").0.sp);
    }

    #[test]
    fn watchdog_factor_must_exceed_one() {
        for bad in ["0", "1"] {
            let err = parse_options(&args(&[
                "--watchdog-factor",
                bad,
                "-t",
                "icount2",
                "--",
                "gcc",
            ]))
            .expect_err("factor <= 1 must be rejected");
            assert!(matches!(err, ArgError::Rule(_)), "{err}");
            assert!(err.to_string().starts_with(&format!(
                "`--watchdog-factor` must be greater than 1 (got {bad})"
            )));
        }
        assert!(parse_options(&args(&[
            "--watchdog-factor",
            "2",
            "-t",
            "icount2",
            "--",
            "gcc"
        ]))
        .is_ok());
    }

    #[test]
    fn chaos_rate_must_be_a_probability() {
        for bad in ["-0.1", "1.5", "nan"] {
            let err = parse_options(&args(&["--chaos-rate", bad, "-t", "icount2", "--", "gcc"]))
                .expect_err("rate outside [0, 1] must be rejected");
            assert!(err.to_string().contains("--chaos-rate"), "{err}");
        }
        let (_, recipe) = parse_options(&args(&[
            "--chaos-rate",
            "1.0",
            "-t",
            "icount2",
            "--",
            "gcc",
        ]))
        .expect("boundary is inclusive");
        assert_eq!(recipe.chaos.map(|p| p.rate), Some(1.0));
    }

    #[test]
    fn zero_threads_is_rejected() {
        let err = parse_options(&args(&["--threads", "0", "-t", "icount2", "--", "gcc"]))
            .expect_err("zero threads must be rejected");
        assert_eq!(
            err.to_string(),
            "`--threads` must be at least 1 (1 = serial execution)"
        );
    }

    #[test]
    fn mem_budget_accepts_binary_suffixes() {
        let (_, recipe) =
            parse_options(&args(&["--mem-budget", "1m", "-t", "icount2", "--", "gcc"]))
                .expect("parse");
        assert_eq!(recipe.mem_budget, Some(1 << 20));
        let err = parse_options(&args(&[
            "--mem-budget",
            "lots",
            "-t",
            "icount2",
            "--",
            "gcc",
        ]))
        .expect_err("non-numeric budget must be rejected");
        assert!(err.to_string().contains("--mem-budget"), "{err}");
    }

    #[test]
    fn the_tool_is_checked_against_the_table() {
        assert_eq!(
            parse_options(&args(&["-t", "nope", "--", "gcc", "tiny"])),
            Err(ArgError::Rule("unknown tool `nope`".to_owned()))
        );
        assert_eq!(
            parse_options(&args(&["-sp", "0", "-t", "sampler", "--", "gcc", "tiny"])),
            Err(ArgError::Rule(
                "sampler requires -sp 1 (it is a SuperPin tool)".to_owned()
            ))
        );
        for name in tool_names() {
            let (_, recipe) =
                parse_options(&args(&["-t", name, "--", "gcc"])).expect("a table tool parses");
            assert_eq!(recipe.tool, name);
        }
        assert!(parse_options(&args(&["-sp", "0", "-t", "dcache", "--", "gcc"])).is_ok());
    }

    #[test]
    fn missing_values_and_unknown_flags_are_typed() {
        assert_eq!(
            parse_options(&args(&["--threads"])),
            Err(ArgError::MissingValue("--threads"))
        );
        assert_eq!(
            parse_options(&args(&["--frobnicate"])),
            Err(ArgError::UnknownFlag("--frobnicate".to_owned()))
        );
        assert_eq!(
            parse_options(&args(&["-t", "icount2"])),
            Err(ArgError::Rule(
                "a `-t TOOL` and a benchmark after `--` are required".to_owned()
            ))
        );
        // `-sp` is a 0|1 switch, not "anything but 0".
        for bad in ["banana", "2", ""] {
            assert_eq!(
                parse_options(&args(&["-sp", bad, "-t", "icount2", "--", "gcc"])),
                Err(ArgError::InvalidValue {
                    flag: "-sp",
                    value: bad.to_owned(),
                    expected: "0|1",
                })
            );
        }
        // The scale is positional only.
        for gone in ["--scale", "--tag"] {
            assert_eq!(
                parse_options(&args(&[gone, "x", "-t", "icount2", "--", "gcc"])),
                Err(ArgError::UnknownFlag(gone.to_owned()))
            );
        }
    }
}
