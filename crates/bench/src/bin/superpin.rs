//! A Pin-style command line for the reproduction, mirroring the paper's
//! invocation and switches (§2.2, §5):
//!
//! ```text
//! superpin [-sp 0|1] [-spmsec MSEC] [-spmp N] [-spsysrecs N] [-threads N]
//!          -t icount1|icount2|dcache|itrace|branch|mem|sampler
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

use std::sync::Arc;

use superpin::baseline::{run_pin, PinReport};
use superpin::cli::{chaos_plan, ArgError, Args};
use superpin::{
    ProgramAnalysis, SharedMem, SuperPinConfig, SuperPinReport, SuperPinRunner, SuperTool,
};
use superpin_bench::runs::time_scale_for;
use superpin_dbi::Pintool;
use superpin_tools::{
    BranchProfile, DCache, DCacheConfig, ICount1, ICount2, ITrace, MemProfile, Sampler,
};
use superpin_vm::process::Process;
use superpin_workloads::{find, Scale};

#[derive(Debug, PartialEq)]
struct Options {
    sp: bool,
    gantt: bool,
    spmsec: u64,
    spmp: usize,
    spsysrecs: usize,
    threads: usize,
    chaos_seed: Option<u64>,
    chaos_rate: Option<f64>,
    watchdog_factor: u64,
    mem_budget: Option<u64>,
    plan: bool,
    tool: String,
    benchmark: String,
    scale: Scale,
}

fn usage() -> ! {
    eprintln!(
        "usage: superpin [-sp 0|1] [-spmsec MSEC] [-spmp N] [-spsysrecs N] [-threads N] [-gantt] \
         [--chaos-seed N] [--chaos-rate F] [--watchdog-factor K] [--mem-budget BYTES[k|m|g]] \
         [--plan on|off] -t TOOL -- BENCHMARK [tiny|small|medium|large]\n\
         tools: icount1 icount2 dcache dcache-assoc icache bblcount insmix itrace branch mem sampler"
    );
    std::process::exit(2);
}

fn parse_args() -> Options {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_options(&args) {
        Ok(options) => options,
        Err(err) => {
            eprintln!("superpin: {err}");
            usage();
        }
    }
}

fn parse_options(args: &[String]) -> Result<Options, ArgError> {
    let mut options = Options {
        sp: true,
        gantt: false,
        spmsec: 1000,
        spmp: 8,
        spsysrecs: 1000,
        threads: 1,
        chaos_seed: None,
        chaos_rate: None,
        watchdog_factor: 8,
        mem_budget: None,
        plan: false,
        tool: String::new(),
        benchmark: String::new(),
        scale: Scale::Small,
    };
    let mut args = Args::new(args);
    let mut after_dashes = Vec::new();
    while let Some(arg) = args.next() {
        match arg {
            "-sp" => options.sp = args.switch("-sp", &["1"], &["0"], "0|1")?,
            "-spmsec" => options.spmsec = args.value("-spmsec", "milliseconds")?,
            "-spmp" => options.spmp = args.value("-spmp", "a slice count")?,
            "-spsysrecs" => options.spsysrecs = args.value("-spsysrecs", "a record count")?,
            "-gantt" => options.gantt = true,
            "-threads" | "--threads" => options.threads = args.threads()?,
            "--chaos-seed" => {
                options.chaos_seed = Some(args.value("--chaos-seed", "a seed integer")?)
            }
            "--chaos-rate" => options.chaos_rate = Some(args.probability("--chaos-rate")?),
            "--watchdog-factor" => {
                let factor: u64 = args.value("--watchdog-factor", "an integer multiplier")?;
                if factor <= 1 {
                    return Err(ArgError::Rule(format!(
                        "`--watchdog-factor` must be greater than 1 (got {factor}): a factor \
                         of 1 condemns any slice one quantum behind its predicted completion"
                    )));
                }
                options.watchdog_factor = factor;
            }
            "--plan" => {
                options.plan = args.switch("--plan", &["on", "1"], &["off", "0"], "on|off")?
            }
            "--mem-budget" => options.mem_budget = Some(args.bytes("--mem-budget")?),
            "-t" => options.tool = args.text("-t")?.to_owned(),
            "--" => after_dashes.extend(args.by_ref()),
            other => return Err(ArgError::UnknownFlag(other.to_owned())),
        }
    }
    if after_dashes.is_empty() || options.tool.is_empty() {
        return Err(ArgError::Rule(
            "a `-t TOOL` and a benchmark after `--` are required".to_owned(),
        ));
    }
    options.benchmark = after_dashes[0].to_owned();
    if let Some(&scale) = after_dashes.get(1) {
        options.scale = Scale::parse(scale).ok_or_else(|| ArgError::InvalidValue {
            flag: "BENCHMARK scale",
            value: scale.to_owned(),
            expected: Scale::CHOICES,
        })?;
    }
    Ok(options)
}

/// The SuperPin configuration an invocation's switches describe, chaos
/// plan included (`--chaos-rate` without `--chaos-seed` defaults the
/// seed to 1, and vice versa the rate to 0.01).
fn superpin_config(options: &Options) -> SuperPinConfig {
    let mut cfg = SuperPinConfig::scaled(options.spmsec, time_scale_for(options.scale))
        .with_max_slices(options.spmp)
        .with_max_sysrecs(options.spsysrecs)
        .with_threads(options.threads)
        .with_watchdog_factor(options.watchdog_factor);
    if let Some(budget) = options.mem_budget {
        cfg = cfg.with_mem_budget(budget);
    }
    if let Some(plan) = chaos_plan(options.chaos_seed, options.chaos_rate) {
        cfg = cfg.with_chaos(plan);
    }
    cfg
}

/// Unwraps a run step's result, or reports the failure as
/// `superpin: <benchmark>: <error>` and exits 1. A guest that faults
/// (say, under a `--mem-budget` too small for it) is an outcome of the
/// run the user asked for, not a crash of this tool.
fn or_exit<V, E: std::fmt::Display>(result: Result<V, E>, options: &Options) -> V {
    result.unwrap_or_else(|err| {
        eprintln!("superpin: {}: {err}", options.benchmark);
        std::process::exit(1);
    })
}

/// [`superpin_config`] plus the program-specific whole-program plan and
/// soundness oracle when `--plan on`: slice engines annotate the saved
/// registers the refined liveness proves dead, and (debug builds) every
/// indirect transfer and code write is validated against the static
/// analysis. Reports are bit-identical to `--plan off`.
fn superpin_config_for(program: &superpin_isa::Program, options: &Options) -> SuperPinConfig {
    let mut cfg = superpin_config(options);
    if options.plan {
        let analysis = or_exit(ProgramAnalysis::compute(program), options);
        cfg = cfg
            .with_plan(Arc::new(analysis.plan(Default::default())))
            .with_oracle(Arc::new(analysis.oracle()));
    }
    cfg
}

/// Runs `program` under SuperPin as the switches describe.
fn superpin_report<T: SuperTool>(
    program: &superpin_isa::Program,
    tool: T,
    shared: &SharedMem,
    options: &Options,
) -> SuperPinReport {
    let cfg = superpin_config_for(program, options);
    let process = or_exit(Process::load(1, program), options);
    let runner = or_exit(
        SuperPinRunner::new(process, tool, shared.clone(), cfg),
        options,
    );
    or_exit(runner.run(), options)
}

/// Runs `program` under serial Pin (`-sp 0`).
fn pin<T: Pintool + 'static>(
    program: &superpin_isa::Program,
    tool: T,
    options: &Options,
) -> PinReport<T> {
    let process = or_exit(Process::load(1, program), options);
    or_exit(run_pin(process, tool), options)
}

/// [`superpin_report`], then prints its slice, time, chaos and memory
/// lines (and the Gantt chart with `-gantt`).
fn run_super<T: SuperTool>(
    program: &superpin_isa::Program,
    tool: T,
    shared: &SharedMem,
    options: &Options,
) {
    let present = superpin_config(options);
    let report = superpin_report(program, tool, shared, options);
    println!(
        "superpin: {} slices ({} timer, {} syscall), {} stalls",
        report.slice_count(),
        report.forks_on_timeout,
        report.forks_on_syscall,
        report.stall_events
    );
    println!(
        "runtime {:.2}s presented ({} cycles); breakdown: native {:.2}s, fork&others {:.2}s, sleep {:.2}s, pipeline {:.2}s",
        present.present_secs(report.total_cycles),
        report.total_cycles,
        present.present_secs(report.breakdown.native_cycles),
        present.present_secs(report.breakdown.fork_other_cycles),
        present.present_secs(report.breakdown.sleep_cycles),
        present.present_secs(report.breakdown.pipeline_cycles),
    );
    if present.chaos.is_some() {
        println!(
            "chaos: {} slice retries, {} slices degraded",
            report.slice_retries, report.slices_degraded
        );
    }
    if present.mem_budget.is_some() {
        println!(
            "memory: peak {} bytes resident, {} slices deferred, {} checkpoints dropped, {} caches evicted",
            report.peak_resident_bytes,
            report.slices_deferred,
            report.checkpoints_dropped,
            report.caches_evicted
        );
    }
    if options.gantt {
        print!("{}", superpin_bench::render::render_gantt(&report, 100));
    }
}

fn main() {
    let options = parse_args();
    let Some(spec) = find(&options.benchmark) else {
        eprintln!("unknown benchmark `{}`", options.benchmark);
        std::process::exit(2);
    };
    let program = spec.build(options.scale);
    println!(
        "{} @ {:?}: {} static instructions",
        spec.name,
        options.scale,
        program.static_inst_count()
    );

    // The tool zoo. Each arm constructs, runs (SuperPin or plain Pin per
    // -sp), and prints its result.
    match options.tool.as_str() {
        "icount1" => {
            let shared = SharedMem::new();
            let tool = ICount1::new(&shared);
            if options.sp {
                superpin_report(&program, tool.clone(), &shared, &options);
                println!("Total Count: {}", tool.total(&shared));
            } else {
                let pin = pin(&program, tool, &options);
                println!("Total Count: {}", pin.tool.local_count());
            }
        }
        "icount2" => {
            let shared = SharedMem::new();
            let tool = ICount2::new(&shared);
            if options.sp {
                run_super(&program, tool.clone(), &shared, &options);
                println!("Total Count: {}", tool.total(&shared));
            } else {
                let pin = pin(&program, tool, &options);
                println!("Total Count: {}", pin.tool.local_count());
            }
        }
        "dcache" => {
            let shared = SharedMem::new();
            let tool = DCache::new(&shared, DCacheConfig::small());
            let result = if options.sp {
                run_super(&program, tool.clone(), &shared, &options);
                tool.merged_result(&shared)
            } else {
                pin(&program, tool, &options).tool.local_result()
            };
            println!(
                "dcache: {} hits, {} misses (miss ratio {:.2}%)",
                result.hits,
                result.misses,
                100.0 * result.miss_ratio()
            );
        }
        "dcache-assoc" => {
            use superpin_tools::{AssocDCache, AssocDCacheConfig};
            let shared = SharedMem::new();
            let tool = AssocDCache::new(&shared, AssocDCacheConfig::small());
            let result = if options.sp {
                run_super(&program, tool.clone(), &shared, &options);
                tool.merged_result(&shared)
            } else {
                pin(&program, tool, &options).tool.local_result()
            };
            println!(
                "dcache-assoc (2-way LRU): {} hits, {} misses (miss ratio {:.2}%)",
                result.hits,
                result.misses,
                100.0 * result.miss_ratio()
            );
        }
        "icache" => {
            use superpin_tools::ICache;
            let shared = SharedMem::new();
            let tool = ICache::new(&shared, DCacheConfig::small());
            let result = if options.sp {
                run_super(&program, tool.clone(), &shared, &options);
                tool.merged_result(&shared)
            } else {
                pin(&program, tool, &options).tool.local_result()
            };
            println!(
                "icache: {} hits, {} misses (miss ratio {:.2}%)",
                result.hits,
                result.misses,
                100.0 * result.miss_ratio()
            );
        }
        "bblcount" => {
            use superpin_tools::BblCount;
            let tool = BblCount::new();
            let hottest = if options.sp {
                let shared = SharedMem::new();
                run_super(&program, tool.clone(), &shared, &options);
                tool.hottest(5)
            } else {
                let pin = pin(&program, tool, &options);
                let mut blocks: Vec<(u64, u64)> = pin
                    .tool
                    .local_blocks()
                    .iter()
                    .map(|(&a, &c)| (a, c))
                    .collect();
                blocks.sort_by_key(|&(_, count)| std::cmp::Reverse(count));
                blocks.truncate(5);
                blocks
            };
            println!("bblcount: hottest blocks:");
            for (addr, count) in hottest {
                let name = program
                    .symbol_for_addr(addr)
                    .map(|sym| sym.name.as_str())
                    .unwrap_or("?");
                println!("  {addr:#08x} [{name:<10}] {count:>8} executions");
            }
        }
        "insmix" => {
            use superpin_tools::{InsMix, MixCategory};
            let shared = SharedMem::new();
            let tool = InsMix::new(&shared);
            let counts = if options.sp {
                run_super(&program, tool.clone(), &shared, &options);
                tool.merged_counts(&shared)
            } else {
                pin(&program, tool, &options).tool.local_counts()
            };
            println!("insmix ({} instructions):", counts.total());
            for category in MixCategory::ALL {
                println!(
                    "  {:<8} {:>12} ({:>5.1}%)",
                    category.label(),
                    counts.get(category),
                    100.0 * counts.fraction(category)
                );
            }
        }
        "itrace" => {
            let shared = SharedMem::new();
            let tool = ITrace::new();
            let trace = if options.sp {
                run_super(&program, tool, &shared, &options);
                ITrace::merged_trace(&shared)
            } else {
                let pin = pin(&program, tool, &options);
                ITrace::decode(pin.tool.local_buffer())
            };
            println!("itrace: {} instructions traced", trace.len());
        }
        "branch" => {
            let tool = BranchProfile::new();
            let sites = if options.sp {
                let shared = SharedMem::new();
                run_super(&program, tool.clone(), &shared, &options);
                tool.merged_sites()
            } else {
                pin(&program, tool, &options).tool.local_sites().clone()
            };
            println!("branch: {} sites profiled", sites.len());
        }
        "mem" => {
            let shared = SharedMem::new();
            let tool = MemProfile::new(&shared);
            let totals = if options.sp {
                run_super(&program, tool.clone(), &shared, &options);
                tool.merged_totals(&shared)
            } else {
                pin(&program, tool, &options).tool.local_totals()
            };
            println!(
                "mem: {} loads ({} B), {} stores ({} B)",
                totals.loads, totals.bytes_read, totals.stores, totals.bytes_written
            );
        }
        "sampler" => {
            let tool = Sampler::new(500);
            if options.sp {
                let shared = SharedMem::new();
                run_super(&program, tool.clone(), &shared, &options);
                println!("sampler: {} samples", tool.merged_samples());
            } else {
                eprintln!("sampler requires -sp 1 (it is a SuperPin tool)");
                std::process::exit(2);
            }
        }
        other => {
            eprintln!("unknown tool `{other}`");
            usage();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(text: &[&str]) -> Vec<String> {
        text.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn valid_command_line_parses() {
        let options = parse_options(&args(&[
            "-t",
            "icount2",
            "--threads",
            "4",
            "--",
            "gcc",
            "tiny",
        ]))
        .expect("parse");
        assert_eq!(options.tool, "icount2");
        assert_eq!(options.threads, 4);
        assert_eq!(options.benchmark, "gcc");
        assert_eq!(options.scale, Scale::Tiny);
        assert_eq!(options.mem_budget, None);
        assert!(options.sp);
        let serial = parse_options(&args(&["-sp", "0", "-t", "icount2", "--", "gcc"]));
        assert!(!serial.expect("parse").sp);
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
        let options = parse_options(&args(&[
            "--chaos-rate",
            "1.0",
            "-t",
            "icount2",
            "--",
            "gcc",
        ]))
        .expect("boundary is inclusive");
        assert_eq!(options.chaos_rate, Some(1.0));
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
        let options = parse_options(&args(&["--mem-budget", "1m", "-t", "icount2", "--", "gcc"]))
            .expect("parse");
        assert_eq!(options.mem_budget, Some(1 << 20));
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
    fn plan_flags_parse() {
        let options = parse_options(&args(&["--plan", "on", "-t", "icount2", "--", "gcc"]));
        assert!(options.expect("parse").plan);
        let defaults = parse_options(&args(&["-t", "icount2", "--", "gcc"])).expect("parse");
        assert!(!defaults.plan);
        assert!(
            parse_options(&args(&["--plan", "sideways", "-t", "icount2", "--", "gcc"])).is_err()
        );
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
