//! `superpin-perfbench`: see the crate docs and README.
//!
//! Without `--workload` the binary is the closed-loop client: it runs
//! the five workloads one after another, each in a child process (itself
//! with `--workload NAME`) so peak memory is per workload, and collects
//! their results. With `--workload` it runs that workload and ends its
//! output with the one-line result `BENCHMARK.json`'s runner reads.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use superpin_perfbench::compare::compare;
use superpin_perfbench::harness::{
    bench_threads, host_cpus, run_workload, write_file, Ctx, Protocol, Res, DEFAULT_SECONDS,
};
use superpin_perfbench::inputs::Size;
use superpin_perfbench::json::Json;
use superpin_perfbench::metrics::{workload_index, WORKLOADS};

/// Prefix of the line carrying a child's full result.
const DETAIL: &str = "detail ";

const USAGE: &str = "usage: superpin-perfbench [--seed S] [--seconds T] [--trace [0|1]] \
                     [--workload NAME] [--out FILE]\n       \
                     superpin-perfbench --compare A.json B.json";

struct Options {
    seed: u64,
    seconds: f64,
    trace: bool,
    workload: Option<usize>,
    out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_options(args: &[String]) -> Res<Options> {
    let mut options = Options {
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        workload: None,
        out: None,
        compare: None,
    };
    let mut args = args.iter().peekable();
    while let Some(flag) = args.next() {
        let mut value = |what: &str| {
            args.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--seed" => {
                let text = value("a number")?;
                options.seed = text
                    .parse()
                    .map_err(|_| format!("--seed: `{text}` is not a number"))?;
            }
            "--seconds" => {
                let text = value("a number of seconds")?;
                options.seconds = text
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("--seconds: `{text}` is not a number of seconds"))?;
            }
            "--workload" => {
                let name = value("a workload name")?;
                options.workload = Some(workload_index(&name).ok_or_else(|| {
                    format!(
                        "unknown workload `{name}`; the workloads are {}",
                        WORKLOADS.join(", ")
                    )
                })?);
            }
            "--out" => options.out = Some(PathBuf::from(value("a file")?)),
            "--compare" => {
                options.compare = Some((
                    PathBuf::from(value("two result files")?),
                    PathBuf::from(value("two result files")?),
                ));
            }
            // `--trace` alone turns tracing on; the runner's `--trace 0|1`
            // form sets it either way.
            "--trace" => {
                options.trace = match args.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        args.next();
                        false
                    }
                    Some("1") => {
                        args.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(options)
}

/// Where WAL, trace and result files go: `perfbench/` under cargo's
/// target directory.
fn out_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("target"), PathBuf::from)
        .join("perfbench")
}

fn read_json(path: &Path) -> Res<Json> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// One workload in this process. Ends with the detail line and the
/// runner's result line.
fn run_child(options: &Options, workload: usize) -> Res<bool> {
    let ctx = Ctx {
        seed: options.seed,
        size: Size::Full,
        threads: bench_threads(),
        out_dir: out_dir(),
    };
    let result = run_workload(
        workload,
        &ctx,
        Protocol::end_to_end(options.seconds),
        options.trace,
    )?;
    print!("{}", result.render());
    println!("{DETAIL}{}", result.to_json());
    println!("{}", result.contract_line(options.trace));
    Ok(result.ops.failed == 0)
}

/// All five workloads, each in its own child process, one at a time.
fn run_all(options: &Options) -> Res<bool> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    println!(
        "superpin-perfbench: seed {}, host_cpus {}, threads (tN) {}, closed loop with one client",
        options.seed,
        host_cpus(),
        bench_threads()
    );
    println!("note: the WAL runs with fsync off; disk flush cost is not measured in this sandbox");
    println!(
        "note: timed metrics are seconds at the reference host's usual speed: every chunk of \
         measured work is scaled by how fast the host ran the reference kernel around it"
    );
    let mut results = Vec::new();
    let mut all_ok = true;
    for name in WORKLOADS {
        let output = Command::new(&exe)
            .args(["--workload", name])
            .args(["--seed", &options.seed.to_string()])
            .args(["--seconds", &options.seconds.to_string()])
            .args(["--trace", if options.trace { "1" } else { "0" }])
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("starting the {name} child: {e}"))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let mut lines: Vec<&str> = stdout.lines().collect();
        lines.pop(); // the runner's result line repeats the detail line's metrics
        let detail = lines
            .pop()
            .and_then(|line| line.strip_prefix(DETAIL))
            .ok_or_else(|| {
                format!(
                    "the {name} child ended without a result ({})",
                    output.status
                )
            })?;
        println!("{}", lines.join("\n"));
        results.push(Json::parse(detail).map_err(|e| format!("{name} result: {e}"))?);
        all_ok &= output.status.success();
    }

    let field = |w: &Json, name: &str| w.get(name).and_then(Json::as_f64).unwrap_or(0.0);
    let attempted: f64 = results.iter().map(|w| field(w, "attempted")).sum();
    let failed: f64 = results.iter().map(|w| field(w, "failed")).sum();
    let wall = |name: &str| {
        let of = |w: &&Json| w.get("workload").and_then(Json::as_str) == Some(name);
        let found = results.iter().find(of)?;
        found
            .get("end_to_end")?
            .get("wall_s")?
            .get("value")?
            .as_f64()
    };
    // The one layer metric that needs two workloads: both ran here.
    let speedup = wall("steady_t1")
        .zip(wall("parallel_tN"))
        .map(|(t1, tn)| t1 / tn);
    if let Some(speedup) = speedup {
        println!(
            "core.measured_speedup (steady_t1 ÷ parallel_tN median wall, host_cpus {}): {speedup:.4}",
            host_cpus()
        );
    }
    println!("operations: attempted {attempted} failed {failed}");

    let path = options
        .out
        .clone()
        .unwrap_or_else(|| out_dir().join("result.json"));
    let document = Json::obj([
        ("seed", Json::str(options.seed.to_string())),
        ("host_cpus", Json::Num(host_cpus() as f64)),
        ("threads", Json::Num(bench_threads() as f64)),
        (
            "core.measured_speedup",
            speedup.map_or(Json::Null, Json::Num),
        ),
        ("workloads", Json::Arr(results)),
    ]);
    write_file(&path, format!("{document}\n").as_bytes())?;
    println!("results: {}", path.display());
    Ok(all_ok && failed == 0.0)
}

/// Exit code of a comparison with no regressed row but some row the runs
/// cannot resolve.
const UNRESOLVED: u8 = 3;

fn run(options: &Options) -> Res<ExitCode> {
    if let Some((a, b)) = &options.compare {
        let outcome = compare(&read_json(a)?, &read_json(b)?)?;
        print!("{}", outcome.table);
        let (_, regressed, unresolved) = outcome.counts;
        return Ok(match (regressed, unresolved) {
            (0, 0) => ExitCode::SUCCESS,
            (0, _) => ExitCode::from(UNRESOLVED),
            _ => ExitCode::from(1),
        });
    }
    let passed = match options.workload {
        Some(workload) => run_child(options, workload)?,
        None => run_all(options)?,
    };
    Ok(if passed {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse_options(&args) {
        Ok(options) => options,
        Err(err) => {
            eprintln!("superpin-perfbench: {err}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    run(&options).unwrap_or_else(|err| {
        eprintln!("superpin-perfbench: {err}");
        ExitCode::from(2)
    })
}
