//! The measurement protocol, identical on every commit: set-up (with a
//! discarded warm-up repetition) → timed repetitions over the same
//! inputs → optional traced repetition → untimed verification → layer
//! probes. One workload per process, so `peak_rss_mb` is per workload.
//! Set-ups and repetitions are timed on a [`HostClock`]: in chunks, each
//! scaled by how fast the host ran the frozen reference kernel around it.

use std::path::{Path, PathBuf};
use std::time::Instant;

use superpin::baseline::{run_native, run_pin};
use superpin::{SharedMem, SuperPinReport};
use superpin_isa::Program;
use superpin_replay::json::report_to_json;
use superpin_tools::ICount1;
use superpin_vm::process::Process;

use crate::hostclock::{HostClock, Seconds};
use crate::inputs::Size;
use crate::json::Json;
use crate::metrics::{self, Metric, Metrics, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::{percentile, ratio, Fnv, Summary};
use crate::trace::Tracer;
use crate::{fleet, record_replay, sliced};

/// Harness-level result: library errors become messages, never panics.
pub type Res<T> = Result<T, String>;

/// Output checks counted as operations.
#[derive(Clone, Debug, Default)]
pub struct Ops {
    /// Checks made.
    pub attempted: u64,
    /// Checks that did not hold.
    pub failed: u64,
    /// What failed (first few).
    pub failures: Vec<String>,
}

impl Ops {
    /// Counts one check; `what` names it if it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 16 {
                self.failures.push(what());
            }
        }
    }
}

/// What one repetition measured.
#[derive(Clone, Debug)]
pub struct Rep {
    /// Guest instructions run under instrumentation.
    pub guest_insts: u64,
    /// Samples of the workload's own end-to-end metrics (`record_s`,
    /// `jobs_per_s`, `log_kb`, …), one per name.
    pub samples: Vec<(&'static str, f64)>,
    /// FNV-1a over every output of the repetition.
    pub digest: u64,
}

/// What `prepare` hands every workload.
#[derive(Clone, Debug)]
pub struct Ctx {
    /// `--seed`.
    pub seed: u64,
    /// Input size.
    pub size: Size,
    /// `tN`: `min(available_parallelism, 4)`, at least 2.
    pub threads: usize,
    /// Directory for WAL and trace files.
    pub out_dir: PathBuf,
}

/// One of the five workloads, set up and ready to repeat.
pub trait Workload {
    /// Runs one repetition over the prepared inputs. With an enabled
    /// tracer this is the traced repetition: spans go around every call
    /// into a library. The caller times the repetition on `clock`, which
    /// is running; the workload only cuts it — wherever the work can be
    /// split, and around what it reports as a metric of its own (whose
    /// seconds are the scaled ones).
    fn repeat(&mut self, tracer: &mut Tracer, clock: &mut HostClock) -> Res<Rep>;

    /// The untimed verification phase over the last repetition's
    /// outputs: every output check is one operation in `ops`. Also
    /// yields the exact end-to-end metrics that need a native or Pin
    /// denominator and the layer metrics measured on the way.
    fn verify(
        &mut self,
        ops: &mut Ops,
        tracer: &mut Tracer,
        e2e: &mut Metrics,
        layers: &mut Metrics,
    ) -> Res<()>;

    /// Layer probes and counters of the traced run.
    fn layers(&mut self, median_wall_s: f64, tracer: &mut Tracer, out: &mut Metrics) -> Res<()>;
}

/// Sets a workload up from the seed: program generation, loading,
/// job-text generation and parsing. Set-up layer metrics go to `out`.
pub fn prepare(workload: usize, ctx: &Ctx, out: &mut Metrics) -> Res<Box<dyn Workload>> {
    Ok(match WORKLOADS[workload] {
        "steady_t1" => Box::new(sliced::Sliced::prepare(sliced::Kind::Steady, ctx, out)?),
        "churn_t1" => Box::new(sliced::Sliced::prepare(sliced::Kind::Churn, ctx, out)?),
        "parallel_tN" => Box::new(sliced::Sliced::prepare(sliced::Kind::Parallel, ctx, out)?),
        "record_replay" => Box::new(record_replay::RecordReplay::prepare(ctx, out)?),
        _ => Box::new(fleet::FleetDurable::prepare(ctx, out)?),
    })
}

/// Alternating pairs a ratio probe runs.
pub const RATIO_PAIRS: usize = 3;

/// The cost of `num` over the cost of `den`, both in seconds, measured
/// as alternating pairs (`den`, `num`, `den`, `num`, …): the median of
/// the per-pair ratios. Identical work drifts by tens of percent within
/// a minute on a shared host; neighbours in time share most of that
/// drift, so a ratio of neighbours is far steadier than the ratio of two
/// lone samples (which is how "overheads" below 1.0 get reported).
pub fn paired_ratio(
    mut den: impl FnMut() -> Res<f64>,
    mut num: impl FnMut() -> Res<f64>,
) -> Res<f64> {
    let mut ratios = Vec::new();
    for _ in 0..RATIO_PAIRS {
        let den_s = den()?;
        ratios.push(ratio(num()?, den_s));
    }
    Ok(median(&ratios))
}

fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).map_or(0.0, |s| s.median)
}

/// Host cores available to this process.
pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The `tN` thread count on this host.
pub fn bench_threads() -> usize {
    host_cpus().clamp(2, 4)
}

/// Measured seconds per workload run when `--seconds` is not given; the
/// `run_seconds` of `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 20.0;

/// How many set-ups and repetitions a run makes.
#[derive(Clone, Copy, Debug)]
pub struct Protocol {
    /// Set-ups (each with its warm-up repetition); `setup_s` is their
    /// median.
    pub setups: usize,
    /// Timed repetitions made whatever `seconds` says.
    pub min_reps: usize,
    /// Timed repetitions never exceeded.
    pub max_reps: usize,
    /// Keep repeating (between the two limits) until this much time has
    /// been measured.
    pub seconds: f64,
}

impl Protocol {
    /// The measured run: three set-ups, seven to sixteen repetitions
    /// (`--trace` adds the traced repetitions and the layer probes). Seven
    /// is what the repetitions of the fleet, which the host stretches from
    /// two seconds to four, get whatever `seconds` says: on the workloads
    /// whose library calls cannot be cut a repetition reads 7 – 10 % off
    /// from one to the next, and the median of fewer spreads by a tenth
    /// between runs (README, "What the reference sandbox can resolve").
    pub fn end_to_end(seconds: f64) -> Protocol {
        Protocol {
            setups: 3,
            min_reps: 7,
            max_reps: 16,
            seconds,
        }
    }

    /// The tests' smoke run: two repetitions, so the cross-repetition
    /// identity check has something to compare.
    pub fn smoke() -> Protocol {
        Protocol {
            setups: 1,
            min_reps: 2,
            max_reps: 2,
            seconds: 0.0,
        }
    }
}

/// Everything one workload run produced.
#[derive(Clone, Debug)]
pub struct WorkloadResult {
    /// Workload name.
    pub workload: &'static str,
    /// `--seed`.
    pub seed: u64,
    /// Host cores.
    pub host_cpus: usize,
    /// The `tN` thread count used.
    pub threads: usize,
    /// Exactness digest of the outputs.
    pub digest: u64,
    /// Median wall seconds of a repetition as the host counted them
    /// (`wall_s` is the same scaled to the reference host's usual speed).
    pub raw_wall_s: f64,
    /// How fast the host ran during the run; 1 is the reference host's
    /// usual speed ([`HostClock::host_speed`]).
    pub host_speed: f64,
    /// Output checks.
    pub ops: Ops,
    /// End-to-end metrics that apply to the workload.
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (empty without `--trace`).
    pub per_layer: Vec<Metric>,
}

/// Runs workload number `workload` under `protocol`; with `trace`, adds
/// the traced repetition and the layer probes and writes
/// `trace-<workload>.json` into `ctx.out_dir`.
///
/// # Errors
///
/// A library call failed or a file could not be written.
pub fn run_workload(
    workload: usize,
    ctx: &Ctx,
    protocol: Protocol,
    trace: bool,
) -> Res<WorkloadResult> {
    let name = WORKLOADS[workload];
    let mut off = Tracer::disabled();
    let mut layers = Metrics::default();

    let mut clock = HostClock::new(metrics::SENSITIVITY[workload]);
    let mut setups = Vec::new();
    let mut prepared = None;
    for _ in 0..protocol.setups.max(1) {
        let (fresh, took) = clock.time(|clock| -> Res<_> {
            let mut fresh = prepare(workload, ctx, &mut layers)?;
            clock.cut();
            fresh.repeat(&mut off, clock)?;
            Ok(fresh)
        });
        setups.push(took.scaled);
        prepared = Some(fresh?);
    }
    let mut bench = prepared.expect("at least one set-up");

    let mut ops = Ops::default();
    let mut reps: Vec<(Rep, Seconds)> = Vec::new();
    let mut tracer = Tracer::disabled();
    let mut trace_ratios = Vec::new();
    let mut measured_s = 0.0;
    while reps.len() < protocol.min_reps
        || (reps.len() < protocol.max_reps && measured_s < protocol.seconds)
    {
        let (rep, wall) = clock.time(|clock| bench.repeat(&mut off, clock));
        let rep = rep?;
        let first = reps.first().map_or(rep.digest, |(r, _)| r.digest);
        ops.check(rep.digest == first, || {
            format!(
                "{name}: repetition {} produced different outputs",
                reps.len() + 1
            )
        });
        measured_s += wall.raw;
        // Each of the first few timed repetitions is followed by a traced
        // one, its neighbour in time; the arena keeps the last.
        if trace && trace_ratios.len() < RATIO_PAIRS {
            tracer = Tracer::new(workload as u32);
            let (traced, traced_wall) = clock
                .time(|clock| tracer.span("bench", "bench.repetition", |t| bench.repeat(t, clock)));
            ops.check(traced?.digest == first, || {
                format!("{name}: a traced repetition produced different outputs")
            });
            trace_ratios.push(ratio(traced_wall.scaled, wall.scaled));
        }
        reps.push((rep, wall));
    }
    let peak_rss_mb = peak_rss_mb();

    let walls: Vec<f64> = reps.iter().map(|(_, wall)| wall.scaled).collect();
    let wall = Summary::of(&walls).expect("at least one repetition");
    let raw_walls: Vec<f64> = reps.iter().map(|(_, wall)| wall.raw).collect();
    let raw_wall_s = median(&raw_walls);
    let host_speed = clock.host_speed();
    if trace {
        layers.put("bench.raw_wall_s", raw_wall_s);
        layers.put("bench.host_speed", host_speed);
        layers.put("bench.trace_overhead", median(&trace_ratios));
        // Read the arena now, while it holds one repetition and nothing
        // else: self times are shares of the workload, not of the probes.
        span_metrics(&tracer, &mut layers);
    }

    let mut e2e = Metrics::default();
    let verify_start = Instant::now();
    tracer.span("bench", "bench.verify", |t| {
        bench.verify(&mut ops, t, &mut e2e, &mut layers)
    })?;
    layers.put("bench.verify_s", verify_start.elapsed().as_secs_f64());

    let mut end_to_end = Metrics::default();
    end_to_end.put_summary(
        "setup_s",
        Summary::of(&setups).expect("at least one set-up"),
    );
    end_to_end.put_summary("wall_s", wall);
    let rates: Vec<f64> = reps
        .iter()
        .map(|(r, wall)| ratio(r.guest_insts as f64 / 1e6, wall.scaled))
        .collect();
    end_to_end.put_summary("guest_minst_per_s", Summary::of(&rates).expect("non-empty"));
    if let Some(mb) = peak_rss_mb {
        end_to_end.put("peak_rss_mb", mb);
    }
    for (metric, _) in &reps[0].0.samples {
        let samples: Vec<f64> = reps
            .iter()
            .flat_map(|(r, _)| {
                r.samples
                    .iter()
                    .filter(|(n, _)| n == metric)
                    .map(|(_, v)| *v)
            })
            .collect();
        end_to_end.put_summary(metric, Summary::of(&samples).expect("non-empty"));
    }
    for metric in e2e.iter() {
        end_to_end.put_summary(metric.name, metric.summary);
    }

    if trace {
        tracer.span("bench", "bench.layers", |t| {
            bench.layers(wall.median, t, &mut layers)
        })?;
        for (spread_name, _, _) in PER_LAYER {
            let measured = spread_name
                .strip_prefix("bench.rel_iqr.")
                .and_then(|metric| end_to_end.iter().find(|m| m.name == metric));
            if let Some(metric) = measured {
                layers.put(spread_name, metric.summary.rel_iqr());
            }
        }
        let path = ctx.out_dir.join(format!("trace-{name}.json"));
        write_file(&path, tracer.to_chrome_json().as_bytes())?;
    }

    Ok(WorkloadResult {
        workload: name,
        seed: ctx.seed,
        host_cpus: host_cpus(),
        threads: ctx.threads,
        digest: reps[0].0.digest,
        raw_wall_s,
        host_speed,
        ops,
        end_to_end: end_to_end.iter().cloned().collect(),
        per_layer: if trace {
            layers.iter().cloned().collect()
        } else {
            Vec::new()
        },
    })
}

/// Layer metrics read straight off the span arena: epoch latency
/// percentiles (every epoch of a `*_t1` traced repetition is a span)
/// and self time per layer.
fn span_metrics(tracer: &Tracer, out: &mut Metrics) {
    let epochs = tracer.durations_us("core.epoch");
    if !epochs.is_empty() {
        out.put("core.epoch_us_p50", percentile(&epochs, 50.0));
        out.put("core.epoch_us_p99", percentile(&epochs, 99.0));
        out.put("core.start_s", tracer.total_s("core.start"));
        out.put("core.finish_s", tracer.total_s("core.finish"));
    }
    for (layer, seconds) in tracer.self_time_by_layer() {
        if let Some((name, _, _)) = metrics::per_layer(&format!("{layer}.self_s")) {
            out.put(name, seconds);
        }
    }
}

/// The child's high-water resident set (`VmHWM`) in MiB; `None` where
/// `/proc` does not say.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Writes `bytes` to `path`, creating the directory.
pub fn write_file(path: &Path, bytes: &[u8]) -> Res<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    std::fs::write(path, bytes).map_err(|e| format!("writing {}: {e}", path.display()))
}

/// Folds every report's JSON projection into `digest`.
pub fn digest_reports<'a>(digest: &mut Fnv, reports: impl IntoIterator<Item = &'a SuperPinReport>) {
    for report in reports {
        digest.update(report_to_json(report).as_bytes());
    }
}

/// The counters every workload shares, summed over the reports of one
/// repetition (all five workloads end in `SuperPinReport`s). Rates use
/// `wall_s`, the untraced median.
pub fn report_counters<'a>(
    reports: impl IntoIterator<Item = &'a SuperPinReport>,
    wall_s: f64,
    out: &mut Metrics,
) {
    let mut sum = Counters::default();
    for report in reports {
        sum.add(report);
    }
    let f = |v: u64| v as f64;
    out.put("vm.cow_copies", f(sum.cow_copies));
    out.put(
        "vm.cow_copies_per_slice",
        ratio(f(sum.cow_copies), f(sum.slices)),
    );
    out.put("vm.syscall_stops", f(sum.syscall_stops));
    out.put("vm.timeout_stops", f(sum.timeout_stops));
    out.put("dbi.traces_compiled", f(sum.traces_compiled));
    out.put("dbi.insts_compiled", f(sum.insts_compiled));
    out.put(
        "dbi.cache_hit_ratio",
        ratio(f(sum.cache_hits), f(sum.cache_lookups)),
    );
    out.put("dbi.traces_executed", f(sum.traces_executed));
    out.put("dbi.analysis_calls", f(sum.analysis_calls));
    out.put(
        "dbi.compiled_per_kinst",
        ratio(f(sum.traces_compiled) * 1e3, f(sum.insts)),
    );
    out.put("sched.epochs", f(sum.epochs));
    out.put("sched.epochs_per_s", ratio(f(sum.epochs), wall_s));
    out.put("core.slices", f(sum.slices));
    out.put("core.slices_per_s", ratio(f(sum.slices), wall_s));
    out.put("core.forks_on_timeout", f(sum.forks_on_timeout));
    out.put("core.forks_on_syscall", f(sum.forks_on_syscall));
    out.put("core.stall_events", f(sum.stall_events));
    out.put("core.sig_quick_checks", f(sum.sig_quick));
    out.put("core.sig_full_checks", f(sum.sig_full));
    out.put(
        "core.sig_full_check_rate",
        ratio(f(sum.sig_full), f(sum.sig_quick)),
    );
    out.put("core.sig_detections", f(sum.sig_detections));
    out.put(
        "core.sim_mcyc_per_s",
        ratio(f(sum.total_cycles) / 1e6, wall_s),
    );
    out.put(
        "core.sim_fork_share",
        ratio(f(sum.fork_cycles), f(sum.total_cycles)),
    );
    out.put(
        "core.sim_sleep_share",
        ratio(f(sum.sleep_cycles), f(sum.total_cycles)),
    );
    out.put(
        "core.sim_pipeline_share",
        ratio(f(sum.pipeline_cycles), f(sum.total_cycles)),
    );
    out.put("core.slice_retries", f(sum.slice_retries));
    out.put("core.slices_degraded", f(sum.slices_degraded));
}

#[derive(Default)]
struct Counters {
    insts: u64,
    slices: u64,
    epochs: u64,
    cow_copies: u64,
    syscall_stops: u64,
    timeout_stops: u64,
    traces_compiled: u64,
    insts_compiled: u64,
    cache_hits: u64,
    cache_lookups: u64,
    traces_executed: u64,
    analysis_calls: u64,
    forks_on_timeout: u64,
    forks_on_syscall: u64,
    stall_events: u64,
    sig_quick: u64,
    sig_full: u64,
    sig_detections: u64,
    total_cycles: u64,
    fork_cycles: u64,
    sleep_cycles: u64,
    pipeline_cycles: u64,
    slice_retries: u64,
    slices_degraded: u64,
}

impl Counters {
    fn add(&mut self, r: &SuperPinReport) {
        self.insts += r.master_insts;
        self.slices += r.slices.len() as u64;
        self.epochs += r.epochs;
        self.cow_copies += r.master_cow_copies;
        self.syscall_stops += r.ptrace.syscall_stops;
        self.timeout_stops += r.ptrace.timeout_stops;
        for slice in &r.slices {
            self.cow_copies += slice.cow_copies;
            self.traces_compiled += slice.cache.traces_compiled;
            self.insts_compiled += slice.cache.insts_compiled;
            self.cache_hits += slice.cache.hits;
            self.cache_lookups += slice.cache.lookups;
            self.traces_executed += slice.engine.traces_executed;
            self.analysis_calls += slice.engine.analysis_calls;
        }
        self.forks_on_timeout += r.forks_on_timeout;
        self.forks_on_syscall += r.forks_on_syscall;
        self.stall_events += r.stall_events;
        self.sig_quick += r.sig_stats.quick_checks;
        self.sig_full += r.sig_stats.full_checks;
        self.sig_detections += r.sig_stats.detections;
        self.total_cycles += r.total_cycles;
        self.fork_cycles += r.breakdown.fork_other_cycles;
        self.sleep_cycles += r.breakdown.sleep_cycles;
        self.pipeline_cycles += r.breakdown.pipeline_cycles;
        self.slice_retries += r.slice_retries;
        self.slices_degraded += r.slices_degraded;
    }
}

/// The native and Pin runs the verification phase checks every ICount1
/// guest against, with their host time — which is also the `vm` and
/// `dbi` layers' own throughput with no slicing on top.
#[derive(Clone, Copy, Debug, Default)]
pub struct Baselines {
    native_s: f64,
    pin_s: f64,
    insts: u64,
}

impl Baselines {
    /// Runs `program` natively and under serial Pin with `ICount1`, and
    /// checks the paper's invariant — merged sliced count == Pin count ==
    /// native instruction count — as three operations. Returns
    /// `(native cycles, pin cycles)`, the virtual-time denominators.
    pub fn check(
        &mut self,
        name: &str,
        program: &Program,
        merged: u64,
        report: &SuperPinReport,
        ops: &mut Ops,
        tracer: &mut Tracer,
    ) -> Res<(u64, u64)> {
        let load = || Process::load(1, program).map_err(|e| format!("{name} load: {e}"));
        let start = Instant::now();
        let native = tracer
            .span("vm", "vm.run_native", |_| {
                run_native(load()?).map_err(|e| e.to_string())
            })
            .map_err(|e| format!("{name} native: {e}"))?;
        self.native_s += start.elapsed().as_secs_f64();
        let start = Instant::now();
        let pin = tracer
            .span("dbi", "dbi.run_pin", |_| {
                run_pin(load()?, ICount1::new(&SharedMem::new())).map_err(|e| e.to_string())
            })
            .map_err(|e| format!("{name} pin: {e}"))?;
        self.pin_s += start.elapsed().as_secs_f64();
        self.insts += native.insts;

        ops.check(merged == native.insts, || {
            format!("{name}: merged ICount1 {merged} != native {}", native.insts)
        });
        ops.check(pin.tool.local_count() == native.insts, || {
            format!(
                "{name}: Pin count {} != native {}",
                pin.tool.local_count(),
                native.insts
            )
        });
        ops.check(report.master_insts == native.insts, || {
            format!(
                "{name}: master ran {} insts, native {}",
                report.master_insts, native.insts
            )
        });
        Ok((native.cycles, pin.cycles))
    }

    /// Records the `vm` / `dbi` throughput the baseline runs measured.
    pub fn put(&self, out: &mut Metrics) {
        out.put(
            "vm.native_minst_per_s",
            ratio(self.insts as f64 / 1e6, self.native_s),
        );
        out.put(
            "dbi.pin_minst_per_s",
            ratio(self.insts as f64 / 1e6, self.pin_s),
        );
        out.put("dbi.pin_over_native", ratio(self.pin_s, self.native_s));
    }
}

/// `EpochPlanner::plan` over eight synthetic slice ETAs, ten thousand
/// times: microseconds per call.
pub fn probe_epoch_planner(out: &mut Metrics) {
    use superpin_sched::{EpochPlanner, SliceEta};
    const CALLS: u64 = 10_000;
    let planner = EpochPlanner::new(256);
    let etas: Vec<(SliceEta, u64)> = (1..=8u64)
        .map(|i| {
            let eta = SliceEta {
                ticks_spent: 12_000 * i,
                insts_done: 1_000 * i,
                insts_total: 50_000 + 3_000 * i,
            };
            (eta, 20_000)
        })
        .collect();
    let start = Instant::now();
    let mut sink = 0u64;
    for call in 0..CALLS {
        let deadline = Some(std::hint::black_box(40 + call % 7));
        sink += planner.plan(deadline, std::hint::black_box(&etas).iter().copied());
    }
    std::hint::black_box(sink);
    out.put(
        "sched.plan_us",
        start.elapsed().as_secs_f64() * 1e6 / CALLS as f64,
    );
}

impl WorkloadResult {
    /// The full result as JSON — what result files hold and `--compare`
    /// reads back.
    pub fn to_json(&self) -> Json {
        let block = |list: &[Metric]| {
            Json::obj(list.iter().map(|m| {
                let s = m.summary;
                let unit = metrics::unit_of(m.name).unwrap_or("");
                let mut fields = vec![("value", Json::Num(s.median)), ("unit", Json::str(unit))];
                if s.n > 1 {
                    fields.extend([
                        ("p25", Json::Num(s.p25)),
                        ("p75", Json::Num(s.p75)),
                        ("min", Json::Num(s.min)),
                        ("max", Json::Num(s.max)),
                    ]);
                }
                fields.push(("n", Json::Num(s.n as f64)));
                (m.name, Json::obj(fields))
            }))
        };
        Json::obj([
            ("workload", Json::str(self.workload)),
            ("seed", Json::str(self.seed.to_string())),
            ("host_cpus", Json::Num(self.host_cpus as f64)),
            ("threads", Json::Num(self.threads as f64)),
            ("digest", Json::str(format!("{:016x}", self.digest))),
            ("raw_wall_s", Json::Num(self.raw_wall_s)),
            ("host_speed", Json::Num(self.host_speed)),
            ("attempted", Json::Num(self.ops.attempted as f64)),
            ("failed", Json::Num(self.ops.failed as f64)),
            ("end_to_end", block(&self.end_to_end)),
            ("per_layer", block(&self.per_layer)),
        ])
    }

    /// The last line of a `--workload` run: exactly `correct`,
    /// `attempted`, `failed` and `metrics`. With `trace` off the metrics
    /// are the `end_to_end` entries of `BENCHMARK.json`
    /// ([`metrics::EndToEnd::in_runner_gate`]); with it on, its `per_layer`
    /// entries (every other metric). That file's runner wants every key it
    /// declares from every workload, so here — and only here — a metric
    /// that does not apply to the workload reads 0.
    pub fn contract_line(&self, trace: bool) -> String {
        let entry = |name: &'static str, unit: &str, list: &[Metric]| {
            let value = list.iter().find(|m| m.name == name);
            let value = value.map_or(0.0, |m| m.summary.median);
            (
                name,
                Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
            )
        };
        let mut metrics: Vec<(&str, Json)> = END_TO_END
            .iter()
            .filter(|m| m.in_runner_gate() != trace)
            .map(|m| entry(m.name, m.unit, &self.end_to_end))
            .collect();
        if trace {
            let layers = PER_LAYER.iter();
            metrics.extend(layers.map(|(name, unit, _)| entry(name, unit, &self.per_layer)));
        }
        Json::obj([
            ("correct", Json::Bool(self.ops.failed == 0)),
            ("attempted", Json::Num(self.ops.attempted as f64)),
            ("failed", Json::Num(self.ops.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
        .to_string()
    }

    /// The human-readable table.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== {} (seed {}, host_cpus {}, threads {}) ==",
            self.workload, self.seed, self.host_cpus, self.threads
        );
        let _ = writeln!(
            out,
            "  host speed {:.3} of the reference host's usual; a repetition took {:.6} s unscaled",
            self.host_speed, self.raw_wall_s
        );
        let _ = writeln!(
            out,
            "  {:<34} {:>14} {:<8} {:>12} {:>12} {:>12} {:>12} {:>3}",
            "metric", "median", "unit", "p25", "p75", "min", "max", "n"
        );
        for (title, list) in [
            ("end to end", &self.end_to_end),
            ("per layer", &self.per_layer),
        ] {
            if list.is_empty() {
                continue;
            }
            let _ = writeln!(out, "  -- {title} --");
            for m in list {
                let s = m.summary;
                let unit = metrics::unit_of(m.name).unwrap_or("");
                if s.n > 1 {
                    let _ = writeln!(
                        out,
                        "  {:<34} {:>14.6} {:<8} {:>12.6} {:>12.6} {:>12.6} {:>12.6} {:>3}",
                        m.name, s.median, unit, s.p25, s.p75, s.min, s.max, s.n
                    );
                } else {
                    let _ = writeln!(out, "  {:<34} {:>14.6} {:<8}", m.name, s.median, unit);
                }
            }
        }
        let _ = writeln!(
            out,
            "  operations: attempted {} failed {}   digest {:016x}",
            self.ops.attempted, self.ops.failed, self.digest
        );
        for failure in &self.ops.failures {
            let _ = writeln!(out, "  FAILED: {failure}");
        }
        out
    }
}
