//! `steady_t1`, `churn_t1` and `parallel_tN`: stretched catalog guests
//! under `ICount1`, differing only in timeslice and thread count.
//!
//! * `steady_t1` — 2000 ms paper timeslice: ~60–130 long slices per
//!   guest amortise fork, cold-cache JIT and signature search, so `vm`
//!   interpretation, `dbi` dispatch and analysis calls do nearly all the
//!   work.
//! * `churn_t1` — 100 ms timeslice over large-footprint guests: ~20×
//!   more slices, each with a cold code cache, so fork/COW, trace
//!   compile/adopt, signature checks, merge and the epoch barrier carry
//!   weight.
//! * `parallel_tN` — exactly the `steady_t1` guests and configuration
//!   with `threads = N`: isolates the worker-pool path of the runner.

use std::sync::Arc;
use std::time::Instant;

use superpin::{
    HostProfile, PlanKnobs, ProgramAnalysis, SharedMem, SuperPinConfig, SuperPinReport,
    SuperPinRunner, SuperTool,
};
use superpin_dbi::CYCLES_PER_SEC;
use superpin_replay::recipe::PRESENTED_NATIVE_SECS;
use superpin_tools::{DCache, DCacheConfig, ICount1, ICount2};
use superpin_vm::process::Process;

use crate::harness::{
    digest_reports, paired_ratio, probe_epoch_planner, report_counters, Baselines, Ctx, Ops, Rep,
    Res, Workload,
};
use crate::hostclock::HostClock;
use crate::inputs::{stretched_guest, Guest, CHURN_GUESTS, STEADY_GUESTS};
use crate::metrics::Metrics;
use crate::stats::{geomean, ratio, Fnv};
use crate::trace::Tracer;

/// Which of the three sliced workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `steady_t1`.
    Steady,
    /// `churn_t1`.
    Churn,
    /// `parallel_tN`.
    Parallel,
}

/// Forks timed by the `vm.fork_us` probe.
const FORK_PROBE_FORKS: u32 = 1000;

struct GuestRun {
    report: SuperPinReport,
    merged: u64,
    profile: HostProfile,
}

/// A prepared sliced workload.
pub struct Sliced {
    kind: Kind,
    guests: Vec<Guest>,
    threads: usize,
    paper_msec: u64,
    runs: Vec<GuestRun>,
}

impl Sliced {
    /// Generates and test-loads the guests.
    pub fn prepare(kind: Kind, ctx: &Ctx, out: &mut Metrics) -> Res<Sliced> {
        let specs = match kind {
            Kind::Steady | Kind::Parallel => STEADY_GUESTS,
            Kind::Churn => CHURN_GUESTS,
        };
        let start = Instant::now();
        let guests = specs
            .iter()
            .map(|spec| stretched_guest(*spec, ctx.size, ctx.seed))
            .collect::<Res<Vec<Guest>>>()?;
        out.put("workloads.build_s", start.elapsed().as_secs_f64());
        let start = Instant::now();
        for guest in &guests {
            std::hint::black_box(load(guest)?);
        }
        out.put("vm.load_s", start.elapsed().as_secs_f64());
        Ok(Sliced {
            kind,
            guests,
            threads: if kind == Kind::Parallel {
                ctx.threads
            } else {
                1
            },
            paper_msec: if kind == Kind::Churn { 100 } else { 2000 },
            runs: Vec::new(),
        })
    }

    /// The figure harness's configuration, with the time scale taken
    /// from the *stretched* length so the slice count per run stays in
    /// the designed range whatever K is.
    fn config(&self, guest: &Guest, threads: usize) -> SuperPinConfig {
        let time_scale = PRESENTED_NATIVE_SECS * CYCLES_PER_SEC as f64 / guest.target_insts as f64;
        SuperPinConfig::scaled(self.paper_msec, time_scale).with_threads(threads)
    }

    fn run_all(
        &self,
        threads: usize,
        tracer: &mut Tracer,
        clock: &mut HostClock,
    ) -> Res<Vec<GuestRun>> {
        self.guests
            .iter()
            .map(|guest| {
                let shared = SharedMem::new();
                let tool = ICount1::new(&shared);
                let cfg = self.config(guest, threads);
                let (report, profile) =
                    run_guest(guest, cfg, tool.clone(), &shared, tracer, clock)?;
                clock.cut();
                Ok(GuestRun {
                    report,
                    merged: tool.total(&shared),
                    profile,
                })
            })
            .collect()
    }
}

fn load(guest: &Guest) -> Res<Process> {
    Process::load(1, &guest.program).map_err(|e| format!("{} load: {e}", guest.name))
}

/// One SuperPin run of `guest`. A `threads = 1` configuration is driven
/// through `start` / `step_serial` / `finish` — the very loop `run` makes
/// on one thread — so that `clock` can be cut between epochs and, with an
/// enabled tracer, every epoch is a span. With more threads the pool owns
/// the loop and `run_profiled` is one call.
fn run_guest<T: SuperTool>(
    guest: &Guest,
    cfg: SuperPinConfig,
    tool: T,
    shared: &SharedMem,
    tracer: &mut Tracer,
    clock: &mut HostClock,
) -> Res<(SuperPinReport, HostProfile)> {
    let fail = |e: superpin::SpError| format!("{} superpin: {e}", guest.name);
    let stepped = cfg.threads == 1;
    let process = tracer.span("vm", "vm.load", |_| load(guest))?;
    let mut runner = SuperPinRunner::new(process, tool, shared.clone(), cfg).map_err(fail)?;
    if !stepped {
        return tracer
            .span("core", "core.run", |_| runner.run_profiled())
            .map_err(fail);
    }
    tracer
        .span("core", "core.start", |_| runner.start())
        .map_err(fail)?;
    while tracer
        .span("core", "core.epoch", |_| runner.step_serial())
        .map_err(fail)?
    {
        clock.cut_if_due();
    }
    let report = tracer
        .span("core", "core.finish", |_| runner.finish())
        .map_err(fail)?;
    Ok((report, HostProfile::default()))
}

impl Workload for Sliced {
    fn repeat(&mut self, tracer: &mut Tracer, clock: &mut HostClock) -> Res<Rep> {
        self.runs = self.run_all(self.threads, tracer, clock)?;
        let mut digest = Fnv::default();
        digest_reports(&mut digest, self.runs.iter().map(|r| &r.report));
        for run in &self.runs {
            digest.update(&run.merged.to_le_bytes());
        }
        Ok(Rep {
            guest_insts: self.runs.iter().map(|r| r.report.master_insts).sum(),
            samples: Vec::new(),
            digest: digest.value(),
        })
    }

    fn verify(
        &mut self,
        ops: &mut Ops,
        tracer: &mut Tracer,
        e2e: &mut Metrics,
        layers: &mut Metrics,
    ) -> Res<()> {
        let mut baselines = Baselines::default();
        let (mut slowdowns, mut speedups) = (Vec::new(), Vec::new());
        for (guest, run) in self.guests.iter().zip(&self.runs) {
            let (native_cycles, pin_cycles) = baselines.check(
                guest.name,
                &guest.program,
                run.merged,
                &run.report,
                ops,
                tracer,
            )?;
            slowdowns.push(run.report.total_cycles as f64 / native_cycles.max(1) as f64);
            speedups.push(pin_cycles as f64 / run.report.total_cycles.max(1) as f64);
        }
        e2e.put("sim_slowdown_vs_native", geomean(slowdowns));
        e2e.put("sim_speedup_vs_pin", geomean(speedups));
        baselines.put(layers);

        if self.kind == Kind::Parallel {
            // One threads = 1 run of the same programs: the reference the
            // tN reports must equal field for field.
            let reference = tracer.span("core", "core.reference_t1", |_| {
                self.run_all(1, &mut Tracer::disabled(), &mut HostClock::new(1.0))
            })?;
            for ((guest, run), refrun) in self.guests.iter().zip(&self.runs).zip(&reference) {
                ops.check(
                    run.report == refrun.report && run.merged == refrun.merged,
                    || {
                        format!(
                            "{}: threads={} report != threads=1 report",
                            guest.name, self.threads
                        )
                    },
                );
            }
        }
        Ok(())
    }

    fn layers(&mut self, median_wall_s: f64, tracer: &mut Tracer, out: &mut Metrics) -> Res<()> {
        report_counters(self.runs.iter().map(|r| &r.report), median_wall_s, out);

        // isa: the public decoder over each guest's text, once.
        let start = Instant::now();
        let static_insts: usize = tracer.span("isa", "isa.decode_text", |_| {
            self.guests
                .iter()
                .map(|g| g.program.static_inst_count())
                .sum()
        });
        out.put("workloads.static_insts", static_insts as f64);
        out.put(
            "isa.decode_ns_per_inst",
            ratio(start.elapsed().as_secs_f64() * 1e9, static_insts as f64),
        );

        // vm: mean of many forks of a process halfway through its run.
        let guest = &self.guests[0];
        let mut half = load(guest)?;
        half.run(self.runs[0].report.master_insts / 2, 0)
            .map_err(|e| format!("{} half run: {e}", guest.name))?;
        let start = Instant::now();
        tracer.span("vm", "vm.fork_probe", |_| {
            for pid in 0..FORK_PROBE_FORKS {
                std::hint::black_box(half.fork(u64::from(pid) + 2));
            }
        });
        out.put(
            "vm.fork_us",
            start.elapsed().as_secs_f64() * 1e6 / f64::from(FORK_PROBE_FORKS),
        );

        probe_epoch_planner(out);

        match self.kind {
            Kind::Steady => self.tool_and_plan_probes(tracer, out)?,
            Kind::Parallel => {
                let (supervisor_ns, slice_ns) = self.runs.iter().fold((0, 0), |(sup, sl), r| {
                    (sup + r.profile.supervisor_ns, sl + r.profile.slice_ns)
                });
                let profile = HostProfile {
                    supervisor_ns,
                    slice_ns,
                };
                out.put("core.supervisor_share", 1.0 - profile.slice_fraction());
                out.put("core.slice_fraction", profile.slice_fraction());
                // Amdahl over the measured split: a model, not a measurement.
                out.put(
                    "core.modeled_speedup",
                    profile.modeled_speedup(self.threads),
                );
                // The measured speedup needs `steady_t1`'s wall: the client
                // that ran both workloads prints it.
            }
            Kind::Churn => {}
        }
        Ok(())
    }
}

impl Sliced {
    /// `tools.*` and `analysis.*`: the first guest (gcc) under the
    /// `steady_t1` configuration, one run per tool, and one more with
    /// the superblock plan installed.
    fn tool_and_plan_probes(&self, tracer: &mut Tracer, out: &mut Metrics) -> Res<()> {
        let guest = &self.guests[0];
        let cfg = self.config(guest, 1);
        let minst = self.runs[0].report.master_insts as f64 / 1e6;
        let icount2_s = timed_run(guest, cfg.clone(), ICount2::new)?;
        let dcache_s = timed_run(guest, cfg.clone(), |s| {
            DCache::new(s, DCacheConfig::small())
        })?;
        out.put("tools.icount2_minst_per_s", ratio(minst, icount2_s));
        out.put("tools.dcache_minst_per_s", ratio(minst, dcache_s));
        out.put(
            "tools.icount1_over_icount2",
            paired_ratio(
                || timed_run(guest, cfg.clone(), ICount2::new),
                || timed_run(guest, cfg.clone(), ICount1::new),
            )?,
        );

        let start = Instant::now();
        let analysis = tracer
            .span("analysis", "analysis.compute", |_| {
                ProgramAnalysis::compute(&guest.program)
            })
            .map_err(|e| format!("{} analysis: {e}", guest.name))?;
        out.put("analysis.compute_s", start.elapsed().as_secs_f64());
        let start = Instant::now();
        let plan = tracer.span("analysis", "analysis.plan", |_| {
            analysis.plan(PlanKnobs::default())
        });
        out.put("analysis.plan_s", start.elapsed().as_secs_f64());
        let planned = cfg.clone().with_plan(Arc::new(plan));
        out.put(
            "analysis.plan_wall_ratio",
            paired_ratio(
                || timed_run(guest, cfg.clone(), ICount1::new),
                || timed_run(guest, planned.clone(), ICount1::new),
            )?,
        );
        Ok(())
    }
}

/// Wall seconds of one untraced run of `guest` under the tool `make`
/// builds.
fn timed_run<T: SuperTool>(
    guest: &Guest,
    cfg: SuperPinConfig,
    make: impl FnOnce(&SharedMem) -> T,
) -> Res<f64> {
    let shared = SharedMem::new();
    let tool = make(&shared);
    let mut untimed = HostClock::new(1.0);
    let start = Instant::now();
    run_guest(
        guest,
        cfg,
        tool,
        &shared,
        &mut Tracer::disabled(),
        &mut untimed,
    )?;
    Ok(start.elapsed().as_secs_f64())
}
