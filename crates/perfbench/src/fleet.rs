//! `fleet_durable_tN`: the service path, journalled and recovered.
//!
//! A seeded 12-job, 3-tenant mix over every servable tool runs through
//! `serve` rounds, `sched::FleetQueue`, `core`'s tenant ledger, the
//! worker pool and a WAL on a real file.
//!
//! * **Step A** — `run_service_durable` with `FleetWal::create`,
//!   `FsyncPolicy::Off`. (fsync cost is deliberately not measured: the
//!   sandbox disk says nothing about a real one.)
//! * **Step B** — the WAL is cut at 90 % of its bytes, mid-frame, then
//!   `recover_fleet_wal` → truncate → `FleetWal::resume` →
//!   `run_service_durable` to completion, as `spin-serve --resume` does.

use std::fs::{File, OpenOptions};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Instant;

use superpin::baseline::run_native;
use superpin_replay::wal::WAL_FRAME_RECORD;
use superpin_replay::{
    recover_fleet_wal, salvage, FleetRecipe, FleetRecovery, FsyncPolicy, MemSink, WalWriter,
};
use superpin_sched::FleetQueue;
use superpin_serve::{
    parse_jobs, run_service, run_service_durable, Durability, FleetConfig, FleetWal, JobFile,
    ServiceReport,
};
use superpin_vm::process::Process;
use superpin_workloads::find;

use crate::harness::{digest_reports, paired_ratio, probe_epoch_planner, report_counters};
use crate::harness::{Ctx, Ops, Rep, Res, Workload};
use crate::hostclock::HostClock;
use crate::inputs::fleet_job_text;
use crate::metrics::Metrics;
use crate::stats::{ratio, Fnv};
use crate::trace::Tracer;

/// Jobs advanced per round.
const SLOTS: usize = 4;

/// Paper-time timeslice of every job.
const SPMSEC: u64 = 1000;

/// The frozen fleet budget: small enough that the admission ladder
/// engages (code caches are evicted on every seed), large enough to stay
/// clear of the thrashing cliff a little below it, where evictions and
/// wall time grow by orders of magnitude. See the README for the probe.
pub const FLEET_BUDGET: u64 = 500 << 10;

/// Where step B cuts the WAL: nine tenths of its bytes — late enough
/// that recovery has a long committed prefix to verify, early enough
/// that live rounds remain after it.
const CUT_NUM: usize = 9;
const CUT_DEN: usize = 10;

/// Distinguishes the WAL files of workloads prepared in one process
/// (tests run on parallel threads).
static INSTANCE: AtomicU32 = AtomicU32::new(0);

struct Outputs {
    full: ServiceReport,
    resumed: ServiceReport,
    degraded: [bool; 2],
    wal: Vec<u8>,
    healed_wal: Vec<u8>,
    cut_len: usize,
    step_a_s: f64,
    resume_s: f64,
}

/// The prepared workload.
pub struct FleetDurable {
    file: JobFile,
    cfg: FleetConfig,
    recipe: FleetRecipe,
    wal_path: PathBuf,
    out: Option<Outputs>,
}

impl FleetDurable {
    /// Generates the job file from the seed and parses it.
    pub fn prepare(ctx: &Ctx, out: &mut Metrics) -> Res<FleetDurable> {
        let spec_text = fleet_job_text(ctx.seed, ctx.size);
        let start = Instant::now();
        let file = parse_jobs(&spec_text).map_err(|e| format!("generated job file: {e}"))?;
        out.put("serve.parse_s", start.elapsed().as_secs_f64());
        let cfg = FleetConfig {
            threads: ctx.threads,
            slots: SLOTS,
            fleet_budget: Some(FLEET_BUDGET),
            chaos: None,
            spmsec: SPMSEC,
        };
        let recipe = FleetRecipe {
            spec_text,
            threads: cfg.threads as u32,
            slots: cfg.slots as u32,
            fleet_budget: cfg.fleet_budget,
            chaos: None,
            spmsec: cfg.spmsec,
        };
        std::fs::create_dir_all(&ctx.out_dir)
            .map_err(|e| format!("creating {}: {e}", ctx.out_dir.display()))?;
        let wal_path = ctx.out_dir.join(format!(
            "fleet-{}-{}.spwal",
            std::process::id(),
            INSTANCE.fetch_add(1, Ordering::Relaxed)
        ));
        Ok(FleetDurable {
            file,
            cfg,
            recipe,
            wal_path,
            out: None,
        })
    }

    fn io<T>(&self, what: &str, result: std::io::Result<T>) -> Res<T> {
        result.map_err(|e| format!("{what} {}: {e}", self.wal_path.display()))
    }

    fn outputs(&self) -> Res<&Outputs> {
        self.out
            .as_ref()
            .ok_or_else(|| "no repetition has run".to_owned())
    }

    fn recover(&self, bytes: &[u8]) -> Res<FleetRecovery> {
        recover_fleet_wal(bytes).map_err(|e| format!("recovering the WAL: {e}"))
    }
}

impl FleetDurable {
    /// Step A: the uninterrupted durable run on a fresh WAL file. Returns
    /// the report and whether the WAL degraded.
    fn step_a(&self, tracer: &mut Tracer) -> Res<(ServiceReport, bool)> {
        let sink = self.io("creating", File::create(&self.wal_path))?;
        let wal = FleetWal::create(Box::new(sink), &self.recipe, FsyncPolicy::Off, None)
            .map_err(|e| format!("opening the WAL: {e}"))?;
        let mut dur = Durability {
            wal: Some(wal),
            resume: Default::default(),
        };
        let report = tracer
            .span("serve", "serve.run_service_durable", |_| {
                run_service_durable(&self.file, &self.cfg, &mut dur)
            })
            .map_err(|e| format!("fleet run: {e}"))?;
        Ok((report, dur.status().is_some_and(|s| s.degraded)))
    }
}

impl Drop for FleetDurable {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.wal_path);
    }
}

impl Workload for FleetDurable {
    fn repeat(&mut self, tracer: &mut Tracer, clock: &mut HostClock) -> Res<Rep> {
        clock.cut();
        let mark = clock.total();
        let (full, degraded_a) = tracer.span("serve", "serve.step_a", |t| self.step_a(t))?;
        clock.cut();
        let step_a_s = (clock.total() - mark).scaled;

        // The simulated kill: the file loses its last tenth, mid-frame.
        let wal = self.io("reading", std::fs::read(&self.wal_path))?;
        let cut_len = wal.len() * CUT_NUM / CUT_DEN;
        let handle = self.io(
            "opening",
            OpenOptions::new().write(true).open(&self.wal_path),
        )?;
        self.io("cutting", handle.set_len(cut_len as u64))?;
        drop(handle);

        // Step B: read + recover + truncate + re-execute + finish.
        clock.cut();
        let mark = clock.total();
        let (resumed, degraded_b) = tracer.span("serve", "serve.step_b", |t| -> Res<_> {
            let bytes = self.io("reading", std::fs::read(&self.wal_path))?;
            let recovery = t.span("replay", "replay.recover_fleet_wal", |_| {
                self.recover(&bytes)
            })?;
            let file = t
                .span("serve", "serve.parse_jobs", |_| {
                    parse_jobs(&recovery.recipe.spec_text)
                })
                .map_err(|e| format!("journalled job file: {e}"))?;
            let cfg = FleetConfig {
                threads: self.cfg.threads,
                slots: recovery.recipe.slots as usize,
                fleet_budget: recovery.recipe.fleet_budget,
                chaos: recovery.recipe.chaos,
                spmsec: recovery.recipe.spmsec,
            };
            let handle = self.io(
                "opening",
                OpenOptions::new().write(true).open(&self.wal_path),
            )?;
            self.io("truncating", handle.set_len(recovery.committed_len as u64))?;
            drop(handle);
            let sink = self.io(
                "reopening",
                OpenOptions::new().append(true).open(&self.wal_path),
            )?;
            let rounds = recovery.rounds.len() as u64;
            let wal = FleetWal::resume(
                Box::new(sink),
                FsyncPolicy::Off,
                None,
                1 + 2 * rounds,
                rounds,
            );
            let mut dur = Durability {
                wal: Some(wal),
                resume: recovery.rounds.into(),
            };
            let report = t
                .span("serve", "serve.run_service_durable", |_| {
                    run_service_durable(&file, &cfg, &mut dur)
                })
                .map_err(|e| format!("resumed fleet run: {e}"))?;
            Ok((report, dur.status().is_some_and(|s| s.degraded)))
        })?;
        clock.cut();
        let resume_s = (clock.total() - mark).scaled;
        let healed_wal = self.io("reading", std::fs::read(&self.wal_path))?;

        let mut digest = Fnv::default();
        digest.update(full.jsonl().as_bytes());
        digest.update(resumed.jsonl().as_bytes());
        digest.update(&wal);
        digest.update(&healed_wal);
        digest_reports(&mut digest, full.outcomes.iter().map(|o| &o.report));
        let insts = |r: &ServiceReport| {
            r.outcomes
                .iter()
                .map(|o| o.report.master_insts)
                .sum::<u64>()
        };
        let rep = Rep {
            guest_insts: insts(&full) + insts(&resumed),
            samples: vec![
                ("jobs_per_s", ratio(self.file.jobs.len() as f64, step_a_s)),
                ("resume_s", resume_s),
                ("log_kb", wal.len() as f64 / 1024.0),
            ],
            digest: digest.value(),
        };
        self.out = Some(Outputs {
            full,
            resumed,
            degraded: [degraded_a, degraded_b],
            wal,
            healed_wal,
            cut_len,
            step_a_s,
            resume_s,
        });
        Ok(rep)
    }

    fn verify(
        &mut self,
        ops: &mut Ops,
        tracer: &mut Tracer,
        _e2e: &mut Metrics,
        _layers: &mut Metrics,
    ) -> Res<()> {
        let out = self.outputs()?;
        let serial = FleetConfig {
            threads: 1,
            ..self.cfg.clone()
        };
        let reference = tracer
            .span("serve", "serve.reference_t1", |_| {
                run_service(&self.file, &serial)
            })
            .map_err(|e| format!("threads=1 reference fleet: {e}"))?;
        let jsonl = out.full.jsonl();
        ops.check(jsonl == reference.jsonl(), || {
            format!("fleet jsonl at threads={} != threads=1", self.cfg.threads)
        });
        ops.check(out.resumed.jsonl() == jsonl, || {
            "resumed jsonl != uninterrupted".to_owned()
        });
        ops.check(out.healed_wal == out.wal, || {
            "healed WAL bytes != uninterrupted WAL".to_owned()
        });
        ops.check(!out.degraded[0], || {
            "the WAL degraded during step A".to_owned()
        });
        ops.check(!out.degraded[1], || {
            "the WAL degraded during step B".to_owned()
        });
        for outcome in &out.full.outcomes {
            let name = format!("job {} ({})", outcome.job, outcome.workload);
            let spec =
                find(&outcome.workload).ok_or_else(|| format!("{name}: not in the catalog"))?;
            let process = Process::load(1, &spec.build(outcome.scale))
                .map_err(|e| format!("{name} load: {e}"))?;
            let native = tracer
                .span("vm", "vm.run_native", |_| run_native(process))
                .map_err(|e| format!("{name} native: {e}"))?;
            let report = &outcome.report;
            ops.check(
                report.master_insts == native.insts && report.slice_inst_total() == native.insts,
                || {
                    format!(
                        "{name}: master {} / slices {} insts, native {}",
                        report.master_insts,
                        report.slice_inst_total(),
                        native.insts
                    )
                },
            );
        }
        Ok(())
    }

    fn layers(&mut self, _median_wall_s: f64, tracer: &mut Tracer, m: &mut Metrics) -> Res<()> {
        let out = self.outputs()?;
        report_counters(out.full.outcomes.iter().map(|o| &o.report), out.step_a_s, m);
        probe_epoch_planner(m);

        let rounds = out.full.rounds as f64;
        m.put("serve.rounds", rounds);
        m.put("serve.rounds_per_s", ratio(rounds, out.step_a_s));
        m.put("serve.round_us", ratio(out.step_a_s * 1e6, rounds));
        let counters = |f: fn(&superpin::TenantCounters) -> u64| {
            out.full.tenants.iter().map(|t| f(&t.counters)).sum::<u64>() as f64
        };
        m.put("serve.deferred", counters(|c| c.deferred));
        m.put("serve.degraded", counters(|c| c.degraded));
        m.put("serve.evicted", counters(|c| c.evicted));
        m.put(
            "serve.turnaround_p50_mcyc",
            out.full.turnaround_percentile(50.0) as f64 / 1e6,
        );
        m.put("serve.resume_over_full", ratio(out.resume_s, out.step_a_s));
        let timed = |durable: bool| -> Res<f64> {
            let start = Instant::now();
            if durable {
                self.step_a(&mut Tracer::disabled())?;
            } else {
                run_service(&self.file, &self.cfg)
                    .map_err(|e| format!("WAL-off fleet run: {e}"))?;
            }
            Ok(start.elapsed().as_secs_f64())
        };
        m.put(
            "serve.plain_over_durable",
            paired_ratio(|| timed(true), || timed(false))?,
        );

        // The WAL layer on its own, over this run's bytes and frames.
        let start = Instant::now();
        let salvaged = tracer
            .span("replay", "replay.salvage", |_| salvage(&out.wal))
            .map_err(|e| format!("salvaging the WAL: {e}"))?;
        m.put(
            "replay.salvage_mb_per_s",
            ratio(out.wal.len() as f64 / 1e6, start.elapsed().as_secs_f64()),
        );
        m.put("replay.wal_frames", salvaged.frames.len() as f64);
        m.put("replay.wal_bytes", out.wal.len() as f64);
        let start = Instant::now();
        tracer.span("replay", "replay.recover_fleet_wal", |_| {
            self.recover(&out.wal[..out.cut_len])
        })?;
        m.put("replay.recover_s", start.elapsed().as_secs_f64());

        let frames = self.recover(&out.wal)?.rounds;
        let mut writer = WalWriter::create(Box::new(MemSink::new()), FsyncPolicy::Off, None)
            .map_err(|e| format!("in-memory WAL: {e}"))?;
        let start = Instant::now();
        for frame in &frames {
            writer
                .append_committed(WAL_FRAME_RECORD, &frame.encode(), frame.round)
                .map_err(|e| format!("in-memory WAL append: {e}"))?;
        }
        m.put(
            "replay.wal_append_us",
            ratio(start.elapsed().as_secs_f64() * 1e6, frames.len() as f64),
        );
        m.put(
            "core.peak_resident_bytes",
            frames
                .iter()
                .map(|f| f.usages.iter().sum::<u64>())
                .max()
                .unwrap_or(0) as f64,
        );

        // sched: the run's own select/charge sequence through a FleetQueue.
        let mut queue = FleetQueue::new();
        for (id, job) in self.file.jobs.iter().enumerate() {
            queue.add(id as u32, self.file.tenants[job.tenant as usize].weight);
        }
        let start = Instant::now();
        for frame in &frames {
            std::hint::black_box(queue.select(SLOTS));
            for (id, delta) in frame.selected.iter().zip(&frame.deltas) {
                queue.charge(*id, *delta);
            }
        }
        m.put(
            "sched.fleet_queue_us",
            ratio(start.elapsed().as_secs_f64() * 1e6, frames.len() as f64),
        );
        Ok(())
    }
}
