//! The benchmark's vocabulary: workload names, every end-to-end and
//! per-layer metric with its unit and direction, and the regression
//! bounds. `BENCHMARK.json` at the repository root repeats these tables
//! in its own schema (a test keeps the two in step); later performance
//! claims cite these names.

use crate::stats::Summary;

/// The five workloads, in run order. Names are fixed: later issues cite
/// them.
pub const WORKLOADS: [&str; 5] = [
    "steady_t1",
    "churn_t1",
    "parallel_tN",
    "record_replay",
    "fleet_durable_tN",
];

/// The workloads `BENCHMARK.json` hands its runner, which refuses a
/// benchmark whose wall time spreads or shifts by more than a quarter
/// between sets of runs and rejects later changes on the same rule. The
/// other two keep both vCPUs of the reference sandbox busy for a whole
/// repetition: their ten-seed spread read 0.06 – 0.15 whatever the clock
/// did, and five minutes of a neighbour on both cores moved the fleet's
/// median by 27 % between two sets (README, "What the reference sandbox can
/// resolve"). A gate that noisy would reject changes that touched nothing,
/// so they are measured by the full run and `--compare` only.
/// `record_replay` records at `threads = N`, which keeps the pool path
/// under the runner's eye.
pub const RUNNER_WORKLOADS: [&str; 3] = ["steady_t1", "churn_t1", "record_replay"];

/// The host clock's sensitivity per workload, in [`WORKLOADS`] order: the
/// share of the reference kernel's slowdown the workload shows when the
/// host slows, as the exponent that left its ten-seed spread smallest in
/// five sets on two days (README, "What the reference sandbox can
/// resolve"). One thread cut every few epochs follows the kernel most
/// closely; `parallel_tN` keeps both vCPUs busy, which then stand in each
/// other's way whatever the neighbours do, and follows it least. Frozen
/// with the benchmark, like the kernel.
pub const SENSITIVITY: [f64; 5] = [0.9, 0.9, 0.5, 0.7, 0.7];

/// Index of `name` in [`WORKLOADS`].
pub fn workload_index(name: &str) -> Option<usize> {
    WORKLOADS.iter().position(|w| *w == name)
}

/// Which direction is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Which workloads an end-to-end metric applies to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Applies {
    All,
    Only(&'static [&'static str]),
}

/// The ICount1 workloads, whose runs have a native and a Pin denominator.
const SLICED: Applies = Applies::Only(&["steady_t1", "churn_t1", "parallel_tN"]);

/// One end-to-end metric.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// How far the value may worsen, as a share of the base value, before
    /// it counts as a regression — the loosest over the workloads (see
    /// [`EndToEnd::bound_for`]), which is what `BENCHMARK.json` stores.
    /// 0 for the exact metrics (counts and virtual-time ratios), which
    /// must repeat exactly.
    pub bound: f64,
    applies: Applies,
}

/// The bound of `wall_s` and `guest_minst_per_s` on the `*_t1` workloads,
/// which have no thread scheduling in them.
const T1_BOUND: f64 = 0.05;

impl EndToEnd {
    /// Whether the metric is reported for `workload`.
    pub fn applies_to(&self, workload: &str) -> bool {
        match self.applies {
            Applies::All => true,
            Applies::Only(list) => list.contains(&workload),
        }
    }

    /// Whether `BENCHMARK.json` lists the metric under `end_to_end`, where
    /// its runner compares runs of different seeds and wants the key from
    /// every workload: the metrics every workload reports and whose value
    /// the seed does not move. That leaves out `peak_rss_mb`, which every
    /// workload reports but which repeats per seed and differs between
    /// seeds (`record_replay`: 29 – 41 MiB). The others are listed under
    /// `per_layer` there and held to their bounds by `--compare` alone.
    pub fn in_runner_gate(&self) -> bool {
        self.applies == Applies::All && self.name != "peak_rss_mb"
    }

    /// The bound on `workload`.
    pub fn bound_for(&self, workload: &str) -> f64 {
        let repetition = matches!(self.name, "wall_s" | "guest_minst_per_s");
        if repetition && workload.ends_with("_t1") {
            T1_BOUND
        } else {
            self.bound
        }
    }

    /// Whether the metric is host time (compared within its bound) rather
    /// than exact.
    pub fn timed(&self) -> bool {
        self.bound > 0.0
    }
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    applies: Applies,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        applies,
    }
}

/// The eleven end-to-end metrics.
pub const END_TO_END: [EndToEnd; 11] = [
    e2e("setup_s", "s", Better::Lower, 0.10, Applies::All),
    e2e("wall_s", "s", Better::Lower, 0.08, Applies::All),
    e2e(
        "guest_minst_per_s",
        "Minst/s",
        Better::Higher,
        0.08,
        Applies::All,
    ),
    e2e("peak_rss_mb", "MiB", Better::Lower, 0.05, Applies::All),
    e2e(
        "sim_slowdown_vs_native",
        "ratio",
        Better::Lower,
        0.0,
        SLICED,
    ),
    e2e("sim_speedup_vs_pin", "ratio", Better::Higher, 0.0, SLICED),
    e2e(
        "record_s",
        "s",
        Better::Lower,
        0.08,
        Applies::Only(&["record_replay"]),
    ),
    e2e(
        "replay_s",
        "s",
        Better::Lower,
        0.08,
        Applies::Only(&["record_replay"]),
    ),
    e2e(
        "log_kb",
        "KiB",
        Better::Lower,
        0.0,
        Applies::Only(&["record_replay", "fleet_durable_tN"]),
    ),
    e2e(
        "jobs_per_s",
        "jobs/s",
        Better::Higher,
        0.08,
        Applies::Only(&["fleet_durable_tN"]),
    ),
    e2e(
        "resume_s",
        "s",
        Better::Lower,
        0.08,
        Applies::Only(&["fleet_durable_tN"]),
    ),
];

/// Looks up an end-to-end metric.
pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// One per-layer metric: `(name, unit, better)`. The prefix before the
/// first `.` is the layer (crate) it belongs to. Per-layer metrics have
/// no bound; `better` says which way an optimisation should move them.
pub type Layer = (&'static str, &'static str, Better);

use Better::{Higher as H, Lower as L};

/// Every per-layer metric. See the crate README for which end-to-end
/// metric each one should move, and on which workload.
pub const PER_LAYER: &[Layer] = &[
    ("workloads.build_s", "s", L),
    ("workloads.static_insts", "count", L),
    ("isa.decode_ns_per_inst", "ns", L),
    ("vm.load_s", "s", L),
    ("vm.native_minst_per_s", "Minst/s", H),
    ("vm.fork_us", "us", L),
    ("vm.cow_copies", "count", L),
    ("vm.cow_copies_per_slice", "count", L),
    ("vm.syscall_stops", "count", L),
    ("vm.timeout_stops", "count", L),
    ("dbi.pin_minst_per_s", "Minst/s", H),
    ("dbi.pin_over_native", "ratio", L),
    ("dbi.traces_compiled", "count", L),
    ("dbi.insts_compiled", "count", L),
    ("dbi.cache_hit_ratio", "ratio", H),
    ("dbi.traces_executed", "count", L),
    ("dbi.analysis_calls", "count", L),
    ("dbi.compiled_per_kinst", "1/kinst", L),
    ("tools.icount2_minst_per_s", "Minst/s", H),
    ("tools.dcache_minst_per_s", "Minst/s", H),
    ("tools.icount1_over_icount2", "ratio", L),
    ("analysis.compute_s", "s", L),
    ("analysis.plan_s", "s", L),
    ("analysis.plan_wall_ratio", "ratio", L),
    ("sched.epochs", "count", L),
    ("sched.epochs_per_s", "1/s", H),
    ("sched.plan_us", "us", L),
    ("sched.fleet_queue_us", "us", L),
    ("core.start_s", "s", L),
    ("core.finish_s", "s", L),
    ("core.epoch_us_p50", "us", L),
    ("core.epoch_us_p99", "us", L),
    ("core.slices", "count", L),
    ("core.slices_per_s", "1/s", H),
    ("core.forks_on_timeout", "count", L),
    ("core.forks_on_syscall", "count", L),
    ("core.stall_events", "count", L),
    ("core.sig_quick_checks", "count", L),
    ("core.sig_full_checks", "count", L),
    ("core.sig_full_check_rate", "ratio", L),
    ("core.sig_detections", "count", L),
    ("core.sim_mcyc_per_s", "Mcyc/s", H),
    ("core.sim_fork_share", "ratio", L),
    ("core.sim_sleep_share", "ratio", L),
    ("core.sim_pipeline_share", "ratio", L),
    ("core.supervisor_share", "ratio", L),
    ("core.slice_fraction", "ratio", H),
    ("core.modeled_speedup", "ratio", H),
    ("core.slice_retries", "count", L),
    ("core.slices_degraded", "count", L),
    ("core.peak_resident_bytes", "B", L),
    ("fault.retries_per_run", "count", L),
    ("replay.events", "count", L),
    ("replay.log_bytes", "B", L),
    ("replay.encode_s", "s", L),
    ("replay.decode_s", "s", L),
    ("replay.encode_mb_per_s", "MB/s", H),
    ("replay.record_over_plain", "ratio", L),
    ("replay.wal_frames", "count", L),
    ("replay.wal_bytes", "B", L),
    ("replay.wal_append_us", "us", L),
    ("replay.salvage_mb_per_s", "MB/s", H),
    ("replay.recover_s", "s", L),
    ("serve.parse_s", "s", L),
    ("serve.rounds", "count", L),
    ("serve.rounds_per_s", "1/s", H),
    ("serve.round_us", "us", L),
    ("serve.deferred", "count", L),
    ("serve.degraded", "count", L),
    ("serve.evicted", "count", L),
    ("serve.turnaround_p50_mcyc", "Mcyc", L),
    ("serve.resume_over_full", "ratio", L),
    ("serve.plain_over_durable", "ratio", H),
    ("bench.raw_wall_s", "s", L),
    ("bench.host_speed", "ratio", H),
    ("bench.trace_overhead", "ratio", L),
    ("bench.rel_iqr.wall_s", "ratio", L),
    ("bench.rel_iqr.guest_minst_per_s", "ratio", L),
    ("bench.rel_iqr.record_s", "ratio", L),
    ("bench.rel_iqr.replay_s", "ratio", L),
    ("bench.rel_iqr.jobs_per_s", "ratio", L),
    ("bench.rel_iqr.resume_s", "ratio", L),
    ("bench.verify_s", "s", L),
    ("bench.self_s", "s", L),
    ("vm.self_s", "s", L),
    ("core.self_s", "s", L),
    ("replay.self_s", "s", L),
    ("serve.self_s", "s", L),
];

/// Looks up a per-layer metric.
pub fn per_layer(name: &str) -> Option<&'static Layer> {
    PER_LAYER.iter().find(|(n, _, _)| *n == name)
}

/// The unit of any metric in either table.
pub fn unit_of(name: &str) -> Option<&'static str> {
    end_to_end(name)
        .map(|m| m.unit)
        .or_else(|| per_layer(name).map(|(_, unit, _)| *unit))
}

/// Whether `name` is a legal metric or workload name: starts with a
/// letter or digit, at most 64 characters of letters, digits, `_`, `.`
/// and `-`.
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// Whether `unit` is a legal unit: 1 to 16 characters of letters,
/// digits, `_`, `/`, `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok)
}

/// One measured metric: a name from the tables and its samples'
/// summary (`n = 1` for counts and single measurements).
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name from [`END_TO_END`] or [`PER_LAYER`].
    pub name: &'static str,
    /// Median and spread.
    pub summary: Summary,
}

/// An ordered bag of metrics a workload fills in.
#[derive(Clone, Debug, Default)]
pub struct Metrics(Vec<Metric>);

impl Metrics {
    /// Records a single value. A later value under the same name
    /// replaces the earlier one.
    pub fn put(&mut self, name: &'static str, value: f64) {
        self.put_summary(name, Summary::exact(value));
    }

    /// Records a summarised sample set.
    pub fn put_summary(&mut self, name: &'static str, summary: Summary) {
        debug_assert!(unit_of(name).is_some(), "`{name}` is not in a metric table");
        match self.0.iter_mut().find(|m| m.name == name) {
            Some(existing) => existing.summary = summary,
            None => self.0.push(Metric { name, summary }),
        }
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.summary.median)
    }

    /// Every metric, in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &Metric> {
        self.0.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_validator_follows_the_contract() {
        for good in [
            "steady_t1",
            "parallel_tN",
            "core.epoch_us_p99",
            "a",
            "9lives",
            "x-y.z_0",
        ] {
            assert!(valid_name(good), "{good}");
        }
        let long = "a".repeat(65);
        for bad in [
            "",
            ".hidden",
            "-x",
            "_x",
            "has space",
            "slash/",
            "é",
            long.as_str(),
        ] {
            assert!(!valid_name(bad), "{bad:?}");
        }
        assert!(valid_name(&"a".repeat(64)));
        for good in ["s", "Minst/s", "1/s", "%", "jobs/s", "MiB"] {
            assert!(valid_unit(good), "{good}");
        }
        for bad in ["", "a b", "µs", "seventeen_chars__"] {
            assert!(!valid_unit(bad), "{bad:?}");
        }
    }

    #[test]
    fn tables_hold_only_valid_unique_names() {
        assert!(RUNNER_WORKLOADS.iter().all(|w| WORKLOADS.contains(w)));
        let mut names: Vec<&str> = WORKLOADS.to_vec();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|(name, _, _)| *name));
        for name in &names {
            assert!(valid_name(name), "{name}");
            if let Some(unit) = unit_of(name) {
                assert!(valid_unit(unit), "{name}: {unit}");
            }
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        let specific = END_TO_END.iter().filter(|m| !m.in_runner_gate());
        assert!(PER_LAYER.len() + specific.count() <= 128);
    }

    #[test]
    fn bounds_and_applicability() {
        for metric in &END_TO_END {
            // No bound is wider than a tenth.
            assert!((0.0..=0.10).contains(&metric.bound), "{}", metric.name);
            for workload in WORKLOADS {
                assert!(metric.bound_for(workload) <= metric.bound);
            }
        }
        let exact: Vec<&str> = END_TO_END
            .iter()
            .filter(|m| !m.timed())
            .map(|m| m.name)
            .collect();
        assert_eq!(
            exact,
            ["sim_slowdown_vs_native", "sim_speedup_vs_pin", "log_kb"]
        );
        let wall = end_to_end("wall_s").expect("wall_s");
        assert_eq!(wall.bound_for("steady_t1"), 0.05);
        assert_eq!(wall.bound_for("churn_t1"), 0.05);
        assert_eq!(wall.bound_for("parallel_tN"), 0.08);
        assert_eq!(
            end_to_end("setup_s")
                .expect("setup_s")
                .bound_for("steady_t1"),
            0.10
        );
        let resume = end_to_end("resume_s").expect("resume_s");
        assert!(resume.applies_to("fleet_durable_tN") && !resume.applies_to("steady_t1"));
        assert!(!resume.in_runner_gate() && wall.in_runner_gate());
        let sim = end_to_end("sim_speedup_vs_pin").expect("sim_speedup_vs_pin");
        assert!(sim.applies_to("parallel_tN") && !sim.applies_to("record_replay"));
    }

    #[test]
    fn metrics_bag_replaces_by_name() {
        let mut bag = Metrics::default();
        bag.put("core.slices", 3.0);
        bag.put("core.slices", 4.0);
        assert_eq!(bag.get("core.slices"), Some(4.0));
        assert_eq!(bag.iter().count(), 1);
        assert_eq!(bag.get("core.epochs"), None);
    }
}
