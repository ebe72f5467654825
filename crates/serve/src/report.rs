//! Service-run results: per-job outcomes, per-tenant scoreboards, and
//! their deterministic renderings.
//!
//! Everything here renders from simulated quantities only — virtual
//! clocks, counters, report fields — so two runs that made the same
//! decisions render byte-identical text and JSON no matter the thread
//! count or host. That property is what the determinism suite and the
//! CI `t1` vs `t4` byte-diff assert.

use superpin::{json, SuperPinReport, TenantCounters};
use superpin_replay::json::write_report;
use superpin_replay::FleetEvent;
use superpin_workloads::Scale;

/// One completed job.
#[derive(Clone, Debug)]
pub struct JobOutcome {
    /// Job index in spec order.
    pub job: u32,
    /// Owning tenant's name.
    pub tenant: String,
    /// Workload name.
    pub workload: String,
    /// Workload scale.
    pub scale: Scale,
    /// Tool name.
    pub tool: String,
    /// Arrival time in fleet virtual cycles.
    pub arrive: u64,
    /// Fleet virtual time at the round barrier observing completion.
    pub complete: u64,
    /// `complete − arrive`, in fleet virtual cycles.
    pub turnaround: u64,
    /// Whether admission was degraded (budget-clamped).
    pub degraded: bool,
    /// The job's full SuperPin report.
    pub report: SuperPinReport,
}

impl JobOutcome {
    /// The outcome as one deterministic JSON line (fixed field order;
    /// the embedded report is `spin-replay`'s report JSON).
    pub fn to_json(&self) -> String {
        let mut w = json::object();
        w.uint("job", self.job.into())
            .string("tenant", &self.tenant)
            .string("workload", &self.workload)
            .string("scale", self.scale.name())
            .string("tool", &self.tool)
            .uint("arrive", self.arrive)
            .uint("complete", self.complete)
            .uint("turnaround", self.turnaround)
            .boolean("degraded", self.degraded)
            .key("report")
            .object();
        write_report(&mut w, &self.report);
        w.finish()
    }
}

/// One tenant's scoreboard at the end of the run.
#[derive(Clone, Debug)]
pub struct TenantSummary {
    /// Tenant name.
    pub name: String,
    /// Fair-share weight.
    pub weight: u64,
    /// Ledger counters (admitted / deferred / degraded / evicted).
    pub counters: TenantCounters,
    /// Jobs that ran to completion.
    pub completed: u64,
}

/// A complete service run: every job's outcome, every tenant's
/// scoreboard, and the scheduler's decision trace.
#[derive(Clone, Debug)]
pub struct ServiceReport {
    /// Outcomes in job-id order (every job completes — the fleet
    /// admits degraded rather than rejecting).
    pub outcomes: Vec<JobOutcome>,
    /// Per-tenant scoreboards in tenant-id order.
    pub tenants: Vec<TenantSummary>,
    /// Fleet rounds driven.
    pub rounds: u64,
    /// Final fleet virtual time in cycles.
    pub fleet_cycles: u64,
    /// The decision trace (the journal records it round by round).
    pub events: Vec<FleetEvent>,
}

impl ServiceReport {
    /// All outcome lines, one JSON object per line, job-id order.
    pub fn jsonl(&self) -> String {
        let mut out = String::new();
        for outcome in &self.outcomes {
            out.push_str(&outcome.to_json());
            out.push('\n');
        }
        out
    }

    /// Deterministic human-readable summary.
    pub fn render_text(&self) -> String {
        let mut out = format!(
            "fleet: {} jobs over {} tenants, {} rounds, {} virtual cycles\n",
            self.outcomes.len(),
            self.tenants.len(),
            self.rounds,
            self.fleet_cycles,
        );
        for tenant in &self.tenants {
            out.push_str(&format!(
                "tenant {}: weight {}, admitted {}, deferred {}, degraded {}, \
                 evictions {}, completed {}\n",
                tenant.name,
                tenant.weight,
                tenant.counters.admitted,
                tenant.counters.deferred,
                tenant.counters.degraded,
                tenant.counters.evicted,
                tenant.completed,
            ));
        }
        for o in &self.outcomes {
            out.push_str(&format!(
                "job {}: tenant={} workload={} scale={} tool={} arrive={} \
                 complete={} turnaround={} degraded={} slices={}\n",
                o.job,
                o.tenant,
                o.workload,
                o.scale.name(),
                o.tool,
                o.arrive,
                o.complete,
                o.turnaround,
                o.degraded,
                o.report.slice_count(),
            ));
        }
        out
    }

    /// Nearest-rank percentile of job turnarounds (simulated cycles);
    /// 0 when no jobs completed.
    pub fn turnaround_percentile(&self, pct: f64) -> u64 {
        let mut turnarounds: Vec<u64> = self.outcomes.iter().map(|o| o.turnaround).collect();
        if turnarounds.is_empty() {
            return 0;
        }
        turnarounds.sort_unstable();
        let rank = ((pct / 100.0) * turnarounds.len() as f64).ceil() as usize;
        turnarounds[rank.clamp(1, turnarounds.len()) - 1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use superpin::master::PtraceStats;
    use superpin::TimeBreakdown;

    fn outcome(tenant: &str) -> JobOutcome {
        JobOutcome {
            job: 2,
            tenant: tenant.to_owned(),
            workload: "gcc".to_owned(),
            scale: Scale::Tiny,
            tool: "icount1".to_owned(),
            arrive: 10,
            complete: 40,
            turnaround: 30,
            degraded: false,
            report: SuperPinReport {
                total_cycles: 1,
                master_exit_cycles: 1,
                breakdown: TimeBreakdown::default(),
                master_insts: 1,
                master_syscalls: 0,
                ptrace: PtraceStats::default(),
                slices: Vec::new(),
                sig_stats: Default::default(),
                forks_on_timeout: 0,
                forks_on_syscall: 0,
                stall_events: 0,
                master_cow_copies: 0,
                epochs: 1,
                slice_retries: 0,
                slices_degraded: 0,
                peak_resident_bytes: 0,
                slices_deferred: 0,
                checkpoints_dropped: 0,
                caches_evicted: 0,
            },
        }
    }

    #[test]
    fn tenant_names_are_escaped_in_the_outcome_line() {
        let line = outcome("a\"b\\c").to_json();
        assert!(line.contains("\"tenant\":\"a\\\"b\\\\c\","), "{line}");
    }

    #[test]
    fn a_plain_outcome_line_keeps_its_bytes() {
        let line = outcome("alpha").to_json();
        assert!(
            line.starts_with(
                "{\"job\":2,\"tenant\":\"alpha\",\"workload\":\"gcc\",\"scale\":\"tiny\",\
                 \"tool\":\"icount1\",\"arrive\":10,\"complete\":40,\"turnaround\":30,\
                 \"degraded\":false,\"report\":{\"total_cycles\":1,"
            ),
            "{line}"
        );
        assert!(
            line.ends_with("\"caches_evicted\":0,\"slices\":[]}}"),
            "{line}"
        );
    }
}
