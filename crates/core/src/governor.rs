//! Memory-pressure governance: a deterministic byte budget over the
//! simulation's resident memory (see DESIGN.md §4.9).
//!
//! SuperPin's fork-per-timeslice design multiplies a program's footprint:
//! every live slice holds COW-diverged pages, a private code cache, and —
//! under supervision — a materialized wake-time checkpoint. On a real
//! machine that pressure manifests as swap or OOM kills; here it is
//! modeled as a **byte budget** (`--mem-budget`) that the epoch loop
//! enforces with admission control and a three-rung eviction ladder:
//!
//! 1. **Drop retained checkpoints** of committed (`Done`, unmerged)
//!    slices. A committed slice is never condemned, so its checkpoint is
//!    pure insurance the run no longer needs.
//! 2. **Evict cold code caches** of live slices, coldest first (LRU by
//!    the slice's last-active virtual time). Costs re-JIT cycles, which
//!    the supervisor journals so rebuilds stay bit-identical.
//! 3. **Defer or degrade the fork.** If any live slice can still free
//!    memory by completing, the fork is deferred to a later epoch
//!    (backpressure — the master stalls exactly like a max-slices
//!    stall). Otherwise deferring would deadlock — a slice only wakes
//!    when the *next* slice is forked — so the fork is admitted but the
//!    new slice is degraded to inline serial execution, mirroring the
//!    supervisor's degrade rung.
//!
//! The governor holds no usage figure of its own: the runner sums its
//! live state on demand (`SuperPinRunner::resident_bytes`) and hands
//! the total in. Every input to these decisions (page counters, cache
//! occupancy, checkpoint footprints, virtual timestamps) is simulated
//! state, and every decision is taken at a control step or epoch barrier
//! on the supervisor thread. For a fixed budget, reports are therefore
//! bit-identical across host thread counts; with no budget the governor
//! is never built and the run is field-identical to an ungoverned one.

use std::collections::HashSet;

/// Simulated bytes charged per instruction resident in a slice's code
/// cache (compiled trace bodies plus side tables).
pub const COMPILED_INST_BYTES: u64 = 64;

/// Simulated bytes charged per pc in the trace registry while the shared
/// code cache is on.
pub const SNAPSHOT_ENTRY_BYTES: u64 = 8;

/// Flat simulated cost of admitting one fork (kernel structures and page
/// tables for the child), charged up front by the admission check.
pub const FORK_COST_BYTES: u64 = 4096;

/// The byte budget and its pressure counters.
///
/// The governor owns the *decision state* (budget, peak, episode flags,
/// its own degraded set); the eviction ladder itself lives in the runner,
/// which holds the slices, supervisor, and shared state the rungs act on.
#[derive(Clone, Debug)]
pub struct MemoryGovernor {
    budget: u64,
    /// High-water mark of observed resident usage.
    pub peak_resident_bytes: u64,
    /// Fork-deferral episodes (one per continuous stretch of deferrals,
    /// matching the runner's stall-episode accounting).
    pub slices_deferred: u64,
    /// Checkpoints reclaimed by ladder rung 1.
    pub checkpoints_dropped: u64,
    /// Code caches flushed by ladder rung 2.
    pub caches_evicted: u64,
    /// Slices this governor admitted degraded-to-inline (ladder rung 3).
    /// Tracked here — not only in the supervisor — because a budget can
    /// be set without supervision.
    degraded: HashSet<u32>,
    /// Total rung-3 degradations, surviving merge-time release.
    degraded_total: u64,
    /// Whether the master is currently inside a deferral episode.
    deferring: bool,
}

impl MemoryGovernor {
    /// A governor enforcing `budget` simulated resident bytes.
    pub fn new(budget: u64) -> MemoryGovernor {
        MemoryGovernor {
            budget,
            peak_resident_bytes: 0,
            slices_deferred: 0,
            checkpoints_dropped: 0,
            caches_evicted: 0,
            degraded: HashSet::new(),
            degraded_total: 0,
            deferring: false,
        }
    }

    /// The configured budget in simulated bytes.
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// Records an observed usage sample, updating the high-water mark.
    pub fn observe(&mut self, usage: u64) {
        self.peak_resident_bytes = self.peak_resident_bytes.max(usage);
    }

    /// Whether charging `extra` more bytes on top of `usage` would
    /// exceed the budget.
    pub fn over_budget(&self, usage: u64, extra: u64) -> bool {
        usage.saturating_add(extra) > self.budget
    }

    /// Enters (or continues) a deferral episode. Episodes are counted
    /// once per continuous stretch, like the runner's stall events.
    pub fn note_deferral(&mut self) {
        if !self.deferring {
            self.deferring = true;
            self.slices_deferred += 1;
        }
    }

    /// Ends the current deferral episode (the fork was admitted).
    pub fn end_deferral(&mut self) {
        self.deferring = false;
    }

    /// Whether a deferral episode is in progress (the planner keeps
    /// epochs short while it is, so admission is re-checked promptly).
    pub fn is_deferring(&self) -> bool {
        self.deferring
    }

    /// Counts a rung-1 checkpoint reclamation.
    pub fn note_checkpoint_dropped(&mut self) {
        self.checkpoints_dropped += 1;
    }

    /// Counts a rung-2 cache flush.
    pub fn note_cache_evicted(&mut self) {
        self.caches_evicted += 1;
    }

    /// Marks a slice admitted under rung 3: it runs inline on the
    /// supervisor thread (bounded live memory) for its whole life.
    pub fn degrade(&mut self, num: u32) {
        if self.degraded.insert(num) {
            self.degraded_total += 1;
        }
    }

    /// Whether the governor pinned this slice inline.
    pub fn is_degraded(&self, num: u32) -> bool {
        self.degraded.contains(&num)
    }

    /// Total slices ever degraded by rung 3 (merge-time release does not
    /// roll this back; it feeds the report's `slices_degraded`).
    pub fn degraded_total(&self) -> u64 {
        self.degraded_total
    }

    /// Forgets a merged slice's degraded pin.
    pub fn release(&mut self, num: u32) {
        self.degraded.remove(&num);
    }
}

/// Which rung of the *fleet* ladder resolved a tenant's admission —
/// the service-mode analog of
/// [`AdmissionDecision`](crate::record::AdmissionDecision).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TenantAdmission {
    /// The fleet has room: admit at the job's requested budget.
    Admit,
    /// The candidate's tenant is over its fair share and other jobs can
    /// still free memory by completing: hold the job in the queue.
    Defer,
    /// The candidate's tenant is at or under its share: admit, but with
    /// the job's memory budget clamped to the tenant's remaining share
    /// (the job runs degraded rather than the fleet thrashing).
    AdmitDegraded {
        /// The clamped per-job budget, in simulated bytes.
        budget: u64,
    },
}

/// Per-tenant record inside the [`TenantLedger`].
#[derive(Clone, Debug)]
struct TenantEntry {
    id: u32,
    weight: u64,
    /// Optional hard cap (validated ≤ fleet budget by the CLI).
    cap: Option<u64>,
    admitted: u64,
    deferred: u64,
    degraded: u64,
    evicted: u64,
}

/// Per-tenant counters exposed by the [`TenantLedger`] — the fleet's
/// admitted/deferred/degraded/evicted scoreboard, reported unscrubbed
/// by the service determinism suite.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TenantCounters {
    /// Tenant id.
    pub id: u32,
    /// Jobs admitted at full budget.
    pub admitted: u64,
    /// Admission deferrals charged to this tenant.
    pub deferred: u64,
    /// Jobs admitted with a clamped (degraded) budget.
    pub degraded: u64,
    /// Code-cache evictions charged to this tenant by the fleet ladder.
    pub evicted: u64,
}

/// The fleet's per-tenant budget ledger: weighted fair shares of one
/// fleet-wide byte budget, plus the tenant-weighted rungs the service
/// scheduler walks before admitting a job under pressure (see
/// DESIGN.md §4.13).
///
/// A tenant's **share** is `fleet_budget × weight / Σweights`
/// (deterministic largest-first remainder split via
/// [`superpin_sched::fair_shares`]), optionally capped by the tenant's
/// own budget. The fleet ladder mirrors the per-run eviction ladder,
/// reordered by fairness: over-share tenants give back memory (cache
/// evictions, deferrals) before an under-share tenant is degraded.
///
/// The ledger keeps no copy of usage. Every decision takes `usages`:
/// each registered tenant's resident bytes, in declaration order, as
/// the caller walked them from its live jobs at that moment.
#[derive(Clone, Debug)]
pub struct TenantLedger {
    fleet_budget: u64,
    tenants: Vec<TenantEntry>,
}

impl TenantLedger {
    /// A ledger enforcing `fleet_budget` simulated bytes across all
    /// tenants.
    pub fn new(fleet_budget: u64) -> TenantLedger {
        TenantLedger {
            fleet_budget,
            tenants: Vec::new(),
        }
    }

    /// The fleet-wide budget.
    pub fn fleet_budget(&self) -> u64 {
        self.fleet_budget
    }

    /// Registers a tenant (declaration order is share-split order).
    /// Duplicate ids are rejected upstream by spec validation; here the
    /// second registration is ignored.
    pub fn add_tenant(&mut self, id: u32, weight: u64, cap: Option<u64>) {
        if self.tenants.iter().any(|t| t.id == id) {
            return;
        }
        self.tenants.push(TenantEntry {
            id,
            weight: weight.max(1),
            cap,
            admitted: 0,
            deferred: 0,
            degraded: 0,
            evicted: 0,
        });
    }

    /// A tenant's fair share of the fleet budget: the weighted split,
    /// capped by the tenant's own budget when one is set.
    pub fn share(&self, id: u32) -> u64 {
        let weights: Vec<u64> = self.tenants.iter().map(|t| t.weight).collect();
        let shares = superpin_sched::fair_shares(self.fleet_budget, &weights);
        self.tenants
            .iter()
            .zip(shares)
            .find(|(t, _)| t.id == id)
            .map(|(t, share)| t.cap.map_or(share, |cap| share.min(cap)))
            .unwrap_or(0)
    }

    /// Tenant `id`'s entry in `usages` (0 for unknown tenants).
    fn usage(&self, usages: &[u64], id: u32) -> u64 {
        self.tenants
            .iter()
            .position(|t| t.id == id)
            .and_then(|index| usages.get(index).copied())
            .unwrap_or(0)
    }

    /// Whether admitting `extra` more bytes would push the fleet over
    /// its budget.
    pub fn over_budget(&self, usages: &[u64], extra: u64) -> bool {
        usages.iter().sum::<u64>().saturating_add(extra) > self.fleet_budget
    }

    /// Whether the tenant's usage exceeds its share.
    pub fn over_share(&self, usages: &[u64], id: u32) -> bool {
        self.usage(usages, id) > self.share(id)
    }

    /// Tenants over their share, most-over first (byte overage
    /// descending, id ascending on ties) — the fleet ladder's eviction
    /// order.
    pub fn over_share_tenants(&self, usages: &[u64]) -> Vec<u32> {
        let mut over: Vec<(u64, u32)> = self
            .tenants
            .iter()
            .zip(usages)
            .filter_map(|(t, &usage)| {
                let share = self.share(t.id);
                (usage > share).then(|| (usage - share, t.id))
            })
            .collect();
        over.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        over.into_iter().map(|(_, id)| id).collect()
    }

    /// The tenant's unused share (`share − usage`, saturating) — the
    /// clamp applied to a degraded admission's job budget.
    pub fn remaining_share(&self, usages: &[u64], id: u32) -> u64 {
        self.share(id).saturating_sub(self.usage(usages, id))
    }

    /// Resolves one admission for `id` charging `extra` bytes, given
    /// whether any running job could still free memory by completing
    /// (`others_can_free`). Pure — counters are untouched, so a
    /// scheduler can re-evaluate a parked job every round without
    /// inflating the scoreboard. Walks only the *decision* rung —
    /// eviction (the fleet's rung 1) is the scheduler's job, since the
    /// ledger does not own the runners.
    pub fn decide(
        &self,
        usages: &[u64],
        id: u32,
        extra: u64,
        others_can_free: bool,
    ) -> TenantAdmission {
        if !self.over_budget(usages, extra) {
            return TenantAdmission::Admit;
        }
        if self.over_share(usages, id) && others_can_free {
            return TenantAdmission::Defer;
        }
        let budget = self.remaining_share(usages, id).max(FORK_COST_BYTES);
        TenantAdmission::AdmitDegraded { budget }
    }

    /// Counts a full-budget admission.
    pub fn count_admitted(&mut self, id: u32) {
        if let Some(t) = self.tenants.iter_mut().find(|t| t.id == id) {
            t.admitted += 1;
        }
    }

    /// Counts one deferral episode against the tenant.
    pub fn count_deferred(&mut self, id: u32) {
        if let Some(t) = self.tenants.iter_mut().find(|t| t.id == id) {
            t.deferred += 1;
        }
    }

    /// Counts a degraded (budget-clamped) admission.
    pub fn count_degraded(&mut self, id: u32) {
        if let Some(t) = self.tenants.iter_mut().find(|t| t.id == id) {
            t.degraded += 1;
        }
    }

    /// Counts a fleet-ladder cache eviction against the tenant.
    pub fn count_evicted(&mut self, id: u32) {
        if let Some(t) = self.tenants.iter_mut().find(|t| t.id == id) {
            t.evicted += 1;
        }
    }

    /// The per-tenant scoreboard, in declaration order.
    pub fn counters(&self) -> Vec<TenantCounters> {
        self.tenants
            .iter()
            .map(|t| TenantCounters {
                id: t.id,
                admitted: t.admitted,
                deferred: t.deferred,
                degraded: t.degraded,
                evicted: t.evicted,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_is_a_high_water_mark() {
        let mut gov = MemoryGovernor::new(1000);
        gov.observe(10);
        gov.observe(500);
        gov.observe(200);
        assert_eq!(gov.peak_resident_bytes, 500);
    }

    #[test]
    fn over_budget_is_inclusive_of_the_charge_and_saturates() {
        let gov = MemoryGovernor::new(1000);
        assert!(!gov.over_budget(900, 100), "exactly at budget fits");
        assert!(gov.over_budget(900, 101));
        assert!(gov.over_budget(u64::MAX, 1), "no overflow wraparound");
        assert!(!MemoryGovernor::new(u64::MAX).over_budget(u64::MAX - 1, 1));
    }

    #[test]
    fn deferral_episodes_count_once_per_stretch() {
        let mut gov = MemoryGovernor::new(0);
        gov.note_deferral();
        gov.note_deferral();
        gov.note_deferral();
        assert_eq!(gov.slices_deferred, 1, "one continuous episode");
        assert!(gov.is_deferring());
        gov.end_deferral();
        assert!(!gov.is_deferring());
        gov.note_deferral();
        assert_eq!(gov.slices_deferred, 2, "new stretch, new episode");
    }

    #[test]
    fn degraded_total_survives_release() {
        let mut gov = MemoryGovernor::new(0);
        gov.degrade(3);
        gov.degrade(3); // idempotent
        assert!(gov.is_degraded(3));
        assert_eq!(gov.degraded_total(), 1);
        gov.release(3);
        assert!(!gov.is_degraded(3));
        assert_eq!(gov.degraded_total(), 1, "history is not rolled back");
        gov.degrade(4);
        assert_eq!(gov.degraded_total(), 2);
    }

    #[test]
    fn tenant_shares_follow_weights_and_caps() {
        let mut ledger = TenantLedger::new(1000);
        ledger.add_tenant(1, 3, None);
        ledger.add_tenant(2, 1, Some(100));
        assert_eq!(ledger.share(1), 750);
        assert_eq!(ledger.share(2), 100, "cap tightens the weighted share");
        assert_eq!(ledger.share(9), 0, "unknown tenant has no share");
    }

    #[test]
    fn over_share_tenants_rank_by_overage() {
        let mut ledger = TenantLedger::new(1000);
        ledger.add_tenant(1, 1, None);
        ledger.add_tenant(2, 1, None);
        ledger.add_tenant(3, 2, None);
        // Shares 250, 250, 500: tenant 1 over by 50, tenant 2 over by
        // 150, tenant 3 under.
        let usages = [300, 400, 100];
        assert_eq!(ledger.over_share_tenants(&usages), vec![2, 1]);
        assert!(ledger.over_share(&usages, 2));
        assert!(!ledger.over_share(&usages, 3));
        assert_eq!(ledger.remaining_share(&usages, 3), 400);
    }

    #[test]
    fn decide_walks_the_tenant_rungs() {
        let mut ledger = TenantLedger::new(1_000_000);
        ledger.add_tenant(1, 1, None);
        ledger.add_tenant(2, 1, None);
        // Under budget: plain admit.
        assert_eq!(ledger.decide(&[0, 0], 1, 100, true), TenantAdmission::Admit);
        // Over budget + over share + others can free: defer.
        let usages = [900_000, 50_000];
        assert_eq!(
            ledger.decide(&usages, 1, 100_000, true),
            TenantAdmission::Defer
        );
        // Over budget but under share: degraded admit clamped to the
        // tenant's remaining share.
        assert_eq!(
            ledger.decide(&usages, 2, 100_000, true),
            TenantAdmission::AdmitDegraded { budget: 450_000 }
        );
        // Nothing else can free memory: deferring would deadlock, so
        // even an over-share tenant lands on the degraded rung (with
        // the clamp floored at the flat fork cost).
        assert_eq!(
            ledger.decide(&usages, 1, 100_000, false),
            TenantAdmission::AdmitDegraded {
                budget: FORK_COST_BYTES
            }
        );
        // Counting the four decisions above, as the fleet does, lands
        // each on its own tenant and column.
        ledger.count_admitted(1);
        ledger.count_deferred(1);
        ledger.count_degraded(2);
        ledger.count_degraded(1);
        let counters = ledger.counters();
        assert_eq!(
            (
                counters[0].admitted,
                counters[0].deferred,
                counters[0].degraded
            ),
            (1, 1, 1)
        );
        assert_eq!((counters[1].admitted, counters[1].degraded), (0, 1));
    }
}
