//! Memory-pressure governance: a deterministic byte-budget ledger over
//! the simulation's resident memory (see DESIGN.md §4.9).
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
//! Every input to these decisions (page counters, cache occupancy,
//! checkpoint footprints, virtual timestamps) is simulated state, and
//! every decision is taken at a control step or epoch barrier on the
//! supervisor thread. For a fixed budget, reports are therefore
//! bit-identical across host thread counts; with no budget the governor
//! is never built and the run is field-identical to an ungoverned one.

use std::collections::{BTreeMap, HashSet};

/// Simulated bytes charged per instruction resident in a slice's code
/// cache (compiled trace bodies plus side tables).
pub const COMPILED_INST_BYTES: u64 = 64;

/// Simulated bytes charged per pc in a shared-code-cache index snapshot.
pub const SNAPSHOT_ENTRY_BYTES: u64 = 8;

/// Flat simulated cost of admitting one fork (kernel structures and page
/// tables for the child), charged up front by the admission check.
pub const FORK_COST_BYTES: u64 = 4096;

/// The byte-budget ledger and its pressure counters.
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

/// Incremental resident-byte ledger: the governed usage sum maintained
/// term by term instead of being walked from scratch at every decision
/// point.
///
/// The runner's original `resident_usage` recomputed two O(live-slices)
/// sums — per-slice footprints and retained checkpoints — on every
/// admission check and barrier sample. At single-run scale that walk is
/// noise; at fleet scale (many runners interleaving admission checks
/// every round) it shows up. The ledger keeps those two sums cached:
/// the runner posts a slice's footprint only when it changes (fork,
/// epoch advance, eviction, repair, merge) and the checkpoint total
/// only at guard/drop/release sites, so reading the total is O(1) in
/// the number of slices.
///
/// Determinism is untouched — the ledger holds exactly the numbers the
/// full walk would produce, and debug builds cross-check
/// [`total_with`](ResidentLedger::total_with) against the from-scratch
/// recompute at every decision point (see the runner's
/// `resident_usage`).
#[derive(Clone, Debug, Default)]
pub struct ResidentLedger {
    /// Per-slice footprint (private pages + code cache), keyed by slice
    /// number. A `BTreeMap` so debug dumps are deterministic.
    slices: BTreeMap<u32, u64>,
    /// Running sum of `slices` values.
    slices_total: u64,
    /// Retained supervisor checkpoint bytes.
    checkpoints: u64,
    /// Last shared-index snapshot charge.
    snapshot: u64,
}

impl ResidentLedger {
    /// An empty ledger.
    pub fn new() -> ResidentLedger {
        ResidentLedger::default()
    }

    /// Posts slice `num`'s current footprint (private resident pages
    /// plus code-cache bytes), replacing the previous posting.
    pub fn post_slice(&mut self, num: u32, bytes: u64) {
        let old = self.slices.insert(num, bytes).unwrap_or(0);
        self.slices_total = self.slices_total - old + bytes;
    }

    /// Forgets a merged slice's footprint.
    pub fn retire_slice(&mut self, num: u32) {
        if let Some(old) = self.slices.remove(&num) {
            self.slices_total -= old;
        }
    }

    /// Posts the current retained-checkpoint total.
    pub fn post_checkpoints(&mut self, bytes: u64) {
        self.checkpoints = bytes;
    }

    /// Posts the current shared-index snapshot charge.
    pub fn post_snapshot(&mut self, bytes: u64) {
        self.snapshot = bytes;
    }

    /// The cached slice-footprint sum.
    pub fn slice_bytes(&self) -> u64 {
        self.slices_total
    }

    /// The governed total given the two terms that are O(1) to read
    /// fresh (the master's resident bytes and the shared merge
    /// segment): cached slice footprints + cached checkpoints + cached
    /// snapshot charge + the live terms.
    pub fn total_with(&self, master_bytes: u64, shared_bytes: u64) -> u64 {
        master_bytes + self.slices_total + self.checkpoints + self.snapshot + shared_bytes
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
    usage: u64,
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
            usage: 0,
            admitted: 0,
            deferred: 0,
            degraded: 0,
            evicted: 0,
        });
    }

    /// Posts a tenant's current resident usage (the sum of its jobs'
    /// ledger totals, sampled at a round barrier).
    pub fn post_usage(&mut self, id: u32, bytes: u64) {
        if let Some(tenant) = self.tenants.iter_mut().find(|t| t.id == id) {
            tenant.usage = bytes;
        }
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

    /// A tenant's last posted usage (0 for unknown tenants). The WAL
    /// journals this per round so recovery can verify the ledger state
    /// it rebuilt.
    pub fn usage(&self, id: u32) -> u64 {
        self.tenants
            .iter()
            .find(|t| t.id == id)
            .map(|t| t.usage)
            .unwrap_or(0)
    }

    /// Total posted usage across all tenants.
    pub fn fleet_usage(&self) -> u64 {
        self.tenants.iter().map(|t| t.usage).sum()
    }

    /// Whether admitting `extra` more bytes would push the fleet over
    /// its budget.
    pub fn over_budget(&self, extra: u64) -> bool {
        self.fleet_usage().saturating_add(extra) > self.fleet_budget
    }

    /// Whether the tenant's posted usage exceeds its share.
    pub fn over_share(&self, id: u32) -> bool {
        self.tenants
            .iter()
            .find(|t| t.id == id)
            .is_some_and(|t| t.usage > self.share(t.id))
    }

    /// Tenants over their share, most-over first (byte overage
    /// descending, id ascending on ties) — the fleet ladder's eviction
    /// order.
    pub fn over_share_tenants(&self) -> Vec<u32> {
        let mut over: Vec<(u64, u32)> = self
            .tenants
            .iter()
            .filter_map(|t| {
                let share = self.share(t.id);
                (t.usage > share).then(|| (t.usage - share, t.id))
            })
            .collect();
        over.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        over.into_iter().map(|(_, id)| id).collect()
    }

    /// The tenant's unused share (`share − usage`, saturating) — the
    /// clamp applied to a degraded admission's job budget.
    pub fn remaining_share(&self, id: u32) -> u64 {
        let usage = self
            .tenants
            .iter()
            .find(|t| t.id == id)
            .map_or(0, |t| t.usage);
        self.share(id).saturating_sub(usage)
    }

    /// Resolves one admission for `id` charging `extra` bytes, given
    /// whether any running job could still free memory by completing
    /// (`others_can_free`). Pure — counters are untouched, so a
    /// scheduler can re-evaluate a parked job every round without
    /// inflating the scoreboard. Walks only the *decision* rung —
    /// eviction (the fleet's rung 1) is the scheduler's job, since the
    /// ledger does not own the runners.
    pub fn decide(&self, id: u32, extra: u64, others_can_free: bool) -> TenantAdmission {
        if !self.over_budget(extra) {
            return TenantAdmission::Admit;
        }
        if self.over_share(id) && others_can_free {
            return TenantAdmission::Defer;
        }
        let budget = self.remaining_share(id).max(FORK_COST_BYTES);
        TenantAdmission::AdmitDegraded { budget }
    }

    /// [`decide`](TenantLedger::decide) plus counter bookkeeping — the
    /// path for a *fresh* admission attempt (retries of an
    /// already-counted deferral should use `decide` and count the
    /// eventual admission themselves).
    pub fn admit(&mut self, id: u32, extra: u64, others_can_free: bool) -> TenantAdmission {
        let decision = self.decide(id, extra, others_can_free);
        match decision {
            TenantAdmission::Admit => self.count_admitted(id),
            TenantAdmission::Defer => self.count_deferred(id),
            TenantAdmission::AdmitDegraded { .. } => self.count_degraded(id),
        }
        decision
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
    fn resident_ledger_tracks_postings_incrementally() {
        let mut ledger = ResidentLedger::new();
        assert_eq!(ledger.total_with(100, 10), 110);
        ledger.post_slice(1, 4096);
        ledger.post_slice(2, 8192);
        assert_eq!(ledger.slice_bytes(), 12_288);
        // Re-posting replaces, not accumulates.
        ledger.post_slice(1, 2048);
        assert_eq!(ledger.slice_bytes(), 10_240);
        ledger.post_checkpoints(500);
        ledger.post_snapshot(64);
        assert_eq!(ledger.total_with(100, 10), 100 + 10_240 + 500 + 64 + 10);
        ledger.retire_slice(2);
        assert_eq!(ledger.slice_bytes(), 2048);
        ledger.retire_slice(2); // idempotent
        assert_eq!(ledger.slice_bytes(), 2048);
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
        ledger.post_usage(1, 300); // share 250 → over by 50
        ledger.post_usage(2, 400); // share 250 → over by 150
        ledger.post_usage(3, 100); // share 500 → under
        assert_eq!(ledger.over_share_tenants(), vec![2, 1]);
        assert!(ledger.over_share(2));
        assert!(!ledger.over_share(3));
        assert_eq!(ledger.remaining_share(3), 400);
    }

    #[test]
    fn admit_walks_the_tenant_rungs() {
        let mut ledger = TenantLedger::new(1_000_000);
        ledger.add_tenant(1, 1, None);
        ledger.add_tenant(2, 1, None);
        // Under budget: plain admit.
        assert_eq!(ledger.admit(1, 100, true), TenantAdmission::Admit);
        // Over budget + over share + others can free: defer.
        ledger.post_usage(1, 900_000);
        ledger.post_usage(2, 50_000);
        assert_eq!(ledger.admit(1, 100_000, true), TenantAdmission::Defer);
        // Over budget but under share: degraded admit clamped to the
        // tenant's remaining share.
        assert_eq!(
            ledger.admit(2, 100_000, true),
            TenantAdmission::AdmitDegraded { budget: 450_000 }
        );
        // Nothing else can free memory: deferring would deadlock, so
        // even an over-share tenant lands on the degraded rung (with
        // the clamp floored at the flat fork cost).
        assert_eq!(
            ledger.admit(1, 100_000, false),
            TenantAdmission::AdmitDegraded {
                budget: FORK_COST_BYTES
            }
        );
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
