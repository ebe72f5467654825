//! Seeded deterministic fault injection for SuperPin.
//!
//! A **failpoint** is a named site in the host runtime (not the guest!)
//! where a fault can be injected on purpose: a fork that fails, a
//! dispatch that errors, a signature check that lies, a worker that
//! dies. Sites fire on a reproducible schedule derived from a single
//! `--chaos-seed`, so a chaos run can be replayed exactly.
//!
//! Firing decisions are keyed on *simulation state* supplied by the
//! caller (slice number, pid, local check counters), never on host
//! time or thread interleaving — the same seed faults the same logical
//! events no matter how many worker threads the run uses. The whole
//! registry sits behind an `Option<Arc<FailpointRegistry>>` at every
//! call site, so a production run with chaos disabled pays nothing.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// A named injection site in the SuperPin runtime.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Site {
    /// Copy-on-write fork of a slice from the master fails.
    VmForkCow = 0,
    /// The DBI engine's trace dispatch errors out mid-slice.
    DbiEngineDispatch = 1,
    /// The quick two-register signature check reports a miss on what
    /// was really a match (false negative → runaway slice).
    CoreSignatureQuickMiss = 2,
    /// The full register comparison rejects a true boundary (false
    /// negative deeper in the check → runaway slice).
    CoreSignatureFullMismatch = 3,
    /// Publishing fresh traces to the shared code-cache index fails.
    SharedIndexPublish = 4,
    /// A worker thread dies, dropping its batch of slices.
    ParallelWorkerChannel = 5,
    /// The kernel transiently fails to allocate memory for a slice fork
    /// (page tables, kernel structures) — an ENOMEM the runner absorbs
    /// through the transient retry ladder, like a failed COW fork.
    VmMemAlloc = 6,
    /// A WAL frame append tears: only a prefix of the frame reaches the
    /// host file before the write errors, leaving a torn tail the
    /// salvage reader must truncate. The fleet degrades to non-durable.
    IoWalAppend = 7,
    /// The fsync after a WAL round commit fails — the commit may not be
    /// durable, so the fleet degrades to non-durable.
    IoWalFsync = 8,
    /// The host disk is full: the WAL append fails cleanly before any
    /// byte is written (a clean frame boundary, unlike the torn
    /// [`Site::IoWalAppend`]).
    IoDiskFull = 9,
}

/// Number of defined sites.
pub const SITE_COUNT: usize = 10;

impl Site {
    /// Every site, in stable order (indexable by `site as usize`).
    pub const ALL: [Site; SITE_COUNT] = [
        Site::VmForkCow,
        Site::DbiEngineDispatch,
        Site::CoreSignatureQuickMiss,
        Site::CoreSignatureFullMismatch,
        Site::SharedIndexPublish,
        Site::ParallelWorkerChannel,
        Site::VmMemAlloc,
        Site::IoWalAppend,
        Site::IoWalFsync,
        Site::IoDiskFull,
    ];

    /// The site's stable dotted name (used in CLI/errors/logs).
    pub fn name(self) -> &'static str {
        match self {
            Site::VmForkCow => "vm.fork.cow",
            Site::DbiEngineDispatch => "dbi.engine.dispatch",
            Site::CoreSignatureQuickMiss => "core.signature.quick_miss",
            Site::CoreSignatureFullMismatch => "core.signature.full_mismatch",
            Site::SharedIndexPublish => "shared_index.publish",
            Site::ParallelWorkerChannel => "parallel.worker.channel",
            Site::VmMemAlloc => "vm.mem.alloc",
            Site::IoWalAppend => "io.wal.append",
            Site::IoWalFsync => "io.wal.fsync",
            Site::IoDiskFull => "io.disk.full",
        }
    }

    /// Parses a dotted site name.
    #[cfg(test)]
    pub(crate) fn from_name(name: &str) -> Option<Site> {
        Site::ALL.into_iter().find(|s| s.name() == name)
    }

    /// Relative firing weight for rate-based scheduling. Sites that are
    /// evaluated far more often than others (dispatch runs once per
    /// trace dispatch, thousands of times per slice) are scaled down so
    /// one `--chaos-rate` knob produces a comparable number of faults
    /// per run from every site.
    fn weight(self) -> f64 {
        match self {
            Site::DbiEngineDispatch => 1.0 / 256.0,
            _ => 1.0,
        }
    }
}

impl fmt::Display for Site {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Per-site firing policy.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SiteMode {
    /// Follow the plan's seeded rate schedule (the default).
    Inherit,
    /// Never fire, regardless of rate.
    Off,
    /// Fire exactly once, on the n-th evaluation of this site (1-based).
    /// Used by tests to force a specific fault class deterministically.
    Nth(u64),
    /// Fire on every evaluation.
    Always,
}

/// A plain-data chaos plan: seed, global rate, per-site overrides.
///
/// This is what lives in `SuperPinConfig` — `Clone`/`PartialEq` data
/// with no atomics, so configs stay comparable and cheap to copy. The
/// runner instantiates a live [`FailpointRegistry`] from it.
///
/// Because firing decisions are a pure function of `(plan, site, key)`,
/// the plan *is* the whole fault schedule: a record/replay log stores
/// the plan instead of per-firing frames.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FailPlan {
    /// Seed for the deterministic firing schedule.
    pub seed: u64,
    /// Target fault probability per (weight-1) site evaluation, in
    /// `[0, 1]`.
    pub rate: f64,
    /// Per-site overrides, indexed by `Site as usize`.
    pub site_modes: [SiteMode; SITE_COUNT],
}

impl FailPlan {
    /// A plan firing every site at `rate` from `seed`.
    pub fn new(seed: u64, rate: f64) -> FailPlan {
        FailPlan {
            seed,
            rate: rate.clamp(0.0, 1.0),
            site_modes: [SiteMode::Inherit; SITE_COUNT],
        }
    }

    /// Overrides one site's mode.
    #[must_use]
    pub fn with_site(mut self, site: Site, mode: SiteMode) -> FailPlan {
        self.site_modes[site as usize] = mode;
        self
    }

    /// Derives tenant `id`'s **fault domain** from a fleet-level plan:
    /// the same rate and per-site modes, but a sub-seed mixed from the
    /// fleet seed and the tenant id through the splitmix64 finalizer.
    ///
    /// The service front end gives every tenant its own registry built
    /// from this derivation, so one `--chaos-seed` yields independent
    /// per-tenant schedules — a fault firing in tenant A's jobs can
    /// never perturb tenant B's report, and a tenant's schedule is
    /// stable no matter which other tenants share the fleet. The
    /// domain-separation constant keeps `for_tenant(0)` distinct from
    /// the fleet plan itself.
    #[must_use]
    pub fn for_tenant(&self, id: u32) -> FailPlan {
        const TENANT_DOMAIN: u64 = 0x7E4A_5EED_7E4A_5EED;
        FailPlan {
            seed: mix(self.seed ^ mix(TENANT_DOMAIN ^ id as u64)),
            ..*self
        }
    }
}

/// splitmix64 finalizer: a high-quality 64-bit mixing function.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Live failpoint registry: the firing schedule plus hit counters.
///
/// `Send + Sync`; shared across the runner, engines, and worker
/// threads via `Arc`. All counters are observability only — firing
/// decisions depend solely on the plan and the caller-supplied key, so
/// fault placement is independent of thread interleaving (except for
/// the explicitly counter-based [`SiteMode::Nth`]).
#[derive(Debug)]
pub struct FailpointRegistry {
    plan: FailPlan,
    /// Precomputed per-site firing thresholds over the full u64 range.
    thresholds: [u64; SITE_COUNT],
    evals: [AtomicU64; SITE_COUNT],
    hits: [AtomicU64; SITE_COUNT],
}

impl FailpointRegistry {
    /// Builds a registry from a plan.
    pub fn new(plan: FailPlan) -> FailpointRegistry {
        let mut thresholds = [0u64; SITE_COUNT];
        for site in Site::ALL {
            let p = (plan.rate * site.weight()).clamp(0.0, 1.0);
            thresholds[site as usize] = (p * u64::MAX as f64) as u64;
        }
        FailpointRegistry {
            plan,
            thresholds,
            evals: Default::default(),
            hits: Default::default(),
        }
    }

    /// Evaluates the site: should this event fault?
    ///
    /// `key` must be derived from deterministic simulation state (slice
    /// number, pid, a local per-slice counter) so that the schedule is
    /// reproducible across thread counts. Returns `true` when the fault
    /// should be injected.
    pub fn fire(&self, site: Site, key: u64) -> bool {
        let i = site as usize;
        let n = self.evals[i].fetch_add(1, Ordering::Relaxed) + 1;
        let fired = match self.plan.site_modes[i] {
            SiteMode::Off => false,
            SiteMode::Always => true,
            SiteMode::Nth(k) => n == k,
            SiteMode::Inherit => {
                let h = mix(self.plan.seed ^ mix((i as u64 + 1) ^ mix(key)));
                h < self.thresholds[i]
            }
        };
        if fired {
            self.hits[i].fetch_add(1, Ordering::Relaxed);
        }
        fired
    }

    /// How many times the site has been evaluated.
    #[cfg(test)]
    pub(crate) fn evals(&self, site: Site) -> u64 {
        self.evals[site as usize].load(Ordering::Relaxed)
    }

    /// How many times the site has fired.
    #[cfg(test)]
    pub(crate) fn hits(&self, site: Site) -> u64 {
        self.hits[site as usize].load(Ordering::Relaxed)
    }

    /// Total fired faults across all sites.
    #[cfg(test)]
    pub(crate) fn total_hits(&self) -> u64 {
        Site::ALL.into_iter().map(|s| self.hits(s)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for site in Site::ALL {
            assert_eq!(Site::from_name(site.name()), Some(site));
            assert_eq!(site.to_string(), site.name());
        }
        assert_eq!(Site::from_name("nope"), None);
    }

    #[test]
    fn zero_rate_never_fires() {
        let reg = FailpointRegistry::new(FailPlan::new(42, 0.0));
        for site in Site::ALL {
            for key in 0..1_000 {
                assert!(!reg.fire(site, key));
            }
            assert_eq!(reg.hits(site), 0);
            assert_eq!(reg.evals(site), 1_000);
        }
        assert_eq!(reg.total_hits(), 0);
    }

    #[test]
    fn full_rate_always_fires() {
        let reg = FailpointRegistry::new(FailPlan::new(7, 1.0));
        // Threshold rounding can shave the last ulp; accept >= 99.9%.
        let mut hits = 0;
        for key in 0..10_000 {
            if reg.fire(Site::VmForkCow, key) {
                hits += 1;
            }
        }
        assert!(hits >= 9_990, "hits = {hits}");
    }

    #[test]
    fn firing_is_deterministic_in_seed_and_key() {
        let a = FailpointRegistry::new(FailPlan::new(123, 0.3));
        let b = FailpointRegistry::new(FailPlan::new(123, 0.3));
        for key in 0..5_000 {
            assert_eq!(
                a.fire(Site::SharedIndexPublish, key),
                b.fire(Site::SharedIndexPublish, key)
            );
        }
        assert_eq!(
            a.hits(Site::SharedIndexPublish),
            b.hits(Site::SharedIndexPublish)
        );
        assert!(a.hits(Site::SharedIndexPublish) > 0);
    }

    #[test]
    fn different_seeds_give_different_schedules() {
        let a = FailpointRegistry::new(FailPlan::new(1, 0.3));
        let b = FailpointRegistry::new(FailPlan::new(2, 0.3));
        let mut differs = false;
        for key in 0..1_000 {
            if a.fire(Site::VmForkCow, key) != b.fire(Site::VmForkCow, key) {
                differs = true;
            }
        }
        assert!(differs);
    }

    #[test]
    fn rate_lands_near_target() {
        let reg = FailpointRegistry::new(FailPlan::new(99, 0.1));
        let mut hits = 0;
        for key in 0..100_000u64 {
            if reg.fire(Site::VmForkCow, key) {
                hits += 1;
            }
        }
        // 10% ± generous slack for a non-cryptographic mixer.
        assert!((8_000..12_000).contains(&hits), "hits = {hits}");
    }

    #[test]
    fn dispatch_site_is_weighted_down() {
        let reg = FailpointRegistry::new(FailPlan::new(5, 0.5));
        let mut dispatch_hits = 0;
        for key in 0..100_000u64 {
            if reg.fire(Site::DbiEngineDispatch, key) {
                dispatch_hits += 1;
            }
        }
        // 0.5 / 256 ≈ 0.2% → ~195 expected out of 100k.
        assert!(dispatch_hits < 1_000, "dispatch_hits = {dispatch_hits}");
        assert!(dispatch_hits > 0);
    }

    #[test]
    fn nth_mode_fires_exactly_once() {
        let plan = FailPlan::new(0, 0.0).with_site(Site::ParallelWorkerChannel, SiteMode::Nth(3));
        let reg = FailpointRegistry::new(plan);
        let fired: Vec<bool> = (0..6)
            .map(|k| reg.fire(Site::ParallelWorkerChannel, k))
            .collect();
        assert_eq!(fired, [false, false, true, false, false, false]);
        assert_eq!(reg.hits(Site::ParallelWorkerChannel), 1);
    }

    #[test]
    fn always_and_off_override_rate() {
        let plan = FailPlan::new(0, 1.0)
            .with_site(Site::VmForkCow, SiteMode::Off)
            .with_site(Site::DbiEngineDispatch, SiteMode::Always);
        let reg = FailpointRegistry::new(plan);
        assert!(!reg.fire(Site::VmForkCow, 0));
        assert!(reg.fire(Site::DbiEngineDispatch, 0));
    }

    #[test]
    fn tenant_domains_are_deterministic_and_independent() {
        let fleet = FailPlan::new(3, 0.05).with_site(Site::VmForkCow, SiteMode::Off);
        // Pure function of (fleet seed, tenant id).
        assert_eq!(fleet.for_tenant(1), fleet.for_tenant(1));
        // Distinct from the fleet plan and from every other tenant.
        assert_ne!(fleet.for_tenant(0).seed, fleet.seed);
        assert_ne!(fleet.for_tenant(1).seed, fleet.for_tenant(2).seed);
        // Rate and site overrides carry over unchanged.
        let derived = fleet.for_tenant(7);
        assert_eq!(derived.rate, fleet.rate);
        assert_eq!(derived.site_modes, fleet.site_modes);
        // The derived schedules genuinely differ.
        let a = FailpointRegistry::new(FailPlan::new(3, 0.3).for_tenant(1));
        let b = FailpointRegistry::new(FailPlan::new(3, 0.3).for_tenant(2));
        let differs = (0..1_000).any(|key| {
            a.fire(Site::SharedIndexPublish, key) != b.fire(Site::SharedIndexPublish, key)
        });
        assert!(differs);
    }

    #[test]
    fn plan_is_plain_comparable_data() {
        let a = FailPlan::new(1, 0.5);
        let b = FailPlan::new(1, 0.5);
        assert_eq!(a, b);
        assert_ne!(a, a.with_site(Site::VmForkCow, SiteMode::Off));
    }
}
