//! Seed → inputs. Everything a workload feeds the libraries is made
//! here from `--seed`: stretched guest programs, the fleet job file and
//! the chaos plan. The libraries receive only the generated programs,
//! job text and `FailPlan`, never the seed itself.

use std::fmt::Write as _;

use superpin_isa::Program;
use superpin_workloads::{find, Scale, WorkloadSpec};

use crate::stats::SplitMix;

/// How large the inputs are. `Full` is the benchmark; `Smoke` runs the
/// same code over `Scale::Tiny` guests so the crate's tests take
/// seconds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The measured configuration (frozen constants below).
    Full,
    /// Tiny guests, no stretching — correctness smoke only.
    Smoke,
}

impl Size {
    /// The guest scale of the ICount1 and record/replay workloads.
    pub fn scale(self) -> Scale {
        match self {
            Size::Full => Scale::Large,
            Size::Smoke => Scale::Tiny,
        }
    }
}

/// One guest of a sliced workload: a catalog benchmark and the frozen
/// factor K its run length is stretched by.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GuestSpec {
    /// Catalog name.
    pub name: &'static str,
    /// Run-length multiplier over the catalog's `duration_eighths`.
    pub k: u32,
}

/// `steady_t1` / `parallel_tN` guests. K sizes a repetition to roughly
/// 1.8 s on the 2-vCPU reference host (see the README for the probe).
pub const STEADY_GUESTS: [GuestSpec; 4] = [
    GuestSpec { name: "gcc", k: 2 },
    GuestSpec {
        name: "crafty",
        k: 2,
    },
    GuestSpec { name: "mcf", k: 1 },
    GuestSpec { name: "swim", k: 1 },
];

/// `churn_t1` guests: code footprint ≥ 32 units. gcc and crafty use the
/// same K (and seed) as in [`STEADY_GUESTS`], so their counters compare
/// across the two workloads.
pub const CHURN_GUESTS: [GuestSpec; 4] = [
    GuestSpec { name: "gcc", k: 2 },
    GuestSpec {
        name: "perlbmk",
        k: 2,
    },
    GuestSpec {
        name: "vortex",
        k: 2,
    },
    GuestSpec {
        name: "crafty",
        k: 2,
    },
];

/// `record_replay` guests: the syscall-heavy ones.
pub const RECORD_GUESTS: [&str; 3] = ["gzip", "gcc", "parser"];

/// A generated guest.
#[derive(Clone, Debug)]
pub struct Guest {
    /// Catalog name.
    pub name: &'static str,
    /// The program.
    pub program: Program,
    /// Native dynamic instructions the generator targets (after
    /// stretching) — what the timeslice is scaled against.
    pub target_insts: u64,
}

/// Builds `spec` stretched from outside the workloads crate: the catalog
/// entry is copied with `duration_eighths × K` (all fields are public)
/// and generated at `size`'s scale with `seed` as the input id.
///
/// # Errors
///
/// The guest is not in the catalog.
pub fn stretched_guest(spec: GuestSpec, size: Size, seed: u64) -> Result<Guest, String> {
    let base = find(spec.name).ok_or_else(|| format!("`{}` is not in the catalog", spec.name))?;
    let k = match size {
        Size::Full => spec.k,
        Size::Smoke => 1,
    };
    let stretched = WorkloadSpec {
        duration_eighths: base.duration_eighths * k,
        ..*base
    };
    let scale = size.scale();
    Ok(Guest {
        name: base.name,
        program: stretched.build_with_input(scale, seed),
        target_insts: scale.target_insts() * u64::from(stretched.duration_eighths) / 8,
    })
}

/// One job of the fleet mix: `(guest, scale, tool)`.
pub type FleetJob = (&'static str, &'static str, &'static str);

/// The fleet mix: twelve jobs over every servable tool, half `medium`
/// half `large`, guests spanning the catalog's footprints, syscall
/// rates and run lengths. The multiset is fixed so a run's total work
/// is the same for every seed; the seed decides the order the jobs
/// arrive in (within each half of this list), who owns them and when
/// they arrive. The first half holds the guests with the larger code
/// footprints: they arrive first, so by the time the later arrivals
/// cross the fleet budget there are grown code caches to evict. The one
/// `itrace` job (8 bytes of output per instruction) is the shortest
/// guest, which keeps the process's memory churn — and with it the
/// run-to-run noise of a sandbox — down.
///
/// No guest here churns `brk`: a job admitted *degraded* runs under a
/// clamped memory budget, and a brk-churning guest under a tight clamp
/// faults (see the README) — a benchmark must not fail on its inputs.
pub const FLEET_JOBS: [FleetJob; 12] = [
    ("vortex", "large", "bblcount"),
    ("crafty", "large", "insmix"),
    ("eon", "large", "itrace"),
    ("mesa", "large", "branch"),
    ("gzip", "medium", "icount1"),
    ("bzip2", "medium", "icount2"),
    ("twolf", "medium", "bblcount"),
    ("facerec", "large", "insmix"),
    ("equake", "large", "icount2"),
    ("mcf", "medium", "mem"),
    ("swim", "medium", "icount1"),
    ("art", "medium", "branch"),
];

/// Tenants of the fleet mix: `(name, weight, jobs)`. Jobs are dealt in
/// proportion to the weights.
pub const FLEET_TENANTS: [(&str, u64, usize); 3] =
    [("alpha", 3, 6), ("beta", 2, 4), ("gamma", 1, 2)];

/// Mean virtual cycles between successive arrivals. Jobs arrive while
/// their predecessors are still small, so the fleet budget is crossed
/// during the arrival window and never again: the ladder evicts a few
/// code caches and then admits at full budget.
pub const ARRIVAL_GAP: u64 = 50_000;

/// Generates the fleet job file for `seed`: three tenants (weights
/// 3/2/1) and [`FLEET_JOBS`] (all `tiny` under [`Size::Smoke`]) in a
/// seed-drawn order (each half shuffled), ownership and arrival
/// schedule.
pub fn fleet_job_text(seed: u64, size: Size) -> String {
    let mut rng = SplitMix::new(seed ^ 0xf1ee_7000);
    let mut jobs = FLEET_JOBS;
    let (early, late) = jobs.split_at_mut(FLEET_JOBS.len() / 2);
    rng.shuffle(early);
    rng.shuffle(late);
    let mut tenants: Vec<&str> = FLEET_TENANTS
        .iter()
        .flat_map(|(name, _, jobs)| std::iter::repeat_n(*name, *jobs))
        .collect();
    rng.shuffle(&mut tenants);

    let mut text = String::new();
    for (name, weight, _) in FLEET_TENANTS {
        let _ = writeln!(text, "tenant {name} weight={weight}");
    }
    let mut arrive = 0u64;
    for ((guest, scale, tool), tenant) in jobs.into_iter().zip(tenants) {
        let scale = match size {
            Size::Full => scale,
            Size::Smoke => "tiny",
        };
        let _ = writeln!(
            text,
            "job tenant={tenant} workload={guest} scale={scale} tool={tool} arrive={arrive}"
        );
        arrive += ARRIVAL_GAP / 2 + rng.below(ARRIVAL_GAP);
    }
    text
}

#[cfg(test)]
mod tests {
    use super::*;
    use superpin_serve::parse_jobs;
    use superpin_tools::SERVE_TOOL_NAMES;
    use superpin_workloads::SyscallKind;

    #[test]
    fn job_text_is_deterministic_and_parses() {
        for seed in [0, 1, 2, 77, u64::MAX] {
            let text = fleet_job_text(seed, Size::Full);
            assert_eq!(text, fleet_job_text(seed, Size::Full), "seed {seed}");
            let file = parse_jobs(&text).unwrap_or_else(|e| panic!("seed {seed}: {e}\n{text}"));
            assert_eq!(file.tenants.len(), 3);
            assert_eq!(file.jobs.len(), FLEET_JOBS.len());
            assert_eq!(
                file.tenants.iter().map(|t| t.weight).collect::<Vec<_>>(),
                [3, 2, 1]
            );
            // Every servable tool appears, and half the jobs are large.
            for tool in SERVE_TOOL_NAMES {
                assert!(file.jobs.iter().any(|j| j.tool == *tool), "{tool} missing");
            }
            let large = file.jobs.iter().filter(|j| j.scale == Scale::Large).count();
            assert_eq!(large, FLEET_JOBS.len() / 2);
            // The same jobs for every seed, in a seed-drawn order.
            let mut drawn: Vec<(&str, &str)> = file
                .jobs
                .iter()
                .map(|j| (j.workload.as_str(), j.tool.as_str()))
                .collect();
            let mut fixed: Vec<(&str, &str)> =
                FLEET_JOBS.iter().map(|(g, _, t)| (*g, *t)).collect();
            drawn.sort_unstable();
            fixed.sort_unstable();
            assert_eq!(drawn, fixed);
            // Arrivals are staggered: strictly increasing in file order.
            assert!(file.jobs.windows(2).all(|w| w[0].arrive < w[1].arrive));
        }
        assert_ne!(fleet_job_text(1, Size::Full), fleet_job_text(2, Size::Full));
        assert!(fleet_job_text(1, Size::Smoke).contains("scale=tiny"));
    }

    #[test]
    fn no_fleet_guest_churns_brk() {
        for (guest, _, _) in FLEET_JOBS {
            let spec = find(guest).unwrap_or_else(|| panic!("{guest} not in the catalog"));
            assert_ne!(spec.syscall_kind, SyscallKind::BrkChurn, "{guest}");
        }
    }

    #[test]
    fn stretching_multiplies_the_run_length_and_keeps_the_layout() {
        let spec = GuestSpec { name: "gcc", k: 2 };
        let smoke = stretched_guest(spec, Size::Smoke, 1).expect("gcc");
        assert_eq!(smoke.target_insts, Scale::Tiny.target_insts());
        let full = stretched_guest(spec, Size::Full, 1).expect("gcc");
        assert_eq!(full.target_insts, 2 * Scale::Large.target_insts());
        // Same code layout at every length: stretching only changes the
        // outer loop count.
        assert_eq!(smoke.program.code_len(), full.program.code_len());
        assert!(stretched_guest(GuestSpec { name: "nope", k: 1 }, Size::Smoke, 1).is_err());
        // Shared guests use the same K in both sliced workloads.
        for shared in ["gcc", "crafty"] {
            let k = |set: &[GuestSpec]| set.iter().find(|g| g.name == shared).map(|g| g.k);
            assert_eq!(k(&STEADY_GUESTS), k(&CHURN_GUESTS), "{shared}");
        }
    }
}
