//! The benchmark catalog.

use crate::gen;
use superpin_isa::Program;

/// SPEC CPU2000 component suite.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Category {
    /// CINT2000.
    Int,
    /// CFP2000.
    Fp,
}

/// How much strided array traffic a workload generates per iteration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MemIntensity {
    /// No array sweep.
    None,
    /// A short sweep (16 lines).
    Low,
    /// A long sweep (64 lines).
    High,
}

impl MemIntensity {
    pub(crate) fn sweep_lines(self) -> u32 {
        match self {
            MemIntensity::None => 0,
            MemIntensity::Low => 16,
            MemIntensity::High => 64,
        }
    }
}

/// Which syscall pattern the workload issues periodically.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SyscallKind {
    /// No syscalls besides the final `exit`.
    None,
    /// gcc-style heap churn: `brk` up, touch, `brk` down (paper §4.2:
    /// "applications such as gcc will allocate and deallocate memory far
    /// too frequently").
    BrkChurn,
    /// `gettime` queries.
    TimeQuery,
    /// Small `write`s to stdout.
    FileIo,
}

/// Simulation size: target dynamic instruction count of the generated
/// program.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Scale {
    /// ~20k instructions — unit tests.
    Tiny,
    /// ~200k instructions — integration tests.
    Small,
    /// ~1M instructions — quick figure runs.
    Medium,
    /// ~4M instructions — full figure runs.
    Large,
}

impl Scale {
    /// The accepted spellings, for usage and error messages.
    pub const CHOICES: &'static str = "tiny|small|medium|large";

    /// The scale's command-line and wire name.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Tiny => "tiny",
            Scale::Small => "small",
            Scale::Medium => "medium",
            Scale::Large => "large",
        }
    }

    /// The scale a [`Scale::name`] names; `None` for anything else.
    pub fn parse(text: &str) -> Option<Scale> {
        [Scale::Tiny, Scale::Small, Scale::Medium, Scale::Large]
            .into_iter()
            .find(|scale| scale.name() == text)
    }

    /// Target dynamic instruction count.
    pub fn target_insts(self) -> u64 {
        match self {
            Scale::Tiny => 20_000,
            Scale::Small => 200_000,
            Scale::Medium => 1_000_000,
            Scale::Large => 4_000_000,
        }
    }
}

/// Static description of one synthetic benchmark.
#[derive(Clone, Copy, Debug)]
pub struct WorkloadSpec {
    /// Benchmark name (SPEC CPU2000 component).
    pub name: &'static str,
    /// CINT or CFP.
    pub category: Category,
    /// Number of distinct unit functions reached through the indirect
    /// call table (power of two) — the code-footprint knob.
    pub footprint_units: u32,
    /// ALU operations per unit function body.
    pub unit_body: u32,
    /// Indirect calls issued per outer iteration.
    pub calls_per_iter: u32,
    /// Strided memory sweep intensity.
    pub mem: MemIntensity,
    /// Pointer-chase loads per outer iteration (0 = none).
    pub chase_iters: u32,
    /// Data-dependent branch evaluations per outer iteration.
    pub branchy_iters: u32,
    /// Issue the syscall pattern every `2^syscall_period_log2` outer
    /// iterations (`None` = no periodic syscalls).
    pub syscall_period_log2: Option<u32>,
    /// Which syscall pattern.
    pub syscall_kind: SyscallKind,
    /// Run-length multiplier in eighths (8 = the scale target, 4 = half,
    /// 12 = 1.5×). SPEC components differ widely in reference run time;
    /// short applications are where SuperPin's pipeline delay bites
    /// ("It becomes difficult to achieve slowdowns under 25% for
    /// applications with shorter execution times", paper §6).
    pub duration_eighths: u32,
}

impl WorkloadSpec {
    /// Generates the benchmark's program at the given scale.
    /// Deterministic: same name + scale ⇒ identical program.
    pub fn build(&self, scale: Scale) -> Program {
        gen::generate_with_input(self, scale, 0)
    }

    /// Generates the benchmark with an alternate *input id* — the
    /// analogue of a different SPEC reference input. The code layout and
    /// character are preserved; data contents and branch-stream seeds
    /// change, so dynamic behaviour differs (Figure 6's note about
    /// restricting gcc "to one input to properly reflect the pipeline
    /// delay" is about exactly this variation).
    pub fn build_with_input(&self, scale: Scale, input: u64) -> Program {
        gen::generate_with_input(self, scale, input)
    }
}

/// The 26-benchmark catalog, in the paper's figure order.
pub fn catalog() -> &'static [WorkloadSpec] {
    CATALOG
}

/// Looks up a benchmark by name.
pub fn find(name: &str) -> Option<&'static WorkloadSpec> {
    CATALOG.iter().find(|spec| spec.name == name)
}

const CATALOG: &[WorkloadSpec] = &[
    WorkloadSpec {
        name: "ammp",
        category: Category::Fp,
        footprint_units: 8,
        unit_body: 48,
        calls_per_iter: 2,
        mem: MemIntensity::High,
        chase_iters: 8,
        branchy_iters: 4,
        syscall_period_log2: None,
        syscall_kind: SyscallKind::None,
        duration_eighths: 10,
    },
    WorkloadSpec {
        name: "applu",
        category: Category::Fp,
        footprint_units: 8,
        unit_body: 64,
        calls_per_iter: 2,
        mem: MemIntensity::High,
        chase_iters: 0,
        branchy_iters: 2,
        syscall_period_log2: None,
        syscall_kind: SyscallKind::None,
        duration_eighths: 9,
    },
    WorkloadSpec {
        name: "apsi",
        category: Category::Fp,
        footprint_units: 16,
        unit_body: 48,
        calls_per_iter: 3,
        mem: MemIntensity::High,
        chase_iters: 0,
        branchy_iters: 4,
        syscall_period_log2: None,
        syscall_kind: SyscallKind::None,
        duration_eighths: 8,
    },
    WorkloadSpec {
        name: "art",
        category: Category::Fp,
        footprint_units: 4,
        unit_body: 16,
        calls_per_iter: 1,
        mem: MemIntensity::Low,
        chase_iters: 48,
        branchy_iters: 4,
        syscall_period_log2: None,
        syscall_kind: SyscallKind::None,
        duration_eighths: 14,
    },
    WorkloadSpec {
        name: "bzip2",
        category: Category::Int,
        footprint_units: 16,
        unit_body: 28,
        calls_per_iter: 3,
        mem: MemIntensity::High,
        chase_iters: 0,
        branchy_iters: 16,
        syscall_period_log2: Some(8),
        syscall_kind: SyscallKind::FileIo,
        duration_eighths: 10,
    },
    WorkloadSpec {
        name: "crafty",
        category: Category::Int,
        footprint_units: 32,
        unit_body: 24,
        calls_per_iter: 4,
        mem: MemIntensity::Low,
        chase_iters: 0,
        branchy_iters: 32,
        syscall_period_log2: None,
        syscall_kind: SyscallKind::None,
        duration_eighths: 8,
    },
    WorkloadSpec {
        name: "eon",
        category: Category::Int,
        footprint_units: 32,
        unit_body: 32,
        calls_per_iter: 6,
        mem: MemIntensity::Low,
        chase_iters: 0,
        branchy_iters: 8,
        syscall_period_log2: None,
        syscall_kind: SyscallKind::None,
        duration_eighths: 2,
    },
    WorkloadSpec {
        name: "equake",
        category: Category::Fp,
        footprint_units: 8,
        unit_body: 40,
        calls_per_iter: 2,
        mem: MemIntensity::High,
        chase_iters: 16,
        branchy_iters: 2,
        syscall_period_log2: None,
        syscall_kind: SyscallKind::None,
        duration_eighths: 9,
    },
    WorkloadSpec {
        name: "facerec",
        category: Category::Fp,
        footprint_units: 8,
        unit_body: 40,
        calls_per_iter: 2,
        mem: MemIntensity::High,
        chase_iters: 0,
        branchy_iters: 8,
        syscall_period_log2: None,
        syscall_kind: SyscallKind::None,
        duration_eighths: 5,
    },
    WorkloadSpec {
        name: "fma3d",
        category: Category::Fp,
        footprint_units: 16,
        unit_body: 48,
        calls_per_iter: 3,
        mem: MemIntensity::High,
        chase_iters: 0,
        branchy_iters: 4,
        syscall_period_log2: None,
        syscall_kind: SyscallKind::None,
        duration_eighths: 8,
    },
    WorkloadSpec {
        name: "galgel",
        category: Category::Fp,
        footprint_units: 8,
        unit_body: 56,
        calls_per_iter: 2,
        mem: MemIntensity::High,
        chase_iters: 0,
        branchy_iters: 2,
        syscall_period_log2: None,
        syscall_kind: SyscallKind::None,
        duration_eighths: 9,
    },
    WorkloadSpec {
        name: "gap",
        category: Category::Int,
        footprint_units: 32,
        unit_body: 24,
        calls_per_iter: 4,
        mem: MemIntensity::Low,
        chase_iters: 8,
        branchy_iters: 12,
        syscall_period_log2: Some(7),
        syscall_kind: SyscallKind::BrkChurn,
        duration_eighths: 4,
    },
    WorkloadSpec {
        name: "gcc",
        category: Category::Int,
        footprint_units: 128,
        unit_body: 30,
        calls_per_iter: 12,
        mem: MemIntensity::Low,
        chase_iters: 8,
        branchy_iters: 16,
        syscall_period_log2: Some(1),
        syscall_kind: SyscallKind::BrkChurn,
        duration_eighths: 8,
    },
    WorkloadSpec {
        name: "gzip",
        category: Category::Int,
        footprint_units: 16,
        unit_body: 24,
        calls_per_iter: 3,
        mem: MemIntensity::High,
        chase_iters: 0,
        branchy_iters: 12,
        syscall_period_log2: Some(8),
        syscall_kind: SyscallKind::FileIo,
        duration_eighths: 10,
    },
    WorkloadSpec {
        name: "lucas",
        category: Category::Fp,
        footprint_units: 4,
        unit_body: 64,
        calls_per_iter: 1,
        mem: MemIntensity::High,
        chase_iters: 0,
        branchy_iters: 2,
        syscall_period_log2: None,
        syscall_kind: SyscallKind::None,
        duration_eighths: 15,
    },
    WorkloadSpec {
        name: "mcf",
        category: Category::Int,
        footprint_units: 4,
        unit_body: 16,
        calls_per_iter: 1,
        mem: MemIntensity::Low,
        chase_iters: 64,
        branchy_iters: 8,
        syscall_period_log2: None,
        syscall_kind: SyscallKind::None,
        duration_eighths: 16,
    },
    WorkloadSpec {
        name: "mesa",
        category: Category::Fp,
        footprint_units: 32,
        unit_body: 32,
        calls_per_iter: 4,
        mem: MemIntensity::Low,
        chase_iters: 0,
        branchy_iters: 8,
        syscall_period_log2: None,
        syscall_kind: SyscallKind::None,
        duration_eighths: 3,
    },
    WorkloadSpec {
        name: "mgrid",
        category: Category::Fp,
        footprint_units: 4,
        unit_body: 64,
        calls_per_iter: 1,
        mem: MemIntensity::High,
        chase_iters: 0,
        branchy_iters: 1,
        syscall_period_log2: None,
        syscall_kind: SyscallKind::None,
        duration_eighths: 15,
    },
    WorkloadSpec {
        name: "parser",
        category: Category::Int,
        footprint_units: 16,
        unit_body: 20,
        calls_per_iter: 3,
        mem: MemIntensity::Low,
        chase_iters: 16,
        branchy_iters: 24,
        syscall_period_log2: Some(7),
        syscall_kind: SyscallKind::BrkChurn,
        duration_eighths: 9,
    },
    WorkloadSpec {
        name: "perlbmk",
        category: Category::Int,
        footprint_units: 64,
        unit_body: 28,
        calls_per_iter: 6,
        mem: MemIntensity::Low,
        chase_iters: 8,
        branchy_iters: 16,
        syscall_period_log2: Some(5),
        syscall_kind: SyscallKind::BrkChurn,
        duration_eighths: 3,
    },
    WorkloadSpec {
        name: "sixtrack",
        category: Category::Fp,
        footprint_units: 16,
        unit_body: 48,
        calls_per_iter: 3,
        mem: MemIntensity::High,
        chase_iters: 0,
        branchy_iters: 4,
        syscall_period_log2: None,
        syscall_kind: SyscallKind::None,
        duration_eighths: 10,
    },
    WorkloadSpec {
        name: "swim",
        category: Category::Fp,
        footprint_units: 4,
        unit_body: 72,
        calls_per_iter: 1,
        mem: MemIntensity::High,
        chase_iters: 0,
        branchy_iters: 1,
        syscall_period_log2: None,
        syscall_kind: SyscallKind::None,
        duration_eighths: 16,
    },
    WorkloadSpec {
        name: "twolf",
        category: Category::Int,
        footprint_units: 16,
        unit_body: 28,
        calls_per_iter: 3,
        mem: MemIntensity::Low,
        chase_iters: 8,
        branchy_iters: 16,
        syscall_period_log2: None,
        syscall_kind: SyscallKind::None,
        duration_eighths: 11,
    },
    WorkloadSpec {
        name: "vortex",
        category: Category::Int,
        footprint_units: 64,
        unit_body: 28,
        calls_per_iter: 5,
        mem: MemIntensity::Low,
        chase_iters: 8,
        branchy_iters: 8,
        syscall_period_log2: Some(4),
        syscall_kind: SyscallKind::FileIo,
        duration_eighths: 4,
    },
    WorkloadSpec {
        name: "vpr",
        category: Category::Int,
        footprint_units: 16,
        unit_body: 24,
        calls_per_iter: 3,
        mem: MemIntensity::Low,
        chase_iters: 8,
        branchy_iters: 12,
        syscall_period_log2: None,
        syscall_kind: SyscallKind::None,
        duration_eighths: 9,
    },
    WorkloadSpec {
        name: "wupwise",
        category: Category::Fp,
        footprint_units: 8,
        unit_body: 56,
        calls_per_iter: 2,
        mem: MemIntensity::High,
        chase_iters: 0,
        branchy_iters: 2,
        syscall_period_log2: None,
        syscall_kind: SyscallKind::None,
        duration_eighths: 10,
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_has_26_unique_benchmarks() {
        assert_eq!(catalog().len(), 26);
        let mut names: Vec<&str> = catalog().iter().map(|spec| spec.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 26);
    }

    #[test]
    fn find_matches_catalog() {
        assert!(find("gcc").is_some());
        assert!(find("swim").is_some());
        assert!(find("nonexistent").is_none());
    }

    #[test]
    fn footprints_are_powers_of_two() {
        for spec in catalog() {
            assert!(
                spec.footprint_units.is_power_of_two(),
                "{} footprint {} not a power of two",
                spec.name,
                spec.footprint_units
            );
        }
    }

    #[test]
    fn gcc_has_the_largest_footprint() {
        let gcc = find("gcc").expect("gcc");
        for spec in catalog() {
            assert!(spec.footprint_units <= gcc.footprint_units);
        }
    }

    #[test]
    fn scale_targets_are_increasing() {
        assert!(Scale::Tiny.target_insts() < Scale::Small.target_insts());
        assert!(Scale::Small.target_insts() < Scale::Medium.target_insts());
        assert!(Scale::Medium.target_insts() < Scale::Large.target_insts());
    }

    #[test]
    fn every_scale_round_trips_through_its_name() {
        for name in Scale::CHOICES.split('|') {
            let scale = Scale::parse(name).expect("every listed choice parses");
            assert_eq!(scale.name(), name);
        }
        assert_eq!(Scale::parse("huge"), None);
        assert_eq!(Scale::parse(""), None);
    }
}
