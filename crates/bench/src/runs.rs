//! Shared run helpers: native / Pin / SuperPin triples per benchmark.

use superpin::baseline::{run_native, run_pin};
use superpin::{SharedMem, SuperPinConfig, SuperPinReport, SuperPinRunner, SuperTool};
use superpin_replay::recipe::time_scale_for;
use superpin_vm::process::Process;
use superpin_workloads::{Scale, WorkloadSpec};

/// The figures' standard configuration: `paper_msec` timeslice, 8-way
/// SMP (no hyperthreading — Figures 3–6), 8 max slices.
pub fn figure_config(paper_msec: u64, scale: Scale) -> SuperPinConfig {
    SuperPinConfig::scaled(paper_msec, time_scale_for(scale))
}

/// Results of running one benchmark natively, under Pin, and under
/// SuperPin with the same tool.
#[derive(Clone, Debug)]
pub struct TripleResult {
    /// Benchmark name.
    pub name: &'static str,
    /// Native cycles (single core, uninstrumented).
    pub native_cycles: u64,
    /// Ground-truth dynamic instruction count.
    pub native_insts: u64,
    /// Serial Pin cycles with the tool.
    pub pin_cycles: u64,
    /// The tool's count under serial Pin.
    pub pin_count: u64,
    /// Full SuperPin report.
    pub superpin: SuperPinReport,
    /// The tool's merged count under SuperPin.
    pub merged_count: u64,
}

impl TripleResult {
    /// Pin runtime as a percentage of native (Figures 3/5 y-axis).
    pub fn pin_pct(&self) -> f64 {
        100.0 * self.pin_cycles as f64 / self.native_cycles as f64
    }

    /// SuperPin runtime as a percentage of native.
    pub fn superpin_pct(&self) -> f64 {
        100.0 * self.superpin.total_cycles as f64 / self.native_cycles as f64
    }

    /// SuperPin speedup over Pin (Figure 4 y-axis).
    pub fn speedup(&self) -> f64 {
        self.pin_cycles as f64 / self.superpin.total_cycles as f64
    }

    /// Whether all three counts agree (the correctness invariant).
    pub fn counts_agree(&self) -> bool {
        self.pin_count == self.native_insts && self.merged_count == self.native_insts
    }
}

/// Runs the native/Pin/SuperPin triple for one benchmark with a
/// counting tool: `new_tool` builds it over a run's [`SharedMem`] and
/// `total` reads its merged count back, e.g.
/// `run_triple(spec, scale, &cfg, ICount1::new, ICount1::total)`.
/// Serial Pin is merged as slice 1, so both counts come through `total`.
///
/// # Panics
///
/// Panics if any run fails — harness code treats simulator errors as
/// fatal.
pub fn run_triple<T: SuperTool>(
    spec: &WorkloadSpec,
    scale: Scale,
    cfg: &SuperPinConfig,
    new_tool: impl Fn(&SharedMem) -> T,
    total: impl Fn(&T, &SharedMem) -> u64,
) -> TripleResult {
    let program = spec.build(scale);
    let native = run_native(Process::load(1, &program).expect("load"))
        .unwrap_or_else(|e| panic!("{} native: {e}", spec.name));

    let pin_shared = SharedMem::new();
    let mut pin = run_pin(
        Process::load(1, &program).expect("load"),
        new_tool(&pin_shared),
    )
    .unwrap_or_else(|e| panic!("{} pin: {e}", spec.name));
    pin.tool.on_slice_end(1, &pin_shared);

    let shared = SharedMem::new();
    let tool = new_tool(&shared);
    let superpin = run_superpin(&program, tool.clone(), &shared, cfg.clone(), spec.name);

    TripleResult {
        name: spec.name,
        native_cycles: native.cycles,
        native_insts: native.insts,
        pin_cycles: pin.cycles,
        pin_count: total(&pin.tool, &pin_shared),
        superpin,
        merged_count: total(&tool, &shared),
    }
}

/// Runs SuperPin over a program with an arbitrary tool.
///
/// # Panics
///
/// Panics on simulator errors.
pub fn run_superpin<T: SuperTool>(
    program: &superpin_isa::Program,
    tool: T,
    shared: &SharedMem,
    cfg: SuperPinConfig,
    name: &str,
) -> SuperPinReport {
    let process = Process::load(1, program).expect("load");
    SuperPinRunner::new(process, tool, shared.clone(), cfg)
        .unwrap_or_else(|e| panic!("{name} superpin setup: {e}"))
        .run()
        .unwrap_or_else(|e| panic!("{name} superpin: {e}"))
}

/// Runs a closure over every catalog benchmark on `threads` worker
/// threads, preserving catalog order in the output.
pub fn parallel_over_catalog<R, F>(threads: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(&'static WorkloadSpec) -> R + Sync,
{
    let specs = superpin_workloads::catalog();
    let mut results: Vec<Option<R>> = (0..specs.len()).map(|_| None).collect();
    let next = std::sync::atomic::AtomicUsize::new(0);
    let results_mutex = std::sync::Mutex::new(&mut results);

    std::thread::scope(|scope| {
        for _ in 0..threads.max(1) {
            scope.spawn(|| loop {
                let index = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if index >= specs.len() {
                    break;
                }
                let result = f(&specs[index]);
                results_mutex.lock().expect("no panics hold the lock")[index] = Some(result);
            });
        }
    });

    results
        .into_iter()
        .map(|slot| slot.expect("every index filled"))
        .collect()
}
