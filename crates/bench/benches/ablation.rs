//! Ablations of SuperPin design choices called out in DESIGN.md:
//!
//! * **adaptive timeslice throttling** (paper §8 future work) vs the
//!   fixed timeslice — pipeline-delay reduction;
//! * **scheduler policy**: fair-share (paper behaviour) vs an idealized
//!   master-pinned scheduler;
//! * **syscall recording** on vs off (`-spsysrecs 0`) — fork-rate blowup.

use criterion::{criterion_group, criterion_main, Criterion};
use superpin::{SharedMem, SuperPinConfig};
use superpin_bench::runs::{figure_config, run_superpin};
use superpin_replay::recipe::time_scale_for;
use superpin_sched::Policy;
use superpin_tools::ICount2;
use superpin_workloads::{find, Scale};

fn run_gcc(cfg: SuperPinConfig) -> superpin::SuperPinReport {
    let spec = find("gcc").expect("gcc");
    let program = spec.build(Scale::Small);
    let shared = SharedMem::new();
    let tool = ICount2::new(&shared);
    run_superpin(&program, tool, &shared, cfg, spec.name)
}

fn bench(c: &mut Criterion) {
    let scale = Scale::Small;

    // Adaptive throttling ablation.
    let fixed = run_gcc(figure_config(2000, scale));
    let mut adaptive_cfg = figure_config(2000, scale);
    adaptive_cfg.adaptive_estimate = Some(fixed.master_exit_cycles);
    let adaptive = run_gcc(adaptive_cfg.clone());
    println!(
        "ablation/adaptive: fixed pipeline {:.2}s vs adaptive {:.2}s (total {:.1}s vs {:.1}s)",
        adaptive_cfg.present_secs(fixed.breakdown.pipeline_cycles),
        adaptive_cfg.present_secs(adaptive.breakdown.pipeline_cycles),
        adaptive_cfg.present_secs(fixed.total_cycles),
        adaptive_cfg.present_secs(adaptive.total_cycles),
    );

    // Scheduler-policy ablation.
    let mut master_first = figure_config(2000, scale);
    master_first.policy = Policy::MasterFirst;
    let pinned = run_gcc(master_first.clone());
    println!(
        "ablation/policy: fair-share total {:.1}s vs master-first {:.1}s",
        master_first.present_secs(fixed.total_cycles),
        master_first.present_secs(pinned.total_cycles),
    );

    // Shared code cache ablation (paper §8).
    let mut shared_cache_cfg = figure_config(500, scale);
    shared_cache_cfg.shared_code_cache = true;
    let shared_cache = run_gcc(shared_cache_cfg.clone());
    let short_private = run_gcc(figure_config(500, scale));
    println!(
        "ablation/shared-cache @0.5s: private total {:.1}s vs shared {:.1}s",
        shared_cache_cfg.present_secs(short_private.total_cycles),
        shared_cache_cfg.present_secs(shared_cache.total_cycles),
    );
    assert!(shared_cache.total_cycles < short_private.total_cycles);

    // Syscall-recording ablation — on vortex: gcc's brk churn is
    // Duplicate-class and never forces a slice, but vortex's writes are
    // recordable, so disabling recording forks at each of them.
    let run_vortex = |cfg: SuperPinConfig| {
        let spec = find("vortex").expect("vortex");
        let program = spec.build(Scale::Small);
        let shared = SharedMem::new();
        let tool = ICount2::new(&shared);
        run_superpin(&program, tool, &shared, cfg, spec.name)
    };
    let recs_on = run_vortex(figure_config(2000, scale));
    let recs_off =
        run_vortex(SuperPinConfig::scaled(2000, time_scale_for(scale)).with_max_sysrecs(0));
    println!(
        "ablation/sysrecs (vortex): recording forks(syscall)={} vs disabled forks(syscall)={}",
        recs_on.forks_on_syscall, recs_off.forks_on_syscall,
    );
    assert!(recs_off.forks_on_syscall > recs_on.forks_on_syscall);

    let mut group = c.benchmark_group("ablation");
    group.sample_size(10);
    group.bench_function("gcc_fixed_timeslice", |b| {
        b.iter(|| run_gcc(figure_config(2000, scale)))
    });
    group.bench_function("gcc_adaptive_timeslice", |b| {
        b.iter(|| run_gcc(adaptive_cfg.clone()))
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
