//! Harness-level tests: figure data sanity at tiny scale and table
//! rendering.

use superpin_bench::figures::{Fig6Row, Fig7Row, FigRow, FigSeries};
use superpin_bench::render;
use superpin_bench::runs::{figure_config, run_triple, IcountKind};
use superpin_workloads::{find, Scale};

#[test]
fn triple_runs_are_consistent_for_both_tools() {
    let spec = find("gzip").expect("gzip");
    let cfg = figure_config(2000, Scale::Tiny);
    for kind in [IcountKind::Icount1, IcountKind::Icount2] {
        let triple = run_triple(spec, Scale::Tiny, &cfg, kind);
        assert!(triple.counts_agree(), "{kind:?}");
        assert!(
            triple.pin_pct() > 100.0,
            "{kind:?}: Pin must cost something"
        );
        assert!(triple.speedup() > 0.0);
        assert_eq!(triple.superpin.slice_inst_total(), triple.native_insts);
    }
}

#[test]
fn icount1_costs_more_than_icount2_under_pin() {
    let spec = find("swim").expect("swim");
    let cfg = figure_config(2000, Scale::Tiny);
    let i1 = run_triple(spec, Scale::Tiny, &cfg, IcountKind::Icount1);
    let i2 = run_triple(spec, Scale::Tiny, &cfg, IcountKind::Icount2);
    assert!(
        i1.pin_cycles > 2 * i2.pin_cycles,
        "icount1 ({}) must dwarf icount2 ({}) under Pin",
        i1.pin_cycles,
        i2.pin_cycles
    );
    assert_eq!(i1.pin_count, i2.pin_count, "identical output (paper §5.1)");
}

fn sample_series() -> FigSeries {
    FigSeries {
        rows: vec![
            FigRow {
                benchmark: "gcc",
                pin_pct: 896.0,
                superpin_pct: 217.0,
                speedup: 4.12,
                slices: 85,
                counts_ok: true,
            },
            FigRow {
                benchmark: "swim",
                pin_pct: 1104.0,
                superpin_pct: 215.0,
                speedup: 5.13,
                slices: 64,
                counts_ok: false,
            },
        ],
        avg_pin_pct: 1000.0,
        avg_superpin_pct: 216.0,
        avg_speedup: 4.6,
    }
}

#[test]
fn series_rendering_contains_rows_and_average() {
    let text = render::render_series("Figure X", &sample_series());
    assert!(text.starts_with("Figure X"));
    assert!(text.contains("gcc"));
    assert!(text.contains("4.12x"));
    assert!(text.contains("MISMATCH"), "count failures must be loud");
    assert!(text.lines().last().expect("avg line").starts_with("AVG"));
}

#[test]
fn fig6_rendering_lists_components() {
    let rows = vec![Fig6Row {
        timeslice_secs: 0.5,
        native_secs: 98.2,
        fork_other_secs: 100.0,
        sleep_secs: 111.5,
        pipeline_secs: 5.1,
        total_secs: 314.8,
        slices: 397,
    }];
    let text = render::render_fig6(&rows);
    assert!(text.contains("fork&others"));
    assert!(text.contains("0.5s"));
    assert!(text.contains("314.8"));
}

#[test]
fn fig7_rendering_lists_limits() {
    let rows = vec![
        Fig7Row {
            max_slices: 1,
            runtime_secs: 1068.1,
            stall_events: 140,
        },
        Fig7Row {
            max_slices: 16,
            runtime_secs: 192.8,
            stall_events: 0,
        },
    ];
    let text = render::render_fig7(&rows);
    assert!(text.contains("1068.1s"));
    assert!(text.contains("192.8s"));
}

#[test]
fn gantt_renders_master_and_slices() {
    use superpin::{SharedMem, SuperPinConfig, SuperPinRunner};
    use superpin_tools::ICount2;
    use superpin_vm::process::Process;
    let program = find("swim").expect("swim").build(Scale::Tiny);
    let shared = SharedMem::new();
    let mut cfg = SuperPinConfig::paper_default();
    cfg.timeslice_cycles = 4_000;
    cfg.quantum_cycles = 250;
    let report = SuperPinRunner::new(
        Process::load(1, &program).expect("load"),
        ICount2::new(&shared),
        shared,
        cfg,
    )
    .expect("setup")
    .run()
    .expect("run");
    let chart = render::render_gantt(&report, 80);
    assert!(chart.contains("master   |"));
    assert!(chart.contains("slice   1|"));
    assert!(chart.contains('#'), "slices must show run spans");
    // Every row is the same width.
    let widths: Vec<usize> = chart
        .lines()
        .skip(1)
        .map(|line| line.chars().count())
        .collect();
    assert!(
        widths.windows(2).all(|w| w[0] == w[1]),
        "ragged chart: {widths:?}"
    );
}

#[test]
fn parallel_over_catalog_preserves_order() {
    let names = superpin_bench::runs::parallel_over_catalog(4, |spec| spec.name);
    let expected: Vec<&str> = superpin_workloads::catalog()
        .iter()
        .map(|spec| spec.name)
        .collect();
    assert_eq!(names, expected);
}

#[test]
fn modeled_speedup_follows_amdahl() {
    // 75% parallelizable at 4 cores: 1 / (0.25 + 0.75/4) ≈ 2.286.
    let profile = superpin::HostProfile {
        supervisor_ns: 250,
        slice_ns: 750,
    };
    assert!((profile.modeled_speedup(4) - 1.0 / (0.25 + 0.75 / 4.0)).abs() < 1e-9);
    assert!((profile.modeled_speedup(1) - 1.0).abs() < 1e-9);
    assert!((profile.slice_fraction() - 0.75).abs() < 1e-9);
}
