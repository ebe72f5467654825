//! Regenerates every table and figure from the paper's evaluation (§6).
//!
//! Usage:
//!
//! ```text
//! reproduce [fig3|fig4|fig5|fig6|fig7|sigstats|pipeline|overhead|ablation|all]
//!           [--scale tiny|small|medium|large] [--threads N] [--json]
//! ```
//!
//! Build with `--release`; `medium` (the default) simulates ~10⁸ guest
//! instructions across the suite.

use superpin::cli::{ArgError, Args};
use superpin_bench::{figures, json, render};
use superpin_workloads::Scale;

struct Options {
    what: String,
    scale: Scale,
    threads: usize,
    as_json: bool,
}

fn parse_options(args: &[String]) -> Result<Options, ArgError> {
    let mut options = Options {
        what: "all".to_owned(),
        scale: Scale::Medium,
        threads: std::thread::available_parallelism().map_or(4, |n| n.get()),
        as_json: false,
    };
    let mut args = Args::new(args);
    while let Some(arg) = args.next() {
        match arg {
            "--scale" => {
                options.scale = args.parse_with("--scale", Scale::CHOICES, Scale::parse)?
            }
            "--json" => options.as_json = true,
            "--threads" => options.threads = args.threads()?,
            other if !other.starts_with('-') => options.what = other.to_owned(),
            other => return Err(ArgError::UnknownFlag(other.to_owned())),
        }
    }
    Ok(options)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Options {
        what,
        scale,
        threads,
        as_json,
    } = parse_options(&args).unwrap_or_else(|err| {
        eprintln!("reproduce: {err}");
        std::process::exit(2);
    });

    match what.as_str() {
        "fig3" => {
            let series = figures::fig3_icount1(scale, threads);
            if as_json {
                println!("{}", json::series_to_json(&series));
            } else {
                print!(
                    "{}",
                    render::render_series(
                        "Figure 3: icount1 — Pin and SuperPin runtime relative to native",
                        &series
                    )
                );
            }
        }
        "fig4" => {
            let series = figures::fig3_icount1(scale, threads);
            print!(
                "{}",
                render::render_series(
                    "Figure 4: icount1 — SuperPin speedup over Pin (same data as Fig. 3)",
                    &series
                )
            );
        }
        "fig5" => {
            let series = figures::fig5_icount2(scale, threads);
            if as_json {
                println!("{}", json::series_to_json(&series));
            } else {
                print!(
                    "{}",
                    render::render_series(
                        "Figure 5: icount2 — Pin and SuperPin runtime relative to native",
                        &series
                    )
                );
            }
        }
        "fig6" => {
            let rows = figures::fig6_timeslice(scale, &[500, 1000, 2000, 4000]);
            if as_json {
                println!("{}", json::fig6_to_json(&rows));
            } else {
                print!("{}", render::render_fig6(&rows));
            }
        }
        "fig7" => {
            let rows = figures::fig7_parallelism(scale, &[1, 2, 4, 8, 12, 16]);
            if as_json {
                println!("{}", json::fig7_to_json(&rows));
            } else {
                print!("{}", render::render_fig7(&rows));
            }
        }
        "sigstats" => {
            let summary = figures::signature_stats(scale, threads);
            if as_json {
                println!("{}", json::sigstats_to_json(&summary));
            } else {
                print!("{}", render::render_sigstats(&summary));
            }
        }
        "pipeline" => {
            let checks = figures::pipeline_model(scale, &[1000, 2000, 4000]);
            print!("{}", render::render_pipeline(&checks));
        }
        "overhead" => {
            let report = figures::overhead_breakdown(scale);
            print!("{}", render::render_overhead(&report));
        }
        "ablation" => {
            let rows = figures::ablations(scale);
            print!("{}", render::render_ablations(&rows));
        }
        "all" => print!("{}", render::render_all(scale, threads)),
        other => {
            eprintln!(
                "unknown figure `{other}` (fig3|fig4|fig5|fig6|fig7|sigstats|pipeline|overhead|ablation|all)"
            );
            std::process::exit(2);
        }
    }
}
