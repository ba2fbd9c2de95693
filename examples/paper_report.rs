//! Regenerate the paper's full evaluation at a chosen scale and print the
//! paper-vs-measured report for every table and figure.
//!
//! ```text
//! cargo run --release --example paper_report            # quick scale
//! cargo run --release --example paper_report -- quick   # the same
//! cargo run --release --example paper_report -- paper   # paper scale (hours)
//! ```
//!
//! Any other argument prints the choices and exits with status 2.
//!
//! The output of the quick-scale run is what EXPERIMENTS.md records.

use gfc_core::units::Time;
use gfc_experiments::fig09::RingParams;
use gfc_experiments::fig12::FatTreeCaseParams;
use gfc_experiments::*;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = match args.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        [] | ["quick"] => Scale::Quick,
        ["paper"] => Scale::Paper,
        _ => {
            eprintln!("unknown arguments {args:?} — try: quick (the default) or paper");
            std::process::exit(2);
        }
    };
    println!("=== GFC paper evaluation, scale: {scale:?} ===\n");

    let t0 = std::time::Instant::now();
    println!("{}", fig05::run(fig05::Fig05Params::default()).report());
    let ring = RingParams { horizon: Time::from_millis(80), ..Default::default() };
    println!("{}", fig09::run(ring.clone()).report());
    println!("{}", fig10::run(ring).report());
    let case = FatTreeCaseParams { seed: 12, ..Default::default() };
    println!("{}", fig12::run(case.clone()).report());
    println!("{}", fig13::run(case.clone()).report());
    println!("{}", fig14::run(case).report());
    println!("{}", table1::run(table1::Table1Params::at_scale(scale)).report());
    let perf = perf::run(perf::PerfParams::at_scale(scale));
    println!("{}", perf.report_fig16());
    println!("{}", perf.report_fig17());
    println!("{}", fig18::run(fig18::Fig18Params::at_scale(scale)).report());
    println!("{}", fig19::run(fig19::Fig19Params::at_scale(scale)).report());
    println!("{}", fig20::run(fig20::Fig20Params::default()).report());
    println!("{}", ablation::run(ablation::AblationParams::default()).report());
    println!("{}", ablation::tau_sweep_report(&ablation::run_tau_sweep(4)));
    println!("=== done in {:.1} s ===", t0.elapsed().as_secs_f64());
}
