//! Render the `gfc-verify` static preflight report for a named scenario.
//!
//! ```text
//! cargo run --example preflight                      # tour of all scenarios
//! cargo run --example preflight -- ring-pfc          # one scenario, lint-style
//! cargo run --example preflight -- ring-pfc --json   # stable JSON
//! cargo run --example preflight -- ring-pfc --sarif  # SARIF 2.1.0
//! cargo run --example preflight -- corpus --sarif-dir target/sarif
//! ```
//!
//! With a scenario name the process exits non-zero when the report has
//! errors, so the analyzer can gate scripts the way a linter gates CI.
//! `corpus` runs every scenario against its expected verdict (exit 1 on
//! any mismatch) and, with `--sarif-dir`, writes one SARIF file per
//! scenario for CI artifact upload.
//!
//! The scenarios live in [`gfc_experiments::preflight_corpus`].

use gfc::verify::Report;
use gfc_experiments::preflight_corpus::{scenario, CORPUS};

fn show(title: &str, report: &Report) {
    println!("== {title}");
    for line in report.render().lines() {
        println!("   {line}");
    }
    println!();
}

/// Run every corpus scenario against its expected verdict; with a
/// `--sarif-dir`, also write `<dir>/<name>.sarif` per scenario.
fn run_corpus(sarif_dir: Option<&str>) -> i32 {
    if let Some(dir) = sarif_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create {dir}: {e}");
            return 2;
        }
    }
    let mut mismatches = 0;
    for &(name, expect_errors) in CORPUS {
        let (title, report) = scenario(name).expect("corpus scenario");
        let verdict = report.verdict();
        let ok = report.has_errors() == expect_errors;
        println!(
            "{} {name:<16} {} — {verdict}",
            if ok { "PASS" } else { "FAIL" },
            if report.has_errors() { "errors " } else { "clean  " },
        );
        if !ok {
            eprintln!(
                "corpus mismatch on {name} ({title}): expected has_errors = {expect_errors}\n{}",
                report.render()
            );
            mismatches += 1;
        }
        if let Some(dir) = sarif_dir {
            let path = format!("{dir}/{name}.sarif");
            if let Err(e) = std::fs::write(&path, report.to_sarif()) {
                eprintln!("cannot write {path}: {e}");
                return 2;
            }
        }
    }
    if mismatches > 0 {
        eprintln!("{mismatches} corpus scenario(s) off their expected verdict");
        1
    } else {
        0
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        None => {
            for &(name, _) in CORPUS {
                let (title, report) = scenario(name).expect("built-in scenario");
                show(&title, &report);
            }
        }
        Some("corpus") => {
            let sarif_dir = match args.get(1).map(String::as_str) {
                Some("--sarif-dir") => match args.get(2) {
                    Some(dir) => Some(dir.as_str()),
                    None => {
                        eprintln!("--sarif-dir needs a directory");
                        std::process::exit(2);
                    }
                },
                Some(other) => {
                    eprintln!("unknown corpus flag {other:?} — try --sarif-dir DIR");
                    std::process::exit(2);
                }
                None => None,
            };
            std::process::exit(run_corpus(sarif_dir));
        }
        Some(name) => match scenario(name) {
            Some((title, report)) => {
                match args.get(1).map(String::as_str) {
                    Some("--json") => print!("{}", report.to_json()),
                    Some("--sarif") => print!("{}", report.to_sarif()),
                    Some(flag) => {
                        eprintln!("unknown flag {flag:?} — try --json or --sarif");
                        std::process::exit(2);
                    }
                    None => show(&title, &report),
                }
                if report.has_errors() {
                    std::process::exit(1);
                }
            }
            None => {
                let names: Vec<&str> = CORPUS.iter().map(|&(n, _)| n).collect();
                eprintln!("unknown scenario {name:?} — try: {}, or corpus", names.join(", "));
                std::process::exit(2);
            }
        },
    }
}
