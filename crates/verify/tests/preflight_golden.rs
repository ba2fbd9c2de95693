//! Golden preflight corpus: every scenario of
//! `gfc_experiments::preflight_corpus` must render the checked-in JSON
//! report and SARIF log byte for byte, which pins the set of findings,
//! their order, the break-set hints and the peel round counts.
//!
//! The fixtures are the `preflight` example's own output; after an
//! intended change to the analysis, regenerate them with
//! `cargo run --release --example preflight -- <scenario> --json` per
//! scenario and `cargo run --release --example preflight -- corpus
//! --sarif-dir crates/verify/tests/fixtures`.

use gfc_experiments::preflight_corpus::{scenario, CORPUS};

#[test]
fn corpus_reports_match_golden_fixtures() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures");
    let mut drifted = Vec::new();
    for &(name, _) in CORPUS {
        let (_, report) = scenario(name).expect("corpus scenario");
        for (ext, got) in [("json", report.to_json()), ("sarif", report.to_sarif())] {
            let path = format!("{dir}/{name}.{ext}");
            let want =
                std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
            if got != want {
                drifted.push(path);
            }
        }
    }
    assert!(drifted.is_empty(), "preflight output differs from the golden fixtures: {drifted:?}");
}
