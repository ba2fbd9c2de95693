//! # gfc-bench — benchmark harness shared helpers
//!
//! Each bench target under `benches/` regenerates one table or figure of
//! the paper: it prints the paper-vs-measured report once, then times the
//! regeneration with Criterion. Run a single figure with e.g.
//! `cargo bench -p gfc-bench --bench fig09_ring_pfc_gfc`, or everything
//! with `cargo bench --workspace`.
//!
//! Two targets hand-roll their timing loops instead (they need event
//! counts next to wall clocks): `core_throughput` (the canonical
//! scenarios, `BENCH_core.json`) and `bench_matrix` (the topology ×
//! scheme × load grid, `BENCH_matrix.json`, with a regression gate
//! against a committed baseline). This crate hosts their shared runner:
//! [`measure`], [`RunMeta`], the hand-rolled JSON cell format
//! ([`parse_cells`]), the median-normalized [`regression_gate`], and the
//! append-only perf-trajectory log ([`append_history`] →
//! `BENCH_history.jsonl`, one JSON line per gated run).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use gfc_core::json::json_str;
use gfc_core::units::Time;
use gfc_sim::Network;
use gfc_telemetry::names;
use std::sync::Once;
use std::time::Instant;

/// Print a figure's report exactly once per process (the timed iterations
/// stay silent).
pub fn print_report_once(once: &'static Once, report: impl FnOnce() -> String) {
    once.call_once(|| {
        println!("\n{}", report());
    });
}

/// The Criterion configuration used by every figure bench: small sample
/// counts — each iteration is a full packet-level simulation.
#[macro_export]
macro_rules! gfc_criterion {
    () => {
        criterion::Criterion::default()
            .sample_size(10)
            .warm_up_time(std::time::Duration::from_millis(500))
            .measurement_time(std::time::Duration::from_secs(5))
    };
}

/// Boilerplate for a figure bench: prints the report once, then times the
/// closure.
#[macro_export]
macro_rules! figure_bench {
    ($name:ident, $bench_id:literal, $run:expr, $report:expr) => {
        fn $name(c: &mut criterion::Criterion) {
            static ONCE: std::sync::Once = std::sync::Once::new();
            $crate::print_report_once(&ONCE, $report);
            c.bench_function($bench_id, |b| b.iter(|| criterion::black_box($run())));
        }

        criterion::criterion_group! {
            name = benches;
            config = $crate::gfc_criterion!();
            targets = $name
        }
        criterion::criterion_main!(benches);
    };
}

/// One scenario's (or matrix cell's) measurement.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Scenario or cell name.
    pub name: String,
    /// Simulated horizon in milliseconds.
    pub sim_horizon_ms: f64,
    /// Events dispatched per run (bit-identical across repetitions).
    pub events: u64,
    /// Fastest wall time across repetitions, milliseconds.
    pub wall_ms: f64,
    /// `events / wall` of the fastest run.
    pub events_per_sec: f64,
    /// Number of timed repetitions.
    pub runs: usize,
}

/// Time `build`+`run` cycles: the network construction is excluded, the
/// event loop (including lazy SPF route resolution, which is part of the
/// per-flow hot path) is timed. Returns the fastest of `runs` timings;
/// every repetition replays the same deterministic event sequence (this
/// is asserted), so min is the noise-free estimator.
pub fn measure(
    name: impl Into<String>,
    horizon: Time,
    runs: usize,
    build: impl Fn() -> Network,
) -> Measurement {
    let name = name.into();
    let mut best_wall = f64::INFINITY;
    let mut events = 0u64;
    for r in 0..runs {
        let mut net = build();
        let start = Instant::now();
        net.run_until(horizon);
        let wall = start.elapsed().as_secs_f64();
        let ev = net.metrics_snapshot().counter(names::EVENTS).unwrap_or(0);
        if r == 0 {
            events = ev;
        } else {
            assert_eq!(ev, events, "{name}: event count varied across identical runs");
        }
        best_wall = best_wall.min(wall);
    }
    Measurement {
        name,
        sim_horizon_ms: horizon.as_millis_f64(),
        events,
        wall_ms: best_wall * 1e3,
        events_per_sec: events as f64 / best_wall,
        runs,
    }
}

/// Provenance of a benchmark run, recorded in every emitted JSON so a
/// trajectory point can be attributed to a commit, toolchain and machine.
#[derive(Debug, Clone)]
pub struct RunMeta {
    /// `git rev-parse HEAD`, or `"unknown"` outside a checkout.
    pub commit: String,
    /// `rustc -V`.
    pub rustc: String,
    /// CPU model name from `/proc/cpuinfo` (or `"unknown"`).
    pub cpu_model: String,
    /// Logical core count.
    pub cores: usize,
}

fn cmd_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let s = String::from_utf8(out.stdout).ok()?;
    let line = s.lines().next()?.trim();
    (!line.is_empty()).then(|| line.to_string())
}

/// Collect [`RunMeta`] from the environment, degrading each field to
/// `"unknown"` rather than failing (CI runners and dev machines differ).
pub fn run_meta() -> RunMeta {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    RunMeta {
        commit: cmd_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into()),
        rustc: cmd_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".into()),
        cpu_model,
        cores: std::thread::available_parallelism().map_or(0, std::num::NonZero::get),
    }
}

/// Render one perf-trajectory point as a single JSON line: bench name,
/// wall-clock unix timestamp, the [`RunMeta`] provenance, mode, and the
/// per-cell events/s. One line per run is the format guarantee of
/// `BENCH_history.jsonl` — appended, never rewritten, so the gated
/// numbers accumulate into a real trajectory instead of the single
/// point `BENCH_*.json` hold.
pub fn history_line(bench: &str, meta: &RunMeta, mode: &str, cells: &[(String, f64)]) -> String {
    let ts = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let cells_json: Vec<String> = cells
        .iter()
        .map(|(n, e)| format!("{{\"name\": {}, \"events_per_sec\": {e:.0}}}", json_str(n)))
        .collect();
    format!(
        "{{\"bench\": {}, \"unix_ts\": {ts}, \"commit\": {}, \"rustc\": {}, \
         \"cpu_model\": {}, \"cores\": {}, \"mode\": {}, \"cells\": [{}]}}",
        json_str(bench),
        json_str(&meta.commit),
        json_str(&meta.rustc),
        json_str(&meta.cpu_model),
        meta.cores,
        json_str(mode),
        cells_json.join(", ")
    )
}

/// Where the perf-trajectory log lives: `GFC_BENCH_HISTORY` when set,
/// else `BENCH_history.jsonl` at the repo root.
pub fn history_path() -> String {
    std::env::var("GFC_BENCH_HISTORY")
        .unwrap_or_else(|_| format!("{}/../../BENCH_history.jsonl", env!("CARGO_MANIFEST_DIR")))
}

/// Append one run to the perf-trajectory log at `path` (created on first
/// use), as a single [`history_line`]. Runners call this after every
/// gated measurement; failures are reported to the caller rather than
/// panicking — a read-only checkout must not fail the bench itself.
pub fn append_history(
    path: &str,
    bench: &str,
    meta: &RunMeta,
    mode: &str,
    cells: &[(String, f64)],
) -> std::io::Result<()> {
    use std::io::Write;
    let mut f = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
    writeln!(f, "{}", history_line(bench, meta, mode, cells))
}

/// Render the `"meta"` object shared by `BENCH_core.json` and
/// `BENCH_matrix.json` (no trailing comma or newline).
pub fn meta_json(meta: &RunMeta, mode: &str, runs: usize) -> String {
    format!(
        "  \"meta\": {{\"commit\": {}, \"rustc\": {}, \"cpu_model\": {}, \
         \"cores\": {}, \"mode\": {}, \"runs\": {}}}",
        json_str(&meta.commit),
        json_str(&meta.rustc),
        json_str(&meta.cpu_model),
        meta.cores,
        json_str(mode),
        runs,
    )
}

/// Render one measurement as a single-line JSON object. `extra` is spliced
/// verbatim after the name (e.g. `"topo": ..., "scheme": ..., "load": ...`
/// for matrix cells); pass `""` for plain scenarios. One cell per line is
/// a format guarantee — [`parse_cells`] scans line by line.
pub fn cell_json(m: &Measurement, extra: &str) -> String {
    format!(
        "{{\"name\": {}, {}\"sim_horizon_ms\": {:.3}, \"events\": {}, \
         \"wall_ms\": {:.3}, \"events_per_sec\": {:.0}, \"runs\": {}}}",
        json_str(&m.name),
        extra,
        m.sim_horizon_ms,
        m.events,
        m.wall_ms,
        m.events_per_sec,
        m.runs,
    )
}

fn field_str(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\": \"");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    Some(rest[..rest.find('"')?].to_string())
}

fn field_num(line: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\": ");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end =
        rest.find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c))).unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Extract `(name, events_per_sec)` pairs from a bench JSON emitted by
/// [`cell_json`] (one object per line). Tolerant of surrounding structure;
/// anything that isn't a cell line is skipped.
pub fn parse_cells(json: &str) -> Vec<(String, f64)> {
    json.lines()
        .filter_map(|l| Some((field_str(l, "name")?, field_num(l, "events_per_sec")?)))
        .collect()
}

/// Extract the `"mode"` recorded in a bench JSON's meta block, if any.
pub fn parse_mode(json: &str) -> Option<String> {
    json.lines().find_map(|l| field_str(l, "mode"))
}

/// One parsed line of `BENCH_history.jsonl`: which bench emitted it,
/// under which measurement mode, and its per-cell throughputs.
#[derive(Debug, Clone, PartialEq)]
pub struct HistoryPoint {
    /// Bench name (`"core_throughput"`, `"bench_matrix"`, ...).
    pub bench: String,
    /// Measurement mode (`"smoke"` / `"full"`); `"unknown"` for lines
    /// predating the mode tag.
    pub mode: String,
    /// `(cell name, events/s)` pairs, line order.
    pub cells: Vec<(String, f64)>,
}

/// Extract every `(name, events_per_sec)` pair from one history line —
/// unlike the bench JSONs ([`parse_cells`], one cell per line), a
/// trajectory point packs its whole cell array onto a single line.
fn cells_in_line(line: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    let mut rest = line;
    while let Some(pos) = rest.find("{\"name\": \"") {
        let chunk = &rest[pos..];
        if let (Some(n), Some(e)) = (field_str(chunk, "name"), field_num(chunk, "events_per_sec")) {
            out.push((n, e));
        }
        rest = &rest[pos + 1..];
    }
    out
}

/// Parse a trajectory log ([`history_line`] per line) into points. Lines
/// that don't carry a bench name are skipped; smoke and full runs share
/// the log, so comparisons must filter by mode — see
/// [`latest_history_cells`].
pub fn parse_history(log: &str) -> Vec<HistoryPoint> {
    log.lines()
        .filter_map(|l| {
            Some(HistoryPoint {
                bench: field_str(l, "bench")?,
                mode: field_str(l, "mode").unwrap_or_else(|| "unknown".into()),
                cells: cells_in_line(l),
            })
        })
        .collect()
}

/// The most recent trajectory point of `bench` measured under `mode` —
/// the only baseline a new `mode` run is comparable to (smoke and full
/// horizons produce different event mixes per cell, so cross-mode ratios
/// are not a regression signal). Returns its cells, or `None` when the
/// log holds no same-mode point.
pub fn latest_history_cells(log: &str, bench: &str, mode: &str) -> Option<Vec<(String, f64)>> {
    parse_history(log)
        .into_iter()
        .rev()
        .find(|p| p.bench == bench && p.mode == mode && !p.cells.is_empty())
        .map(|p| p.cells)
}

/// The outcome of a [`regression_gate`] comparison.
#[derive(Debug, Clone)]
pub struct GateReport {
    /// Human-readable per-cell delta table (print this on failure — and
    /// on success, for the CI log).
    pub table: String,
    /// True if any cell regressed beyond tolerance or the cell sets
    /// disagree.
    pub failed: bool,
    /// Names of the cells that tripped the normalized threshold, in
    /// table order. Empty when the failure is a cell-set mismatch —
    /// re-measuring cannot fix that.
    pub regressed: Vec<String>,
}

/// Compare current cell throughputs against a committed baseline.
///
/// Machines differ, so raw events/s is not comparable across hosts: each
/// cell's ratio `current / baseline` is first normalized by the *median*
/// ratio across all cells (the machine-speed factor), and a cell fails if
/// its normalized ratio drops below `1 − tolerance`. This catches a
/// regression localized to some cells while tolerating a uniformly
/// faster or slower runner; a *uniform* regression across every cell
/// moves the median itself and is invisible here — that is what the
/// committed absolute numbers in the baseline are for (inspect them when
/// the trajectory matters).
///
/// Cell-set mismatches (added/removed cells) fail the gate: the baseline
/// must be regenerated deliberately when the matrix changes.
pub fn regression_gate(
    baseline: &[(String, f64)],
    current: &[(String, f64)],
    tolerance: f64,
) -> GateReport {
    use std::collections::BTreeMap;
    let base: BTreeMap<&str, f64> = baseline.iter().map(|(n, e)| (n.as_str(), *e)).collect();
    let cur: BTreeMap<&str, f64> = current.iter().map(|(n, e)| (n.as_str(), *e)).collect();

    let mut table = String::new();
    let mut failed = false;
    for name in base.keys() {
        if !cur.contains_key(name) {
            table += &format!("  {name}: in baseline but not in current run\n");
            failed = true;
        }
    }
    for name in cur.keys() {
        if !base.contains_key(name) {
            table += &format!("  {name}: in current run but not in baseline\n");
            failed = true;
        }
    }

    let mut ratios: Vec<f64> = cur
        .iter()
        .filter_map(|(n, c)| base.get(n).map(|b| c / b))
        .filter(|r| r.is_finite())
        .collect();
    ratios.sort_by(f64::total_cmp);
    let median = if ratios.is_empty() {
        failed = true;
        table += "  no comparable cells\n";
        1.0
    } else {
        ratios[ratios.len() / 2]
    };

    table += &format!(
        "  {:<28} {:>14} {:>14} {:>8} {:>8}\n",
        "cell", "baseline ev/s", "current ev/s", "raw", "norm"
    );
    let mut regressed = Vec::new();
    for (name, c) in &cur {
        let Some(b) = base.get(name) else { continue };
        let raw = c / b;
        let norm = raw / median;
        let trip = norm < 1.0 - tolerance;
        failed |= trip;
        if trip {
            regressed.push((*name).to_string());
        }
        table += &format!(
            "  {:<28} {:>14.0} {:>14.0} {:>7.1}% {:>7.1}%{}\n",
            name,
            b,
            c,
            (raw - 1.0) * 100.0,
            (norm - 1.0) * 100.0,
            if trip { "  <-- REGRESSION" } else { "" }
        );
    }
    table += &format!(
        "  median machine-speed ratio {:.3}; gate trips below {:.0}% normalized\n",
        median,
        (1.0 - tolerance) * 100.0
    );
    GateReport { table, failed, regressed }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cells(v: &[(&str, f64)]) -> Vec<(String, f64)> {
        v.iter().map(|(n, e)| (n.to_string(), *e)).collect()
    }

    #[test]
    fn cell_json_roundtrips_through_parse_cells() {
        let m = Measurement {
            name: "ring3:greedy:pfc".into(),
            sim_horizon_ms: 10.0,
            events: 123_456,
            wall_ms: 12.5,
            events_per_sec: 9_876_480.0,
            runs: 3,
        };
        let json = format!(
            "{{\n  \"cells\": [\n    {}\n  ]\n}}\n",
            cell_json(&m, "\"topo\": \"ring3\", \"scheme\": \"pfc\", \"load\": \"greedy\", ")
        );
        let parsed = parse_cells(&json);
        assert_eq!(parsed, vec![("ring3:greedy:pfc".to_string(), 9_876_480.0)]);
    }

    #[test]
    fn gate_passes_identical_and_uniformly_scaled_runs() {
        let base = cells(&[("a", 1e6), ("b", 2e6), ("c", 4e6)]);
        assert!(!regression_gate(&base, &base, 0.10).failed);
        // A uniformly 3x faster machine: every ratio equals the median.
        let fast = cells(&[("a", 3e6), ("b", 6e6), ("c", 12e6)]);
        assert!(!regression_gate(&base, &fast, 0.10).failed);
    }

    #[test]
    fn gate_trips_on_localized_regression() {
        let base = cells(&[("a", 1e6), ("b", 2e6), ("c", 4e6)]);
        // Cell c lost 40% while the others held: normalized ratio 0.6.
        let bad = cells(&[("a", 1e6), ("b", 2e6), ("c", 2.4e6)]);
        let report = regression_gate(&base, &bad, 0.10);
        assert!(report.failed);
        assert!(report.table.contains("REGRESSION"));
        assert_eq!(report.regressed, vec!["c".to_string()]);
        // Within tolerance: 5% off on one cell passes a 10% gate.
        let ok = cells(&[("a", 1e6), ("b", 2e6), ("c", 3.8e6)]);
        assert!(!regression_gate(&base, &ok, 0.10).failed);
    }

    #[test]
    fn gate_fails_on_cell_set_mismatch() {
        let base = cells(&[("a", 1e6), ("b", 2e6)]);
        let missing = cells(&[("a", 1e6)]);
        let report = regression_gate(&base, &missing, 0.10);
        assert!(report.failed);
        // A missing cell is not something a re-measure can fix.
        assert!(report.regressed.is_empty());
        let extra = cells(&[("a", 1e6), ("b", 2e6), ("d", 1e6)]);
        assert!(regression_gate(&base, &extra, 0.10).failed);
    }

    #[test]
    fn history_lines_accumulate_and_parse() {
        let meta = RunMeta {
            commit: "abc123".into(),
            rustc: "rustc 1.0 \"quoted\"".into(),
            cpu_model: "Test CPU".into(),
            cores: 8,
        };
        let cells = cells(&[("ring3:greedy:pfc", 1.5e6), ("ft_k4:uniform:pfc", 2e6)]);
        let line = history_line("bench_matrix", &meta, "smoke", &cells);
        assert!(!line.contains('\n'), "a history point must be a single line");
        assert!(line.contains("\"commit\": \"abc123\""));
        assert!(line.contains("\\\"quoted\\\""), "quotes must be escaped: {line}");
        assert!(line.contains("\"events_per_sec\": 1500000"));

        let path = std::env::temp_dir().join(format!("gfc_hist_{}.jsonl", std::process::id()));
        let path = path.to_str().unwrap();
        let _ = std::fs::remove_file(path);
        append_history(path, "bench_matrix", &meta, "smoke", &cells).unwrap();
        append_history(path, "core_throughput", &meta, "full", &cells[..1]).unwrap();
        let log = std::fs::read_to_string(path).unwrap();
        let _ = std::fs::remove_file(path);
        assert_eq!(log.lines().count(), 2, "one line per run: {log}");
        assert!(log.lines().nth(1).unwrap().contains("\"bench\": \"core_throughput\""));
        // Each line parses with the same scanner the gate uses (it takes
        // the first cell of the line — enough for a trajectory probe).
        assert_eq!(parse_cells(log.lines().next().unwrap()).len(), 1);
    }

    #[test]
    fn history_line_escapes_control_characters_in_meta() {
        let meta = RunMeta {
            commit: "abc123".into(),
            rustc: "rustc 1.0".into(),
            cpu_model: "Vendor CPU\n@ 2.0GHz\tstepping 7".into(),
            cores: 2,
        };
        let cells = cells(&[("ring3:greedy:pfc", 1.5e6), ("ft_k4:uniform:pfc", 2e6)]);
        let line = history_line("bench_matrix", &meta, "smoke", &cells);
        assert!(!line.chars().any(char::is_control), "raw control character in {line:?}");
        assert!(line.contains("\"cpu_model\": \"Vendor CPU\\n@ 2.0GHz\\u0009stepping 7\""));
        let points = parse_history(&line);
        assert_eq!(points.len(), 1, "a history point must be a single line");
        assert_eq!(points[0].bench, "bench_matrix");
        assert_eq!(points[0].mode, "smoke");
        assert_eq!(points[0].cells, cells);
    }

    #[test]
    fn history_parsing_filters_by_mode() {
        let meta = RunMeta {
            commit: "abc123".into(),
            rustc: "rustc 1.0".into(),
            cpu_model: "Test CPU".into(),
            cores: 8,
        };
        // A mixed-mode log, as CI produces: full points from dev machines
        // interleaved with smoke points from runners, plus a pre-mode-tag
        // legacy line and an unrelated bench.
        let log = [
            history_line("bench_matrix", &meta, "full", &cells(&[("a", 1e6), ("b", 2e6)])),
            "{\"bench\": \"bench_matrix\", \"cells\": [{\"name\": \"a\", \
             \"events_per_sec\": 5}]}"
                .to_string(),
            history_line("core_throughput", &meta, "smoke", &cells(&[("a", 9e6)])),
            history_line("bench_matrix", &meta, "smoke", &cells(&[("a", 3e5), ("b", 6e5)])),
            history_line("bench_matrix", &meta, "full", &cells(&[("a", 1.1e6), ("b", 2.2e6)])),
        ]
        .join("\n");

        let points = parse_history(&log);
        assert_eq!(points.len(), 5);
        assert_eq!(points[1].mode, "unknown", "legacy line gets the unknown mode");

        // Latest wins within a mode; other benches and modes are ignored.
        let full = latest_history_cells(&log, "bench_matrix", "full").unwrap();
        assert_eq!(full, cells(&[("a", 1.1e6), ("b", 2.2e6)]));
        let smoke = latest_history_cells(&log, "bench_matrix", "smoke").unwrap();
        assert_eq!(smoke, cells(&[("a", 3e5), ("b", 6e5)]));
        assert_eq!(latest_history_cells(&log, "bench_matrix", "paper"), None);
        assert_eq!(latest_history_cells(&log, "nonesuch", "full"), None);

        // A same-mode history point feeds the gate directly.
        assert!(!regression_gate(&smoke, &cells(&[("a", 3.1e5), ("b", 6.1e5)]), 0.10).failed);
    }

    #[test]
    fn run_meta_degrades_gracefully() {
        let meta = run_meta();
        assert!(!meta.rustc.is_empty());
        let json = meta_json(&meta, "smoke", 3);
        assert!(json.contains("\"mode\": \"smoke\""));
        assert_eq!(parse_mode(&json).as_deref(), Some("smoke"));
    }
}
