//! The measurement loop of one workload run, and the text protocol its
//! results travel in between processes.
//!
//! An untraced run starts with one untimed warm-up repetition, after which
//! it reads the peak RSS. It then sets the workload up
//! [`Options::setup_reps`] times afresh (fabric, CBD-free search
//! included, then the simulator), timing each set-up, and simulates the
//! horizon over and over — each time on a freshly built simulator — until
//! the time spent in `run_until` adds up to [`Options::seconds`], checking
//! every repetition's replay fingerprint. All timings are calibrated
//! against the host's speed (see [`crate::calib`]).

use crate::calib::{self, Timed};
use crate::fingerprint;
use crate::stats::Summary;
use crate::workload::{self, Engine, Fabric, Telemetry, Variant, Workload};
use gfc_core::units::Time;
use gfc_telemetry::{names, Snapshot};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// Wall-clock cap of the measurement loop; a run stops repeating after
/// this even below [`Options::min_reps`], so one run always ends in
/// bounded time.
const WALL_CAP_S: f64 = 100.0;

/// Snapshot exports averaged per repetition on the workloads without a
/// timeline, whose only artifact is the metrics snapshot.
const SNAPSHOT_EXPORTS: u32 = 1000;

/// Calibrated chunks the snapshot exports are timed in.
const EXPORT_CHUNKS: u32 = 2;

/// Repetitions that export the observed workload's artifacts. Every
/// repetition replays the same simulation, so later ones skip the
/// seconds-long export and only add `run_until` samples.
const OBSERVED_EXPORT_REPS: usize = 4;

/// Sim-time slices each `run_until(horizon)` is driven in, each calibrated
/// on its own.
const SLICES: u64 = 10;

/// What one run does.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Workload seed.
    pub seed: u64,
    /// Seconds of `run_until` to measure.
    pub seconds: f64,
    /// Engine and telemetry of the run.
    pub variant: Variant,
    /// Full set-ups to time.
    pub setup_reps: usize,
    /// Fewest measured repetitions, whatever `seconds` says.
    pub min_reps: usize,
}

/// Timings of the artifact exports of one repetition (observed workload).
#[derive(Debug, Clone, Copy, Default)]
pub struct ExportDetail {
    /// Seconds rendering the Chrome trace JSON.
    pub chrome_s: f64,
    /// Bytes of Chrome trace JSON.
    pub chrome_bytes: usize,
    /// Seconds rendering the timeline CSV.
    pub csv_s: f64,
    /// Bytes of timeline CSV.
    pub csv_bytes: usize,
    /// Seconds rendering the causal report.
    pub causal_s: f64,
}

/// One measured repetition.
#[derive(Debug, Clone, PartialEq)]
pub struct Rep {
    /// `run_until(horizon)`, one entry per sim-time slice.
    pub slices: Vec<Timed>,
    /// Exporting the run's artifacts, if this repetition did.
    pub export: Option<Timed>,
    /// `loop.events` at the horizon.
    pub events: u64,
    /// Replay fingerprint.
    pub fingerprint: String,
    /// Whether either deadlock verdict landed.
    pub deadlocked: bool,
}

/// Everything a run measured, in the form that crosses process
/// boundaries.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunResult {
    /// Full set-ups.
    pub setup: Vec<Timed>,
    /// Measured repetitions.
    pub reps: Vec<Rep>,
    /// Peak resident set size of the process after the warm-up, MB (0 in
    /// a traced run).
    pub peak_rss_mb: f64,
}

/// What the traced run additionally needs from the in-process run.
#[derive(Debug, Default)]
pub struct Detail {
    /// Candidates of the last CBD-free search.
    pub candidates: u64,
    /// Seconds per fabric build (search included).
    pub fabric_s: Vec<f64>,
    /// Seconds per simulator build (`Network::new`/`ShardedNetwork::new`
    /// plus workload install).
    pub build_s: Vec<f64>,
    /// Export timings per repetition (observed workload only).
    pub exports: Vec<ExportDetail>,
    /// Snapshot of the last repetition at its horizon.
    pub snapshot: Snapshot,
    /// `(finished, unfinished)` flows of the last repetition.
    pub flows: (usize, usize),
    /// Wall-clock spans `(name, start_s, duration_s)` from run start
    /// (traced runs only).
    pub spans: Vec<(String, f64, f64)>,
}

/// Run `opts`. With `traced`, every public call is recorded as a span in
/// the returned detail.
pub fn run(opts: &Options, traced: bool) -> (RunResult, Detail) {
    let w = opts.workload;
    let origin = Instant::now();
    let mut result = RunResult::default();
    let mut detail = Detail::default();
    let span = |detail: &mut Detail, name: String, start: Instant| {
        let dur = start.elapsed().as_secs_f64();
        if traced {
            let from = start.duration_since(origin).as_secs_f64();
            detail.spans.push((name, from, dur));
        }
        dur
    };
    // The debugging artifacts exist only with the workload's own telemetry.
    let observed = w.is_observed() && opts.variant.telemetry == Telemetry::Workload;
    let run_threads = match opts.variant.engine {
        Engine::Seq => 1,
        Engine::Sharded(workers) => workers,
    };
    // Warm-up: one full repetition before any calibration pass, which
    // also gives the peak RSS of the workload alone. The traced run
    // reports no RSS and skips it.
    if !traced {
        let fab = workload::fabric(w, opts.seed);
        let mut sim = workload::build(w, opts.variant, &fab, opts.seed);
        sim.run_until(w.horizon());
        let snap = sim.snapshot();
        match sim.as_seq().filter(|_| observed) {
            Some(net) => drop(export_observed(net, &snap)),
            None => drop(black_box((snap.to_json(), snap.to_csv()))),
        }
        result.peak_rss_mb = peak_rss_mb();
    }

    let mut fabric: Option<Fabric> = None;
    let mut measured = 0.0;
    let mut rep = 0;
    while rep < opts.min_reps.max(opts.setup_reps) || measured < opts.seconds {
        if rep > 0 && origin.elapsed().as_secs_f64() > WALL_CAP_S {
            break;
        }
        let timing_setup = rep < opts.setup_reps;
        let setup_cal = if timing_setup { calib::text_pass() } else { 0.0 };
        let setup_start = Instant::now();
        if timing_setup || fabric.is_none() {
            let t = Instant::now();
            fabric = Some(workload::fabric(w, opts.seed));
            let d = span(&mut detail, format!("fabric[{rep}]"), t);
            detail.fabric_s.push(d);
        }
        let fab = fabric.as_ref().expect("fabric built above");
        detail.candidates = fab.candidates;
        let t = Instant::now();
        let mut sim = workload::build(w, opts.variant, fab, opts.seed);
        let d = span(&mut detail, format!("build[{rep}]"), t);
        detail.build_s.push(d);
        if timing_setup {
            let raw = setup_start.elapsed().as_secs_f64();
            result.setup.push(Timed { raw, cal: (setup_cal + calib::text_pass()) / 2.0 });
        }

        // `run_until` in sim-time slices with a calibration pass between
        // them, so each slice is calibrated against the host's speed while
        // it ran (the slicing leaves the simulation unchanged).
        let horizon = w.horizon();
        let mut before = calib::pass(run_threads);
        let mut slices = Vec::new();
        for k in 1..=SLICES {
            let until = if k == SLICES { horizon } else { Time(horizon.0 / SLICES * k) };
            let t = Instant::now();
            sim.run_until(until);
            let raw = span(&mut detail, format!("run_until[{rep}:{k}/{SLICES}]"), t);
            let after = calib::pass(run_threads);
            slices.push(Timed { raw, cal: (before + after) / 2.0 });
            before = after;
        }
        let snap = sim.snapshot();
        let events = snap.counter(names::EVENTS).expect("metrics registry is on");
        let ledger = sim.ledger();
        let deadlock = sim.deadlock();
        let fp = fingerprint::fingerprint(events, &snap, &ledger, deadlock);

        let t = Instant::now();
        let export = match sim.as_seq().filter(|_| observed) {
            Some(_) if rep >= OBSERVED_EXPORT_REPS => None,
            Some(net) => {
                let before = calib::text_pass();
                let (raw, d) = export_observed(net, &snap);
                detail.exports.push(d);
                Some(Timed { raw, cal: (before + calib::text_pass()) / 2.0 })
            }
            None => Some(export_snapshot(&snap)),
        };
        if export.is_some() {
            span(&mut detail, format!("export[{rep}]"), t);
        }
        detail.flows = (ledger.finished(), ledger.unfinished());
        detail.snapshot = snap;
        drop(sim);

        let rep_result =
            Rep { slices, export, events, fingerprint: fp, deadlocked: deadlock.0 || deadlock.1 };
        measured += rep_result.run().raw;
        result.reps.push(rep_result);
        rep += 1;
    }
    (result, detail)
}

/// Export every artifact of a debugging run: the metrics snapshot,
/// the timeline CSV, the Chrome trace JSON and the causal report. Returns
/// the wall seconds of the whole export and its parts.
fn export_observed(net: &gfc_sim::Network, snap: &Snapshot) -> (f64, ExportDetail) {
    let start = Instant::now();
    black_box(snap.to_json());
    let t = Instant::now();
    let csv = net.timeline_csv().expect("timeline sampling is on");
    let csv_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let chrome = net.chrome_trace().to_json();
    let chrome_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    black_box(net.causal_report().expect("causal attribution is on").render());
    let causal_s = t.elapsed().as_secs_f64();
    let d = ExportDetail {
        chrome_s,
        chrome_bytes: chrome.len(),
        csv_s,
        csv_bytes: csv.len(),
        causal_s,
    };
    (start.elapsed().as_secs_f64(), d)
}

/// Seconds per export of the metrics snapshot (JSON and CSV): the mean of
/// [`SNAPSHOT_EXPORTS`] exports in [`EXPORT_CHUNKS`] chunks, each
/// calibrated by the passes around it.
fn export_snapshot(snap: &Snapshot) -> Timed {
    let per_chunk = SNAPSHOT_EXPORTS / EXPORT_CHUNKS;
    let mut before = calib::text_pass();
    let (mut raw, mut norm) = (0.0, 0.0);
    for _ in 0..EXPORT_CHUNKS {
        let t = Instant::now();
        for _ in 0..per_chunk {
            black_box(snap.to_json());
            black_box(snap.to_csv());
        }
        let chunk = t.elapsed().as_secs_f64() / f64::from(SNAPSHOT_EXPORTS);
        let after = calib::text_pass();
        raw += chunk;
        norm += Timed { raw: chunk, cal: (before + after) / 2.0 }.norm();
        before = after;
    }
    Timed::from_norm(raw, norm)
}

/// Peak resident set size of this process (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Count the repetitions of `result` that fail a correctness check:
/// a fingerprint or event count that differs from the first repetition's,
/// a fingerprint that differs from the pinned reference (default seed and
/// the workload's own telemetry only), or a deadlock under GFC.
pub fn failures(result: &RunResult, opts: &Options) -> usize {
    let reference = (opts.seed == crate::DEFAULT_SEED
        && opts.variant.telemetry == Telemetry::Workload)
        .then(|| fingerprint::reference(opts.workload.name()))
        .flatten();
    let first = result.reps.first();
    result
        .reps
        .iter()
        .filter(|r| {
            let first = first.expect("non-empty");
            r.fingerprint != first.fingerprint
                || r.events != first.events
                || reference.is_some_and(|fp| r.fingerprint != fp)
                || (opts.workload.is_gfc() && r.deadlocked)
        })
        .count()
}

impl Rep {
    /// The whole `run_until(horizon)`: the slices' wall seconds, calibrated
    /// slice by slice.
    pub fn run(&self) -> Timed {
        let raw = self.slices.iter().map(|t| t.raw).sum();
        Timed::from_norm(raw, self.slices.iter().map(|t| t.norm()).sum())
    }
}

impl RunResult {
    /// Calibrated `run_until(horizon)` seconds: the sum over sim-time
    /// slices of each slice's median across repetitions, so a burst of
    /// host contention inside one repetition is voted out slice by slice.
    pub fn run_s(&self) -> f64 {
        let slices = self.reps.iter().map(|r| r.slices.len()).min().unwrap_or(0);
        (0..slices)
            .map(|k| {
                let v: Vec<f64> = self.reps.iter().map(|r| r.slices[k].norm()).collect();
                Summary::of(&v).map_or(0.0, |s| s.median)
            })
            .sum()
    }

    /// Render as protocol lines (see [`RunResult::parse`]): `setup <raw>
    /// <cal>`, `rep <events> <fingerprint> <deadlocked 0|1> <export raw|->
    /// <export cal|-> <slice raw> <slice cal>...` and `peak_rss_mb <MB>`.
    pub fn to_lines(&self) -> String {
        let mut s = String::new();
        for t in &self.setup {
            writeln!(s, "setup {:e} {:e}", t.raw, t.cal).expect("write to String");
        }
        for r in &self.reps {
            let (er, ec) = r.export.map_or(("-".into(), "-".into()), |e| {
                (format!("{:e}", e.raw), format!("{:e}", e.cal))
            });
            write!(s, "rep {} {} {} {er} {ec}", r.events, r.fingerprint, u8::from(r.deadlocked))
                .expect("write to String");
            for t in &r.slices {
                write!(s, " {:e} {:e}", t.raw, t.cal).expect("write to String");
            }
            s.push('\n');
        }
        writeln!(s, "peak_rss_mb {:e}", self.peak_rss_mb).expect("write to String");
        s
    }

    /// Parse the protocol lines of a run's output, ignoring every other
    /// line; `None` if a protocol line is malformed or no repetition and
    /// no RSS line is present.
    pub fn parse(text: &str) -> Option<RunResult> {
        let timed = |raw: &str, cal: &str| -> Option<Timed> {
            Some(Timed { raw: raw.parse().ok()?, cal: cal.parse().ok()? })
        };
        let mut out = RunResult::default();
        let mut rss = None;
        for line in text.lines() {
            let f: Vec<&str> = line.split_whitespace().collect();
            match f.as_slice() {
                ["setup", raw, cal] => out.setup.push(timed(raw, cal)?),
                ["rep", events, fp, dl, exp_raw, exp_cal, slices @ ..] => {
                    if slices.is_empty() || slices.len() % 2 != 0 {
                        return None;
                    }
                    out.reps.push(Rep {
                        slices: slices
                            .chunks(2)
                            .map(|p| timed(p[0], p[1]))
                            .collect::<Option<_>>()?,
                        export: match (*exp_raw, *exp_cal) {
                            ("-", "-") => None,
                            (r, c) => Some(timed(r, c)?),
                        },
                        events: events.parse().ok()?,
                        fingerprint: (*fp).to_owned(),
                        deadlocked: match *dl {
                            "0" => false,
                            "1" => true,
                            _ => return None,
                        },
                    });
                }
                ["peak_rss_mb", v] => rss = Some(v.parse().ok()?),
                _ => {}
            }
        }
        out.peak_rss_mb = rss?;
        (!out.reps.is_empty()).then_some(out)
    }
}

/// The engine a command-line value names (`seq`, `w<N>`).
pub fn parse_engine(s: &str) -> Option<Engine> {
    match s {
        "seq" => Some(Engine::Seq),
        _ => s.strip_prefix('w')?.parse().ok().filter(|&n| n > 0).map(Engine::Sharded),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunResult {
        RunResult {
            setup: vec![Timed { raw: 3.25, cal: 0.025 }, Timed { raw: 3.5, cal: 0.031_25 }],
            reps: vec![
                Rep {
                    slices: vec![
                        Timed { raw: 0.25, cal: 0.02 },
                        Timed { raw: 0.262_345_678_9, cal: 0.024_9 },
                    ],
                    export: Some(Timed { raw: 1.5e-5, cal: 0.026 }),
                    events: 1_627_665,
                    fingerprint: "00ff00ff00ff00ff".into(),
                    deadlocked: false,
                },
                Rep {
                    slices: vec![Timed { raw: 0.5, cal: 0.04 }, Timed { raw: 0.25, cal: 0.02 }],
                    export: None,
                    events: 1_627_665,
                    fingerprint: "00ff00ff00ff00ff".into(),
                    deadlocked: true,
                },
            ],
            peak_rss_mb: 11.718_75,
        }
    }

    #[test]
    fn run_s_sums_the_per_slice_medians() {
        let slice = |norm: f64| Timed { raw: norm, cal: calib::NOMINAL_S };
        let rep = |a: f64, b: f64| Rep {
            slices: vec![slice(a), slice(b)],
            export: None,
            events: 1,
            fingerprint: String::new(),
            deadlocked: false,
        };
        // A burst slows slice 0 of the first repetition and slice 1 of the
        // second; the per-slice medians vote both out.
        let r = RunResult {
            reps: vec![rep(9.0, 1.0), rep(1.0, 9.0), rep(1.0, 1.0)],
            ..RunResult::default()
        };
        assert_eq!(r.run_s(), 2.0);
        assert_eq!(r.reps[0].run().norm(), 10.0);
    }

    #[test]
    fn protocol_lines_round_trip_exactly() {
        let r = sample();
        assert_eq!(RunResult::parse(&r.to_lines()), Some(r));
    }

    #[test]
    fn parse_skips_other_output_and_rejects_malformed_lines() {
        let r = sample();
        let noisy = format!("perfbench: building\n{}{{\"correct\": true}}\n", r.to_lines());
        assert_eq!(RunResult::parse(&noisy), Some(r));
        assert_eq!(RunResult::parse("rep x ab 0 - - 1 1\npeak_rss_mb 1\n"), None);
        assert_eq!(RunResult::parse("rep 2 ab 2 - - 1 1\npeak_rss_mb 1\n"), None);
        assert_eq!(RunResult::parse("rep 2 ab 0 1 - 1 1\npeak_rss_mb 1\n"), None);
        assert_eq!(RunResult::parse("rep 2 ab 0 - - 1\npeak_rss_mb 1\n"), None, "odd slice list");
        assert_eq!(RunResult::parse("rep 2 ab 0 - -\npeak_rss_mb 1\n"), None, "no slice");
        assert_eq!(RunResult::parse("rep 2 ab 0 - - 1 1\n"), None, "no RSS line");
        assert_eq!(RunResult::parse("peak_rss_mb 1\n"), None, "no repetition");
    }

    #[test]
    fn engines_parse() {
        assert_eq!(parse_engine("seq"), Some(Engine::Seq));
        assert_eq!(parse_engine("w2"), Some(Engine::Sharded(2)));
        assert_eq!(parse_engine("w0"), None);
        assert_eq!(parse_engine("x"), None);
    }

    #[test]
    fn failures_count_divergent_and_deadlocked_reps() {
        let opts = Options {
            workload: Workload::Ft8EnterpriseGfc,
            seed: 7,
            seconds: 1.0,
            variant: Variant::default_for(Workload::Ft8EnterpriseGfc),
            setup_reps: 1,
            min_reps: 3,
        };
        let mut r = sample();
        r.reps[1].deadlocked = false;
        assert_eq!(failures(&r, &opts), 0);
        r.reps[1].events += 1;
        assert_eq!(failures(&r, &opts), 1);
        r.reps[1].events -= 1;
        r.reps[0].deadlocked = true;
        assert_eq!(failures(&r, &opts), 1, "GFC must not deadlock");
        let cbfc = Options { workload: Workload::Ft8IncastCbfcObserved, ..opts };
        assert_eq!(failures(&r, &cbfc), 0, "a CBFC deadlock is part of the simulation");
        let pinned = Options { seed: crate::DEFAULT_SEED, ..cbfc };
        assert_eq!(failures(&r, &pinned), 2, "fingerprint differs from the reference");
    }
}
