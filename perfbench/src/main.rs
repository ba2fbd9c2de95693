//! `perfbench` — end-to-end and per-layer benchmark of the GFC simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the workload's end-to-end metrics in this process.
//! `--trace 1` is the per-layer run: it repeats the workload with the
//! engine probe on, times every public call as a span, reruns the same
//! inputs in child processes (untraced, and the engine or telemetry
//! variants the comparisons need), and replays single layers. Both print
//! a table with quartiles and sample counts, the host context, and end
//! with one JSON result line. See `README.md` for the workloads.

mod calib;
mod fingerprint;
mod replay;
mod report;
mod run;
mod stats;
mod workload;

use calib::Timed;
use gfc_telemetry::{names, MetricValue, Snapshot};
use report::Metric;
use run::{Options, RunResult};
use std::process::{Command, ExitCode};
use workload::{Engine, Telemetry, Variant, Workload};

/// Seed of the pinned reference fingerprints.
pub const DEFAULT_SEED: u64 = 4242;

/// Parsed command line.
struct Args {
    opts: Options,
    trace: bool,
}

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1] \
         [--engine seq|wN] [--telemetry workload|default] [--setup-reps N] [--min-reps N]",
        names.join("|")
    )
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 8.0;
    let mut trace = false;
    let mut engine = None;
    let mut telemetry = Telemetry::Workload;
    let mut setup_reps = 3;
    let mut min_reps = 3;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::from_name(value).ok_or_else(bad)?),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value.parse().ok().filter(|s: &f64| *s > 0.0).ok_or_else(bad)?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                };
            }
            "--engine" => engine = Some(run::parse_engine(value).ok_or_else(bad)?),
            "--telemetry" => {
                telemetry = match value.as_str() {
                    "workload" => Telemetry::Workload,
                    "default" => Telemetry::Default,
                    _ => return Err(bad()),
                };
            }
            "--setup-reps" => setup_reps = value.parse().ok().filter(|&n| n > 0).ok_or_else(bad)?,
            "--min-reps" => min_reps = value.parse().ok().filter(|&n| n > 0).ok_or_else(bad)?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let mut variant = Variant::default_for(workload);
    if let Some(e) = engine {
        if !workload.is_sharded() && e != Engine::Seq {
            return Err(format!("{} runs on the sequential engine only", workload.name()));
        }
        variant.engine = e;
    }
    variant.telemetry = telemetry;
    Ok(Args { opts: Options { workload, seed, seconds, variant, setup_reps, min_reps }, trace })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let o = &args.opts;
    println!(
        "perfbench {} seed={} seconds={} trace={} engine={:?} telemetry={:?}",
        o.workload.name(),
        o.seed,
        o.seconds,
        u8::from(args.trace),
        o.variant.engine,
        o.variant.telemetry
    );
    println!("context {}", report::context_json());
    let (attempted, failed, metrics) = if args.trace { traced(o) } else { untraced(o) };
    print!("{}", report::table(&metrics));
    println!("{}", report::result_json(attempted, failed, &metrics));
    ExitCode::SUCCESS
}

/// Print the fingerprint verdict of a run and return its failure count.
fn check(result: &RunResult, opts: &Options, label: &str) -> usize {
    let failed = run::failures(result, opts);
    let fp = result.reps.first().map_or("none", |r| r.fingerprint.as_str());
    let reference = (opts.seed == DEFAULT_SEED && opts.variant.telemetry == Telemetry::Workload)
        .then(|| fingerprint::reference(opts.workload.name()))
        .flatten()
        .unwrap_or("not pinned for this seed");
    println!(
        "fingerprint {label}: {fp} reference {reference} events {} failed {failed}/{}",
        result.reps.first().map_or(0, |r| r.events),
        result.reps.len()
    );
    failed
}

/// The end-to-end run: this process, telemetry as the workload defines it.
fn untraced(opts: &Options) -> (usize, usize, Vec<Metric>) {
    let (result, _) = run::run(opts, false);
    print!("{}", result.to_lines());
    let failed = check(&result, opts, "run");
    print!("wall clock, before calibration:\n{}", report::table(&wall_clock(&result)));
    (result.reps.len(), failed, end_to_end(&result))
}

/// The end-to-end metrics of a run, timings in calibrated seconds.
/// `run_s` is [`RunResult::run_s`]; its quartiles and those of
/// `events_per_s` are the per-repetition totals'.
fn end_to_end(r: &RunResult) -> Vec<Metric> {
    let setup: Vec<f64> = r.setup.iter().map(|t| t.norm()).collect();
    let runs: Vec<f64> = r.reps.iter().map(|x| x.run().norm()).collect();
    let eps: Vec<f64> = r.reps.iter().map(|x| x.events as f64 / x.run().norm()).collect();
    let export: Vec<f64> = r.reps.iter().filter_map(|x| x.export).map(Timed::norm).collect();
    let run_s = r.run_s();
    let events = r.reps.first().map_or(0, |x| x.events);
    vec![
        Metric::timed("setup_s", "s", &setup),
        Metric { value: run_s, ..Metric::timed("run_s", "s", &runs) },
        Metric { value: events as f64 / run_s, ..Metric::timed("events_per_s", "1/s", &eps) },
        Metric::value("peak_rss_mb", "MB", r.peak_rss_mb),
        Metric::timed("export_s", "s", &export),
    ]
}

/// The calibrated timings in wall seconds, and the calibration passes.
fn wall_clock(r: &RunResult) -> Vec<Metric> {
    let run: Vec<f64> = r.reps.iter().map(|x| x.run().raw).collect();
    let export: Vec<f64> = r.reps.iter().filter_map(|x| x.export).map(|t| t.raw).collect();
    let run_cal: Vec<f64> = r.reps.iter().map(|x| x.run().cal).collect();
    let export_cal: Vec<f64> = r.reps.iter().filter_map(|x| x.export).map(|t| t.cal).collect();
    let setup: Vec<f64> = r.setup.iter().map(|t| t.raw).collect();
    let setup_cal: Vec<f64> = r.setup.iter().map(|t| t.cal).collect();
    vec![
        Metric::timed("wall.setup_s", "s", &setup),
        Metric::timed("wall.run_s", "s", &run),
        Metric::timed("wall.export_s", "s", &export),
        Metric::timed("calibration.run_pass_s", "s", &run_cal),
        Metric::timed("calibration.export_pass_s", "s", &export_cal),
        Metric::timed("calibration.setup_pass_s", "s", &setup_cal),
    ]
}

fn median(v: &[f64]) -> f64 {
    stats::Summary::of(v).map_or(0.0, |s| s.median)
}

/// Median wall `run_s`: for comparing engines on different thread counts,
/// whose calibration passes differ.
fn median_wall_s(r: &RunResult) -> f64 {
    median(&r.reps.iter().map(|x| x.run().raw).collect::<Vec<_>>())
}

/// Run this benchmark in a child process on the same inputs with `extra`
/// flags, and parse its result.
fn child(opts: &Options, extra: &[&str]) -> Option<RunResult> {
    let exe = std::env::current_exe().ok()?;
    let seed = opts.seed.to_string();
    let seconds = opts.seconds.to_string();
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", opts.workload.name(), "--seed", &seed, "--seconds", &seconds]);
    let min_reps = opts.min_reps.to_string();
    cmd.args(["--trace", "0", "--setup-reps", "1", "--min-reps", &min_reps]).args(extra);
    let out = cmd.output().ok()?;
    let text = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        eprintln!("perfbench: child {extra:?} failed: {}", out.status);
        return None;
    }
    RunResult::parse(&text)
}

/// Values of a probe entry on the engine (`probe.<suffix>`) or on each of
/// its domains (`domain<d>.probe.<suffix>`).
fn probe_values<'a>(snap: &'a Snapshot, suffix: &str) -> impl Iterator<Item = &'a MetricValue> {
    let key = format!("probe.{suffix}");
    let in_domain = format!(".{key}");
    snap.entries
        .iter()
        .filter(move |e| e.name == key || e.name.ends_with(&in_domain))
        .map(|e| &e.value)
}

/// Sum of a probe counter over the engine or its domains.
fn probe_sum(snap: &Snapshot, suffix: &str) -> u64 {
    probe_values(snap, suffix)
        .filter_map(|v| match *v {
            MetricValue::Counter(c) => Some(c),
            _ => None,
        })
        .sum()
}

/// Largest high-water mark of a probe gauge over the engine or its domains.
fn probe_hwm(snap: &Snapshot, suffix: &str) -> u64 {
    probe_values(snap, suffix)
        .filter_map(|v| match *v {
            MetricValue::Gauge { high_water, .. } => Some(high_water),
            _ => None,
        })
        .max()
        .unwrap_or(0)
}

/// The per-layer run.
fn traced(opts: &Options) -> (usize, usize, Vec<Metric>) {
    let w = opts.workload;
    // The traced run and each rerun get a fraction of the run budget and
    // fewer repetitions: they need comparable medians, not the end-to-end
    // run's full sample, and the whole traced run must end well within
    // three minutes on the sharded workload, whose builds take seconds.
    let probed = Options {
        seconds: opts.seconds / 2.0,
        variant: Variant { probe: true, ..opts.variant },
        setup_reps: 2,
        min_reps: 2,
        ..*opts
    };
    let (result, detail) = run::run(&probed, true);
    for (name, start, dur) in &detail.spans {
        println!("span {name} start={start:.6} dur={dur:.6}");
    }
    let mut attempted = result.reps.len();
    let mut failed = check(&result, &probed, "traced");

    // The verify layer alone: preflight on the same inputs.
    let fab = workload::fabric(w, opts.seed);
    let cfg = workload::config(w, opts.variant, opts.seed);
    let routing = gfc_topology::Routing::spf();
    let preflight_s: Vec<f64> = (0..2)
        .map(|_| {
            let t = std::time::Instant::now();
            std::hint::black_box(gfc_sim::preflight(&fab.ft.topo, &routing, &cfg));
            t.elapsed().as_secs_f64()
        })
        .collect();
    drop(fab);

    // Same-input reruns in fresh processes.
    let mut runs: Vec<(&str, Options, Option<RunResult>)> = Vec::new();
    let mut rerun = |label: &'static str, variant: Variant, extra: &[&str]| {
        let o =
            Options { seconds: opts.seconds / 4.0, variant, setup_reps: 1, min_reps: 1, ..*opts };
        let r = child(&o, extra);
        runs.push((label, o, r));
    };
    rerun("untraced", opts.variant, &[]);
    if w.is_observed() {
        rerun(
            "telemetry_default",
            Variant { telemetry: Telemetry::Default, ..opts.variant },
            &["--telemetry", "default"],
        );
    }
    if w.is_sharded() {
        rerun("seq", Variant { engine: Engine::Seq, ..opts.variant }, &["--engine", "seq"]);
        rerun("w1", Variant { engine: Engine::Sharded(1), ..opts.variant }, &["--engine", "w1"]);
    }
    let traced_fp = result.reps.first().map(|r| r.fingerprint.clone());
    for (label, o, r) in &runs {
        match r {
            Some(r) => {
                attempted += r.reps.len();
                failed += check(r, o, label);
                // Engine equality: every same-telemetry rerun replays the
                // traced run's simulation exactly.
                if o.variant.telemetry == opts.variant.telemetry {
                    let diverged = r
                        .reps
                        .iter()
                        .filter(|x| Some(&x.fingerprint) != traced_fp.as_ref())
                        .count();
                    if diverged > 0 {
                        println!(
                            "fingerprint {label}: {diverged} reps diverge from the traced run"
                        );
                    }
                    failed += diverged;
                }
            }
            None => {
                println!("rerun {label}: no result");
                attempted += 1;
                failed += 1;
            }
        }
    }
    let get =
        |label: &str| runs.iter().find(|(l, _, _)| *l == label).and_then(|(_, _, r)| r.as_ref());

    let snap = &detail.snapshot;
    let class: Vec<u64> = gfc_sim::event::Event::CLASS_LABELS
        .iter()
        .map(|l| probe_sum(snap, &format!("dispatch.{l}.count")))
        .collect();
    let events = snap.counter(names::EVENTS).unwrap_or(0);
    let counter = |n: &str| snap.counter(n).unwrap_or(0);
    let (inline, pooled) =
        (probe_sum(snap, "pool.pushes_inline"), probe_sum(snap, "pool.pushes_pooled"));
    let heap_hwm = probe_hwm(snap, "queue.heap");
    let enqueues = counter(names::ENQUEUES);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };

    let untraced_run_s = get("untraced").map_or(0.0, RunResult::run_s);
    let untraced_wall_s = get("untraced").map_or(0.0, median_wall_s);
    let ns_per_event = ratio(untraced_wall_s * 1e9, events as f64);
    let queue_ns = replay::event_queue_ns_per_op(&cfg, &class, heap_hwm);
    let fc_ns = replay::fc_ns_per_hook(&cfg);
    let limiter_ns = replay::limiter_ns_per_op(&cfg);
    let hooks = (4 * enqueues + class[1] + class[4]) as f64;
    let limiter_ops = (2 * enqueues + counter(names::RATE_CHANGES)) as f64;
    let layer_sum = queue_ns
        + ratio(fc_ns * hooks, events as f64)
        + ratio(limiter_ns * limiter_ops, events as f64);
    println!(
        "layers: event.ns_per_event {ns_per_event:.1} ns vs layer sum {layer_sum:.1} ns \
         (queue {queue_ns:.1} + fc {fc_ns:.1}/hook x {:.2} + limiter {limiter_ns:.1}/op x {:.2})",
        ratio(hooks, events as f64),
        ratio(limiter_ops, events as f64)
    );

    let traced_run_s = result.run_s();
    let exports = &detail.exports;
    let export = |f: fn(&run::ExportDetail) -> f64| exports.iter().map(f).collect::<Vec<_>>();
    let mut m = vec![
        Metric::value("topology.cbd_candidates", "count", detail.candidates as f64),
        if detail.candidates > 0 {
            Metric::timed("topology.cbd_search_s", "s", &detail.fabric_s)
        } else {
            Metric::value("topology.cbd_search_s", "s", 0.0)
        },
        Metric::timed("verify.preflight_s", "s", &preflight_s),
        Metric::value("event.events", "count", events as f64),
    ];
    for (label, &count) in gfc_sim::event::Event::CLASS_LABELS.iter().zip(&class) {
        m.push(Metric::value(format!("event.class.{label}"), "count", count as f64));
    }
    let telemetry_overhead =
        get("telemetry_default").map_or(0.0, |d| ratio(untraced_run_s, d.run_s()) - 1.0);
    let (build_s, rss_ratio, sync_overhead, speedup) =
        match (get("seq"), get("w1"), get("untraced")) {
            (Some(seq), Some(w1), Some(w2)) => (
                median(&detail.build_s),
                ratio(w2.peak_rss_mb, seq.peak_rss_mb),
                ratio(median_wall_s(w1), median_wall_s(seq)) - 1.0,
                ratio(median_wall_s(seq), median_wall_s(w2)),
            ),
            _ => (0.0, 0.0, 0.0, 0.0),
        };
    m.extend([
        Metric::value("event.pushes_inline", "count", inline as f64),
        Metric::value("event.pushes_pooled", "count", pooled as f64),
        Metric::value("event.pool_grown", "count", probe_sum(snap, "pool.grown") as f64),
        Metric::value(
            "event.inline_share",
            "ratio",
            ratio(inline as f64, (inline + pooled) as f64),
        ),
        Metric::value("event.heap_hwm", "count", heap_hwm as f64),
        Metric::value("event.ns_per_event", "ns", ns_per_event),
        Metric::value("event.replay_ns_per_op", "ns", queue_ns),
        Metric::value("fc.ctrl_tx", "count", counter(names::CTRL_TX) as f64),
        Metric::value("fc.ctrl_share", "ratio", ratio((class[1] + class[4]) as f64, events as f64)),
        Metric::value("fc.replay_ns_per_hook", "ns", fc_ns),
        Metric::value("port.enqueues", "count", enqueues as f64),
        Metric::value("port.gate_paced", "count", counter(names::GATE_PACED) as f64),
        Metric::value("port.gate_blocked", "count", counter(names::GATE_BLOCKED) as f64),
        Metric::value("port.limiter_replay_ns_per_op", "ns", limiter_ns),
        Metric::value("layers.sum_ns_per_event", "ns", layer_sum),
        Metric::value("telemetry.overhead_frac", "ratio", telemetry_overhead),
        Metric::value("telemetry.timeline_samples", "count", class[9] as f64),
        Metric::value("telemetry.causal_episodes", "count", counter(names::CAUSAL_EPISODES) as f64),
        Metric::timed("telemetry.export.chrome_s", "s", &export(|e| e.chrome_s)),
        Metric::timed("telemetry.export.csv_s", "s", &export(|e| e.csv_s)),
        Metric::timed("telemetry.export.causal_s", "s", &export(|e| e.causal_s)),
        Metric::value(
            "telemetry.export.chrome_bytes",
            "bytes",
            median(&export(|e| e.chrome_bytes as f64)),
        ),
        Metric::value(
            "telemetry.export.csv_bytes",
            "bytes",
            median(&export(|e| e.csv_bytes as f64)),
        ),
        Metric::value("shard.build_s", "s", build_s),
        Metric::value("shard.rss_ratio", "ratio", rss_ratio),
        Metric::value("shard.sync_overhead", "ratio", sync_overhead),
        Metric::value("shard.speedup", "ratio", speedup),
        Metric::value("flowgen.flows_finished", "count", detail.flows.0 as f64),
        Metric::value("flowgen.flows_unfinished", "count", detail.flows.1 as f64),
        Metric::value("probe.overhead_frac", "ratio", ratio(traced_run_s, untraced_run_s) - 1.0),
    ]);
    (attempted, failed, m)
}
