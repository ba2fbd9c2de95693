//! **core_throughput** — events/sec of the simulator core, the tracked
//! perf trajectory behind every figure regeneration.
//!
//! Three canonical scenarios:
//!
//! * `ring_wedge_pfc` — the Fig. 9 testbed ring under PFC (wedge
//!   formation plus the post-deadlock idle loop);
//! * `fattree_k8_gfc` — a failed k = 8 fat-tree under buffer-based GFC
//!   with the closed-loop enterprise workload (one Fig. 16 panel-(a)
//!   case), the scaling axis of the §6.2 sweeps;
//! * `ring_wedge_probe` — the ring scenario again with the engine
//!   self-profiler on, printed next to `ring_wedge_pfc` as the measured
//!   cost of the probe's per-event `Instant::now()` pair (the off
//!   configuration's hook is a single predictable branch).
//!
//! Unlike the figure benches this target hand-rolls its timing loop
//! instead of using Criterion: it needs the *event count* of each run
//! (from the telemetry `sim.events` counter) next to the wall clock to
//! report events/sec, and it writes the result as `BENCH_core.json` at
//! the repo root — with the commit, rustc, CPU model and core count in a
//! `meta` block — so the perf trajectory is tracked as an artifact.
//!
//! Run with `cargo bench -p gfc-bench --bench core_throughput`.
//! Environment knobs:
//!
//! * `GFC_BENCH_SMOKE=1` — shortened horizons for the CI smoke step;
//! * `GFC_BENCH_RUNS=N` — timed repetitions per scenario (default 3;
//!   the fastest run is reported — every repetition replays the same
//!   deterministic event sequence, so min is the noise-free estimator);
//! * `GFC_BENCH_OUT=path` — where to write the JSON (default
//!   `<repo root>/BENCH_core.json`);
//! * `GFC_BENCH_HISTORY=path` — where to append the one-line-per-run
//!   trajectory log (default `<repo root>/BENCH_history.jsonl`).

use gfc_bench::{append_history, cell_json, measure, meta_json, run_meta, Measurement};
use gfc_core::units::{Dur, Time};
use gfc_experiments::common::{sim_config_300k, sim_config_testbed, Scheme};
use gfc_sim::flowgen::ClosedLoopWorkload;
use gfc_sim::{Network, TraceConfig};
use gfc_topology::fattree::first_cbd_free;
use gfc_topology::{Ring, Routing};
use gfc_workload::{DestPolicy, EmpiricalCdf, FlowSizeDist};

/// Build the Fig. 9 ring wedge: three clockwise greedy flows under PFC on
/// the testbed parameterization; the fabric wedges within milliseconds
/// and the remainder of the horizon exercises the idle monitor loop.
/// `probe` additionally turns the engine self-profiler on.
fn build_ring(probe: bool) -> Network {
    let ring = Ring::new(3);
    let mut cfg = sim_config_testbed(Scheme::Pfc, 9);
    cfg.telemetry.probe = probe;
    let routing = Routing::fixed(ring.clockwise_routes());
    let mut net = Network::new(ring.topo.clone(), routing, cfg, TraceConfig::none());
    let stagger = Dur::from_micros(500);
    for (i, (src, dst)) in ring.clockwise_flows().into_iter().enumerate() {
        net.run_until(Time(stagger.0 * i as u64));
        net.start_flow(src, dst, None, 0).expect("clockwise route");
    }
    net
}

/// One Fig. 16 panel-(a) case: the first connected, CBD-free k = 8
/// fat-tree under 5 % link failures, buffer-based GFC, closed-loop
/// enterprise workload from every host.
fn fattree_k8(horizon: Time, runs: usize) -> Measurement {
    let (ft, _) = first_cbd_free(8, 0.05, 4242);
    let racks: Vec<u32> = (0..ft.hosts.len()).map(|h| ft.rack_of_host(h) as u32).collect();
    measure("fattree_k8_gfc", horizon, runs, || {
        let cfg = sim_config_300k(Scheme::GfcBuffer, 4242);
        let mut net = Network::new(ft.topo.clone(), Routing::spf(), cfg, TraceConfig::none());
        net.install_workload(Box::new(ClosedLoopWorkload {
            sizes: FlowSizeDist::Empirical(EmpiricalCdf::enterprise()),
            dests: DestPolicy::inter_rack(racks.clone()),
            num_hosts: ft.hosts.len(),
            prio: 0,
            stop_after: None,
        }));
        net
    })
}

fn main() {
    let smoke = std::env::var("GFC_BENCH_SMOKE").is_ok_and(|v| v == "1");
    let runs: usize =
        std::env::var("GFC_BENCH_RUNS").ok().and_then(|v| v.parse().ok()).unwrap_or(3);
    let mode = if smoke { "smoke" } else { "full" };
    // Smoke horizons keep the CI step comfortably under two minutes.
    let (ring_h, ft_h) = if smoke {
        (Time::from_millis(10), Time::from_millis(2))
    } else {
        (Time::from_millis(30), Time::from_millis(6))
    };
    println!("core_throughput ({mode}, {runs} runs per scenario)");
    let ms = [
        measure("ring_wedge_pfc", ring_h, runs, || build_ring(false)),
        fattree_k8(ft_h, runs),
        measure("ring_wedge_probe", ring_h, runs, || build_ring(true)),
    ];
    for m in &ms {
        println!(
            "  {:<16} {:>10} events in {:>9.2} ms wall  =>  {:>11.0} events/sec  \
             ({:.1} ms simulated)",
            m.name, m.events, m.wall_ms, m.events_per_sec, m.sim_horizon_ms
        );
    }
    // The probe run replays the exact same event sequence; the throughput
    // delta is the profiler's own cost (two monotonic-clock reads per
    // event). A collapse below 40% of the unprobed rate means the probed
    // dispatch loop stopped being out-of-line — fail loudly.
    let (off, on) = (&ms[0], &ms[2]);
    assert_eq!(off.events, on.events, "probe changed the event sequence");
    println!(
        "  probe overhead: {:.1}% ({:.0} -> {:.0} events/sec)",
        (1.0 - on.events_per_sec / off.events_per_sec) * 100.0,
        off.events_per_sec,
        on.events_per_sec
    );
    assert!(
        on.events_per_sec >= 0.4 * off.events_per_sec,
        "probe overhead out of range: {:.0} vs {:.0} events/sec",
        on.events_per_sec,
        off.events_per_sec
    );

    let meta = run_meta();
    let mut json = String::from("{\n  \"bench\": \"core_throughput\",\n");
    json += &meta_json(&meta, mode, runs);
    json += ",\n  \"scenarios\": [\n";
    for (i, m) in ms.iter().enumerate() {
        json += &format!("    {}{}\n", cell_json(m, ""), if i + 1 < ms.len() { "," } else { "" });
    }
    json += "  ]\n}\n";
    let out = std::env::var("GFC_BENCH_OUT")
        .unwrap_or_else(|_| format!("{}/../../BENCH_core.json", env!("CARGO_MANIFEST_DIR")));
    std::fs::write(&out, json).expect("write BENCH_core.json");
    println!("wrote {out}");

    // Every run also appends one line to the perf-trajectory log, so the
    // numbers accumulate across commits instead of overwriting a point.
    let hist = gfc_bench::history_path();
    let eps: Vec<(String, f64)> = ms.iter().map(|m| (m.name.clone(), m.events_per_sec)).collect();
    match append_history(&hist, "core_throughput", &meta, mode, &eps) {
        Ok(()) => println!("appended trajectory point to {hist}"),
        Err(e) => println!("history append skipped ({hist}: {e})"),
    }
}
