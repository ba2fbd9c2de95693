//! Sharded-engine smoke check: the parallel engine must replay the
//! *same simulation* as the sequential one, bit for bit.
//!
//! ```text
//! cargo run --release --example sharded
//! ```
//!
//! A k = 8 fat-tree (128 hosts) under cross-pod permutation traffic is
//! run three ways — on the sequential engine, and on the sharded engine
//! with the pod partition at 1 and at 4 workers — for a pause-based
//! backend (PFC) and a rate-based one (buffer-based GFC), so both
//! control-plane styles cross the domain boundaries. A k = 24 fat-tree
//! (3,456 hosts, 24 pod domains) then runs the same permutation under
//! buffer-based GFC for 100 µs on 2 workers, the scale the shared fabric
//! exists for. The process exits non-zero unless every sharded
//! fingerprint (event count, full metrics snapshot, flow ledger,
//! deadlock verdicts, static preflight verdict) equals the sequential
//! one. CI runs this as the determinism gate of `gfc_sim::shard`; the
//! full backend × partition × worker matrix lives in
//! `crates/sim/tests/sharded_determinism.rs`.
//!
//! On a host with at least 8 cores the example then arms the scaling
//! floor: a k = 16 fat-tree (1,024 hosts) under greedy cross-pod
//! permutation traffic, buffer-based GFC, runs for 150 µs sequentially
//! and on 8 workers, best of 3 each. The fingerprints must be equal and
//! the 8-worker run at least 2× faster. Smaller hosts print that the
//! floor is not armed; `perfbench --workload ft16_permutation_sharded
//! --trace 1` reports the 2-worker speedup there.

use gfc::prelude::*;
use gfc_analysis::FlowLedger;
use gfc_experiments::common::{sim_config_300k, Scheme};
use gfc_sim::config::PumpPolicy;
use gfc_sim::PreflightPolicy;
use gfc_verify::StaticVerdict;
use std::time::{Duration, Instant};

/// Everything observable about one finished run.
#[derive(PartialEq)]
struct Fingerprint {
    events: u64,
    metrics: Vec<gfc_telemetry::MetricEntry>,
    ledger: String,
    verdicts: (bool, bool),
    static_verdict: Option<StaticVerdict>,
}

fn fingerprint(
    snap: Snapshot,
    ledger: &FlowLedger,
    verdicts: (bool, bool),
    static_verdict: Option<StaticVerdict>,
) -> Fingerprint {
    let events = snap.counter(metric_names::EVENTS).unwrap_or(0);
    let ledger = format!("{ledger:?}");
    Fingerprint { events, metrics: snap.entries, ledger, verdicts, static_verdict }
}

fn config(fc: FcConfig, pump: PumpPolicy) -> SimConfig {
    let mut cfg = SimConfig::default_10g();
    cfg.fc = fc;
    cfg.pump = pump;
    cfg.buffer_bytes = kb(300) + 4 * 1500;
    cfg.seed = 17;
    cfg.progress_window = Dur::from_millis(2);
    // Acknowledge any preflight findings: this is a determinism gate,
    // and both engines run the same acknowledged configuration.
    cfg.preflight = PreflightPolicy::Acknowledge;
    cfg
}

/// Cross-pod permutation: host `i` streams a finite flow to the host
/// half a fabric away, so every flow crosses the core.
fn flows(ft: &FatTree) -> Vec<(gfc_topology::NodeId, gfc_topology::NodeId)> {
    let h = ft.hosts.len();
    (0..h).map(|i| (ft.hosts[i], ft.hosts[(i + h / 2) % h])).collect()
}

/// Run `flows(ft)` — each `size` bytes, or greedy when `None` — to
/// `horizon` on the sequential engine; returns the fingerprint and the
/// wall time of the event loop.
fn run_sequential(
    ft: &FatTree,
    cfg: &SimConfig,
    size: Option<u64>,
    horizon: Time,
) -> (Fingerprint, Duration) {
    let mut net = Network::new(ft.topo.clone(), Routing::spf(), cfg.clone(), TraceConfig::none());
    for (s, d) in flows(ft) {
        net.start_flow(s, d, size, 0).expect("cross-pod route");
    }
    let start = Instant::now();
    net.run_until(horizon);
    let wall = start.elapsed();
    let verdicts = (net.deadlocked(), net.structurally_deadlocked());
    (fingerprint(net.metrics_snapshot(), net.ledger(), verdicts, net.static_verdict()), wall)
}

/// [`run_sequential`] on the sharded engine with the pod partition.
fn run_sharded(
    ft: &FatTree,
    cfg: &SimConfig,
    size: Option<u64>,
    horizon: Time,
    workers: usize,
) -> (Fingerprint, Duration) {
    let part = Partition::by_pods(ft);
    let mut net = ShardedNetwork::new(ft.topo.clone(), Routing::spf(), cfg.clone(), &part, workers);
    for (s, d) in flows(ft) {
        net.start_flow(s, d, size, 0).expect("cross-pod route");
    }
    let start = Instant::now();
    net.run_until(horizon);
    let wall = start.elapsed();
    let verdicts = (net.deadlocked(), net.structurally_deadlocked());
    (fingerprint(net.metrics_snapshot(), &net.ledger(), verdicts, net.static_verdict()), wall)
}

fn buffer_gfc() -> (FcConfig, PumpPolicy) {
    let fc = FcConfig::GfcBuffer(GfcBufferParams { bm: kb(300), b1: kb(281), stage_ratio: (1, 2) });
    (fc, PumpPolicy::RoundRobin)
}

/// Flow size of the smoke runs; the scaling floor runs greedy flows.
const SIZE: Option<u64> = Some(500_000);

fn main() {
    let ft = FatTree::new(8);
    let horizon = Time::from_millis(1);
    let pfc = (FcConfig::Pfc(PfcParams { xoff: kb(280), xon: kb(277) }), PumpPolicy::OutputQueued);
    let backends = [("PFC", pfc), ("buffer-based GFC", buffer_gfc())];
    println!(
        "sharded smoke: k=8 fat-tree ({} nodes, {} flows, {} pod domains), {} ms horizon",
        ft.topo.num_nodes(),
        flows(&ft).len(),
        Partition::by_pods(&ft).num_domains(),
        horizon.as_millis_f64()
    );
    for (label, (fc, pump)) in backends {
        let cfg = config(fc, pump);
        let reference = run_sequential(&ft, &cfg, SIZE, horizon).0;
        assert!(reference.static_verdict.is_some(), "{label}: preflight did not run");
        for workers in [1usize, 4] {
            let sharded = run_sharded(&ft, &cfg, SIZE, horizon, workers).0;
            assert!(
                sharded == reference,
                "{label} w{workers}: fingerprint diverged from sequential"
            );
        }
        println!(
            "  {label:<18} {:>9} events, deadlocked={:<5} — w1 and w4 fingerprints bit-identical",
            reference.events, reference.verdicts.1
        );
    }

    let ft = FatTree::new(24);
    let horizon = Time::from_micros(100);
    let (fc, pump) = buffer_gfc();
    let cfg = config(fc, pump);
    println!(
        "sharded smoke: k=24 fat-tree ({} nodes, {} flows, {} pod domains), {} µs horizon",
        ft.topo.num_nodes(),
        flows(&ft).len(),
        Partition::by_pods(&ft).num_domains(),
        horizon.as_millis_f64() * 1e3
    );
    let reference = run_sequential(&ft, &cfg, SIZE, horizon).0;
    let sharded = run_sharded(&ft, &cfg, SIZE, horizon, 2).0;
    assert!(sharded == reference, "k=24 w2: fingerprint diverged from sequential");
    println!("  buffer-based GFC   {:>9} events — w2 fingerprint bit-identical", reference.events);
    scaling_floor();
    println!("sharded smoke passed");
}

/// The ≥2× floor of the 8-worker k = 16 run over the sequential one,
/// armed only where the host has the cores to express it.
fn scaling_floor() {
    const WORKERS: usize = 8;
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    if cores < WORKERS {
        println!("scaling floor: not armed ({cores} cores < {WORKERS})");
        return;
    }
    let ft = FatTree::new(16);
    let cfg = sim_config_300k(Scheme::GfcBuffer, 4242);
    let horizon = Time::from_micros(150);
    let best = |run: &dyn Fn() -> (Fingerprint, Duration)| {
        let (reference, mut wall) = run();
        for _ in 1..3 {
            wall = wall.min(run().1);
        }
        (reference, wall)
    };
    let (seq, seq_wall) = best(&|| run_sequential(&ft, &cfg, None, horizon));
    let (sharded, sharded_wall) = best(&|| run_sharded(&ft, &cfg, None, horizon, WORKERS));
    assert!(sharded == seq, "k=16 w{WORKERS}: fingerprint diverged from sequential");
    let speedup = seq_wall.as_secs_f64() / sharded_wall.as_secs_f64();
    println!(
        "scaling floor: k=16 {} events, w{WORKERS} {speedup:.2}x over sequential \
         ({:.0} ms vs {:.0} ms, best of 3, {cores} cores)",
        seq.events,
        sharded_wall.as_secs_f64() * 1e3,
        seq_wall.as_secs_f64() * 1e3
    );
    assert!(speedup >= 2.0, "scaling floor missed: {speedup:.2}x < 2.0x at {WORKERS} workers");
}
