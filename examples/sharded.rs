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
//! `crates/sim/tests/sharded_determinism.rs`, and the k = 16 scaling
//! curve in `cargo bench -p gfc-bench --bench sharded_scaling`.

use gfc::prelude::*;
use gfc_analysis::FlowLedger;
use gfc_sim::config::PumpPolicy;
use gfc_sim::PreflightPolicy;
use gfc_verify::StaticVerdict;

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

fn run_sequential(ft: &FatTree, cfg: &SimConfig, horizon: Time) -> Fingerprint {
    let mut net = Network::new(ft.topo.clone(), Routing::spf(), cfg.clone(), TraceConfig::none());
    for (s, d) in flows(ft) {
        net.start_flow(s, d, Some(500_000), 0).expect("cross-pod route");
    }
    net.run_until(horizon);
    let verdicts = (net.deadlocked(), net.structurally_deadlocked());
    fingerprint(net.metrics_snapshot(), net.ledger(), verdicts, net.static_verdict())
}

fn run_sharded(ft: &FatTree, cfg: &SimConfig, horizon: Time, workers: usize) -> Fingerprint {
    let part = Partition::by_pods(ft);
    let mut net = ShardedNetwork::new(ft.topo.clone(), Routing::spf(), cfg.clone(), &part, workers);
    for (s, d) in flows(ft) {
        net.start_flow(s, d, Some(500_000), 0).expect("cross-pod route");
    }
    net.run_until(horizon);
    let verdicts = (net.deadlocked(), net.structurally_deadlocked());
    fingerprint(net.metrics_snapshot(), &net.ledger(), verdicts, net.static_verdict())
}

fn buffer_gfc() -> (FcConfig, PumpPolicy) {
    let fc = FcConfig::GfcBuffer(GfcBufferParams { bm: kb(300), b1: kb(281), stage_ratio: (1, 2) });
    (fc, PumpPolicy::RoundRobin)
}

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
        let reference = run_sequential(&ft, &cfg, horizon);
        assert!(reference.static_verdict.is_some(), "{label}: preflight did not run");
        for workers in [1usize, 4] {
            let sharded = run_sharded(&ft, &cfg, horizon, workers);
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
    let reference = run_sequential(&ft, &cfg, horizon);
    let sharded = run_sharded(&ft, &cfg, horizon, 2);
    assert!(sharded == reference, "k=24 w2: fingerprint diverged from sequential");
    println!("  buffer-based GFC   {:>9} events — w2 fingerprint bit-identical", reference.events);
    println!("sharded smoke passed");
}
