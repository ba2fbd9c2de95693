//! Golden export digests: the Chrome trace JSON and the timeline CSV of
//! two deterministic runs are pinned byte for byte (FNV-1a 64 and
//! length), so a change to the exporters that alters a single byte fails
//! here. Each run also asserts that the trace sections it exercises are
//! non-empty, so regenerated digests cannot bless a trace that lost one.
//!
//! * the Fig. 1 ring under PFC with `TelemetryConfig::full()`: it wedges,
//!   so the trace carries recorder instants (hold enter/exit), causal
//!   spans and propagation arrows next to the counters and flow spans;
//! * a k = 4 fat-tree CBFC incast into host 0: the dense counter section
//!   dominates (credit frames leave no sparse recorder kinds behind).
//!
//! An intended format change updates the pinned values: run
//! `cargo test --release -p gfc-sim --test export_golden -- --nocapture`
//! and copy the printed `(digest, length)` pairs.

use gfc_core::fc_config::{CbfcParams, FcConfig, PfcParams};
use gfc_core::theorems;
use gfc_core::units::{kb, Dur, Rate, Time};
use gfc_sim::config::PumpPolicy;
use gfc_sim::{Network, PreflightPolicy, SimConfig, TelemetryConfig, TraceConfig};
use gfc_topology::fattree::FatTree;
use gfc_topology::{Ring, Routing};

/// FNV-1a, 64 bit.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

fn telemetry() -> TelemetryConfig {
    // The probe times wall clock; everything it feeds stays out of the
    // exports, but keep the golden runs free of it anyway.
    TelemetryConfig { probe: false, ..TelemetryConfig::full() }
}

fn pfc_ring() -> Network {
    let ring = Ring::new(3);
    let mut cfg = SimConfig::default_10g();
    cfg.fc = FcConfig::Pfc(PfcParams { xoff: kb(280), xon: kb(277) });
    cfg.pump = PumpPolicy::OutputQueued;
    cfg.progress_window = Dur::from_millis(2);
    cfg.preflight = PreflightPolicy::Acknowledge;
    cfg.telemetry = telemetry();
    let routing = Routing::fixed(ring.clockwise_routes());
    let mut net = Network::new(ring.topo.clone(), routing, cfg, TraceConfig::none());
    // Staggered starts, as in the blame walkthrough: the pauses then
    // cascade around the ring instead of asserting all at once.
    for (i, (src, dst)) in ring.clockwise_flows().into_iter().enumerate() {
        net.run_until(Time(Dur::from_micros(500).0 * i as u64));
        net.start_flow(src, dst, None, 0).expect("clockwise route");
    }
    net.run_until(Time::from_millis(5));
    net
}

fn cbfc_incast() -> Network {
    let ft = FatTree::new(4);
    let mut cfg = SimConfig::default_10g();
    cfg.fc = FcConfig::Cbfc(CbfcParams {
        period: theorems::cbfc_recommended_period(Rate::from_gbps(10)),
    });
    cfg.preflight = PreflightPolicy::Acknowledge;
    cfg.telemetry = telemetry();
    let mut net = Network::new(ft.topo.clone(), Routing::spf(), cfg, TraceConfig::none());
    for &src in &ft.hosts[1..] {
        net.start_flow(src, ft.hosts[0], Some(200_000), 0).expect("fat-tree route");
    }
    net.run_until(Time::from_millis(2));
    net
}

/// Check the trace sections of `net` are present — counters and flow
/// spans always, recorder instants and causal arrows when `sparse` —
/// then return the `(digest, length)` of its Chrome JSON and of its
/// timeline CSV.
fn digests(name: &str, net: &Network, sparse: bool) -> ((u64, usize), (u64, usize)) {
    let trace = net.chrome_trace();
    assert!(trace.counter_events() > 0, "{name}: no counter events");
    assert!(trace.span_begins() > 0, "{name}: no span begins");
    assert_eq!(trace.span_begins(), trace.span_ends(), "{name}: unpaired spans");
    if sparse {
        assert!(trace.instant_events() > 0, "{name}: no recorder instants");
        assert!(trace.flow_arrows() > 0, "{name}: no causal arrows");
    }
    let json = trace.to_json();
    let csv = net.timeline_csv().expect("timeline sampling is on");
    let got = ((fnv1a(json.as_bytes()), json.len()), (fnv1a(csv.as_bytes()), csv.len()));
    println!(
        "{name}: chrome = (0x{:016x}, {}), csv = (0x{:016x}, {})",
        got.0 .0, got.0 .1, got.1 .0, got.1 .1
    );
    got
}

#[test]
fn pfc_ring_wedge_exports_are_pinned() {
    let (chrome, csv) = digests("pfc_ring", &pfc_ring(), true);
    assert_eq!(chrome, (0x18e3_faa0_de99_3274, 1_976_402), "Chrome trace JSON changed");
    assert_eq!(csv, (0xf8eb_800e_3ce9_f968, 131_696), "timeline CSV changed");
}

#[test]
fn fat_tree_cbfc_incast_exports_are_pinned() {
    let (chrome, csv) = digests("cbfc_incast", &cbfc_incast(), false);
    assert_eq!(chrome, (0xb87e_f9bc_0447_9b48, 6_263_391), "Chrome trace JSON changed");
    assert_eq!(csv, (0xf73c_0d46_bc0f_6e3a, 387_728), "timeline CSV changed");
}
