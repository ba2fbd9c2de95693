//! Pinned event counts: the work the simulator does on a fixed grid of
//! scenarios, counted instead of timed.
//!
//! Thirteen cells, each run to a fixed horizon:
//!
//! * `ring3:greedy` — the Fig. 9 testbed ring, three staggered clockwise
//!   greedy flows, under PFC, buffer-GFC, CBFC and time-GFC for 4 ms,
//!   and under BFC for 12 ms (its per-flow pacing throttles the wedged
//!   ring to a trickle);
//! * `ft_k4:uniform` / `ft_k4:incast` — the first connected, CBD-free
//!   k = 4 fat-tree under 5 % link failures (`first_cbd_free(4, 0.05,
//!   440)`), closed-loop enterprise flows to inter-rack or all-to-one
//!   destinations, under the same four schemes for 2 ms.
//!
//! Each cell pins `sim.events` and every non-zero
//! `probe.dispatch.<class>.count`. The counts are deterministic, so an
//! algorithmic change (one more event per packet, a lost control frame,
//! a changed schedule) fails here on any host, and host noise fails
//! nothing. Wall-clock regressions are perfbench's job. Each cell also
//! runs with the engine probe off and must dispatch the same number of
//! events: the profiler observes the event loop, it never steers it.
//!
//! An intended simulation change updates the pins: run
//! `cargo test --release --test event_counts -- --nocapture` and copy
//! the printed `Pin` lines over the ones below.

use gfc::experiments::common::{sim_config_300k, sim_config_testbed, Scheme};
use gfc::prelude::*;
use gfc::topology::fattree::first_cbd_free;

/// One cell's expected counts: its name, `sim.events`, and the non-zero
/// dispatch counts as `class=count` in `Event::CLASS_LABELS` order.
type Pin = (&'static str, u64, &'static str);

const RING: &[Pin] = &[
    ("ring3:greedy:Pfc", 39323, "arrive=19610 ctrl_apply=27 tx_complete=19646 monitor_tick=40"),
    ("ring3:greedy:GfcBuffer", 42694, "arrive=20161 ctrl_apply=9 tx_kick=2311 tx_complete=20173 monitor_tick=40"),
    ("ring3:greedy:Cbfc", 43327, "arrive=20281 ctrl_apply=895 tx_complete=21198 periodic_feedback=913 monitor_tick=40"),
    ("ring3:greedy:GfcTime", 47383, "arrive=19470 ctrl_apply=895 tx_kick=5676 tx_complete=20389 periodic_feedback=913 monitor_tick=40"),
    ("ring3:greedy:Bfc", 28914, "arrive=14050 ctrl_apply=344 tx_complete=14400 monitor_tick=120"),
];

const FT_UNIFORM: &[Pin] = &[
    ("ft_k4:uniform:Pfc", 105466, "arrive=52161 ctrl_apply=473 tx_complete=52654 monitor_tick=20 source_done=158"),
    ("ft_k4:uniform:GfcBuffer", 100372, "arrive=47875 ctrl_apply=898 tx_kick=2639 tx_complete=48796 monitor_tick=20 source_done=144"),
    ("ft_k4:uniform:Cbfc", 113256, "arrive=51040 ctrl_apply=3653 tx_complete=54726 periodic_feedback=3661 monitor_tick=20 source_done=156"),
    ("ft_k4:uniform:GfcTime", 125929, "arrive=53603 ctrl_apply=3653 tx_kick=7534 tx_complete=57289 periodic_feedback=3661 monitor_tick=20 source_done=169"),
];

const FT_INCAST: &[Pin] = &[
    ("ft_k4:incast:Pfc", 31604, "arrive=15268 ctrl_apply=494 tx_complete=15770 monitor_tick=20 source_done=52"),
    ("ft_k4:incast:GfcBuffer", 36157, "arrive=13916 ctrl_apply=2667 tx_kick=2906 tx_complete=16592 monitor_tick=20 source_done=56"),
    ("ft_k4:incast:Cbfc", 41396, "arrive=15172 ctrl_apply=3653 tx_complete=18838 periodic_feedback=3661 monitor_tick=20 source_done=52"),
    ("ft_k4:incast:GfcTime", 41639, "arrive=13525 ctrl_apply=3653 tx_kick=3533 tx_complete=17190 periodic_feedback=3661 monitor_tick=20 source_done=57"),
];

/// The counts of one finished run: `sim.events` and the non-zero
/// per-class dispatch counts as `class=count` (empty when the probe was
/// off).
fn counts(net: &Network) -> (u64, String) {
    let snap = net.metrics_snapshot();
    let events = snap.counter(metric_names::EVENTS).expect("sim.events counter");
    let mut dispatched = 0;
    let mut classes = Vec::new();
    for e in &snap.entries {
        let Some(class) =
            e.name.strip_prefix("probe.dispatch.").and_then(|c| c.strip_suffix(".count"))
        else {
            continue;
        };
        let n = snap.counter(&e.name).expect("dispatch count");
        dispatched += n;
        if n > 0 {
            classes.push(format!("{class}={n}"));
        }
    }
    assert!(
        classes.is_empty() || dispatched == events,
        "the probe saw {dispatched} dispatches of {events} events"
    );
    (events, classes.join(" "))
}

/// Run `build` with the probe on and off, print the cell's `Pin` line,
/// and return a description of every way it differs from `pin`.
fn check_cell(name: &str, pin: Option<&Pin>, build: impl Fn(bool) -> Network) -> Vec<String> {
    let (events, classes) = counts(&build(true));
    let (unprobed, _) = counts(&build(false));
    println!("    (\"{name}\", {events}, \"{classes}\"),");
    let mut errors = Vec::new();
    if unprobed != events {
        errors.push(format!("{name}: {events} events with the probe on, {unprobed} with it off"));
    }
    match pin {
        None => errors.push(format!("{name}: no pin")),
        Some(&(_, want_events, want_classes)) => {
            if (events, classes.as_str()) != (want_events, want_classes) {
                errors.push(format!(
                    "{name}: {events} events, {classes}\n  pinned {want_events} events, {want_classes}"
                ));
            }
        }
    }
    errors
}

/// Check every cell of one group against its pins: the names must match
/// one to one, and every cell's counts must equal its pin.
fn check_group<F: Fn(bool) -> Network>(pins: &[Pin], cells: impl IntoIterator<Item = (String, F)>) {
    let mut errors = Vec::new();
    let mut n = 0;
    for (name, build) in cells {
        n += 1;
        errors.extend(check_cell(&name, pins.iter().find(|p| p.0 == name), build));
    }
    if n != pins.len() {
        errors.push(format!("{n} cells, {} pins", pins.len()));
    }
    assert!(errors.is_empty(), "event counts drifted:\n{}", errors.join("\n"));
}

fn ring_net(scheme: Scheme, horizon: Time, probe: bool) -> Network {
    let ring = Ring::new(3);
    let mut cfg = sim_config_testbed(scheme, 9);
    cfg.telemetry.probe = probe;
    let routing = Routing::fixed(ring.clockwise_routes());
    let mut net = Network::new(ring.topo.clone(), routing, cfg, TraceConfig::none());
    let stagger = Dur::from_micros(500);
    for (i, (src, dst)) in ring.clockwise_flows().into_iter().enumerate() {
        net.run_until(Time(stagger.0 * i as u64));
        net.start_flow(src, dst, None, 0).expect("clockwise route");
    }
    net.run_until(horizon);
    net
}

fn ft4_net(ft: &FatTree, scheme: Scheme, dests: &DestPolicy, probe: bool) -> Network {
    let mut cfg = sim_config_300k(scheme, 440);
    cfg.telemetry.probe = probe;
    let mut net = Network::new(ft.topo.clone(), Routing::spf(), cfg, TraceConfig::none());
    net.install_workload(Box::new(ClosedLoopWorkload {
        sizes: FlowSizeDist::Empirical(EmpiricalCdf::enterprise()),
        dests: dests.clone(),
        num_hosts: ft.hosts.len(),
        prio: 0,
        stop_after: None,
    }));
    net.run_until(Time::from_millis(2));
    net
}

fn ft4_group(pins: &[Pin], load: &str, dests: impl Fn(&FatTree) -> DestPolicy) {
    let ft = &first_cbd_free(4, 0.05, 440).0;
    let dests = &dests(ft);
    let cells = Scheme::ALL
        .iter()
        .map(|&s| (format!("ft_k4:{load}:{s:?}"), move |p| ft4_net(ft, s, dests, p)));
    check_group(pins, cells);
}

#[test]
fn ring3_greedy_event_counts_are_pinned() {
    let ms = Time::from_millis;
    let cells = Scheme::ALL.iter().map(|&s| (s, ms(4))).chain([(Scheme::Bfc, ms(12))]);
    check_group(
        RING,
        cells.map(|(s, h)| (format!("ring3:greedy:{s:?}"), move |p| ring_net(s, h, p))),
    );
}

#[test]
fn ft_k4_uniform_event_counts_are_pinned() {
    ft4_group(FT_UNIFORM, "uniform", |ft| {
        DestPolicy::inter_rack((0..ft.hosts.len()).map(|h| ft.rack_of_host(h) as u32).collect())
    });
}

#[test]
fn ft_k4_incast_event_counts_are_pinned() {
    ft4_group(FT_INCAST, "incast", |_| DestPolicy::AllToOne { sink: 0 });
}
