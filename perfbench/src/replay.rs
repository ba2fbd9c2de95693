//! Layer replays: each simulator layer driven alone through its public
//! API, at the shape the traced run measured, so the per-operation cost
//! of a layer can be set against the whole run's cost per event.

use gfc_core::backend::{QueueCtx, TxHead};
use gfc_core::units::{Dur, Rate, Time};
use gfc_core::{CtrlPayload, FcConfig, FcRx, FcTx, PortIdent, RateLimiter};
use gfc_sim::event::{Event, EventQueue};
use gfc_sim::packet::Packet;
use gfc_sim::SimConfig;
use gfc_telemetry::CauseToken;
use gfc_topology::{LinkId, NodeId};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Timed repetitions of each replay; the median is reported.
const REPEATS: usize = 5;

/// Median nanoseconds per operation of `REPEATS` runs of `f`, which
/// returns `(elapsed ns, operations)`.
fn median_ns_per_op(mut f: impl FnMut() -> (f64, u64)) -> f64 {
    let mut v: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let (ns, ops) = f();
            ns / ops as f64
        })
        .collect();
    v.sort_by(f64::total_cmp);
    v[REPEATS / 2]
}

/// Deterministic splitmix64 stream.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Where an event class waits: `Some(lane)` for the constant-delay FIFO
/// lanes, `None` for the heap (see `gfc_sim::event`).
fn lane_of(class: usize) -> Option<usize> {
    match class {
        0 => Some(EventQueue::LANE_ARRIVE),
        1 => Some(EventQueue::LANE_CTRL),
        _ => None,
    }
}

/// A representative event of `class` (an index into
/// [`Event::CLASS_LABELS`]).
fn event_of(class: usize, i: u64, pkt: &Packet, ctrl: CtrlPayload) -> Event {
    let node = NodeId((i % 1024) as u32);
    let port = (i % 8) as usize;
    match class {
        0 => Event::Arrive { node, port, pkt: pkt.clone() },
        1 => Event::CtrlApply { node, port, prio: 0, payload: ctrl, cause: CauseToken::NONE },
        2 => Event::TxKick { node, port },
        3 => Event::TxComplete { node, port },
        4 => Event::PeriodicFeedback { node, port },
        5 => Event::HostTick { host: node },
        6 => Event::DcqcnTimer { host: node, flow: i },
        7 => Event::Cnp { host: node, flow: i },
        8 => Event::MonitorTick,
        9 => Event::TimelineSample,
        _ => Event::SourceDone { host: node, flow: i },
    }
}

/// The control payload the workload's scheme carries.
fn ctrl_payload(fc: &FcConfig) -> CtrlPayload {
    match fc {
        FcConfig::Cbfc(_) | FcConfig::GfcTime(_) => CtrlPayload::FcclWire(1),
        FcConfig::GfcBuffer(_) => CtrlPayload::GfcStage(1),
        _ => CtrlPayload::QueueSample(0),
    }
}

/// `EventQueue` hold model: a queue holding `heap_hwm` heap keys (plus the
/// lane population the mix implies) runs pop-then-push pairs whose pushed
/// classes follow `class_counts`. Returns nanoseconds per pop+push pair.
pub fn event_queue_ns_per_op(cfg: &SimConfig, class_counts: &[u64], heap_hwm: u64) -> f64 {
    const TABLE: usize = 1 << 14;
    const OPS: u64 = 1 << 21;
    let total: u64 = class_counts.iter().sum::<u64>().max(1);
    let mut rng = 42u64;
    let classes: Vec<usize> = (0..TABLE)
        .map(|_| {
            let mut pick = splitmix(&mut rng) % total;
            class_counts
                .iter()
                .position(|&c| {
                    let hit = pick < c;
                    pick = pick.saturating_sub(c);
                    hit
                })
                .unwrap_or(3)
        })
        .collect();
    let prop = cfg.prop_delay;
    let ctrl_delay = prop + cfg.ctrl_proc_delay;
    // Heap delays are uniform in [0, 2·prop): mean prop, like the lanes.
    let jitter: Vec<Dur> =
        (0..TABLE).map(|_| Dur(splitmix(&mut rng) % (2 * prop.0).max(1))).collect();
    // Population that keeps `heap_hwm` keys in the heap at steady state:
    // each class holds rate × share × mean delay entries.
    let heap_share = classes.iter().filter(|&&c| lane_of(c).is_none()).count() as f64;
    let ctrl_share = classes.iter().filter(|&&c| c == 1).count() as f64;
    let arrive_share = TABLE as f64 - heap_share - ctrl_share;
    let per_heap = heap_hwm.max(1) as f64 / heap_share.max(1.0);
    let population = (heap_hwm.max(1) as f64
        + per_heap * (arrive_share + ctrl_share * ctrl_delay.0 as f64 / prop.0.max(1) as f64))
        as u64;

    let pkt = Packet {
        id: 0,
        flow: 0,
        src: NodeId(0),
        dst: NodeId(1),
        bytes: cfg.mtu,
        prio: 0,
        path: Arc::from(vec![LinkId(0), LinkId(1), LinkId(2)].into_boxed_slice()),
        hop: 0,
        ecn_marked: false,
    };
    let ctrl = ctrl_payload(&cfg.fc);
    let push = |q: &mut EventQueue, now: Time, i: u64| {
        let k = (i as usize) % TABLE;
        let c = classes[k];
        let ev = event_of(c, i, &pkt, ctrl);
        match lane_of(c) {
            Some(lane) => {
                q.push_fifo(lane, now + if c == 1 { ctrl_delay } else { prop }, ev);
            }
            None => q.push(now + jitter[k], ev),
        }
    };
    median_ns_per_op(|| {
        let mut q = EventQueue::new();
        for i in 0..population {
            push(&mut q, Time::ZERO, i);
        }
        let mut i = population;
        let step = |q: &mut EventQueue, i: &mut u64| {
            let (now, ev) = q.pop().expect("hold model keeps the queue populated");
            black_box(ev);
            push(q, now, *i);
            *i += 1;
        };
        for _ in 0..4 * population {
            step(&mut q, &mut i);
        }
        let t = Instant::now();
        for _ in 0..OPS {
            step(&mut q, &mut i);
        }
        (t.elapsed().as_nanos() as f64, OPS)
    })
}

/// `AnyRx`/`AnyTx` hook sequence of the workload's scheme: an ingress
/// occupancy sawtooth from empty to a packet below the buffer and back,
/// crossing every threshold the scheme has, with each generated payload
/// applied at the paired sender, a gate query and a send per packet, and
/// the periodic feedback of time-triggered schemes. Returns nanoseconds
/// per hook call.
pub fn fc_ns_per_hook(cfg: &SimConfig) -> f64 {
    const CYCLES: u64 = 64;
    let ident = PortIdent { node: 1, port: 0 };
    let mtu = cfg.mtu;
    let top = (cfg.buffer_bytes / mtu).saturating_sub(1).max(1);
    let tx_time = Dur::for_bytes(mtu, cfg.capacity);
    let period_pkts = cfg.fc.period().map(|p| (p.0 / tx_time.0.max(1)).max(1));
    median_ns_per_op(|| {
        let mut rx = cfg.fc.make_rx_any(cfg.capacity, cfg.buffer_bytes, mtu, ident);
        let mut tx = cfg.fc.make_tx_any(cfg.capacity, cfg.buffer_bytes, ident);
        let mut out = Vec::new();
        let mut now = Time::ZERO;
        let mut hooks = 0u64;
        let mut pkt = 0u64;
        let head = TxHead { bytes: mtu, flow: 7 };
        let t = Instant::now();
        for _ in 0..CYCLES {
            for step in 0..2 * top {
                let q = if step < top { step + 1 } else { 2 * top - step - 1 } * mtu;
                let ctx = QueueCtx { q_bytes: q, pkt_bytes: mtu, flow: 7, inherited_tag: None };
                if step < top {
                    rx.on_arrival(&ctx, &mut out);
                } else {
                    rx.on_drain(&ctx, &mut out);
                }
                hooks += 1;
                pkt += 1;
                if period_pkts.is_some_and(|p| pkt.is_multiple_of(p)) {
                    out.extend(rx.periodic());
                    hooks += 1;
                }
                for p in out.drain(..) {
                    black_box(tx.on_ctrl(p, now).ok());
                    hooks += 1;
                }
                if tx.hard_open(&head, now) {
                    tx.on_sent(&head);
                    hooks += 1;
                }
                hooks += 1;
                now += tx_time;
            }
        }
        (t.elapsed().as_nanos() as f64, hooks)
    })
}

/// `RateLimiter` pacing loop: a rate change every sixteen packets, cycling
/// through halvings of the line rate down to 1/64, and an
/// `earliest_send`/`on_packet_sent` pair per packet. Returns nanoseconds
/// per limiter call.
pub fn limiter_ns_per_op(cfg: &SimConfig) -> f64 {
    const PACKETS: u64 = 1 << 21;
    let tx_time = Dur::for_bytes(cfg.mtu, cfg.capacity);
    let rates: Vec<Rate> = (0..7).map(|s| Rate(cfg.capacity.0 >> s)).collect();
    median_ns_per_op(|| {
        let mut rl = RateLimiter::with_min_unit(cfg.capacity, cfg.min_rate_unit);
        let mut now = Time::ZERO;
        let mut ops = 0u64;
        let t = Instant::now();
        for i in 0..PACKETS {
            if i % 16 == 0 {
                rl.set_rate(rates[(i / 16) as usize % rates.len()]);
                ops += 1;
            }
            let start = black_box(rl.earliest_send(now));
            rl.on_packet_sent(tx_time, start + tx_time);
            now = start + tx_time;
            ops += 2;
        }
        (t.elapsed().as_nanos() as f64, ops)
    })
}
