//! # Sharded parallel engine: per-domain event queues under τ-lookahead
//! window synchronization
//!
//! [`ShardedNetwork`] partitions the fabric into domains (per-pod in a
//! fat-tree, contiguous arcs in a ring — any [`Partition`]) and runs one
//! event queue per domain on a scoped worker pool, **bit-identical** to
//! the sequential [`Network`]: the replay fingerprint (metrics snapshot,
//! flow ledger, delivered/drop counters) matches the sequential engine
//! exactly, at every worker count.
//!
//! ## How it stays exact
//!
//! * **Shared fabric, owned slices.** Topology, configuration, lookup
//!   tables, node → domain table and preflight report are built once and
//!   shared by `Arc`. Each shard is a [`Network`] owning only its own
//!   domain's mutable state (foreign nodes get empty port slices); the
//!   sequential engine is the one-domain case. Every event handler is
//!   the sequential code, byte for byte — it touches only the ports of
//!   the node its event targets — and the only divergence is at push
//!   time, where an event bound for a foreign node diverts to a
//!   per-shard outbox. [`ShardedNetwork::start_flow`] resolves each
//!   route once, on shard 0 under the sequential engine's ECMP identity
//!   (the next flow id), and shares the path with every shard.
//! * **Conservative windows.** Every cross-node event carries at least
//!   the fabric *lookahead* of delay: the link propagation delay for wire
//!   traffic (data arrivals, control frames, CNPs, completion notices)
//!   or the out-of-band τ for conceptual GFC. The coordinator therefore
//!   lets every shard run freely in `[m, m + lookahead)` where `m` is the
//!   global minimum pending timestamp — no event generated inside the
//!   window can affect another shard within it.
//! * **Canonical intra-instant order.** Both engines collect all events
//!   due at one instant and dispatch them in [`Event::order_major`] rank
//!   order (stable, so same-source events keep generation order). The
//!   order within an instant is thus a pure function of the event set,
//!   not of which queue the events waited in.
//! * **Deterministic merge.** At each window barrier the coordinator
//!   drains the per-shard outboxes in shard-index order and injects each
//!   event into its destination shard's queue; within one
//!   `(time, rank)` group all events come from a single causal source
//!   (one upstream peer per `(node, port)`, one destination per flow),
//!   so concatenation order reproduces the sequential FIFO order.
//! * **Coordinator-owned observers.** The progress monitor and the
//!   deadlock verdicts run on the coordinator at the exact instants the
//!   sequential engine would run its `MonitorTick`, through the same
//!   verdict logic, over merged state (summed deliveries, OR-ed backlog,
//!   unioned wait-for graphs). Preflight runs once, on the shared fabric;
//!   its report reads the same from both engines.
//!
//! Shared-RNG coupling is eliminated at the source: ECN mark draws and
//! periodic-feedback phases are pure counter/port hashes (see
//! `network.rs`), identical in both engines.
//!
//! ## v1 contract
//!
//! Explicit flows only (no [`Workload`](crate::Workload) installation),
//! and the per-event observability layers that thread global state
//! through the dispatch order — timeline sampling, flow spans, causal
//! attribution — must be off. Metrics, the flow ledger, the preflight
//! report and the engine probe are fully supported; forensic
//! post-mortems are not captured (the deadlock *verdicts* themselves are
//! identical).

use crate::config::SimConfig;
use crate::event::Event;
use crate::fabric::Fabric;
use crate::network::{push_derived_entries, MonitorVerdict, Network, SimStats};
use crate::trace::TraceConfig;
use gfc_analysis::FlowLedger;
use gfc_core::units::{Dur, Time};
use gfc_telemetry::{names, MetricValue, Snapshot, WaitForGraph};
use gfc_topology::{NodeId, Partition, Routing, Topology};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;

/// One shard's window result: `(shard index, outbox, earliest pending
/// event)` — what a worker reports back per owned shard after a `Run`.
type RanShard = (usize, Vec<(Time, Event)>, Option<Time>);

/// Commands the coordinator broadcasts to the worker pool. The protocol
/// is strict lockstep: one broadcast, then one reply per worker, before
/// the next broadcast — reply types never interleave.
enum Cmd {
    /// Run start-of-run setup so peek times become meaningful.
    Prime,
    /// Inject cross-shard events, then drain each owned shard's queue up
    /// to (exclusive) `until`.
    Run { until: Time, inject: Vec<(usize, Vec<(Time, Event)>)> },
    /// Monitor barrier: advance clocks to `at` and report merged-progress
    /// inputs.
    Monitor { at: Time },
    /// Snapshot each owned shard's wait-for graph (stalled ticks only).
    Graph,
    /// Advance clocks to the end of the run horizon.
    Finish { at: Time },
}

enum Reply {
    /// `(shard index, earliest pending event)` per owned shard.
    Primed(Vec<(usize, Option<Time>)>),
    /// One [`RanShard`] per owned shard.
    Ran(Vec<RanShard>),
    /// OR-ed backlog and summed deliveries over owned shards.
    Monitored {
        backlogged: bool,
        delivered: u64,
    },
    /// `(shard index, graph)` per owned shard.
    Graphs(Vec<(usize, WaitForGraph)>),
    Finished,
}

fn worker_loop(base: usize, shards: &mut [Network], rx: &Receiver<Cmd>, tx: &Sender<Reply>) {
    while let Ok(cmd) = rx.recv() {
        let reply = match cmd {
            Cmd::Prime => Reply::Primed(
                shards
                    .iter_mut()
                    .enumerate()
                    .map(|(i, n)| {
                        n.ensure_started(false);
                        (base + i, n.next_event_time())
                    })
                    .collect(),
            ),
            Cmd::Run { until, inject } => {
                for (idx, evs) in inject {
                    let n = &mut shards[idx - base];
                    for (t, ev) in evs {
                        n.inject(t, ev);
                    }
                }
                Reply::Ran(
                    shards
                        .iter_mut()
                        .enumerate()
                        .map(|(i, n)| {
                            if n.next_event_time().is_some_and(|t| t < until) {
                                n.run_window(until);
                            }
                            (base + i, n.take_outbox(), n.next_event_time())
                        })
                        .collect(),
                )
            }
            Cmd::Monitor { at } => {
                let mut backlogged = false;
                let mut delivered = 0;
                for n in shards.iter_mut() {
                    n.set_now(at);
                    n.probe_queue_sample();
                    backlogged |= n.backlogged();
                    delivered += n.stats().delivered_packets;
                }
                Reply::Monitored { backlogged, delivered }
            }
            Cmd::Graph => Reply::Graphs(
                shards.iter().enumerate().map(|(i, n)| (base + i, n.waitfor_graph())).collect(),
            ),
            Cmd::Finish { at } => {
                for n in shards.iter_mut() {
                    n.set_now(at);
                }
                Reply::Finished
            }
        };
        if tx.send(reply).is_err() {
            break;
        }
    }
}

/// The destination shard of a cross-domain event.
fn target_of(ev: &Event) -> NodeId {
    match ev {
        Event::Arrive { node, .. } | Event::CtrlApply { node, .. } => *node,
        Event::Cnp { host, .. } | Event::SourceDone { host, .. } => *host,
        _ => unreachable!("event class never crosses domains"),
    }
}

/// Sum / max / bucket-wise merge of one metric across shards.
fn merge_value(a: &mut MetricValue, b: MetricValue) {
    match (a, b) {
        (MetricValue::Counter(x), MetricValue::Counter(y)) => *x += y,
        (
            MetricValue::Gauge { value, high_water },
            MetricValue::Gauge { value: v2, high_water: h2 },
        ) => {
            // Every gauge the simulator registers is a ratcheted
            // high-water mark, so max is the exact merge.
            *value = (*value).max(v2);
            *high_water = (*high_water).max(h2);
        }
        (
            MetricValue::Histogram { bounds, counts, count, sum },
            MetricValue::Histogram { bounds: b2, counts: c2, count: n2, sum: s2 },
        ) => {
            assert_eq!(*bounds, b2, "histogram bucket layouts diverged across shards");
            for (c, d) in counts.iter_mut().zip(c2) {
                *c += d;
            }
            *count += n2;
            *sum += s2;
        }
        _ => panic!("metric kind diverged across shards"),
    }
}

/// The parallel engine: a sequential-identical simulation run sharded
/// across per-domain event queues. See the module docs for the
/// synchronization scheme and the exactness argument.
pub struct ShardedNetwork {
    /// Topology, config, lookup tables, partition and preflight report,
    /// shared with every shard.
    fabric: Arc<Fabric>,
    shards: Vec<Network>,
    workers: usize,
    /// Minimum cross-domain event delay: the safe window width.
    lookahead: Dur,
    now: Time,
    halted: bool,
    /// Coordinator-owned deadlock verdicts (shards never tick their own).
    verdict: MonitorVerdict,
    /// Next monitor barrier; scheduled on the first run, then advances by
    /// `monitor_interval` exactly like the sequential tick chain.
    monitor_due: Option<Time>,
    /// Barrier ticks taken so far — the sequential engine dispatches each
    /// tick as an event, so the merged event counter adds these back.
    monitor_ticks: u64,
    /// Cross-shard events awaiting injection, per destination shard, in
    /// (window, source-shard, generation) order.
    pending: Vec<Vec<(Time, Event)>>,
}

impl ShardedNetwork {
    /// Build a sharded simulator over `topo`, one shard per domain of
    /// `partition`, driven by up to `workers` threads (clamped to the
    /// domain count). The fabric — and with it preflight — is built
    /// once and shared by every shard.
    ///
    /// # Panics
    /// On a v1-contract violation: a partition that does not cover the
    /// topology, timeline sampling / spans / causal attribution enabled,
    /// or a configuration with zero cross-domain lookahead (conceptual
    /// GFC with `tau = 0`); and on preflight errors under
    /// [`PreflightPolicy::Enforce`](crate::PreflightPolicy), like
    /// [`Network::new`].
    pub fn new(
        topo: Topology,
        routing: Routing,
        cfg: SimConfig,
        partition: &Partition,
        workers: usize,
    ) -> Self {
        assert!(
            cfg.telemetry.timeline.sample_period_ps == 0 && !cfg.telemetry.timeline.spans,
            "sharded engine v1 does not support the timeline layer"
        );
        assert!(!cfg.telemetry.causal, "sharded engine v1 does not support causal attribution");
        let mut lookahead = cfg.prop_delay;
        let tau = cfg.fc.oob_latency();
        if tau.0 > 0 {
            lookahead = lookahead.min(tau);
        }
        assert!(
            lookahead.0 > 0,
            "zero cross-domain lookahead: prop_delay (and conceptual tau) must be positive"
        );
        let fabric = Arc::new(Fabric::new(topo, &routing, cfg, partition));
        let num_domains = partition.num_domains();
        let shards = (0..num_domains)
            .map(|d| {
                let d = u32::try_from(d).expect("domain fits u32");
                Network::for_domain(Arc::clone(&fabric), routing.clone(), d, TraceConfig::none())
            })
            .collect();
        ShardedNetwork {
            verdict: MonitorVerdict::new(fabric.cfg.progress_window),
            fabric,
            shards,
            workers: workers.clamp(1, num_domains),
            lookahead,
            now: Time::ZERO,
            halted: false,
            monitor_due: None,
            monitor_ticks: 0,
            pending: vec![Vec::new(); num_domains],
        }
    }

    /// The static preflight report, computed once on the shared fabric
    /// (`None` when `cfg.preflight` was
    /// [`PreflightPolicy::Skip`](crate::PreflightPolicy)).
    pub fn preflight_report(&self) -> Option<&gfc_verify::Report> {
        self.fabric.preflight.as_ref()
    }

    /// The condensed static verdict (see [`Network::static_verdict`]).
    pub fn static_verdict(&self) -> Option<gfc_verify::StaticVerdict> {
        self.preflight_report().map(gfc_verify::Report::verdict)
    }

    /// Number of domains (= shards).
    pub fn num_domains(&self) -> usize {
        self.shards.len()
    }

    /// Worker threads driving the shards.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Start an explicit flow; returns its id, or `None` if no route
    /// exists. The path is resolved once, on shard 0, and shared by every
    /// shard; every shard registers the flow (ledger and telemetry stay
    /// in lockstep); only the source's shard packetizes.
    pub fn start_flow(
        &mut self,
        src: NodeId,
        dst: NodeId,
        bytes: Option<u64>,
        prio: u8,
    ) -> Option<u64> {
        let path = self.shards[0].route(src, dst)?;
        self.start_flow_on_path(src, dst, bytes, prio, path)
    }

    /// Start a flow on an explicit path (scenario constructions).
    pub fn start_flow_on_path(
        &mut self,
        src: NodeId,
        dst: NodeId,
        bytes: Option<u64>,
        prio: u8,
        path: Arc<[gfc_topology::LinkId]>,
    ) -> Option<u64> {
        let ids: Vec<Option<u64>> = self
            .shards
            .iter_mut()
            .map(|net| net.start_flow_on_path(src, dst, bytes, prio, Arc::clone(&path)))
            .collect();
        assert!(ids.windows(2).all(|w| w[0] == w[1]), "shards disagreed on flow admission");
        ids[0]
    }

    /// Run to virtual time `t_end` (inclusive), a deadlock halt (when
    /// configured), or event exhaustion — the sequential
    /// [`Network::run_until`] contract, executed in parallel windows.
    pub fn run_until(&mut self, t_end: Time) {
        if self.halted || t_end < self.now {
            return;
        }
        let interval = self.fabric.cfg.monitor_interval;
        let stop_on_deadlock = self.fabric.cfg.stop_on_deadlock;
        let lookahead = self.lookahead;
        let workers = self.workers;
        let num_shards = self.shards.len();
        let chunk = num_shards.div_ceil(workers);
        let monitor_due = &mut self.monitor_due;
        let verdict = &mut self.verdict;
        let monitor_ticks = &mut self.monitor_ticks;
        let pending = &mut self.pending;
        let now = &mut self.now;
        let halted = &mut self.halted;
        let domain_of = &self.fabric.domain_of;
        let shards = &mut self.shards;
        std::thread::scope(|s| {
            let (reply_tx, reply_rx) = std::sync::mpsc::channel::<Reply>();
            let mut cmd_txs: Vec<Sender<Cmd>> = Vec::new();
            let mut base = 0;
            for chunk_shards in shards.chunks_mut(chunk) {
                let (tx, rx) = std::sync::mpsc::channel::<Cmd>();
                let rtx = reply_tx.clone();
                let b = base;
                base += chunk_shards.len();
                cmd_txs.push(tx);
                s.spawn(move || worker_loop(b, chunk_shards, &rx, &rtx));
            }
            drop(reply_tx);
            // One lockstep round: a command to each worker (by index),
            // then one reply from each.
            let round = |cmd: &mut dyn FnMut(usize) -> Cmd| -> Vec<Reply> {
                for (w, tx) in cmd_txs.iter().enumerate() {
                    tx.send(cmd(w)).expect("worker alive");
                }
                cmd_txs.iter().map(|_| reply_rx.recv().expect("worker alive")).collect()
            };
            // Peek times, refreshed from every Run reply.
            let mut peeks: Vec<Option<Time>> = vec![None; num_shards];
            for reply in round(&mut |_| Cmd::Prime) {
                let Reply::Primed(rows) = reply else { unreachable!("lockstep protocol") };
                for (idx, t) in rows {
                    peeks[idx] = t;
                }
            }
            let mut due = *monitor_due.get_or_insert(*now + interval);
            loop {
                // Global minimum pending timestamp: shard queues plus
                // cross-shard events not yet injected.
                let m = peeks
                    .iter()
                    .flatten()
                    .copied()
                    .chain(pending.iter().flatten().map(|(t, _)| *t))
                    .min();
                let next_ev = m.filter(|t| *t <= t_end);
                if next_ev.is_none() && due > t_end {
                    break;
                }
                // The conservative window edge. Everything strictly
                // before it is causally closed; the monitor barrier and
                // the run horizon clip it.
                let w1 = match next_ev {
                    Some(t) => (t + lookahead).min(due).min(Time(t_end.0 + 1)),
                    None => due,
                };
                if next_ev.is_some_and(|t| t < w1) {
                    let mut ran: Vec<RanShard> = Vec::with_capacity(num_shards);
                    for reply in round(&mut |w| {
                        let owned = w * chunk..((w + 1) * chunk).min(num_shards);
                        let inject = owned
                            .clone()
                            .zip(&mut pending[owned])
                            .filter(|(_, evs)| !evs.is_empty())
                            .map(|(i, evs)| (i, std::mem::take(evs)))
                            .collect();
                        Cmd::Run { until: w1, inject }
                    }) {
                        let Reply::Ran(rows) = reply else { unreachable!("lockstep protocol") };
                        ran.extend(rows);
                    }
                    // Source-shard order: the deterministic concatenation
                    // the exactness argument relies on.
                    ran.sort_by_key(|(idx, ..)| *idx);
                    for (idx, outbox, peek) in ran {
                        peeks[idx] = peek;
                        for (t, ev) in outbox {
                            debug_assert!(t >= w1, "cross-shard event inside its own window");
                            let dest = domain_of[target_of(&ev).0 as usize] as usize;
                            pending[dest].push((t, ev));
                        }
                    }
                }
                if w1 == due && due <= t_end {
                    // Monitor barrier — the sequential MonitorTick,
                    // replayed at the same instant over merged state.
                    let (mut backlogged, mut delivered) = (false, 0);
                    for reply in round(&mut |_| Cmd::Monitor { at: due }) {
                        let Reply::Monitored { backlogged: b, delivered: d } = reply else {
                            unreachable!("lockstep protocol")
                        };
                        backlogged |= b;
                        delivered += d;
                    }
                    *monitor_ticks += 1;
                    if verdict.sample(due, delivered, backlogged) {
                        let mut graphs: Vec<(usize, WaitForGraph)> = Vec::new();
                        for reply in round(&mut |_| Cmd::Graph) {
                            let Reply::Graphs(rows) = reply else {
                                unreachable!("lockstep protocol")
                            };
                            graphs.extend(rows);
                        }
                        graphs.sort_by_key(|(idx, _)| *idx);
                        let mut union = WaitForGraph::new();
                        for (_, g) in &graphs {
                            let map: Vec<usize> = g
                                .vertices()
                                .iter()
                                .map(|v| union.vertex(v.side, v.node, v.port, &v.label))
                                .collect();
                            for vi in 0..g.len() {
                                for &succ in g.successors(vi) {
                                    union.edge(map[vi], map[succ]);
                                }
                            }
                        }
                        if union.find_cycle().is_some() {
                            verdict.structural_at = Some(due);
                        }
                    }
                    *now = due;
                    due += interval;
                    if verdict.dead() && stop_on_deadlock {
                        *halted = true;
                        break;
                    }
                }
            }
            *monitor_due = Some(due);
            if !*halted {
                round(&mut |_| Cmd::Finish { at: t_end });
                *now = t_end;
            }
            // Dropping the command senders at scope end stops the pool.
        });
    }

    /// Current virtual time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Merged run statistics.
    pub fn stats(&self) -> SimStats {
        self.shards.iter().map(Network::stats).sum()
    }

    /// Merged flow ledger: every shard registers every flow; finishes
    /// land in the destination's shard and are adopted into one ledger.
    pub fn ledger(&self) -> FlowLedger {
        let mut merged = self.shards[0].ledger().clone();
        for s in &self.shards[1..] {
            merged.adopt_finishes(s.ledger());
        }
        merged
    }

    /// Progress-monitor verdict (see [`Network::deadlocked`]).
    pub fn deadlocked(&self) -> bool {
        self.verdict.monitor.deadlocked()
    }

    /// When the fatal stall began, if a progress-monitor verdict landed.
    pub fn deadlock_at(&self) -> Option<Time> {
        self.verdict.monitor.deadlock_at_ps().map(Time)
    }

    /// Strict structural verdict (see [`Network::structurally_deadlocked`]).
    pub fn structurally_deadlocked(&self) -> bool {
        self.verdict.structural_at.is_some()
    }

    /// When the structural deadlock was first observed.
    pub fn structural_deadlock_at(&self) -> Option<Time> {
        self.verdict.structural_at
    }

    /// The merged metrics snapshot: registry entries merged entry-by-entry
    /// (the registration schema is identical across shards), then the
    /// derived entries recomputed over merged totals — reproducing
    /// [`Network::metrics_snapshot`]'s layout exactly. Engine-probe
    /// entries (when the probe is on) are appended per domain under a
    /// `domain<d>.` prefix.
    pub fn metrics_snapshot(&self) -> Snapshot {
        let mut snap = self.shards[0].raw_metrics();
        for s in &self.shards[1..] {
            let other = s.raw_metrics();
            assert_eq!(snap.entries.len(), other.entries.len(), "registry schemas diverged");
            for (a, b) in snap.entries.iter_mut().zip(other.entries) {
                assert_eq!(a.name, b.name, "registry schemas diverged");
                merge_value(&mut a.value, b.value);
            }
        }
        // The sequential engine dispatches each monitor tick as an event;
        // the coordinator's barrier ticks stand in for them.
        if let Some(e) = snap.entries.iter_mut().find(|e| e.name == names::EVENTS) {
            if let MetricValue::Counter(c) = &mut e.value {
                *c += self.monitor_ticks;
            }
        }
        push_derived_entries(&mut snap, self.now, &self.shards);
        for (d, s) in self.shards.iter().enumerate() {
            let mut probe = Snapshot::default();
            if let Some(p) = s.refreshed_probe() {
                p.append_to(&mut probe);
            }
            for mut entry in probe.entries {
                entry.name = format!("domain{d}.{}", entry.name);
                snap.entries.push(entry);
            }
        }
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PreflightPolicy;
    use gfc_topology::fattree::find_fig11_failures;
    use gfc_topology::Ring;

    fn cfg() -> SimConfig {
        let mut cfg = SimConfig::default_10g();
        cfg.preflight = PreflightPolicy::Acknowledge;
        cfg
    }

    /// The Fig. 11 k = 4 fat-tree: every shard holds the port state of
    /// its own pod domain and nothing else, and all of them read one
    /// shared fabric.
    #[test]
    fn shards_own_exactly_their_domains_ports_over_one_shared_fabric() {
        let (ft, _) = find_fig11_failures(64).expect("fig11 failure set exists");
        let part = Partition::by_pods(&ft);
        let seq = Network::new(ft.topo.clone(), Routing::spf(), cfg(), TraceConfig::none());
        let net = ShardedNetwork::new(ft.topo.clone(), Routing::spf(), cfg(), &part, 2);
        assert_eq!(net.num_domains(), 4);
        let mut total = 0;
        for (d, shard) in net.shards.iter().enumerate() {
            assert!(Arc::ptr_eq(shard.fabric(), &net.fabric), "shard {d} copied the fabric");
            let table = shard.port_table();
            for n in ft.topo.node_ids() {
                let own = if part.domain_of(n) == d { ft.topo.ports(n).len() } else { 0 };
                assert_eq!(table[n.0 as usize].len(), own, "shard {d}, node {n:?}");
            }
            total += table.all().len();
        }
        assert_eq!(total, seq.port_table().all().len(), "shards lost or duplicated ports");
        assert_eq!(Arc::strong_count(&net.fabric), net.num_domains() + 1);
    }

    /// Build a sharded 3-ring (one arc per switch) under `cfg`.
    fn ring_sharded(cfg: SimConfig) -> ShardedNetwork {
        let ring = Ring::new(3);
        let part = Partition::ring_arcs(&ring, 3);
        ShardedNetwork::new(ring.topo, Routing::spf(), cfg, &part, 2)
    }

    #[test]
    #[should_panic(expected = "does not support the timeline layer")]
    fn rejects_timeline_sampling() {
        let mut cfg = cfg();
        cfg.telemetry.timeline.sample_period_ps = 1_000_000;
        ring_sharded(cfg);
    }

    #[test]
    #[should_panic(expected = "does not support the timeline layer")]
    fn rejects_flow_spans() {
        let mut cfg = cfg();
        cfg.telemetry.timeline.spans = true;
        ring_sharded(cfg);
    }

    #[test]
    #[should_panic(expected = "does not support causal attribution")]
    fn rejects_causal_attribution() {
        let mut cfg = cfg();
        cfg.telemetry.causal = true;
        ring_sharded(cfg);
    }

    #[test]
    #[should_panic(expected = "zero cross-domain lookahead")]
    fn rejects_zero_lookahead() {
        let mut cfg = cfg();
        cfg.prop_delay = Dur(0);
        ring_sharded(cfg);
    }

    #[test]
    #[should_panic(expected = "partition does not cover the topology")]
    fn rejects_a_partition_of_another_size() {
        let ring = Ring::new(3);
        let part = Partition::contiguous(ring.topo.num_nodes() + 1, 2);
        ShardedNetwork::new(ring.topo, Routing::spf(), cfg(), &part, 2);
    }
}
