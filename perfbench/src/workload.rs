//! The three benchmark workloads: how each builds its fabric and its
//! simulator, and the simulator handle the measurement loop drives.
//!
//! Everything here goes through the simulator's public API; nothing in
//! the program is changed or instrumented for the benchmark.

use gfc_analysis::FlowLedger;
use gfc_core::units::Time;
use gfc_experiments::common::{sim_config_300k, Scheme};
use gfc_sim::flowgen::ClosedLoopWorkload;
use gfc_sim::{Network, ShardedNetwork, SimConfig, TelemetryConfig, TraceConfig};
use gfc_telemetry::Snapshot;
use gfc_topology::cbd::all_pairs_depgraph;
use gfc_topology::fattree::FatTree;
use gfc_topology::{Partition, Routing};
use gfc_workload::{DestPolicy, EmpiricalCdf, FlowSizeDist};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A named workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// k = 8 fat-tree with 5 % link failures, buffer-based GFC,
    /// closed-loop enterprise inter-rack flows, sequential engine.
    Ft8EnterpriseGfc,
    /// The same fabric under CBFC, closed-loop incast to host 0, with
    /// every observability layer except the probe on, plus the artifact
    /// exports of a debugging run.
    Ft8IncastCbfcObserved,
    /// Healthy k = 16 fat-tree, 1024 greedy cross-pod flows under
    /// buffer-based GFC, sharded engine (pod partition, 2 workers).
    Ft16PermutationSharded,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::Ft8EnterpriseGfc,
        Workload::Ft8IncastCbfcObserved,
        Workload::Ft16PermutationSharded,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Ft8EnterpriseGfc => "ft8_enterprise_gfc",
            Workload::Ft8IncastCbfcObserved => "ft8_incast_cbfc_observed",
            Workload::Ft16PermutationSharded => "ft16_permutation_sharded",
        }
    }

    /// Parse a command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Simulated horizon of one run.
    pub fn horizon(self) -> Time {
        match self {
            Workload::Ft8EnterpriseGfc => Time::from_millis(6),
            Workload::Ft8IncastCbfcObserved => Time::from_millis(10),
            Workload::Ft16PermutationSharded => Time::from_millis(2),
        }
    }

    /// Whether the workload runs a GFC scheme, which must never deadlock.
    pub fn is_gfc(self) -> bool {
        self != Workload::Ft8IncastCbfcObserved
    }

    /// Whether the workload runs on the sharded engine by default.
    pub fn is_sharded(self) -> bool {
        self == Workload::Ft16PermutationSharded
    }

    /// Whether the workload exports the debugging artifacts.
    pub fn is_observed(self) -> bool {
        self == Workload::Ft8IncastCbfcObserved
    }
}

/// Which engine runs the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// The sequential [`Network`].
    Seq,
    /// [`ShardedNetwork`] on this many workers.
    Sharded(usize),
}

/// Telemetry level of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Telemetry {
    /// The workload's own configuration.
    Workload,
    /// [`TelemetryConfig::default`], for the telemetry-overhead comparison.
    Default,
}

/// One run's knobs: the workload's defaults, or a same-input variant for
/// the traced run's comparisons.
#[derive(Debug, Clone, Copy)]
pub struct Variant {
    /// Engine override.
    pub engine: Engine,
    /// Telemetry override.
    pub telemetry: Telemetry,
    /// Turn the engine probe on (the traced run).
    pub probe: bool,
}

impl Variant {
    /// The workload as benchmarked end to end.
    pub fn default_for(w: Workload) -> Variant {
        let engine = if w.is_sharded() { Engine::Sharded(2) } else { Engine::Seq };
        Variant { engine, telemetry: Telemetry::Workload, probe: false }
    }
}

/// The fabric of a run.
pub struct Fabric {
    /// The fat-tree.
    pub ft: FatTree,
    /// Candidates tried by the CBD-free search (0 without a search).
    pub candidates: u64,
}

/// The first connected, CBD-free failed k = 8 fat-tree after `seed`: the
/// search `core_throughput` and the Fig. 16/17 harness use.
pub fn ft8_search(seed: u64) -> Fabric {
    let mut cursor = seed;
    let mut candidates = 0;
    let ft = loop {
        cursor = cursor.wrapping_add(1);
        candidates += 1;
        let mut ft = FatTree::new(8);
        let mut rng = StdRng::seed_from_u64(cursor);
        ft.inject_failures(&mut rng, 0.05);
        if ft.topo.hosts_connected() && all_pairs_depgraph(&ft.topo).find_cycle().is_none() {
            break ft;
        }
    };
    Fabric { ft, candidates }
}

/// Build the fabric of `w` for `seed`.
pub fn fabric(w: Workload, seed: u64) -> Fabric {
    match w {
        Workload::Ft8EnterpriseGfc | Workload::Ft8IncastCbfcObserved => ft8_search(seed),
        Workload::Ft16PermutationSharded => Fabric { ft: FatTree::new(16), candidates: 0 },
    }
}

/// The simulator configuration of `w` under `v`. On the k = 8 workloads
/// the seed already chose the fabric, and the simulator's own stream (the
/// closed-loop flow sizes and destinations) keeps the default seed, as in
/// `core_throughput`. The k = 16 fabric and flows are fixed, so there the
/// seed goes to the simulator.
pub fn config(w: Workload, v: Variant, seed: u64) -> SimConfig {
    let (scheme, sim_seed) = match w {
        Workload::Ft8EnterpriseGfc => (Scheme::GfcBuffer, crate::DEFAULT_SEED),
        Workload::Ft8IncastCbfcObserved => (Scheme::Cbfc, crate::DEFAULT_SEED),
        Workload::Ft16PermutationSharded => (Scheme::GfcBuffer, seed),
    };
    let mut cfg = sim_config_300k(scheme, sim_seed);
    cfg.telemetry = match (w, v.telemetry) {
        (Workload::Ft8IncastCbfcObserved, Telemetry::Workload) => {
            TelemetryConfig { probe: false, ..TelemetryConfig::full() }
        }
        _ => TelemetryConfig::default(),
    };
    cfg.telemetry.probe = v.probe;
    cfg
}

/// A built simulator on either engine.
pub enum Sim {
    /// Sequential engine.
    Seq(Box<Network>),
    /// Sharded engine.
    Sharded(Box<ShardedNetwork>),
}

impl Sim {
    /// Run to `t` (inclusive).
    pub fn run_until(&mut self, t: Time) {
        match self {
            Sim::Seq(n) => n.run_until(t),
            Sim::Sharded(n) => n.run_until(t),
        }
    }

    /// The merged metrics snapshot.
    pub fn snapshot(&self) -> Snapshot {
        match self {
            Sim::Seq(n) => n.metrics_snapshot(),
            Sim::Sharded(n) => n.metrics_snapshot(),
        }
    }

    /// The (merged) flow ledger.
    pub fn ledger(&self) -> FlowLedger {
        match self {
            Sim::Seq(n) => n.ledger().clone(),
            Sim::Sharded(n) => n.ledger(),
        }
    }

    /// `(progress-monitor verdict, structural verdict)`.
    pub fn deadlock(&self) -> (bool, bool) {
        match self {
            Sim::Seq(n) => (n.deadlocked(), n.structurally_deadlocked()),
            Sim::Sharded(n) => (n.deadlocked(), n.structurally_deadlocked()),
        }
    }

    /// The sequential network, for the exports only it supports.
    pub fn as_seq(&self) -> Option<&Network> {
        match self {
            Sim::Seq(n) => Some(n),
            Sim::Sharded(_) => None,
        }
    }
}

/// Build the simulator of `w` over `fabric` and install its load: the
/// timed remainder of set-up after the fabric (`Network::new` or
/// `ShardedNetwork::new`, which run preflight, plus workload install).
pub fn build(w: Workload, v: Variant, fabric: &Fabric, seed: u64) -> Sim {
    let ft = &fabric.ft;
    let cfg = config(w, v, seed);
    match w {
        Workload::Ft8EnterpriseGfc | Workload::Ft8IncastCbfcObserved => {
            assert_eq!(v.engine, Engine::Seq, "{} runs on the sequential engine", w.name());
            let dests = if w == Workload::Ft8EnterpriseGfc {
                let racks = (0..ft.hosts.len()).map(|h| ft.rack_of_host(h) as u32).collect();
                DestPolicy::inter_rack(racks)
            } else {
                DestPolicy::AllToOne { sink: 0 }
            };
            let mut net = Network::new(ft.topo.clone(), Routing::spf(), cfg, TraceConfig::none());
            net.install_workload(Box::new(ClosedLoopWorkload {
                sizes: FlowSizeDist::Empirical(EmpiricalCdf::enterprise()),
                dests,
                num_hosts: ft.hosts.len(),
                prio: 0,
                stop_after: None,
            }));
            Sim::Seq(Box::new(net))
        }
        Workload::Ft16PermutationSharded => {
            let h = ft.hosts.len();
            let flows = (0..h).map(|i| (ft.hosts[i], ft.hosts[(i + h / 2) % h]));
            match v.engine {
                Engine::Seq => {
                    let mut net =
                        Network::new(ft.topo.clone(), Routing::spf(), cfg, TraceConfig::none());
                    for (s, d) in flows {
                        net.start_flow(s, d, None, 0).expect("cross-pod route");
                    }
                    Sim::Seq(Box::new(net))
                }
                Engine::Sharded(workers) => {
                    let part = Partition::by_pods(ft);
                    let mut net =
                        ShardedNetwork::new(ft.topo.clone(), Routing::spf(), cfg, &part, workers);
                    for (s, d) in flows {
                        net.start_flow(s, d, None, 0).expect("cross-pod route");
                    }
                    Sim::Sharded(Box::new(net))
                }
            }
        }
    }
}
