//! The preflight corpus: named fabric/routing/config scenarios, each with
//! the `has_errors()` verdict `gfc-verify` must reach on it. The
//! `preflight` example renders them, CI gates on their verdicts, and the
//! golden test in `crates/verify/tests` pins their JSON and SARIF output.
//!
//! Scenarios:
//!
//! * `default`        — `SimConfig::default_10g` on a 2-to-1 incast (clean);
//! * `ring-pfc`, `ring-cbfc` — the Fig. 9 testbed ring under a hard-gated
//!   scheme (deadlock reachable);
//! * `ring-gfc`, `ring-gfc-time` — the same ring under GFC (CBD but immune);
//! * `fattree`        — the Fig. 11 failed fat-tree under PFC;
//! * `sparse-ring`    — CBD-prone prefilter, exactly deadlock-free (GFC012);
//! * `fattree-updown` — failed fat-tree on complete up/down routes (clean);
//! * `ring-512`       — 1024-node ring, the susceptible case at scale;
//! * `thm41`          — a conceptual-GFC config violating Theorem 4.1.

use crate::common::{sim_config_testbed, Scheme};
use gfc_core::units::{kb, Dur};
use gfc_sim::config::ConceptualParams;
use gfc_sim::{FcConfig, Report, SimConfig};
use gfc_topology::{Incast, Ring, Routing, SparseRing};

/// Every corpus scenario with its expected `has_errors()` verdict — the
/// contract the CI SARIF step enforces.
pub const CORPUS: &[(&str, bool)] = &[
    ("default", false),
    ("ring-pfc", true),
    ("ring-cbfc", true),
    ("ring-gfc", false),
    ("ring-gfc-time", false),
    ("fattree", true),
    ("sparse-ring", false),
    ("fattree-updown", false),
    ("ring-512", true),
    ("thm41", true),
];

/// Build the named scenario and run preflight on it: `(title, report)`,
/// or `None` for an unknown name.
pub fn scenario(name: &str) -> Option<(String, Report)> {
    match name {
        "default" => {
            // The sound out-of-the-box configuration: derived PFC
            // thresholds on a cycle-free incast.
            let inc = Incast::new(2);
            let cfg = SimConfig::default_10g();
            let title = format!("default — {} on a 2-to-1 incast, SPF", cfg.fc.name());
            Some((title, gfc_sim::preflight(&inc.topo, &Routing::spf(), &cfg)))
        }
        "ring-pfc" | "ring-cbfc" | "ring-gfc" | "ring-gfc-time" => {
            // The §6.1 testbed ring (Figs. 9/10): clockwise two-hop routes
            // form the Fig. 1 cyclic buffer dependency.
            let scheme = match name {
                "ring-pfc" => Scheme::Pfc,
                "ring-cbfc" => Scheme::Cbfc,
                "ring-gfc" => Scheme::GfcBuffer,
                _ => Scheme::GfcTime,
            };
            let ring = Ring::new(3);
            let routing = Routing::fixed(ring.clockwise_routes());
            let cfg = sim_config_testbed(scheme, 1);
            let title = format!("{name} — Fig. 1 ring, clockwise routes, {}", scheme.name());
            Some((title, gfc_sim::preflight(&ring.topo, &routing, &cfg)))
        }
        "fattree" => {
            // The Fig. 11 case study: a k=4 fat-tree with three failed
            // links whose shortest-path re-routes admit a four-link CBD.
            let (ft, _) = crate::common::fig11_scenario();
            let cfg = crate::common::sim_config_300k(Scheme::Pfc, 1);
            let title = "fattree — Fig. 11 failed k=4 fat-tree, SPF, PFC".to_string();
            Some((title, gfc_sim::preflight(&ft.topo, &Routing::spf(), &cfg)))
        }
        "sparse-ring" => {
            // The GFC012 showcase: hosts on alternating switches of a
            // 6-ring. The all-pairs union still cycles (GFC011 cries
            // wolf), but the host-realizable graph peels empty, so the
            // finding is downgraded to Info and PFC is admitted.
            let ring = SparseRing::new(6, 2);
            let cfg = sim_config_testbed(Scheme::Pfc, 1);
            let title = "sparse-ring — 6-ring, hosts on alternating switches, SPF, PFC".to_string();
            Some((title, gfc_sim::preflight(&ring.topo, &Routing::spf(), &cfg)))
        }
        "fattree-updown" => {
            // A failed fat-tree whose all-pairs SPF union is CBD-prone,
            // routed entirely on up/down paths: judged on its configured
            // routes (the GFC011 fix), it is clean under PFC.
            let (ft, routes) =
                gfc_topology::fattree::find_updown_showcase(50).expect("showcase fabric");
            let cfg = crate::common::sim_config_300k(Scheme::Pfc, 1);
            let title =
                "fattree-updown — failed k=4 fat-tree, complete up/down routes, PFC".to_string();
            Some((title, gfc_sim::preflight(&ft.topo, &Routing::fixed(routes), &cfg)))
        }
        "ring-512" => {
            // Scale check: the iterative SCC/peel pipeline over a
            // 1024-node ring. Antipodal ECMP pairs realize the full ring
            // cycle, so PFC is (correctly) rejected here.
            let ring = Ring::new(512);
            let cfg = sim_config_testbed(Scheme::Pfc, 1);
            let title = "ring-512 — 512-switch ring, SPF, PFC".to_string();
            Some((title, gfc_sim::preflight(&ring.topo, &Routing::spf(), &cfg)))
        }
        "thm41" => {
            // Fig. 5's impossible parameterization: with τ = 25 µs a
            // 100 KB buffer cannot satisfy B0 ≤ Bm − 4·C·τ.
            let inc = Incast::new(2);
            let mut cfg = SimConfig::default_10g();
            cfg.buffer_bytes = kb(100);
            cfg.fc = FcConfig::Conceptual(ConceptualParams {
                b0: kb(50),
                bm: kb(100),
                tau: Dur::from_micros(25),
            });
            let title = "thm41 — conceptual GFC, B0 beyond the Theorem 4.1 bound".to_string();
            Some((title, gfc_sim::preflight(&inc.topo, &Routing::spf(), &cfg)))
        }
        _ => None,
    }
}
