//! The immutable half of a run, built once and shared by `Arc` between
//! the sequential [`Network`](crate::Network) (the one-domain case) and
//! every shard of a [`ShardedNetwork`](crate::ShardedNetwork). Mutable
//! state lives in each engine instance, for its own domain's nodes only.
//! [`Fabric::new`] is the one place [`SimConfig::preflight`] is applied.

use crate::config::SimConfig;
use gfc_topology::{LinkId, NodeId, Partition, Routing, Topology};
use gfc_verify::{PreflightPolicy, Report};

/// Topology, configuration, derived lookup tables, the node → domain
/// table and the preflight report of one run.
#[derive(Debug)]
pub(crate) struct Fabric {
    pub(crate) topo: Topology,
    pub(crate) cfg: SimConfig,
    /// Per-link `(a, port on a, port on b)`: O(1) next-hop port lookup on
    /// the per-hop forwarding path (replaces the adjacency scan).
    pub(crate) link_ports: Vec<(NodeId, u16, u16)>,
    /// NodeId → host index (`u32::MAX` for switches). NodeIds are dense,
    /// so this is a straight table lookup on the delivery hot path.
    pub(crate) host_of_node: Vec<u32>,
    /// Host node ids in host-index order.
    pub(crate) host_list: Vec<NodeId>,
    /// `domain_of[node]`: the domain (engine instance) animating `node`.
    pub(crate) domain_of: Box<[u32]>,
    /// `None` when the preflight policy was `Skip`.
    pub(crate) preflight: Option<Report>,
}

impl Fabric {
    /// Vet `cfg` against `topo` and `routing` under its preflight policy,
    /// then derive the lookup tables. Panics if `partition` does not
    /// cover the topology, on preflight errors under
    /// [`PreflightPolicy::Enforce`], or if `cfg` fails validation.
    pub(crate) fn new(
        topo: Topology,
        routing: &Routing,
        cfg: SimConfig,
        partition: &Partition,
    ) -> Fabric {
        assert_eq!(partition.len(), topo.num_nodes(), "partition does not cover the topology");
        let preflight = match cfg.preflight {
            PreflightPolicy::Skip => None,
            policy => {
                let report = crate::preflight(&topo, routing, &cfg);
                if policy == PreflightPolicy::Enforce && report.has_errors() {
                    panic!(
                        "preflight rejected this configuration (set SimConfig::preflight to \
                         PreflightPolicy::Acknowledge to run it anyway):\n{}",
                        report.render()
                    );
                }
                Some(report)
            }
        };
        cfg.validate();
        assert!(
            topo.num_nodes() < (1 << 20),
            "node count exceeds the canonical dispatch-rank field (2^20)"
        );
        let link_ports = topo
            .link_ids()
            .map(|l| {
                let link = topo.link(l);
                let pa = u16::try_from(topo.port_of(link.a, l)).expect("port index fits u16");
                let pb = u16::try_from(topo.port_of(link.b, l)).expect("port index fits u16");
                (link.a, pa, pb)
            })
            .collect();
        let host_list = topo.hosts();
        let mut host_of_node = vec![u32::MAX; topo.num_nodes()];
        for (i, &h) in host_list.iter().enumerate() {
            host_of_node[h.0 as usize] = u32::try_from(i).expect("host count fits u32");
        }
        Fabric {
            topo,
            cfg,
            link_ports,
            host_of_node,
            host_list,
            domain_of: partition.domains().into(),
            preflight,
        }
    }

    /// The port `link` occupies on `node` (O(1), unlike
    /// [`Topology::port_of`]'s adjacency scan — this sits on the per-hop
    /// forwarding path).
    #[inline]
    pub(crate) fn out_port(&self, node: NodeId, link: LinkId) -> usize {
        let (a, pa, pb) = self.link_ports[link.0 as usize];
        if node == a {
            pa as usize
        } else {
            pb as usize
        }
    }

    /// Whether `node` is a host, via the dense host table (the `Node`
    /// metadata record carries a name `String`; keep it off the per-event
    /// dispatch path).
    #[inline]
    pub(crate) fn is_host(&self, node: NodeId) -> bool {
        self.host_of_node[node.0 as usize] != u32::MAX
    }
}
