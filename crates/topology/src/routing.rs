//! Shortest-path-first routing with deterministic ECMP, plus explicit
//! static paths for configured scenarios (Fig. 1's clockwise ring).
//!
//! The paper evaluates "the shortest-path-first routing algorithm" on
//! fat-trees with failed links. We compute, per destination, the BFS
//! distance field over alive links; every neighbor one hop closer is an
//! equal-cost next hop. A flow picks among equal-cost hops with a
//! deterministic hash of `(flow id, current node)` — the usual per-hop
//! ECMP — so reruns with the same seed take identical paths.
//!
//! Paths are resolved once at flow start ("source routing"): the packet
//! carries its link list. On a static topology this is equivalent to
//! per-hop table lookup and keeps the simulator's forwarding path trivial.

use crate::graph::{DirLink, LinkId, NodeId, Topology};
use std::collections::HashMap;

/// Per-destination BFS result. The next hops are stored flat (CSR): one
/// `LinkId` buffer plus per-node offsets, so a tree is three allocations
/// regardless of the node count and [`DstTree::recompute`] can refill it
/// in place for the next destination.
#[derive(Debug, Clone, Default)]
pub struct DstTree {
    /// `dist[v]` = hop distance from node `v` to the destination
    /// (`u32::MAX` if unreachable).
    pub dist: Vec<u32>,
    /// `hops[hop_start[v]..hop_start[v + 1]]` = the next hops of `v`.
    hop_start: Vec<u32>,
    hops: Vec<LinkId>,
}

impl DstTree {
    /// Compute the BFS tree toward `dst` over alive links.
    pub fn compute(topo: &Topology, dst: NodeId) -> DstTree {
        let mut tree = DstTree::default();
        tree.recompute(topo, dst);
        tree
    }

    /// Recompute this tree toward `dst`, reusing its buffers — the kernel
    /// the CBD builders run once per destination pass.
    pub fn recompute(&mut self, topo: &Topology, dst: NodeId) {
        let n = topo.num_nodes();
        self.dist.clear();
        self.dist.resize(n, u32::MAX);
        self.dist[dst.0 as usize] = 0;
        // Index queue: each node is appended once, when first reached, and
        // consumed by cursor.
        let mut queue: Vec<NodeId> = Vec::with_capacity(n);
        queue.push(dst);
        let mut head = 0;
        while let Some(&v) = queue.get(head) {
            head += 1;
            let dv = self.dist[v.0 as usize] + 1;
            for (u, _) in topo.neighbors(v) {
                if self.dist[u.0 as usize] == u32::MAX {
                    self.dist[u.0 as usize] = dv;
                    queue.push(u);
                }
            }
        }
        self.hop_start.clear();
        self.hops.clear();
        for v in topo.node_ids() {
            let start = self.hops.len();
            self.hop_start.push(u32::try_from(start).expect("hop count fits u32"));
            let dv = self.dist[v.0 as usize];
            if dv == u32::MAX || dv == 0 {
                continue;
            }
            for (u, l) in topo.neighbors(v) {
                if self.dist[u.0 as usize] == dv - 1 {
                    self.hops.push(l);
                }
            }
            self.hops[start..].sort_unstable();
        }
        self.hop_start.push(u32::try_from(self.hops.len()).expect("hop count fits u32"));
    }

    /// Alive links from `v` leading one hop closer, sorted by link id.
    pub fn next_hops(&self, v: NodeId) -> &[LinkId] {
        let i = v.0 as usize;
        &self.hops[self.hop_start[i] as usize..self.hop_start[i + 1] as usize]
    }
}

/// splitmix64 — the deterministic mixer used for ECMP hashing.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Shortest-path-first routing oracle with per-destination memoization.
/// `Clone` duplicates the cache, not just the config — harmless, since
/// every tree is a pure function of the topology.
#[derive(Debug, Clone, Default)]
pub struct SpfRouting {
    /// Indexed by destination node.
    trees: Vec<Option<DstTree>>,
}

impl SpfRouting {
    /// Fresh oracle. Trees are computed lazily per destination and cached;
    /// call [`Self::invalidate`] after changing link state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drop all cached trees (topology changed).
    pub fn invalidate(&mut self) {
        self.trees.clear();
    }

    /// The (cached) BFS tree toward `dst`.
    pub fn tree(&mut self, topo: &Topology, dst: NodeId) -> &DstTree {
        let i = dst.0 as usize;
        if self.trees.len() <= i {
            self.trees.resize_with(i + 1, || None);
        }
        self.trees[i].get_or_insert_with(|| DstTree::compute(topo, dst))
    }

    /// Hop distance from `src` to `dst`, if reachable.
    pub fn distance(&mut self, topo: &Topology, src: NodeId, dst: NodeId) -> Option<u32> {
        let d = self.tree(topo, dst).dist[src.0 as usize];
        (d != u32::MAX).then_some(d)
    }

    /// Resolve the full path (list of links) a flow with ECMP identity
    /// `flow_hash` takes from `src` to `dst`. `None` if unreachable.
    pub fn path(
        &mut self,
        topo: &Topology,
        src: NodeId,
        dst: NodeId,
        flow_hash: u64,
    ) -> Option<Vec<LinkId>> {
        let tree = self.tree(topo, dst);
        if tree.dist[src.0 as usize] == u32::MAX {
            return None;
        }
        let mut path = Vec::with_capacity(tree.dist[src.0 as usize] as usize);
        let mut v = src;
        while v != dst {
            let hops = tree.next_hops(v);
            debug_assert!(!hops.is_empty(), "distance finite but no next hop");
            let pick = (mix64(flow_hash ^ mix64(v.0 as u64)) % hops.len() as u64) as usize;
            let l = hops[pick];
            path.push(l);
            v = topo.peer(l, v);
        }
        Some(path)
    }
}

/// A routing decision source for flows: SPF with ECMP, or explicit
/// per-flow static paths (used by configured scenarios such as the Fig. 1
/// ring, where the paper's routes are deliberately not shortest).
#[derive(Debug, Clone)]
pub enum Routing {
    /// Shortest-path-first with deterministic ECMP.
    Spf(SpfRouting),
    /// Explicit paths keyed by `(src, dst)`; flows not present fall back
    /// to SPF on the embedded oracle.
    Static {
        /// Configured `(src, dst) → links` routes.
        paths: HashMap<(NodeId, NodeId), Vec<LinkId>>,
        /// Fallback oracle for pairs without a configured route.
        fallback: SpfRouting,
    },
}

impl Routing {
    /// A fresh SPF router.
    pub fn spf() -> Self {
        Routing::Spf(SpfRouting::new())
    }

    /// A static router over the given `(src, dst) → path` map.
    pub fn fixed(paths: HashMap<(NodeId, NodeId), Vec<LinkId>>) -> Self {
        Routing::Static { paths, fallback: SpfRouting::new() }
    }

    /// Resolve a flow's path.
    pub fn path(
        &mut self,
        topo: &Topology,
        src: NodeId,
        dst: NodeId,
        flow_hash: u64,
    ) -> Option<Vec<LinkId>> {
        match self {
            Routing::Spf(r) => r.path(topo, src, dst, flow_hash),
            Routing::Static { paths, fallback } => match paths.get(&(src, dst)) {
                Some(p) => Some(p.clone()),
                None => fallback.path(topo, src, dst, flow_hash),
            },
        }
    }
}

/// Why a link sequence is not a valid walk (see [`walk_nodes`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalkError {
    /// The path crosses a link marked failed.
    DeadLink(LinkId),
    /// The path is discontiguous: this link does not touch the node the
    /// walk had reached.
    Discontiguous {
        /// The offending link.
        link: LinkId,
        /// The node the walk had reached when the break was found.
        at: NodeId,
    },
}

impl std::fmt::Display for WalkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalkError::DeadLink(l) => write!(f, "link {l:?} on path is failed"),
            WalkError::Discontiguous { link, at } => {
                write!(f, "link {link:?} does not touch node {at:?}")
            }
        }
    }
}

impl std::error::Error for WalkError {}

/// Validate that `path` is a contiguous alive walk from `src` to `dst`;
/// returns the node sequence it visits.
pub fn walk_nodes(topo: &Topology, src: NodeId, path: &[LinkId]) -> Result<Vec<NodeId>, WalkError> {
    let mut nodes = vec![src];
    let mut v = src;
    for &l in path {
        if !topo.link_alive(l) {
            return Err(WalkError::DeadLink(l));
        }
        let link = topo.link(l);
        if link.a != v && link.b != v {
            return Err(WalkError::Discontiguous { link: l, at: v });
        }
        v = topo.peer(l, v);
        nodes.push(v);
    }
    Ok(nodes)
}

/// The directed-link sequence of a path starting at `src`.
pub fn path_dirlinks(topo: &Topology, src: NodeId, path: &[LinkId]) -> Vec<DirLink> {
    let mut out = Vec::with_capacity(path.len());
    let mut v = src;
    for &l in path {
        out.push(topo.dir_from(l, v));
        v = topo.peer(l, v);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 4-node diamond: a–b, a–c, b–d, c–d (two equal-cost paths a→d).
    fn diamond() -> (Topology, [NodeId; 4]) {
        let mut t = Topology::new();
        let a = t.add_switch("a");
        let b = t.add_switch("b");
        let c = t.add_switch("c");
        let d = t.add_switch("d");
        t.add_link(a, b);
        t.add_link(a, c);
        t.add_link(b, d);
        t.add_link(c, d);
        (t, [a, b, c, d])
    }

    #[test]
    fn bfs_distances() {
        let (t, [a, b, c, d]) = diamond();
        let tree = DstTree::compute(&t, d);
        assert_eq!(tree.dist[a.0 as usize], 2);
        assert_eq!(tree.dist[b.0 as usize], 1);
        assert_eq!(tree.dist[c.0 as usize], 1);
        assert_eq!(tree.dist[d.0 as usize], 0);
        // a has two equal-cost next hops.
        assert_eq!(tree.next_hops(a).len(), 2);
    }

    #[test]
    fn path_is_shortest_and_deterministic() {
        let (t, [a, _, _, d]) = diamond();
        let mut r = SpfRouting::new();
        let p1 = r.path(&t, a, d, 42).unwrap();
        let p2 = r.path(&t, a, d, 42).unwrap();
        assert_eq!(p1, p2);
        assert_eq!(p1.len(), 2);
        assert_eq!(walk_nodes(&t, a, &p1).unwrap().last(), Some(&d));
    }

    #[test]
    fn ecmp_spreads_flows() {
        let (t, [a, _, _, d]) = diamond();
        let mut r = SpfRouting::new();
        let mut first_hops = std::collections::HashSet::new();
        for h in 0..64u64 {
            first_hops.insert(r.path(&t, a, d, h).unwrap()[0]);
        }
        assert_eq!(first_hops.len(), 2, "ECMP never used one of the paths");
    }

    #[test]
    fn reroutes_around_failure() {
        let (mut t, [a, b, _, d]) = diamond();
        let ab = t.link_between(a, b).unwrap();
        t.fail_link(ab);
        let mut r = SpfRouting::new();
        for h in 0..16u64 {
            let p = r.path(&t, a, d, h).unwrap();
            assert!(!p.contains(&ab));
            assert_eq!(p.len(), 2);
        }
    }

    #[test]
    fn unreachable_is_none() {
        let (mut t, [a, _, _, d]) = diamond();
        for l in t.link_ids().collect::<Vec<_>>() {
            t.fail_link(l);
        }
        let mut r = SpfRouting::new();
        assert_eq!(r.path(&t, a, d, 0), None);
        assert_eq!(r.distance(&t, a, d), None);
    }

    #[test]
    fn static_routes_override() {
        let (t, [a, b, _, d]) = diamond();
        // Configure a deliberately long route a→b→d... build it by walking.
        let ab = t.link_between(a, b).unwrap();
        let bd = t.link_between(b, d).unwrap();
        let mut paths = HashMap::new();
        paths.insert((a, d), vec![ab, bd]);
        let mut routing = Routing::fixed(paths);
        assert_eq!(routing.path(&t, a, d, 7).unwrap(), vec![ab, bd]);
        // Unconfigured pair falls back to SPF.
        assert!(routing.path(&t, b, d, 7).is_some());
    }

    #[test]
    fn walk_rejects_broken_paths() {
        let (mut t, [a, b, _, d]) = diamond();
        let ab = t.link_between(a, b).unwrap();
        let bd = t.link_between(b, d).unwrap();
        assert_eq!(
            walk_nodes(&t, a, &[bd]).unwrap_err(),
            WalkError::Discontiguous { link: bd, at: a }
        );
        t.fail_link(ab);
        assert_eq!(walk_nodes(&t, a, &[ab, bd]).unwrap_err(), WalkError::DeadLink(ab));
    }

    #[test]
    fn dirlink_sequence() {
        let (t, [a, b, _, d]) = diamond();
        let ab = t.link_between(a, b).unwrap();
        let bd = t.link_between(b, d).unwrap();
        let dirs = path_dirlinks(&t, a, &[ab, bd]);
        assert_eq!(t.dir_src(dirs[0]), a);
        assert_eq!(t.dir_dst(dirs[0]), b);
        assert_eq!(t.dir_src(dirs[1]), b);
        assert_eq!(t.dir_dst(dirs[1]), d);
    }
}
