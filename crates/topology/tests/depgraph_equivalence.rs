//! The dense CBD analysis against a reference copy of the original
//! hash-map implementation: identical edge sets, `find_cycle` cycles,
//! SCC order and members, peeling outcomes and break sets on random
//! failed fat-trees and on the ring scenarios.

use gfc_topology::cbd::{
    all_pairs_depgraph, depgraph_for_flows, realizable_all_pairs_depgraph, spf_depgraph_for_pairs,
};
use gfc_topology::fattree::FatTree;
use gfc_topology::{DepGraph, NodeId, Ring, SparseRing, SpfRouting, Topology};
use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};

/// The reference: `HashMap<u64, HashSet<u64>>` adjacency, per-call index
/// maps, and a `VecDeque` BFS with nested next-hop lists.
mod reference {
    use gfc_topology::{DirLink, LinkId, NodeId, NodeKind, Topology};
    use std::collections::{HashMap, HashSet, VecDeque};

    pub struct Tree {
        pub dist: Vec<u32>,
        pub next_hops: Vec<Vec<LinkId>>,
    }

    pub fn tree(topo: &Topology, dst: NodeId) -> Tree {
        let n = topo.num_nodes();
        let mut dist = vec![u32::MAX; n];
        dist[dst.0 as usize] = 0;
        let mut queue = VecDeque::from([dst]);
        while let Some(v) = queue.pop_front() {
            for (u, _) in topo.neighbors(v) {
                if dist[u.0 as usize] == u32::MAX {
                    dist[u.0 as usize] = dist[v.0 as usize] + 1;
                    queue.push_back(u);
                }
            }
        }
        let mut next_hops = vec![Vec::new(); n];
        for v in topo.node_ids() {
            let dv = dist[v.0 as usize];
            if dv == u32::MAX || dv == 0 {
                continue;
            }
            for (u, l) in topo.neighbors(v) {
                if dist[u.0 as usize] == dv - 1 {
                    next_hops[v.0 as usize].push(l);
                }
            }
            next_hops[v.0 as usize].sort_unstable();
        }
        Tree { dist, next_hops }
    }

    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct Scc {
        pub members: Vec<u64>,
        pub cyclic: bool,
    }

    #[derive(Default, Clone)]
    pub struct Graph {
        edges: HashMap<u64, HashSet<u64>>,
    }

    impl Graph {
        pub fn add_edge(&mut self, from: DirLink, to: DirLink) {
            self.edges.entry(from.index()).or_default().insert(to.index());
        }

        pub fn num_edges(&self) -> usize {
            self.edges.values().map(HashSet::len).sum()
        }

        pub fn vertices(&self) -> Vec<u64> {
            let mut set: HashSet<u64> = self.edges.keys().copied().collect();
            for succs in self.edges.values() {
                set.extend(succs.iter().copied());
            }
            let mut vs: Vec<u64> = set.into_iter().collect();
            vs.sort_unstable();
            vs
        }

        pub fn successors(&self, v: u64) -> Vec<u64> {
            let mut s: Vec<u64> =
                self.edges.get(&v).map(|s| s.iter().copied().collect()).unwrap_or_default();
            s.sort_unstable();
            s
        }

        fn has_edge_idx(&self, from: u64, to: u64) -> bool {
            self.edges.get(&from).is_some_and(|s| s.contains(&to))
        }

        fn induced(&self, keep: &HashSet<u64>) -> Graph {
            let mut edges: HashMap<u64, HashSet<u64>> = HashMap::new();
            for (&from, succs) in &self.edges {
                if !keep.contains(&from) {
                    continue;
                }
                let kept: HashSet<u64> =
                    succs.iter().copied().filter(|t| keep.contains(t)).collect();
                if !kept.is_empty() {
                    edges.insert(from, kept);
                }
            }
            Graph { edges }
        }

        pub fn condensation(&self) -> Vec<Scc> {
            let verts = self.vertices();
            let n = verts.len();
            let idx_of: HashMap<u64, usize> =
                verts.iter().enumerate().map(|(i, &v)| (v, i)).collect();
            let adj: Vec<Vec<usize>> = verts
                .iter()
                .map(|&v| self.successors(v).iter().map(|t| idx_of[t]).collect())
                .collect();
            const UNSET: usize = usize::MAX;
            let mut index = vec![UNSET; n];
            let mut low = vec![0usize; n];
            let mut on_stack = vec![false; n];
            let mut stack: Vec<usize> = Vec::new();
            let mut next_index = 0usize;
            let mut sccs: Vec<Scc> = Vec::new();
            for root in 0..n {
                if index[root] != UNSET {
                    continue;
                }
                let mut frames: Vec<(usize, usize)> = vec![(root, 0)];
                while let Some(&mut (v, ref mut cursor)) = frames.last_mut() {
                    if *cursor == 0 {
                        index[v] = next_index;
                        low[v] = next_index;
                        next_index += 1;
                        stack.push(v);
                        on_stack[v] = true;
                    }
                    if *cursor < adj[v].len() {
                        let u = adj[v][*cursor];
                        *cursor += 1;
                        if index[u] == UNSET {
                            frames.push((u, 0));
                        } else if on_stack[u] {
                            low[v] = low[v].min(index[u]);
                        }
                    } else {
                        if low[v] == index[v] {
                            let mut members = Vec::new();
                            loop {
                                let w = stack.pop().expect("component on stack");
                                on_stack[w] = false;
                                members.push(verts[w]);
                                if w == v {
                                    break;
                                }
                            }
                            members.sort_unstable();
                            let cyclic =
                                members.len() > 1 || self.has_edge_idx(members[0], members[0]);
                            sccs.push(Scc { members, cyclic });
                        }
                        frames.pop();
                        if let Some(&mut (p, _)) = frames.last_mut() {
                            low[p] = low[p].min(low[v]);
                        }
                    }
                }
            }
            sccs
        }

        pub fn cyclic_by_size(sccs: &[Scc]) -> Vec<&Scc> {
            let mut cyc: Vec<&Scc> = sccs.iter().filter(|s| s.cyclic).collect();
            cyc.sort_by(|a, b| {
                b.members.len().cmp(&a.members.len()).then(a.members[0].cmp(&b.members[0]))
            });
            cyc
        }

        pub fn cycle_in_scc(&self, scc: &Scc) -> Vec<u64> {
            if !scc.cyclic {
                return Vec::new();
            }
            let set: HashSet<u64> = scc.members.iter().copied().collect();
            let mut pos: HashMap<u64, usize> = HashMap::new();
            let mut path: Vec<u64> = Vec::new();
            let mut v = scc.members[0];
            loop {
                if let Some(&p) = pos.get(&v) {
                    return path[p..].to_vec();
                }
                pos.insert(v, path.len());
                path.push(v);
                v = self
                    .successors(v)
                    .into_iter()
                    .find(|t| set.contains(t))
                    .expect("in-SCC successor");
            }
        }

        pub fn break_set(&self, scc: &Scc) -> Vec<u64> {
            if !scc.cyclic {
                return Vec::new();
            }
            let mut alive: HashSet<u64> = scc.members.iter().copied().collect();
            let mut removed = Vec::new();
            loop {
                let sub = self.induced(&alive);
                let sccs = sub.condensation();
                let Some(worst) = Graph::cyclic_by_size(&sccs).into_iter().next() else {
                    break;
                };
                let wset: HashSet<u64> = worst.members.iter().copied().collect();
                let mut best: Option<(usize, u64)> = None;
                for &v in &worst.members {
                    let out = sub.successors(v).iter().filter(|t| wset.contains(t)).count();
                    let inn = worst.members.iter().filter(|&&u| sub.has_edge_idx(u, v)).count();
                    let score = inn * out;
                    if best.is_none_or(|(s, _)| score > s) {
                        best = Some((score, v));
                    }
                }
                let (_, v) = best.expect("members");
                alive.remove(&v);
                removed.push(v);
            }
            removed
        }

        /// `(peeled, rounds, residual)`.
        pub fn peel(&self) -> (usize, usize, Vec<u64>) {
            let verts = self.vertices();
            let n = verts.len();
            let idx_of: HashMap<u64, usize> =
                verts.iter().enumerate().map(|(i, &v)| (v, i)).collect();
            let mut out_deg = vec![0usize; n];
            let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
            for (i, &v) in verts.iter().enumerate() {
                for t in self.successors(v) {
                    out_deg[i] += 1;
                    preds[idx_of[&t]].push(i);
                }
            }
            let mut removed = vec![false; n];
            let mut frontier: Vec<usize> = (0..n).filter(|&i| out_deg[i] == 0).collect();
            let mut rounds = 0;
            let mut peeled = 0;
            while !frontier.is_empty() {
                rounds += 1;
                for &i in &frontier {
                    removed[i] = true;
                    peeled += 1;
                }
                let mut next = Vec::new();
                for &i in &frontier {
                    for &p in &preds[i] {
                        out_deg[p] -= 1;
                        if out_deg[p] == 0 && !removed[p] {
                            next.push(p);
                        }
                    }
                }
                next.sort_unstable();
                frontier = next;
            }
            let residual =
                verts.iter().enumerate().filter(|&(i, _)| !removed[i]).map(|(_, &v)| v).collect();
            (peeled, rounds, residual)
        }

        pub fn find_cycle(&self) -> Option<Vec<u64>> {
            let mut color: HashMap<u64, u8> = HashMap::new();
            let mut parent: HashMap<u64, u64> = HashMap::new();
            let mut roots: Vec<u64> = self.edges.keys().copied().collect();
            roots.sort_unstable();
            for &root in &roots {
                if color.get(&root).copied().unwrap_or(0) != 0 {
                    continue;
                }
                let mut stack: Vec<(u64, Vec<u64>)> = vec![(root, self.successors(root))];
                color.insert(root, 1);
                while let Some((v, rest)) = stack.last_mut() {
                    let v = *v;
                    if let Some(u) = rest.pop() {
                        match color.get(&u).copied().unwrap_or(0) {
                            0 => {
                                parent.insert(u, v);
                                color.insert(u, 1);
                                stack.push((u, self.successors(u)));
                            }
                            1 => {
                                let mut cyc = vec![v];
                                let mut w = v;
                                while w != u {
                                    w = parent[&w];
                                    cyc.push(w);
                                }
                                cyc.reverse();
                                return Some(cyc);
                            }
                            _ => {}
                        }
                    } else {
                        color.insert(v, 2);
                        stack.pop();
                    }
                }
            }
            None
        }
    }

    pub fn spf_pairs(topo: &Topology, pairs_by_dst: &[(NodeId, Vec<NodeId>)], g: &mut Graph) {
        for (dst, srcs) in pairs_by_dst {
            let tree = tree(topo, *dst);
            let mut reach = vec![false; topo.num_nodes()];
            let mut stack: Vec<NodeId> = Vec::new();
            for &s in srcs {
                if tree.dist[s.0 as usize] != u32::MAX && !reach[s.0 as usize] {
                    reach[s.0 as usize] = true;
                    stack.push(s);
                }
            }
            while let Some(u) = stack.pop() {
                for &l in &tree.next_hops[u.0 as usize] {
                    let v = topo.peer(l, u);
                    if topo.node(v).kind == NodeKind::Switch {
                        let incoming = topo.dir_from(l, u);
                        for &lo in &tree.next_hops[v.0 as usize] {
                            g.add_edge(incoming, topo.dir_from(lo, v));
                        }
                    }
                    if !reach[v.0 as usize] {
                        reach[v.0 as usize] = true;
                        stack.push(v);
                    }
                }
            }
        }
    }

    pub fn all_pairs(topo: &Topology) -> Graph {
        let mut g = Graph::default();
        for dst in topo.hosts() {
            let tree = tree(topo, dst);
            for v in topo.node_ids() {
                if topo.node(v).kind != NodeKind::Switch {
                    continue;
                }
                let dv = tree.dist[v.0 as usize];
                if dv == u32::MAX || dv == 0 {
                    continue;
                }
                let outs = &tree.next_hops[v.0 as usize];
                for (u, l) in topo.neighbors(v) {
                    if tree.dist[u.0 as usize] == dv + 1 {
                        let incoming = topo.dir_from(l, u);
                        for &lo in outs {
                            g.add_edge(incoming, topo.dir_from(lo, v));
                        }
                    }
                }
            }
        }
        g
    }

    pub fn flows(topo: &Topology, flows: &[(NodeId, Vec<LinkId>)]) -> Graph {
        let mut g = Graph::default();
        for (src, path) in flows {
            let dirs = gfc_topology::routing::path_dirlinks(topo, *src, path);
            for w in dirs.windows(2) {
                if topo.node(topo.dir_dst(w[0])).kind == NodeKind::Switch {
                    g.add_edge(w[0], w[1]);
                }
            }
        }
        g
    }
}

/// Every analysis of `dense` must equal the reference's on `refg`.
fn assert_same(what: &str, dense: &DepGraph, refg: &reference::Graph) -> Result<(), TestCaseError> {
    prop_assert_eq!(dense.num_edges(), refg.num_edges(), "{}: edge count", what);
    let verts = refg.vertices();
    prop_assert_eq!(dense.vertices(), verts.clone(), "{}: vertices", what);
    for &v in &verts {
        prop_assert_eq!(dense.successors(v), refg.successors(v), "{}: successors of {}", what, v);
    }
    prop_assert_eq!(dense.find_cycle(), refg.find_cycle(), "{}: find_cycle", what);
    let cond = dense.condensation();
    let ref_sccs = refg.condensation();
    prop_assert_eq!(cond.sccs().len(), ref_sccs.len(), "{}: SCC count", what);
    for (s, r) in cond.sccs().iter().zip(&ref_sccs) {
        prop_assert_eq!((&s.members, s.cyclic), (&r.members, r.cyclic), "{}: SCC order", what);
    }
    let cyclic = cond.cyclic_by_size();
    let ref_cyclic = reference::Graph::cyclic_by_size(&ref_sccs);
    prop_assert_eq!(cyclic.len(), ref_cyclic.len(), "{}: cyclic SCC count", what);
    for (s, r) in cyclic.iter().zip(&ref_cyclic) {
        prop_assert_eq!(&s.members, &r.members, "{}: cyclic_by_size order", what);
        prop_assert_eq!(dense.cycle_in_scc(s), refg.cycle_in_scc(r), "{}: cycle_in_scc", what);
        prop_assert_eq!(dense.break_set(s), refg.break_set(r), "{}: break_set", what);
    }
    let p = dense.peel();
    prop_assert_eq!((p.peeled, p.rounds, p.residual), refg.peel(), "{}: peel", what);
    Ok(())
}

/// The union and realizable all-pairs graphs, a half-host SPF subset,
/// and a concrete ECMP flow set on `topo`.
fn check_topology(topo: &Topology, flow_seed: u64) -> Result<(), TestCaseError> {
    assert_same("all_pairs", &all_pairs_depgraph(topo), &reference::all_pairs(topo))?;
    let hosts = topo.hosts();
    let all: Vec<(NodeId, Vec<NodeId>)> =
        hosts.iter().map(|&d| (d, hosts.iter().copied().filter(|&s| s != d).collect())).collect();
    let mut refg = reference::Graph::default();
    reference::spf_pairs(topo, &all, &mut refg);
    assert_same("realizable", &realizable_all_pairs_depgraph(topo), &refg)?;

    let mut r = SpfRouting::new();
    let mut flows = Vec::new();
    for (i, &s) in hosts.iter().enumerate() {
        let d = hosts[(i * 7 + 3) % hosts.len()];
        if let Some(p) = (s != d).then(|| r.path(topo, s, d, flow_seed ^ i as u64)).flatten() {
            flows.push((s, p));
        }
    }
    let half: Vec<(NodeId, Vec<NodeId>)> =
        all.iter().step_by(2).map(|(d, s)| (*d, s.iter().copied().step_by(2).collect())).collect();
    let mut dense = depgraph_for_flows(topo, &flows);
    spf_depgraph_for_pairs(topo, &half, &mut dense);
    let mut refg = reference::flows(topo, &flows);
    reference::spf_pairs(topo, &half, &mut refg);
    assert_same("flows+pairs", &dense, &refg)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random failed fat-trees, k = 4, 6, 8, failure rate 0–10 %.
    #[test]
    fn dense_matches_reference_on_failed_fat_trees(
        k_idx in 0usize..3,
        seed in 0u64..1_000_000,
        prob in 0.0f64..0.10,
    ) {
        let mut ft = FatTree::new(4 + 2 * k_idx);
        ft.inject_failures(&mut StdRng::seed_from_u64(seed), prob);
        check_topology(&ft.topo, seed)?;
    }
}

#[test]
fn dense_matches_reference_on_rings() {
    for n in [3, 5, 6, 9] {
        check_topology(&Ring::new(n).topo, 1).expect("ring");
    }
    for (n, every) in [(6, 2), (8, 2), (9, 3)] {
        check_topology(&SparseRing::new(n, every).topo, 1).expect("sparse ring");
    }
}

#[test]
fn dense_matches_reference_on_healthy_fat_trees() {
    for k in [4, 6, 8] {
        check_topology(&FatTree::new(k).topo, 2).expect("healthy fat-tree");
    }
}

#[test]
fn dense_matches_reference_with_multi_homed_and_isolated_hosts() {
    // Hosts that do not hang off one switch by a single link take the
    // builders' per-host path: dual-home one host, cut another off, and
    // attach a host to a host.
    for seed in 0..6u64 {
        let mut ft = FatTree::new(4 + 2 * (seed as usize % 2));
        ft.inject_failures(&mut StdRng::seed_from_u64(seed), 0.08);
        let n = ft.hosts.len();
        let (a, b) = (seed as usize % n, (seed as usize * 5 + 3) % n);
        ft.topo.add_link(ft.hosts[a], ft.edges[(seed as usize + 1) % ft.edges.len()]);
        ft.topo.fail_link(ft.host_links[b]);
        let stub = ft.topo.add_host("stub");
        ft.topo.add_link(stub, ft.hosts[(a + 1) % n]);
        check_topology(&ft.topo, seed).expect("irregular hosts");
    }
}
