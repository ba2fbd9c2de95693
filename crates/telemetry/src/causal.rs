//! Causal stall attribution: pause-propagation trees and root-cause
//! blame accounting.
//!
//! The registry and timeline record *that* ports paused and *that* flows
//! stalled; this layer records *why*. Every backpressure message an
//! ingress emits is classified at transmit time as asserting (pause,
//! stage > 0, credit exhaustion) or clearing (resume, stage 0, credits
//! available); an asserting run opens an **episode** anchored at that
//! ingress. When the emitting ingress was itself throttled — the egress
//! it forwards to has an asserting message applied against it — the new
//! episode records that upstream episode as its *parent*, so episodes
//! link into **pause-propagation trees**: the root is the original
//! congestion point, depth counts backpressure hops, and the fan-out
//! shows how widely one hotspot radiated.
//!
//! The lineage rides the control plane as a [`CauseToken`] attached to
//! each queued/applied control message: asserting messages carry the
//! open episode's id, clearing messages carry [`CauseToken::NONE`]. The
//! token is observation-only — it never changes what the simulator does,
//! which is what keeps replay fingerprints bit-identical with the layer
//! off (every token is then `NONE` and the tracker is absent).
//!
//! Flows are attributed post-hoc: each stall interval (a delivery gap
//! exceeding the timeline's stall threshold) is blamed on the deepest
//! episode overlapping it at an ingress on the flow's path, and every
//! stalled flow is classified as a *congestion root* (blamed tree rooted
//! on its own path), a *propagation victim* (rooted elsewhere), or a
//! *deadlock-cycle participant* (its path crosses the forensics
//! wait-for cycle).
//!
//! Depth semantics: depth 0 is the congestion root itself; each
//! backpressure hop adds one. **Hard** episodes (pause / credit
//! exhaustion — the hold-and-wait states) are the ones that separate
//! schemes: GFC's rate feedback never hard-blocks, so its hard-episode
//! depth is 0 by construction, while PFC's pause trees deepen hop by hop
//! with a lag of roughly the feedback delay τ per hop.

use crate::registry::{names, Snapshot};
use core::fmt::Write as _;
use gfc_core::json::push_json_str;
use std::collections::HashMap;

/// Lineage tag carried by a control message: the id of the episode the
/// message asserts, or [`CauseToken::NONE`] for clearing messages (and
/// for everything when the causal layer is off).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CauseToken(pub u32);

impl CauseToken {
    /// "No episode": clearing messages and causal-off operation.
    pub const NONE: CauseToken = CauseToken(u32::MAX);

    /// Whether this token names an episode.
    pub fn is_some(self) -> bool {
        self != CauseToken::NONE
    }
}

impl Default for CauseToken {
    fn default() -> CauseToken {
        CauseToken::NONE
    }
}

/// How a control message, at transmit time, acts on the sender it will
/// be applied to. Classified by the embedder (which knows the scheme and
/// the emitting ingress's occupancy).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CtrlSense {
    /// Asserts a hard gate: pause in force or zero credit — the
    /// receiver enters hold-and-wait if it has traffic.
    AssertHard,
    /// Asserts soft backpressure: a rate reduction (GFC stage > 0,
    /// conceptual sample above B0). The receiver keeps trickling.
    AssertSoft,
    /// Clears: resume, stage 0, credits available.
    Clear,
}

/// One backpressure episode: a maximal asserting run at one ingress
/// `(node, port, prio)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Episode {
    /// Episode id (also its [`CauseToken`] value).
    pub id: u32,
    /// Node owning the emitting ingress.
    pub node: u32,
    /// Port index of the emitting ingress.
    pub port: u16,
    /// Priority / VL.
    pub prio: u8,
    /// Whether the episode ever asserted a hard gate (pause / credit
    /// exhaustion) — the hold-and-wait class of episode.
    pub hard: bool,
    /// The episode that throttled this ingress's forward egress at
    /// onset, if any.
    pub parent: Option<u32>,
    /// Root of this episode's propagation tree (its own id at depth 0).
    pub root: u32,
    /// Backpressure hops from the root (0 = the root itself).
    pub depth: u32,
    /// Onset, picoseconds (transmit time of the first asserting
    /// message).
    pub start_ps: u64,
    /// End, picoseconds (transmit time of the clearing message); `None`
    /// while open. Reports close open episodes at the horizon.
    pub end_ps: Option<u64>,
    /// Number of child episodes this one provoked.
    pub children: u32,
}

impl Episode {
    fn end_or(&self, horizon_ps: u64) -> u64 {
        self.end_ps.unwrap_or(horizon_ps)
    }

    /// Display label, e.g. `"n2:p1/0"`.
    pub fn label(&self) -> String {
        format!("n{}:p{}/{}", self.node, self.port, self.prio)
    }
}

/// Classification of a stalled flow against the propagation trees.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowClass {
    /// The blamed tree is rooted at an ingress on the flow's own path:
    /// the flow is part of the congestion that started the tree.
    CongestionRoot,
    /// The blamed tree is rooted elsewhere — the flow is collateral
    /// damage of propagated backpressure (the paper's victim flow).
    PropagationVictim,
    /// The flow's path crosses the forensics wait-for cycle: it is
    /// wedged inside the deadlock itself.
    DeadlockParticipant,
    /// The flow stalled with no overlapping episode on its path (e.g.
    /// scheduling artifacts); no root to blame.
    Unattributed,
}

impl FlowClass {
    /// Stable lowercase name used in CSV exports.
    pub fn as_str(self) -> &'static str {
        match self {
            FlowClass::CongestionRoot => "congestion-root",
            FlowClass::PropagationVictim => "propagation-victim",
            FlowClass::DeadlockParticipant => "deadlock-participant",
            FlowClass::Unattributed => "unattributed",
        }
    }
}

/// Per-flow blame verdict in a [`CausalReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowBlame {
    /// Flow id.
    pub flow: u64,
    /// Classification.
    pub class: FlowClass,
    /// Total stalled picoseconds across the flow's stall intervals.
    pub stall_ps: u64,
    /// The dominant blamed episode (most blamed time), if any.
    pub blamed: Option<u32>,
    /// Root of the dominant blamed episode's tree.
    pub root: Option<u32>,
    /// Depth of the dominant blamed episode.
    pub depth: u32,
}

/// Aggregate view of one propagation tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreeSummary {
    /// Root episode id.
    pub root: u32,
    /// Root ingress node.
    pub node: u32,
    /// Root ingress port.
    pub port: u16,
    /// Priority / VL.
    pub prio: u8,
    /// Episodes in the tree.
    pub episodes: u32,
    /// Deepest episode in the tree.
    pub max_depth: u32,
    /// Deepest *hard* episode in the tree; `None` if the tree never
    /// hard-blocked anything.
    pub max_hard_depth: Option<u32>,
    /// Largest per-episode fan-out in the tree.
    pub max_fanout: u32,
    /// Distinct `(node, port)` ingresses the tree touched.
    pub ports: u32,
    /// Earliest onset across the tree, picoseconds.
    pub start_ps: u64,
    /// Latest end across the tree (horizon for still-open episodes).
    pub end_ps: u64,
    /// Stall time blamed on this tree across all flows, picoseconds.
    pub blamed_stall_ps: u64,
}

#[derive(Debug, Clone)]
struct FlowState {
    id: u64,
    prio: u8,
    /// Ingress `(node, port)` pairs along the flow's path.
    path_ports: Vec<(u32, u16)>,
    last_progress_ps: u64,
    finished: bool,
    /// Closed stall intervals `(start, end)`.
    stalls: Vec<(u64, u64)>,
}

/// The live tracker: owns the episode table, the applied-token map, and
/// per-flow progress state. One per network when
/// `TelemetryConfig::causal` is on.
#[derive(Debug, Clone)]
pub struct CausalTracker {
    stall_gap_ps: u64,
    /// Open episode per emitting ingress `(node, port, prio)`.
    open: HashMap<(u32, u16, u8), u32>,
    /// Token currently applied against each egress `(node, port, prio)`.
    applied: HashMap<(u32, u16, u8), u32>,
    episodes: Vec<Episode>,
    flows: Vec<FlowState>,
    flow_index: HashMap<u64, usize>,
}

impl CausalTracker {
    /// A fresh tracker; `stall_gap_ps` is the delivery-gap threshold
    /// above which a flow counts as stalled (share the timeline's
    /// `stall_gap_or_default`).
    pub fn new(stall_gap_ps: u64) -> CausalTracker {
        CausalTracker {
            stall_gap_ps: stall_gap_ps.max(1),
            open: HashMap::new(),
            applied: HashMap::new(),
            episodes: Vec::new(),
            flows: Vec::new(),
            flow_index: HashMap::new(),
        }
    }

    /// Record a control message leaving ingress `(node, port, prio)` at
    /// `t_ps` and return the lineage token it should carry. `fwd_egress`
    /// is the local egress this ingress's traffic forwards through (the
    /// parent lookup key); `None` when unknown (idle ingress, host).
    pub fn on_ctrl_tx(
        &mut self,
        t_ps: u64,
        node: u32,
        port: u16,
        prio: u8,
        sense: CtrlSense,
        fwd_egress: Option<u16>,
    ) -> CauseToken {
        let key = (node, port, prio);
        match sense {
            CtrlSense::Clear => {
                if let Some(id) = self.open.remove(&key) {
                    self.episodes[id as usize].end_ps = Some(t_ps);
                }
                CauseToken::NONE
            }
            CtrlSense::AssertHard | CtrlSense::AssertSoft => {
                let hard = sense == CtrlSense::AssertHard;
                if let Some(&id) = self.open.get(&key) {
                    // Refresh: periodic schemes re-assert the same episode.
                    self.episodes[id as usize].hard |= hard;
                    return CauseToken(id);
                }
                let parent = fwd_egress
                    .and_then(|eg| self.applied.get(&(node, eg, prio)).copied())
                    .filter(|&p| (p as usize) < self.episodes.len());
                let id = u32::try_from(self.episodes.len()).expect("episode count fits u32");
                let (root, depth) = match parent {
                    Some(p) => {
                        self.episodes[p as usize].children += 1;
                        (self.episodes[p as usize].root, self.episodes[p as usize].depth + 1)
                    }
                    None => (id, 0),
                };
                self.episodes.push(Episode {
                    id,
                    node,
                    port,
                    prio,
                    hard,
                    parent,
                    root,
                    depth,
                    start_ps: t_ps,
                    end_ps: None,
                    children: 0,
                });
                self.open.insert(key, id);
                CauseToken(id)
            }
        }
    }

    /// Record a control message applying at egress `(node, port, prio)`:
    /// the token it carried now governs that egress (NONE removes).
    pub fn on_ctrl_apply(&mut self, node: u32, port: u16, prio: u8, token: CauseToken) {
        let key = (node, port, prio);
        if token.is_some() {
            self.applied.insert(key, token.0);
        } else {
            self.applied.remove(&key);
        }
    }

    /// Register a flow with the ingress ports along its path.
    pub fn on_flow_start(&mut self, id: u64, prio: u8, path_ports: Vec<(u32, u16)>, t_ps: u64) {
        let idx = self.flows.len();
        self.flows.push(FlowState {
            id,
            prio,
            path_ports,
            last_progress_ps: t_ps,
            finished: false,
            stalls: Vec::new(),
        });
        self.flow_index.insert(id, idx);
    }

    /// Record delivery progress for a flow; a gap beyond the stall
    /// threshold closes a stall interval.
    pub fn on_flow_progress(&mut self, id: u64, t_ps: u64) {
        let Some(&idx) = self.flow_index.get(&id) else {
            return;
        };
        let f = &mut self.flows[idx];
        if t_ps.saturating_sub(f.last_progress_ps) >= self.stall_gap_ps {
            f.stalls.push((f.last_progress_ps, t_ps));
        }
        f.last_progress_ps = t_ps;
    }

    /// Mark a flow finished (its trailing interval is judged at `t_ps`
    /// instead of the horizon).
    pub fn on_flow_finish(&mut self, id: u64, t_ps: u64) {
        let Some(&idx) = self.flow_index.get(&id) else {
            return;
        };
        self.on_flow_progress(id, t_ps);
        self.flows[idx].finished = true;
    }

    /// Episodes recorded so far (open ones have `end_ps == None`).
    pub fn episodes(&self) -> &[Episode] {
        &self.episodes
    }

    /// Build the blame report as of `horizon_ps`. `cycle_ports` is the
    /// forensics wait-for cycle's `(node, port)` membership (empty when
    /// no deadlock was captured); flows whose paths cross it classify as
    /// deadlock participants.
    pub fn report(&self, horizon_ps: u64, cycle_ports: &[(u32, u16)]) -> CausalReport {
        // Finalized episode table: open episodes close at the horizon.
        let mut episodes = self.episodes.clone();
        for e in &mut episodes {
            if e.end_ps.is_none() {
                e.end_ps = Some(horizon_ps);
            }
        }

        let cycle: std::collections::HashSet<(u32, u16)> = cycle_ports.iter().copied().collect();
        let mut blamed_by_root: HashMap<u32, u64> = HashMap::new();
        let mut flows = Vec::new();
        for f in &self.flows {
            let mut stalls = f.stalls.clone();
            if !f.finished && horizon_ps.saturating_sub(f.last_progress_ps) >= self.stall_gap_ps {
                stalls.push((f.last_progress_ps, horizon_ps));
            }
            let stall_ps: u64 = stalls.iter().map(|&(s, e)| e - s).sum();
            if stall_ps == 0 {
                continue;
            }
            // Blame each interval on the deepest overlapping episode at
            // an ingress on the flow's path (ties: earliest episode).
            let mut per_episode: HashMap<u32, u64> = HashMap::new();
            for &(s, e) in &stalls {
                let blamed = episodes
                    .iter()
                    .filter(|ep| {
                        ep.prio == f.prio
                            && ep.start_ps < e
                            && ep.end_or(horizon_ps) > s
                            && f.path_ports.contains(&(ep.node, ep.port))
                    })
                    .max_by_key(|ep| (ep.depth, core::cmp::Reverse(ep.id)));
                if let Some(ep) = blamed {
                    *per_episode.entry(ep.id).or_default() += e - s;
                }
            }
            let dominant = per_episode
                .iter()
                .max_by_key(|&(&id, &ps)| (ps, core::cmp::Reverse(id)))
                .map(|(&id, _)| &episodes[id as usize]);
            if let Some(ep) = dominant {
                *blamed_by_root.entry(ep.root).or_default() += stall_ps;
            }
            let on_cycle = f.path_ports.iter().any(|p| cycle.contains(p));
            let class = match dominant {
                _ if on_cycle => FlowClass::DeadlockParticipant,
                Some(ep) => {
                    let root = &episodes[ep.root as usize];
                    if f.path_ports.contains(&(root.node, root.port)) {
                        FlowClass::CongestionRoot
                    } else {
                        FlowClass::PropagationVictim
                    }
                }
                None => FlowClass::Unattributed,
            };
            flows.push(FlowBlame {
                flow: f.id,
                class,
                stall_ps,
                blamed: dominant.map(|ep| ep.id),
                root: dominant.map(|ep| ep.root),
                depth: dominant.map(|ep| ep.depth).unwrap_or(0),
            });
        }

        // Trees, in root-id order.
        let mut roots: Vec<u32> = episodes.iter().map(|e| e.root).collect();
        roots.sort_unstable();
        roots.dedup();
        let trees = roots
            .into_iter()
            .map(|root| {
                let members: Vec<&Episode> = episodes.iter().filter(|e| e.root == root).collect();
                let r = &episodes[root as usize];
                let mut ports: Vec<(u32, u16)> = members.iter().map(|e| (e.node, e.port)).collect();
                ports.sort_unstable();
                ports.dedup();
                TreeSummary {
                    root,
                    node: r.node,
                    port: r.port,
                    prio: r.prio,
                    episodes: members.len() as u32,
                    max_depth: members.iter().map(|e| e.depth).max().unwrap_or(0),
                    max_hard_depth: members.iter().filter(|e| e.hard).map(|e| e.depth).max(),
                    max_fanout: members.iter().map(|e| e.children).max().unwrap_or(0),
                    ports: ports.len() as u32,
                    start_ps: members.iter().map(|e| e.start_ps).min().unwrap_or(0),
                    end_ps: members.iter().map(|e| e.end_or(horizon_ps)).max().unwrap_or(0),
                    blamed_stall_ps: blamed_by_root.get(&root).copied().unwrap_or(0),
                }
            })
            .collect();

        CausalReport { horizon_ps, episodes, trees, flows }
    }
}

/// The frozen blame report: finalized episodes, per-tree aggregates, and
/// per-flow verdicts.
#[derive(Debug, Clone)]
pub struct CausalReport {
    /// Snapshot horizon, picoseconds (open episodes/stalls close here).
    pub horizon_ps: u64,
    /// All episodes, id order, `end_ps` always `Some`.
    pub episodes: Vec<Episode>,
    /// One summary per propagation tree, root-id order.
    pub trees: Vec<TreeSummary>,
    /// One verdict per stalled flow, flow-registration order.
    pub flows: Vec<FlowBlame>,
}

impl CausalReport {
    /// Deepest *hard* episode across all trees — the scheme-separating
    /// metric (0 when nothing ever hard-blocked, e.g. under GFC).
    pub fn max_hard_depth(&self) -> u32 {
        self.episodes.iter().filter(|e| e.hard).map(|e| e.depth).max().unwrap_or(0)
    }

    /// Deepest episode of any kind.
    pub fn max_depth(&self) -> u32 {
        self.episodes.iter().map(|e| e.depth).max().unwrap_or(0)
    }

    /// Flows classified `class`.
    pub fn flows_classified(&self, class: FlowClass) -> usize {
        self.flows.iter().filter(|f| f.class == class).count()
    }

    /// Depth histogram (index = depth) over hard episodes when `hard`,
    /// else over all episodes.
    pub fn depth_histogram(&self, hard: bool) -> Vec<u64> {
        let mut hist = Vec::new();
        for e in self.episodes.iter().filter(|e| !hard || e.hard) {
            let d = e.depth as usize;
            if hist.len() <= d {
                hist.resize(d + 1, 0);
            }
            hist[d] += 1;
        }
        hist
    }

    /// Total stall time blamed on any tree, picoseconds.
    pub fn blamed_stall_ps(&self) -> u64 {
        self.trees.iter().map(|t| t.blamed_stall_ps).sum()
    }

    /// Append the summary counters to a snapshot (the `causal.*`
    /// entries; see [`names`]). Only called when the layer is on, so
    /// causal-off snapshots stay bit-identical to a build without it.
    pub fn push_summary(&self, snap: &mut Snapshot) {
        snap.push_counter(names::CAUSAL_EPISODES, self.episodes.len() as u64);
        snap.push_counter(
            names::CAUSAL_EPISODES_HARD,
            self.episodes.iter().filter(|e| e.hard).count() as u64,
        );
        snap.push_counter(names::CAUSAL_TREES, self.trees.len() as u64);
        snap.push_counter(names::CAUSAL_DEPTH_MAX, u64::from(self.max_hard_depth()));
        snap.push_counter(names::CAUSAL_DEPTH_MAX_ALL, u64::from(self.max_depth()));
        snap.push_counter(
            names::CAUSAL_FLOWS_ROOT,
            self.flows_classified(FlowClass::CongestionRoot) as u64,
        );
        snap.push_counter(
            names::CAUSAL_FLOWS_VICTIM,
            self.flows_classified(FlowClass::PropagationVictim) as u64,
        );
        snap.push_counter(
            names::CAUSAL_FLOWS_DEADLOCK,
            self.flows_classified(FlowClass::DeadlockParticipant) as u64,
        );
        snap.push_counter(names::CAUSAL_BLAMED_STALL_PS, self.blamed_stall_ps());
    }

    /// One CSV row per episode:
    /// `episode,node,port,prio,hard,parent,root,depth,start_ps,end_ps`.
    pub fn episodes_csv(&self) -> String {
        let mut out =
            String::from("episode,node,port,prio,hard,parent,root,depth,start_ps,end_ps\n");
        for e in &self.episodes {
            let parent = e.parent.map(|p| p.to_string()).unwrap_or_default();
            let _ = writeln!(
                out,
                "{},{},{},{},{},{parent},{},{},{},{}",
                e.id,
                e.node,
                e.port,
                e.prio,
                e.hard,
                e.root,
                e.depth,
                e.start_ps,
                e.end_or(self.horizon_ps),
            );
        }
        out
    }

    /// One CSV row per stalled flow:
    /// `flow,class,stall_ps,blamed,root,root_label,depth`.
    pub fn blame_csv(&self) -> String {
        let mut out = String::from("flow,class,stall_ps,blamed,root,root_label,depth\n");
        for f in &self.flows {
            let blamed = f.blamed.map(|b| b.to_string()).unwrap_or_default();
            let (root, label) = match f.root {
                Some(r) => (r.to_string(), self.episodes[r as usize].label()),
                None => (String::new(), String::new()),
            };
            let _ = writeln!(
                out,
                "{},{},{},{blamed},{root},{label},{}",
                f.flow,
                f.class.as_str(),
                f.stall_ps,
                f.depth
            );
        }
        out
    }

    /// Human-readable tree + blame rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== causal attribution @ {:.3} ms: {} episode(s) in {} tree(s), \
             max hard depth {}, max depth {} ==",
            self.horizon_ps as f64 / 1e9,
            self.episodes.len(),
            self.trees.len(),
            self.max_hard_depth(),
            self.max_depth(),
        );
        for t in &self.trees {
            let hard = match t.max_hard_depth {
                Some(d) => format!("hard depth {d}"),
                None => "soft only".to_owned(),
            };
            let _ = writeln!(
                out,
                "tree @{} ({} episodes, depth {}, {hard}, fan-out {}, {} port(s), \
                 {:.3}..{:.3} ms, blamed {:.3} ms)",
                self.episodes[t.root as usize].label(),
                t.episodes,
                t.max_depth,
                t.max_fanout,
                t.ports,
                t.start_ps as f64 / 1e9,
                t.end_ps as f64 / 1e9,
                t.blamed_stall_ps as f64 / 1e9,
            );
            self.render_subtree(&mut out, t.root, 1);
        }
        for f in &self.flows {
            let root = match f.root {
                Some(r) => format!(" root {}", self.episodes[r as usize].label()),
                None => String::new(),
            };
            let _ = writeln!(
                out,
                "flow {}: {} stalled {:.3} ms depth {}{root}",
                f.flow,
                f.class.as_str(),
                f.stall_ps as f64 / 1e9,
                f.depth,
            );
        }
        out
    }

    fn render_subtree(&self, out: &mut String, id: u32, indent: usize) {
        let e = &self.episodes[id as usize];
        let _ = writeln!(
            out,
            "{:indent$}{} {} d={} {:.3}..{:.3} ms",
            "",
            if e.hard { "HARD" } else { "soft" },
            e.label(),
            e.depth,
            e.start_ps as f64 / 1e9,
            e.end_or(self.horizon_ps) as f64 / 1e9,
            indent = indent * 2,
        );
        for c in self.episodes.iter().filter(|c| c.parent == Some(id)) {
            self.render_subtree(out, c.id, indent + 1);
        }
    }

    /// Graphviz DOT of the propagation forest (hard episodes boxed red,
    /// soft episodes elliptical).
    pub fn to_dot(&self) -> String {
        let mut out = String::from("digraph causes {\n  rankdir=TB;\n");
        for e in &self.episodes {
            let (shape, extra) =
                if e.hard { ("box", ", color=red, penwidth=2") } else { ("ellipse", "") };
            let label = format!(
                "{} d={}\\n{:.3}..{:.3} ms",
                e.label(),
                e.depth,
                e.start_ps as f64 / 1e9,
                e.end_or(self.horizon_ps) as f64 / 1e9
            );
            let _ = write!(out, "  e{} [label=", e.id);
            push_json_str(&mut out, &label);
            let _ = writeln!(out, ", shape={shape}{extra}];");
        }
        for e in &self.episodes {
            if let Some(p) = e.parent {
                let _ = writeln!(out, "  e{p} -> e{};", e.id);
            }
        }
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GAP: u64 = 100;

    #[test]
    fn token_lifecycle_builds_one_episode() {
        let mut t = CausalTracker::new(GAP);
        let tok = t.on_ctrl_tx(10, 1, 0, 0, CtrlSense::AssertHard, None);
        assert!(tok.is_some());
        // Refresh keeps the same episode.
        assert_eq!(t.on_ctrl_tx(20, 1, 0, 0, CtrlSense::AssertHard, None), tok);
        assert_eq!(t.on_ctrl_tx(30, 1, 0, 0, CtrlSense::Clear, None), CauseToken::NONE);
        assert_eq!(t.episodes().len(), 1);
        let e = &t.episodes()[0];
        assert_eq!((e.start_ps, e.end_ps, e.depth, e.parent), (10, Some(30), 0, None));
        assert!(e.hard);
        // A fresh assert opens a new episode.
        let tok2 = t.on_ctrl_tx(40, 1, 0, 0, CtrlSense::AssertSoft, None);
        assert_ne!(tok2, tok);
        assert!(!t.episodes()[1].hard);
    }

    #[test]
    fn applied_token_parents_new_episodes() {
        let mut t = CausalTracker::new(GAP);
        // Root episode at downstream node 2, ingress port 0.
        let root = t.on_ctrl_tx(10, 2, 0, 0, CtrlSense::AssertHard, None);
        // Its message applies at upstream node 1's egress port 3.
        t.on_ctrl_apply(1, 3, 0, root);
        // Node 1's ingress 0 forwards through egress 3 and now asserts:
        // the new episode is the root's child.
        let child = t.on_ctrl_tx(50, 1, 0, 0, CtrlSense::AssertHard, Some(3));
        assert_ne!(child, root);
        let e = &t.episodes()[child.0 as usize];
        assert_eq!((e.parent, e.root, e.depth), (Some(root.0), root.0, 1));
        assert_eq!(t.episodes()[root.0 as usize].children, 1);
        // Clearing the applied token stops parenting.
        t.on_ctrl_apply(1, 3, 0, CauseToken::NONE);
        t.on_ctrl_tx(60, 1, 0, 0, CtrlSense::Clear, Some(3));
        let orphan = t.on_ctrl_tx(70, 1, 0, 0, CtrlSense::AssertHard, Some(3));
        assert_eq!(t.episodes()[orphan.0 as usize].parent, None);
    }

    #[test]
    fn hard_depth_ignores_soft_chains() {
        let mut t = CausalTracker::new(GAP);
        let root = t.on_ctrl_tx(10, 2, 0, 0, CtrlSense::AssertSoft, None);
        t.on_ctrl_apply(1, 3, 0, root);
        t.on_ctrl_tx(50, 1, 0, 0, CtrlSense::AssertSoft, Some(3));
        let r = t.report(1000, &[]);
        assert_eq!(r.max_depth(), 1);
        assert_eq!(r.max_hard_depth(), 0, "soft chains never count as hard depth");
        assert_eq!(r.trees.len(), 1);
        assert_eq!(r.trees[0].max_hard_depth, None);
        assert_eq!(r.depth_histogram(false), vec![1, 1]);
        assert_eq!(r.depth_histogram(true), Vec::<u64>::new());
    }

    /// A 2-hop chain rooted at node 3 plus flows exercising all four
    /// classifications.
    fn chained() -> CausalTracker {
        let mut t = CausalTracker::new(GAP);
        let root = t.on_ctrl_tx(100, 3, 0, 0, CtrlSense::AssertHard, None);
        t.on_ctrl_apply(2, 1, 0, root);
        let mid = t.on_ctrl_tx(200, 2, 0, 0, CtrlSense::AssertHard, Some(1));
        t.on_ctrl_apply(1, 1, 0, mid);
        t.on_ctrl_tx(300, 1, 0, 0, CtrlSense::AssertHard, Some(1));
        t
    }

    #[test]
    fn flows_classify_root_victim_deadlock_unattributed() {
        let mut t = chained();
        // Flow 1 passes the root's ingress: congestion root.
        t.on_flow_start(1, 0, vec![(3, 0), (2, 0)], 0);
        // Flow 2 passes only the depth-2 ingress: propagation victim.
        t.on_flow_start(2, 0, vec![(1, 0)], 0);
        // Flow 3 passes a port on the forensics cycle: participant.
        t.on_flow_start(3, 0, vec![(2, 0), (9, 9)], 0);
        // Flow 4 stalls far from every episode: unattributed.
        t.on_flow_start(4, 0, vec![(7, 7)], 0);
        let r = t.report(10_000, &[(9, 9)]);
        assert_eq!(r.flows.len(), 4);
        let class = |id: u64| r.flows.iter().find(|f| f.flow == id).unwrap();
        assert_eq!(class(1).class, FlowClass::CongestionRoot);
        assert_eq!(class(2).class, FlowClass::PropagationVictim);
        assert_eq!(class(2).depth, 2);
        assert_eq!(class(2).root, Some(0));
        assert_eq!(class(3).class, FlowClass::DeadlockParticipant);
        assert_eq!(class(4).class, FlowClass::Unattributed);
        assert!(class(4).blamed.is_none());
        assert_eq!(r.max_hard_depth(), 2);
        // Every attributed flow (including the cycle participant, whose
        // blamed episode lives in the same tree) charges the root.
        assert_eq!(
            r.trees[0].blamed_stall_ps,
            class(1).stall_ps + class(2).stall_ps + class(3).stall_ps
        );
    }

    #[test]
    fn progress_suppresses_stall_blame() {
        let mut t = chained();
        t.on_flow_start(1, 0, vec![(3, 0)], 0);
        // Steady progress inside the gap: never stalled.
        for i in 1..200u64 {
            t.on_flow_progress(1, i * (GAP - 1));
        }
        t.on_flow_finish(1, 200 * (GAP - 1));
        let r = t.report(1_000_000, &[]);
        assert!(r.flows.is_empty(), "a progressing flow must not be blamed: {:?}", r.flows);
    }

    #[test]
    fn report_exports_are_consistent() {
        let mut t = chained();
        t.on_flow_start(2, 0, vec![(1, 0)], 0);
        let r = t.report(10_000, &[]);
        let csv = r.episodes_csv();
        assert!(csv.starts_with("episode,node,port,prio,hard,parent,root,depth,start_ps,end_ps"));
        assert!(csv.contains("2,1,0,0,true,1,0,2,300,10000"), "csv: {csv}");
        let blame = r.blame_csv();
        assert!(blame.contains("2,propagation-victim,"), "blame: {blame}");
        assert!(blame.contains("n3:p0/0"), "blame: {blame}");
        let dot = r.to_dot();
        assert!(dot.starts_with("digraph causes {"));
        assert!(dot.contains("e0 -> e1;"));
        assert!(dot.contains("e1 -> e2;"));
        assert!(dot.contains("shape=box, color=red, penwidth=2"));
        let text = r.render();
        assert!(text.contains("max hard depth 2"));
        assert!(text.contains("HARD n3:p0/0 d=0"));
        let mut snap = Snapshot::default();
        r.push_summary(&mut snap);
        assert_eq!(snap.counter(names::CAUSAL_EPISODES), Some(3));
        assert_eq!(snap.counter(names::CAUSAL_DEPTH_MAX), Some(2));
        assert_eq!(snap.counter(names::CAUSAL_FLOWS_VICTIM), Some(1));
    }

    #[test]
    fn unfinished_flow_stalls_to_the_horizon() {
        let mut t = chained();
        t.on_flow_start(1, 0, vec![(2, 0)], 0);
        t.on_flow_progress(1, 50);
        let r = t.report(5_000, &[]);
        assert_eq!(r.flows.len(), 1);
        assert_eq!(r.flows[0].stall_ps, 4_950);
    }
}
