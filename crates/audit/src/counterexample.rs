//! Minimal counterexamples: from an abstract buffer cycle to something
//! an operator can look at and a simulator can *run*.
//!
//! A failed audit yields a cycle of `(switch, in-port, tag)` buffers.
//! This module renders it three ways: a human-readable hop list, a
//! Graphviz drawing with the cycle highlighted
//! ([`Topology::to_dot_highlighted`]), and — the part that closes the
//! loop — a set of concrete [`FlowSpec`]s whose pinned paths approach the
//! cycle from real hosts carrying exactly the right tags, ride its edges,
//! and exit, so that `tagger-sim` replays the deadlock the cycle
//! predicts instead of asking anyone to take the auditor's word for it.

use crate::depgraph::{DepGraph, DepNode};
use std::collections::{BTreeSet, VecDeque};
use std::fmt::Write as _;
use tagger_core::RuleSet;
use tagger_routing::Fib;
use tagger_sim::{FlowSpec, SimConfig, SimReport, Simulator};
use tagger_switch::WatchdogConfig;
use tagger_topo::{FailureSet, GlobalPort, NodeId, NodeKind, Topology};

/// Depth cap for the approach search; Clos approach paths are short and
/// anything longer would make a useless replay anyway.
const MAX_APPROACH_HOPS: usize = 12;

/// A concrete, replayable deadlock counterexample.
#[derive(Clone, Debug)]
pub struct Counterexample {
    /// The offending buffer cycle, canonically rotated.
    pub cycle: Vec<DepNode>,
    /// Flows that drive traffic around the cycle, labelled with their
    /// pinned paths. Best-effort: hops whose approach or exit could not
    /// be routed loop-free are skipped.
    pub flows: Vec<(String, FlowSpec)>,
}

impl Counterexample {
    /// Builds the counterexample for `cycle`, generating one flow per
    /// cycle hop. Each flow enters at its hop with the hop's exact tag
    /// (guaranteed by approaching through the dependency graph itself),
    /// rides all but one of the cycle's edges, and drains to a host off
    /// the cycle; start times are staggered across the first fifth of
    /// `end_ns` so congestion builds before the last flow arrives.
    pub fn from_cycle(
        topo: &Topology,
        graph: &DepGraph,
        cycle: Vec<DepNode>,
        end_ns: u64,
    ) -> Counterexample {
        let k = cycle.len();
        let mut flows = Vec::new();
        for i in 0..k {
            if let Some(flow) = flow_for_entry(topo, graph, &cycle, i, end_ns) {
                flows.push(flow);
            }
        }
        Counterexample { cycle, flows }
    }

    /// The physical links the cycle rides, as node pairs for
    /// [`Topology::to_dot_highlighted`].
    pub fn hot_links(&self) -> Vec<(NodeId, NodeId)> {
        let k = self.cycle.len();
        (0..k)
            .map(|i| (self.cycle[i].switch, self.cycle[(i + 1) % k].switch))
            .collect()
    }

    /// Graphviz rendering of the topology with the cycle in red.
    pub fn dot(&self, topo: &Topology) -> String {
        topo.to_dot_highlighted(&self.hot_links())
    }

    /// One-line hop list, e.g.
    /// `L1[in S1, tag 2] -> S2[in L1, tag 1] -> ... -> (back)`.
    pub fn describe(&self, topo: &Topology) -> String {
        let mut out = String::new();
        for (i, hop) in self.cycle.iter().enumerate() {
            if i > 0 {
                out.push_str(" -> ");
            }
            let _ = write!(out, "{}", hop.describe(topo));
        }
        out.push_str(" -> (back)");
        out
    }

    /// Replays the generated flows against `rules` — the suspect tables
    /// themselves, not a known-good tagging — under the testbed PFC
    /// regime ([`SimConfig::testbed`]) with the structural deadlock
    /// detector armed, and returns the report plus the flow labels.
    /// `report.deadlock` being `Some` is the demonstration that the
    /// cycle is live, not just structural.
    ///
    /// With `watchdog` set, the per-queue PFC watchdog is armed too:
    /// every stuck queue the detector confirms as cycle-resident trips
    /// within the window and is drained or demoted to lossy, after which
    /// the fabric recovers — the data-plane safety net. Feed that report
    /// to `tagger_scenario::quarantine_events` to close the loop into
    /// the controller.
    pub fn replay(
        &self,
        topo: &Topology,
        rules: &RuleSet,
        watchdog: Option<WatchdogConfig>,
        end_ns: u64,
    ) -> (SimReport, Vec<String>) {
        let fib = Fib::shortest_path(topo, &FailureSet::none());
        let num_lossless = rules.max_tag().map_or(1, |t| t.0 as u8).max(1);
        let cfg = SimConfig {
            watchdog,
            ..SimConfig::testbed(num_lossless, end_ns)
        };
        let mut sim = Simulator::new(topo.clone(), fib, Some(rules.clone()), cfg);
        let mut labels = Vec::new();
        for (label, spec) in &self.flows {
            sim.add_flow(spec.clone());
            labels.push(label.clone());
        }
        (sim.run(), labels)
    }
}

/// Generates the flow entering the cycle at hop `entry_idx`.
fn flow_for_entry(
    topo: &Topology,
    graph: &DepGraph,
    cycle: &[DepNode],
    entry_idx: usize,
    end_ns: u64,
) -> Option<(String, FlowSpec)> {
    let k = cycle.len();
    if k < 2 {
        return None;
    }
    // The flow rides hops entry..entry+k-2 (all cycle switches except the
    // entry's upstream), so the approach is free to arrive through that
    // upstream switch — physically it has no other way in.
    let ride: Vec<DepNode> = (0..k - 1).map(|j| cycle[(entry_idx + j) % k]).collect();
    let forbidden: BTreeSet<NodeId> = ride.iter().map(|n| n.switch).collect();
    let approach = approach_path(graph, ride[0], &forbidden)?;
    let src = host_behind(topo, approach[0])?;

    let mut path: Vec<NodeId> = vec![src];
    path.extend(approach.iter().map(|n| n.switch));
    path.extend(ride.iter().skip(1).map(|n| n.switch));
    let mut used: BTreeSet<NodeId> = path.iter().copied().collect();
    if used.len() != path.len() {
        return None; // physical revisit slipped through; give up on this hop
    }
    let exit = exit_path(topo, *path.last().expect("non-empty"), &used)?;
    for &n in &exit {
        used.insert(n);
    }
    path.extend(exit.iter().copied());
    let dst = *path.last().expect("exit ends at a host");

    let start = entry_idx as u64 * end_ns / (5 * k as u64);
    let label = format!(
        "cx{entry_idx}: {}",
        path.iter()
            .map(|&n| topo.node(n).name.as_str())
            .collect::<Vec<_>>()
            .join(">")
    );
    Some((label, FlowSpec::new(src, dst, start).pinned(path)))
}

/// Searches the dependency graph for a physically loop-free walk from a
/// host seed to `target`, never touching `forbidden` switches (the
/// cycle portion the flow will ride) before arrival. Walking the
/// dependency graph rather than the topology is what guarantees the flow
/// carries `target.tag` when it gets there.
fn approach_path(
    graph: &DepGraph,
    target: DepNode,
    forbidden: &BTreeSet<NodeId>,
) -> Option<Vec<DepNode>> {
    let mut stack: Vec<DepNode> = Vec::new();
    let mut used: BTreeSet<NodeId> = BTreeSet::new();
    for seed in graph.seeds() {
        if seed != target && forbidden.contains(&seed.switch) {
            continue;
        }
        if dfs(graph, seed, target, forbidden, &mut stack, &mut used) {
            return Some(stack);
        }
    }
    None
}

fn dfs(
    graph: &DepGraph,
    node: DepNode,
    target: DepNode,
    forbidden: &BTreeSet<NodeId>,
    stack: &mut Vec<DepNode>,
    used: &mut BTreeSet<NodeId>,
) -> bool {
    stack.push(node);
    used.insert(node.switch);
    if node == target {
        return true;
    }
    if stack.len() < MAX_APPROACH_HOPS {
        for next in graph.successors(node) {
            if used.contains(&next.switch) {
                continue;
            }
            if next != target && forbidden.contains(&next.switch) {
                continue;
            }
            if dfs(graph, next, target, forbidden, stack, used) {
                return true;
            }
        }
    }
    stack.pop();
    used.remove(&node.switch);
    false
}

/// The host attached on the far side of a seed buffer's ingress port.
fn host_behind(topo: &Topology, seed: DepNode) -> Option<NodeId> {
    let peer = topo.peer_of(GlobalPort::new(seed.switch, seed.in_port))?;
    (topo.node(peer.node).kind == NodeKind::Host).then_some(peer.node)
}

/// Shortest topology walk from `from` to any host avoiding `used`
/// nodes; returns the walk *excluding* `from`.
fn exit_path(topo: &Topology, from: NodeId, used: &BTreeSet<NodeId>) -> Option<Vec<NodeId>> {
    let mut parent: std::collections::BTreeMap<NodeId, NodeId> = std::collections::BTreeMap::new();
    let mut queue = VecDeque::from([from]);
    while let Some(node) = queue.pop_front() {
        for (_, _, next) in topo.neighbors(node) {
            if used.contains(&next) || parent.contains_key(&next) || next == from {
                continue;
            }
            parent.insert(next, node);
            if topo.node(next).kind == NodeKind::Host {
                let mut path = vec![next];
                let mut cur = node;
                while cur != from {
                    path.push(cur);
                    cur = parent[&cur];
                }
                path.reverse();
                return Some(path);
            }
            queue.push_back(next);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;
    use tagger_core::clos::clos_tagging;
    use tagger_core::Tag;
    use tagger_topo::{ClosConfig, FailureSet};

    fn corrupted_small_3spine() -> (Topology, RuleSet) {
        let topo = ClosConfig {
            pods: 2,
            leaves_per_pod: 2,
            tors_per_pod: 2,
            spines: 3,
            hosts_per_tor: 2,
        }
        .build();
        let tagging = clos_tagging(&topo, 2).unwrap();
        let mut rules = tagging.rules().clone();
        let l1 = topo.expect_node("L1");
        let in_s1 = topo.port_towards(l1, topo.expect_node("S1")).unwrap();
        let out_s2 = topo.port_towards(l1, topo.expect_node("S2")).unwrap();
        rules.set(
            l1,
            tagger_core::SwitchRule {
                tag: Tag(2),
                in_port: in_s1,
                out_port: out_s2,
                new_tag: Tag(1),
            },
        );
        (topo, rules)
    }

    #[test]
    fn flows_enter_every_hop_and_replay_deadlocks() {
        let (topo, rules) = corrupted_small_3spine();
        let g = DepGraph::build(&topo, &rules, &FailureSet::none());
        let kahn = g.kahn();
        assert!(!kahn.is_acyclic());
        let cycle = g.minimal_cycle(&kahn.residual).unwrap();
        let end_ns = 2_000_000;
        let cx = Counterexample::from_cycle(&topo, &g, cycle.clone(), end_ns);
        assert_eq!(
            cx.flows.len(),
            cycle.len(),
            "every hop got a loop-free approach: {:?}",
            cx.describe(&topo)
        );
        let (report, _labels) = cx.replay(&topo, &rules, None, end_ns);
        assert!(
            report.deadlock.is_some(),
            "replay must demonstrate the deadlock"
        );
        // The highlighted drawing marks exactly the cycle's switches.
        let dot = cx.dot(&topo);
        assert_eq!(dot.matches("penwidth").count(), cycle.len());
    }

    #[test]
    fn healthy_tables_have_no_cycle_to_exploit() {
        let topo = ClosConfig::small().build();
        let tagging = clos_tagging(&topo, 2).unwrap();
        let g = DepGraph::build(&topo, tagging.rules(), &FailureSet::none());
        assert!(g.kahn().is_acyclic());
    }
}
