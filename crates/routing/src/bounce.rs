//! k-bounce path enumeration: the ELP expansion of paper §4.3.
//!
//! A *bounce* is a down→up turn in the layer hierarchy — the signature of
//! a packet rerouted around a failed downlink. The operator who wants
//! traffic to survive up to `k` such reroutes losslessly includes all
//! `≤ k`-bounce paths in the ELP; Tagger then needs `k + 1` lossless
//! priorities on Clos (paper §4.4).
//!
//! The enumerator is a DFS in port order that cuts every branch which
//! cannot reach the destination (see [`PathsTo`]). The cuts only remove
//! subtrees that hold no path, so the output and its order are those of
//! the plain DFS.

use std::collections::VecDeque;

use crate::Path;
use tagger_topo::{FailureSet, NodeId, NodeKind, Topology};

/// The direction of the hop a path last took into a node.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Phase {
    Up = 0,
    Down = 1,
}

/// `need` entry of a (node, phase) state from which the destination
/// cannot be reached at all.
const UNREACHABLE: u32 = u32::MAX;

/// The prune tables for enumerating k-bounce paths into one destination.
///
/// They depend only on the fabric, the failures and the destination, so a
/// caller that enumerates many sources towards one destination builds
/// them once. Two cuts use them:
///
/// 1. **Bounce budget.** `need[n][phase]` is the fewest bounces any
///    continuation from node `n`, entered in `phase`, needs to reach the
///    destination (a backward 0-1 BFS over (node, phase) states that
///    ignores which nodes the path has visited, so it is a lower bound).
///    A hop whose bounces plus `need` exceed the budget is skipped.
/// 2. **Last hop.** A path's last hop leaves a live switch neighbour of
///    the destination. Once every such neighbour is on the DFS stack, a
///    node that is not one of them cannot finish a path.
pub struct PathsTo<'a> {
    topo: &'a Topology,
    failures: &'a FailureSet,
    dst: NodeId,
    need: Vec<[u32; 2]>,
    last_hop: Vec<bool>,
}

impl<'a> PathsTo<'a> {
    /// Builds the prune tables for paths into `dst` under `failures`.
    pub fn new(topo: &'a Topology, failures: &'a FailureSet, dst: NodeId) -> Self {
        let mut last_hop = vec![false; topo.num_nodes()];
        for (_, _, n) in failures.live_neighbors(topo, dst) {
            last_hop[n.index()] = topo.node(n).kind == NodeKind::Switch;
        }
        PathsTo {
            topo,
            failures,
            dst,
            need: min_bounces_to(topo, failures, dst),
            last_hop,
        }
    }

    /// All loop-free paths from `src` to the destination with at most
    /// `max_bounces` down→up turns, in DFS (port) order, stopping after
    /// `cap` paths.
    pub fn enumerate(&self, src: NodeId, max_bounces: usize, cap: usize) -> Vec<Path> {
        if src == self.dst || cap == 0 {
            return Vec::new();
        }
        let mut search = Search {
            to: self,
            max_bounces,
            cap,
            stack: Vec::new(),
            visited: vec![false; self.topo.num_nodes()],
            last_hops_open: self.last_hop.iter().filter(|&&l| l).count(),
            out: Vec::new(),
        };
        search.enter(src);
        search.dfs(Phase::Up, 0);
        search.out
    }
}

/// Backward 0-1 BFS from `dst` over (node, phase) states: the fewest
/// bounces still needed from each state, following the DFS's own hop
/// rules (no lateral hops; only switches forward).
fn min_bounces_to(topo: &Topology, failures: &FailureSet, dst: NodeId) -> Vec<[u32; 2]> {
    let mut need = vec![[UNREACHABLE; 2]; topo.num_nodes()];
    need[dst.index()] = [0, 0];
    let mut queue = VecDeque::from([(dst, Phase::Up), (dst, Phase::Down)]);
    while let Some((v, entered)) = queue.pop_front() {
        // A path passes through a node only if it is a switch; other
        // nodes keep their entry as a source but extend nothing.
        if v != dst && topo.node(v).kind != NodeKind::Switch {
            continue;
        }
        let rest = need[v.index()][entered as usize];
        for (_, _, u) in failures.live_neighbors(topo, v) {
            let hop_fits = match entered {
                Phase::Up => topo.is_up_hop(u, v),
                Phase::Down => topo.is_down_hop(u, v),
            };
            if !hop_fits {
                continue;
            }
            for from in [Phase::Up, Phase::Down] {
                let turn = u32::from(from == Phase::Down && entered == Phase::Up);
                if rest + turn < need[u.index()][from as usize] {
                    need[u.index()][from as usize] = rest + turn;
                    if turn == 0 {
                        queue.push_front((u, from));
                    } else {
                        queue.push_back((u, from));
                    }
                }
            }
        }
    }
    need
}

/// The mutable state of one source's DFS.
struct Search<'p, 'a> {
    to: &'p PathsTo<'a>,
    max_bounces: usize,
    cap: usize,
    stack: Vec<NodeId>,
    visited: Vec<bool>,
    /// Last-hop nodes not on the stack.
    last_hops_open: usize,
    out: Vec<Path>,
}

impl Search<'_, '_> {
    fn enter(&mut self, n: NodeId) {
        self.visited[n.index()] = true;
        self.last_hops_open -= usize::from(self.to.last_hop[n.index()]);
        self.stack.push(n);
    }

    fn leave(&mut self, n: NodeId) {
        self.stack.pop();
        self.last_hops_open += usize::from(self.to.last_hop[n.index()]);
        self.visited[n.index()] = false;
    }

    fn dfs(&mut self, phase: Phase, bounces: usize) {
        let PathsTo {
            topo,
            failures,
            dst,
            ..
        } = *self.to;
        let here = *self.stack.last().expect("DFS stack starts with the source");
        for (_, _, next) in failures.live_neighbors(topo, here) {
            if self.out.len() >= self.cap {
                return;
            }
            if self.visited[next.index()] {
                continue;
            }
            // Classify the hop; lateral hops are not part of up-down routing.
            let (next_phase, next_bounces) = if topo.is_up_hop(here, next) {
                (Phase::Up, bounces + usize::from(phase == Phase::Down))
            } else if topo.is_down_hop(here, next) {
                (Phase::Down, bounces)
            } else {
                continue;
            };
            if next_bounces > self.max_bounces {
                continue;
            }
            if next == dst {
                self.stack.push(next);
                self.out.push(
                    Path::new(topo, self.stack.clone()).expect("DFS builds valid loop-free paths"),
                );
                self.stack.pop();
                continue;
            }
            // Only switches forward traffic.
            if topo.node(next).kind != NodeKind::Switch {
                continue;
            }
            let need = self.to.need[next.index()][next_phase as usize];
            if need == UNREACHABLE || next_bounces + need as usize > self.max_bounces {
                continue;
            }
            self.enter(next);
            if self.to.last_hop[next.index()] || self.last_hops_open > 0 {
                self.dfs(next_phase, next_bounces);
            }
            self.leave(next);
        }
    }
}

/// Enumerates all loop-free paths from `src` to `dst` with at most
/// `max_bounces` down→up turns. `max_bounces = 0` yields exactly the
/// up-down (valley-free) paths.
///
/// Lateral hops (between equal-rank or unranked nodes) are excluded:
/// bounce semantics are only defined on layered fabrics. Intermediate
/// nodes must be switches. Results come in deterministic DFS order.
pub fn bounce_paths_between(
    topo: &Topology,
    failures: &FailureSet,
    src: NodeId,
    dst: NodeId,
    max_bounces: usize,
) -> Vec<Path> {
    bounce_paths_between_capped(topo, failures, src, dst, max_bounces, usize::MAX)
}

/// Like [`bounce_paths_between`] but stops after `cap` paths — useful on
/// larger fabrics where the k-bounce path count explodes combinatorially.
/// Builds `dst`'s prune tables for this one call; to enumerate many
/// sources towards one destination, build a [`PathsTo`] once.
pub fn bounce_paths_between_capped(
    topo: &Topology,
    failures: &FailureSet,
    src: NodeId,
    dst: NodeId,
    max_bounces: usize,
    cap: usize,
) -> Vec<Path> {
    PathsTo::new(topo, failures, dst).enumerate(src, max_bounces, cap)
}

/// Enumerates `≤ max_bounces`-bounce paths between every ordered pair of
/// distinct hosts, capping at `cap_per_pair` paths per pair
/// (`usize::MAX` for no cap).
pub fn all_paths_with_bounces(
    topo: &Topology,
    failures: &FailureSet,
    max_bounces: usize,
    cap_per_pair: usize,
) -> Vec<Path> {
    let hosts: Vec<NodeId> = topo.host_ids().collect();
    all_pairs(topo, failures, &hosts, max_bounces, cap_per_pair)
}

/// Paths between every ordered pair of distinct `endpoints`, source-major,
/// building each destination's prune tables once.
pub(crate) fn all_pairs(
    topo: &Topology,
    failures: &FailureSet,
    endpoints: &[NodeId],
    max_bounces: usize,
    cap_per_pair: usize,
) -> Vec<Path> {
    let targets: Vec<PathsTo> = endpoints
        .iter()
        .map(|&d| PathsTo::new(topo, failures, d))
        .collect();
    let mut out = Vec::new();
    for &s in endpoints {
        for to in &targets {
            out.extend(to.enumerate(s, max_bounces, cap_per_pair));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;
    use tagger_topo::ClosConfig;

    #[test]
    fn zero_bounce_equals_updown() {
        let t = ClosConfig::small().build();
        let f = FailureSet::none();
        let h1 = t.expect_node("H1");
        let h9 = t.expect_node("H9");
        for p in bounce_paths_between(&t, &f, h1, h9, 0) {
            assert_eq!(p.bounces(&t), 0);
        }
    }

    #[test]
    fn one_bounce_superset_of_updown() {
        let t = ClosConfig::small().build();
        let f = FailureSet::none();
        let h1 = t.expect_node("H1");
        let h9 = t.expect_node("H9");
        let zero = bounce_paths_between(&t, &f, h1, h9, 0);
        let one = bounce_paths_between(&t, &f, h1, h9, 1);
        assert!(one.len() > zero.len());
        for p in &zero {
            assert!(one.contains(p), "up-down path missing from 1-bounce set");
        }
        for p in &one {
            assert!(p.bounces(&t) <= 1, "{}", p.display(&t));
        }
        assert!(one.iter().any(|p| p.bounces(&t) == 1));
    }

    #[test]
    fn bounce_budget_is_respected() {
        let t = ClosConfig::small().build();
        let f = FailureSet::none();
        let h1 = t.expect_node("H1");
        let h13 = t.expect_node("H13");
        for k in 0..3 {
            for p in bounce_paths_between(&t, &f, h1, h13, k) {
                assert!(p.bounces(&t) <= k);
            }
        }
    }

    #[test]
    fn cap_truncates_deterministically() {
        let t = ClosConfig::small().build();
        let f = FailureSet::none();
        let h1 = t.expect_node("H1");
        let h9 = t.expect_node("H9");
        let full = bounce_paths_between(&t, &f, h1, h9, 1);
        let capped = bounce_paths_between_capped(&t, &f, h1, h9, 1, 3);
        assert_eq!(capped.len(), 3);
        assert_eq!(&full[..3], &capped[..]);
    }

    #[test]
    fn reroute_after_failure_needs_a_bounce() {
        // Fig 3: with L1-T1 down, traffic arriving at L1 for T1 must bounce.
        let t = ClosConfig::small().build();
        let mut f = FailureSet::none();
        f.fail_between(&t, "L1", "T1");
        let h9 = t.expect_node("H9");
        let h1 = t.expect_node("H1");
        // Up-down paths still exist (via L2), but any path through L1 then
        // to T1 must bounce.
        let one = bounce_paths_between(&t, &f, h9, h1, 1);
        let l1 = t.expect_node("L1");
        let via_l1: Vec<_> = one.iter().filter(|p| p.nodes().contains(&l1)).collect();
        assert!(!via_l1.is_empty());
        for p in via_l1 {
            assert_eq!(p.bounces(&t), 1, "{}", p.display(&t));
        }
    }

    #[test]
    fn same_src_dst_yields_nothing() {
        let t = ClosConfig::small().build();
        let f = FailureSet::none();
        let h1 = t.expect_node("H1");
        assert!(bounce_paths_between(&t, &f, h1, h1, 3).is_empty());
        assert!(PathsTo::new(&t, &f, h1).enumerate(h1, 3, 4).is_empty());
    }

    /// The plan-wide fabric: 2 pods of 4 leaves and 4 ToRs, 4 spines.
    fn wide() -> Topology {
        ClosConfig {
            pods: 2,
            leaves_per_pod: 4,
            tors_per_pod: 4,
            spines: 4,
            hosts_per_tor: 4,
        }
        .build()
    }

    #[test]
    fn same_tor_pair_has_exactly_one_path() {
        let t = wide();
        let f = FailureSet::none();
        let h1 = t.expect_node("H1");
        let h2 = t.expect_node("H2");
        for k in 0..3 {
            let paths = bounce_paths_between(&t, &f, h1, h2, k);
            assert_eq!(paths.len(), 1, "k={k}");
            assert_eq!(paths[0].display(&t).to_string(), "H1 -> T1 -> H2");
        }
    }

    #[test]
    fn destination_with_failed_host_link_gets_nothing() {
        let t = wide();
        let mut f = FailureSet::none();
        f.fail_between(&t, "T5", "H17");
        let h17 = t.expect_node("H17");
        let to = PathsTo::new(&t, &f, h17);
        for src in t.host_ids() {
            assert!(to.enumerate(src, 2, usize::MAX).is_empty());
        }
        // The rest of the fabric is untouched.
        let h18 = t.expect_node("H18");
        assert!(!bounce_paths_between(&t, &f, t.expect_node("H1"), h18, 1).is_empty());
    }

    #[test]
    fn shared_tables_match_per_pair_calls() {
        let t = ClosConfig::small().build();
        let mut f = FailureSet::none();
        f.fail_between(&t, "L1", "T1");
        let hosts: Vec<NodeId> = t.host_ids().collect();
        let mut per_pair = Vec::new();
        for &s in &hosts {
            for &d in &hosts {
                per_pair.extend(bounce_paths_between_capped(&t, &f, s, d, 1, 4));
            }
        }
        assert_eq!(all_paths_with_bounces(&t, &f, 1, 4), per_pair);
    }

    #[test]
    fn all_pairs_capped_counts() {
        let t = ClosConfig::small().build();
        let f = FailureSet::none();
        let all = all_paths_with_bounces(&t, &f, 0, 2);
        // 16 hosts, 240 ordered pairs, each capped at 2 paths.
        assert!(all.len() <= 240 * 2);
        assert!(!all.is_empty());
    }
}
