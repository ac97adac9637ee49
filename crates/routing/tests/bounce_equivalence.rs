//! Equivalence gate for the pruned k-bounce enumerator.
//!
//! `reference` below is the unpruned DFS the enumerator replaced, kept
//! here (and only here) as the oracle. The pruned enumerator must return
//! the same `Vec<Path>`, in the same order, for every source, destination,
//! bounce budget, cap and failure set, so the ELP, and everything tagged,
//! compiled and audited from it, stays byte-identical.

use proptest::prelude::*;
use tagger_routing::{all_paths_with_bounces, bounce_paths_between_capped, Path};
use tagger_topo::{fat_tree, ClosConfig, FailureSet, LinkId, NodeId, NodeKind, Topology};

#[derive(Clone, Copy, PartialEq, Eq)]
enum Phase {
    Up,
    Down,
}

/// The unpruned DFS: every loop-free `≤ max_bounces`-bounce path from
/// `src` to `dst` in port order, stopping after `cap` paths.
fn reference(
    topo: &Topology,
    failures: &FailureSet,
    src: NodeId,
    dst: NodeId,
    max_bounces: usize,
    cap: usize,
) -> Vec<Path> {
    let mut out = Vec::new();
    if src == dst || cap == 0 {
        return out;
    }
    let mut visited = vec![false; topo.num_nodes()];
    visited[src.index()] = true;
    let mut stack = vec![src];
    reference_dfs(
        topo,
        failures,
        dst,
        (max_bounces, cap),
        Phase::Up,
        0,
        &mut stack,
        &mut visited,
        &mut out,
    );
    out
}

#[allow(clippy::too_many_arguments)]
fn reference_dfs(
    topo: &Topology,
    failures: &FailureSet,
    dst: NodeId,
    (max_bounces, cap): (usize, usize),
    phase: Phase,
    bounces: usize,
    stack: &mut Vec<NodeId>,
    visited: &mut [bool],
    out: &mut Vec<Path>,
) {
    if out.len() >= cap {
        return;
    }
    let here = *stack.last().expect("DFS stack starts with the source");
    for (_, _, next) in failures.live_neighbors(topo, here) {
        if out.len() >= cap {
            return;
        }
        if visited[next.index()] {
            continue;
        }
        let (next_phase, next_bounces) = if topo.is_up_hop(here, next) {
            match phase {
                Phase::Up => (Phase::Up, bounces),
                Phase::Down => {
                    if bounces + 1 > max_bounces {
                        continue;
                    }
                    (Phase::Up, bounces + 1)
                }
            }
        } else if topo.is_down_hop(here, next) {
            (Phase::Down, bounces)
        } else {
            continue;
        };
        if next == dst {
            stack.push(next);
            out.push(Path::new(topo, stack.clone()).expect("DFS builds valid loop-free paths"));
            stack.pop();
            continue;
        }
        if topo.node(next).kind != NodeKind::Switch {
            continue;
        }
        visited[next.index()] = true;
        stack.push(next);
        reference_dfs(
            topo,
            failures,
            dst,
            (max_bounces, cap),
            next_phase,
            next_bounces,
            stack,
            visited,
            out,
        );
        stack.pop();
        visited[next.index()] = false;
    }
}

const CAPS: [usize; 3] = [1, 4, usize::MAX];

/// 0: the paper's small Clos; 1: the 2x4x4x4 Clos; 2: FatTree(4).
fn fabric(which: usize) -> Topology {
    match which {
        0 => ClosConfig::small().build(),
        1 => ClosConfig {
            pods: 2,
            leaves_per_pod: 4,
            tors_per_pod: 4,
            spines: 4,
            hosts_per_tor: 4,
        }
        .build(),
        _ => fat_tree(4),
    }
}

/// Fails the links picked (modulo the link count), plus one host link
/// when `host_pick` is set.
fn failure_set(topo: &Topology, picks: &[usize], host_pick: Option<usize>) -> FailureSet {
    let links: Vec<LinkId> = topo.link_ids().collect();
    let mut f = FailureSet::none();
    for &p in picks {
        f.fail(links[p % links.len()]);
    }
    if let Some(p) = host_pick {
        let host_links: Vec<LinkId> = topo
            .host_ids()
            .flat_map(|h| topo.neighbors(h).map(|(_, l, _)| l))
            .collect();
        f.fail(host_links[p % host_links.len()]);
    }
    f
}

fn reference_all_pairs(topo: &Topology, f: &FailureSet, k: usize, cap: usize) -> Vec<Path> {
    let hosts: Vec<NodeId> = topo.host_ids().collect();
    let mut out = Vec::new();
    for &s in &hosts {
        for &d in &hosts {
            out.extend(reference(topo, f, s, d, k, cap));
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Per pair, on all three fabrics: same paths, same order.
    #[test]
    fn pairs_match_the_unpruned_dfs(
        which in 0usize..3,
        picks in proptest::collection::vec(0usize..4096, 0..5),
        host in (any::<bool>(), 0usize..4096),
        k in 0usize..3,
        cap in 0usize..3,
        pairs in proptest::collection::vec((0usize..4096, 0usize..4096), 1..6),
    ) {
        let topo = fabric(which);
        let f = failure_set(&topo, &picks, host.0.then_some(host.1));
        let hosts: Vec<NodeId> = topo.host_ids().collect();
        let cap = CAPS[cap];
        // Uncapped 2-bounce sets on the 2x4x4x4 Clos run to ~500k paths
        // per pair; cover that fabric's k = 2 through the caps instead.
        let k = if which == 1 && cap == usize::MAX { k.min(1) } else { k };
        for (a, b) in pairs {
            let (s, d) = (hosts[a % hosts.len()], hosts[b % hosts.len()]);
            prop_assert_eq!(
                bounce_paths_between_capped(&topo, &f, s, d, k, cap),
                reference(&topo, &f, s, d, k, cap)
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The whole ELP, built with one set of prune tables per destination,
    /// on the small Clos and FatTree(4).
    #[test]
    fn all_pairs_match_the_unpruned_dfs(
        fat in any::<bool>(),
        picks in proptest::collection::vec(0usize..4096, 0..5),
        host in (any::<bool>(), 0usize..4096),
        k in 0usize..3,
        cap in 0usize..3,
    ) {
        let topo = fabric(if fat { 2 } else { 0 });
        let f = failure_set(&topo, &picks, host.0.then_some(host.1));
        let cap = CAPS[cap];
        prop_assert_eq!(
            all_paths_with_bounces(&topo, &f, k, cap),
            reference_all_pairs(&topo, &f, k, cap)
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Sampled pairs on `ClosConfig::medium` with a cap: the fabric whose
    /// uncapped ELP is out of reach.
    #[test]
    fn medium_sampled_pairs_match_the_unpruned_dfs(
        picks in proptest::collection::vec(0usize..4096, 0..5),
        host in (any::<bool>(), 0usize..4096),
        k in 0usize..3,
        pairs in proptest::collection::vec((0usize..4096, 0usize..4096), 1..4),
    ) {
        let topo = ClosConfig::medium().build();
        let f = failure_set(&topo, &picks, host.0.then_some(host.1));
        let hosts: Vec<NodeId> = topo.host_ids().collect();
        for (a, b) in pairs {
            let (s, d) = (hosts[a % hosts.len()], hosts[b % hosts.len()]);
            prop_assert_eq!(
                bounce_paths_between_capped(&topo, &f, s, d, k, 4),
                reference(&topo, &f, s, d, k, 4)
            );
        }
    }
}
