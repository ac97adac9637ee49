//! Table 5 runner: Tagger scalability on Jellyfish fabrics.
//!
//! For each row, build a Jellyfish topology with half the ports wired to
//! servers (as in the paper), enumerate the shortest-path ELP, run
//! Algorithms 1+2 with rule compilation, compress to TCAM entries, and
//! report the number of lossless priorities and the largest per-switch
//! table — the two scarce hardware resources (paper §3.3, §8.2).

use tagger_core::tcam::{Compression, TcamProgram};
use tagger_core::{Elp, Tagging};
use tagger_routing::{shortest_paths_all_pairs, Path, PathsTo};
use tagger_topo::{FailureSet, JellyfishConfig, Topology};

/// One row of the Table 5 reproduction.
#[derive(Clone, Debug)]
pub struct Table5Row {
    /// Switch count.
    pub switches: usize,
    /// Ports per switch.
    pub ports: usize,
    /// Paths in the ELP.
    pub elp_paths: usize,
    /// Longest lossless route (hops).
    pub longest_lossless: usize,
    /// Lossless priorities required.
    pub priorities: usize,
    /// Largest per-switch exact-match rule table.
    pub max_rules: usize,
    /// Largest per-switch TCAM table after joint compression.
    pub max_tcam: usize,
    /// Whether the pipeline's repair pass added rules / fell back.
    pub repairs: usize,
    /// Whether the brute-force fallback was needed (never, in practice).
    pub fallback: bool,
}

/// Runs one Table 5 row: `switches` switches with `ports` ports each,
/// shortest-path ELP capped at `paths_per_pair` per ordered switch pair,
/// plus `extra_random_paths` additional random paths (the paper's last
/// row adds 1000).
pub fn run_row(
    switches: usize,
    ports: usize,
    paths_per_pair: usize,
    extra_random_paths: usize,
    seed: u64,
) -> Table5Row {
    let topo = JellyfishConfig::half_servers(switches, ports, seed).build();
    let mut paths = shortest_paths_all_pairs(&topo, &FailureSet::none(), paths_per_pair, false);
    if extra_random_paths > 0 {
        paths.extend(random_paths(&topo, extra_random_paths, seed ^ 0x5eed));
    }
    let elp = Elp::from_paths(paths);
    run_elp_row(&topo, elp, switches, ports)
}

/// Runs the algorithms over a prebuilt ELP and packages the row.
pub fn run_elp_row(topo: &Topology, elp: Elp, switches: usize, ports: usize) -> Table5Row {
    let longest = elp.max_hops();
    let n_paths = elp.len();
    let tagging = Tagging::from_elp(topo, &elp).expect("tagging pipeline");
    let tcam = TcamProgram::compile(topo, tagging.rules(), Compression::Joint);
    Table5Row {
        switches,
        ports,
        elp_paths: n_paths,
        longest_lossless: longest,
        priorities: tagging.num_lossless_tags_on(topo),
        max_rules: tagging.rules().max_rules_per_switch(),
        max_tcam: tcam.max_entries_per_switch(),
        repairs: tagging.repairs(),
        fallback: tagging.used_fallback(),
    }
}

/// Deterministic "operator-chosen redundant paths": random loop-free
/// switch-to-switch walks, the Table 5 footnote's "additional 1000 random
/// paths".
pub fn random_paths(topo: &Topology, count: usize, seed: u64) -> Vec<Path> {
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let switches: Vec<_> = topo.switch_ids().collect();
    let mut out = Vec::with_capacity(count);
    let mut guard = 0usize;
    while out.len() < count && guard < count * 100 {
        guard += 1;
        let start = switches[rng.random_range(0..switches.len())];
        let mut nodes = vec![start];
        let len = rng.random_range(2..6usize);
        'walk: for _ in 0..len {
            let here = *nodes.last().expect("walk starts non-empty");
            let candidates: Vec<_> = topo
                .neighbors(here)
                .map(|(_, _, n)| n)
                .filter(|n| topo.node(*n).kind == tagger_topo::NodeKind::Switch)
                .filter(|n| !nodes.contains(n))
                .collect();
            if candidates.is_empty() {
                break 'walk;
            }
            nodes.push(candidates[rng.random_range(0..candidates.len())]);
        }
        if nodes.len() >= 2 {
            if let Ok(p) = Path::new(topo, nodes) {
                out.push(p);
            }
        }
    }
    out
}

/// A bounce-ELP row over a Clos fabric, for the `clos_optimality` binary:
/// returns (k, priorities used by the optimal construction, priorities
/// used by the generic greedy pipeline).
///
/// The sampled ELP takes up to `cap_per_pair` paths per host pair *per
/// exact bounce count* `0..=k`, so every bounce class is represented —
/// otherwise a small cap could silently degrade the ELP to fewer bounces
/// and make the greedy column incomparable to the `k+1` lower bound.
pub fn clos_bounce_row(topo: &Topology, k: usize, cap_per_pair: usize) -> (usize, usize, usize) {
    let optimal = tagger_core::clos::clos_tagging(topo, k).expect("clos fabric");
    let paths = {
        let healthy = FailureSet::none();
        let hosts: Vec<_> = topo.host_ids().collect();
        let targets: Vec<_> = hosts
            .iter()
            .map(|&d| PathsTo::new(topo, &healthy, d))
            .collect();
        let mut v = Vec::new();
        for &s in &hosts {
            for to in &targets {
                for j in 0..=k {
                    let all = to.enumerate(s, j, usize::MAX);
                    v.extend(
                        all.into_iter()
                            .filter(|p| p.bounces(topo) == j)
                            .take(cap_per_pair),
                    );
                }
            }
        }
        v
    };
    let elp = Elp::from_paths(paths);
    let generic = Tagging::from_elp(topo, &elp).expect("pipeline");
    (
        k,
        optimal.num_lossless_tags_on(topo),
        generic.num_lossless_tags_on(topo),
    )
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;

    #[test]
    fn small_jellyfish_row_is_cheap() {
        let row = run_row(10, 6, 1, 0, 42);
        assert_eq!(row.switches, 10);
        assert!(row.priorities <= 3, "priorities {}", row.priorities);
        assert!(!row.fallback);
        assert!(row.max_tcam <= row.max_rules);
        assert!(row.longest_lossless >= 1);
    }

    #[test]
    fn random_paths_are_valid_and_deterministic() {
        let topo = JellyfishConfig::half_servers(15, 6, 9).build();
        let a = random_paths(&topo, 50, 1);
        let b = random_paths(&topo, 50, 1);
        assert_eq!(a, b);
        assert_eq!(a.len(), 50);
    }

    #[test]
    fn clos_row_matches_k_plus_one() {
        let topo = tagger_topo::ClosConfig::small().build();
        let (_, optimal, generic) = clos_bounce_row(&topo, 1, 4);
        assert_eq!(optimal, 2);
        assert!(generic >= optimal && generic <= 3);
    }
}
