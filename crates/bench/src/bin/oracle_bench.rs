//! **existence-oracle cost** — decision-procedure vs construction-pipeline
//! timing, emitting `BENCH_oracle.json`.
//!
//! Two questions the oracle must answer cheaply to be worth consulting
//! before every plan:
//!
//! 1. *Feasible fabrics*: across growing Clos (1-bounce up/down ELP)
//!    and Jellyfish (shortest-path ELP) instances, how does
//!    [`tagger_core::decide`] compare against actually running the
//!    Algorithm 1+2 pipeline (`minimize_elp` + `verify`)? The oracle's
//!    certified tag count must never exceed the construction's. Each
//!    row also times building the ELP itself (`elp_ms`), the stage
//!    that precedes both, so no stage of the pipeline goes untimed.
//! 2. *Infeasible kernels*: on flat counter-rotating rings (infeasible
//!    at one tag by Theorem 5.1), how much does the greedy kernel
//!    shrink cost, and does it always hand back a minimal witness?
//!
//! ```text
//! oracle_bench [--repeat N] [--out PATH]
//! ```
//!
//! Tag counts, kernel sizes and verdicts in the JSON are deterministic;
//! only the timing figures vary with the machine. Exits non-zero if any
//! verdict disagrees with the construction or a kernel is not minimal.

#![warn(clippy::unwrap_used)]

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use tagger_core::{decide, minimize_elp, Elp, Verdict};
use tagger_routing::Path;
use tagger_topo::{ClosConfig, JellyfishConfig, Layer, Topology};

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

/// Fastest-of-N wall time for `f` (noise-robust: slow repeats only add
/// scheduler noise, never subtract work), plus the last return value.
fn fastest<T>(repeat: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..repeat {
        let start = Instant::now();
        out = Some(f());
        best = best.min(start.elapsed().as_secs_f64());
    }
    // repeat is clamped >= 1 in main, so the loop body always ran.
    match out {
        Some(v) => (best, v),
        None => unreachable!("repeat is clamped to at least 1"),
    }
}

struct FeasibleRow {
    label: String,
    elp_ms: f64,
    elp_paths: usize,
    hops: usize,
    oracle_ms: f64,
    construct_ms: f64,
    oracle_tags: usize,
    construct_tags: usize,
    lower_bound: usize,
}

/// Times building the ELP with `build`, then the oracle and the
/// Algorithm 1+2 pipeline on that ELP, which is known to be feasible;
/// cross-checks the certified tag counts.
fn feasible_case(
    label: &str,
    topo: &Topology,
    build: impl Fn(&Topology) -> Elp,
    repeat: usize,
) -> Result<FeasibleRow, String> {
    let (elp_ms, elp) = fastest(repeat, || build(topo));
    let elp = &elp;
    let (oracle_ms, verdict) = fastest(repeat, || decide(topo, elp, None));
    let feas = match verdict {
        Verdict::Feasible(f) => f,
        Verdict::Infeasible(_) => {
            return Err(format!("{label}: oracle calls a feasible ELP infeasible"));
        }
    };
    let (construct_ms, graph) = fastest(repeat, || minimize_elp(topo, elp));
    graph
        .verify()
        .map_err(|e| format!("{label}: construction certificate failed: {e:?}"))?;
    let construct_tags = graph.max_tag().map_or(0, |t| t.0 as usize);
    if feas.tags_used > construct_tags {
        return Err(format!(
            "{label}: oracle witness uses {} tags but the construction managed {}",
            feas.tags_used, construct_tags
        ));
    }
    Ok(FeasibleRow {
        label: label.to_string(),
        elp_ms: elp_ms * 1e3,
        elp_paths: elp.len(),
        hops: elp.paths().iter().map(Path::hops).sum(),
        oracle_ms: oracle_ms * 1e3,
        construct_ms: construct_ms * 1e3,
        oracle_tags: feas.tags_used,
        construct_tags,
        lower_bound: feas.lower_bound_tags,
    })
}

/// A flat N-switch ring with one two-hop path per ring edge: the
/// canonical Theorem 5.1 counterexample, infeasible at one tag.
fn ring(n: usize) -> Option<(Topology, Elp)> {
    let mut t = Topology::new();
    let switches: Vec<_> = (1..=n)
        .map(|i| t.add_switch(format!("R{i}"), Layer::Flat))
        .collect();
    let hosts: Vec<_> = (1..=n).map(|i| t.add_host(format!("H{i}"))).collect();
    for i in 0..n {
        t.connect(switches[i], switches[(i + 1) % n]);
        t.connect(hosts[i], switches[i]);
    }
    let mut paths = Vec::with_capacity(n);
    for i in 0..n {
        paths.push(
            Path::new(
                &t,
                vec![
                    hosts[i],
                    switches[i],
                    switches[(i + 1) % n],
                    switches[(i + 2) % n],
                    hosts[(i + 2) % n],
                ],
            )
            .ok()?,
        );
    }
    Some((t, Elp::from_paths(paths)))
}

struct KernelRow {
    label: String,
    paths: usize,
    shrink_ms: f64,
    kernel: usize,
    exhaustive: bool,
}

/// Times the infeasible verdict (dominated by the kernel shrink) and
/// re-checks minimality: dropping any one kernel path must flip the
/// verdict to feasible.
fn kernel_case(n: usize, repeat: usize) -> Result<KernelRow, String> {
    let label = format!("ring_{n}");
    let (topo, elp) = ring(n).ok_or_else(|| format!("{label}: ring construction failed"))?;
    let (shrink_ms, verdict) = fastest(repeat, || decide(&topo, &elp, Some(1)));
    let inf = match verdict {
        Verdict::Infeasible(i) => i,
        Verdict::Feasible(_) => {
            return Err(format!("{label}: oracle calls the 1-tag ring feasible"));
        }
    };
    for drop in 0..inf.kernel.len() {
        let sub: Vec<Path> = inf
            .kernel
            .iter()
            .enumerate()
            .filter(|&(j, _)| j != drop)
            .filter_map(|(_, &pi)| elp.paths().get(pi).cloned())
            .collect();
        if !decide(&topo, &Elp::from_paths(sub), Some(1)).is_feasible() {
            return Err(format!("{label}: kernel is not minimal"));
        }
    }
    Ok(KernelRow {
        label,
        paths: elp.len(),
        shrink_ms: shrink_ms * 1e3,
        kernel: inf.kernel.len(),
        exhaustive: inf.exhaustive,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let repeat: usize = flag(&args, "--repeat")
        .and_then(|v| v.parse().ok())
        .unwrap_or(3)
        .max(1);
    let out_path = flag(&args, "--out").unwrap_or_else(|| "BENCH_oracle.json".to_string());

    let mut feasible = Vec::new();
    // The medium fabric (128 hosts) has millions of 1-bounce paths; cap
    // the per-pair reroutes there, as an operator would.
    let clos_sizes: [(&str, ClosConfig, usize); 2] = [
        ("clos_small", ClosConfig::small(), usize::MAX),
        ("clos_medium_cap4", ClosConfig::medium(), 4),
    ];
    for (label, cfg, cap) in clos_sizes {
        let topo = cfg.build();
        let build = |t: &Topology| Elp::updown_with_bounces_capped(t, 1, cap);
        match feasible_case(label, &topo, build, repeat) {
            Ok(row) => feasible.push(row),
            Err(e) => {
                eprintln!("oracle_bench: {e}");
                return ExitCode::from(1);
            }
        }
    }
    for (switches, ports) in [(20usize, 6usize), (40, 8)] {
        let cfg = JellyfishConfig::half_servers(switches, ports, 7);
        let topo = cfg.build();
        let label = format!("jellyfish_{switches}x{ports}");
        match feasible_case(&label, &topo, |t| Elp::shortest(t, 1, false), repeat) {
            Ok(row) => feasible.push(row),
            Err(e) => {
                eprintln!("oracle_bench: {e}");
                return ExitCode::from(1);
            }
        }
    }

    let mut kernels = Vec::new();
    for n in [5usize, 7, 9] {
        match kernel_case(n, repeat) {
            Ok(row) => kernels.push(row),
            Err(e) => {
                eprintln!("oracle_bench: {e}");
                return ExitCode::from(1);
            }
        }
    }

    for r in &feasible {
        println!(
            "{:<16} {:>6} paths {:>7} hops  elp {:>8.2} ms  oracle {:>8.2} ms ({} tags, floor {})  construct {:>8.2} ms ({} tags)",
            r.label, r.elp_paths, r.hops, r.elp_ms, r.oracle_ms, r.oracle_tags, r.lower_bound,
            r.construct_ms, r.construct_tags,
        );
    }
    for r in &kernels {
        println!(
            "{:<16} {:>6} paths  infeasible at 1 tag: kernel {} path(s) in {:.2} ms{}",
            r.label,
            r.paths,
            r.kernel,
            r.shrink_ms,
            if r.exhaustive { "" } else { " (conservative)" },
        );
    }

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"bench\": \"oracle_feasibility\",");
    let _ = writeln!(json, "  \"repeat\": {repeat},");
    let _ = writeln!(json, "  \"feasible\": [");
    for (i, r) in feasible.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{ \"fabric\": \"{}\", \"elp_paths\": {}, \"hops\": {}, \"elp_ms\": {:.2}, \
             \"oracle_ms\": {:.2}, \"construct_ms\": {:.2}, \"oracle_tags\": {}, \
             \"construct_tags\": {}, \"lower_bound_tags\": {} }}{}",
            r.label,
            r.elp_paths,
            r.hops,
            r.elp_ms,
            r.oracle_ms,
            r.construct_ms,
            r.oracle_tags,
            r.construct_tags,
            r.lower_bound,
            if i + 1 < feasible.len() { "," } else { "" },
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"infeasible_kernels\": [");
    for (i, r) in kernels.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{ \"fabric\": \"{}\", \"paths\": {}, \"kernel_paths\": {}, \
             \"exhaustive\": {}, \"shrink_ms\": {:.2} }}{}",
            r.label,
            r.paths,
            r.kernel,
            r.exhaustive,
            r.shrink_ms,
            if i + 1 < kernels.len() { "," } else { "" },
        );
    }
    let _ = writeln!(json, "  ]");
    json.push_str("}\n");

    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("oracle_bench: cannot write {out_path}: {e}");
        return ExitCode::from(2);
    }
    println!("wrote {out_path}");
    ExitCode::SUCCESS
}
