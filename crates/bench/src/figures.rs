//! The simulator figures: every `results/*.txt` file the packet
//! simulator produces, rendered from the shipped `.scn` scenarios.
//!
//! [`FIGURES`] is the whole definition of each figure: result file →
//! scenario files → layout (column labels, title line and row format).
//! The experiments themselves live only in `examples/scenarios/`; a
//! figure adds nothing but the seeds it reruns a scenario at and how the
//! reports are printed. The `figures` binary writes every entry.

use crate::table;
use std::collections::BTreeMap;
use std::ops::Range;
use tagger_scenario::{instantiate, parse, points, EventSpec, RunOptions, Scenario, TimeSpec};
use tagger_sim::{SimReport, Simulator};

/// One shipped scenario in a figure, and the name the figure prints
/// for it.
struct Run {
    /// Scenario file name under `examples/scenarios/`.
    scn: &'static str,
    text: &'static str,
    name: &'static str,
}

macro_rules! run {
    ($scn:literal, $name:literal) => {
        Run {
            scn: $scn,
            text: include_str!(concat!("../../../examples/scenarios/", $scn)),
            name: $name,
        }
    };
}

/// One result file and how to produce it.
pub struct Figure {
    /// Result file name (under `results/`).
    pub file: &'static str,
    /// The scenarios it runs, in output order.
    runs: &'static [Run],
    layout: Layout,
}

/// How a figure prints its runs.
enum Layout {
    /// Per run: a `# {name} Tagger: …` caption line, the per-flow rate
    /// TSV under `labels` (the scenario's own `src->dst` labels when
    /// empty), then a blank line.
    Rates {
        labels: &'static [&'static str],
        caption: fn(&Scenario, &SimReport) -> String,
    },
    /// One titled TSV table built from every run at every sweep point
    /// and seed (the scenario's own seed when `seeds` is `None`).
    Table {
        title: &'static str,
        columns: &'static [&'static str],
        seeds: Option<Range<u64>>,
        rows: fn(&[Ran]) -> Vec<Vec<String>>,
    },
    /// Per run at horizon `end_ns`: a table of the L1->S1 egress queue
    /// depths, one column per lossless priority, every other sample.
    Queues { end_ns: u64 },
}

/// One run's reports: per sweep point, per seed.
struct Ran {
    name: &'static str,
    scenario: Scenario,
    /// The scenario's own flow labels (`src->dst`).
    labels: Vec<String>,
    points: Vec<Point>,
}

struct Point {
    vars: BTreeMap<String, u64>,
    reports: Vec<(u64, SimReport)>,
}

impl Ran {
    /// The report of a run with one point and one seed.
    fn only(&self) -> &SimReport {
        &self.points[0].reports[0].1
    }
}

/// One row per single-report run: its name, then `cells` of its report.
fn per_run(runs: &[Ran], cells: fn(&SimReport) -> Vec<String>) -> Vec<Vec<String>> {
    runs.iter()
        .map(|run| {
            let mut row = vec![run.name.to_string()];
            row.extend(cells(run.only()));
            row
        })
        .collect()
}

/// `Some(detected_at)` of the run's deadlock, as the captions print it.
fn deadlock(r: &SimReport) -> Option<u64> {
    r.deadlock.as_ref().map(|d| d.detected_at)
}

fn gbps(bps: f64) -> String {
    format!("{:.2}", bps / 1e9)
}

/// When the first of `s`'s events that `pick` selects fires, in µs.
fn event_us(s: &Scenario, pick: fn(&EventSpec) -> Option<&TimeSpec>) -> u64 {
    let at = s
        .events
        .iter()
        .find_map(pick)
        .expect("scenario has the event");
    at.resolve(s.end_ns, &BTreeMap::new())
        .expect("event time is not swept")
        / 1_000
}

/// Every simulator figure, in the order the binary writes them.
pub static FIGURES: &[Figure] = &[
    Figure {
        file: "fig10_bounce_deadlock.txt",
        runs: &[
            run!("fig10_vanilla.scn", "Fig 10(a) — without"),
            run!("fig10_tagger.scn", "Fig 10(b) — with"),
        ],
        layout: Layout::Rates {
            labels: &["blue(H1->H13)", "green(H9->H1)"],
            caption: |_, r| {
                format!(
                    "deadlock={:?}, stalled={}/2, pauses={}",
                    deadlock(r),
                    r.stalled_flows(5),
                    r.pauses_sent
                )
            },
        },
    },
    Figure {
        file: "fig11_routing_loop.txt",
        runs: &[
            run!("fig11_vanilla.scn", "Fig 11 — without"),
            run!("fig11_tagger.scn", "Fig 11 — with"),
        ],
        layout: Layout::Rates {
            labels: &["F1(H1->H5)", "F2(H2->H6)"],
            caption: |_, r| {
                format!(
                    "deadlock={:?}, F2 tail rate={} Gb/s, F1 ttl_drops={}, lossy_drops={}",
                    deadlock(r),
                    gbps(r.flows[1].tail_rate(5)),
                    r.flows[0].ttl_drops,
                    r.lossy_drops
                )
            },
        },
    },
    Figure {
        file: "fig12_pause_propagation.txt",
        runs: &[
            run!("fig12_vanilla.scn", "Fig 12(b/d) — without"),
            run!("fig12_tagger.scn", "Fig 12(a/c) — with"),
        ],
        layout: Layout::Rates {
            labels: &[],
            caption: |_, r| {
                format!(
                    "deadlock={:?}, frozen={}/8, pauses={}",
                    deadlock(r),
                    r.frozen_flows(5),
                    r.pauses_sent
                )
            },
        },
    },
    Figure {
        file: "fig8_transition.txt",
        runs: &[
            run!("fig8_old_tag.scn", "old-tag (Fig 8a, default)"),
            run!("fig8_new_tag.scn", "new-tag (Fig 8b, correct)"),
        ],
        layout: Layout::Table {
            title: "Fig 8: priority transition handling (bounced flow A shares the \
                    T1->H1 bottleneck with B)",
            columns: &[
                "egress_queue_mode",
                "lossless_drops",
                "pauses",
                "A_tail_gbps",
                "B_tail_gbps",
            ],
            seeds: None,
            rows: |runs| {
                per_run(runs, |r| {
                    vec![
                        r.lossless_drops.to_string(),
                        r.pauses_sent.to_string(),
                        gbps(r.flows[0].tail_rate(5)),
                        gbps(r.flows[1].tail_rate(5)),
                    ]
                })
            },
        },
    },
    Figure {
        file: "bcube_ring.txt",
        runs: &[
            run!("bcube_vanilla.scn", "BCube(2,1) ring — without"),
            run!("bcube_tagger.scn", "BCube(2,1) ring — with"),
        ],
        layout: Layout::Rates {
            labels: &[],
            caption: |_, r| {
                format!(
                    "deadlock={:?}, frozen={}/4, lossless_drops={}",
                    deadlock(r),
                    r.frozen_flows(5),
                    r.lossless_drops
                )
            },
        },
    },
    Figure {
        file: "dcqcn_ablation.txt",
        runs: &[
            run!("dcqcn_off.scn", "pfc only"),
            run!("dcqcn_on.scn", "pfc + dcqcn"),
        ],
        layout: Layout::Table {
            title: "DCQCN ablation: 8-to-1 incast into H1 over 10 ms",
            columns: &["scheme", "pfc_pauses", "goodput_gbps", "lossless_drops"],
            seeds: None,
            rows: |runs| {
                per_run(runs, |r| {
                    vec![
                        r.pauses_sent.to_string(),
                        format!("{:.1}", r.aggregate_goodput_bps() / 1e9),
                        r.lossless_drops.to_string(),
                    ]
                })
            },
        },
    },
    Figure {
        file: "recovery_baseline.txt",
        runs: &[
            run!("recovery_vanilla.scn", "detect-and-break (recovery)"),
            run!("recovery_tagger.scn", "tagger (prevention)"),
        ],
        layout: Layout::Table {
            title: "Deadlock recovery vs prevention (Fig 10 workload, 4 green waves \
                    over 20 ms): recovery fires per recurrence and sacrifices \
                    lossless packets; Tagger prevents the CBD outright",
            columns: &[
                "scheme",
                "recoveries",
                "lossless_packets_sacrificed",
                "delivered_MB",
            ],
            seeds: None,
            rows: |runs| {
                per_run(runs, |r| {
                    vec![
                        r.recoveries.to_string(),
                        r.recovery_drops.to_string(),
                        (r.total_delivered_bytes() / 1_000_000).to_string(),
                    ]
                })
            },
        },
    },
    Figure {
        file: "transient_failure.txt",
        runs: &[
            run!("transient_vanilla.scn", "transient failure — without"),
            run!("transient_tagger.scn", "transient failure — with"),
        ],
        layout: Layout::Rates {
            labels: &["green(H9->H1)", "victim(H13->H6)"],
            caption: |s, r| {
                format!(
                    "deadlock={:?}, lossy_drops={}, frozen at end={}/2 \
                     (failure at {} µs, reconvergence at {} µs)",
                    deadlock(r),
                    r.lossy_drops,
                    r.frozen_flows(5),
                    event_us(s, |e| match e {
                        EventSpec::Fail { at, .. } => Some(at),
                        _ => None,
                    }),
                    event_us(s, |e| match e {
                        EventSpec::Reconverge { at } => Some(at),
                        _ => None,
                    }),
                )
            },
        },
    },
    Figure {
        file: "perf_penalty.txt",
        runs: &[
            run!("perf_penalty_vanilla.scn", "no tagger"),
            run!("perf_penalty.scn", "tagger"),
        ],
        layout: Layout::Table {
            title: "Performance penalty: 16-flow random permutation on healthy Clos \
                    (paper 8: negligible)",
            columns: &[
                "seed",
                "goodput_no_tagger_gbps",
                "goodput_tagger_gbps",
                "penalty",
            ],
            seeds: Some(1..6),
            rows: |runs| {
                let (without, with) = (&runs[0].points[0].reports, &runs[1].points[0].reports);
                without
                    .iter()
                    .zip(with)
                    .map(|((seed, without), (_, with))| {
                        let b = without.aggregate_goodput_bps() / 1e9;
                        let a = with.aggregate_goodput_bps() / 1e9;
                        vec![
                            seed.to_string(),
                            format!("{b:.2}"),
                            format!("{a:.2}"),
                            format!("{:+.2}%", (a - b) / b * 100.0),
                        ]
                    })
                    .collect()
            },
        },
    },
    Figure {
        file: "queue_dynamics.txt",
        runs: &[
            run!("fig10_vanilla.scn", "without"),
            run!("fig10_tagger.scn", "with"),
        ],
        layout: Layout::Queues { end_ns: 6_000_000 },
    },
    Figure {
        file: "failure_sweep.txt",
        runs: &[
            run!("failure_sweep_vanilla.scn", "vanilla"),
            run!("failure_sweep_tagger.scn", "tagger"),
        ],
        layout: Layout::Table {
            title: "Failure sweep: random permutation traffic + random link failures \
                    with stale routing, then reconvergence",
            columns: &[
                "failed_links",
                "scheme",
                "trials_with_deadlock",
                "trials_with_frozen_flows",
                "lossless_drops_total",
            ],
            seeds: Some(0..20),
            rows: |runs| {
                let mut rows = Vec::new();
                for p in 0..runs[0].points.len() {
                    for run in runs {
                        let point = &run.points[p];
                        let trials = point.reports.len();
                        let count = |f: fn(&SimReport) -> bool| {
                            point.reports.iter().filter(|(_, r)| f(r)).count()
                        };
                        rows.push(vec![
                            point.vars["nfail"].to_string(),
                            run.name.to_string(),
                            format!("{}/{trials}", count(|r| r.deadlock.is_some())),
                            format!("{}/{trials}", count(|r| r.frozen_flows(3) > 0)),
                            point
                                .reports
                                .iter()
                                .map(|(_, r)| r.lossless_drops)
                                .sum::<u64>()
                                .to_string(),
                        ]);
                    }
                }
                rows
            },
        },
    },
];

/// Expands and runs `run` at every sweep point and seed, applying
/// `prepare` to each simulator before it runs.
fn execute(
    run: &Run,
    seeds: &Option<Range<u64>>,
    end_ns: Option<u64>,
    prepare: fn(&mut Simulator),
) -> Result<Ran, String> {
    let mut s = parse(run.text).map_err(|e| format!("{}: {e}", run.scn))?;
    if let Some(end_ns) = end_ns {
        s.end_ns = end_ns;
    }
    let seeds: Vec<u64> = seeds.clone().unwrap_or(s.seed..s.seed + 1).collect();
    let mut ran = Ran {
        name: run.name,
        scenario: s.clone(),
        labels: Vec::new(),
        points: Vec::new(),
    };
    for vars in points(&s) {
        let mut reports = Vec::new();
        for &seed in &seeds {
            let opts = RunOptions {
                seed: Some(seed),
                ..RunOptions::default()
            };
            let mut exp = instantiate(&s, &vars, &opts).map_err(|e| format!("{}: {e}", run.scn))?;
            prepare(&mut exp.sim);
            reports.push((seed, exp.sim.run()));
            ran.labels = exp.labels;
        }
        ran.points.push(Point { vars, reports });
    }
    Ok(ran)
}

/// Tracks L1's egress queues towards S1, one per lossless priority —
/// a member of the Figure 10 CBD cycle.
fn track_l1_to_s1(sim: &mut Simulator) {
    let topo = sim.topo();
    let (l1, s1) = (topo.expect_node("L1"), topo.expect_node("S1"));
    let port = topo.port_towards(l1, s1).expect("L1 and S1 are adjacent");
    let queues = sim
        .switch_state(l1)
        .map_or(1, |sw| sw.config().num_lossless);
    for q in 0..queues {
        sim.track_queue(l1, port, q);
    }
}

/// Renders one figure's result file.
pub fn render(fig: &Figure) -> Result<String, String> {
    let mut out = String::new();
    match &fig.layout {
        Layout::Rates { labels, caption } => {
            for run in fig.runs {
                let ran = execute(run, &None, None, |_| {})?;
                let report = ran.only();
                let labels: Vec<&str> = if labels.is_empty() {
                    ran.labels.iter().map(String::as_str).collect()
                } else {
                    labels.to_vec()
                };
                let caption = caption(&ran.scenario, report);
                out.push_str(&format!("# {} Tagger: {caption}\n", run.name));
                out.push_str(&report.rates_tsv(&labels));
                out.push('\n');
            }
        }
        Layout::Table {
            title,
            columns,
            seeds,
            rows,
        } => {
            let ran = fig
                .runs
                .iter()
                .map(|run| execute(run, seeds, None, |_| {}))
                .collect::<Result<Vec<_>, _>>()?;
            out.push_str(&table(title, columns, &rows(&ran)));
        }
        Layout::Queues { end_ns } => {
            for run in fig.runs {
                let ran = execute(run, &None, Some(*end_ns), track_l1_to_s1)?;
                let report = ran.only();
                let rows: Vec<Vec<String>> = report
                    .queue_series
                    .iter()
                    .enumerate()
                    .step_by(2)
                    .map(|(i, row)| {
                        let mut cells = vec![((i as u64 + 1) * 100).to_string()];
                        cells.extend(row.iter().map(|b| (b / 1000).to_string()));
                        cells
                    })
                    .collect();
                let queues = report.queue_series.first().map_or(0, Vec::len);
                let mut columns = vec!["time_us".to_string()];
                columns.extend((0..queues).map(|q| format!("L1->S1 prio{q} (KB)")));
                let columns: Vec<&str> = columns.iter().map(String::as_str).collect();
                let title = format!(
                    "Queue dynamics at L1->S1 — {} Tagger (deadlock: {})",
                    run.name,
                    report.deadlock.is_some()
                );
                out.push_str(&table(&title, &columns, &rows));
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;

    /// Every single-seed figure is exactly what its scenarios print, so
    /// drift between `examples/scenarios/` and `results/` fails here and
    /// not only in CI's full regeneration (which adds the seed sweeps).
    #[test]
    fn single_seed_figures_match_the_committed_results() {
        let results = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");
        let single = FIGURES
            .iter()
            .filter(|f| !matches!(f.layout, Layout::Table { seeds: Some(_), .. }));
        let mut checked = 0;
        for fig in single {
            let committed = std::fs::read_to_string(format!("{results}/{}", fig.file)).unwrap();
            assert_eq!(render(fig).unwrap(), committed, "{} drifted", fig.file);
            checked += 1;
        }
        assert_eq!(checked, 9);
    }
}
