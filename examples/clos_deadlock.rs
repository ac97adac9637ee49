//! The paper's headline scenario (Figures 3 and 10): two rerouted flows
//! close a cyclic buffer dependency and freeze the fabric — unless
//! Tagger is deployed.
//!
//! Runs the shipped `fig10_vanilla.scn` / `fig10_tagger.scn` scenario
//! pair through the packet-level simulator and prints the two flows'
//! goodput over time.
//!
//! ```sh
//! cargo run --release --example clos_deadlock
//! ```

use tagger::scenario::{instantiate, parse, RunOptions};

fn main() {
    let pair = [
        include_str!("scenarios/fig10_vanilla.scn"),
        include_str!("scenarios/fig10_tagger.scn"),
    ];
    for (with_tagger, text) in [false, true].into_iter().zip(pair) {
        let scn = parse(text).expect("shipped scenario parses");
        let (report, labels) = instantiate(&scn, &Default::default(), &RunOptions::default())
            .expect("shipped scenario expands")
            .run();
        println!(
            "=== {} Tagger ===",
            if with_tagger { "WITH" } else { "WITHOUT" }
        );
        match &report.deadlock {
            Some(d) => println!(
                "deadlock detected at t={} µs; witness cycle of {} gated queues",
                d.detected_at / 1_000,
                d.cycle.len()
            ),
            None => println!("no deadlock"),
        }
        for (flow, label) in report.flows.iter().zip(&labels) {
            println!(
                "{label}: delivered {:.1} MB, final rate {:.2} Gb/s{}",
                flow.delivered_bytes as f64 / 1e6,
                flow.tail_rate(5) / 1e9,
                if flow.stalled(5) { "  [FROZEN]" } else { "" }
            );
        }
        // A compact rate timeline (Gb/s per 100 µs sample).
        for (flow, label) in report.flows.iter().zip(&labels) {
            let spark: String = flow
                .rate_series
                .iter()
                .step_by(4)
                .map(|r| match (r / 1e9) as u64 {
                    0 => '.',
                    1..=9 => '▂',
                    10..=19 => '▄',
                    20..=29 => '▆',
                    _ => '█',
                })
                .collect();
            println!("{label:>16} |{spark}|");
        }
        println!();
    }
    println!("(each column = 400 µs; '.' means zero goodput)");
}
