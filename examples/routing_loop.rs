//! A transient routing loop must not take down the network (the paper's
//! Figure 11): a misconfigured route bounces packets between a ToR and a
//! Leaf. Without Tagger, the looping *lossless* packets form a cyclic
//! buffer dependency and an innocent flow through the same links freezes
//! forever — even though the loop's packets all die of TTL. With Tagger,
//! the loopers fall into the lossy class at the first hairpin and the
//! innocent flow never notices. Runs the shipped `fig11_vanilla.scn` /
//! `fig11_tagger.scn` scenario pair.
//!
//! ```sh
//! cargo run --release --example routing_loop
//! ```

use tagger::scenario::{instantiate, parse, RunOptions};

fn main() {
    let pair = [
        include_str!("scenarios/fig11_vanilla.scn"),
        include_str!("scenarios/fig11_tagger.scn"),
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
        println!(
            "loop installed at t={} µs; deadlock: {}",
            report.end_time_ns / 5 / 1_000,
            match &report.deadlock {
                Some(d) => format!("YES at t={} µs", d.detected_at / 1_000),
                None => "no".to_string(),
            }
        );
        for (flow, label) in report.flows.iter().zip(&labels) {
            println!(
                "{label}: final rate {:.2} Gb/s, ttl-drops {}{}",
                flow.tail_rate(5) / 1e9,
                flow.ttl_drops,
                if flow.frozen(5) { "  [no goodput]" } else { "" }
            );
        }
        println!(
            "lossy drops {}, lossless drops {}\n",
            report.lossy_drops, report.lossless_drops
        );
    }
    println!(
        "F1's goodput is zero in both runs (its packets loop until TTL \
         death); the difference is F2: frozen without Tagger, untouched with."
    );
}
