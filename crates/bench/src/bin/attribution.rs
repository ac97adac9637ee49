//! **trigger attribution** — detection and attribution latency of the
//! in-band initial-trigger machinery, emitting `BENCH_attribution.json`.
//!
//! Runs the three deadlock scenarios the attribution pipeline is
//! specified against — the incast-fed two-cycle lock, the bounce-path
//! cycle, and the routing-loop cycle — across a sweep of watchdog poll
//! windows, and records per scenario the p50/p99 of:
//!
//! - **time-to-detect**: pause-claim epoch of the attributed trigger to
//!   the first watchdog trip, and
//! - **time-to-attribute**: pause-claim epoch to the first confirmed-SCC
//!   watchdog tick that produced the attribution.
//!
//! Every run must produce an attribution that passes its ground-truth
//! cross-check and names a member of the confirmed SCC; a misattribution
//! exits non-zero — a benchmark of wrong answers is not a benchmark.
//!
//! ```text
//! attribution [--out PATH]
//! ```
//!
//! All figures are seed-free and simulator-deterministic: reruns emit
//! byte-identical JSON.

use std::fmt::Write as _;
use std::process::ExitCode;
use tagger_fleet::percentile_us;
use tagger_scenario::{instantiate, parse, RunOptions};
use tagger_sim::SimReport;
use tagger_switch::WatchdogConfig;

/// The three scenarios, by bench name: the incast-fed two-cycle lock,
/// the bounce-path cycle on the adversarial identity tables, and the
/// routing-loop cycle. Each run re-arms the watchdog at the swept
/// window.
const SCENARIOS: [(&str, &str); 3] = [
    (
        "incast_two_cycle",
        include_str!("../../../../examples/scenarios/two_cycle_diagnose.scn"),
    ),
    (
        "bounce",
        include_str!("../../../../examples/scenarios/counterexample_replay.scn"),
    ),
    (
        "routing_loop",
        include_str!("../../../../examples/scenarios/routing_loop_watchdog.scn"),
    ),
];

/// Watchdog poll windows swept per scenario, in microseconds.
const WINDOWS_US: [u64; 6] = [100, 150, 200, 250, 300, 400];

struct Sample {
    time_to_detect_us: u64,
    time_to_attribute_us: u64,
}

fn sample(scenario: &str, window_us: u64, report: &SimReport) -> Result<Sample, String> {
    let wd = report
        .watchdog
        .as_ref()
        .ok_or_else(|| format!("{scenario} ({window_us} us): no watchdog report"))?;
    let trig = wd
        .trigger
        .as_ref()
        .ok_or_else(|| format!("{scenario} ({window_us} us): no attribution produced"))?;
    if !trig.matches_ground_truth {
        return Err(format!(
            "{scenario} ({window_us} us): attribution failed its ground-truth cross-check: {trig:?}"
        ));
    }
    if !trig.scc.contains(&trig.queue()) {
        return Err(format!(
            "{scenario} ({window_us} us): attributed queue {:?} outside its SCC",
            trig.queue()
        ));
    }
    let ttd = wd
        .time_to_detect()
        .ok_or_else(|| format!("{scenario} ({window_us} us): attributed but never tripped"))?;
    Ok(Sample {
        time_to_detect_us: ttd / 1_000,
        time_to_attribute_us: trig.time_to_attribute() / 1_000,
    })
}

fn run_scenario(name: &str, text: &str) -> Result<Vec<Sample>, String> {
    let scn = parse(text).map_err(|e| format!("{name}: {e}"))?;
    let mut samples = Vec::new();
    for window_us in WINDOWS_US {
        let mut exp = instantiate(&scn, &Default::default(), &RunOptions::default())
            .map_err(|e| format!("{name}: {e}"))?;
        exp.sim
            .arm_watchdog(WatchdogConfig::with_window(window_us * 1_000));
        samples.push(sample(name, window_us, &exp.sim.run())?);
    }
    Ok(samples)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_attribution.json".to_string());

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"bench\": \"trigger_attribution\",");
    let _ = writeln!(
        json,
        "  \"windows_us\": [{}],",
        WINDOWS_US.map(|w| w.to_string()).join(", ")
    );
    for (i, (name, text)) in SCENARIOS.iter().enumerate() {
        let samples = match run_scenario(name, text) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("attribution: {e}");
                return ExitCode::from(1);
            }
        };
        let ttd: Vec<u64> = samples.iter().map(|s| s.time_to_detect_us).collect();
        let tta: Vec<u64> = samples.iter().map(|s| s.time_to_attribute_us).collect();
        println!(
            "{name}: {} run(s), time-to-detect p50 {} us / p99 {} us, \
             time-to-attribute p50 {} us / p99 {} us",
            samples.len(),
            percentile_us(&ttd, 50),
            percentile_us(&ttd, 99),
            percentile_us(&tta, 50),
            percentile_us(&tta, 99),
        );
        let _ = writeln!(json, "  \"{name}\": {{");
        let _ = writeln!(json, "    \"samples\": {},", samples.len());
        let _ = writeln!(
            json,
            "    \"time_to_detect_us\": {{ \"p50\": {}, \"p99\": {} }},",
            percentile_us(&ttd, 50),
            percentile_us(&ttd, 99)
        );
        let _ = writeln!(
            json,
            "    \"time_to_attribute_us\": {{ \"p50\": {}, \"p99\": {} }}",
            percentile_us(&tta, 50),
            percentile_us(&tta, 99)
        );
        let _ = writeln!(
            json,
            "  }}{}",
            if i + 1 < SCENARIOS.len() { "," } else { "" }
        );
    }
    json.push_str("}\n");

    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("attribution: cannot write {out_path}: {e}");
        return ExitCode::from(2);
    }
    println!("wrote {out_path}");
    ExitCode::SUCCESS
}
