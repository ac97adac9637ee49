//! End-to-end and per-layer benchmark of the Tagger control-event path
//! and simulator.
//!
//! Four seeded workloads, each run in its own process by the `perfbench`
//! binary (see `README.md` in this directory for why each exists):
//!
//! - `fleet-churn` and `plan-wide` drive control events through
//!   [`tagger_fleet::Fleet`] — the production event path ([`control`]);
//! - `incast-sweep` and `deadlock-churn` run `.scn` scenarios through
//!   the scenario expander and simulator ([`scenario`]).
//!
//! An untraced run times the whole path from outside and yields the
//! end-to-end metrics. A traced run drives the same seeded inputs and
//! re-executes each stage's public call on the exact inputs the program
//! used, checks every mirrored result against what the program produced,
//! and reports per-layer self times. A counters run does a fixed amount
//! of work and prints only seed-deterministic counts.

#![forbid(unsafe_code)]

pub mod control;
pub mod gauge;
pub mod scenario;
pub mod stats;

use stats::Metric;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Duration;

/// Workload names, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 4] = ["fleet-churn", "plan-wide", "incast-sweep", "deadlock-churn"];

/// Per-layer metrics reported by a traced run, with units. A layer a
/// workload never calls reads 0 there.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("routing.elp_ms", "ms"),
    ("routing.paths", "count"),
    ("routing.paths_per_ms", "1/ms"),
    ("core.tag_ms", "ms"),
    ("core.rules", "count"),
    ("core.lossless_tags", "count"),
    ("core.verify_ms", "ms"),
    ("core.tcam_compile_ms", "ms"),
    ("core.diff_ms", "ms"),
    ("core.delta_ops", "count"),
    ("audit.audit_ms", "ms"),
    ("audit.violations", "count"),
    ("ctrl.apply_us", "us"),
    ("ctrl.install_ms", "ms"),
    ("ctrl.install_attempts", "count"),
    ("ctrl.install_retries", "count"),
    ("ctrl.rollbacks", "count"),
    ("ctrl.journal_ms", "ms"),
    ("ctrl.recover_ms", "ms"),
    ("fleet.ingest_us", "us"),
    ("fleet.queue_wait_ms", "ms"),
    ("fleet.events_per_batch", "count"),
    ("fleet.drain_cycles", "count"),
    ("net.codec_us", "us"),
    ("scenario.parse_ms", "ms"),
    ("scenario.instantiate_ms", "ms"),
    ("topo.build_ms", "ms"),
    ("core.clos_tagging_ms", "ms"),
    ("routing.fib_ms", "ms"),
    ("sim.run_ms", "ms"),
    ("sim.events", "count"),
    ("sim.pauses_sent", "count"),
    ("sim.episodes", "count"),
    ("sim.watchdog_trips", "count"),
    ("sim.recoveries", "count"),
    ("trace.unaccounted_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

/// Which measurement a run makes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// End-to-end metrics, nothing mirrored.
    Untraced,
    /// Per-layer metrics from mirrored stage calls.
    Traced,
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct RunOutput {
    /// Operations attempted (control events offered, or scenario asserts
    /// evaluated).
    pub attempted: u64,
    /// One line per failed operation or failed gate.
    pub failures: Vec<String>,
    /// The metrics `BENCHMARK.json` lists for this mode.
    pub metrics: Vec<Metric>,
    /// Further figures for the human report (sample counts, tails, the
    /// metrics that apply to this workload only).
    pub report: Vec<Metric>,
}

/// Per-layer values keyed by [`PER_LAYER`] name.
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    /// Sets one layer value; `name` must be listed in [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unknown per-layer metric {name}"
        );
        self.0.insert(name, value);
    }

    /// Every [`PER_LAYER`] metric in order, 0 where unset.
    pub fn into_metrics(self) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| Metric::new(name, self.0.get(name).copied().unwrap_or(0.0), unit))
            .collect()
    }
}

/// Milliseconds in a duration, as a float.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Mean of a total over `n` operations (0 when there were none).
pub fn per(total: f64, n: u64) -> f64 {
    if n == 0 {
        0.0
    } else {
        total / n as f64
    }
}

/// SplitMix64: derives independent sub-seeds from one master seed.
pub fn mix_seed(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over `bytes`, continuing from `hash` (start from
/// [`FNV_OFFSET`]): a digest of generated inputs for the counters.
pub fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// The FNV-1a 64-bit offset basis.
pub const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// Runs `workload` for about `seconds` of measured time in `mode`,
/// writing any journals under `work`.
pub fn run(
    workload: &str,
    seed: u64,
    seconds: f64,
    mode: Mode,
    work: &Path,
) -> Result<RunOutput, String> {
    match workload {
        "fleet-churn" => control::run(control::Workload::FleetChurn, seed, seconds, mode, work),
        "plan-wide" => control::run(control::Workload::PlanWide, seed, seconds, mode, work),
        "incast-sweep" => scenario::run(scenario::Workload::IncastSweep, seed, seconds, mode),
        "deadlock-churn" => scenario::run(scenario::Workload::DeadlockChurn, seed, seconds, mode),
        other => Err(format!("unknown workload {other:?}")),
    }
}

/// The seed-deterministic counters of a fixed-size run of `workload`.
/// No timing enters them: two calls with the same seed return equal
/// maps.
pub fn counters(
    workload: &str,
    seed: u64,
    work: &Path,
) -> Result<BTreeMap<&'static str, u64>, String> {
    match workload {
        "fleet-churn" => control::counters(control::Workload::FleetChurn, seed, work),
        "plan-wide" => control::counters(control::Workload::PlanWide, seed, work),
        "incast-sweep" => scenario::counters(scenario::Workload::IncastSweep, seed),
        "deadlock-churn" => scenario::counters(scenario::Workload::DeadlockChurn, seed),
        other => Err(format!("unknown workload {other:?}")),
    }
}

/// Renders [`counters`] as one JSON object.
pub fn render_counters(workload: &str, seed: u64, counts: &BTreeMap<&'static str, u64>) -> String {
    let body: Vec<String> = counts
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    format!(
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, {}}}",
        body.join(", ")
    )
}
