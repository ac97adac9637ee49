//! The simulator workloads: `incast-sweep` and `deadlock-churn`.
//!
//! One operation is one whole scenario: parse, then per sweep point
//! instantiate, `Simulator::run`, and grade the asserts — what
//! `tagger_scenario::run_scenario` does, called here stage by stage so
//! the simulator's own time can be told apart.

use crate::gauge::Gauge;
use crate::stats::{self, Metric};
use crate::{fnv1a, mix_seed, ms, per, Layers, Mode, RunOutput, FNV_OFFSET};
use rand::{rngs::StdRng, RngExt, SeedableRng};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};
use tagger_core::clos::clos_tagging;
use tagger_routing::Fib;
use tagger_scenario::{
    clos_for_hosts, evaluate, instantiate, parse, points, run_scenario, PointMetrics, RunOptions,
    Scenario, TaggerMode, TopoSpec,
};
use tagger_topo::{ClosConfig, FailureSet, Topology};

/// The two simulator workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The shipped incast sweep, 32 to 1024 hosts, seeded destination.
    IncastSweep,
    /// Repeated deadlock episodes under unsafe tagging with the watchdog
    /// armed.
    DeadlockChurn,
}

const INCAST_SWEEP: &str = include_str!("../../examples/scenarios/incast_sweep.scn");
/// The shipped file's incast line; the benchmark re-aims it.
const INCAST_LINE: &str = "workload incast 128 H1";
/// Hosts present at every point of the sweep (its smallest fabric).
const INCAST_MIN_HOSTS: u64 = 32;
/// Latest seeded incast start, µs into the 8 ms horizon. The fabric is
/// symmetric, so the destination alone leaves every count unchanged;
/// the start offset is what makes the seed visible in the counters.
const INCAST_MAX_START_US: u64 = 100;

/// Deadlock waves in one `deadlock-churn` scenario, and their spacing.
const WAVES: u64 = 6;
const WAVE_PERIOD_US: u64 = 4_000;

/// The cyclic flow set of `two_cycle_diagnose.scn`: two CBDs that close
/// through S1->L3 (cycle A: L1->S1->L3->S2->L1, cycle B:
/// S1->L3->S2->L2->S1).
const CYCLE_FLOWS: [&str; 5] = [
    "H3 H13 via H3 T1 L1 S1 L3 S2 L4 T4 H13",
    "H10 H4 via H10 T3 L3 S2 L1 S1 L2 T1 H4",
    "H9 H8 via H9 T3 L3 S2 L2 T2 H8",
    "H13 H9 via H13 T4 L4 S2 L2 S1 L3 T3 H9",
    "H6 H15 via H6 T2 L2 S1 L3 S2 L4 T4 H15",
];

/// The persistent incast into H12 that backs up S1->L3 (the trigger).
const INCAST_FLOWS: [&str; 4] = [
    "flow H5 H12 via H5 T2 L1 S2 L4 T3 H12",
    "flow H7 H12 via H7 T2 L2 S2 L4 T3 H12",
    "flow H1 H12 @250us via H1 T1 L1 S1 L3 T3 H12",
    "flow H2 H12 @350us via H2 T1 L2 S2 L3 T3 H12",
];

impl Workload {
    /// The scenario text the seed generates.
    pub fn text(self, seed: u64) -> Result<String, String> {
        let mut rng = StdRng::seed_from_u64(mix_seed(seed, 400));
        match self {
            Workload::IncastSweep => {
                if !INCAST_SWEEP.lines().any(|l| l.trim() == INCAST_LINE) {
                    return Err(format!("incast_sweep.scn no longer has `{INCAST_LINE}`"));
                }
                let dst = rng.random_range(1..=INCAST_MIN_HOSTS);
                let start_us = rng.random_range(0..=INCAST_MAX_START_US);
                let line = format!("workload incast 128 H{dst} @{start_us}us");
                Ok(INCAST_SWEEP.replace(INCAST_LINE, &line))
            }
            Workload::DeadlockChurn => {
                let end_us = 2_000 + WAVES * WAVE_PERIOD_US;
                let mut s = format!(
                    "scenario deadlock-churn\ntopo clos small\ntagger unsafe-identity\n\
                     pause-quanta 20us\nwatchdog window 200us\nrecovery on\nend {end_us}us\n\n"
                );
                for f in INCAST_FLOWS {
                    s.push_str(f);
                    s.push('\n');
                }
                for wave in 0..WAVES {
                    let at = 2_000 + wave * WAVE_PERIOD_US + rng.random_range(0..500u64);
                    let limit = rng.random_range(400..=800u64) * 1_000;
                    for f in CYCLE_FLOWS {
                        let (ends, via) = f.split_once(" via ").expect("flow has a path");
                        let _ = writeln!(s, "flow {ends} @{at}us limit {limit} via {via}");
                    }
                }
                s.push_str(
                    "\nassert watchdog-trips >= 1\nassert episodes >= 2\nassert recoveries >= 2\n",
                );
                Ok(s)
            }
        }
    }

    /// Setups timed per run; the median is `setup_s`.
    fn setups(self) -> usize {
        match self {
            Workload::IncastSweep => 31,
            Workload::DeadlockChurn => 51,
        }
    }
}

fn options(seed: u64) -> RunOptions {
    RunOptions {
        seed: Some(seed),
        ..RunOptions::default()
    }
}

/// Parse plus instantiation of the first sweep point: the work before
/// the first simulated event.
fn setup_once(text: &str, opts: &RunOptions) -> Result<f64, String> {
    let clock = Instant::now();
    let s = parse(text).map_err(|e| e.to_string())?;
    let first = points(&s)
        .into_iter()
        .next()
        .ok_or("scenario has no points")?;
    let exp = instantiate(&s, &first, opts).map_err(|e| e.to_string())?;
    let elapsed = clock.elapsed().as_secs_f64();
    std::hint::black_box(exp);
    Ok(elapsed)
}

/// One whole scenario, timed from outside.
struct Exec {
    wall: Duration,
    run: Duration,
    events: u64,
    asserts: u64,
    failures: Vec<String>,
    metrics: Vec<PointMetrics>,
}

fn execute(text: &str, opts: &RunOptions) -> Result<Exec, String> {
    let clock = Instant::now();
    let s = parse(text).map_err(|e| e.to_string())?;
    let mut exec = Exec {
        wall: Duration::ZERO,
        run: Duration::ZERO,
        events: 0,
        asserts: 0,
        failures: Vec::new(),
        metrics: Vec::new(),
    };
    for point in points(&s) {
        let mut exp = instantiate(&s, &point, opts).map_err(|e| e.to_string())?;
        let ran = Instant::now();
        let report = exp.sim.run();
        exec.run += ran.elapsed();
        for a in evaluate(&s, &point, &report) {
            exec.asserts += 1;
            if !a.pass {
                exec.failures.push(format!(
                    "{point:?}: assert {} failed: {}",
                    a.label, a.detail
                ));
            }
        }
        exec.events += report.events_processed;
        exec.metrics.push(PointMetrics::from_report(&report));
    }
    exec.wall = clock.elapsed();
    Ok(exec)
}

/// Runs a simulator workload: whole scenarios back to back until
/// `seconds` have passed.
pub fn run(workload: Workload, seed: u64, seconds: f64, mode: Mode) -> Result<RunOutput, String> {
    let text = workload.text(seed)?;
    let opts = options(seed);
    let mut gauge = Gauge::start();
    let setup_times = (0..workload.setups())
        .map(|_| Ok(setup_once(&text, &opts)? * gauge.scale()))
        .collect::<Result<Vec<_>, String>>()?;
    let budget = Duration::from_secs_f64(seconds);
    let mut out = RunOutput::default();
    match mode {
        Mode::Untraced => {
            let (mut walls, mut scaled_walls, mut run, mut events, mut total) =
                (Vec::new(), Vec::new(), Duration::ZERO, 0u64, Duration::ZERO);
            let mut gauge = Gauge::start();
            let mut first: Option<Vec<PointMetrics>> = None;
            while total < budget {
                let exec = execute(&text, &opts)?;
                total += exec.wall;
                run += exec.run;
                events += exec.events;
                walls.push(ms(exec.wall));
                scaled_walls.push(ms(exec.wall) * gauge.scale());
                out.attempted += exec.asserts;
                out.failures.extend(exec.failures);
                match &first {
                    None => first = Some(exec.metrics),
                    Some(m) if *m != exec.metrics => {
                        out.failures
                            .push("a repeat produced different simulator counters".into());
                    }
                    Some(_) => {}
                }
            }
            let p50 = stats::median(&scaled_walls);
            let scaled_total: f64 = scaled_walls.iter().sum::<f64>() / 1e3;
            out.metrics = vec![
                Metric::new("setup_s", stats::median(&setup_times), "s"),
                Metric::new("events_per_s", events as f64 / scaled_total, "1/s"),
                Metric::new("latency_p50_ms", p50, "ms"),
                Metric::new("peak_rss_mb", stats::peak_rss_mb(), "MB"),
            ];
            out.report.extend([
                Metric::new("scenario_s", p50 / 1e3, "s"),
                Metric::new("sim_events_per_s", events as f64 / run.as_secs_f64(), "1/s"),
                Metric::new("raw_scenario_s", stats::median(&walls) / 1e3, "s"),
                Metric::new(
                    "raw_events_per_s",
                    events as f64 / total.as_secs_f64(),
                    "1/s",
                ),
                Metric::new("probe_p50_ms", stats::median(gauge.probes()), "ms"),
                Metric::new("scenarios", walls.len() as f64, "count"),
                Metric::new("sim_events", events as f64, "count"),
                Metric::new("setup_samples", setup_times.len() as f64, "count"),
            ]);
            if let Some(p) = stats::supported_tail(walls.len()) {
                out.report.push(Metric::new(
                    format!("scenario_p{p}_s"),
                    stats::percentile(&scaled_walls, p) / 1e3,
                    "s",
                ));
            }
        }
        Mode::Traced => {
            let mut t = Trace::default();
            while t.program + t.mirror < budget {
                traced_once(&text, &opts, &mut t, &mut out)?;
            }
            out.metrics = t.layers().into_metrics();
            out.report.extend([
                Metric::new("traced_scenarios", t.execs as f64, "count"),
                Metric::new("program_s", t.program.as_secs_f64(), "s"),
                Metric::new("mirror_s", t.mirror.as_secs_f64(), "s"),
            ]);
        }
    }
    Ok(out)
}

/// Stage self times and counters from mirrored scenario executions.
#[derive(Default)]
struct Trace {
    execs: u64,
    /// Wall time of the program's own `run_scenario` calls.
    program: Duration,
    /// Wall time of the mirrored executions.
    mirror: Duration,
    parse: Duration,
    /// Whole `instantiate` calls; the three below run inside them.
    instantiate: Duration,
    build: Duration,
    tagging: Duration,
    fib: Duration,
    run: Duration,
    asserts: Duration,
    events: u64,
    pauses: u64,
    episodes: u64,
    trips: u64,
    recoveries: u64,
}

impl Trace {
    fn layers(&self) -> Layers {
        let n = self.execs;
        let children = self.build + self.tagging + self.fib;
        let accounted = self.parse + self.instantiate + self.run + self.asserts;
        let mut l = Layers::default();
        l.set("scenario.parse_ms", per(ms(self.parse), n));
        l.set(
            "scenario.instantiate_ms",
            per(ms(self.instantiate) - ms(children), n),
        );
        l.set("topo.build_ms", per(ms(self.build), n));
        l.set("core.clos_tagging_ms", per(ms(self.tagging), n));
        l.set("routing.fib_ms", per(ms(self.fib), n));
        l.set("sim.run_ms", per(ms(self.run), n));
        l.set("sim.events", per(self.events as f64, n));
        l.set("sim.pauses_sent", per(self.pauses as f64, n));
        l.set("sim.episodes", per(self.episodes as f64, n));
        l.set("sim.watchdog_trips", per(self.trips as f64, n));
        l.set("sim.recoveries", per(self.recoveries as f64, n));
        l.set(
            "trace.unaccounted_ms",
            per(ms(self.program) - ms(accounted), n),
        );
        l.set(
            "trace.overhead_pct",
            100.0 * self.mirror.as_secs_f64() / self.program.as_secs_f64(),
        );
        l
    }
}

/// The fabric and tables `instantiate` builds for a point, rebuilt by
/// the same public calls so each can be timed on its own.
fn mirror_children(s: &Scenario, point: &BTreeMap<String, u64>, t: &mut Trace) -> Topology {
    let clock = Instant::now();
    let topo = match &s.topo {
        TopoSpec::ClosHosts(n) => clos_for_hosts(n.resolve(point).unwrap_or(0)).build(),
        _ => ClosConfig::small().build(),
    };
    t.build += clock.elapsed();
    let clock = Instant::now();
    if let TaggerMode::Bounces(k) = &s.tagger {
        let k = k.resolve(point).unwrap_or(0) as usize;
        std::hint::black_box(clos_tagging(&topo, k).ok());
    }
    t.tagging += clock.elapsed();
    let clock = Instant::now();
    std::hint::black_box(Fib::shortest_path(&topo, &FailureSet::none()));
    t.fib += clock.elapsed();
    topo
}

/// One program execution (`run_scenario`) and one mirrored execution of
/// the same text; every point's simulator counters must agree.
fn traced_once(
    text: &str,
    opts: &RunOptions,
    t: &mut Trace,
    out: &mut RunOutput,
) -> Result<(), String> {
    let clock = Instant::now();
    let program = run_scenario(text, "bench.scn", opts).map_err(|e| e.to_string())?;
    t.program += clock.elapsed();
    if let Some(e) = &program.error {
        return Err(e.clone());
    }

    let mirrored = Instant::now();
    let clock = Instant::now();
    let s = parse(text).map_err(|e| e.to_string())?;
    t.parse += clock.elapsed();
    let grid = points(&s);
    if grid.len() != program.points.len() {
        return Err("mirror expanded a different sweep grid".into());
    }
    for (point, theirs) in grid.iter().zip(&program.points) {
        let topo = mirror_children(&s, point, t);
        let clock = Instant::now();
        let mut exp = instantiate(&s, point, opts).map_err(|e| e.to_string())?;
        t.instantiate += clock.elapsed();
        if exp.sim.topo().num_nodes() != topo.num_nodes()
            || exp.sim.topo().num_links() != topo.num_links()
        {
            return Err(format!("{point:?}: mirrored fabric differs"));
        }
        let clock = Instant::now();
        let report = exp.sim.run();
        t.run += clock.elapsed();
        let clock = Instant::now();
        let asserts = evaluate(&s, point, &report);
        t.asserts += clock.elapsed();
        let ours = PointMetrics::from_report(&report);
        if ours != theirs.metrics {
            return Err(format!("{point:?}: mirrored simulator counters differ"));
        }
        out.attempted += asserts.len() as u64;
        for a in asserts.iter().filter(|a| !a.pass) {
            out.failures.push(format!(
                "{point:?}: assert {} failed: {}",
                a.label, a.detail
            ));
        }
        t.events += ours.events_processed;
        t.pauses += ours.pauses_sent;
        t.episodes += ours.episodes;
        t.trips += ours.watchdog_trips;
        t.recoveries += ours.recoveries;
    }
    t.mirror += mirrored.elapsed();
    t.execs += 1;
    Ok(())
}

/// Seed-deterministic counters of one whole scenario.
pub fn counters(workload: Workload, seed: u64) -> Result<BTreeMap<&'static str, u64>, String> {
    let text = workload.text(seed)?;
    let exec = execute(&text, &options(seed))?;
    if let Some(first) = exec.failures.first() {
        return Err(first.clone());
    }
    let sum = |f: fn(&PointMetrics) -> u64| exec.metrics.iter().map(f).sum::<u64>();
    Ok(BTreeMap::from([
        ("points", exec.metrics.len() as u64),
        ("input_digest", fnv1a(FNV_OFFSET, text.as_bytes())),
        ("sim_events", sum(|m| m.events_processed)),
        ("delivered_bytes", sum(|m| m.delivered_bytes)),
        ("pauses_sent", sum(|m| m.pauses_sent)),
        ("lossless_drops", sum(|m| m.lossless_drops)),
        ("lossy_drops", sum(|m| m.lossy_drops)),
        ("watchdog_trips", sum(|m| m.watchdog_trips)),
        ("episodes", sum(|m| m.episodes)),
        ("recoveries", sum(|m| m.recoveries)),
        ("asserts", exec.asserts),
    ]))
}
