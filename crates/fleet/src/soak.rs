//! The chaos-soak harness: dozens of fabrics, each under its own seeded
//! fault schedule, driven concurrently through one fleet — then graded.
//!
//! The drill is the fleet's pre-deployment gate. Every fabric gets a
//! distinct seeded event schedule (flap storms, bounded concurrent link
//! failures, watchdog trips/clears, resyncs) *and* a distinct seeded
//! chaos schedule on its southbound, the streams are interleaved through
//! the bounded fair ingest front, and at the end every fabric must be:
//!
//! - **certified** — a fresh independent auditor re-proves the final
//!   committed tables deadlock-free (Theorem 5.1, decompiled from TCAM);
//! - **recoverable** — replaying its journal from disk reconverges to
//!   the live epoch and tables with no unprocessed tail;
//! - **quarantine-consistent** — the recovered quarantine set equals the
//!   live one;
//! - **converged** — the (chaotic) southbound's tables equal the
//!   committed snapshot.
//!
//! Every schedule ends with a healing tail (links restored, quarantines
//! cleared, final resync), so "ready" is decidable: an unhealed fabric
//! would legitimately carry quarantines. The [`ReadinessReport`] carries
//! only seed-deterministic fields, so its rendering is byte-stable given
//! a seed — CI pins one and diffs.

use crate::error::FleetError;
use crate::fabric::FabricSpec;
use crate::registry::{Fleet, FleetConfig};
use crate::report::FleetReport;
use rand::{rngs::StdRng, RngExt, SeedableRng};
use std::fmt::Write as _;
use std::path::PathBuf;
use tagger_ctrl::{ChaosConfig, CtrlEvent, Damping};
use tagger_topo::{ClosConfig, Topology};

/// Soak drill parameters.
#[derive(Clone, Debug)]
pub struct SoakConfig {
    /// Fabrics to register (each with its own seeded schedules).
    pub fabrics: usize,
    /// Master seed; fabric seeds derive from it, so one number pins the
    /// whole drill.
    pub seed: u64,
    /// Approximate events generated per fabric (the healing tail adds a
    /// few more).
    pub events_per_fabric: usize,
    /// Southbound chaos refusal rate (timeout/partial rates follow
    /// [`ChaosConfig::new`]).
    pub fail_rate: f64,
    /// Journal directory for the drill.
    pub dir: PathBuf,
}

impl SoakConfig {
    /// The CI drill: 8 fabrics, 48 events each, 25% chaos, rooted at
    /// `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        SoakConfig {
            fabrics: 8,
            seed: 1,
            events_per_fabric: 48,
            fail_rate: 0.25,
            dir: dir.into(),
        }
    }
}

/// One fabric's final grade.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FabricReadiness {
    /// Fabric name.
    pub name: String,
    /// Events the schedule fed it.
    pub ingested: u64,
    /// Damped batches processed.
    pub batches: u64,
    /// Epochs committed.
    pub commits: u64,
    /// Batches rolled back.
    pub rollbacks: u64,
    /// Southbound faults its chaos schedule injected.
    pub faults_injected: u64,
    /// Commits the riding audit refused to certify (must be 0).
    pub audit_violations: u64,
    /// Final tables re-certified by a fresh independent auditor.
    pub certified: bool,
    /// Journal replays to the live epoch/tables with no tail.
    pub recoverable: bool,
    /// Recovered quarantines equal live quarantines.
    pub quarantine_consistent: bool,
    /// Southbound tables equal the committed snapshot.
    pub converged: bool,
}

impl FabricReadiness {
    /// All four gates plus a clean audit trail.
    pub fn ready(&self) -> bool {
        self.audit_violations == 0
            && self.certified
            && self.recoverable
            && self.quarantine_consistent
            && self.converged
    }
}

/// The drill's verdict: per-fabric grades plus the knobs that produced
/// them. Rendering is byte-stable given the config (every field is
/// seed-deterministic; no wall-clock values).
#[derive(Clone, Debug)]
pub struct ReadinessReport {
    /// Master seed the drill ran under.
    pub seed: u64,
    /// Chaos refusal rate.
    pub fail_rate: f64,
    /// Per-fabric grades, in fabric-id order.
    pub fabrics: Vec<FabricReadiness>,
}

impl ReadinessReport {
    /// True when every fabric passed every gate.
    pub fn all_ready(&self) -> bool {
        self.fabrics.iter().all(FabricReadiness::ready)
    }

    /// Fabrics that passed.
    pub fn ready_count(&self) -> usize {
        self.fabrics.iter().filter(|f| f.ready()).count()
    }

    /// The byte-stable text report CI asserts on.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "tagger-fleetd readiness report (seed {}, fail_rate {:.2}, {} fabrics)",
            self.seed,
            self.fail_rate,
            self.fabrics.len()
        );
        for f in &self.fabrics {
            let yn = |b: bool| if b { "yes" } else { "NO" };
            let _ = writeln!(
                out,
                "  {:<10} ingested {:>4}  batches {:>4}  commits {:>4}  rollbacks {:>3}  \
                 faults {:>4}  certified {}  recoverable {}  quarantine-consistent {}  \
                 converged {}  {}",
                f.name,
                f.ingested,
                f.batches,
                f.commits,
                f.rollbacks,
                f.faults_injected,
                yn(f.certified),
                yn(f.recoverable),
                yn(f.quarantine_consistent),
                yn(f.converged),
                if f.ready() { "READY" } else { "NOT-READY" },
            );
        }
        let _ = writeln!(
            out,
            "verdict: {}/{} fabrics ready — {}",
            self.ready_count(),
            self.fabrics.len(),
            if self.all_ready() {
                "FLEET CERTIFIED"
            } else {
                "FLEET NOT READY"
            }
        );
        out
    }
}

/// Everything the drill produced: the verdict, the final fleet snapshot
/// (for metrics rollups and latency series), and the drained fleet
/// itself for further inspection.
pub struct SoakOutcome {
    /// The graded verdict.
    pub readiness: ReadinessReport,
    /// Final fleet snapshot (metrics, latencies — the bench's raw data).
    pub snapshot: FleetReport,
    /// Total fair drain cycles the drill ran.
    pub drain_cycles: u64,
}

/// Derives fabric `i`'s private seed from the master seed
/// (SplitMix64-style, so neighbouring fabrics get unrelated streams).
/// The soak drill, the network ingest drill and its bench all derive
/// per-fabric schedule and client seeds with it.
pub fn fabric_seed(master: u64, i: u64) -> u64 {
    let mut z = master.wrapping_add(i.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Generates one fabric's seeded soak schedule over `topo`:
/// `events_per_fabric` events of mixed kinds, then a healing tail that
/// restores every downed link, clears every quarantine, and resyncs.
///
/// This is the scenario library's `baseline` mix
/// ([`tagger_scenario::schedule`]) — the generator lives there so
/// `.scn`-driven drills and the fleet daemon draw from the same seeded
/// streams. Invariants (at most 2 links down, at most 1 quarantine,
/// exact healing tail) are the library's contract.
pub fn soak_schedule(topo: &Topology, seed: u64, events: usize) -> Vec<CtrlEvent> {
    let baseline = tagger_scenario::schedule::by_name("baseline")
        .expect("scenario schedule library always ships a baseline mix");
    tagger_scenario::schedule::events(baseline, topo, seed, events)
}

/// Fabric `mix_index`'s seeded schedule: `events` events of the
/// scenario library's mix number `mix_index` (cycling through the
/// library), healing tail included.
fn mix_events(topo: &Topology, seed: u64, mix_index: usize, events: usize) -> Vec<CtrlEvent> {
    let mixes = tagger_scenario::schedule::library();
    tagger_scenario::schedule::events(&mixes[mix_index % mixes.len()], topo, seed, events)
}

/// One fabric's seeded schedule — mix number `mix_index` of the
/// scenario library, as [`run_soak`] draws it — rendered as
/// `<fabric>: <trace-line>` wire lines, the stream format
/// `tagger-fleetd ingest` and the network ingest front read.
pub fn schedule_lines(
    topo: &Topology,
    name: &str,
    seed: u64,
    mix_index: usize,
    events: usize,
) -> Vec<String> {
    mix_events(topo, seed, mix_index, events)
        .iter()
        .map(|e| format!("{name}: {}", e.trace_line(topo)))
        .collect()
}

/// Runs the drill: registers `cfg.fabrics` fabrics (each with a derived
/// seed for both its event schedule and its chaos southbound),
/// interleaves all schedules through the bounded fair ingest front —
/// draining as it goes, exactly like the live daemon — then drains to
/// empty and grades every fabric.
pub fn run_soak(cfg: &SoakConfig) -> Result<SoakOutcome, FleetError> {
    let topo = ClosConfig::small().build();
    let mut fleet_cfg = FleetConfig::new(&cfg.dir);
    fleet_cfg.queue_cap = cfg.events_per_fabric + 16;
    let mut fleet = Fleet::new(fleet_cfg);

    // Distinct damping policies across the fleet: the drill should
    // exercise all of them, and per-fabric damping must not leak across
    // fabrics.
    let dampings = [Damping::Flap, Damping::FlapCapped(4), Damping::None];
    // Event mixes cycle through the scenario library, so one drill
    // exercises every shipped storm profile (baseline, flap-storm,
    // partition-prone, watchdog-churn) across the fleet.
    let mut schedules: Vec<(String, Vec<CtrlEvent>)> = Vec::with_capacity(cfg.fabrics);
    for i in 0..cfg.fabrics {
        let seed = fabric_seed(cfg.seed, i as u64);
        let name = format!("soak-{i}");
        let spec = FabricSpec::new(&name, topo.clone())
            .with_chaos(ChaosConfig::new(seed, cfg.fail_rate))
            .with_damping(dampings[i % dampings.len()]);
        fleet.register(spec)?;
        schedules.push((name, mix_events(&topo, seed, i, cfg.events_per_fabric)));
    }

    // Interleave: each round feeds every fabric a small seeded slice of
    // its schedule, then runs one fair drain cycle — so fabrics make
    // progress while others are still ingesting, like the live daemon.
    let mut cursor = vec![0usize; schedules.len()];
    let mut mix = StdRng::seed_from_u64(cfg.seed ^ 0x50AC);
    let mut drain_cycles = 0u64;
    loop {
        let mut fed = false;
        for (i, (name, schedule)) in schedules.iter().enumerate() {
            let chunk = mix.random_range(1..4usize);
            for _ in 0..chunk {
                if cursor[i] < schedule.len() {
                    fleet.ingest(name, schedule[cursor[i]].clone())?;
                    cursor[i] += 1;
                    fed = true;
                }
            }
        }
        fleet.drain_cycle()?;
        drain_cycles += 1;
        if !fed {
            break;
        }
    }
    while fleet.drain_cycle()? > 0 {
        drain_cycles += 1;
    }

    let mut fabrics = Vec::with_capacity(fleet.len());
    for fabric in fleet.fabrics() {
        let (recoverable, quarantine_consistent) = fabric.verify_recovery();
        fabrics.push(FabricReadiness {
            name: fabric.name().to_string(),
            ingested: fabric.ingested(),
            batches: fabric.batches(),
            commits: fabric.commits(),
            rollbacks: fabric.rollbacks(),
            faults_injected: fabric.faults_injected(),
            audit_violations: fabric.audit_violations(),
            certified: fabric.certify(),
            recoverable,
            quarantine_consistent,
            converged: fabric.converged(),
        });
    }
    Ok(SoakOutcome {
        readiness: ReadinessReport {
            seed: cfg.seed,
            fail_rate: cfg.fail_rate,
            fabrics,
        },
        snapshot: fleet.snapshot(),
        drain_cycles,
    })
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("tagger-soak-{}-{name}", std::process::id()))
    }

    #[test]
    fn schedules_are_seed_deterministic_and_healed() {
        let topo = ClosConfig::small().build();
        let a = soak_schedule(&topo, 7, 40);
        let b = soak_schedule(&topo, 7, 40);
        assert_eq!(a, b, "same seed must generate the same schedule");
        assert_ne!(a, soak_schedule(&topo, 8, 40));
        assert!(a.len() >= 40);
        assert_eq!(a.last(), Some(&CtrlEvent::Resync));
        // The tail heals: downs and ups balance, trips and clears balance.
        let mut down = std::collections::BTreeSet::new();
        let mut quarantine = std::collections::BTreeSet::new();
        for e in &a {
            match e {
                CtrlEvent::LinkDown(l) => {
                    down.insert(l.index());
                }
                CtrlEvent::LinkUp(l) => {
                    down.remove(&l.index());
                }
                trip @ CtrlEvent::WatchdogTrip { .. } => {
                    // Attribution redirects the quarantine; the heal
                    // balance is over effective targets.
                    let (switch, port, tag) = trip.effective_quarantine().unwrap();
                    quarantine.insert((switch.0, port.0, tag));
                }
                CtrlEvent::WatchdogClear { switch, port, tag } => {
                    quarantine.remove(&(switch.0, port.0, tag.0));
                }
                _ => {}
            }
        }
        assert!(down.is_empty(), "unhealed links: {down:?}");
        assert!(
            quarantine.is_empty(),
            "unhealed quarantines: {quarantine:?}"
        );
    }

    #[test]
    fn fabric_seeds_differ() {
        let seeds: std::collections::BTreeSet<u64> = (0..32).map(|i| fabric_seed(1, i)).collect();
        assert_eq!(seeds.len(), 32);
    }

    #[test]
    fn small_soak_certifies_every_fabric() {
        let dir = tmp("small");
        std::fs::remove_dir_all(&dir).ok();
        let mut cfg = SoakConfig::new(&dir);
        cfg.fabrics = 3;
        cfg.events_per_fabric = 16;
        cfg.seed = 42;
        let outcome = run_soak(&cfg).unwrap();
        assert!(
            outcome.readiness.all_ready(),
            "{}",
            outcome.readiness.render()
        );
        assert_eq!(outcome.readiness.fabrics.len(), 3);
        assert!(outcome.snapshot.ctrl_rollup.epochs_committed > 0);
        std::fs::remove_dir_all(&dir).ok();
    }
}
