//! The control-event path workloads: `fleet-churn` and `plan-wide`.
//!
//! Both drive seeded `<fabric>: <trace-line>` event lines the way the
//! ingest daemon does: each line crosses the wire codec
//! (`Msg::encode` → `Decoder` → `Msg::decode`), is admitted with
//! `Fleet::ingest_line`, and is applied by a fair drain cycle. The loop
//! is closed and runs on one thread: the next lines are offered only
//! after the previous drain returns, and a `QueueFull` refusal (the
//! ingest front's `Backpressure`) holds the line back for the next round.

use crate::gauge::Gauge;
use crate::stats::{self, Metric};
use crate::{fnv1a, mix_seed, ms, per, Layers, Mode, RunOutput, FNV_OFFSET};
use rand::{rngs::StdRng, seq::SliceRandom, RngExt, SeedableRng};
use std::collections::{BTreeMap, VecDeque};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use tagger_audit::Auditor;
use tagger_core::tcam::{Compression, TcamProgram};
use tagger_core::{RuleDelta, RuleSet, Tagging};
use tagger_ctrl::{
    recover, ChaosConfig, ChaosSouthbound, CtrlEvent, ElpPolicy, EpochOutcome, InstallPolicy,
    Journal, NetworkState, ReliableSouthbound, RollbackReason, Southbound,
};
use tagger_fleet::net::wire::{Decoder, Msg};
use tagger_fleet::{Damping, Fabric, FabricSpec, Fleet, FleetConfig, FleetError};
use tagger_topo::{ClosConfig, LinkId, NodeKind, Topology};

/// The two control workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// 8 small-Clos fabrics under chaos, mixed schedules and damping.
    FleetChurn,
    /// One wide fabric, capped 1-bounce ELP, single-link down/up events.
    PlanWide,
}

const CHURN_FABRICS: usize = 8;
/// Events per schedule round; every round ends with a healing tail.
const CHURN_ROUND: usize = 48;
const CHURN_FAIL_RATE: f64 = 0.25;
/// Most lines one fabric offers per round.
const MAX_CHUNK: usize = 3;
/// The four damping variants the churn fabrics cycle through.
const DAMPINGS: [Damping; 4] = [
    Damping::None,
    Damping::Flap,
    Damping::FlapCapped(2),
    Damping::FlapCapped(4),
];

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::FleetChurn => "fleet-churn",
            Workload::PlanWide => "plan-wide",
        }
    }

    fn topo(self) -> Topology {
        match self {
            Workload::FleetChurn => ClosConfig::small().build(),
            Workload::PlanWide => ClosConfig {
                pods: 2,
                leaves_per_pod: 4,
                tors_per_pod: 4,
                spines: 4,
                hosts_per_tor: 4,
            }
            .build(),
        }
    }

    fn specs(self, topo: &Topology, seed: u64) -> Vec<FabricSpec> {
        match self {
            Workload::FleetChurn => (0..CHURN_FABRICS)
                .map(|i| {
                    FabricSpec::new(format!("churn-{i}"), topo.clone())
                        .with_chaos(ChaosConfig::new(
                            mix_seed(seed, 100 + i as u64),
                            CHURN_FAIL_RATE,
                        ))
                        .with_damping(DAMPINGS[i % DAMPINGS.len()])
                })
                .collect(),
            Workload::PlanWide => {
                let mut spec = FabricSpec::new("wide", topo.clone());
                spec.policy = ElpPolicy::with_bounces(1).capped(4);
                vec![spec]
            }
        }
    }

    /// Setups timed per run; the median is `setup_s`.
    fn setups(self) -> usize {
        match self {
            Workload::FleetChurn => 5,
            Workload::PlanWide => 3,
        }
    }

    /// Lines one fabric may offer per round.
    fn chunk(self, rng: &mut StdRng) -> usize {
        match self {
            Workload::FleetChurn => rng.random_range(1..=MAX_CHUNK),
            Workload::PlanWide => 1,
        }
    }
}

/// Switch-to-switch links: the failures that reroute traffic.
fn trunks(topo: &Topology) -> Vec<LinkId> {
    topo.link_ids()
        .filter(|&l| {
            let link = topo.link(l);
            topo.node(link.a.node).kind == NodeKind::Switch
                && topo.node(link.b.node).kind == NodeKind::Switch
        })
        .collect()
}

/// One fabric's endless seeded stream of trace lines.
struct Source {
    fabric: String,
    kind: SourceKind,
    rng: StdRng,
    round: u64,
    seed: u64,
    pending: VecDeque<String>,
}

enum SourceKind {
    /// Rounds of a `tagger_scenario::schedule` mix, each healed.
    Mix(&'static tagger_scenario::ScheduleSpec),
    /// A random trunk goes down, then comes back up.
    DownUp(Vec<LinkId>),
}

impl Source {
    /// Generates lines until at least `n` are pending (outside any timed
    /// region).
    fn top_up(&mut self, topo: &Topology, n: usize) {
        while self.pending.len() < n {
            self.refill(topo);
        }
    }

    fn peek(&self) -> &str {
        self.pending.front().expect("topped up before the round")
    }

    fn advance(&mut self) {
        self.pending.pop_front();
    }

    fn refill(&mut self, topo: &Topology) {
        let events = match &self.kind {
            SourceKind::Mix(mix) => {
                let round_seed = mix_seed(self.seed, self.round);
                self.round += 1;
                tagger_scenario::schedule::events(mix, topo, round_seed, CHURN_ROUND)
            }
            SourceKind::DownUp(trunks) => {
                let link = *trunks.choose(&mut self.rng).expect("fabric has trunks");
                vec![CtrlEvent::LinkDown(link), CtrlEvent::LinkUp(link)]
            }
        };
        self.pending
            .extend(events.iter().map(|e| e.trace_line(topo)));
    }
}

fn sources(workload: Workload, topo: &Topology, specs: &[FabricSpec], seed: u64) -> Vec<Source> {
    let mixes = tagger_scenario::schedule::library();
    specs
        .iter()
        .enumerate()
        .map(|(i, spec)| Source {
            fabric: spec.name.clone(),
            kind: match workload {
                Workload::FleetChurn => SourceKind::Mix(&mixes[i % mixes.len()]),
                Workload::PlanWide => SourceKind::DownUp(trunks(topo)),
            },
            rng: StdRng::seed_from_u64(mix_seed(seed, 200 + i as u64)),
            round: 0,
            seed: mix_seed(seed, 300 + i as u64),
            pending: VecDeque::new(),
        })
        .collect()
}

/// Registers every fabric of the workload in a fresh fleet under `dir`.
fn build_fleet(specs: &[FabricSpec], dir: &Path) -> Result<Fleet, FleetError> {
    let mut fleet = Fleet::new(FleetConfig::new(dir));
    for spec in specs {
        fleet.register(spec.clone())?;
    }
    Ok(fleet)
}

/// Stage self times and counts gathered by the mirror.
#[derive(Debug, Default)]
struct Trace {
    apply: Duration,
    applies: u64,
    elp: Duration,
    paths: u64,
    tag: Duration,
    rules: u64,
    lossless_tags: u64,
    verify: Duration,
    compile: Duration,
    diff: Duration,
    delta_ops: u64,
    install: Duration,
    install_attempts: u64,
    install_retries: u64,
    journal: Duration,
    audit: Duration,
    audit_violations: u64,
    /// Wall time of the program's `drain` calls (the untraced epochs).
    drain: Duration,
    batches: u64,
    commits: u64,
    rollbacks: u64,
    flaps_damped: u64,
    ingest: Duration,
    codec: Duration,
    lines: u64,
    queue_wait_ms: Vec<f64>,
    /// Wall time spent in mirrored calls and their checks.
    mirror: Duration,
    recover: Duration,
    recovers: u64,
    /// Digest of every admitted line, in order.
    input_digest: u64,
}

impl Trace {
    /// Σ of the mirrored stage self times — what `drain` is accounted by.
    fn accounted(&self) -> Duration {
        self.apply
            + self.elp
            + self.tag
            + self.verify
            + self.compile
            + self.diff
            + self.install
            + self.journal
            + self.audit
    }
}

/// An independent re-execution of one fabric's epochs: the same public
/// calls the controller stages, fed the same inputs, with its own
/// southbound (same chaos seed), journal and auditor.
struct Mirror {
    topo: Topology,
    policy: ElpPolicy,
    checkpoint_every: u64,
    state: NetworkState,
    rules: RuleSet,
    southbound: Box<dyn Southbound>,
    journal: Journal,
    journal_path: PathBuf,
    auditor: Auditor,
    outcomes: u64,
}

impl Mirror {
    fn boot(fabric: &Fabric, journal_path: PathBuf) -> Result<Mirror, String> {
        let spec = fabric.spec();
        let rules = fabric.controller().committed().rules.clone();
        let mut southbound: Box<dyn Southbound> = match spec.chaos {
            Some(cfg) => Box::new(ChaosSouthbound::new(cfg)),
            None => Box::new(ReliableSouthbound::new()),
        };
        southbound.bootstrap(&rules);
        let mut auditor = Auditor::new(spec.topo.clone());
        auditor.audit(0, &rules);
        Ok(Mirror {
            topo: spec.topo.clone(),
            policy: spec.policy,
            checkpoint_every: spec.checkpoint_every,
            state: NetworkState::initial(),
            rules,
            southbound,
            journal: Journal::create(&journal_path).map_err(|e| e.to_string())?,
            journal_path,
            auditor,
            outcomes: 0,
        })
    }

    /// Mirrors one damped batch the fabric just drained with `outcome`,
    /// and checks the mirrored stages reproduce it.
    fn epoch(
        &mut self,
        batch: &[CtrlEvent],
        outcome: &EpochOutcome,
        fabric: &Fabric,
        t: &mut Trace,
    ) -> Result<(), String> {
        let name = fabric.name();
        let clock = Instant::now();
        for event in batch {
            self.journal
                .record_event(&self.topo, event)
                .map_err(|e| e.to_string())?;
        }
        t.journal += clock.elapsed();

        let mut staged = self.state.clone();
        for event in batch {
            let clock = Instant::now();
            staged
                .apply(&self.topo, event)
                .map_err(|e| format!("{name}: mirrored apply failed: {e}"))?;
            t.apply += clock.elapsed();
            t.applies += 1;
        }

        let clock = Instant::now();
        let elp = self.policy.elp_for(&self.topo, &staged);
        t.elp += clock.elapsed();
        t.paths += elp.len() as u64;

        let clock = Instant::now();
        let tagging = Tagging::from_elp(&self.topo, &elp);
        t.tag += clock.elapsed();

        // `None` when the mirrored stage refuses the epoch (the
        // controller's VerifyFailed rollback).
        let staged_ok = match tagging {
            Err(_) => None,
            Ok(tagging) => {
                let clock = Instant::now();
                let verified = tagging.graph().verify();
                t.verify += clock.elapsed();
                if verified.is_err() {
                    None
                } else {
                    let clock = Instant::now();
                    let tcam =
                        TcamProgram::compile(&self.topo, tagging.rules(), Compression::Joint);
                    black_box(tcam.max_entries_per_switch());
                    t.compile += clock.elapsed();

                    let clock = Instant::now();
                    let deltas = self.rules.diff(tagging.rules());
                    t.diff += clock.elapsed();
                    Some((tagging, deltas))
                }
            }
        };

        let epoch = fabric.controller().committed().epoch;
        match (outcome, staged_ok) {
            (EpochOutcome::Committed(report), Some((tagging, deltas))) => {
                let clock = Instant::now();
                let (landed, attempts, retries) = self.install(epoch, &deltas);
                t.install += clock.elapsed();
                t.install_attempts += attempts;
                t.install_retries += retries;
                t.delta_ops += deltas.iter().map(RuleDelta::len).sum::<usize>() as u64;
                t.rules += tagging.rules().num_rules() as u64;
                let lossless = tagging.num_lossless_tags_on(&self.topo);
                t.lossless_tags += lossless as u64;
                let same = landed
                    && report.deltas == deltas
                    && report.lossless_tags == lossless
                    && report.elp_paths == elp.len()
                    && report.install_attempts == attempts
                    && report.epoch == epoch
                    && fabric.controller().committed().rules == *tagging.rules()
                    && fabric.controller().state() == &staged
                    && self.southbound.fleet() == tagging.rules();
                if !same {
                    return Err(format!(
                        "{name}: epoch {epoch}: mirrored stages differ from the committed epoch"
                    ));
                }
                self.record_outcome(outcome, batch.len(), fabric, t)?;
                let clock = Instant::now();
                let audit = self.auditor.audit(epoch, tagging.rules());
                t.audit += clock.elapsed();
                if !audit.is_certified() {
                    t.audit_violations += 1;
                }
                self.state = staged;
                self.rules = tagging.rules().clone();
                self.checkpoint(fabric, t)?;
            }
            (EpochOutcome::RolledBack { reason, .. }, staged_ok) => {
                let mirrored_reason_matches = match (reason, staged_ok) {
                    (RollbackReason::VerifyFailed(_), None) => true,
                    (RollbackReason::InstallAborted { .. }, Some((_, deltas))) => {
                        let clock = Instant::now();
                        let (landed, attempts, retries) = self.install(epoch + 1, &deltas);
                        t.install += clock.elapsed();
                        t.install_attempts += attempts;
                        t.install_retries += retries;
                        !landed
                    }
                    _ => false,
                };
                if !mirrored_reason_matches
                    || fabric.controller().state() != &self.state
                    || self.southbound.fleet() != &self.rules
                {
                    return Err(format!(
                        "{name}: rollback after epoch {epoch} not reproduced by the mirror"
                    ));
                }
                self.record_outcome(outcome, batch.len(), fabric, t)?;
                self.checkpoint(fabric, t)?;
            }
            (EpochOutcome::Committed(_), None) => {
                return Err(format!(
                    "{name}: epoch {epoch} committed but the mirrored stages refused it"
                ));
            }
        }
        Ok(())
    }

    fn record_outcome(
        &mut self,
        outcome: &EpochOutcome,
        batch: usize,
        fabric: &Fabric,
        t: &mut Trace,
    ) -> Result<(), String> {
        let clock = Instant::now();
        self.journal
            .record_outcome(outcome, batch)
            .map_err(|e| format!("{}: {e}", fabric.name()))?;
        t.journal += clock.elapsed();
        self.outcomes += 1;
        Ok(())
    }

    fn checkpoint(&mut self, fabric: &Fabric, t: &mut Trace) -> Result<(), String> {
        if self.checkpoint_every == 0 || !self.outcomes.is_multiple_of(self.checkpoint_every) {
            return Ok(());
        }
        // The journal reads the committed state off a controller; a clone
        // of the fabric's (now identical to the mirror's) serves.
        let mut ctrl = fabric.controller().clone();
        let clock = Instant::now();
        self.journal
            .checkpoint(&mut ctrl)
            .map_err(|e| format!("{}: {e}", fabric.name()))?;
        t.journal += clock.elapsed();
        Ok(())
    }

    /// The controller's install discipline: per-switch retries under the
    /// default policy; on an exhausted switch every touched switch is
    /// forced back to the committed tables. Returns (landed, attempts
    /// counted against the epoch, retries).
    fn install(&mut self, epoch: u64, deltas: &[RuleDelta]) -> (bool, u64, u64) {
        let policy = InstallPolicy::default();
        let (mut attempts, mut retries) = (0u64, 0u64);
        for (i, delta) in deltas.iter().enumerate() {
            let mut attempt = 0u32;
            loop {
                attempt += 1;
                attempts += 1;
                match self.southbound.install(epoch, delta) {
                    Ok(()) => break,
                    Err(e) if e.is_retryable() && attempt < policy.max_attempts.max(1) => {
                        retries += 1;
                    }
                    Err(_) => {
                        for undo in &deltas[..=i] {
                            while self.southbound.install(epoch - 1, &undo.inverse()).is_err() {}
                        }
                        return (false, attempts, retries);
                    }
                }
            }
        }
        (true, attempts, retries)
    }
}

/// How long a drive goes on.
#[derive(Clone, Copy)]
enum Limit {
    /// Until this much drive time has passed (checked between rounds).
    Time(Duration),
    /// Until this many rounds have run.
    Rounds(u64),
}

/// What a drive measured.
#[derive(Default)]
struct Drive {
    /// Lines admitted (each once; refused lines are offered again).
    offered: u64,
    /// `QueueFull` refusals absorbed.
    backpressure: u64,
    rounds: u64,
    /// Wall time of the program's work in the rounds: codec, ingest and
    /// drain.
    wall: Duration,
    /// Per applied event: admission to the return of the drain call
    /// that applied it.
    commit_ms: Vec<f64>,
    /// Untraced only: `commit_ms` and the rounds' wall time, scaled to
    /// the gauge's reference speed.
    scaled_commit_ms: Vec<f64>,
    scaled_wall: Duration,
    /// Untraced only: the host-speed probes taken between rounds.
    probes: Vec<f64>,
    /// Epochs that failed a fresh audit (`plan-wide` checks every one).
    uncertified: Vec<String>,
}

/// Round-trips one event line through the ingest wire codec, as the
/// network front receives it.
fn codec(line: String, seq: u64, decoder: &mut Decoder) -> Result<String, String> {
    decoder.extend(&Msg::Event { line }.encode(seq));
    let frame = decoder
        .next_frame()
        .ok_or("codec: encoded frame did not decode")?;
    match Msg::decode(&frame) {
        Ok(Msg::Event { line }) => Ok(line),
        other => Err(format!("codec: unexpected message {other:?}")),
    }
}

/// Drives the fleet in closed-loop rounds: every fabric offers a seeded
/// chunk of lines, then the fleet drains. With `mirrors`, each fabric
/// instead drains one batch per call — the fleet's suffix-closed damping
/// makes those the batches `drain_cycle` would form — and every batch is
/// mirrored and checked.
fn drive(
    workload: Workload,
    fleet: &mut Fleet,
    sources: &mut [Source],
    rng: &mut StdRng,
    limit: Limit,
    mut mirrors: Option<(&mut [Mirror], &mut Trace)>,
) -> Result<Drive, String> {
    let topo = fleet.fabrics()[0].topo().clone();
    let quantum = fleet.config().drain_quantum.max(1);
    let mut d = Drive::default();
    let mut gauge = mirrors.is_none().then(Gauge::start);
    let mut decoder = Decoder::new();
    let mut seq = 0u64;
    // Per fabric: admit times of admitted, not yet applied events, and
    // (traced only) the events themselves.
    let mut admitted: Vec<VecDeque<Instant>> = vec![VecDeque::new(); sources.len()];
    let mut pending: Vec<VecDeque<CtrlEvent>> = vec![VecDeque::new(); sources.len()];
    loop {
        for src in sources.iter_mut() {
            src.top_up(&topo, MAX_CHUNK);
        }
        let round_start = Instant::now();
        for (i, src) in sources.iter_mut().enumerate() {
            for _ in 0..workload.chunk(rng) {
                let line = format!("{}: {}", src.fabric, src.peek());
                seq += 1;
                let clock = Instant::now();
                let received = codec(line, seq, &mut decoder)?;
                let (fabric, rest) = received.split_once(':').ok_or("codec: lost fabric")?;
                let (fabric, rest) = (fabric.trim(), rest.trim());
                let decoded = Instant::now();
                let result = fleet.ingest_line(fabric, rest);
                let now = Instant::now();
                match result {
                    Ok(n) => {
                        d.offered += 1;
                        admitted[i].extend(std::iter::repeat_n(now, n));
                        if let Some((_, t)) = mirrors.as_mut() {
                            t.codec += decoded - clock;
                            t.ingest += now - decoded;
                            t.lines += 1;
                            t.input_digest = fnv1a(t.input_digest, received.as_bytes());
                            let events = tagger_ctrl::parse_trace(&topo, rest)
                                .map_err(|e| format!("{fabric}: {e}"))?;
                            pending[i].extend(events);
                        }
                        src.advance();
                    }
                    Err(FleetError::QueueFull { .. }) => {
                        d.backpressure += 1;
                        break;
                    }
                    Err(e) => return Err(format!("{fabric}: ingest: {e}")),
                }
            }
        }
        match mirrors.as_mut() {
            None => {
                let before: Vec<usize> = fleet.fabrics().iter().map(Fabric::queued).collect();
                fleet.drain_cycle().map_err(|e| e.to_string())?;
                let done = Instant::now();
                let scale = gauge.as_mut().map_or(1.0, Gauge::scale);
                d.wall += done - round_start;
                d.scaled_wall += (done - round_start).mul_f64(scale);
                for (i, fabric) in fleet.fabrics().iter().enumerate() {
                    for at in admitted[i].drain(..before[i] - fabric.queued()) {
                        d.commit_ms.push(ms(done - at));
                        d.scaled_commit_ms.push(ms(done - at) * scale);
                    }
                }
            }
            Some((mirrors, t)) => {
                let mut program = round_start.elapsed();
                for (i, mirror) in mirrors.iter_mut().enumerate() {
                    let name = &sources[i].fabric;
                    for _ in 0..quantum {
                        let fabric = fleet.fabric_mut(name).map_err(|e| e.to_string())?;
                        let before = fabric.queued();
                        if before == 0 {
                            break;
                        }
                        let clock = Instant::now();
                        let outcomes = fabric.drain(1).map_err(|e| e.to_string())?;
                        let done = Instant::now();
                        t.drain += done - clock;
                        program += done - clock;
                        let taken = before - fabric.queued();
                        for at in admitted[i].drain(..taken) {
                            t.queue_wait_ms.push(ms(clock - at));
                            d.commit_ms.push(ms(done - at));
                        }
                        let batch: Vec<CtrlEvent> = pending[i].drain(..taken).collect();
                        let [outcome] = outcomes.as_slice() else {
                            return Err(format!("{name}: drain(1) must yield one outcome"));
                        };
                        t.batches += 1;
                        t.flaps_damped += taken as u64 - 1;
                        match outcome {
                            EpochOutcome::Committed(_) => t.commits += 1,
                            EpochOutcome::RolledBack { .. } => t.rollbacks += 1,
                        }
                        let mirrored = Instant::now();
                        let fabric = fleet.fabric(name).map_err(|e| e.to_string())?;
                        mirror.epoch(&batch, outcome, fabric, t)?;
                        t.mirror += mirrored.elapsed();
                    }
                }
                d.wall += program;
            }
        }
        d.rounds += 1;
        if admitted.iter().any(|q| !q.is_empty()) {
            return Err("a fair drain cycle left admitted events queued".into());
        }
        if workload == Workload::PlanWide {
            // Every epoch's tables must pass a fresh, independent audit.
            for fabric in fleet.fabrics() {
                if !fabric.certify() {
                    d.uncertified.push(format!(
                        "{}: epoch {} failed a fresh audit",
                        fabric.name(),
                        fabric.controller().committed().epoch
                    ));
                }
            }
        }
        let done = match limit {
            Limit::Time(budget) => {
                // A traced run's budget covers its mirror work too.
                let mirror = mirrors.as_ref().map_or(Duration::ZERO, |(_, t)| t.mirror);
                d.wall + mirror >= budget
            }
            Limit::Rounds(n) => d.rounds >= n,
        };
        if done {
            if let Some(g) = gauge {
                d.probes = g.probes().to_vec();
            }
            return Ok(d);
        }
    }
}

/// Counts the events a journal recorded and the events its outcome
/// markers resolved.
fn journal_counts(text: &str) -> (u64, u64) {
    let mut events = 0;
    let mut resolved = 0;
    for line in text.lines() {
        if line.starts_with("event ") {
            events += 1;
        } else if let Some(n) = line
            .strip_prefix("!ok ")
            .or_else(|| line.strip_prefix("!rollback "))
        {
            resolved += n.trim().parse::<u64>().unwrap_or(0);
        }
    }
    (events, resolved)
}

/// The readiness gates every control run must end on: each fabric
/// certified by a fresh auditor, zero riding-audit violations,
/// recoverable from its journal with a consistent quarantine set,
/// converged southbound, and every admitted event journaled and resolved
/// exactly once. With a trace, recovery is timed.
fn grade(fleet: &Fleet, d: &Drive, mut trace: Option<&mut Trace>, failures: &mut Vec<String>) {
    failures.extend(d.uncertified.iter().cloned());
    let mut ingested = 0;
    for fabric in fleet.fabrics() {
        let name = fabric.name();
        ingested += fabric.ingested();
        if fabric.audit_violations() > 0 {
            failures.push(format!(
                "{name}: {} audit violations",
                fabric.audit_violations()
            ));
        }
        if !fabric.certify() {
            failures.push(format!("{name}: final tables not certified"));
        }
        if !fabric.converged() {
            failures.push(format!(
                "{name}: southbound diverged from the committed tables"
            ));
        }
        if fabric.queued() > 0 {
            failures.push(format!("{name}: {} events never drained", fabric.queued()));
        }
        let (recoverable, quarantine_consistent) = match trace.as_mut() {
            None => fabric.verify_recovery(),
            Some(t) => {
                let spec = fabric.spec();
                let clock = Instant::now();
                let rec = recover(
                    fabric.journal_path(),
                    spec.topo.clone(),
                    spec.policy,
                    spec.tcam_budget,
                );
                t.recover += clock.elapsed();
                t.recovers += 1;
                let live = fabric.controller();
                match rec {
                    Ok(rec) => (
                        rec.tail.is_empty()
                            && rec.controller.committed().epoch == live.committed().epoch
                            && rec.controller.committed().rules == live.committed().rules,
                        rec.controller.state().quarantines == live.state().quarantines,
                    ),
                    Err(_) => (false, false),
                }
            }
        };
        if !recoverable {
            failures.push(format!("{name}: journal does not recover the live tables"));
        }
        if !quarantine_consistent {
            failures.push(format!("{name}: recovered quarantines differ"));
        }
        match std::fs::read_to_string(fabric.journal_path()) {
            Ok(text) => {
                let (events, resolved) = journal_counts(&text);
                if events != fabric.ingested() || resolved != events {
                    failures.push(format!(
                        "{name}: {} events admitted, {events} journaled, {resolved} resolved",
                        fabric.ingested()
                    ));
                }
            }
            Err(e) => failures.push(format!("{name}: cannot read journal: {e}")),
        }
    }
    if ingested != d.commit_ms.len() as u64 {
        failures.push(format!(
            "{ingested} events admitted but {} applied",
            d.commit_ms.len()
        ));
    }
}

/// Times `workload.setups()` fleet registrations, each in a fresh
/// directory, and keeps the last fleet.
fn setup(
    workload: Workload,
    specs: &[FabricSpec],
    work: &Path,
) -> Result<(Fleet, Vec<f64>), String> {
    let mut times = Vec::new();
    let mut fleet = None;
    let mut gauge = Gauge::start();
    for k in 0..workload.setups() {
        let dir = work.join(format!("fleet-{k}"));
        let clock = Instant::now();
        let built = build_fleet(specs, &dir).map_err(|e| e.to_string())?;
        let elapsed = clock.elapsed().as_secs_f64();
        times.push(elapsed * gauge.scale());
        if let Some(old) = fleet.replace(built) {
            let old_dir = old.config().dir.clone();
            drop(old);
            std::fs::remove_dir_all(old_dir).ok();
        }
    }
    Ok((fleet.ok_or("no setup ran")?, times))
}

/// Runs a control workload for `seconds` of drive time.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    mode: Mode,
    work: &Path,
) -> Result<RunOutput, String> {
    let topo = workload.topo();
    let specs = workload.specs(&topo, seed);
    let (mut fleet, setup_times) = setup(workload, &specs, work)?;
    let mut sources = sources(workload, &topo, &specs, seed);
    let mut rng = StdRng::seed_from_u64(mix_seed(seed, 1));
    let limit = Limit::Time(Duration::from_secs_f64(seconds));
    let mut out = RunOutput::default();
    match mode {
        Mode::Untraced => {
            let d = drive(workload, &mut fleet, &mut sources, &mut rng, limit, None)?;
            grade(&fleet, &d, None, &mut out.failures);
            out.attempted = d.offered;
            let applied = d.commit_ms.len();
            let p50 = stats::median(&d.scaled_commit_ms);
            out.metrics = vec![
                Metric::new("setup_s", stats::median(&setup_times), "s"),
                Metric::new(
                    "events_per_s",
                    applied as f64 / d.scaled_wall.as_secs_f64(),
                    "1/s",
                ),
                Metric::new("latency_p50_ms", p50, "ms"),
                Metric::new("peak_rss_mb", stats::peak_rss_mb(), "MB"),
            ];
            out.report.push(Metric::new("commit_p50_ms", p50, "ms"));
            if let Some(p) = stats::supported_tail(applied) {
                out.report.push(Metric::new(
                    format!("commit_p{p}_ms"),
                    stats::percentile(&d.scaled_commit_ms, p),
                    "ms",
                ));
            }
            out.report.extend([
                Metric::new("commit_samples", applied as f64, "count"),
                Metric::new("raw_commit_p50_ms", stats::median(&d.commit_ms), "ms"),
                Metric::new(
                    "raw_events_per_s",
                    applied as f64 / d.wall.as_secs_f64(),
                    "1/s",
                ),
                Metric::new("probe_p50_ms", stats::median(&d.probes), "ms"),
                Metric::new("drive_s", d.wall.as_secs_f64(), "s"),
                Metric::new("rounds", d.rounds as f64, "count"),
                Metric::new("backpressure", d.backpressure as f64, "count"),
                Metric::new("setup_samples", setup_times.len() as f64, "count"),
            ]);
            let m: tagger_ctrl::ControllerMetrics = fleet
                .fabrics()
                .iter()
                .map(|f| f.controller().metrics().clone())
                .sum();
            out.report.extend([
                Metric::new("epochs_committed", m.epochs_committed as f64, "count"),
                Metric::new("rollbacks", m.rollbacks as f64, "count"),
                Metric::new("flaps_damped", m.flaps_damped as f64, "count"),
            ]);
        }
        Mode::Traced => {
            let mut t = Trace::default();
            let d = traced_drive(
                workload,
                &mut fleet,
                &mut sources,
                &mut rng,
                limit,
                work,
                &mut t,
            )?;
            grade(&fleet, &d, Some(&mut t), &mut out.failures);
            out.attempted = d.offered;
            out.metrics = layers(&d, &t).into_metrics();
            out.report.extend([
                Metric::new("traced_epochs", t.batches as f64, "count"),
                Metric::new("traced_drive_s", d.wall.as_secs_f64(), "s"),
                Metric::new("mirror_s", t.mirror.as_secs_f64(), "s"),
            ]);
        }
    }
    Ok(out)
}

/// Boots one mirror per fabric, drives with every batch mirrored, and
/// checks what only the whole run shows: the mirrored journals equal
/// the program's byte for byte, and the damping tally agrees with the
/// controllers' own.
fn traced_drive(
    workload: Workload,
    fleet: &mut Fleet,
    sources: &mut [Source],
    rng: &mut StdRng,
    limit: Limit,
    work: &Path,
    t: &mut Trace,
) -> Result<Drive, String> {
    let mut mirrors = fleet
        .fabrics()
        .iter()
        .map(|f| Mirror::boot(f, work.join(format!("mirror-{}.journal", f.name()))))
        .collect::<Result<Vec<_>, _>>()?;
    let d = drive(
        workload,
        fleet,
        sources,
        rng,
        limit,
        Some((&mut mirrors, t)),
    )?;
    for (mirror, fabric) in mirrors.iter().zip(fleet.fabrics()) {
        let ours = std::fs::read(&mirror.journal_path).map_err(|e| e.to_string())?;
        let theirs = std::fs::read(fabric.journal_path()).map_err(|e| e.to_string())?;
        if ours != theirs {
            return Err(format!(
                "{}: mirrored journal differs from the fabric's",
                fabric.name()
            ));
        }
    }
    let damped: u64 = fleet
        .fabrics()
        .iter()
        .map(|f| f.controller().metrics().flaps_damped)
        .sum();
    if damped != t.flaps_damped {
        return Err(format!(
            "controllers damped {damped} flaps, the mirror counted {}",
            t.flaps_damped
        ));
    }
    Ok(d)
}

/// Per-layer metrics of a traced control run: stage times are means per
/// staged epoch (audit per committed epoch), ingest and codec per line,
/// apply per event.
fn layers(d: &Drive, t: &Trace) -> Layers {
    let epochs = t.batches;
    let events = t.applies;
    let mut l = Layers::default();
    l.set("routing.elp_ms", per(ms(t.elp), epochs));
    l.set("routing.paths", per(t.paths as f64, epochs));
    l.set("routing.paths_per_ms", t.paths as f64 / ms(t.elp).max(1e-9));
    l.set("core.tag_ms", per(ms(t.tag), epochs));
    l.set("core.rules", per(t.rules as f64, t.commits));
    l.set("core.lossless_tags", per(t.lossless_tags as f64, t.commits));
    l.set("core.verify_ms", per(ms(t.verify), epochs));
    l.set("core.tcam_compile_ms", per(ms(t.compile), epochs));
    l.set("core.diff_ms", per(ms(t.diff), epochs));
    l.set("core.delta_ops", per(t.delta_ops as f64, t.commits));
    l.set("audit.audit_ms", per(ms(t.audit), t.commits));
    l.set("audit.violations", t.audit_violations as f64);
    l.set("ctrl.apply_us", per(ms(t.apply) * 1e3, events));
    l.set("ctrl.install_ms", per(ms(t.install), epochs));
    l.set(
        "ctrl.install_attempts",
        per(t.install_attempts as f64, epochs),
    );
    l.set(
        "ctrl.install_retries",
        per(t.install_retries as f64, epochs),
    );
    l.set("ctrl.rollbacks", per(t.rollbacks as f64, epochs));
    l.set("ctrl.journal_ms", per(ms(t.journal), epochs));
    l.set("ctrl.recover_ms", per(ms(t.recover), t.recovers));
    l.set("fleet.ingest_us", per(ms(t.ingest) * 1e3, t.lines));
    l.set("fleet.queue_wait_ms", stats::median(&t.queue_wait_ms));
    l.set("fleet.events_per_batch", per(events as f64, epochs));
    l.set("fleet.drain_cycles", d.rounds as f64);
    l.set("net.codec_us", per(ms(t.codec) * 1e3, t.lines));
    let unaccounted = ms(t.drain) - ms(t.accounted());
    l.set("trace.unaccounted_ms", per(unaccounted, epochs));
    l.set(
        "trace.overhead_pct",
        100.0 * t.mirror.as_secs_f64() / d.wall.as_secs_f64(),
    );
    l
}

/// Rounds a counters run drives: enough for every event kind and both
/// outcomes to occur, small enough for a unit test.
fn counter_rounds(workload: Workload) -> u64 {
    match workload {
        Workload::FleetChurn => 12,
        Workload::PlanWide => 4,
    }
}

/// Seed-deterministic counters of a fixed-size traced drive.
pub fn counters(
    workload: Workload,
    seed: u64,
    work: &Path,
) -> Result<BTreeMap<&'static str, u64>, String> {
    let topo = workload.topo();
    let specs = workload.specs(&topo, seed);
    let mut fleet = build_fleet(&specs, &work.join("fleet")).map_err(|e| e.to_string())?;
    let mut sources = sources(workload, &topo, &specs, seed);
    let mut rng = StdRng::seed_from_u64(mix_seed(seed, 1));
    let limit = Limit::Rounds(counter_rounds(workload));
    let mut t = Trace {
        input_digest: FNV_OFFSET,
        ..Trace::default()
    };
    let d = traced_drive(
        workload,
        &mut fleet,
        &mut sources,
        &mut rng,
        limit,
        work,
        &mut t,
    )?;
    let mut failures = Vec::new();
    grade(&fleet, &d, None, &mut failures);
    if let Some(first) = failures.first() {
        return Err(format!("{}: {first}", workload.name()));
    }
    Ok(BTreeMap::from([
        ("events", t.applies),
        ("lines", d.offered),
        ("input_digest", t.input_digest),
        ("backpressure", d.backpressure),
        ("batches", t.batches),
        ("commits", t.commits),
        ("rollbacks", t.rollbacks),
        ("flaps_damped", t.flaps_damped),
        ("paths", t.paths),
        ("rules", t.rules),
        ("lossless_tags", t.lossless_tags),
        ("delta_ops", t.delta_ops),
        ("install_attempts", t.install_attempts),
        ("audit_violations", t.audit_violations),
    ]))
}
