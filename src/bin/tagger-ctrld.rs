//! `tagger-ctrld` — replay a control-plane event trace through the
//! incremental Tagger controller.
//!
//! Boots a [`tagger::ctrl::Controller`] for a 3-layer Clos, commits the
//! epoch-0 tagging, then feeds it the events from a plain-text trace
//! (see `examples/reroute.trace` for the format) and prints, per epoch,
//! what a real deployment would ship to switches: per-switch rule
//! deltas, their cost against a full-table reinstall, and the
//! verification verdict. Ends with the controller's metrics report.
//!
//! ```text
//! tagger-ctrld [trace-file] [--pods N] [--leaves N] [--tors N] [--spines N]
//!              [--hosts N] [--bounces K] [--tcam-budget N] [--verbose]
//!              [--chaos seed=N,fail_rate=P[,timeout_rate=P][,partial_rate=P]]
//!              [--journal PATH] [--checkpoint-every N] [--crash-after N]
//!              [--audit] [--export-checkpoint PATH]
//! ```
//!
//! With no trace file, replays the canonical single-link flap
//! (down L1 T1, then up L1 T1) — the paper's reroute scenario.
//!
//! Installs go through a southbound: reliable by default, or the seeded
//! fault-injecting one with `--chaos` (installs are refused, time out,
//! or partially apply; the controller retries with exponential backoff
//! and rolls whole epochs back rather than ever leaving the fleet
//! mixed-epoch). Consecutive events on the same link are flap-damped
//! into one recompute. Every batch, journaled or not, goes through the
//! controller's one write-ahead step
//! ([`tagger::ctrl::Controller::apply_batch`]).
//!
//! With `--journal` every event is write-ahead journaled and a snapshot
//! checkpoint is taken every `--checkpoint-every` outcomes (default 4).
//! `--crash-after N` runs the crash-recovery drill: the controller
//! "crashes" after N epochs (mid-epoch — the next batch is journaled
//! but unprocessed), is rebuilt from the journal, and the drill verifies
//! the recovered committed tables are byte-for-byte the crashed
//! controller's before reconciling the fleet and finishing the trace.
//!
//! With `--audit` every committed epoch (including the bootstrap) is
//! handed to the independent `tagger-audit` verifier, which decompiles
//! the TCAM entries the tables compile to and re-proves deadlock
//! freedom from scratch; the audit metrics print alongside the
//! controller's. `--export-checkpoint PATH` writes the final committed
//! tables as a `tagger-audit` checkpoint for offline auditing.
//!
//! The process exits non-zero if any commit violates the incremental
//! promise (delta ops ≥ full reinstall ops for a single-link event),
//! any epoch fails verification, any audit finds a violation, the fleet
//! ever diverges from the committed tables, or crash recovery does not
//! reconverge exactly.
//!
//! The data-plane safety-net loop (watchdog trips on the corrupted
//! fixture becoming journaled quarantines that survive a crash) is
//! exercised end to end by the `watchdog_safety_net_closes_the_loop`
//! test in `tests/end_to_end.rs`, under both watchdog policies.

use std::collections::BTreeMap;
use std::process::ExitCode;

use tagger::audit::{checkpoint, Auditor};
use tagger::ctrl::{
    parse_trace, recover, ChaosConfig, ChaosSouthbound, CommitObserver, CommitReport, Controller,
    CtrlEvent, Damping, DriveReport, ElpPolicy, EpochOutcome, InstallPolicy, Journal, NoopObserver,
    ReliableSouthbound, Snapshot, Southbound,
};
use tagger::topo::{ClosConfig, Topology};

type Args = (Option<String>, BTreeMap<String, String>, bool);

/// The flags that take a value; anything else after `--` is refused.
const VALUE_FLAGS: [&str; 12] = [
    "pods",
    "leaves",
    "tors",
    "spines",
    "hosts",
    "bounces",
    "tcam-budget",
    "chaos",
    "journal",
    "checkpoint-every",
    "crash-after",
    "export-checkpoint",
];

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut flags = BTreeMap::new();
    let mut trace = None;
    let mut verbose = false;
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        if a == "--verbose" {
            verbose = true;
            i += 1;
        } else if a == "--audit" {
            flags.insert("audit".to_string(), String::new());
            i += 1;
        } else if let Some(name) = a.strip_prefix("--") {
            if !VALUE_FLAGS.contains(&name) {
                return Err(format!("unknown flag --{name}"));
            }
            if i + 1 < args.len() {
                flags.insert(name.to_string(), args[i + 1].clone());
                i += 2;
            } else {
                return Err(format!("--{name} wants a value"));
            }
        } else {
            trace = Some(a.clone());
            i += 1;
        }
    }
    Ok((trace, flags, verbose))
}

fn get(flags: &BTreeMap<String, String>, key: &str, default: usize) -> Result<usize, String> {
    match flags.get(key) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("--{key} wants a number, got {v:?}")),
    }
}

fn setup(args: &[String]) -> Result<(Args, ClosConfig, ElpPolicy, Option<usize>), String> {
    let parsed = parse_args(args)?;
    let flags = &parsed.1;
    let config = ClosConfig {
        pods: get(flags, "pods", 2)?,
        leaves_per_pod: get(flags, "leaves", 2)?,
        tors_per_pod: get(flags, "tors", 2)?,
        spines: get(flags, "spines", 2)?,
        hosts_per_tor: get(flags, "hosts", 4)?,
    };
    let policy = ElpPolicy::with_bounces(get(flags, "bounces", 1)?);
    let budget = match flags.get("tcam-budget") {
        None => None,
        Some(_) => Some(get(flags, "tcam-budget", 0)?),
    };
    Ok((parsed, config, policy, budget))
}

fn batch_label(batch: &[CtrlEvent]) -> String {
    if batch.len() == 1 {
        batch[0].label().to_string()
    } else {
        format!("{} x{} (flap-damped)", batch[0].label(), batch.len())
    }
}

fn print_outcome(topo: &Topology, label: &str, outcome: &EpochOutcome, verbose: bool) {
    match outcome {
        EpochOutcome::Committed(report) => {
            println!(
                "epoch {} <- {}: committed in {:?}; {} ELP paths, {} lossless \
                 priorities, worst-switch TCAM {}",
                report.epoch,
                label,
                report.recompute,
                report.elp_paths,
                report.lossless_tags,
                report.tcam_worst_switch,
            );
            println!(
                "  deltas: {} switches touched, +{} -{} rules ({} ops vs {} for a \
                 full reinstall); {} install attempt(s), {:?} backoff",
                report.switches_touched(),
                report.rules_added,
                report.rules_removed,
                report.delta_ops(),
                report.full_reinstall_ops(),
                report.install_attempts,
                report.install_backoff,
            );
            for delta in &report.deltas {
                println!(
                    "    {}: +{} -{}",
                    topo.node(delta.switch).name,
                    delta.add.len(),
                    delta.remove.len()
                );
                if verbose {
                    for r in &delta.remove {
                        println!(
                            "      - (tag {}, in {}, out {}) -> {}",
                            r.tag.0, r.in_port.0, r.out_port.0, r.new_tag.0
                        );
                    }
                    for r in &delta.add {
                        println!(
                            "      + (tag {}, in {}, out {}) -> {}",
                            r.tag.0, r.in_port.0, r.out_port.0, r.new_tag.0
                        );
                    }
                }
            }
        }
        EpochOutcome::RolledBack {
            abandoned_version,
            reason,
        } => {
            println!(
                "epoch <- {}: ROLLED BACK (view v{} abandoned): {}",
                label, abandoned_version, reason,
            );
        }
    }
}

/// The incremental-promise check: single-link commits that changed
/// tables, and how many of those beat a full-table reinstall.
#[derive(Default)]
struct Tally {
    single_link_commits: usize,
    incremental_wins: usize,
}

impl Tally {
    /// Prints the outcome of every damped batch of `events` that was
    /// processed, and scores it.
    fn record(
        &mut self,
        topo: &Topology,
        events: &[CtrlEvent],
        outcomes: &[EpochOutcome],
        verbose: bool,
    ) {
        for (range, outcome) in Damping::Flap.split(events).into_iter().zip(outcomes) {
            let batch = &events[range];
            print_outcome(topo, &batch_label(batch), outcome, verbose);
            let single_link = batch.len() == 1
                && matches!(batch[0], CtrlEvent::LinkDown(_) | CtrlEvent::LinkUp(_));
            if let EpochOutcome::Committed(report) = outcome {
                if single_link && !report.deltas.is_empty() {
                    self.single_link_commits += 1;
                    if report.delta_ops() < report.full_reinstall_ops() {
                        self.incremental_wins += 1;
                    }
                }
            }
        }
    }
}

/// Runs the independent verifier over every committed epoch and keeps
/// score. The controller never sees the auditor (the hook is the
/// [`CommitObserver`] trait); violations only surface here, as prints
/// and a non-zero exit.
struct AuditObserver {
    auditor: Auditor,
    violations: u64,
}

impl AuditObserver {
    fn new(topo: Topology) -> AuditObserver {
        AuditObserver {
            auditor: Auditor::new(topo),
            violations: 0,
        }
    }

    fn audit_epoch(&mut self, epoch: u64, rules: &tagger::core::RuleSet) {
        let topo = self.auditor.topo().clone();
        let report = self.auditor.audit(epoch, rules);
        if report.is_certified() {
            let cert = report.certificate.as_ref().expect("certified");
            println!(
                "  audit: epoch {} certified deadlock-free ({} buffers, {} edges, {} rules decompiled)",
                epoch, cert.total_nodes, cert.total_edges, report.rules_decompiled
            );
        } else {
            self.violations += 1;
            print!("{}", report.render(&topo));
        }
    }
}

impl CommitObserver for AuditObserver {
    fn on_commit(&mut self, _topo: &Topology, snapshot: &Snapshot, _report: &CommitReport) {
        self.audit_epoch(snapshot.epoch, &snapshot.rules);
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let ((trace_file, flags, verbose), config, policy, budget) = match setup(&args) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let topo = config.build();

    let chaos = match flags.get("chaos").map(|s| ChaosConfig::parse(s)) {
        None => None,
        Some(Ok(cfg)) => Some(cfg),
        Some(Err(e)) => {
            eprintln!("--chaos: {e}");
            return ExitCode::FAILURE;
        }
    };
    let journal_path = flags.get("journal").cloned();
    let checkpoint_every = match get(&flags, "checkpoint-every", 4) {
        Ok(n) => n as u64,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let crash_after = match flags.get("crash-after") {
        None => None,
        Some(_) => match get(&flags, "crash-after", 0) {
            Ok(n) => Some(n as u64),
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        },
    };
    if crash_after.is_some() && journal_path.is_none() {
        eprintln!("--crash-after needs --journal (recovery replays the journal)");
        return ExitCode::FAILURE;
    }
    let mut audit: Option<AuditObserver> = flags
        .contains_key("audit")
        .then(|| AuditObserver::new(topo.clone()));
    let text = match &trace_file {
        Some(path) => match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => "down L1 T1\nup L1 T1\n".to_string(),
    };
    let events = match parse_trace(&topo, &text) {
        Ok(ev) => ev,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };

    let mut ctrl = match Controller::with_budget(topo.clone(), policy, budget) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("bootstrap failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let epoch0 = ctrl.committed();
    println!(
        "epoch 0 (bootstrap): {} switches, {} links, {} ELP paths -> {} rules, \
         {} lossless priorities, worst-switch TCAM {}",
        topo.num_switches(),
        topo.num_links(),
        epoch0.elp_paths,
        epoch0.rules.num_rules(),
        epoch0.lossless_tags,
        epoch0.tcam_worst_switch,
    );
    if let Some(a) = audit.as_mut() {
        a.audit_epoch(0, &ctrl.committed().rules);
    }

    let mut southbound: Box<dyn Southbound> = match chaos {
        Some(cfg) => {
            println!("southbound: chaos ({cfg})");
            Box::new(ChaosSouthbound::new(cfg))
        }
        None => Box::new(ReliableSouthbound::new()),
    };
    southbound.bootstrap(&ctrl.committed().rules);
    let install_policy = InstallPolicy::default();

    let mut journal = match &journal_path {
        None => None,
        Some(path) => match Journal::create(path) {
            Ok(j) => Some(j),
            Err(e) => {
                eprintln!("cannot create journal {path}: {e}");
                return ExitCode::FAILURE;
            }
        },
    };
    let mut noop = NoopObserver;
    let observer: &mut dyn CommitObserver = match audit.as_mut() {
        Some(a) => a,
        None => &mut noop,
    };
    let report = match journal.as_mut() {
        Some(journal) => journal.drive(
            &mut ctrl,
            &events,
            southbound.as_mut(),
            &install_policy,
            checkpoint_every,
            crash_after,
            observer,
        ),
        None => ctrl
            .replay_damped_via(&events, southbound.as_mut(), &install_policy, observer)
            .map(|outcomes| DriveReport {
                outcomes,
                crashed: false,
            }),
    };
    let report = match report {
        Ok(r) => r,
        Err(e) => {
            eprintln!("replay failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut tally = Tally::default();
    tally.record(&topo, &events, &report.outcomes, verbose);

    if let (true, Some(path)) = (report.crashed, &journal_path) {
        // The crash-recovery drill: remember what the controller had
        // committed, kill it, rebuild from the journal, and demand
        // byte-for-byte reconvergence.
        let pre_rules = ctrl.committed().rules.clone();
        let pre_epoch = ctrl.committed().epoch;
        drop(ctrl);
        println!(
            "-- simulated crash after {} epoch(s); recovering from {path} --",
            report.outcomes.len()
        );
        let recovery = match recover(path, topo.clone(), policy, budget) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("recovery failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        ctrl = recovery.controller;
        if ctrl.committed().rules != pre_rules || ctrl.committed().epoch != pre_epoch {
            eprintln!(
                "FAIL: recovery diverged (epoch {} vs {}, tables {})",
                ctrl.committed().epoch,
                pre_epoch,
                if ctrl.committed().rules == pre_rules {
                    "equal"
                } else {
                    "DIFFER"
                }
            );
            return ExitCode::FAILURE;
        }
        let repaired = ctrl.reconcile(southbound.as_mut());
        println!(
            "recovered: {} event(s) replayed, committed tables byte-identical \
             (epoch {}); reconcile repaired {} switch(es); {} tail event(s)",
            recovery.replayed,
            ctrl.committed().epoch,
            repaired,
            recovery.tail.len(),
        );
        // Finish the interrupted work: the journaled-but-unresolved
        // tail (which is exactly the batch in flight at the crash)
        // plus everything after it.
        let resume_at = Damping::Flap
            .split(&events)
            .get(report.outcomes.len() + 1)
            .map_or(events.len(), |r| r.start);
        let remaining: Vec<CtrlEvent> = recovery
            .tail
            .iter()
            .chain(&events[resume_at..])
            .cloned()
            .collect();
        match ctrl.replay_damped_via(&remaining, southbound.as_mut(), &install_policy, observer) {
            Ok(outcomes) => tally.record(&topo, &remaining, &outcomes, verbose),
            Err(e) => {
                eprintln!("post-recovery replay failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    let mut failed = false;
    println!();
    print!("{}", ctrl.metrics().report());
    if let Some(a) = &audit {
        print!("{}", a.auditor.metrics.report());
    }
    if let Some(path) = flags.get("export-checkpoint") {
        let snap = ctrl.committed();
        let text = checkpoint::render(&config, snap.epoch, &topo, &snap.rules);
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("cannot write checkpoint {path}: {e}");
            failed = true;
        } else {
            println!("exported epoch {} checkpoint to {path}", snap.epoch);
        }
    }

    // The invariant the southbound layer exists for: whatever faults
    // were injected, the fleet runs exactly the committed tables.
    if southbound.fleet() != &ctrl.committed().rules {
        eprintln!("FAIL: fleet diverged from the committed tables");
        failed = true;
    }
    let m = ctrl.metrics();
    if m.verify_failures > 0 {
        eprintln!(
            "FAIL: {} committed epoch(s) required verify rollbacks",
            m.verify_failures
        );
        failed = true;
    }
    if let Some(a) = &audit {
        if a.violations > 0 {
            eprintln!(
                "FAIL: independent audit found violations in {} epoch(s)",
                a.violations
            );
            failed = true;
        }
    }
    let Tally {
        single_link_commits,
        incremental_wins,
    } = tally;
    if single_link_commits > 0 && incremental_wins < single_link_commits {
        eprintln!(
            "FAIL: only {incremental_wins}/{single_link_commits} single-link commits \
             beat a full-table reinstall"
        );
        failed = true;
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
