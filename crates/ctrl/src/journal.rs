//! Write-ahead event journal with snapshot checkpoints.
//!
//! The controller's durability story: every event is journaled *before*
//! it is processed, every epoch outcome is journaled after, and every
//! `K` outcomes a checkpoint block snapshots the committed network state
//! (failures + pinned ELPs + counters). A controller that crashes — even
//! mid-epoch, with installs half-pushed — recovers by [`recover`]ing
//! from the journal: rebuild the checkpoint state, deterministically
//! re-stage it, replay the committed batches after it, and hand back the
//! unprocessed tail. Because staging is a pure function of
//! `(topology, policy, state)`, the recovered committed tables are
//! byte-for-byte the crashed controller's.
//!
//! Rolled-back batches are journaled too, but recovery *skips* them
//! rather than re-deciding them: an install-abort rollback depends on
//! the southbound's fault schedule, which the journal deliberately does
//! not capture (the fleet, not the journal, is the authority on what
//! installs did — that is what [`Controller::reconcile`] is for).
//!
//! ## On-disk format
//!
//! Plain text, one record per line:
//!
//! ```text
//! event <trace line>            # write-ahead: an accepted event
//! !ok <n>                       # the last n pending events committed
//! !rollback <n>                 # ... or were rolled back together
//! !checkpoint epoch=<e> version=<v>
//! !state <trace line>           # reconstruction event (down/elp-add)
//! !checkpoint-end
//! ```
//!
//! Event lines reuse the trace syntax ([`CtrlEvent::trace_line`]), so a
//! journal is readable — and replayable — with the same tooling as any
//! trace. A checkpoint block without its `!checkpoint-end` (crash while
//! checkpointing) is ignored and recovery falls back to the previous
//! complete one.

use crate::controller::{Controller, CtrlError, EpochOutcome, InstallPolicy};
use crate::damping::Damping;
use crate::event::{parse_trace, CtrlEvent, TraceError};
use crate::observer::CommitObserver;
use crate::southbound::Southbound;
use crate::state::{ElpPolicy, NetworkState};
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, Write as _};
use std::path::{Path as FsPath, PathBuf};
use tagger_topo::Topology;

/// Why a journal could not be written or recovered.
#[derive(Debug)]
pub enum JournalError {
    /// The underlying file operation failed.
    Io(io::Error),
    /// A record line is malformed.
    Corrupt {
        /// 1-based line number within the journal file.
        line: usize,
        /// What was wrong with it.
        why: String,
    },
    /// An `event`/`!state` line failed trace parsing.
    Trace(TraceError),
    /// Replay hit a controller error — including
    /// [`CtrlError::RecoveryDiverged`] when a batch the journal marks
    /// committed rolls back under deterministic recompute.
    Ctrl(CtrlError),
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal io: {e}"),
            JournalError::Corrupt { line, why } => {
                write!(f, "journal line {line} corrupt: {why}")
            }
            JournalError::Trace(e) => write!(f, "journal event: {e}"),
            JournalError::Ctrl(e) => write!(f, "journal replay: {e}"),
        }
    }
}

impl std::error::Error for JournalError {}

impl From<io::Error> for JournalError {
    fn from(e: io::Error) -> Self {
        JournalError::Io(e)
    }
}

impl From<TraceError> for JournalError {
    fn from(e: TraceError) -> Self {
        JournalError::Trace(e)
    }
}

impl From<CtrlError> for JournalError {
    fn from(e: CtrlError) -> Self {
        JournalError::Ctrl(e)
    }
}

/// An append-only journal file.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    file: File,
    /// Outcome markers written through this handle; drives the
    /// checkpoint cadence of [`Controller::apply_batch`].
    outcomes: u64,
}

impl Journal {
    /// Creates (truncating) a fresh journal at `path`.
    pub fn create(path: impl Into<PathBuf>) -> Result<Self, JournalError> {
        let path = path.into();
        let mut file = File::create(&path)?;
        writeln!(file, "# tagger-ctrl journal v1")?;
        Ok(Journal {
            path,
            file,
            outcomes: 0,
        })
    }

    /// Reopens an existing journal for appending (after recovery).
    pub fn open_append(path: impl Into<PathBuf>) -> Result<Self, JournalError> {
        let path = path.into();
        let file = OpenOptions::new().append(true).open(&path)?;
        Ok(Journal {
            path,
            file,
            outcomes: 0,
        })
    }

    /// The file this journal appends to.
    pub fn path(&self) -> &FsPath {
        &self.path
    }

    /// Write-ahead: records one accepted event *before* it is processed.
    pub fn record_event(&mut self, topo: &Topology, event: &CtrlEvent) -> Result<(), JournalError> {
        writeln!(self.file, "event {}", event.trace_line(topo))?;
        self.file.sync_data()?;
        Ok(())
    }

    /// Records the outcome of the batch formed by the last `batch`
    /// journaled-but-unresolved events.
    pub fn record_outcome(
        &mut self,
        outcome: &EpochOutcome,
        batch: usize,
    ) -> Result<(), JournalError> {
        let marker = match outcome {
            EpochOutcome::Committed(_) => "!ok",
            EpochOutcome::RolledBack { .. } => "!rollback",
        };
        writeln!(self.file, "{marker} {batch}")?;
        self.file.sync_data()?;
        self.outcomes += 1;
        Ok(())
    }

    /// Snapshots the controller's committed state so recovery can start
    /// here instead of replaying from the beginning of time.
    pub fn checkpoint(&mut self, ctrl: &mut Controller) -> Result<(), JournalError> {
        let state = ctrl.state().clone();
        let topo = ctrl.topo();
        writeln!(
            self.file,
            "!checkpoint epoch={} version={}",
            ctrl.committed().epoch,
            state.version
        )?;
        for link in state.failures.iter() {
            let line = CtrlEvent::LinkDown(link).trace_line(topo);
            writeln!(self.file, "!state {line}")?;
        }
        for path in &state.extra_paths {
            let line = CtrlEvent::ElpAdd(path.clone()).trace_line(topo);
            writeln!(self.file, "!state {line}")?;
        }
        for &(switch, port, tag) in &state.quarantines {
            // Checkpoints record quarantines by their effective hop; the
            // re-synthesized trip needs no attribution — replaying it
            // quarantines exactly this hop either way.
            let line = CtrlEvent::WatchdogTrip {
                switch,
                port,
                tag: tagger_core::Tag(tag),
                trigger: None,
            }
            .trace_line(topo);
            writeln!(self.file, "!state {line}")?;
        }
        writeln!(self.file, "!checkpoint-end")?;
        self.file.sync_data()?;
        ctrl.bump_checkpoints();
        Ok(())
    }

    /// Drives a journaled, flap-damped, southbound-installed replay:
    /// each damped batch goes through [`Controller::apply_batch`] with
    /// this journal, so it is journaled write-ahead, installed, its
    /// outcome journaled, and a checkpoint written every
    /// `checkpoint_every` outcomes (0 = never). `observer` sees every
    /// committed epoch after its outcome has been journaled (pass
    /// [`NoopObserver`](crate::NoopObserver) to skip); rollbacks and the
    /// simulated crash are not observed.
    ///
    /// `crash_after` simulates a controller crash for recovery drills:
    /// after that many outcomes, the *next* batch's events are journaled
    /// (the write-ahead had happened) but never processed, and driving
    /// stops with `crashed = true` — the canonical mid-epoch crash.
    #[allow(clippy::too_many_arguments)]
    pub fn drive(
        &mut self,
        ctrl: &mut Controller,
        events: &[CtrlEvent],
        southbound: &mut dyn Southbound,
        policy: &InstallPolicy,
        checkpoint_every: u64,
        crash_after: Option<u64>,
        observer: &mut dyn CommitObserver,
    ) -> Result<DriveReport, JournalError> {
        drive(
            ctrl,
            Some(self),
            events,
            southbound,
            policy,
            checkpoint_every,
            crash_after,
            observer,
        )
    }
}

impl Controller {
    /// The write-ahead batch step — the one place an epoch is applied.
    /// With a journal, every event of `batch` is journaled *before* the
    /// batch is staged; then [`Controller::handle_batch_via`] runs the
    /// two-phase rollout, the damping metric absorbs the batch's extra
    /// events, the outcome marker (`!ok`/`!rollback`) is journaled,
    /// `observer` sees the epoch if it committed, and a checkpoint is
    /// written once every `checkpoint_every` outcomes the journal has
    /// recorded (0 = never). Without a journal the same steps run minus
    /// the journal writes.
    pub fn apply_batch(
        &mut self,
        batch: &[CtrlEvent],
        mut journal: Option<&mut Journal>,
        checkpoint_every: u64,
        southbound: &mut dyn Southbound,
        policy: &InstallPolicy,
        observer: &mut dyn CommitObserver,
    ) -> Result<EpochOutcome, JournalError> {
        if let Some(j) = journal.as_deref_mut() {
            for event in batch {
                j.record_event(self.topo(), event)?;
            }
        }
        let outcome = self.handle_batch_via(batch, southbound, policy)?;
        // A k-event batch absorbed k-1 recomputes.
        self.bump_flaps_damped(batch.len() as u64 - 1);
        if let Some(j) = journal.as_deref_mut() {
            j.record_outcome(&outcome, batch.len())?;
        }
        if let EpochOutcome::Committed(report) = &outcome {
            observer.on_commit(self.topo(), self.committed(), report);
        }
        if let Some(j) = journal {
            if checkpoint_every > 0 && j.outcomes.is_multiple_of(checkpoint_every) {
                j.checkpoint(self)?;
            }
        }
        Ok(outcome)
    }
}

/// The flap-damped replay loop behind [`Journal::drive`] and
/// [`Controller::replay_damped_via`]: splits `events` with
/// [`Damping::Flap`] and applies each batch through
/// [`Controller::apply_batch`].
#[allow(clippy::too_many_arguments)]
pub(crate) fn drive(
    ctrl: &mut Controller,
    mut journal: Option<&mut Journal>,
    events: &[CtrlEvent],
    southbound: &mut dyn Southbound,
    policy: &InstallPolicy,
    checkpoint_every: u64,
    crash_after: Option<u64>,
    observer: &mut dyn CommitObserver,
) -> Result<DriveReport, JournalError> {
    let mut outcomes = Vec::new();
    for range in Damping::Flap.split(events) {
        let batch = &events[range];
        if crash_after.is_some_and(|n| outcomes.len() as u64 >= n) {
            // The simulated crash lands between the write-ahead and the
            // rollout.
            if let Some(j) = journal {
                for event in batch {
                    j.record_event(ctrl.topo(), event)?;
                }
            }
            return Ok(DriveReport {
                outcomes,
                crashed: true,
            });
        }
        outcomes.push(ctrl.apply_batch(
            batch,
            journal.as_deref_mut(),
            checkpoint_every,
            southbound,
            policy,
            observer,
        )?);
    }
    Ok(DriveReport {
        outcomes,
        crashed: false,
    })
}

/// What [`Journal::drive`] got through.
#[derive(Debug)]
pub struct DriveReport {
    /// One outcome per damped batch that was fully processed.
    pub outcomes: Vec<EpochOutcome>,
    /// Whether the drive stopped at the simulated crash point.
    pub crashed: bool,
}

/// What recovery reconstructed.
#[derive(Debug)]
pub struct Recovery {
    /// The rebuilt controller, committed tables identical to the crashed
    /// controller's last committed epoch.
    pub controller: Controller,
    /// Events replayed from committed batches after the checkpoint.
    pub replayed: u64,
    /// Journaled events whose batch never got an outcome marker — the
    /// batch in flight when the controller died. The caller decides
    /// whether to re-process them (they were accepted, only their
    /// rollout is unaccounted for).
    pub tail: Vec<CtrlEvent>,
}

/// Rebuilds a controller from a journal file.
///
/// The topology, policy and TCAM budget are configuration, not journal
/// content — they must match what the crashed controller ran with, or
/// replay fails with [`CtrlError::RecoveryDiverged`].
pub fn recover(
    path: impl AsRef<FsPath>,
    topo: Topology,
    policy: ElpPolicy,
    tcam_budget: Option<usize>,
) -> Result<Recovery, JournalError> {
    let text = std::fs::read_to_string(path.as_ref())?;
    let lines: Vec<(usize, &str)> = text
        .lines()
        .enumerate()
        .map(|(i, l)| (i + 1, l.trim()))
        .filter(|(_, l)| !l.is_empty() && !l.starts_with('#'))
        .collect();

    // Locate the last *complete* checkpoint block.
    let mut checkpoint: Option<(usize, usize)> = None; // (start idx, end idx) in `lines`
    let mut open: Option<usize> = None;
    for (idx, (_, line)) in lines.iter().enumerate() {
        if line.starts_with("!checkpoint ") {
            open = Some(idx);
        } else if *line == "!checkpoint-end" {
            if let Some(start) = open.take() {
                checkpoint = Some((start, idx));
            }
        }
    }

    // Rebuild the checkpoint state (or start from the healthy network).
    let (state, epoch, resume_at) = match checkpoint {
        None => (NetworkState::initial(), 0, 0),
        Some((start, end)) => {
            let (lineno, header) = lines[start];
            let corrupt = |why: String| JournalError::Corrupt { line: lineno, why };
            let mut epoch = None;
            let mut version = None;
            for field in header.trim_start_matches("!checkpoint ").split_whitespace() {
                match field.split_once('=') {
                    Some(("epoch", v)) => {
                        epoch = Some(v.parse().map_err(|_| corrupt(format!("bad epoch {v:?}")))?);
                    }
                    Some(("version", v)) => {
                        version = Some(
                            v.parse()
                                .map_err(|_| corrupt(format!("bad version {v:?}")))?,
                        );
                    }
                    _ => return Err(corrupt(format!("bad checkpoint field {field:?}"))),
                }
            }
            let (epoch, version): (u64, u64) = match (epoch, version) {
                (Some(e), Some(v)) => (e, v),
                _ => return Err(corrupt("checkpoint missing epoch/version".into())),
            };
            let mut state = NetworkState::initial();
            for (lineno, line) in &lines[start + 1..end] {
                let rest = line
                    .strip_prefix("!state ")
                    .ok_or_else(|| JournalError::Corrupt {
                        line: *lineno,
                        why: format!("expected !state inside checkpoint, got {line:?}"),
                    })?;
                for event in parse_trace(&topo, rest)? {
                    state.apply(&topo, &event)?;
                }
            }
            // Reconstruction applies synthetic events; the recorded
            // version is the live one.
            state.version = version;
            (state, epoch, end + 1)
        }
    };

    let mut controller = Controller::resume(topo, policy, tcam_budget, state, epoch)?;

    // Replay the records after the checkpoint: committed batches re-run
    // (deterministically recommitting the same epochs), rolled-back
    // batches are dropped, and events with no outcome become the tail.
    let mut pending: Vec<CtrlEvent> = Vec::new();
    let mut replayed = 0u64;
    for (lineno, line) in &lines[resume_at..] {
        let corrupt = |why: String| JournalError::Corrupt { line: *lineno, why };
        if let Some(rest) = line.strip_prefix("event ") {
            pending.extend(parse_trace(controller.topo(), rest)?);
        } else if let Some(rest) = line
            .strip_prefix("!ok ")
            .or_else(|| line.strip_prefix("!rollback "))
        {
            let n: usize = rest
                .trim()
                .parse()
                .map_err(|_| corrupt(format!("bad batch size {rest:?}")))?;
            if pending.len() < n {
                return Err(corrupt(format!(
                    "outcome covers {n} events but only {} are pending",
                    pending.len()
                )));
            }
            let batch: Vec<CtrlEvent> = pending.drain(..n).collect();
            if line.starts_with("!ok") {
                match controller.handle_batch(&batch)? {
                    EpochOutcome::Committed(_) => replayed += n as u64,
                    EpochOutcome::RolledBack { reason, .. } => {
                        return Err(CtrlError::RecoveryDiverged(format!(
                            "journal line {lineno} marks a batch committed, replay rolled it back: {reason}"
                        ))
                        .into());
                    }
                }
            }
        } else if line.starts_with("!checkpoint") || line.starts_with("!state") {
            // A trailing incomplete checkpoint block (crash while
            // checkpointing); the committed state it describes is
            // already covered by the replay.
            continue;
        } else {
            return Err(corrupt(format!("unrecognized record {line:?}")));
        }
    }

    controller.set_recovery_replays(replayed);
    Ok(Recovery {
        controller,
        replayed,
        tail: pending,
    })
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::chaos::{ChaosConfig, ChaosSouthbound};
    use crate::southbound::ReliableSouthbound;
    use tagger_topo::ClosConfig;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("tagger-journal-{}-{name}", std::process::id()))
    }

    fn controller() -> Controller {
        Controller::new(ClosConfig::small().build(), ElpPolicy::with_bounces(1)).unwrap()
    }

    const TRACE: &str = "down L1 T1\nflap L2 T2 2\nup L1 T1\nresync";

    #[test]
    fn recover_reproduces_committed_tables_byte_for_byte() {
        let path = tmp("roundtrip");
        let mut live = controller();
        let mut sb = ReliableSouthbound::new();
        sb.bootstrap(&live.committed().rules);
        let events = parse_trace(live.topo(), TRACE).unwrap();

        let mut journal = Journal::create(&path).unwrap();
        let report = journal
            .drive(
                &mut live,
                &events,
                &mut sb,
                &InstallPolicy::default(),
                2,
                None,
                &mut crate::NoopObserver,
            )
            .unwrap();
        assert!(!report.crashed);
        assert!(
            live.metrics().checkpoints > 0,
            "checkpoint_every=2 must fire"
        );

        let topo = ClosConfig::small().build();
        let rec = recover(&path, topo, ElpPolicy::with_bounces(1), None).unwrap();
        assert!(rec.tail.is_empty(), "clean shutdown leaves no tail");
        assert_eq!(rec.controller.committed().epoch, live.committed().epoch);
        assert_eq!(rec.controller.state().version, live.state().version);
        assert_eq!(rec.controller.committed().rules, live.committed().rules);
        assert_eq!(
            format!("{:?}", rec.controller.committed().graph),
            format!("{:?}", live.committed().graph),
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn apply_batch_pins_the_write_ahead_order() {
        let path = tmp("order");
        let mut live = controller();
        let mut sb = ReliableSouthbound::new();
        sb.bootstrap(&live.committed().rules);
        let trace = "down L1 T1\nflap L2 T2 1\nwatchdog L1 0 2\nresync";
        let events = parse_trace(live.topo(), trace).unwrap();
        let mut journal = Journal::create(&path).unwrap();
        let report = journal
            .drive(
                &mut live,
                &events,
                &mut sb,
                &InstallPolicy::default(),
                2,
                None,
                &mut crate::NoopObserver,
            )
            .unwrap();
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            "# tagger-ctrl journal v1\n\
             event down T1 L1\n!ok 1\n\
             event down T2 L2\nevent up T2 L2\n!ok 2\n\
             !checkpoint epoch=2 version=3\n!state down T1 L1\n!checkpoint-end\n\
             event watchdog L1 0 2\n!ok 1\n\
             event resync\n!ok 1\n\
             !checkpoint epoch=4 version=5\n!state down T1 L1\n\
             !state watchdog L1 0 2\n!checkpoint-end\n"
        );
        assert_eq!(live.metrics().flaps_damped, 1);
        assert_eq!(live.metrics().checkpoints, 2);

        // The same step without a journal decides the same epochs.
        let mut bare = controller();
        let mut sb = ReliableSouthbound::new();
        sb.bootstrap(&bare.committed().rules);
        let outcomes = bare
            .replay_damped_via(
                &events,
                &mut sb,
                &InstallPolicy::default(),
                &mut crate::NoopObserver,
            )
            .unwrap();
        assert_eq!(outcomes.len(), report.outcomes.len());
        assert_eq!(bare.committed().rules, live.committed().rules);
        assert_eq!(bare.metrics().flaps_damped, 1);
        assert_eq!(bare.metrics().checkpoints, 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mid_epoch_crash_recovers_and_reconciles() {
        let path = tmp("crash");
        let mut live = controller();
        let mut sb = ChaosSouthbound::new(ChaosConfig::new(11, 0.3));
        sb.bootstrap(&live.committed().rules);
        let events = parse_trace(live.topo(), TRACE).unwrap();

        let mut journal = Journal::create(&path).unwrap();
        let report = journal
            .drive(
                &mut live,
                &events,
                &mut sb,
                &InstallPolicy::default(),
                1,
                Some(2),
                &mut crate::NoopObserver,
            )
            .unwrap();
        assert!(report.crashed);
        assert_eq!(report.outcomes.len(), 2);
        let pre_crash_rules = live.committed().rules.clone();
        let pre_crash_epoch = live.committed().epoch;
        drop(live); // the crash

        let topo = ClosConfig::small().build();
        let rec = recover(&path, topo, ElpPolicy::with_bounces(1), None).unwrap();
        let mut recovered = rec.controller;
        assert_eq!(
            recovered.committed().rules,
            pre_crash_rules,
            "recovery must reconverge to the crashed controller's tables"
        );
        assert_eq!(recovered.committed().epoch, pre_crash_epoch);
        assert!(
            !rec.tail.is_empty(),
            "the in-flight batch must surface as the tail"
        );

        // The fleet may hold anything the crash left behind; reconcile
        // repairs it, then the tail can be processed normally.
        recovered.reconcile(&mut sb);
        assert_eq!(sb.fleet(), &recovered.committed().rules);
        let outcomes = recovered
            .replay_damped_via(
                &rec.tail,
                &mut sb,
                &InstallPolicy::default(),
                &mut crate::NoopObserver,
            )
            .unwrap();
        assert!(!outcomes.is_empty());
        assert_eq!(sb.fleet(), &recovered.committed().rules);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn recovery_without_checkpoints_replays_from_genesis() {
        let path = tmp("genesis");
        let mut live = controller();
        let mut sb = ReliableSouthbound::new();
        sb.bootstrap(&live.committed().rules);
        let events = parse_trace(live.topo(), "down L1 T1\nup L1 T1").unwrap();
        let mut journal = Journal::create(&path).unwrap();
        journal
            .drive(
                &mut live,
                &events,
                &mut sb,
                &InstallPolicy::default(),
                0,
                None,
                &mut crate::NoopObserver,
            )
            .unwrap();

        let topo = ClosConfig::small().build();
        let rec = recover(&path, topo, ElpPolicy::with_bounces(1), None).unwrap();
        assert_eq!(rec.replayed, 2);
        assert_eq!(rec.controller.metrics().recovery_replays, 2);
        assert_eq!(rec.controller.committed().rules, live.committed().rules);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn quarantines_survive_crash_recovery() {
        let path = tmp("watchdog");
        let mut live = controller();
        let mut sb = ReliableSouthbound::new();
        sb.bootstrap(&live.committed().rules);
        // A watchdog quarantine lands, then an unrelated failure whose
        // checkpoint must carry the quarantine forward.
        let events = parse_trace(live.topo(), "watchdog L1 0 2\ndown L3 T3").unwrap();
        let mut journal = Journal::create(&path).unwrap();
        journal
            .drive(
                &mut live,
                &events,
                &mut sb,
                &InstallPolicy::default(),
                1,
                None,
                &mut crate::NoopObserver,
            )
            .unwrap();
        assert_eq!(live.state().quarantines.len(), 1);
        let pre_crash = live.committed().rules.clone();
        let quarantines = live.state().quarantines.clone();
        drop(live); // the crash

        let topo = ClosConfig::small().build();
        let rec = recover(&path, topo, ElpPolicy::with_bounces(1), None).unwrap();
        assert_eq!(
            rec.controller.state().quarantines,
            quarantines,
            "recovery must replay the quarantine from the journal"
        );
        assert_eq!(rec.controller.committed().rules, pre_crash);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_journals_fail_loudly() {
        let path = tmp("corrupt");
        std::fs::write(&path, "event down L1 T1\n!ok 2\n").unwrap();
        let topo = ClosConfig::small().build();
        let err = recover(&path, topo, ElpPolicy::with_bounces(1), None).unwrap_err();
        assert!(
            matches!(err, JournalError::Corrupt { line: 2, .. }),
            "{err}"
        );

        std::fs::write(&path, "junk record\n").unwrap();
        let topo = ClosConfig::small().build();
        let err = recover(&path, topo, ElpPolicy::with_bounces(1), None).unwrap_err();
        assert!(
            matches!(err, JournalError::Corrupt { line: 1, .. }),
            "{err}"
        );
        std::fs::remove_file(&path).ok();
    }
}
