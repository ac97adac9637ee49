//! The two-phase controller: stage → validate → commit-or-rollback.

use crate::event::CtrlEvent;
use crate::journal::JournalError;
use crate::metrics::ControllerMetrics;
use crate::observer::CommitObserver;
use crate::southbound::Southbound;
use crate::state::{ElpPolicy, NetworkState};
use std::fmt;
use std::time::{Duration, Instant};
use tagger_core::tcam::{Compression, TcamProgram};
use tagger_core::{InstallError, RuleDelta, RuleError, RuleSet, TaggedGraph, Tagging};
use tagger_topo::{LinkId, NodeId, Topology};

/// Hard errors: the event itself is malformed and no epoch was staged.
///
/// Everything else — a candidate tagging that fails certification, a
/// table that blows the TCAM budget — is *not* an error but a normal
/// [`EpochOutcome::RolledBack`]; the controller keeps running on the
/// previous committed snapshot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CtrlError {
    /// A link event referenced a link id outside the topology.
    UnknownLink(LinkId),
    /// The initial (epoch 0) tagging could not be built, so there is no
    /// safe snapshot to fall back to.
    Bootstrap(RuleError),
    /// The initial tagging is valid but already exceeds the TCAM budget;
    /// a controller that cannot even bootstrap would have nothing safe
    /// to roll back to, so this is a construction error.
    BootstrapBudget {
        /// Entries the worst switch needs for the healthy network.
        worst_switch_entries: usize,
        /// The configured ceiling.
        budget: usize,
    },
    /// Crash recovery replayed a journal entry marked *committed* but
    /// the deterministic recompute rolled it back — the journal does not
    /// describe the topology/policy it is being replayed against.
    RecoveryDiverged(String),
}

impl fmt::Display for CtrlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CtrlError::UnknownLink(l) => {
                write!(f, "event references unknown link id {}", l.index())
            }
            CtrlError::Bootstrap(e) => write!(f, "cannot build initial tagging: {e}"),
            CtrlError::BootstrapBudget {
                worst_switch_entries,
                budget,
            } => write!(
                f,
                "bootstrap tagging needs {worst_switch_entries} TCAM entries on the worst switch, budget is {budget}"
            ),
            CtrlError::RecoveryDiverged(why) => {
                write!(f, "journal replay diverged from its recorded outcome: {why}")
            }
        }
    }
}

impl std::error::Error for CtrlError {}

/// Why a staged epoch was abandoned.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RollbackReason {
    /// The candidate tagging failed deadlock-freedom certification
    /// (Theorem 5.1) or left an ELP path lossy.
    VerifyFailed(String),
    /// The candidate's worst per-switch TCAM table exceeds the budget.
    BudgetExceeded {
        /// Entries the worst switch would need (after joint compression).
        worst_switch_entries: usize,
        /// The configured ceiling.
        budget: usize,
    },
    /// The candidate verified, but a switch exhausted its install
    /// attempt budget; every switch already updated was rolled back to
    /// the previous verified tables, so the fleet is never left running
    /// a mix of epochs.
    InstallAborted {
        /// The switch whose installs kept failing.
        switch: NodeId,
        /// Attempts spent on it before giving up.
        attempts: u32,
        /// The last southbound error, rendered.
        error: String,
    },
}

impl fmt::Display for RollbackReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RollbackReason::VerifyFailed(e) => write!(f, "verification failed: {e}"),
            RollbackReason::BudgetExceeded {
                worst_switch_entries,
                budget,
            } => write!(
                f,
                "TCAM budget exceeded: worst switch needs {worst_switch_entries} entries, budget is {budget}"
            ),
            RollbackReason::InstallAborted {
                switch,
                attempts,
                error,
            } => write!(
                f,
                "install aborted: switch {switch} failed {attempts} attempts ({error}); \
                 epoch rolled back fleet-wide"
            ),
        }
    }
}

/// What a committed epoch shipped.
#[derive(Clone, Debug)]
pub struct CommitReport {
    /// The epoch number this commit created.
    pub epoch: u64,
    /// The network-state version the new snapshot reflects.
    pub version: u64,
    /// Per-switch deltas against the previous committed snapshot, sorted
    /// by switch id. Switches absent from the list are untouched.
    pub deltas: Vec<RuleDelta>,
    /// Rules installed across all deltas.
    pub rules_added: usize,
    /// Rules withdrawn across all deltas.
    pub rules_removed: usize,
    /// Total rules in the previous committed tables.
    pub prev_table_rules: usize,
    /// Total rules in the new committed tables.
    pub new_table_rules: usize,
    /// Lossless priorities the new tagging consumes.
    pub lossless_tags: usize,
    /// Worst per-switch TCAM entries (joint compression).
    pub tcam_worst_switch: usize,
    /// ELP paths the new tagging covers.
    pub elp_paths: usize,
    /// Stage latency for this epoch.
    pub recompute: Duration,
    /// Southbound install attempts this epoch needed (one per switch
    /// when the network behaves; more under retries). Zero for plan-only
    /// commits that never touched a southbound.
    pub install_attempts: u64,
    /// Total backoff the retry schedule imposed this epoch (simulated —
    /// the controller records rather than sleeps it, keeping replays
    /// deterministic and fast).
    pub install_backoff: Duration,
}

impl CommitReport {
    /// Switches whose tables changed this epoch.
    pub fn switches_touched(&self) -> usize {
        self.deltas.len()
    }

    /// Total delta operations (installs + withdrawals).
    pub fn delta_ops(&self) -> usize {
        self.deltas.iter().map(RuleDelta::len).sum()
    }

    /// Cost of the naive alternative the deltas replace: withdrawing
    /// every previous rule and installing every new one.
    pub fn full_reinstall_ops(&self) -> usize {
        self.prev_table_rules + self.new_table_rules
    }
}

/// Retry discipline for southbound installs: exponential backoff with a
/// bounded per-switch attempt budget.
///
/// Backoff is *recorded*, not slept: the controller is driven by event
/// replay in tests and simulations, where wall-clock sleeping would only
/// slow the suite without changing any decision. A production wrapper
/// would sleep [`InstallPolicy::backoff_before`] between attempts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InstallPolicy {
    /// Attempts per switch per epoch before the epoch is aborted and
    /// rolled back. Must be at least 1.
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles each retry after that.
    pub base_backoff: Duration,
    /// Ceiling on any single backoff interval.
    pub max_backoff: Duration,
}

impl InstallPolicy {
    /// The backoff to wait before attempt `attempt` (1-based; attempt 1
    /// is immediate, attempt 2 waits `base_backoff`, attempt 3 twice
    /// that, … capped at `max_backoff`).
    pub fn backoff_before(&self, attempt: u32) -> Duration {
        if attempt <= 1 {
            return Duration::ZERO;
        }
        let doublings = (attempt - 2).min(20);
        (self.base_backoff * 2u32.pow(doublings)).min(self.max_backoff)
    }
}

impl Default for InstallPolicy {
    /// Five attempts, 1 ms initial backoff, 64 ms cap — enough to ride
    /// out bursty faults without stalling an epoch behind a dead switch.
    fn default() -> Self {
        InstallPolicy {
            max_attempts: 5,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(64),
        }
    }
}

/// The result of successfully processing one event.
#[derive(Clone, Debug)]
pub enum EpochOutcome {
    /// The staged tagging validated; deltas were emitted and the
    /// snapshot advanced.
    Committed(CommitReport),
    /// The staged tagging was rejected; the previous snapshot (and the
    /// previous network-state view) remain in force.
    RolledBack {
        /// The state version that was staged and then abandoned.
        abandoned_version: u64,
        /// Why validation rejected it.
        reason: RollbackReason,
    },
}

impl EpochOutcome {
    /// The commit report, if this outcome committed.
    pub fn committed(&self) -> Option<&CommitReport> {
        match self {
            EpochOutcome::Committed(r) => Some(r),
            EpochOutcome::RolledBack { .. } => None,
        }
    }
}

/// A committed configuration: the deadlock-freedom certificate plus the
/// exact rule tables switches are running.
#[derive(Clone, Debug)]
pub struct Snapshot {
    /// Commit counter; 0 is the bootstrap tagging for the healthy
    /// network.
    pub epoch: u64,
    /// The [`NetworkState::version`] this snapshot was computed from.
    pub version: u64,
    /// The verified tagged graph (Theorem 5.1 certificate).
    pub graph: TaggedGraph,
    /// The committed per-switch rule tables.
    pub rules: RuleSet,
    /// Lossless priorities consumed.
    pub lossless_tags: usize,
    /// Worst per-switch TCAM footprint (joint compression).
    pub tcam_worst_switch: usize,
    /// ELP paths covered.
    pub elp_paths: usize,
}

impl Snapshot {
    /// Exports the committed rule tables in the plain-text form
    /// ([`tagger_core::RuleSet::to_table_text`]) offline verification
    /// tooling consumes — the payload of an audit checkpoint.
    pub fn export_tables(&self, topo: &Topology) -> String {
        self.rules.to_table_text(topo)
    }
}

/// The control-plane daemon core: consumes [`CtrlEvent`]s, maintains the
/// committed [`Snapshot`], and emits [`RuleDelta`]s.
///
/// Rollout is two-phase. *Stage*: apply the event to a scratch copy of
/// the network state and recompute the tagging from the policy ELP.
/// *Validate*: the recompute must produce a certified tagged graph
/// (monotone + per-tag acyclic, with every ELP path lossless) and, if a
/// TCAM budget is set, fit the worst switch within it. Only then does
/// the controller *commit*: the scratch state becomes current, the
/// snapshot advances one epoch, and the per-switch diffs against the
/// previous tables are returned for installation. On rollback nothing
/// moves — including the network-state mutation itself, so a `LinkDown`
/// whose reroute tagging is rejected leaves the controller deliberately
/// blind to that failure rather than half-converged (a later `Resync`
/// or any subsequent event retries from scratch).
#[derive(Clone, Debug)]
pub struct Controller {
    topo: Topology,
    policy: ElpPolicy,
    tcam_budget: Option<usize>,
    state: NetworkState,
    committed: Snapshot,
    metrics: ControllerMetrics,
}

impl Controller {
    /// Builds a controller for a healthy network and commits epoch 0.
    pub fn new(topo: Topology, policy: ElpPolicy) -> Result<Self, CtrlError> {
        Self::with_budget(topo, policy, None)
    }

    /// Like [`Controller::new`] but enforcing a per-switch TCAM budget
    /// (entries after joint compression) on every epoch, including
    /// epoch 0.
    pub fn with_budget(
        topo: Topology,
        policy: ElpPolicy,
        tcam_budget: Option<usize>,
    ) -> Result<Self, CtrlError> {
        let state = NetworkState::initial();
        let (snapshot, _) = stage(&topo, &policy, &state, 0).map_err(CtrlError::Bootstrap)?;
        if let Some(budget) = tcam_budget {
            if snapshot.tcam_worst_switch > budget {
                return Err(CtrlError::BootstrapBudget {
                    worst_switch_entries: snapshot.tcam_worst_switch,
                    budget,
                });
            }
        }
        Ok(Controller {
            topo,
            policy,
            tcam_budget,
            state,
            committed: snapshot,
            metrics: ControllerMetrics::default(),
        })
    }

    /// Rebuilds a controller from a recovered network state, as read
    /// back from a journal checkpoint: the tagging for `state` is
    /// recomputed deterministically and committed as `epoch`. Because
    /// staging is a pure function of `(topo, policy, state)`, the
    /// snapshot this produces is byte-for-byte the one the crashed
    /// controller had committed at that checkpoint.
    pub fn resume(
        topo: Topology,
        policy: ElpPolicy,
        tcam_budget: Option<usize>,
        state: NetworkState,
        epoch: u64,
    ) -> Result<Self, CtrlError> {
        let (snapshot, _) = stage(&topo, &policy, &state, epoch).map_err(CtrlError::Bootstrap)?;
        if let Some(budget) = tcam_budget {
            if snapshot.tcam_worst_switch > budget {
                return Err(CtrlError::BootstrapBudget {
                    worst_switch_entries: snapshot.tcam_worst_switch,
                    budget,
                });
            }
        }
        Ok(Controller {
            topo,
            policy,
            tcam_budget,
            state,
            committed: snapshot,
            metrics: ControllerMetrics::default(),
        })
    }

    /// The topology under management.
    pub fn topo(&self) -> &Topology {
        &self.topo
    }

    /// The ELP policy in force.
    pub fn policy(&self) -> ElpPolicy {
        self.policy
    }

    /// The committed network-state view.
    pub fn state(&self) -> &NetworkState {
        &self.state
    }

    /// The committed snapshot (always verified).
    pub fn committed(&self) -> &Snapshot {
        &self.committed
    }

    /// Metrics so far.
    pub fn metrics(&self) -> &ControllerMetrics {
        &self.metrics
    }

    /// Counts a checkpoint written by the journal layer.
    pub(crate) fn bump_checkpoints(&mut self) {
        self.metrics.checkpoints += 1;
    }

    /// Counts link transitions absorbed by flap damping.
    pub(crate) fn bump_flaps_damped(&mut self, n: u64) {
        self.metrics.flaps_damped += n;
    }

    /// Records how many events the most recent crash recovery replayed.
    pub(crate) fn set_recovery_replays(&mut self, n: u64) {
        self.metrics.recovery_replays = n;
    }

    /// Processes one event through the two-phase rollout, assuming a
    /// perfectly reliable install path (PR 1 semantics: the commit *is*
    /// the install). Production callers that own a real southbound
    /// should use [`Controller::handle_via`] instead.
    pub fn handle(&mut self, event: &CtrlEvent) -> Result<EpochOutcome, CtrlError> {
        self.handle_batch(std::slice::from_ref(event))
    }

    /// Like [`Controller::handle`] but staging one recompute for a whole
    /// batch of events — the primitive flap damping is built from. All
    /// state mutations land (the version bumps once per event), but only
    /// one epoch is staged, validated and committed; on rollback the
    /// entire batch's mutations are abandoned together.
    pub fn handle_batch(&mut self, events: &[CtrlEvent]) -> Result<EpochOutcome, CtrlError> {
        match self.plan(events)? {
            Plan::Reject(outcome) => Ok(outcome),
            Plan::Commit {
                staged_state,
                candidate,
                report,
            } => {
                self.advance(staged_state, candidate, &report);
                Ok(EpochOutcome::Committed(report))
            }
        }
    }

    /// The hardened rollout: stage → validate → **install → barrier →
    /// commit-or-rollback**.
    ///
    /// Each per-switch delta is pushed through `southbound` with
    /// per-switch retry and exponential backoff under `policy`. The
    /// epoch commits only when *every* touched switch acks — the commit
    /// barrier. If any switch exhausts its attempt budget, every switch
    /// already updated (including the failing one, which may hold a
    /// partial apply) is driven back to the previous verified tables
    /// with unbounded retries, so the fleet is never left running a mix
    /// of epochs; the outcome is then a rollback with
    /// [`RollbackReason::InstallAborted`] and the controller's own state
    /// does not advance either.
    pub fn handle_via(
        &mut self,
        event: &CtrlEvent,
        southbound: &mut dyn Southbound,
        policy: &InstallPolicy,
    ) -> Result<EpochOutcome, CtrlError> {
        self.handle_batch_via(std::slice::from_ref(event), southbound, policy)
    }

    /// Batch form of [`Controller::handle_via`]; see
    /// [`Controller::handle_batch`] for batch semantics.
    pub fn handle_batch_via(
        &mut self,
        events: &[CtrlEvent],
        southbound: &mut dyn Southbound,
        policy: &InstallPolicy,
    ) -> Result<EpochOutcome, CtrlError> {
        let (staged_state, candidate, mut report) = match self.plan(events)? {
            Plan::Reject(outcome) => return Ok(outcome),
            Plan::Commit {
                staged_state,
                candidate,
                report,
            } => (staged_state, candidate, report),
        };

        let mut attempts_total = 0u64;
        let mut backoff_total = Duration::ZERO;
        let mut touched: Vec<&RuleDelta> = Vec::new();
        let mut abort: Option<(NodeId, u32, InstallError)> = None;
        for delta in &report.deltas {
            // Even a failed install may have mutated the switch (partial
            // apply, lost-ack timeout), so the switch is "touched" — and
            // rolled back on abort — no matter how the attempt ends.
            touched.push(delta);
            match self.install_with_retry(southbound, candidate.epoch, delta, policy) {
                Ok((attempts, backoff)) => {
                    attempts_total += u64::from(attempts);
                    backoff_total += backoff;
                }
                Err((attempts, backoff, error)) => {
                    attempts_total += u64::from(attempts);
                    backoff_total += backoff;
                    abort = Some((delta.switch, attempts, error));
                    break;
                }
            }
        }

        if let Some((switch, attempts, error)) = abort {
            // Roll the stragglers back to the previous verified tables.
            // These installs retry without an attempt bound: leaving the
            // fleet mixed-epoch is the one outcome that voids the
            // Theorem 5.1 certificate, so the controller insists. The
            // chaos schedule's clamped fault rates guarantee termination.
            for delta in touched {
                self.force_install(southbound, self.committed.epoch, &delta.inverse());
            }
            self.metrics.install_aborts += 1;
            self.metrics.rollbacks += 1;
            return Ok(EpochOutcome::RolledBack {
                abandoned_version: staged_state.version,
                reason: RollbackReason::InstallAborted {
                    switch,
                    attempts,
                    error: error.to_string(),
                },
            });
        }

        report.install_attempts = attempts_total;
        report.install_backoff = backoff_total;
        debug_assert_eq!(
            southbound.fleet(),
            &candidate.rules,
            "commit barrier: an acked epoch must leave the fleet on the new tables"
        );
        self.advance(staged_state, candidate, &report);
        Ok(EpochOutcome::Committed(report))
    }

    /// Replays a whole trace, stopping at the first malformed event.
    pub fn replay<'a>(
        &mut self,
        events: impl IntoIterator<Item = &'a CtrlEvent>,
    ) -> Result<Vec<EpochOutcome>, CtrlError> {
        events.into_iter().map(|e| self.handle(e)).collect()
    }

    /// Replays a trace through a southbound with **flap damping**: a
    /// maximal run of consecutive link events on the *same* link (a
    /// flapping transceiver re-announcing down/up/down/up…) is debounced
    /// into a single recompute of its net effect, instead of staging a
    /// full tagging per transition. Each batch goes through
    /// [`Controller::apply_batch`] without a journal, so `observer` sees
    /// every committed epoch (rollbacks are not observed; pass
    /// [`NoopObserver`](crate::NoopObserver) to skip). Returns one
    /// outcome per damped batch; [`ControllerMetrics::flaps_damped`]
    /// counts the recomputes saved.
    pub fn replay_damped_via(
        &mut self,
        events: &[CtrlEvent],
        southbound: &mut dyn Southbound,
        policy: &InstallPolicy,
        observer: &mut dyn CommitObserver,
    ) -> Result<Vec<EpochOutcome>, JournalError> {
        let report =
            crate::journal::drive(self, None, events, southbound, policy, 0, None, observer)?;
        Ok(report.outcomes)
    }

    /// Drives the fleet to the committed tables: diffs what the
    /// southbound reports the switches are running against the committed
    /// snapshot and installs the difference (with unbounded retries —
    /// reconciliation is the step that *repairs* divergence, it cannot
    /// be allowed to leave any). Returns the number of switches fixed.
    ///
    /// This is the last step of crash recovery: a controller that died
    /// mid-epoch may have left partial installs behind, and the journal
    /// cannot know which — the fleet itself is the authority.
    pub fn reconcile(&mut self, southbound: &mut dyn Southbound) -> usize {
        let deltas = southbound.fleet().diff(&self.committed.rules);
        let fixed = deltas.len();
        for delta in deltas {
            self.force_install(southbound, self.committed.epoch, &delta);
        }
        debug_assert_eq!(southbound.fleet(), &self.committed.rules);
        fixed
    }

    /// Stage + validate a batch of events; does not mutate committed
    /// state (metrics only).
    fn plan(&mut self, events: &[CtrlEvent]) -> Result<Plan, CtrlError> {
        let mut staged_state = self.state.clone();
        for event in events {
            staged_state.apply(&self.topo, event)?;
        }
        self.metrics.events += events.len() as u64;
        // Classify watchdog activity against the quarantine set as it
        // evolves through the batch: cause-directed vs victim-fallback
        // quarantines, and trips whose effective hop was already masked.
        let mut quarantined = self.state.quarantines.clone();
        for event in events {
            match event {
                CtrlEvent::WatchdogTrip { trigger, .. } => {
                    self.metrics.watchdog_trips += 1;
                    let target = event
                        .effective_quarantine()
                        .expect("WatchdogTrip has a target");
                    if !quarantined.insert(target) {
                        self.metrics.attribution_dedups += 1;
                    } else if trigger.is_some() {
                        self.metrics.trigger_quarantines += 1;
                    } else {
                        self.metrics.victim_fallbacks += 1;
                    }
                }
                CtrlEvent::WatchdogClear { switch, port, tag } => {
                    self.metrics.watchdog_clears += 1;
                    quarantined.remove(&(*switch, *port, tag.0));
                }
                _ => {}
            }
        }

        let t0 = Instant::now();
        let staged = stage(
            &self.topo,
            &self.policy,
            &staged_state,
            self.committed.epoch + 1,
        );
        let dt = t0.elapsed();
        self.metrics.epochs_staged += 1;
        self.metrics.record_recompute(dt);

        let (candidate, elp_len) = match staged {
            Ok(ok) => ok,
            Err(e) => {
                self.metrics.verify_failures += 1;
                self.metrics.rollbacks += 1;
                return Ok(Plan::Reject(EpochOutcome::RolledBack {
                    abandoned_version: staged_state.version,
                    reason: RollbackReason::VerifyFailed(e.to_string()),
                }));
            }
        };

        if let Some(budget) = self.tcam_budget {
            if candidate.tcam_worst_switch > budget {
                self.metrics.budget_rejections += 1;
                self.metrics.rollbacks += 1;
                return Ok(Plan::Reject(EpochOutcome::RolledBack {
                    abandoned_version: staged_state.version,
                    reason: RollbackReason::BudgetExceeded {
                        worst_switch_entries: candidate.tcam_worst_switch,
                        budget,
                    },
                }));
            }
        }

        // Validation passed. Deltas are diffed against the previously
        // committed tables, so a switch applying them in epoch order
        // tracks the snapshot exactly.
        let deltas = self.committed.rules.diff(&candidate.rules);
        let rules_added = deltas.iter().map(|d| d.add.len()).sum();
        let rules_removed = deltas.iter().map(|d| d.remove.len()).sum();
        let report = CommitReport {
            epoch: candidate.epoch,
            version: candidate.version,
            rules_added,
            rules_removed,
            prev_table_rules: self.committed.rules.num_rules(),
            new_table_rules: candidate.rules.num_rules(),
            lossless_tags: candidate.lossless_tags,
            tcam_worst_switch: candidate.tcam_worst_switch,
            elp_paths: elp_len,
            recompute: dt,
            install_attempts: 0,
            install_backoff: Duration::ZERO,
            deltas,
        };
        Ok(Plan::Commit {
            staged_state,
            candidate,
            report,
        })
    }

    /// The commit point: the staged view becomes current.
    fn advance(&mut self, staged_state: NetworkState, candidate: Snapshot, report: &CommitReport) {
        self.metrics.epochs_committed += 1;
        self.metrics.rules_added += report.rules_added as u64;
        self.metrics.rules_removed += report.rules_removed as u64;
        self.state = staged_state;
        self.committed = candidate;
    }

    /// One switch's install under the retry policy. Returns the attempts
    /// spent and backoff accrued either way.
    fn install_with_retry(
        &mut self,
        southbound: &mut dyn Southbound,
        epoch: u64,
        delta: &RuleDelta,
        policy: &InstallPolicy,
    ) -> Result<(u32, Duration), (u32, Duration, InstallError)> {
        let mut backoff = Duration::ZERO;
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            backoff += policy.backoff_before(attempt);
            self.metrics.install_attempts += 1;
            match southbound.install(epoch, delta) {
                Ok(()) => {
                    self.metrics.install_backoff += backoff;
                    return Ok((attempt, backoff));
                }
                Err(e) => {
                    self.metrics.install_failures += 1;
                    if !e.is_retryable() || attempt >= policy.max_attempts.max(1) {
                        self.metrics.install_backoff += backoff;
                        return Err((attempt, backoff, e));
                    }
                    self.metrics.install_retries += 1;
                }
            }
        }
    }

    /// An install that must land: retries until the southbound acks.
    /// Used for rollback and reconciliation, where giving up would leave
    /// the fleet mixed-epoch. The attempt cap exists only to turn a
    /// southbound that can *never* succeed (fault rate 1 — outside the
    /// supported model, [`crate::ChaosConfig`] clamps below it) into a
    /// loud panic instead of a hang.
    fn force_install(&mut self, southbound: &mut dyn Southbound, epoch: u64, delta: &RuleDelta) {
        const CAP: u32 = 100_000;
        for _ in 0..CAP {
            self.metrics.install_attempts += 1;
            match southbound.install(epoch, delta) {
                Ok(()) => {
                    self.metrics.rollback_installs += 1;
                    return;
                }
                Err(e) => {
                    self.metrics.install_failures += 1;
                    assert!(
                        e.is_retryable(),
                        "rollback to previously-fitting tables hit a permanent error: {e}"
                    );
                }
            }
        }
        panic!("southbound refused a rollback install {CAP} times; fault model violated");
    }
}

/// What [`Controller::plan`] decided for one staged batch.
enum Plan {
    /// Validation rejected the candidate; nothing may move.
    Reject(EpochOutcome),
    /// Validation passed; the caller decides how commit meets install.
    Commit {
        staged_state: NetworkState,
        candidate: Snapshot,
        report: CommitReport,
    },
}

/// Stage step: recompute the tagging for a state and certify it.
///
/// Returns the candidate snapshot and the ELP size. The version stamped
/// into the snapshot is the state's; the epoch is the caller's.
fn stage(
    topo: &Topology,
    policy: &ElpPolicy,
    state: &NetworkState,
    epoch: u64,
) -> Result<(Snapshot, usize), RuleError> {
    let elp = policy.elp_for(topo, state);
    let tagging = Tagging::from_elp(topo, &elp)?;
    // `from_elp` already certified the closure graph; re-verify here so
    // the commit decision never depends on a distant invariant.
    tagging
        .graph()
        .verify()
        .map_err(RuleError::NotDeadlockFree)?;
    let tcam = TcamProgram::compile(topo, tagging.rules(), Compression::Joint);
    Ok((
        Snapshot {
            epoch,
            version: state.version,
            lossless_tags: tagging.num_lossless_tags_on(topo),
            tcam_worst_switch: tcam.max_entries_per_switch(),
            elp_paths: elp.len(),
            graph: tagging.graph().clone(),
            rules: tagging.rules().clone(),
        },
        elp.len(),
    ))
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::event::parse_trace;
    use tagger_topo::ClosConfig;

    fn small_controller() -> Controller {
        Controller::new(ClosConfig::small().build(), ElpPolicy::with_bounces(1)).unwrap()
    }

    #[test]
    fn bootstrap_commits_a_verified_epoch_zero() {
        let ctrl = small_controller();
        assert_eq!(ctrl.committed().epoch, 0);
        assert!(ctrl.committed().graph.verify().is_ok());
        assert!(ctrl.committed().rules.num_rules() > 0);
        // The general greedy pipeline is near-optimal here: the §4
        // Clos-specific construction would use 2 priorities for 1-bounce
        // ELPs, the greedy merge lands within one of that.
        assert!(ctrl.committed().lossless_tags <= 3);
    }

    #[test]
    fn link_down_commits_incremental_deltas() {
        let mut ctrl = small_controller();
        let full_before = ctrl.committed().rules.num_rules();
        let events = parse_trace(ctrl.topo(), "down L1 T1").unwrap();
        let outcome = ctrl.handle(&events[0]).unwrap();
        let report = outcome.committed().expect("single link down must commit");
        assert_eq!(report.epoch, 1);
        assert!(!report.deltas.is_empty(), "reroute must change some tables");
        assert!(
            report.delta_ops() < report.full_reinstall_ops(),
            "deltas ({} ops) must beat full reinstall ({} ops)",
            report.delta_ops(),
            report.full_reinstall_ops()
        );
        assert!(report.full_reinstall_ops() >= full_before);
        assert!(ctrl.committed().graph.verify().is_ok());
    }

    #[test]
    fn link_up_restores_the_original_tables() {
        let mut ctrl = small_controller();
        let original = ctrl.committed().rules.clone();
        let events = parse_trace(ctrl.topo(), "down L1 T1\nup L1 T1").unwrap();
        let outcomes = ctrl.replay(events.iter()).unwrap();
        assert!(outcomes.iter().all(|o| o.committed().is_some()));
        assert_eq!(ctrl.committed().epoch, 2);
        assert_eq!(
            ctrl.committed().rules,
            original,
            "recovering the link must converge back to the healthy tables"
        );
    }

    #[test]
    fn deltas_replayed_in_order_reproduce_committed_tables() {
        let mut ctrl = small_controller();
        let mut mirror = ctrl.committed().rules.clone();
        let trace = "down L1 T1\ndown L3 T3\nup L1 T1\nresync\nup L3 T3";
        let events = parse_trace(ctrl.topo(), trace).unwrap();
        for outcome in ctrl.replay(events.iter()).unwrap() {
            if let Some(report) = outcome.committed() {
                for delta in &report.deltas {
                    mirror.apply_delta(delta);
                }
            }
        }
        assert_eq!(mirror, ctrl.committed().rules);
    }

    #[test]
    fn tight_tcam_budget_rolls_back_and_preserves_state() {
        let topo = ClosConfig::small().build();
        let healthy = Controller::new(topo.clone(), ElpPolicy::with_bounces(1)).unwrap();
        let budget = healthy.committed().tcam_worst_switch;
        // Budget exactly at the healthy footprint: bootstrap fits, but a
        // failure's reroute tagging (more bounce variety through fewer
        // links) needs more entries somewhere and must be rejected.
        let mut ctrl =
            Controller::with_budget(topo, ElpPolicy::with_bounces(1), Some(budget)).unwrap();
        let before_rules = ctrl.committed().rules.clone();
        let before_version = ctrl.state().version;
        let events = parse_trace(ctrl.topo(), "down L1 T1").unwrap();
        match ctrl.handle(&events[0]).unwrap() {
            EpochOutcome::RolledBack { reason, .. } => {
                assert!(matches!(reason, RollbackReason::BudgetExceeded { .. }));
            }
            EpochOutcome::Committed(r) => {
                // If the reroute happens to fit the budget, the commit
                // must still respect it.
                assert!(r.tcam_worst_switch <= budget);
                return;
            }
        }
        assert_eq!(
            ctrl.committed().epoch,
            0,
            "rollback must not advance epochs"
        );
        assert_eq!(ctrl.committed().rules, before_rules);
        assert_eq!(
            ctrl.state().version,
            before_version,
            "rollback must also revert the staged state mutation"
        );
        assert_eq!(ctrl.metrics().rollbacks, 1);
        assert_eq!(ctrl.metrics().budget_rejections, 1);
    }

    #[test]
    fn impossible_budget_fails_bootstrap() {
        let topo = ClosConfig::small().build();
        let err = Controller::with_budget(topo, ElpPolicy::updown(), Some(1)).unwrap_err();
        assert!(matches!(err, CtrlError::BootstrapBudget { budget: 1, .. }));
    }

    #[test]
    fn elp_add_then_remove_round_trips() {
        let mut ctrl = small_controller();
        let original = ctrl.committed().rules.clone();
        // A 2-bounce path (bounces at T2 and T3) — outside the 1-bounce
        // policy enumeration, so pinning it genuinely changes the ELP.
        let trace = "elp-add H1 T1 L1 T2 L2 S1 L3 T3 L4 T4 H13\n\
                     elp-remove H1 T1 L1 T2 L2 S1 L3 T3 L4 T4 H13";
        let events = parse_trace(ctrl.topo(), trace).unwrap();
        let outcomes = ctrl.replay(events.iter()).unwrap();
        assert_eq!(outcomes.len(), 2);
        assert!(outcomes.iter().all(|o| o.committed().is_some()));
        assert_eq!(ctrl.committed().rules, original);
        assert!(ctrl.state().extra_paths.is_empty());
    }

    #[test]
    fn watchdog_trip_commits_a_corrective_delta_and_clear_restores() {
        let mut ctrl = small_controller();
        let original = ctrl.committed().rules.clone();
        let events = parse_trace(ctrl.topo(), "watchdog L1 0 2").unwrap();
        let outcome = ctrl.handle(&events[0]).unwrap();
        let report = outcome.committed().expect("quarantine must commit");
        assert_eq!(report.epoch, 1);
        assert!(
            !report.deltas.is_empty(),
            "quarantining a spine-facing hop must change some tables"
        );
        assert_eq!(ctrl.state().quarantines.len(), 1);
        assert!(ctrl.committed().graph.verify().is_ok());
        assert_eq!(ctrl.metrics().watchdog_trips, 1);

        let events = parse_trace(ctrl.topo(), "watchdog-clear L1 0 2").unwrap();
        let outcome = ctrl.handle(&events[0]).unwrap();
        assert!(outcome.committed().is_some());
        assert!(ctrl.state().quarantines.is_empty());
        assert_eq!(
            ctrl.committed().rules,
            original,
            "lifting the quarantine must converge back to the healthy tables"
        );
        assert_eq!(ctrl.metrics().watchdog_clears, 1);
    }

    #[test]
    fn reliable_southbound_commits_track_the_fleet() {
        let mut ctrl = small_controller();
        let mut sb = crate::ReliableSouthbound::new();
        sb.bootstrap(&ctrl.committed().rules);
        let policy = InstallPolicy::default();
        let events = parse_trace(ctrl.topo(), "down L1 T1\nup L1 T1").unwrap();
        for e in &events {
            let outcome = ctrl.handle_via(e, &mut sb, &policy).unwrap();
            let report = outcome.committed().expect("reliable installs commit");
            assert_eq!(report.install_attempts, report.deltas.len() as u64);
            assert_eq!(report.install_backoff, Duration::ZERO);
            assert_eq!(sb.fleet(), &ctrl.committed().rules);
        }
    }

    #[test]
    fn chaotic_installs_never_leave_the_fleet_mixed_epoch() {
        use crate::{ChaosConfig, ChaosSouthbound};
        let mut ctrl = small_controller();
        let mut sb = ChaosSouthbound::new(ChaosConfig::new(5, 0.4));
        sb.bootstrap(&ctrl.committed().rules);
        let policy = InstallPolicy {
            max_attempts: 2, // tight budget so some epochs abort
            ..InstallPolicy::default()
        };
        let trace = "down L1 T1\ndown L3 T3\nup L1 T1\nup L3 T3\nresync";
        let events = parse_trace(ctrl.topo(), trace).unwrap();
        let mut aborted = 0;
        for e in &events {
            match ctrl.handle_via(e, &mut sb, &policy).unwrap() {
                EpochOutcome::Committed(_) => {}
                EpochOutcome::RolledBack { reason, .. } => {
                    assert!(matches!(reason, RollbackReason::InstallAborted { .. }));
                    aborted += 1;
                }
            }
            // The barrier invariant, checked against the fleet's ground
            // truth after *every* event, committed or aborted:
            assert_eq!(
                sb.fleet(),
                &ctrl.committed().rules,
                "fleet must always run exactly the committed (verified) tables"
            );
            assert!(ctrl.committed().graph.verify().is_ok());
        }
        assert!(sb.faults_injected() > 0, "40% chaos must inject faults");
        let m = ctrl.metrics();
        assert!(m.install_attempts > events.len() as u64);
        assert!(m.install_failures > 0);
        if aborted > 0 {
            assert_eq!(m.install_aborts, aborted);
            assert!(m.rollback_installs > 0);
        }
    }

    #[test]
    fn retries_accrue_recorded_backoff() {
        use crate::{ChaosConfig, ChaosSouthbound};
        let mut ctrl = small_controller();
        let mut sb = ChaosSouthbound::new(ChaosConfig::new(9, 0.6));
        sb.bootstrap(&ctrl.committed().rules);
        let policy = InstallPolicy::default();
        let events = parse_trace(ctrl.topo(), "down L1 T1\nup L1 T1\nresync").unwrap();
        for e in &events {
            ctrl.handle_via(e, &mut sb, &policy).unwrap();
        }
        let m = ctrl.metrics();
        assert!(m.install_retries > 0, "60% chaos must force retries");
        assert!(m.install_backoff > Duration::ZERO);
    }

    #[test]
    fn backoff_schedule_doubles_up_to_the_cap() {
        let p = InstallPolicy::default();
        assert_eq!(p.backoff_before(1), Duration::ZERO);
        assert_eq!(p.backoff_before(2), Duration::from_millis(1));
        assert_eq!(p.backoff_before(3), Duration::from_millis(2));
        assert_eq!(p.backoff_before(8), Duration::from_millis(64));
        assert_eq!(p.backoff_before(40), Duration::from_millis(64), "capped");
    }

    #[test]
    fn flap_damping_coalesces_repeated_transitions() {
        let mut ctrl = small_controller();
        let mut sb = crate::ReliableSouthbound::new();
        sb.bootstrap(&ctrl.committed().rules);
        let original = ctrl.committed().rules.clone();
        // 4 down/up pairs on one link then a real failure elsewhere.
        let events = parse_trace(ctrl.topo(), "flap L1 T1 4\ndown L2 T2").unwrap();
        assert_eq!(events.len(), 9);
        let outcomes = ctrl
            .replay_damped_via(
                &events,
                &mut sb,
                &InstallPolicy::default(),
                &mut crate::NoopObserver,
            )
            .unwrap();
        assert_eq!(outcomes.len(), 2, "8 flap events + 1 failure → 2 epochs");
        assert_eq!(ctrl.metrics().flaps_damped, 7);
        assert_eq!(ctrl.metrics().epochs_staged, 2);
        // The flap's net effect is "nothing": its batch commits the same
        // tables (empty deltas), then the real failure reroutes.
        let flap_report = outcomes[0].committed().unwrap();
        assert!(flap_report.deltas.is_empty());
        assert_eq!(flap_report.version, 8);
        assert_ne!(ctrl.committed().rules, original);
        assert_eq!(sb.fleet(), &ctrl.committed().rules);
    }

    #[test]
    fn resume_rebuilds_the_same_snapshot() {
        let mut ctrl = small_controller();
        let events = parse_trace(ctrl.topo(), "down L1 T1\ndown L2 T2").unwrap();
        ctrl.replay(events.iter()).unwrap();
        let resumed = Controller::resume(
            ctrl.topo().clone(),
            ctrl.policy(),
            None,
            ctrl.state().clone(),
            ctrl.committed().epoch,
        )
        .unwrap();
        assert_eq!(resumed.committed().rules, ctrl.committed().rules);
        assert_eq!(resumed.committed().epoch, ctrl.committed().epoch);
        assert_eq!(resumed.state(), ctrl.state());
    }

    #[test]
    fn reconcile_repairs_a_diverged_fleet() {
        let mut ctrl = small_controller();
        let mut sb = crate::ReliableSouthbound::new();
        // Deliberately bootstrap the fleet with nothing: maximal
        // divergence from the committed tables.
        sb.bootstrap(&RuleSet::new());
        let fixed = ctrl.reconcile(&mut sb);
        assert!(fixed > 0);
        assert_eq!(sb.fleet(), &ctrl.committed().rules);
        assert_eq!(ctrl.reconcile(&mut sb), 0, "second pass has nothing to do");
    }

    #[test]
    fn malformed_event_is_a_hard_error_not_a_rollback() {
        let mut ctrl = small_controller();
        let bogus = tagger_topo::LinkId(ctrl.topo().num_links() as u32 + 7);
        let err = ctrl.handle(&CtrlEvent::LinkDown(bogus)).unwrap_err();
        assert_eq!(err, CtrlError::UnknownLink(bogus));
        assert_eq!(ctrl.metrics().events, 0);
        assert_eq!(ctrl.committed().epoch, 0);
    }
}
