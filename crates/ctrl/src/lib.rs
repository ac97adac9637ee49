//! # tagger-ctrl — an incremental control plane for live tag management
//!
//! The Tagger paper (§4, §8) assumes tags and match-action rules are
//! installed once, ahead of time, for a *static* ELP set. Real fabrics
//! are not static: links fail and recover, and operators grow or shrink
//! the expected lossless path set while traffic is flowing. This crate
//! adds the missing piece — a small event-driven controller that keeps a
//! fleet of switches converged on a deadlock-free tagging as the network
//! changes, without ever reinstalling full tables.
//!
//! The moving parts:
//!
//! - [`CtrlEvent`] — the event vocabulary (`LinkDown`, `LinkUp`,
//!   `ElpAdd`, `ElpRemove`, `Resync`), parseable from a plain-text trace
//!   with [`parse_trace`] so recorded incidents can be replayed.
//! - [`NetworkState`] — the controller's versioned view of the world: a
//!   topology overlaid with a live [`tagger_topo::FailureSet`] plus any
//!   operator-added ELPs.
//! - [`Controller`] — consumes events and runs a **two-phase rollout**
//!   per epoch: *stage* (recompute the tagging against the new state),
//!   *validate* (Theorem 5.1 verification plus a per-switch TCAM
//!   budget), then either *commit* — emitting per-switch [`RuleDelta`]s
//!   diffed against the last committed snapshot — or *roll back*,
//!   leaving the previous verified tables untouched.
//! - [`ControllerMetrics`] — counters and recompute latencies with a
//!   plain-text [`ControllerMetrics::report`].
//! - [`Southbound`] — the install transport between commits and the
//!   fleet's running tables, with a [`ReliableSouthbound`] and a
//!   seeded fault-injecting [`ChaosSouthbound`]. Commits through
//!   [`Controller::handle_via`] retry per switch with exponential
//!   backoff under an [`InstallPolicy`] and enforce a commit barrier:
//!   an epoch lands everywhere or is rolled back everywhere — the fleet
//!   is never left running a mix of epochs.
//! - [`Damping`] — event batching (`None`, `Flap`, `FlapCapped(n)`):
//!   how a stream of events is split into recompute batches. Every
//!   variant is suffix-closed, so a bounded ingest queue can drain a few
//!   batches per cycle without changing how the remainder will batch —
//!   what lets `tagger-fleetd` damp each fabric independently, never
//!   across fabrics.
//! - [`Journal`] — a write-ahead event journal with snapshot
//!   checkpoints; [`recover`] rebuilds a crashed controller to
//!   byte-identical committed tables and [`Controller::reconcile`]
//!   repairs whatever a mid-epoch crash left on the switches.
//! - [`Controller::apply_batch`] — the write-ahead batch step, the one
//!   place an epoch is applied: journal the events, run the two-phase
//!   rollout, journal the outcome, notify the [`CommitObserver`],
//!   checkpoint on cadence. [`Journal::drive`], the un-journaled
//!   [`Controller::replay_damped_via`] and `tagger-fleet`'s ingest
//!   drain all go through it.
//!
//! The invariant the controller maintains is the one that matters for
//! PFC safety: **every committed snapshot is a verified tagged graph**
//! (monotone, per-tag acyclic — Theorem 5.1 of the paper), and replaying
//! the emitted deltas from epoch 0 reconstructs the committed tables
//! exactly, so switches that apply deltas in order can never drift from
//! the certificate.
#![forbid(unsafe_code)]
#![warn(missing_docs)]
// The controller ingests untrusted artifacts (traces, journals); library
// paths must return typed errors, never panic. Tests are allow-listed.
#![warn(clippy::unwrap_used)]

mod chaos;
mod controller;
mod damping;
mod event;
mod journal;
mod metrics;
mod observer;
mod southbound;
mod state;

pub use chaos::{ChaosConfig, ChaosSouthbound};
pub use controller::{
    CommitReport, Controller, CtrlError, EpochOutcome, InstallPolicy, RollbackReason, Snapshot,
};
pub use damping::Damping;
pub use event::{parse_trace, CtrlEvent, TraceError, TraceErrorKind, TriggerInfo};
pub use journal::{recover, DriveReport, Journal, JournalError, Recovery};
pub use metrics::ControllerMetrics;
pub use observer::{CommitObserver, NoopObserver};
pub use southbound::{ReliableSouthbound, Southbound};
pub use state::{ElpPolicy, NetworkState};

pub use tagger_core::{InstallError, RuleDelta};
