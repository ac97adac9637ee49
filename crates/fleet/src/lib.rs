//! Multi-fabric control-plane supervision for Tagger — the library
//! behind `tagger-fleetd`.
//!
//! One controller process per fabric does not survive contact with a
//! real deployment: operators run *fleets* of fabrics, and the
//! interesting failures are cross-fabric — a flap storm in one fabric
//! starving the others' recomputes, two fabrics accidentally journaling
//! into the same file, a fleet-wide rollout gated on every fabric being
//! simultaneously certified. This crate supervises N independent
//! fabrics in one process while keeping them *provably* independent:
//!
//! - [`Fabric`] — one fabric's controller, write-ahead journal, chaos
//!   (or reliable) southbound, and independent audit loop, behind a
//!   bounded ingest queue with a per-fabric [`Damping`]. Every drained
//!   batch goes through the controller's one write-ahead step,
//!   [`Controller::apply_batch`](tagger_ctrl::Controller::apply_batch).
//!   Nothing is shared between fabrics.
//! - [`Fleet`] — the registry and fair drain loop. Registration derives
//!   an isolated journal path per fabric and refuses duplicates even
//!   across path respellings; draining visits every fabric per cycle
//!   with a bounded batch quantum, so one flapping fabric cannot starve
//!   the rest. Because every damping variant is suffix-closed, the bounded
//!   interleaved drain commits *exactly* the epochs a solo replay would.
//! - [`FleetReport`] — per-fabric status plus `Sum`-based rollups of
//!   [`ControllerMetrics`](tagger_ctrl::ControllerMetrics) and
//!   [`AuditMetrics`](tagger_audit::AuditMetrics), rendered as operator
//!   text or seed-deterministic JSON.
//! - [`run_soak`] — the chaos-soak drill: every fabric under a distinct
//!   seeded fault schedule, graded on audit certification, journal
//!   recoverability, quarantine consistency, and southbound convergence,
//!   emitting a byte-stable [`ReadinessReport`].
//! - [`net`] — the framed TCP ingest front (DESIGN §15): a
//!   resynchronizing wire codec, a threaded server with per-client
//!   sequence dedupe and `Backpressure` instead of drops, a bounded
//!   retry client, and a seeded chaos transport proxy — events arrive
//!   exactly once, and networked journals are byte-identical to a solo
//!   replay.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]

mod error;
mod fabric;
pub mod net;
mod registry;
mod report;
mod soak;

pub use error::FleetError;
pub use fabric::{Fabric, FabricId, FabricSpec};
pub use registry::{Fleet, FleetConfig};
pub use report::{percentile_us, FabricStatus, FleetReport};
pub use soak::{
    fabric_seed, run_soak, schedule_lines, soak_schedule, FabricReadiness, ReadinessReport,
    SoakConfig, SoakOutcome,
};
pub use tagger_ctrl::Damping;
