//! # Tagger — practical PFC deadlock prevention for data center networks
//!
//! This crate is the umbrella facade of a full reproduction of
//! *"Tagger: Practical PFC Deadlock Prevention in Data Center Networks"*
//! (Hu et al., CoNEXT 2017). It re-exports the workspace crates:
//!
//! - [`topo`] — data-center topologies (Clos, FatTree, BCube, Jellyfish)
//!   with port-level links, layers and failure injection.
//! - [`routing`] — up-down / shortest-path / BCube routing, k-bounce
//!   expected-lossless-path (ELP) expansion, reroute and loop injection.
//! - [`core`] — the paper's contribution: tagged-graph generation
//!   (Algorithms 1 and 2), the optimal Clos construction, deadlock-freedom
//!   verification, match-action rule generation and TCAM compression.
//! - [`switch`] — a shared-buffer PFC switch model with per-priority
//!   ingress/egress queues and the three-step Tagger pipeline.
//! - [`sim`] — a deterministic discrete-event network simulator used to
//!   reproduce the paper's testbed experiments (deadlock formation, PAUSE
//!   propagation, routing loops and performance-penalty runs).
//!
//! ## Quickstart
//!
//! ```
//! use tagger::prelude::*;
//!
//! // Build a small 3-layer Clos fabric.
//! let topo = ClosConfig::small().build();
//!
//! // The operator wants shortest up-down paths plus 1-bounce reroutes
//! // to stay lossless.
//! let elp = Elp::updown_with_bounces(&topo, 1);
//!
//! // Tag it: the Clos-optimal construction needs k+1 = 2 lossless queues.
//! let tagging = clos_tagging(&topo, 1).expect("clos topology");
//! assert_eq!(tagging.num_lossless_tags_on(&topo), 2);
//!
//! // The result is certified deadlock-free, and every path in the ELP
//! // really stays lossless under the compiled rules.
//! tagging.graph().verify().expect("deadlock-free");
//! tagging.check_elp_lossless(&topo, &elp).expect("lossless");
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use tagger_audit as audit;
pub use tagger_core as core;
pub use tagger_ctrl as ctrl;
pub use tagger_fleet as fleet;
pub use tagger_lint as lint;
pub use tagger_routing as routing;
pub use tagger_scenario as scenario;
pub use tagger_sim as sim;
pub use tagger_switch as switch;
pub use tagger_topo as topo;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use tagger_core::{
        clos::clos_tagging, greedy_minimize, tag_by_hop_count, Elp, Tag, TaggedGraph, Tagging,
    };
    pub use tagger_ctrl::{Controller, CtrlEvent, ElpPolicy};
    pub use tagger_fleet::{FabricSpec, Fleet, FleetConfig};
    pub use tagger_routing::{updown_paths, Path};
    pub use tagger_scenario::Experiment;
    pub use tagger_sim::Simulator;
    pub use tagger_topo::{ClosConfig, Layer, NodeId, Topology};
}
