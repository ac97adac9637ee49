//! Fleet-level behavioural guarantees (ISSUE satellite):
//!
//! 1. **Interleaving equivalence** — for *any* interleaved multi-fabric
//!    event stream, draining through the fleet's bounded fair
//!    round-robin front commits exactly the same epochs per fabric as
//!    replaying that fabric's subsequence alone through an unbounded
//!    single-tenant drain. Per-fabric damping plus suffix-closed
//!    policies make batching independent of where drain cycles land; we
//!    assert it all the way down to byte-identical write-ahead journals.
//! 2. **No starvation** — one flapping fabric with a deep backlog
//!    cannot delay quiet fabrics' commits past the fair-drain bound.

use proptest::prelude::*;
use std::path::PathBuf;
use tagger_ctrl::CtrlEvent;
use tagger_fleet::{Damping, FabricSpec, Fleet, FleetConfig};
use tagger_topo::{ClosConfig, LinkId, Topology};

fn trunk_links(topo: &Topology) -> Vec<LinkId> {
    topo.link_ids()
        .filter(|&l| {
            let link = topo.link(l);
            topo.node(link.a.node).kind != tagger_topo::NodeKind::Host
                && topo.node(link.b.node).kind != tagger_topo::NodeKind::Host
        })
        .collect()
}

fn decode(links: &[LinkId], op: (usize, u8)) -> CtrlEvent {
    let link = links[op.0 % links.len()];
    match op.1 % 3 {
        0 => CtrlEvent::LinkDown(link),
        1 => CtrlEvent::LinkUp(link),
        _ => CtrlEvent::Resync,
    }
}

fn tmp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("tagger-fleet-props-{}-{tag}", std::process::id()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The tentpole equivalence: interleaved + bounded fair drain ==
    /// solo + unbounded drain, per fabric, down to journal bytes.
    #[test]
    fn interleaved_drain_commits_exactly_the_solo_epochs(
        ops in proptest::collection::vec((0usize..64, 0u8..3, 0u8..3), 1..10),
        quantum in 1usize..4,
        damping_pick in 0u8..3,
    ) {
        let topo = ClosConfig::small().build();
        let links = trunk_links(&topo);
        let damping = match damping_pick {
            0 => Damping::None,
            1 => Damping::Flap,
            _ => Damping::FlapCapped(2),
        };
        // Split the interleaved stream into per-fabric subsequences.
        let names = ["iq-a", "iq-b", "iq-c"];
        let stream: Vec<(usize, CtrlEvent)> = ops
            .iter()
            .map(|&(l, kind, fab)| (fab as usize % names.len(), decode(&links, (l, kind))))
            .collect();

        // Interleaved fleet: all three fabrics, events fed in stream
        // order, a bounded fair drain cycle every few events.
        let dir_multi = tmp_dir(&format!("multi-{quantum}-{damping_pick}"));
        std::fs::remove_dir_all(&dir_multi).ok();
        let mut cfg = FleetConfig::new(&dir_multi);
        cfg.drain_quantum = quantum;
        let mut fleet = Fleet::new(cfg);
        for name in names {
            fleet
                .register(FabricSpec::new(name, topo.clone()).with_damping(damping))
                .expect("healthy fabric registers");
        }
        for (i, (fab, event)) in stream.iter().enumerate() {
            fleet.ingest(names[*fab], event.clone()).expect("queue is deep enough");
            if i % 3 == 2 {
                fleet.drain_cycle().expect("drain never hard-errors");
            }
        }
        fleet.drain_all().expect("drain never hard-errors");

        // Solo fleets: one fabric each, fed its own subsequence,
        // drained unbounded in one go.
        let dir_solo = tmp_dir(&format!("solo-{quantum}-{damping_pick}"));
        std::fs::remove_dir_all(&dir_solo).ok();
        let mut solo = Fleet::new(FleetConfig::new(&dir_solo));
        for name in names {
            solo.register(FabricSpec::new(name, topo.clone()).with_damping(damping))
                .expect("healthy fabric registers");
        }
        for (fab, event) in &stream {
            solo.ingest(names[*fab], event.clone()).expect("queue is deep enough");
        }
        for name in names {
            solo.drain_fabric(name).expect("drain never hard-errors");
        }

        for name in names {
            let multi = fleet.fabric(name).expect("registered");
            let single = solo.fabric(name).expect("registered");
            prop_assert_eq!(multi.queued(), 0);
            prop_assert_eq!(multi.batches(), single.batches(), "{}: batch boundaries must match", name);
            prop_assert_eq!(multi.commits(), single.commits(), "{}: commits must match", name);
            prop_assert_eq!(multi.rollbacks(), single.rollbacks(), "{}", name);
            prop_assert_eq!(
                multi.controller().committed().epoch,
                single.controller().committed().epoch,
                "{}: final epoch must match", name
            );
            prop_assert!(
                multi.controller().committed().rules == single.controller().committed().rules,
                "{}: final committed tables must match", name
            );
            prop_assert_eq!(
                multi.controller().metrics().flaps_damped,
                single.controller().metrics().flaps_damped,
                "{}: damping must absorb the same transitions", name
            );
            // The strongest form: the write-ahead journals are
            // byte-identical — same events, same batch boundaries, same
            // outcomes, same checkpoint cadence.
            let multi_journal = std::fs::read_to_string(multi.journal_path()).expect("journal");
            let solo_journal = std::fs::read_to_string(single.journal_path()).expect("journal");
            prop_assert_eq!(multi_journal, solo_journal, "{}: journals must be byte-identical", name);
        }
        std::fs::remove_dir_all(&dir_multi).ok();
        std::fs::remove_dir_all(&dir_solo).ok();
    }
}

/// One flapping fabric with a deep backlog; N quiet fabrics with a
/// couple of events each. The fair drain bound: a quiet fabric's queue
/// is fully processed within `ceil(queued_batches / quantum)` cycles,
/// no matter how deep the noisy backlog is.
#[test]
fn flapping_fabric_cannot_starve_quiet_fabrics() {
    let topo = ClosConfig::small().build();
    let links = trunk_links(&topo);
    let dir = tmp_dir("starve");
    std::fs::remove_dir_all(&dir).ok();
    let mut cfg = FleetConfig::new(&dir);
    cfg.drain_quantum = 2;
    let mut fleet = Fleet::new(cfg);

    // The noisy fabric uses `Damping::None`, so every queued event is its own
    // batch — the worst case for everyone else.
    fleet
        .register(FabricSpec::new("noisy", topo.clone()).with_damping(Damping::None))
        .expect("register");
    let quiet = ["quiet-0", "quiet-1", "quiet-2"];
    for name in quiet {
        fleet
            .register(FabricSpec::new(name, topo.clone()))
            .expect("register");
    }

    // 40 batches of backlog for the noisy fabric (20 cycles at quantum
    // 2), 2 events (one damped batch: down+up on the same link) each
    // for the quiet ones.
    for _ in 0..20 {
        fleet
            .ingest("noisy", CtrlEvent::LinkDown(links[0]))
            .expect("cap");
        fleet
            .ingest("noisy", CtrlEvent::LinkUp(links[0]))
            .expect("cap");
    }
    for name in quiet {
        fleet
            .ingest(name, CtrlEvent::LinkDown(links[1]))
            .expect("cap");
        fleet
            .ingest(name, CtrlEvent::LinkUp(links[1]))
            .expect("cap");
    }

    // One fair cycle: each quiet fabric has exactly 1 damped batch
    // queued (< quantum), so it must fully commit in this cycle even
    // though the noisy fabric still has a deep backlog.
    fleet.drain_cycle().expect("drain");
    for name in quiet {
        let fabric = fleet.fabric(name).expect("registered");
        assert_eq!(
            fabric.queued(),
            0,
            "{name} must drain within one fair cycle"
        );
        assert_eq!(fabric.commits(), 1, "{name} must commit its flap epoch");
        assert!(fabric.converged());
    }
    let noisy = fleet.fabric("noisy").expect("registered");
    assert!(
        noisy.queued() >= 36,
        "the noisy backlog must still be deep (got {} queued)",
        noisy.queued()
    );
    assert_eq!(noisy.batches(), 2, "noisy got exactly its quantum, no more");

    // And the backlog eventually clears without anyone diverging.
    fleet.drain_all().expect("drain");
    assert_eq!(fleet.fabric("noisy").expect("registered").queued(), 0);
    let report = fleet.snapshot();
    assert!(report.healthy(), "{}", report.render());
    std::fs::remove_dir_all(&dir).ok();
}
