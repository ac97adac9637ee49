//! Claims about the shipped scenarios that a single `.scn` `assert`
//! cannot state: comparisons between a scenario pair, sweeps over a
//! parameter the file pins, and checks on the simulator state a run
//! leaves behind. Every run loads its scenario from
//! `examples/scenarios/`, so these tests and the `results/` figures
//! exercise the same definitions.

#![allow(clippy::unwrap_used)]

use proptest::prelude::*;
use std::collections::BTreeMap;
use tagger_core::RuleDelta;
use tagger_scenario::{
    evaluate, instantiate, parse, points, quarantine_events, EventSpec, Experiment, Num,
    RunOptions, Scenario, TaggerMode, TimeSpec, WatchdogDecl,
};
use tagger_sim::{FlowSpec, SimReport};
use tagger_switch::WatchdogConfig;
use tagger_topo::{ClosConfig, GlobalPort, NodeId};

fn load(file: &str) -> Scenario {
    let path = format!(
        "{}/../../examples/scenarios/{file}",
        env!("CARGO_MANIFEST_DIR")
    );
    parse(&std::fs::read_to_string(&path).unwrap()).unwrap()
}

fn expand(s: &Scenario) -> Experiment {
    instantiate(s, &BTreeMap::new(), &RunOptions::default()).unwrap()
}

fn run(s: &Scenario) -> SimReport {
    expand(s).run().0
}

/// A scenario run with its watchdog re-armed at `window_ns`.
fn run_with_watchdog(s: &Scenario, window_ns: u64) -> SimReport {
    let mut exp = expand(s);
    exp.sim.arm_watchdog(WatchdogConfig::with_window(window_ns));
    exp.sim.run()
}

/// Both flows of a transient-failure run back at line rate at the end.
fn assert_recovered(report: &SimReport) {
    for f in &report.flows {
        assert!(
            f.tail_rate(5) > 35e9,
            "flow {} did not recover: {}",
            f.flow,
            f.tail_rate(5)
        );
    }
}

#[test]
fn dcqcn_slashes_pause_count_at_similar_goodput() {
    let without = run(&load("dcqcn_off.scn"));
    let with = run(&load("dcqcn_on.scn"));
    assert!(
        with.pauses_sent * 5 < without.pauses_sent,
        "expected >5x PAUSE reduction: {} vs {}",
        with.pauses_sent,
        without.pauses_sent
    );
    let ratio = with.aggregate_goodput_bps() / without.aggregate_goodput_bps();
    assert!(
        (0.85..1.15).contains(&ratio),
        "goodput ratio {ratio} out of range"
    );
}

#[test]
fn perf_penalty_parity() {
    let with = run(&load("perf_penalty.scn"));
    let without = run(&load("perf_penalty_vanilla.scn"));
    let a = with.aggregate_goodput_bps();
    let b = without.aggregate_goodput_bps();
    let penalty = (b - a) / b;
    assert!(
        penalty.abs() < 0.02,
        "tagger penalty {penalty:.3} exceeds 2% (with={a:.3e}, without={b:.3e})"
    );
}

#[test]
fn deadlock_persists_under_pause_quanta() {
    // Real PFC pauses expire unless refreshed; a CBD deadlock's ingress
    // never drains, so the refresh never stops and the deadlock is just
    // as permanent (paper §1: deadlocks are not transient).
    let mut s = load("fig10_vanilla.scn");
    s.pause_quanta = Some(TimeSpec::Ns(Num::Lit(50_000)));
    let report = run(&s);
    assert!(
        report.deadlock.is_some(),
        "deadlock must survive quanta expiry"
    );
    assert_eq!(report.frozen_flows(5), 2);
}

#[test]
fn transient_failure_via_controller_matches_hand_wired_tagger() {
    // The controller's failure epoch, as the scenario installs it, is a
    // real incremental update: it touches tables, but costs far less
    // than a full reinstall.
    let mut exp = expand(&load("transient_controller.scn"));
    let epoch0 = exp.sim.rules().cloned().unwrap();
    let controller = exp.sim.run();
    let installed = exp.sim.rules().unwrap();
    let deltas = epoch0.diff(installed);
    assert!(!deltas.is_empty(), "reconvergence installed no deltas");
    let delta_ops: usize = deltas.iter().map(RuleDelta::len).sum();
    let full_reinstall_ops = epoch0.num_rules() + installed.num_rules();
    assert!(
        delta_ops < full_reinstall_ops,
        "deltas ({delta_ops} ops) must beat full reinstall ({full_reinstall_ops} ops)"
    );

    // Applied at reconvergence, those deltas give the hand-wired Tagger
    // outcome: no deadlock, ricochets absorbed lossy, and both flows
    // back at line rate.
    let tagger = run(&load("transient_tagger.scn"));
    for (file, report) in [
        ("transient_controller.scn", controller),
        ("transient_tagger.scn", tagger),
    ] {
        assert!(report.deadlock.is_none(), "{file}");
        assert_eq!(report.lossless_drops, 0, "{file}");
        assert!(report.lossy_drops > 0, "{file}: ricochets must go lossy");
        assert_eq!(report.frozen_flows(5), 0, "{file}");
        assert_recovered(&report);
    }
}

/// The shipped failure sweep stops at the 1- and 2-link points the
/// figure prints; its guarantee must also hold with 3 and 4 links down.
/// Seed 3 is a failure pattern that deadlocks both points without
/// Tagger.
#[test]
fn failure_sweep_tagger_holds_with_three_and_four_failed_links() {
    let mut s = load("failure_sweep_tagger.scn");
    let sweep = &mut s.sweeps[0];
    assert_eq!(sweep.var, "nfail");
    (sweep.from, sweep.to) = (3, 4);
    let opts = RunOptions {
        seed: Some(3),
        ..RunOptions::default()
    };
    assert!(!s.asserts.is_empty());
    for vars in points(&s) {
        let report = instantiate(&s, &vars, &opts).unwrap().run().0;
        for outcome in evaluate(&s, &vars, &report) {
            assert!(
                outcome.pass,
                "nfail {}: {} ({})",
                vars["nfail"], outcome.label, outcome.detail
            );
        }
    }
}

#[test]
fn chaotic_reroute_is_safe_for_every_seed() {
    use tagger_ctrl::{
        ChaosConfig, ChaosSouthbound, Controller, CtrlEvent, ElpPolicy, InstallPolicy, Southbound,
    };

    let base = load("transient_chaos.scn");
    let TaggerMode::Chaos { rate, .. } = base.tagger else {
        panic!("transient_chaos.scn is not a chaos scenario");
    };
    let topo = ClosConfig::small().build();
    let dead = topo
        .link_between(topo.expect_node("L1"), topo.expect_node("T1"))
        .unwrap();
    let mut retried = 0;
    for seed in 0..5u64 {
        // The rollout itself: whatever chaos did, the fleet runs exactly
        // the committed (verified) tables — never a mixed epoch.
        let mut ctrl = Controller::new(topo.clone(), ElpPolicy::with_bounces(1)).unwrap();
        let mut sb = ChaosSouthbound::new(ChaosConfig::new(seed, rate));
        sb.bootstrap(&ctrl.committed().rules);
        ctrl.handle_via(
            &CtrlEvent::LinkDown(dead),
            &mut sb,
            &InstallPolicy::default(),
        )
        .unwrap();
        assert_eq!(sb.fleet(), &ctrl.committed().rules, "seed {seed}");
        assert!(ctrl.committed().graph.verify().is_ok());
        if ctrl.metrics().install_retries > 0 {
            retried += 1;
        }

        // The safety floor chaos cannot lower: no deadlock, no lossless
        // drop, the victim never freezes.
        let mut s = base.clone();
        s.tagger = TaggerMode::Chaos {
            seed: Num::Lit(seed),
            rate,
        };
        let report = run(&s);
        assert!(report.deadlock.is_none(), "seed {seed} deadlocked");
        assert_eq!(report.lossless_drops, 0, "seed {seed} dropped lossless");
        assert!(
            !report.flows[1].stalled(5),
            "seed {seed}: victim flow froze"
        );
    }
    assert!(
        retried > 0,
        "40% chaos over 5 seeds must force at least one retry"
    );
}

#[test]
fn watchdog_rescue_recovers_and_maps_to_quarantines() {
    let s = load("watchdog_rescue.scn");
    let window_ns = 200_000;

    // Demote policy: the cycle clears within two windows of the first
    // trip, and the off-cycle victim H3->H4 is untouched.
    let report = run(&s);
    let w = report.watchdog.clone().unwrap();
    let first = w.first_trip_at.unwrap();
    let cleared = w.cleared_at.expect("cycle must clear after demotion");
    assert!(
        cleared - first <= 2 * window_ns,
        "recovery took {} ns (> 2 windows)",
        cleared - first
    );
    assert!(w.stats.demoted_packets + w.stats.redirected_packets > 0);
    let victim = &report.flows[2];
    assert_eq!(victim.wd_drops, 0);
    assert!(victim.delivered_bytes > 0);

    // The trips collapse into deduplicated controller quarantines.
    let events = quarantine_events(&report);
    assert!(!events.is_empty());
    assert!(events.len() as u64 <= w.stats.trips);

    // Drop policy: recovery by sacrifice — the drained packets are
    // accounted per flow, and the cycle still clears.
    let mut drop = s.clone();
    drop.watchdog = Some(WatchdogDecl {
        drop: true,
        ..s.watchdog.clone().unwrap()
    });
    let report = run(&drop);
    let w = report.watchdog.unwrap();
    assert!(w.cleared_at.is_some(), "drain must clear the cycle");
    assert!(w.stats.drained_packets > 0);
    let drained: u64 = report.flows.iter().map(|f| f.wd_drops).sum();
    assert_eq!(drained, w.stats.drained_packets, "per-flow attribution");
}

#[test]
fn incast_guard_maps_to_no_quarantine() {
    let report = run(&load("incast_guard.scn"));
    assert!(report.pauses_sent > 0, "PFC must actually engage");
    assert!(quarantine_events(&report).is_empty());
}

#[test]
fn attribution_matches_ground_truth_on_bounce_deadlock() {
    let report = run_with_watchdog(&load("counterexample_replay.scn"), 200_000);
    let w = report.watchdog.unwrap();
    assert!(w.stats.trips >= 1);
    let trig = w
        .trigger
        .clone()
        .expect("confirmed cycle must be attributed");
    assert!(trig.matches_ground_truth, "{trig:?}");
    assert!(trig.scc.contains(&trig.queue()));
    assert_eq!(w.episodes, 1);
    assert!(w.time_to_detect().unwrap() > 0);
}

#[test]
fn attribution_matches_ground_truth_on_routing_loop() {
    let report = run(&load("routing_loop_watchdog.scn"));
    let trig = report.watchdog.unwrap().trigger.unwrap();
    assert!(trig.matches_ground_truth, "{trig:?}");
    assert!(trig.scc.contains(&trig.queue()));
    // The loop fills T1 <-> L1 in both directions; the trigger must name
    // one of the loop's own queues.
    let topo = ClosConfig::small().build();
    assert!(
        [topo.expect_node("T1"), topo.expect_node("L1")].contains(&trig.switch),
        "trigger {trig:?} outside the forwarding loop"
    );
}

/// Cause-directed recovery (quarantine the attributed trigger hop)
/// prevents the deadlock from re-forming where victim-directed recovery
/// (quarantine the first-tripped queue) does not — on the two-cycle
/// incast, where the trigger and the victim are different hops.
#[test]
fn cause_directed_recovery_prevents_cycle_reformation() {
    let topo = ClosConfig::small().build();
    let (s1, l3) = (topo.expect_node("S1"), topo.expect_node("L3"));

    // Diagnosis pass: the incast-congested hop S1->L3 is the attributed
    // trigger, inherited from the incast tree outside the cycle.
    let diagnose = load("two_cycle_diagnose.scn");
    let wd = run(&diagnose).watchdog.unwrap();
    let trig = wd.trigger.clone().unwrap();
    assert!(trig.matches_ground_truth, "{trig:?}");
    assert_eq!(trig.queue(), (s1, topo.port_towards(s1, l3).unwrap(), 0));
    assert!(trig.hops >= 1, "{trig:?}");
    assert!(wd.time_to_detect().unwrap() > 0);
    let victim = *wd.trips.first().unwrap();
    assert_ne!((victim.switch, victim.port), (trig.switch, trig.port));

    // Victim-directed: masking the first-tripped hop kills only the
    // cycle it sits on; the other re-forms on the second wave.
    let peer = topo
        .peer_of(GlobalPort::new(victim.switch, victim.port))
        .unwrap();
    let mut vic = diagnose.clone();
    vic.events.push(EventSpec::Mask {
        sw: topo.node(victim.switch).name.clone(),
        nbr: topo.node(peer.node).name.clone(),
        at: TimeSpec::Pct(50),
    });
    let wv = run(&vic).watchdog.unwrap();
    assert!(
        wv.episodes >= 2,
        "victim-directed recovery must let the deadlock re-form, got {} episode(s)",
        wv.episodes
    );

    // Cause-directed (the shipped fix masks S1 towards L3): one episode,
    // and no stale attribution in lossy traffic — every packet parked in
    // a lossy queue at the end carries no trigger stamp.
    let mut cause = expand(&load("two_cycle_cause_fix.scn"));
    let wc = cause.sim.run().watchdog.unwrap();
    assert_eq!(wc.episodes, 1);
    let nodes: Vec<NodeId> = cause.sim.topo().node_ids().collect();
    for n in nodes {
        for qp in cause.sim.switch_state(n).unwrap().queued_packets() {
            if qp.egress_queue >= 1 {
                assert!(
                    qp.packet.trigger.is_none(),
                    "lossy packet at {n:?} holds a stale trigger stamp"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Initial-trigger attribution, whenever produced, names a member of
    /// the confirmed SCC it reports, and its timestamps are causally
    /// ordered — even with randomized background traffic layered on top
    /// of the deadlock-prone cycle workload.
    #[test]
    fn attribution_names_scc_member(noise in proptest::collection::vec(0usize..256, 0..6)) {
        let mut exp = expand(&load("counterexample_replay.scn"));
        exp.sim.arm_watchdog(WatchdogConfig::with_window(200_000));
        let hosts: Vec<NodeId> = exp.sim.topo().host_ids().collect();
        for (i, s) in noise.iter().enumerate() {
            let src = hosts[s % hosts.len()];
            let dst = hosts[(s / 7 + 3 * i + 1) % hosts.len()];
            if src != dst {
                exp.sim.add_flow(FlowSpec::new(src, dst, 0).with_limit(100_000));
            }
        }
        let w = exp.sim.run().watchdog.expect("watchdog armed");
        if let Some(trig) = w.trigger {
            prop_assert!(
                trig.scc.contains(&trig.queue()),
                "attributed queue {:?} outside its SCC {:?}", trig.queue(), trig.scc
            );
            prop_assert!(trig.attributed_at >= trig.pause_epoch);
            if let Some(first) = w.first_trip_at {
                prop_assert!(first >= trig.attributed_at);
            }
        }
    }
}
