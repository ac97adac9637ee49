//! End-to-end integration: topology → routing → tagging → rules →
//! simulation, crossing every crate boundary.

use tagger::core::clos::clos_tagging;
use tagger::core::{Elp, Tag, TagDecision, Tagging};
use tagger::routing::{updown_paths_between, Fib, Path};
use tagger::sim::{FlowSpec, SimConfig, Simulator};
use tagger::switch::SwitchConfig;
use tagger::topo::{ClosConfig, FailureSet, JellyfishConfig};

/// The full product promise on a Clos fabric: build, tag, certify,
/// simulate with failures, stay deadlock-free and lossless.
#[test]
fn clos_full_stack_with_reroute() {
    let topo = ClosConfig::small().build();
    let tagging = clos_tagging(&topo, 1).expect("clos");
    tagging.graph().verify().expect("certified");

    // The ELP covers reroutes: check against paths computed under an
    // actual failure.
    let mut failures = FailureSet::none();
    failures.fail_between(&topo, "L1", "T1");
    let h9 = topo.expect_node("H9");
    let h1 = topo.expect_node("H1");
    let rerouted = tagger::routing::bounce_paths_between(&topo, &failures, h9, h1, 1);
    assert!(!rerouted.is_empty());
    tagging
        .check_elp_lossless(&topo, &Elp::from_paths(rerouted))
        .expect("rerouted paths stay lossless");

    // Simulate a bouncing flow under the tagging: no deadlock, no
    // lossless drops, flow makes progress.
    let fib = Fib::shortest_path(&topo, &failures);
    let cfg = SimConfig {
        switch: SwitchConfig {
            num_lossless: 2,
            ..SwitchConfig::default()
        },
        end_time_ns: 2_000_000,
        ..SimConfig::default()
    };
    let mut sim = Simulator::new(topo.clone(), fib, Some(tagging.rules().clone()), cfg);
    let bounce_path: Vec<_> = ["H9", "T3", "L3", "S2", "L1", "S1", "L2", "T1", "H1"]
        .iter()
        .map(|n| topo.expect_node(n))
        .collect();
    let f = sim.add_flow(FlowSpec::new(h9, h1, 0).pinned(bounce_path));
    let report = sim.run();
    assert!(report.deadlock.is_none());
    assert_eq!(report.lossless_drops, 0);
    assert!(report.flows[f as usize].delivered_bytes > 1_000_000);
}

/// The generic pipeline ports to FatTree unchanged.
#[test]
fn fat_tree_pipeline() {
    let topo = tagger::topo::fat_tree(4);
    let tagging = clos_tagging(&topo, 1).expect("fat tree is layered");
    assert_eq!(tagging.num_lossless_tags_on(&topo), 2);
    tagging.graph().verify().unwrap();

    // And the generic algorithm agrees on the up-down ELP.
    let elp = Elp::updown(&topo);
    let generic = Tagging::from_elp(&topo, &elp).unwrap();
    assert_eq!(generic.num_lossless_tags_on(&topo), 1);
}

/// Jellyfish end to end: random topology, shortest-path ELP, few tags,
/// certified, and ELP-lossless.
#[test]
fn jellyfish_pipeline() {
    let topo = JellyfishConfig::half_servers(40, 10, 11).build();
    let elp = Elp::shortest(&topo, 2, false);
    let tagging = Tagging::from_elp(&topo, &elp).unwrap();
    assert!(tagging.num_lossless_tags_on(&topo) <= 3);
    assert!(!tagging.used_fallback());
    tagging.graph().verify().unwrap();
    tagging.check_elp_lossless(&topo, &elp).unwrap();
}

/// Tags must be monotone along every ELP path under the compiled rules,
/// and the per-hop decisions must agree with the closure graph.
#[test]
fn rules_are_monotone_along_paths() {
    let topo = ClosConfig::small().build();
    let elp = Elp::updown_with_bounces_capped(&topo, 1, 8);
    let tagging = Tagging::from_elp(&topo, &elp).unwrap();
    for path in elp.paths() {
        let ingresses: Vec<_> = path.ingress_ports(&topo).collect();
        let mut tag = Tag(1);
        for pair in ingresses.windows(2) {
            let egress = topo.peer_of(pair[1]).unwrap();
            match tagging
                .rules()
                .decide(pair[0].node, tag, pair[0].port, egress.port)
            {
                TagDecision::Lossless(next) => {
                    assert!(next >= tag, "tag decreased along {}", path.display(&topo));
                    tag = next;
                }
                TagDecision::Lossy => panic!("ELP path demoted: {}", path.display(&topo)),
            }
        }
    }
}

/// The vanilla (no-Tagger) deployment deadlocks on the bounce scenario;
/// the exact same simulation inputs with Tagger rules do not. This is
/// the paper's whole point, exercised across all five crates.
#[test]
fn tagger_is_the_difference_between_deadlock_and_not() {
    use tagger::scenario::{instantiate, parse, RunOptions};
    let run = |text: &str| {
        let s = parse(text).expect("shipped scenario parses");
        instantiate(&s, &Default::default(), &RunOptions::default())
            .expect("shipped scenario expands")
            .run()
            .0
    };
    let without = run(include_str!("../examples/scenarios/fig10_vanilla.scn"));
    let with = run(include_str!("../examples/scenarios/fig10_tagger.scn"));
    assert!(without.deadlock.is_some());
    assert!(with.deadlock.is_none());
    assert_eq!(without.stalled_flows(5), 2);
    assert_eq!(with.stalled_flows(5), 0);
}

/// Up-down paths between any two hosts are consistent across the
/// routing and core crates' notions of bounces.
#[test]
fn routing_and_core_agree_on_updown() {
    let topo = ClosConfig::small().build();
    let failures = FailureSet::none();
    let h1 = topo.expect_node("H1");
    let h9 = topo.expect_node("H9");
    let paths = updown_paths_between(&topo, &failures, h1, h9);
    assert!(!paths.is_empty());
    // An up-down ELP merges to a single tag (no CBD).
    let merged = tagger::core::minimize_elp(&topo, &Elp::from_paths(paths));
    assert_eq!(merged.num_lossless_tags(&topo), 1);
}

/// The complete safety-net loop across every layer, under both watchdog
/// policies: the audit finds the cycle in the corrupted checkpoint, the
/// simulator shows it deadlock and the armed watchdog rescue it with a
/// verified initial-trigger attribution, the trips become controller
/// quarantine events that journal through a crash, and the corrective
/// commit re-certifies deadlock-free.
#[test]
fn watchdog_safety_net_closes_the_loop() {
    use tagger::switch::WatchdogPolicy;
    for policy in [WatchdogPolicy::Demote, WatchdogPolicy::Drop] {
        watchdog_loop(policy);
    }
}

fn watchdog_loop(wd_policy: tagger::switch::WatchdogPolicy) {
    use tagger::audit::{checkpoint, Auditor, REPLAY_END_NS};
    use tagger::ctrl::{
        recover, Controller, ElpPolicy, EpochOutcome, InstallPolicy, Journal, NoopObserver,
        ReliableSouthbound, Southbound as _,
    };
    use tagger::scenario::quarantine_events;
    use tagger::switch::WatchdogConfig;

    // 1. Audit the corrupted tables: violation + replayable cycle.
    let ckpt = checkpoint::parse(include_str!("../examples/corrupted.ckpt")).unwrap();
    let topo = ckpt.topo.clone();
    let audit = Auditor::new(topo.clone()).audit(ckpt.epoch, &ckpt.rules);
    assert!(!audit.is_certified());
    let cx = audit.counterexample.expect("cycle counterexample");

    // 2. Without the watchdog the counterexample deadlocks for good.
    let (baseline, _) = cx.replay(&topo, &ckpt.rules, None, REPLAY_END_NS);
    assert!(baseline.deadlock.is_some(), "baseline must deadlock");

    // 3. Armed, the confirmed cycle trips and clears within two windows,
    // and the in-band initial-trigger claim survives its ground-truth
    // cross-check and names a member of its own cycle.
    let cfg = WatchdogConfig::with_policy(200_000, wd_policy);
    let (report, _) = cx.replay(&topo, &ckpt.rules, Some(cfg), REPLAY_END_NS);
    let wd = report.watchdog.clone().expect("watchdog report");
    assert!(wd.stats.trips >= 1, "{wd_policy:?}: watchdog must trip");
    let first = wd.first_trip_at.unwrap();
    let cleared = wd.cleared_at.expect("cycle must clear");
    assert!(cleared - first <= 2 * cfg.window_ns, "{wd_policy:?}");
    let trig = wd.trigger.clone().expect("initial-trigger attribution");
    assert!(trig.matches_ground_truth, "{wd_policy:?}: {trig:?}");
    assert!(
        trig.scc.contains(&trig.queue()),
        "{wd_policy:?}: trigger {:?} outside its SCC {:?}",
        trig.queue(),
        trig.scc
    );

    // 4. Trips -> quarantines -> a journaled controller that crashes
    // after the first corrective epoch and recovers the quarantine. (A
    // single trip event finishes before the crash point; recovery must
    // reconverge all the same.)
    let events = quarantine_events(&report);
    assert!(!events.is_empty(), "trips must map to quarantine events");
    let policy = ElpPolicy::with_bounces(1);
    let mut ctrl = Controller::with_budget(topo.clone(), policy, None).unwrap();
    let mut sb = ReliableSouthbound::new();
    sb.bootstrap(&ctrl.committed().rules);
    let install = InstallPolicy::default();
    let jpath = std::env::temp_dir().join(format!(
        "tagger-e2e-watchdog-{wd_policy:?}-{}.journal",
        std::process::id()
    ));
    let mut journal = Journal::create(&jpath).unwrap();
    let drive = journal
        .drive(
            &mut ctrl,
            &events,
            &mut sb,
            &install,
            1,
            Some(1),
            &mut NoopObserver,
        )
        .unwrap();
    let EpochOutcome::Committed(corrective) = &drive.outcomes[0] else {
        panic!("quarantine must commit, got {:?}", drive.outcomes[0]);
    };
    assert!(
        !corrective.deltas.is_empty(),
        "quarantine must stage a corrective delta"
    );
    let pre_quarantines = ctrl.state().quarantines.clone();
    let pre_rules = ctrl.committed().rules.clone();
    let pre_trips = ctrl.metrics().watchdog_trips;
    assert!(!pre_quarantines.is_empty());
    assert!(pre_trips >= 1);
    drop(ctrl); // crash

    let rec = recover(&jpath, topo.clone(), policy, None).unwrap();
    let mut ctrl = rec.controller;
    assert_eq!(
        ctrl.state().quarantines,
        pre_quarantines,
        "quarantines must be replayed from the journal"
    );
    assert_eq!(
        ctrl.committed().rules,
        pre_rules,
        "recovered tables must equal the crashed controller's"
    );
    ctrl.reconcile(&mut sb);
    let remaining: Vec<_> = rec
        .tail
        .iter()
        .cloned()
        .chain(events.iter().skip(drive.outcomes.len() + 1).cloned())
        .collect();
    ctrl.replay_damped_via(&remaining, &mut sb, &install, &mut NoopObserver)
        .unwrap();
    // Cause-directed dedupe: trips sharing one attributed trigger
    // collapse into a single quarantine of the trigger hop.
    let effective: std::collections::BTreeSet<_> = events
        .iter()
        .filter_map(|e| e.effective_quarantine())
        .collect();
    assert_eq!(ctrl.state().quarantines.len(), effective.len());
    if events.len() > 1 && effective.len() == 1 {
        assert!(
            ctrl.state().quarantines.len() < events.len(),
            "attributed trips must dedupe into one quarantine"
        );
    }

    // 5. The corrective tables re-certify deadlock-free.
    let verdict = Auditor::new(topo.clone()).audit(ctrl.committed().epoch, &ctrl.committed().rules);
    assert!(verdict.is_certified(), "corrective tables must certify");
    assert_eq!(
        pre_trips + ctrl.metrics().watchdog_trips,
        events.len() as u64,
        "every trip event is staged exactly once across the crash"
    );
    std::fs::remove_file(&jpath).ok();
}

/// Path display and port resolution survive the facade re-exports.
#[test]
fn facade_reexports_work() {
    let topo = ClosConfig::small().build();
    let p = Path::from_names(&topo, &["H1", "T1", "L1"]);
    assert_eq!(format!("{}", p.display(&topo)), "H1 -> T1 -> L1");
    assert_eq!(p.bounces(&topo), 0);
}
