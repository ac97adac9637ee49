//! The chaos-proxy loopback soak (ISSUE 9 acceptance): the full
//! 8-fabric scenario-schedule mix is delivered over TCP *through a
//! fault-injecting proxy*, and the resulting write-ahead journals must
//! come out byte-identical to a solo in-process replay of the same
//! lines — zero events lost, zero double-applied, every fabric
//! converged. Plus the backpressure drill: a client hammering a tiny
//! queue is pushed back, backs off, and still delivers 100%.

use std::path::PathBuf;
use std::time::Duration;
use tagger_ctrl::ChaosConfig;
use tagger_fleet::net::{
    chaos_for, send_lines, ChaosTransport, ClientConfig, NetChaosConfig, ServeConfig, Server,
};
use tagger_fleet::{fabric_seed, schedule_lines, Damping, FabricSpec, Fleet, FleetConfig};
use tagger_topo::{ClosConfig, Topology};

const SOAK_SEED: u64 = 0xC0FFEE;
const FABRICS: usize = 8;
const EVENTS_PER_FABRIC: usize = 24;

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("tagger-netsoak-{}-{name}", std::process::id()))
}

/// Replays every fabric's lines through an in-process fleet configured
/// identically to the server (same caps, same damping, same name-derived
/// chaos seeds) — the byte-equality baseline.
fn solo_replay(dir: &PathBuf, topo: &Topology, base_chaos: &ChaosConfig, lines: &[Vec<String>]) {
    let mut cfg = FleetConfig::new(dir);
    cfg.queue_cap = 1024;
    cfg.drain_quantum = 4;
    let mut fleet = Fleet::new(cfg);
    for (i, fabric_lines) in lines.iter().enumerate() {
        let name = format!("net-{i}");
        fleet
            .register(
                FabricSpec::new(&name, topo.clone())
                    .with_damping(Damping::Flap)
                    .with_chaos(chaos_for(base_chaos, &name)),
            )
            .expect("solo registration");
        for line in fabric_lines {
            let (_, rest) = line.split_once(':').expect("well-formed line");
            fleet
                .ingest_line(&name, rest.trim())
                .expect("solo ingest within cap");
        }
    }
    fleet.drain_all().expect("solo drain");
}

#[test]
fn chaos_proxy_loopback_soak_matches_solo_replay() {
    let dir_net = tmp("chaos-net");
    let dir_solo = tmp("chaos-solo");
    std::fs::remove_dir_all(&dir_net).ok();
    std::fs::remove_dir_all(&dir_solo).ok();

    let topo = ClosConfig::small().build();
    let base_chaos = ChaosConfig::new(SOAK_SEED, 0.25);
    let lines: Vec<Vec<String>> = (0..FABRICS)
        .map(|i| {
            schedule_lines(
                &topo,
                &format!("net-{i}"),
                fabric_seed(SOAK_SEED, i as u64),
                i,
                EVENTS_PER_FABRIC,
            )
        })
        .collect();

    // The networked run: server behind a fault-injecting proxy.
    let mut serve = ServeConfig::new(&dir_net, topo.clone());
    serve.chaos = Some(base_chaos);
    serve.drain_interval = Duration::from_millis(2);
    let server = Server::start("127.0.0.1:0", serve).expect("server start");

    let proxy_cfg = NetChaosConfig {
        seed: SOAK_SEED ^ 0x7A05,
        disconnect_rate: 0.02,
        duplicate_rate: 0.05,
        truncate_rate: 0.02,
        delay_rate: 0.05,
        max_delay_ms: 3,
    }
    .clamped();
    let proxy = ChaosTransport::start(server.addr(), proxy_cfg).expect("proxy start");
    let proxy_addr = proxy.addr().to_string();

    let handles: Vec<_> = lines
        .iter()
        .cloned()
        .enumerate()
        .map(|(i, fabric_lines)| {
            let addr = proxy_addr.clone();
            std::thread::spawn(move || {
                let mut cfg = ClientConfig::new(addr, i as u64 + 1);
                cfg.seed = fabric_seed(SOAK_SEED ^ 0xC11E, i as u64);
                cfg.max_attempts = 128;
                cfg.max_reconnects = 64;
                cfg.reply_timeout = Duration::from_millis(300);
                send_lines(&cfg, &fabric_lines)
            })
        })
        .collect();

    let mut reports = Vec::new();
    for h in handles {
        reports.push(
            h.join()
                .expect("client thread")
                .expect("delivery within retry bounds"),
        );
    }
    let faults = proxy.stats().faults();
    proxy.shutdown();
    let outcome = server.shutdown().expect("graceful shutdown");

    // The proxy must actually have misbehaved, or the drill proves
    // nothing.
    assert!(faults > 0, "chaos proxy injected no faults at this seed");

    // Every client delivered everything; nothing was permanently
    // rejected (the schedules are valid trace lines).
    for (i, report) in reports.iter().enumerate() {
        assert_eq!(
            report.delivered,
            report.offered,
            "fabric net-{i}: {}",
            report.render()
        );
        assert!(report.rejections.is_empty(), "fabric net-{i} rejections");
    }

    // Exactly-once at the fabric queues: ingested equals the schedule
    // length — a lost event would undershoot, a double-applied duplicate
    // would overshoot.
    assert!(outcome.report.healthy(), "{}", outcome.report.render());
    for (i, fabric_lines) in lines.iter().enumerate() {
        let name = format!("net-{i}");
        let status = outcome
            .report
            .fabrics
            .iter()
            .find(|f| f.name == name)
            .expect("fabric registered over the wire");
        assert_eq!(
            status.ingested,
            fabric_lines.len() as u64,
            "fabric {name}: lost or double-applied events"
        );
        assert_eq!(status.queued, 0, "fabric {name}: shutdown left a queue");
    }

    // The decisive assertion: journals byte-identical to solo replay.
    solo_replay(&dir_solo, &topo, &base_chaos, &lines);
    for i in 0..FABRICS {
        let name = format!("net-{i}.journal");
        let networked = std::fs::read(dir_net.join(&name)).expect("networked journal");
        let solo = std::fs::read(dir_solo.join(&name)).expect("solo journal");
        assert_eq!(
            networked, solo,
            "journal {name} differs between networked and solo replay"
        );
    }

    std::fs::remove_dir_all(&dir_net).ok();
    std::fs::remove_dir_all(&dir_solo).ok();
}

#[test]
fn backpressure_is_graceful_and_starves_nobody() {
    let dir = tmp("backpressure");
    std::fs::remove_dir_all(&dir).ok();

    let topo = ClosConfig::small().build();
    let mut serve = ServeConfig::new(&dir, topo.clone());
    // A queue this small *will* fill: the client must survive on
    // Backpressure replies alone.
    serve.queue_cap = 4;
    serve.drain_interval = Duration::from_millis(10);
    let server = Server::start("127.0.0.1:0", serve).expect("server start");
    let addr = server.addr().to_string();

    let hot_lines: Vec<String> = (0..48).map(|_| "hot: resync".to_string()).collect();
    let cold_lines: Vec<String> = (0..5).map(|_| "cold: resync".to_string()).collect();

    let hot_addr = addr.clone();
    let hot = std::thread::spawn(move || {
        let mut cfg = ClientConfig::new(hot_addr, 1);
        cfg.max_attempts = 400;
        send_lines(&cfg, &hot_lines)
    });
    let cold = std::thread::spawn(move || {
        let mut cfg = ClientConfig::new(addr, 2);
        cfg.max_attempts = 400;
        send_lines(&cfg, &cold_lines)
    });

    let hot_report = hot.join().expect("hot thread").expect("hot delivery");
    let cold_report = cold.join().expect("cold thread").expect("cold delivery");
    let backpressure_replies = server
        .stats()
        .backpressure_replies
        .load(std::sync::atomic::Ordering::Relaxed);
    let outcome = server.shutdown().expect("graceful shutdown");

    // 100% delivery despite the hammering...
    assert_eq!(hot_report.delivered, 48, "{}", hot_report.render());
    assert_eq!(cold_report.delivered, 5, "{}", cold_report.render());
    // ...and the pushback actually happened, visible both on the wire
    // and in the fleet's queue_rejections counter.
    assert!(
        backpressure_replies > 0,
        "a 4-slot queue under 48 events must push back"
    );
    let report = outcome.report;
    assert!(report.healthy(), "{}", report.render());
    let hot_status = report
        .fabrics
        .iter()
        .find(|f| f.name == "hot")
        .expect("hot fabric");
    assert_eq!(hot_status.ingested, 48, "exactly-once under backpressure");
    assert!(
        hot_status.queue_rejections > 0,
        "QueueFull rejections must be counted in the report"
    );
    // The quiet fabric was never starved: it ingested and drained
    // everything inside the same fair cycles.
    let cold_status = report
        .fabrics
        .iter()
        .find(|f| f.name == "cold")
        .expect("cold fabric");
    assert_eq!(cold_status.ingested, 5);
    assert_eq!(cold_status.queued, 0);

    std::fs::remove_dir_all(&dir).ok();
}
