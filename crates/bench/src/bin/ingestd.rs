//! **network ingest throughput** — the DESIGN §15 framed TCP front as a
//! benchmark, emitting `BENCH_ingestd.json`.
//!
//! Two legs over real loopback sockets, same seeded multi-fabric
//! scenario-schedule lines in both:
//!
//! - **clean**: clients straight into `tagger-fleet`'s ingest server —
//!   the protocol's steady-state throughput;
//! - **chaos**: the same stream through the fault-injecting
//!   `ChaosTransport` proxy (disconnects, duplicates, mid-frame
//!   truncation, delays) — what retry, resync and dedupe cost when the
//!   transport misbehaves.
//!
//! Both legs must deliver every event exactly once (the server's
//! per-fabric `ingested` counters are checked against the offered line
//! counts); a benchmark of a lossy ingest front is not a benchmark.
//!
//! ```text
//! ingestd [--fabrics N] [--seed S] [--events N] [--out PATH]
//! ```
//!
//! The event counts in the JSON are seed-deterministic; `elapsed_ms`,
//! `events_per_sec` and the fault/retry counters vary with the machine.

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use tagger_ctrl::ChaosConfig;
use tagger_fleet::net::{
    send_lines, ChaosTransport, ClientConfig, NetChaosConfig, ServeConfig, Server,
};
use tagger_fleet::{fabric_seed, schedule_lines};
use tagger_topo::{ClosConfig, Topology};

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

struct LegResult {
    elapsed: Duration,
    delivered: u64,
    reconnects: u64,
    backpressure_hits: u64,
    resends: u64,
    faults: u64,
}

/// Runs one leg: a fresh server (chaotic southbound for realism), all
/// fabrics' lines from one client thread each, optionally through the
/// chaos proxy. Returns `Err` if any event is lost, double-applied or
/// rejected.
fn run_leg(
    dir: &std::path::Path,
    topo: &Topology,
    seed: u64,
    lines: &[Vec<String>],
    proxied: bool,
) -> Result<LegResult, String> {
    std::fs::remove_dir_all(dir).ok();
    let mut serve = ServeConfig::new(dir, topo.clone());
    serve.chaos = Some(ChaosConfig::new(seed, 0.25));
    serve.drain_interval = Duration::from_millis(2);
    let server = Server::start("127.0.0.1:0", serve).map_err(|e| e.to_string())?;

    let proxy = if proxied {
        let cfg = NetChaosConfig {
            seed: seed ^ 0x7A05,
            disconnect_rate: 0.02,
            duplicate_rate: 0.05,
            truncate_rate: 0.02,
            delay_rate: 0.05,
            max_delay_ms: 3,
        }
        .clamped();
        Some(ChaosTransport::start(server.addr(), cfg).map_err(|e| e.to_string())?)
    } else {
        None
    };
    let addr = proxy
        .as_ref()
        .map(|p| p.addr().to_string())
        .unwrap_or_else(|| server.addr().to_string());

    let start = Instant::now();
    let handles: Vec<_> = lines
        .iter()
        .cloned()
        .enumerate()
        .map(|(i, fabric_lines)| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut cfg = ClientConfig::new(addr, i as u64 + 1);
                cfg.seed = fabric_seed(seed ^ 0xC11E, i as u64);
                cfg.max_attempts = 128;
                cfg.max_reconnects = 64;
                cfg.reply_timeout = Duration::from_millis(300);
                send_lines(&cfg, &fabric_lines)
            })
        })
        .collect();
    let mut delivered = 0u64;
    let mut reconnects = 0u64;
    let mut backpressure_hits = 0u64;
    let mut resends = 0u64;
    for (i, h) in handles.into_iter().enumerate() {
        let report = h
            .join()
            .map_err(|_| format!("client {i} panicked"))?
            .map_err(|e| format!("client {i}: {e}"))?;
        if report.delivered != report.offered || !report.rejections.is_empty() {
            return Err(format!(
                "client {i} delivered {}/{} with {} rejections",
                report.delivered,
                report.offered,
                report.rejections.len()
            ));
        }
        delivered += report.delivered;
        reconnects += report.reconnects;
        backpressure_hits += report.backpressure_hits;
        resends += report.resends;
    }
    let elapsed = start.elapsed();
    let faults = proxy.as_ref().map(|p| p.stats().faults()).unwrap_or(0);
    if let Some(p) = proxy {
        p.shutdown();
    }
    let outcome = server.shutdown().map_err(|e| e.to_string())?;
    for (i, fabric_lines) in lines.iter().enumerate() {
        let name = format!("net-{i}");
        let ingested = outcome
            .report
            .fabrics
            .iter()
            .find(|f| f.name == name)
            .map(|f| f.ingested)
            .unwrap_or(0);
        if ingested != fabric_lines.len() as u64 {
            return Err(format!(
                "fabric {name}: ingested {ingested}, offered {} — lost or double-applied",
                fabric_lines.len()
            ));
        }
    }
    std::fs::remove_dir_all(dir).ok();
    Ok(LegResult {
        elapsed,
        delivered,
        reconnects,
        backpressure_hits,
        resends,
        faults,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let parse = |name: &str, default: u64| -> u64 {
        flag(&args, name)
            .map(|v| v.parse().unwrap_or(default))
            .unwrap_or(default)
    };
    let fabrics = parse("--fabrics", 8) as usize;
    let seed = parse("--seed", 0xC0FFEE);
    let events = parse("--events", 24) as usize;
    let out_path = flag(&args, "--out").unwrap_or_else(|| "BENCH_ingestd.json".to_string());
    let dir = std::env::temp_dir().join(format!("tagger-bench-ingestd-{}", std::process::id()));

    let topo = ClosConfig::small().build();
    let lines: Vec<Vec<String>> = (0..fabrics)
        .map(|i| {
            schedule_lines(
                &topo,
                &format!("net-{i}"),
                fabric_seed(seed, i as u64),
                i,
                events,
            )
        })
        .collect();
    let offered: u64 = lines.iter().map(|l| l.len() as u64).sum();

    let clean = match run_leg(&dir.join("clean"), &topo, seed, &lines, false) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("ingestd: clean leg failed: {e}");
            return ExitCode::from(1);
        }
    };
    let chaos = match run_leg(&dir.join("chaos"), &topo, seed, &lines, true) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("ingestd: chaos leg failed: {e}");
            return ExitCode::from(1);
        }
    };
    std::fs::remove_dir_all(&dir).ok();

    let rate = |r: &LegResult| r.delivered as f64 / r.elapsed.as_secs_f64();
    let leg_json = |name: &str, r: &LegResult, last: bool| {
        let mut out = String::new();
        let _ = writeln!(out, "  \"{name}\": {{");
        let _ = writeln!(out, "    \"delivered\": {},", r.delivered);
        let _ = writeln!(
            out,
            "    \"elapsed_ms\": {:.1},",
            r.elapsed.as_secs_f64() * 1e3
        );
        let _ = writeln!(out, "    \"events_per_sec\": {:.1},", rate(r));
        let _ = writeln!(out, "    \"faults_injected\": {},", r.faults);
        let _ = writeln!(out, "    \"reconnects\": {},", r.reconnects);
        let _ = writeln!(out, "    \"backpressure_hits\": {},", r.backpressure_hits);
        let _ = writeln!(out, "    \"resends\": {}", r.resends);
        let _ = writeln!(out, "  }}{}", if last { "" } else { "," });
        out
    };
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"bench\": \"ingestd_loopback\",");
    let _ = writeln!(json, "  \"fabrics\": {fabrics},");
    let _ = writeln!(json, "  \"seed\": {seed},");
    let _ = writeln!(json, "  \"events_offered\": {offered},");
    json.push_str(&leg_json("clean", &clean, false));
    json.push_str(&leg_json("chaos", &chaos, true));
    json.push_str("}\n");

    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("ingestd: cannot write {out_path}: {e}");
        return ExitCode::from(2);
    }
    println!(
        "wrote {out_path}: {offered} events, clean {:.0} events/s, \
         chaos {:.0} events/s under {} faults",
        rate(&clean),
        rate(&chaos),
        chaos.faults
    );
    ExitCode::SUCCESS
}
