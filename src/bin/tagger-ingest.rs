//! `tagger-ingest` — the network ingest client for `tagger-fleetd
//! serve`, plus the self-contained chaos-proxy loopback drill CI runs.
//!
//! ```text
//! tagger-ingest send  [stream-file] --addr HOST:PORT --client N --seed S
//!                     [--attempts N] [--reconnects N] [--json]
//! tagger-ingest drill [--seed S] [--fabrics N] [--events N] [--dir PATH]
//! ```
//!
//! **send** delivers an interleaved `<fabric>: <trace-line>` stream
//! (file or stdin) to a running `tagger-fleetd serve` over the DESIGN
//! §15 framed protocol: strict in-order delivery, seeded
//! backoff + jitter on `Backpressure`, bounded reconnects, exactly-once
//! at the fabric queue via the per-client sequence handshake. Prints a
//! one-line delivery summary (and, with `--json`, the byte-stable
//! delivery report — only outcome fields, no timing-dependent
//! counters). Exits non-zero if any line was permanently rejected.
//!
//! **drill** is the acceptance gate for the whole stack, in one
//! process: it starts an in-process server (chaotic southbound), wires
//! a fault-injecting `ChaosTransport` proxy in front of it
//! (disconnects, duplicates, mid-frame truncation, delays — all drawn
//! from the pinned seed), drives the full multi-fabric
//! scenario-schedule mix through the proxy from one client thread per
//! fabric, then replays the identical lines through a solo in-process
//! fleet and compares write-ahead journals **byte for byte**. Stdout is
//! deterministic at a fixed seed (CI runs the drill twice and `cmp`s
//! the outputs); timing-dependent transport counters go to stderr.
//! Exits non-zero on any lost, double-applied or rejected event, or any
//! journal divergence.

use std::collections::BTreeMap;
use std::io::BufRead;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use tagger::ctrl::ChaosConfig;
use tagger::fleet::net::{
    chaos_for, send_lines, ChaosTransport, ClientConfig, NetChaosConfig, ServeConfig, Server,
};
use tagger::fleet::{fabric_seed, schedule_lines, Damping, FabricSpec, Fleet, FleetConfig};
use tagger::topo::{ClosConfig, Topology};

const USAGE: &str = "usage: tagger-ingest <send|drill> [options]
  send  [stream-file] --addr HOST:PORT --client N --seed S
        --attempts N --reconnects N [--json]
  drill --seed S --fabrics N --events N --dir PATH";

fn parse_args(args: &[String]) -> Result<(Option<String>, BTreeMap<String, String>), String> {
    let mut flags = BTreeMap::new();
    let mut positional = None;
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        if a == "--json" {
            flags.insert("json".to_string(), String::new());
            i += 1;
        } else if let Some(name) = a.strip_prefix("--") {
            if i + 1 < args.len() {
                flags.insert(name.to_string(), args[i + 1].clone());
                i += 2;
            } else {
                return Err(format!("--{name} wants a value"));
            }
        } else {
            positional = Some(a.clone());
            i += 1;
        }
    }
    Ok((positional, flags))
}

fn get<T: std::str::FromStr>(
    flags: &BTreeMap<String, String>,
    key: &str,
    default: T,
) -> Result<T, String> {
    match flags.get(key) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("--{key} wants a {}, got {v:?}", std::any::type_name::<T>())),
    }
}

fn run_send(stream: Option<String>, flags: &BTreeMap<String, String>) -> Result<ExitCode, String> {
    let Some(addr) = flags.get("addr").cloned() else {
        return Err("send wants --addr HOST:PORT (a running `tagger-fleetd serve`)".into());
    };
    let mut cfg = ClientConfig::new(addr, get(flags, "client", 1u64)?);
    cfg.seed = get(flags, "seed", cfg.client_id)?;
    cfg.max_attempts = get(flags, "attempts", cfg.max_attempts)?.max(1);
    cfg.max_reconnects = get(flags, "reconnects", cfg.max_reconnects)?;

    let text = match &stream {
        Some(path) => {
            std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?
        }
        None => {
            let mut buf = String::new();
            for line in std::io::stdin().lock().lines() {
                buf.push_str(&line.map_err(|e| e.to_string())?);
                buf.push('\n');
            }
            buf
        }
    };
    let lines: Vec<String> = text
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(str::to_string)
        .collect();
    if lines.is_empty() {
        return Err("nothing to send: the stream has no event lines".into());
    }

    let report = send_lines(&cfg, &lines).map_err(|e| e.to_string())?;
    println!("{}", report.render());
    for r in &report.rejections {
        println!("  rejected line {}: {}", r.index + 1, r.reason);
    }
    if flags.contains_key("json") {
        print!("{}", report.stable_json());
    }
    Ok(if report.rejections.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

/// FNV-1a over a byte slice — the journal fingerprint the drill prints.
fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Replays every fabric's lines through a solo in-process fleet
/// configured identically to the drill server — the byte-equality
/// baseline.
fn solo_replay(
    dir: &PathBuf,
    topo: &Topology,
    base_chaos: &ChaosConfig,
    lines: &[Vec<String>],
) -> Result<(), String> {
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
            .map_err(|e| format!("solo register {name}: {e}"))?;
        for line in fabric_lines {
            let rest = line
                .split_once(':')
                .map(|(_, r)| r.trim())
                .ok_or_else(|| format!("malformed drill line {line:?}"))?;
            fleet
                .ingest_line(&name, rest)
                .map_err(|e| format!("solo ingest {name}: {e}"))?;
        }
    }
    fleet
        .drain_all()
        .map(|_| ())
        .map_err(|e| format!("solo drain: {e}"))
}

fn run_drill(flags: &BTreeMap<String, String>) -> Result<ExitCode, String> {
    let seed = get(flags, "seed", 0xC0FFEEu64)?;
    let fabrics = get(flags, "fabrics", 8usize)?.max(1);
    let events = get(flags, "events", 24usize)?.max(1);
    let keep_dir = flags.get("dir").map(PathBuf::from);
    let base = keep_dir.clone().unwrap_or_else(|| {
        std::env::temp_dir().join(format!("tagger-ingest-drill-{}", std::process::id()))
    });
    let dir_net = base.join("net");
    let dir_solo = base.join("solo");
    std::fs::remove_dir_all(&dir_net).ok();
    std::fs::remove_dir_all(&dir_solo).ok();

    let topo = ClosConfig::small().build();
    let base_chaos = ChaosConfig::new(seed, 0.25);
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

    println!(
        "tagger-ingest: drill seed {seed:#x}, {fabrics} fabrics, \
         ~{events} events each, chaos proxy armed"
    );

    // The networked leg: server with a chaotic southbound, behind a
    // fault-injecting transport proxy.
    let mut serve = ServeConfig::new(&dir_net, topo.clone());
    serve.chaos = Some(base_chaos);
    serve.drain_interval = Duration::from_millis(2);
    let server = Server::start("127.0.0.1:0", serve).map_err(|e| e.to_string())?;
    let proxy_cfg = NetChaosConfig {
        seed: seed ^ 0x7A05,
        disconnect_rate: 0.02,
        duplicate_rate: 0.05,
        truncate_rate: 0.02,
        delay_rate: 0.05,
        max_delay_ms: 3,
    }
    .clamped();
    let proxy = ChaosTransport::start(server.addr(), proxy_cfg).map_err(|e| e.to_string())?;
    let proxy_addr = proxy.addr().to_string();

    let handles: Vec<_> = lines
        .iter()
        .cloned()
        .enumerate()
        .map(|(i, fabric_lines)| {
            let addr = proxy_addr.clone();
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
    let mut reports = Vec::new();
    for (i, h) in handles.into_iter().enumerate() {
        let report = h
            .join()
            .map_err(|_| format!("client thread net-{i} panicked"))?
            .map_err(|e| format!("client net-{i}: {e}"))?;
        reports.push(report);
    }
    let faults = proxy.stats().faults();
    proxy.shutdown();
    let outcome = server.shutdown().map_err(|e| e.to_string())?;

    // Timing-dependent figures are real but not reproducible — stderr.
    eprintln!(
        "drill transport: {faults} faults injected, {} reconnects, \
         {} backpressure hits, {} resends",
        reports.iter().map(|r| r.reconnects).sum::<u64>(),
        reports.iter().map(|r| r.backpressure_hits).sum::<u64>(),
        reports.iter().map(|r| r.resends).sum::<u64>(),
    );
    if faults == 0 {
        return Err("chaos proxy injected no faults at this seed; the drill proved nothing".into());
    }

    // The solo leg, then the verdicts.
    solo_replay(&dir_solo, &topo, &base_chaos, &lines)?;
    let mut failed = false;
    for (i, report) in reports.iter().enumerate() {
        let name = format!("net-{i}");
        let status = outcome.report.fabrics.iter().find(|f| f.name == name);
        let ingested = status.map(|s| s.ingested).unwrap_or(0);
        let offered = lines[i].len() as u64;
        let networked = std::fs::read(dir_net.join(format!("{name}.journal"))).unwrap_or_default();
        let solo = std::fs::read(dir_solo.join(format!("{name}.journal"))).unwrap_or_default();
        let journals_match = !networked.is_empty() && networked == solo;
        let exact =
            report.delivered == offered && report.rejections.is_empty() && ingested == offered;
        println!(
            "fabric {name}: offered {offered} delivered {} rejected {} \
             ingested {ingested} journal {} bytes fnv64 {:#018x} [{}]",
            report.delivered,
            report.rejections.len(),
            networked.len(),
            fnv64(&networked),
            if exact && journals_match {
                "ok"
            } else {
                "FAIL"
            },
        );
        if !exact {
            eprintln!("fabric {name}: events lost, double-applied or rejected");
            failed = true;
        }
        if !journals_match {
            eprintln!("fabric {name}: journal differs from the solo replay");
            failed = true;
        }
    }
    if !outcome.report.healthy() {
        eprintln!(
            "drill: fleet unhealthy after shutdown\n{}",
            outcome.report.render()
        );
        failed = true;
    }

    if keep_dir.is_none() {
        std::fs::remove_dir_all(&base).ok();
    }
    if failed {
        println!("drill: FAILED");
        Ok(ExitCode::from(1))
    } else {
        println!(
            "drill: {fabrics}/{fabrics} fabrics delivered exactly-once; \
             journals byte-identical to solo replay"
        );
        Ok(ExitCode::SUCCESS)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let result = match cmd.as_str() {
        "send" => parse_args(&args[1..]).and_then(|(stream, flags)| run_send(stream, &flags)),
        "drill" => parse_args(&args[1..]).and_then(|(_, flags)| run_drill(&flags)),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        other => Err(format!("unknown subcommand {other:?}\n{USAGE}")),
    };
    match result {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("tagger-ingest: {msg}");
            ExitCode::from(2)
        }
    }
}
