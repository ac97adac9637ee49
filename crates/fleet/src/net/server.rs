//! The fleet's TCP ingest front: one reader thread per connection, a
//! bounded fair drain loop, and a graceful shutdown that drains queues
//! and journals before closing the listener.
//!
//! Threading model (no async runtime — plain threads over `std::net`,
//! per the offline-deps constraint):
//!
//! - the **accept thread** owns the listener (non-blocking, polled
//!   against the stop flag) and spawns one **reader thread** per
//!   connection;
//! - each reader runs its socket with read/write deadlines, feeds a
//!   resynchronizing [`Decoder`], and answers every frame with a
//!   structured reply — `Ok{epoch}`, `Backpressure{queue_depth,
//!   retry_after_ms}` (mapped from [`FleetError::QueueFull`] or an
//!   exhausted per-connection budget), or `Reject{span, reason}`
//!   (carrying the span from the fabric's own [`TraceError`]);
//! - the **drain thread** ticks [`Fleet::drain_cycle`] — the same fair
//!   round-robin, bounded-quantum drain the in-process daemon uses —
//!   and advances the budget epoch that refills every connection's
//!   event allowance. A chatty peer that outruns its budget is pushed
//!   back with `Backpressure`, not allowed to monopolize the cycle.
//!
//! Dedupe contract: each client names itself with a `Hello{client_id}`
//! and numbers its events with a per-client sequence. The server tracks
//! the next expected seq per client; duplicates (a retried frame, a
//! chaos-proxy double delivery) are acknowledged without re-applying,
//! and gaps are answered with `Rewind{expected}` so a client can never
//! silently skip an event. This is what makes at-least-once retry from
//! the client exactly-once at the fabric queue.
//!
//! Shutdown sequence (also documented in DESIGN §15): stop accepting →
//! readers finish their in-flight frame and close → drain every queue
//! through the journaled two-phase rollout → snapshot → close. Nothing
//! accepted is ever dropped.

use crate::error::FleetError;
use crate::fabric::FabricSpec;
use crate::registry::{Fleet, FleetConfig};
use crate::report::FleetReport;
use tagger_ctrl::Damping;

use super::wire::{Decoder, Msg};

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;
use tagger_ctrl::ChaosConfig;
use tagger_topo::Topology;

/// Everything the ingest front needs to run.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Journal directory (one file per fabric, derived names).
    pub dir: PathBuf,
    /// Per-fabric ingest queue capacity; a full queue answers
    /// `Backpressure`, never drops.
    pub queue_cap: usize,
    /// Fair-drain quantum per fabric per cycle (PR 6's starvation
    /// bound).
    pub drain_quantum: usize,
    /// How often the drain thread runs a fair cycle.
    pub drain_interval: Duration,
    /// Socket read deadline; also the stop-flag poll interval for
    /// reader threads.
    pub read_timeout: Duration,
    /// Socket write deadline for replies.
    pub write_timeout: Duration,
    /// Events one connection may land per drain tick before being
    /// pushed back — the budget that keeps one chatty peer from
    /// starving the fair cycle.
    pub conn_budget: usize,
    /// Suggested client retry delay carried in `Backpressure` replies,
    /// ms.
    pub retry_after_ms: u32,
    /// Damping policy for auto-registered fabrics.
    pub damping: Damping,
    /// Southbound chaos schedule for auto-registered fabrics (per-fabric
    /// seed offset, like the in-process daemon); `None` = reliable.
    pub chaos: Option<ChaosConfig>,
    /// Topology template for auto-registered fabrics.
    pub topo: Topology,
}

impl ServeConfig {
    /// Defaults rooted at `dir` over `topo`: queue cap 1024, quantum 4,
    /// 2 ms drain tick, 50 ms read deadline, 1 s write deadline, budget
    /// 64 events per connection per tick, 2 ms suggested retry, flap
    /// damping, reliable southbound.
    pub fn new(dir: impl Into<PathBuf>, topo: Topology) -> Self {
        ServeConfig {
            dir: dir.into(),
            queue_cap: 1024,
            drain_quantum: 4,
            drain_interval: Duration::from_millis(2),
            read_timeout: Duration::from_millis(50),
            write_timeout: Duration::from_secs(1),
            conn_budget: 64,
            retry_after_ms: 2,
            damping: Damping::Flap,
            chaos: None,
            topo,
        }
    }
}

/// Cumulative server counters, readable while serving.
#[derive(Debug, Default)]
pub struct ServerStats {
    /// Connections accepted.
    pub connections: AtomicU64,
    /// Frames decoded across all connections.
    pub frames: AtomicU64,
    /// Events applied to fabric queues (after dedupe).
    pub events_applied: AtomicU64,
    /// Duplicate events acknowledged without re-applying.
    pub duplicates_dropped: AtomicU64,
    /// `Backpressure` replies sent (full queue or exhausted budget).
    pub backpressure_replies: AtomicU64,
    /// `Reject` replies sent.
    pub rejects: AtomicU64,
    /// `Rewind` replies sent (sequence gaps).
    pub rewinds: AtomicU64,
    /// Torn-frame resynchronizations survived across all connections.
    pub resyncs: AtomicU64,
}

struct Shared {
    cfg: ServeConfig,
    fleet: Mutex<Fleet>,
    /// client id → next expected event seq (everything below it is
    /// applied).
    clients: Mutex<BTreeMap<u64, u64>>,
    stats: ServerStats,
    /// Bumped by the drain thread; readers refill their event budget
    /// when they observe a new tick.
    drain_ticks: AtomicU64,
    stop: AtomicBool,
    /// First hard drain error, if any (journal/controller trouble).
    drain_error: Mutex<Option<String>>,
}

/// The running ingest front. Start with [`Server::start`], stop with
/// [`Server::shutdown`] — dropping without shutdown also stops the
/// threads, but skips the final drain.
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept_thread: Option<std::thread::JoinHandle<()>>,
    drain_thread: Option<std::thread::JoinHandle<()>>,
}

/// What a graceful shutdown leaves behind: the drained fleet's final
/// snapshot, and the fleet itself for journal-level inspection.
pub struct ShutdownOutcome {
    /// Final snapshot after the terminal drain.
    pub report: FleetReport,
    /// The drained fleet (journals on disk, controllers live).
    pub fleet: Fleet,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts the
    /// accept and drain threads.
    pub fn start(addr: &str, cfg: ServeConfig) -> Result<Server, FleetError> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;

        let mut fleet_cfg = FleetConfig::new(&cfg.dir);
        fleet_cfg.queue_cap = cfg.queue_cap;
        fleet_cfg.drain_quantum = cfg.drain_quantum;
        let shared = Arc::new(Shared {
            fleet: Mutex::new(Fleet::new(fleet_cfg)),
            clients: Mutex::new(BTreeMap::new()),
            stats: ServerStats::default(),
            drain_ticks: AtomicU64::new(0),
            stop: AtomicBool::new(false),
            drain_error: Mutex::new(None),
            cfg,
        });

        let accept_shared = Arc::clone(&shared);
        let accept_thread = std::thread::spawn(move || {
            let mut readers: Vec<std::thread::JoinHandle<()>> = Vec::new();
            while !accept_shared.stop.load(Ordering::Relaxed) {
                match listener.accept() {
                    Ok((socket, _)) => {
                        accept_shared
                            .stats
                            .connections
                            .fetch_add(1, Ordering::Relaxed);
                        let conn_shared = Arc::clone(&accept_shared);
                        readers.push(std::thread::spawn(move || {
                            reader_loop(socket, conn_shared);
                        }));
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    Err(_) => break,
                }
            }
            for h in readers {
                let _ = h.join();
            }
        });

        let drain_shared = Arc::clone(&shared);
        let drain_thread = std::thread::spawn(move || {
            while !drain_shared.stop.load(Ordering::Relaxed) {
                std::thread::sleep(drain_shared.cfg.drain_interval);
                // Settled drain: the trailing batch of each fabric's
                // stream may still be growing; committing it here would
                // make batch boundaries depend on tick timing. The
                // shutdown path's drain_all flushes it.
                let result = match drain_shared.fleet.lock() {
                    Ok(mut fleet) => fleet.drain_cycle_settled(),
                    Err(_) => break, // poisoned: a reader panicked
                };
                drain_shared.drain_ticks.fetch_add(1, Ordering::Release);
                if let Err(e) = result {
                    let mut slot = match drain_shared.drain_error.lock() {
                        Ok(s) => s,
                        Err(_) => break,
                    };
                    slot.get_or_insert_with(|| e.to_string());
                }
            }
        });

        Ok(Server {
            shared,
            addr,
            accept_thread: Some(accept_thread),
            drain_thread: Some(drain_thread),
        })
    }

    /// The bound listening address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live server counters.
    pub fn stats(&self) -> &ServerStats {
        &self.shared.stats
    }

    /// Point-in-time fleet snapshot (locks the fleet briefly).
    pub fn snapshot(&self) -> Result<FleetReport, FleetError> {
        match self.shared.fleet.lock() {
            Ok(fleet) => Ok(fleet.snapshot()),
            Err(_) => Err(FleetError::Protocol(
                "fleet lock poisoned by a panicked thread".into(),
            )),
        }
    }

    /// Graceful shutdown: stop accepting, let readers finish, drain
    /// every queue and journal, then return the final state. The
    /// returned fleet still owns its journals, so callers can verify
    /// recovery or compare journal bytes.
    pub fn shutdown(mut self) -> Result<ShutdownOutcome, FleetError> {
        self.shared.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
        if let Some(h) = self.drain_thread.take() {
            let _ = h.join();
        }
        if let Ok(Some(e)) = self.shared.drain_error.lock().map(|mut s| s.take()) {
            return Err(FleetError::Protocol(format!("drain thread failed: {e}")));
        }
        // `Server` has a Drop impl, so `self.shared` cannot be moved
        // out; drop the handle (threads are already joined) and unwrap
        // the remaining reference.
        let shared = Arc::clone(&self.shared);
        drop(self);
        let shared = Arc::try_unwrap(shared).map_err(|_| {
            FleetError::Protocol("server threads still hold the fleet after join".into())
        })?;
        let mut fleet = shared
            .fleet
            .into_inner()
            .map_err(|_| FleetError::Protocol("fleet lock poisoned during shutdown".into()))?;
        fleet.drain_all()?;
        let report = fleet.snapshot();
        Ok(ShutdownOutcome { report, fleet })
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
        if let Some(h) = self.drain_thread.take() {
            let _ = h.join();
        }
    }
}

/// Derives a fabric's southbound chaos schedule from the serve-wide
/// base config and the fabric's *name* (FNV-1a over the name, XORed
/// into the seed). Registration order depends on which client connects
/// first, so it must never pick a fabric's fault schedule — a solo
/// replay with the same derivation reproduces the same faults, which is
/// what keeps networked journals byte-identical to in-process ones.
pub fn chaos_for(base: &ChaosConfig, fabric: &str) -> ChaosConfig {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in fabric.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    ChaosConfig {
        seed: base.seed ^ h,
        ..*base
    }
}

/// Per-connection session state.
struct Session {
    /// Set by `Hello`; events before it are rejected.
    client: Option<u64>,
    /// Events accepted in the current budget window.
    used: usize,
    /// The drain tick the current budget window belongs to.
    tick: u64,
}

fn reader_loop(socket: TcpStream, shared: Arc<Shared>) {
    let _ = socket.set_read_timeout(Some(shared.cfg.read_timeout));
    let _ = socket.set_write_timeout(Some(shared.cfg.write_timeout));
    let _ = socket.set_nodelay(true);
    let mut reader = socket;
    let mut dec = Decoder::new();
    let mut session = Session {
        client: None,
        used: 0,
        tick: shared.drain_ticks.load(Ordering::Acquire),
    };
    let mut buf = [0u8; 4096];
    let mut resyncs_flushed = 0u64;
    'conn: loop {
        if shared.stop.load(Ordering::Relaxed) {
            break;
        }
        let n = match reader.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => break,
        };
        dec.extend(&buf[..n]);
        while let Some(frame) = dec.next_frame() {
            shared.stats.frames.fetch_add(1, Ordering::Relaxed);
            if dec.resyncs > resyncs_flushed {
                shared
                    .stats
                    .resyncs
                    .fetch_add(dec.resyncs - resyncs_flushed, Ordering::Relaxed);
                resyncs_flushed = dec.resyncs;
            }
            let seq = frame.seq;
            let reply = match Msg::decode(&frame) {
                Ok(msg) => match handle(&shared, &mut session, seq, msg) {
                    Some(reply) => reply,
                    None => break 'conn, // Bye acked by close
                },
                Err(e) => {
                    shared.stats.rejects.fetch_add(1, Ordering::Relaxed);
                    Msg::Reject {
                        line: 0,
                        col: 0,
                        len: 0,
                        reason: e.to_string(),
                    }
                }
            };
            if reader.write_all(&reply.encode(seq)).is_err() {
                break 'conn;
            }
        }
    }
    // Flush any resyncs observed after the last frame.
    if dec.resyncs > resyncs_flushed {
        shared
            .stats
            .resyncs
            .fetch_add(dec.resyncs - resyncs_flushed, Ordering::Relaxed);
    }
}

/// Handles one decoded message; `None` means "close the connection"
/// (graceful `Bye`).
fn handle(shared: &Arc<Shared>, session: &mut Session, seq: u64, msg: Msg) -> Option<Msg> {
    match msg {
        Msg::Hello { client } => {
            session.client = Some(client);
            let next_seq = match shared.clients.lock() {
                Ok(mut clients) => *clients.entry(client).or_insert(0),
                Err(_) => return Some(poisoned()),
            };
            Some(Msg::Welcome { next_seq })
        }
        Msg::Bye => {
            // Ack the goodbye so the client can distinguish a graceful
            // close from a failure, then close.
            let _ = seq;
            None
        }
        Msg::Event { line } => Some(handle_event(shared, session, seq, &line)),
        // A request-side socket should never carry reply kinds; answer
        // with a reject rather than guessing.
        other => {
            shared.stats.rejects.fetch_add(1, Ordering::Relaxed);
            Some(Msg::Reject {
                line: 0,
                col: 0,
                len: 0,
                reason: format!("unexpected frame kind {} on an ingest stream", other.kind()),
            })
        }
    }
}

fn poisoned() -> Msg {
    Msg::Reject {
        line: 0,
        col: 0,
        len: 0,
        reason: "server state poisoned by a panicked thread".into(),
    }
}

fn handle_event(shared: &Arc<Shared>, session: &mut Session, seq: u64, line: &str) -> Msg {
    let Some(client) = session.client else {
        shared.stats.rejects.fetch_add(1, Ordering::Relaxed);
        return Msg::Reject {
            line: 0,
            col: 0,
            len: 0,
            reason: "event before Hello: open the session first".into(),
        };
    };

    // Per-connection budget: refilled each drain tick. Checked before
    // any lock so a throttled peer costs nothing.
    let tick = shared.drain_ticks.load(Ordering::Acquire);
    if tick != session.tick {
        session.tick = tick;
        session.used = 0;
    }
    if session.used >= shared.cfg.conn_budget {
        shared
            .stats
            .backpressure_replies
            .fetch_add(1, Ordering::Relaxed);
        return Msg::Backpressure {
            queue_depth: 0,
            retry_after_ms: shared.cfg.retry_after_ms,
        };
    }

    // The sequence check, the apply, and the sequence bump must be ONE
    // critical section. After a disconnect the old connection's reader
    // can still be draining frames it had buffered while the client
    // already resends them on a new connection — two readers, same
    // client, same seq. A non-atomic check-then-apply would let both
    // through and double-apply the event. Lock order is fleet → clients
    // everywhere.
    let mut fleet = match shared.fleet.lock() {
        Ok(f) => f,
        Err(_) => return poisoned(),
    };
    let mut clients = match shared.clients.lock() {
        Ok(c) => c,
        Err(_) => return poisoned(),
    };
    let expected = clients.get(&client).copied().unwrap_or(0);
    if seq < expected {
        // Duplicate delivery (client retry or chaos-proxy duplicate):
        // already applied — ack idempotently, never re-apply.
        shared
            .stats
            .duplicates_dropped
            .fetch_add(1, Ordering::Relaxed);
        let epoch = line
            .split_once(':')
            .and_then(|(fabric, _)| {
                fleet
                    .fabric(fabric.trim())
                    .ok()
                    .map(|f| f.controller().committed().epoch)
            })
            .unwrap_or(0);
        return Msg::Ok { epoch };
    }
    if seq > expected {
        // A gap means an earlier event was lost in transit (torn frame,
        // dropped connection). Applying this one would reorder the
        // stream — rewind the client instead.
        shared.stats.rewinds.fetch_add(1, Ordering::Relaxed);
        return Msg::Rewind { expected };
    }

    let Some((fabric, rest)) = line.split_once(':') else {
        // Permanently malformed: consume the seq or the client would
        // ping-pong between Reject here and Rewind on its next event.
        clients.insert(client, expected + 1);
        shared.stats.rejects.fetch_add(1, Ordering::Relaxed);
        return Msg::Reject {
            line: 0,
            col: 0,
            len: 0,
            reason: "want '<fabric>: <trace-line>'".into(),
        };
    };
    let fabric = fabric.trim();

    // Register on first mention, like the in-process daemon.
    if fleet.fabric(fabric).is_err() {
        let mut spec =
            FabricSpec::new(fabric, shared.cfg.topo.clone()).with_damping(shared.cfg.damping);
        if let Some(base) = shared.cfg.chaos {
            spec = spec.with_chaos(chaos_for(&base, fabric));
        }
        if let Err(e) = fleet.register(spec) {
            clients.insert(client, expected + 1);
            shared.stats.rejects.fetch_add(1, Ordering::Relaxed);
            return Msg::Reject {
                line: 0,
                col: 0,
                len: 0,
                reason: format!("cannot register fabric {fabric:?}: {e}"),
            };
        }
    }

    match fleet.ingest_line(fabric, rest.trim()) {
        Ok(_) => {
            let epoch = fleet
                .fabric(fabric)
                .map(|f| f.controller().committed().epoch)
                .unwrap_or(0);
            clients.insert(client, expected + 1);
            session.used += 1;
            shared.stats.events_applied.fetch_add(1, Ordering::Relaxed);
            Msg::Ok { epoch }
        }
        Err(FleetError::QueueFull { fabric, .. }) => {
            // Retryable: the seq is NOT consumed; the client resends
            // after backing off and the dedupe admits it then.
            let depth = fleet
                .fabric(&fabric)
                .map(|f| f.queued() as u32)
                .unwrap_or(u32::MAX);
            shared
                .stats
                .backpressure_replies
                .fetch_add(1, Ordering::Relaxed);
            Msg::Backpressure {
                queue_depth: depth,
                retry_after_ms: shared.cfg.retry_after_ms,
            }
        }
        Err(e) => {
            // Permanent refusal: consume the seq (the client must not
            // retry a line the fabric can never parse) and carry the
            // span so the operator sees where.
            shared.stats.rejects.fetch_add(1, Ordering::Relaxed);
            let (sl, sc, sn) = match &e {
                FleetError::Trace(t) => (t.span.line as u32, t.span.col as u32, t.span.len as u32),
                _ => (0, 0, 0),
            };
            clients.insert(client, expected + 1);
            Msg::Reject {
                line: sl,
                col: sc,
                len: sn,
                reason: e.to_string(),
            }
        }
    }
}
