//! Host-speed gauge: scales wall times to a fixed reference speed.
//!
//! On a shared virtual machine the same instructions run at speeds that
//! drift by a third or more within seconds (on the 2-vCPU VM this
//! benchmark was sized on, a fixed CPU loop alternated between about 34
//! and 56 ms). That drift swamps run-to-run comparisons of wall time.
//! The gauge times a fixed CPU kernel owned by the benchmark — it calls
//! no program code, so no program change can move it — at every
//! operation boundary, and scales each operation's wall time by
//! `REFERENCE_MS / probe`, where `probe` is the mean of the kernel's time
//! just before and just after the operation. A program that gets faster
//! shows it; a host that gets slower does not. Raw wall figures stay in
//! the human report.

use std::collections::{BTreeMap, BinaryHeap};
use std::hint::black_box;
use std::time::Instant;

/// The kernel's wall time at the reference speed, ms. Reported times are
/// what the operation would take on a host where the kernel takes this.
pub const REFERENCE_MS: f64 = 4.0;

/// Runs the fixed kernel once and returns its wall time, ms: a seeded
/// mix of heap, ordered-map and integer work, like the program's own.
pub fn probe_ms() -> f64 {
    let clock = Instant::now();
    let mut heap = BinaryHeap::new();
    let mut map = BTreeMap::new();
    let mut x: u64 = 0x2545_F491_4F6C_DD1D;
    let mut acc = 0u64;
    for i in 0..20_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        heap.push(x % 100_000);
        map.insert(x % 4096, i);
        if heap.len() > 512 {
            acc = acc.wrapping_add(heap.pop().unwrap_or(0));
        }
        acc = acc.wrapping_add(map.get(&(x % 4099)).copied().unwrap_or(0));
    }
    black_box(acc);
    clock.elapsed().as_secs_f64() * 1e3
}

/// Probes at operation boundaries and hands out per-operation scales.
#[derive(Debug)]
pub struct Gauge {
    last_ms: f64,
    probes: Vec<f64>,
}

impl Gauge {
    /// Takes the first boundary probe.
    pub fn start() -> Gauge {
        let first = probe_ms();
        Gauge {
            last_ms: first,
            probes: vec![first],
        }
    }

    /// Closes the operation that just ended: probes again and returns the
    /// factor that scales its wall time to the reference speed.
    pub fn scale(&mut self) -> f64 {
        let now = probe_ms();
        self.probes.push(now);
        let factor = REFERENCE_MS / ((self.last_ms + now) / 2.0);
        self.last_ms = now;
        factor
    }

    /// Every probe taken so far, ms.
    pub fn probes(&self) -> &[f64] {
        &self.probes
    }
}
