//! The deterministic counters: byte-identical across runs at the pinned
//! seed, equal to the committed golden, and different at another seed
//! (so the seed reaches every workload's input generator).

use perfbench::{counters, render_counters, WORKLOADS};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// The seed the golden counters were recorded at.
const PINNED_SEED: u64 = 1;
const GOLDEN: &str = include_str!("../golden/counters.jsonl");

fn work(workload: &str, tag: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join(".work")
        .join(format!("test-{workload}-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create work dir");
    dir
}

fn counts(workload: &str, seed: u64, tag: &str) -> BTreeMap<&'static str, u64> {
    let dir = work(workload, tag);
    let counts = counters(workload, seed, &dir).expect("counters run");
    std::fs::remove_dir_all(&dir).ok();
    counts
}

fn check(workload: &str) {
    let first = counts(workload, PINNED_SEED, "a");
    let second = counts(workload, PINNED_SEED, "b");
    let rendered = render_counters(workload, PINNED_SEED, &first);
    assert_eq!(
        rendered,
        render_counters(workload, PINNED_SEED, &second),
        "{workload}: counters differ between two runs"
    );
    assert!(
        GOLDEN.lines().any(|l| l == rendered),
        "{workload}: counters differ from golden/counters.jsonl:\n{rendered}"
    );
    let other = counts(workload, PINNED_SEED + 1, "c");
    assert_ne!(
        other, first,
        "{workload}: the seed does not reach the inputs"
    );
}

#[test]
fn golden_lists_every_workload() {
    for w in WORKLOADS {
        let prefix = format!("{{\"workload\": \"{w}\", \"seed\": {PINNED_SEED},");
        assert!(
            GOLDEN.lines().any(|l| l.starts_with(&prefix)),
            "{w} missing"
        );
    }
}

#[test]
fn fleet_churn_counters() {
    check("fleet-churn");
}

#[test]
fn plan_wide_counters() {
    check("plan-wide");
}

#[test]
fn incast_sweep_counters() {
    check("incast-sweep");
}

#[test]
fn deadlock_churn_counters() {
    check("deadlock-churn");
}
