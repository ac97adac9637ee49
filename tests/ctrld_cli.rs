//! `tagger-ctrld` treats its command line as untrusted input: a bad value,
//! a dangling or unknown flag, or a Clos dimension of zero is a one-line
//! error and exit 1, never a panic.

use std::process::Command;

fn ctrld(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_tagger-ctrld"))
        .args(args)
        .output()
        .expect("tagger-ctrld runs")
}

#[test]
fn zero_clos_dimensions_fail_cleanly() {
    for flag in ["--pods", "--leaves", "--tors", "--spines", "--hosts"] {
        let out = ctrld(&[flag, "0"]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{flag} 0: {stderr}");
        assert_eq!(
            stderr.trim_end(),
            "every Clos dimension must be at least 1",
            "{flag} 0"
        );
    }
}

#[test]
fn bad_flags_fail_cleanly() {
    for args in [
        &["--pods", "x"][..],
        &["--pods"],
        &["--bounces", "-1"],
        &["--watchdog", "demote"],
        &["--crash-after", "2"],
        &["--chaos", "seed=oops"],
    ] {
        let out = ctrld(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
    }
}

#[test]
fn a_one_pod_fabric_still_replays() {
    let out = ctrld(&["--pods", "1", "--bounces", "0"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
}
