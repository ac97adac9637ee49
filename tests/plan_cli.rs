//! `tagger-plan` treats its command line as untrusted input: a bad value
//! or a dangling flag is a one-line error and exit 1, never a panic.

use std::process::Command;

fn plan(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_tagger-plan"))
        .args(args)
        .output()
        .expect("tagger-plan runs")
}

#[test]
fn bad_flags_fail_cleanly() {
    for args in [
        &["clos", "--pods", "x"][..],
        &["clos", "--pods"],
        &["clos", "--bounces", "-1"],
        &["clos", "--pods", "0"],
        &["fattree", "--k", "3"],
        &["jellyfish", "--ports", "0"],
        &["jellyfish", "--switches", "1"],
        &["custom", "--file"],
        &["nonsense"],
        &[],
    ] {
        let out = plan(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
    }
}

#[test]
fn a_good_plan_still_certifies() {
    let out = plan(&["clos", "--pods", "2"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("certificate     : deadlock-free"),
        "{stdout}"
    );
}
