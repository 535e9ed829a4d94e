//! `lmm-repro` driven through the built binary: its exit codes.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_lmm-repro"))
        .args(args)
        .output()
        .expect("lmm-repro starts")
}

#[test]
fn unknown_experiment_prints_usage_and_exits_2() {
    let out = repro(&["fig3"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("`fig3`") && stderr.contains("usage: lmm-repro"),
        "{stderr}"
    );
    assert!(out.stdout.is_empty(), "no experiment runs");
}

#[test]
fn fig2_checks_every_value_and_exits_0() {
    let out = repro(&["fig2"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("48 claims checked, 0 failed"), "{stdout}");
}
