//! The `dmfstream` binary's answers to requests past the engine's bounds
//! and to the dilution-only algorithms: typed errors with exit code 1,
//! never an abort.

// Test target: the workspace `unwrap_used`/`expect_used`/`panic` deny wall
// applies to library code only (see Cargo.toml).
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
use std::process::{Command, Output};

fn dmfstream(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dmfstream")).args(args).output().unwrap()
}

/// Asserts a failed run with exit code 1 whose stderr contains `message`.
fn assert_fails_with(args: &[&str], message: &str) {
    let out = dmfstream(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
    assert!(stderr.contains(message), "{args:?}: {stderr}");
}

#[test]
fn an_oversized_mixer_budget_exits_1_with_a_typed_error() {
    assert_fails_with(
        &["plan", "2:1:1:1:1:1:9", "--demand", "4", "--mixers", "100000000000000000"],
        "error: mixer budget 100000000000000000 exceeds the limit of 1024",
    );
}

#[test]
fn an_oversized_demand_exits_1_with_a_typed_error() {
    assert_fails_with(
        &["plan", "2:1:1:1:1:1:9", "--demand", "1000000000"],
        "error: demand 1000000000 exceeds the limit of 1048576",
    );
}

#[test]
fn bitscan_on_a_seven_fluid_ratio_exits_1_with_a_typed_error() {
    assert_fails_with(
        &["plan", "2:1:1:1:1:1:9", "--demand", "4", "--algo", "bitscan"],
        "dilution algorithms need exactly two active fluids, got 7",
    );
}

#[test]
fn deep_checks_of_dilution_streams_are_clean() {
    for algo in ["bitscan", "dmrw"] {
        let out = dmfstream(&["check", "5:11", "--demand", "16", "--deep", "--algo", algo]);
        assert_eq!(
            out.status.code(),
            Some(0),
            "{algo}: {}{}",
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        );
    }
}
