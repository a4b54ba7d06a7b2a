//! End-to-end tests of the `gomil` CLI binary.

use std::process::Command;

fn gomil(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_gomil"))
        .args(args)
        .output()
        .expect("binary runs")
}

#[test]
fn info_prints_paper_defaults() {
    let out = gomil(&["info"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("w = 8"));
    assert!(text.contains("L = 10"));
}

#[test]
fn prefix_solves_example_1() {
    let out = gomil(&["prefix", "2", "2", "1", "2", "1", "1"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("area  = 16"));
    assert!(text.contains("delay = 5"));
}

#[test]
fn gen_writes_verilog_to_stdout() {
    let out = gomil(&["gen", "4"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.starts_with("module "));
    assert!(text.contains("output [7:0] p;"));
    let log = String::from_utf8_lossy(&out.stderr);
    // The equivalence gate proves m = 4 exhaustively and says so.
    assert!(log.contains("equivalence:"), "{log}");
    assert!(log.contains("proved"), "{log}");
    assert!(log.contains("verdict:"), "{log}");
}

#[test]
fn gen_verify_off_reports_a_skipped_verdict() {
    let out = gomil(&["gen", "4", "--verify", "off"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let log = String::from_utf8_lossy(&out.stderr);
    assert!(log.contains("skipped"), "{log}");
}

#[test]
fn unknown_subcommand_fails_with_usage() {
    let out = gomil(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
}

#[test]
fn a_malformed_flag_value_fails_naming_the_flag() {
    let out = gomil(&["gen", "4", "--cuts", "bogus"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(
        out.stdout.is_empty(),
        "no design for a rejected command line"
    );
    let log = String::from_utf8_lossy(&out.stderr);
    assert!(log.contains("--cuts") && log.contains("bogus"), "{log}");
}

#[test]
fn gen_builds_the_named_ppg() {
    // The budget bounds the joint ILP, which proves BW m=3 only slowly.
    let out = gomil(&["gen", "3", "bw", "--budget-ms", "200"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let log = String::from_utf8_lossy(&out.stderr);
    assert!(log.contains("equivalence: GOMIL-BW-3 "), "{log}");
}

#[test]
fn gen_rejects_an_unknown_ppg_naming_it() {
    let out = gomil(&["gen", "3", "xyz"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(
        out.stdout.is_empty(),
        "no design for a rejected command line"
    );
    let log = String::from_utf8_lossy(&out.stderr);
    assert!(log.contains("xyz"), "{log}");
}
