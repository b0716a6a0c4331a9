//! `repro`'s exit codes on bad input and unwritable output: 2 with a
//! message for an argument it does not take, 1 with a message for an
//! output it cannot write or a table it cannot evaluate, and never a
//! panic.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .env("TAOR_THREADS", "1")
        .output()
        .expect("failed to spawn repro binary")
}

#[test]
fn unknown_index_mode_exits_2_naming_the_modes() {
    let out = repro(&["--table", "1", "--index", "hnsw"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("flat | mih"), "stderr: {stderr}");
    assert!(out.stdout.is_empty(), "no table before the arguments parse");
}

#[test]
fn empty_nyu_set_exits_2_naming_the_flag() {
    let out = repro(&["--table", "2", "--nyu-per-class", "0"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("--nyu-per-class must be at least 1"), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert!(out.stdout.is_empty(), "no table before the arguments parse");
}

#[test]
fn empty_table4_evaluation_exits_1_without_a_panic() {
    let out =
        repro(&["--table", "4", "--train-pairs", "8", "--train-epochs", "1", "--eval-pairs", "0"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(
        stderr.contains("error: table 4 failed: empty input: evaluation pairs"),
        "stderr: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}

/// The NYU+SNS1 test pairs draw 10 crops per class. The check comes
/// before training: with no training pairs it still names the flag.
#[test]
fn table4_with_too_few_nyu_crops_exits_1_naming_the_flag() {
    for train_pairs in ["16", "0"] {
        let out = repro(&[
            "--quick",
            "--table",
            "4",
            "--nyu-per-class",
            "5",
            "--train-pairs",
            train_pairs,
            "--train-epochs",
            "1",
            "--eval-pairs",
            "16",
        ]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
        assert!(
            stderr.contains("error: table 4 failed: invalid parameter `--nyu-per-class`"),
            "stderr: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    }
}

/// `/dev/full` accepts the open and fails every write with `ENOSPC`.
#[cfg(target_os = "linux")]
#[test]
fn unwritable_json_exits_1_without_a_panic() {
    let out = repro(&["--table", "1", "--json", "/dev/full"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(stderr.contains("error: cannot write /dev/full"), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}
