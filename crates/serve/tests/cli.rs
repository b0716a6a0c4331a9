//! `taor-serve`'s command line: a flag value the server could only answer
//! with errors is refused before the server binds.

use std::io::Read;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Spawn `taor-serve` with `flag 0` and expect it to exit 2 before
/// binding, naming the flag. A server that starts anyway is killed after
/// a bounded wait.
fn assert_zero_is_refused(flag: &str) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_taor-serve"))
        .args(["--addr", "127.0.0.1:0", "--no-siamese", flag, "0"])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("taor-serve spawns");
    let deadline = Instant::now() + Duration::from_secs(10);
    while child.try_wait().expect("child is waitable").is_none() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    let Some(status) = child.try_wait().expect("child is waitable") else {
        child.kill().ok();
        child.wait().ok();
        panic!("`{flag} 0` was accepted: the server still ran after 10 s");
    };
    let mut stderr = String::new();
    child.stderr.take().expect("stderr piped").read_to_string(&mut stderr).expect("stderr reads");
    assert_eq!(status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains(&format!("{flag} must be at least 1")), "stderr: {stderr}");
}

/// A zero-capacity admission queue would shed every request with a 429.
#[test]
fn zero_queue_cap_exits_2_naming_the_flag() {
    assert_zero_is_refused("--queue-cap");
}

/// A zero deadline would answer every crop 504.
#[test]
fn zero_deadline_exits_2_naming_the_flag() {
    assert_zero_is_refused("--deadline-ms");
}

/// A zero body cap would answer every crop 413.
#[test]
fn zero_max_body_exits_2_naming_the_flag() {
    assert_zero_is_refused("--max-body");
}

/// A zero read budget would close every connection without an answer.
#[test]
fn zero_read_budget_exits_2_naming_the_flag() {
    assert_zero_is_refused("--read-budget-ms");
}
