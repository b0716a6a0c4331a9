//! `taor-serve`'s command line: a flag value the server could only answer
//! with errors is refused before the server binds.

use std::io::Read;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// A zero-capacity admission queue would shed every request with a 429.
/// A server that starts anyway is killed after a bounded wait.
#[test]
fn zero_queue_cap_exits_2_naming_the_flag() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_taor-serve"))
        .args(["--addr", "127.0.0.1:0", "--no-siamese", "--queue-cap", "0"])
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
        panic!("`--queue-cap 0` was accepted: the server still ran after 10 s");
    };
    let mut stderr = String::new();
    child.stderr.take().expect("stderr piped").read_to_string(&mut stderr).expect("stderr reads");
    assert_eq!(status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("--queue-cap must be at least 1"), "stderr: {stderr}");
}
