//! Thread-count determinism: quick-mode repro output must be byte-identical
//! whether the worker pool is disabled (`TAOR_THREADS=1`, the sequential
//! fast path in `vendor/rayon`) or running four workers (`TAOR_THREADS=4`).
//!
//! This is the end-to-end guarantee behind the pool's ordered-collect and
//! deterministic-reduction contract: parallelism may change *when* work
//! runs, never *what* it produces. The matcher's GEMM fast path rides the
//! same guarantee via its exact-rescore step.
//!
//! Tables 2 and 3 cover both matcher families (float L2 and binary
//! Hamming) plus the classification pipelines. Table 4 runs at a reduced
//! scale (`--train-pairs/--train-epochs/--eval-pairs`) — enough to push
//! real batched training and batched inference through the pool at both
//! widths without debug-mode runtime dominating the suite.

use std::process::Command;

fn repro_stdout(threads: &str, table: &str) -> Vec<u8> {
    repro_stdout_with(threads, &["--quick", "--table", table, "--seed", "7"])
}

fn repro_stdout_with(threads: &str, args: &[&str]) -> Vec<u8> {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .env("TAOR_THREADS", threads)
        .output()
        .expect("failed to spawn repro binary");
    let table = args.iter().position(|&a| a == "--table").map(|i| args[i + 1]).unwrap_or("?");
    assert!(
        out.status.success(),
        "repro --table {table} failed with TAOR_THREADS={threads}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
}

/// Cross-*process* determinism: two fresh spawns of the repro binary must
/// agree byte-for-byte. This is the regression test for the HashMap
/// iteration-order hazard in `segment::border_colors` and
/// `hybrid::argmin_grouped` — std's `RandomState` reseeds per process, so
/// any surviving hash-order dependence shows up as a diff between spawns.
#[test]
fn quick_repro_is_byte_identical_across_process_restarts() {
    for table in ["2", "3"] {
        let first = repro_stdout("2", table);
        let second = repro_stdout("2", table);
        assert!(!first.is_empty(), "table {table} produced no output");
        assert_eq!(
            first, second,
            "table {table}: stdout differs between two spawns of the same binary"
        );
    }
}

#[test]
fn quick_repro_is_byte_identical_across_thread_counts() {
    for table in ["2", "3"] {
        let one = repro_stdout("1", table);
        let four = repro_stdout("4", table);
        assert!(!one.is_empty(), "table {table} produced no output at TAOR_THREADS=1");
        assert_eq!(
            one, four,
            "table {table}: stdout differs between TAOR_THREADS=1 and TAOR_THREADS=4"
        );
    }
}

/// The batched trainer's micro partitioning and fixed-order tree
/// reduction, and the batched evaluation path, must make Table 4 —
/// training included — byte-identical at pool widths 1 and 4. Reduced
/// scale: 32 training pairs for one epoch, 64 evaluation pairs per set.
#[test]
fn table4_reduced_is_byte_identical_across_thread_counts() {
    let args = [
        "--quick",
        "--table",
        "4",
        "--seed",
        "7",
        "--train-pairs",
        "32",
        "--train-epochs",
        "1",
        "--eval-pairs",
        "64",
    ];
    let one = repro_stdout_with("1", &args);
    let four = repro_stdout_with("4", &args);
    assert!(!one.is_empty(), "table 4 produced no output at TAOR_THREADS=1");
    assert_eq!(one, four, "table 4: stdout differs between TAOR_THREADS=1 and TAOR_THREADS=4");
}

/// The `--index mih` gallery mode carries the same end-to-end guarantee
/// as flat matching: byte-identical Table 3 output across process
/// restarts and pool widths. MIH is exact by construction, so its stdout
/// must additionally equal the brute-force run bit-for-bit.
#[test]
fn indexed_table3_is_deterministic_and_mih_matches_flat() {
    let flat = repro_stdout_with("2", &["--quick", "--table", "3", "--seed", "7"]);
    let args = ["--quick", "--table", "3", "--seed", "7", "--index", "mih"];
    let first = repro_stdout_with("2", &args);
    let second = repro_stdout_with("2", &args);
    let narrow = repro_stdout_with("1", &args);
    let wide = repro_stdout_with("4", &args);
    assert!(!first.is_empty(), "--index mih produced no output");
    assert_eq!(first, second, "--index mih: stdout differs between two spawns");
    assert_eq!(narrow, wide, "--index mih: stdout differs across TAOR_THREADS widths");
    assert_eq!(first, narrow, "--index mih: stdout differs across runs");
    assert_eq!(
        first, flat,
        "MIH is an exact index: its tables must be byte-identical to brute force"
    );
}
