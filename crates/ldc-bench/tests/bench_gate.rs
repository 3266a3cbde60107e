//! End-to-end tests for the `bench_gate` binary: bad inputs exit with
//! code 2 and a message, and `--history` appends without rewriting the
//! bytes already in the history file.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const BENCH: &str = r#"{
  "bench": "engine_throughput",
  "cases": [
    {"workload": "ring_20k", "mode": "serial", "threads": 1, "median_secs": 0.004000},
    {"workload": "ring_20k", "mode": "pooled", "threads": 2, "median_secs": 0.003000}
  ]
}"#;

/// A fresh scratch directory for one test.
fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("bench_gate_{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn write(dir: &Path, file: &str, bytes: &[u8]) -> String {
    let path = dir.join(file);
    std::fs::write(&path, bytes).unwrap();
    path.to_str().unwrap().to_string()
}

fn gate(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bench_gate"))
        .args(args)
        .output()
        .expect("bench_gate runs")
}

#[test]
fn history_with_invalid_utf8_is_appended_not_truncated() {
    let dir = scratch("history_utf8");
    let bench = write(&dir, "bench.json", BENCH.as_bytes());
    let old: &[u8] = b"{\"bench\": \"old\"}\n\xff\xfe not utf-8";
    let history = write(&dir, "history.jsonl", old);
    let out = gate(&[
        "--baseline",
        &bench,
        "--fresh",
        &bench,
        "--history",
        &history,
    ]);
    assert!(out.status.success(), "{out:?}");
    let now = std::fs::read(&history).unwrap();
    assert!(now.starts_with(old), "history bytes were rewritten");
    let appended = std::str::from_utf8(&now[old.len()..]).unwrap();
    assert!(appended.starts_with('\n'), "row starts on its own line");
    assert_eq!(appended.lines().filter(|l| !l.is_empty()).count(), 1);
    assert!(appended.contains("\"pooled@t2\""), "{appended}");
    assert!(appended.ends_with('\n'));
}

#[test]
fn missing_history_is_created() {
    let dir = scratch("history_new");
    let bench = write(&dir, "bench.json", BENCH.as_bytes());
    let history = dir.join("history.jsonl");
    let history = history.to_str().unwrap();
    let out = gate(&[
        "--baseline",
        &bench,
        "--fresh",
        &bench,
        "--history",
        history,
    ]);
    assert!(out.status.success(), "{out:?}");
    let text = std::fs::read_to_string(history).unwrap();
    assert_eq!(text.lines().count(), 1);
    assert!(text.contains("\"bench\":\"engine_throughput\""), "{text}");
}

#[test]
fn bad_inputs_exit_2_with_a_message() {
    let dir = scratch("bad_inputs");
    let good = write(&dir, "good.json", BENCH.as_bytes());
    let truncated = write(&dir, "truncated.json", &BENCH.as_bytes()[..BENCH.len() / 2]);
    let not_utf8 = write(&dir, "not_utf8.json", b"{\"cases\": [\xff]}");
    let missing = dir.join("missing.json");
    let missing = missing.to_str().unwrap();
    // A directory path cannot be opened as a history file.
    let dir_history = dir.to_str().unwrap();
    for (args, needle) in [
        (
            vec!["--baseline", &truncated, "--fresh", &good],
            "truncated.json",
        ),
        (
            vec!["--baseline", &good, "--fresh", &truncated],
            "truncated.json",
        ),
        (
            vec!["--baseline", missing, "--fresh", &good],
            "missing.json",
        ),
        (
            vec!["--baseline", &good, "--fresh", &not_utf8],
            "not_utf8.json",
        ),
        (
            vec![
                "--baseline",
                &good,
                "--fresh",
                &good,
                "--history",
                dir_history,
            ],
            "cannot append",
        ),
    ] {
        let out = gate(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(needle), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}
