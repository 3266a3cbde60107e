//! CI bench-regression gate: compare a fresh `engine_throughput` run
//! against a checked-in baseline and fail on significant slowdowns.
//!
//! Usage:
//!
//! ```text
//! bench_gate --baseline BENCH_engine.quick.json \
//!            --fresh target/BENCH_engine.quick.json [--tolerance 0.25] \
//!            [--history BENCH_history.jsonl]
//! ```
//!
//! Rows are matched by `(workload, mode)`. The gate fails (exit code 1)
//! if any fresh `median_secs` exceeds the baseline by more than the
//! tolerance (default 25%), or if a baseline row is missing from the
//! fresh run (a silent coverage drop would otherwise read as a pass).
//! Fresh rows with no baseline counterpart are reported but don't fail
//! the gate — they become gated once the baseline is refreshed.
//!
//! With `--history FILE`, the fresh run's cases are appended to the
//! longitudinal history as one manifest-stamped JSONL row (see
//! `ldc_bench::history`); appending happens before the pass/fail verdict,
//! so regressions land in the trajectory too. `ldc report` renders the
//! trend. The row is appended in place: existing history bytes are never
//! rewritten, and only a missing file starts an empty history.
//!
//! Both bench files are read with `ldc_batch::jsonin`; every entry of the
//! `"cases"` array must carry `workload`, `mode` and `median_secs`. An
//! unreadable or malformed file exits with code 2.

use ldc_batch::jsonin::Value;
use ldc_bench::cli;
use ldc_bench::history::{render_row, HistoryCase};
use ldc_sim::telemetry::RunManifest;
use std::io::{Read, Seek, SeekFrom, Write};
use std::process::ExitCode;

/// One benchmark case: the identity key plus the gated statistic.
#[derive(Debug, Clone, PartialEq)]
struct Row {
    workload: String,
    mode: String,
    median_secs: f64,
}

/// Parse a `BENCH_*.json` file into its `"bench"` name (`"unknown"` when
/// absent) and its gated rows.
fn parse_bench(json: &str) -> Result<(String, Vec<Row>), String> {
    let doc = Value::parse(json)?;
    let bench = doc
        .get("bench")
        .and_then(Value::as_str)
        .unwrap_or("unknown");
    let cases = doc
        .get("cases")
        .and_then(Value::as_arr)
        .ok_or("missing \"cases\" array")?;
    let rows = cases
        .iter()
        .enumerate()
        .map(|(i, case)| {
            let text = |key: &str| {
                case.get(key)
                    .and_then(Value::as_str)
                    .ok_or_else(|| format!("case {i}: missing string field {key:?}"))
            };
            let (workload, mode) = (text("workload")?, text("mode")?);
            let median_secs = case
                .get("median_secs")
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("case {i}: missing number field \"median_secs\""))?;
            // Thread-sweep rows (solver bench) carry a `threads` field;
            // fold it into the mode key so each pool width is gated and
            // tracked in the history separately. Absent or 1 → bare mode,
            // which keeps engine-bench and pre-sweep baselines parsing
            // unchanged.
            let mode = match case.get("threads").and_then(Value::as_f64) {
                Some(t) if t != 1.0 => format!("{mode}@t{t:.0}"),
                _ => mode.to_string(),
            };
            Ok(Row {
                workload: workload.to_string(),
                mode,
                median_secs,
            })
        })
        .collect::<Result<_, String>>()?;
    Ok((bench.to_string(), rows))
}

/// Read and parse one bench file, naming the file in any error.
fn load_bench(path: &str) -> Result<(String, Vec<Row>), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    parse_bench(&text).map_err(|e| format!("cannot parse {path}: {e}"))
}

/// Append one JSONL `line` to the history file at `path` without touching
/// the bytes already there (a missing file is created). A newline is
/// inserted first if the file does not already end with one.
fn append_history(path: &str, line: &str) -> std::io::Result<()> {
    let mut file = std::fs::OpenOptions::new()
        .read(true)
        .append(true)
        .create(true)
        .open(path)?;
    let mut last = [b'\n'];
    if file.metadata()?.len() > 0 {
        file.seek(SeekFrom::End(-1))?;
        file.read_exact(&mut last)?;
    }
    let sep = if last[0] == b'\n' { "" } else { "\n" };
    writeln!(file, "{sep}{line}")
}

/// Gate parallel-vs-serial scaling efficiency on the *fresh* run: for
/// every thread-sweep row (`mode@tN`) with a `serial` sibling on the same
/// workload, `efficiency = serial_median / sweep_median` must be at least
/// `floor`. An efficiency of 1.0 means the parallel executor matches
/// serial; below the floor means chunking/dispatch overhead is eating the
/// round — the dense-graph pooled regression this PR fixes would show up
/// here as `dense_complete_1000/pooled@t2 < 1`. On a single-core CI host
/// true speedups are impossible, so the floor gates *overhead-neutrality*
/// (ratios near 1), not speedup.
///
/// `max_threads > 0` restricts the gate to sweep rows with `tN <= max`:
/// oversubscribed widths (t = 4/8 on a 2-core runner) pay real
/// scheduling overhead that is a property of the host, not the engine,
/// so CI gates the widths the runner can actually service and the wider
/// rows remain report-only.
fn gate_efficiency(fresh: &[Row], floor: f64, max_threads: usize) -> (Vec<String>, Vec<String>) {
    let mut report = Vec::new();
    let mut failures = Vec::new();
    for f in fresh {
        let Some(threads) = f
            .mode
            .rsplit_once("@t")
            .and_then(|(_, t)| t.parse::<usize>().ok())
        else {
            continue;
        };
        if max_threads > 0 && threads > max_threads {
            continue;
        }
        let Some(serial) = fresh
            .iter()
            .find(|s| s.workload == f.workload && s.mode == "serial")
        else {
            continue;
        };
        let efficiency = serial.median_secs / f.median_secs;
        let verdict = if efficiency < floor { "FAIL" } else { "ok" };
        report.push(format!(
            "{verdict:>4}  {}/{:<20} efficiency {efficiency:.3} vs serial (floor {floor:.3})",
            f.workload, f.mode,
        ));
        if efficiency < floor {
            failures.push(format!(
                "{}/{}: scaling efficiency {efficiency:.3} below floor {floor:.3}",
                f.workload, f.mode,
            ));
        }
    }
    (report, failures)
}

/// Compare fresh rows against the baseline. Returns one report line per
/// comparison and the list of failures (empty = gate passes).
fn gate(baseline: &[Row], fresh: &[Row], tolerance: f64) -> (Vec<String>, Vec<String>) {
    let mut report = Vec::new();
    let mut failures = Vec::new();
    for b in baseline {
        let key = format!("{}/{}", b.workload, b.mode);
        match fresh
            .iter()
            .find(|f| f.workload == b.workload && f.mode == b.mode)
        {
            Some(f) => {
                let ratio = f.median_secs / b.median_secs;
                let limit = 1.0 + tolerance;
                let verdict = if ratio > limit { "FAIL" } else { "ok" };
                report.push(format!(
                    "{verdict:>4}  {key:<28} baseline {:.6}s  fresh {:.6}s  ratio {ratio:.3} (limit {limit:.3})",
                    b.median_secs, f.median_secs,
                ));
                if ratio > limit {
                    failures.push(format!(
                        "{key}: {:.1}% slower than baseline (tolerance {:.0}%)",
                        (ratio - 1.0) * 100.0,
                        tolerance * 100.0,
                    ));
                }
            }
            None => {
                report.push(format!("FAIL  {key:<28} missing from fresh run"));
                failures.push(format!("{key}: baseline row missing from fresh run"));
            }
        }
    }
    for f in fresh {
        if !baseline
            .iter()
            .any(|b| b.workload == f.workload && b.mode == f.mode)
        {
            report.push(format!(
                "  new  {}/{} has no baseline row (not gated)",
                f.workload, f.mode
            ));
        }
    }
    (report, failures)
}

fn main() -> ExitCode {
    const USAGE: &str = "usage: bench_gate --baseline <json> --fresh <json> [--tolerance 0.25] \
         [--efficiency-floor 0.8] [--efficiency-max-threads 2] [--history <jsonl>]";
    let args: Vec<String> = std::env::args().skip(1).collect();
    let parsed = match cli::parse(
        &args,
        &[],
        &[
            "--baseline",
            "--fresh",
            "--tolerance",
            "--efficiency-floor",
            "--efficiency-max-threads",
            "--history",
        ],
    ) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let (baseline_path, fresh_path) = match (parsed.get("--baseline"), parsed.get("--fresh")) {
        (Some(b), Some(f)) => (b, f),
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let tolerance: f64 = match parsed.parse_or("--tolerance", 0.25) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // 0.0 disables the efficiency gate (every ratio passes).
    let efficiency_floor: f64 = match parsed.parse_or("--efficiency-floor", 0.0) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // 0 = gate every sweep width; CI caps at the runner's real core count.
    let efficiency_max_threads: usize = match parsed.parse_or("--efficiency-max-threads", 0) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    let ((_, baseline), (bench, fresh)) = match (load_bench(baseline_path), load_bench(fresh_path))
    {
        (Ok(b), Ok(f)) => (b, f),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("bench_gate: {e}");
            return ExitCode::from(2);
        }
    };
    if baseline.is_empty() {
        eprintln!("bench_gate: no cases parsed from baseline {baseline_path}");
        return ExitCode::from(2);
    }

    // Append the fresh run to the longitudinal history before gating, so
    // regressions become part of the trajectory rather than vanishing.
    if let Some(history_path) = parsed.get("--history") {
        let manifest = RunManifest::capture("bench", 0, &bench);
        let cases: Vec<HistoryCase> = fresh
            .iter()
            .map(|r| HistoryCase {
                workload: r.workload.clone(),
                mode: r.mode.clone(),
                median_secs: r.median_secs,
            })
            .collect();
        let line = render_row(&bench, &manifest, &cases);
        if let Err(e) = append_history(history_path, &line) {
            eprintln!("bench_gate: cannot append to {history_path}: {e}");
            return ExitCode::from(2);
        }
        println!(
            "bench_gate: appended {} cases of bench {bench} to {history_path}",
            cases.len()
        );
    }

    println!("bench_gate: {baseline_path} vs {fresh_path} (tolerance {tolerance})");
    let (report, mut failures) = gate(&baseline, &fresh, tolerance);
    for line in &report {
        println!("{line}");
    }
    if efficiency_floor > 0.0 {
        let (eff_report, eff_failures) =
            gate_efficiency(&fresh, efficiency_floor, efficiency_max_threads);
        for line in &eff_report {
            println!("{line}");
        }
        failures.extend(eff_failures);
    }
    if failures.is_empty() {
        println!("bench_gate: PASS ({} rows gated)", baseline.len());
        ExitCode::SUCCESS
    } else {
        eprintln!("bench_gate: FAIL");
        for f in &failures {
            eprintln!("  {f}");
        }
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{
  "bench": "engine_throughput",
  "threads": 2,
  "samples": 3,
  "cases": [
    {"workload": "sparse_gnp_10k", "mode": "serial", "nodes": 10000, "slots": 80000, "rounds": 10, "median_secs": 0.020000, "node_steps_per_sec": 5000000},
    {"workload": "sparse_gnp_10k", "mode": "pooled", "nodes": 10000, "slots": 80000, "rounds": 10, "median_secs": 0.018000, "node_steps_per_sec": 5555555},
    {"workload": "ring_20k", "mode": "serial", "nodes": 20000, "slots": 40000, "rounds": 10, "median_secs": 0.004000, "node_steps_per_sec": 50000000}
  ]
}"#;

    fn parse_rows(json: &str) -> Vec<Row> {
        parse_bench(json).expect("valid bench file").1
    }

    #[test]
    fn parses_the_emitted_format() {
        let (bench, rows) = parse_bench(SAMPLE).unwrap();
        assert_eq!(bench, "engine_throughput");
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].workload, "sparse_gnp_10k");
        assert_eq!(rows[0].mode, "serial");
        assert!((rows[0].median_secs - 0.02).abs() < 1e-12);
        assert_eq!(rows[2].mode, "serial");
        assert!((rows[2].median_secs - 0.004).abs() < 1e-12);

        // A `}` inside a string value does not end the case object.
        let braced = r#"{"cases": [{"workload": "w}x", "mode": "m", "median_secs": 0.5}]}"#;
        let rows = parse_rows(braced);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].workload, "w}x");
        assert_eq!(rows[0].mode, "m");
        assert!((rows[0].median_secs - 0.5).abs() < 1e-12);

        // Malformed files are errors, not partial row lists.
        for bad in [
            &SAMPLE[..SAMPLE.len() / 2],
            r#"{"bench": "x"}"#,
            r#"{"cases": [{"workload": "w", "mode": "m"}]}"#,
            r#"{"cases": [{"workload": "w", "mode": 3, "median_secs": 0.1}]}"#,
        ] {
            assert!(parse_bench(bad).is_err(), "accepted {bad}");
        }
    }

    #[test]
    fn identical_runs_pass() {
        let rows = parse_rows(SAMPLE);
        let (_, failures) = gate(&rows, &rows, 0.25);
        assert!(failures.is_empty(), "{failures:?}");
    }

    #[test]
    fn two_x_slowdown_fails() {
        let baseline = parse_rows(SAMPLE);
        let mut fresh = baseline.clone();
        fresh[1].median_secs *= 2.0;
        let (_, failures) = gate(&baseline, &fresh, 0.25);
        assert_eq!(failures.len(), 1);
        assert!(
            failures[0].contains("sparse_gnp_10k/pooled"),
            "{failures:?}"
        );
    }

    #[test]
    fn slowdown_within_tolerance_passes() {
        let baseline = parse_rows(SAMPLE);
        let mut fresh = baseline.clone();
        fresh[0].median_secs *= 1.20; // under the 25% default
        let (_, failures) = gate(&baseline, &fresh, 0.25);
        assert!(failures.is_empty(), "{failures:?}");
    }

    #[test]
    fn missing_baseline_row_fails() {
        let baseline = parse_rows(SAMPLE);
        let fresh = baseline[..2].to_vec();
        let (_, failures) = gate(&baseline, &fresh, 0.25);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("missing"), "{failures:?}");
    }

    /// Thread-sweep rows fold `threads` into the mode key (`mode@tN`) so
    /// each pool width is gated separately; t = 1 and absent stay bare.
    #[test]
    fn thread_sweep_rows_get_mode_at_t_keys() {
        let json = r#"{"cases": [
            {"workload": "w", "mode": "serial", "threads": 1, "median_secs": 0.1},
            {"workload": "w", "mode": "pooled", "threads": 4, "median_secs": 0.05}
        ]}"#;
        let rows = parse_rows(json);
        assert_eq!(rows[0].mode, "serial");
        assert_eq!(rows[1].mode, "pooled@t4");
    }

    fn eff_rows() -> Vec<Row> {
        vec![
            Row {
                workload: "dense".into(),
                mode: "serial".into(),
                median_secs: 0.10,
            },
            Row {
                workload: "dense".into(),
                mode: "pooled@t2".into(),
                median_secs: 0.10,
            },
            Row {
                workload: "dense".into(),
                mode: "pooled@t4".into(),
                median_secs: 0.20,
            },
            Row {
                workload: "orphan".into(),
                mode: "pooled@t2".into(),
                median_secs: 9.0,
            },
        ]
    }

    #[test]
    fn efficiency_gate_fails_below_floor() {
        // pooled@t2 has efficiency 1.0 (passes); pooled@t4 has 0.5 (fails
        // a 0.8 floor); the orphan workload has no serial row → skipped.
        let (report, failures) = gate_efficiency(&eff_rows(), 0.8, 0);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("dense/pooled@t4"), "{failures:?}");
        assert_eq!(report.len(), 2, "serial and orphan rows are not gated");
    }

    #[test]
    fn efficiency_gate_passes_at_parity() {
        let rows = vec![
            Row {
                workload: "w".into(),
                mode: "serial".into(),
                median_secs: 0.1,
            },
            Row {
                workload: "w".into(),
                mode: "pooled@t8".into(),
                median_secs: 0.09,
            },
        ];
        let (_, failures) = gate_efficiency(&rows, 0.9, 0);
        assert!(failures.is_empty(), "{failures:?}");
    }

    /// `--efficiency-max-threads` leaves oversubscribed widths report-free
    /// and ungated: with the cap at 2, the failing pooled@t4 row is
    /// skipped entirely.
    #[test]
    fn efficiency_gate_respects_thread_cap() {
        let (report, failures) = gate_efficiency(&eff_rows(), 0.8, 2);
        assert!(failures.is_empty(), "{failures:?}");
        assert_eq!(report.len(), 1, "only pooled@t2 is inspected");
        assert!(report[0].contains("pooled@t2"), "{report:?}");
    }

    #[test]
    fn extra_fresh_rows_are_reported_not_gated() {
        let baseline = parse_rows(SAMPLE);
        let mut fresh = baseline.clone();
        fresh.push(Row {
            workload: "new_workload".into(),
            mode: "serial".into(),
            median_secs: 99.0,
        });
        let (report, failures) = gate(&baseline, &fresh, 0.25);
        assert!(failures.is_empty(), "{failures:?}");
        assert!(report.iter().any(|l| l.contains("new_workload")));
    }
}
