//! End-to-end tests for the soak harness: every invariant checker must
//! actually fire on doctored input, and a sabotaged scenario must surface
//! through [`run_soak`] as a failing report with a one-line repro.

use ldc_batch::{Algorithm, Fleet, FleetRun, GraphSource, JobSpec, ListSpec};
use ldc_bench::soak::{
    check_rows_identical, check_solve_equal, check_stats_consistency, check_validity, run_soak,
    Expect, Sabotage, SoakConfig, Tier, DEFAULT_SUITE_SEED, INV_DET_ROWS, INV_REF_EQUIV,
    INV_STATS_SUM, INV_VALIDITY,
};

/// A smoke-tier scenario with `Expect::Solve`, so the `WrongColor`
/// sabotage (which flips a `valid` flag) is visible to the validity
/// checker. Fail-closed cells tolerate flagged-invalid outcomes.
const SOLVE_SCENARIO: &str = "ring48-oldc-none-t1";

fn sabotaged(sabotage: Sabotage) -> ldc_bench::soak::SoakReport {
    let cfg = SoakConfig {
        tier: Tier::Smoke,
        suite_seed: DEFAULT_SUITE_SEED,
        only: Some(SOLVE_SCENARIO.to_string()),
        variant_shards: 4,
        sabotage,
    };
    run_soak(&cfg).expect("known scenario id must resolve")
}

fn assert_trips(sabotage: Sabotage, invariant: &str) {
    let report = sabotaged(sabotage);
    assert!(!report.passed(), "{invariant}: doctored run must fail");
    let v = report
        .violations
        .iter()
        .find(|v| v.invariant == invariant)
        .unwrap_or_else(|| {
            panic!(
                "expected a {invariant} violation, got {:?}",
                report
                    .violations
                    .iter()
                    .map(|v| v.invariant)
                    .collect::<Vec<_>>()
            )
        });
    assert_eq!(v.scenario, SOLVE_SCENARIO);
    assert_eq!(
        v.repro,
        format!("ldc soak --seed {DEFAULT_SUITE_SEED} --only {SOLVE_SCENARIO}"),
        "repro must be a single copy-pasteable command"
    );
}

#[test]
fn wrong_color_sabotage_trips_validity() {
    assert_trips(Sabotage::WrongColor, INV_VALIDITY);
}

#[test]
fn mutated_det_line_sabotage_trips_det_rows() {
    assert_trips(Sabotage::MutateDetLine, INV_DET_ROWS);
}

#[test]
fn reference_mismatch_sabotage_trips_ref_equiv() {
    assert_trips(Sabotage::RefFastMismatch, INV_REF_EQUIV);
}

#[test]
fn skewed_stats_sabotage_trips_stats_sum() {
    assert_trips(Sabotage::SkewStats, INV_STATS_SUM);
}

#[test]
fn clean_only_run_passes_and_rollup_reports_it() {
    let report = sabotaged(Sabotage::None);
    assert!(report.passed());
    assert_eq!(report.results.len(), 1);
    assert!(report.results[0].ok);
    let rollup = report.rollup();
    assert!(rollup.contains("ALL CLEAN"), "rollup: {rollup}");
    assert!(!rollup.contains("FIRST FAILURE"));
}

#[test]
fn failing_report_prints_first_failure_and_failing_jsonl_rollup() {
    let report = sabotaged(Sabotage::WrongColor);
    let rollup = report.rollup();
    assert!(rollup.contains("FIRST FAILURE"), "rollup: {rollup}");
    assert!(
        rollup.contains(&format!(
            "ldc soak --seed {DEFAULT_SUITE_SEED} --only {SOLVE_SCENARIO}"
        )),
        "rollup must carry the repro command: {rollup}"
    );
    let jsonl = report.to_jsonl(None);
    let last = jsonl.lines().last().expect("rollup event");
    assert!(last.contains("\"event\":\"rollup\""));
    assert!(last.contains("\"ok\":false"));
}

#[test]
fn unknown_only_id_is_an_error() {
    let cfg = SoakConfig {
        only: Some("no-such-scenario".to_string()),
        ..SoakConfig::default()
    };
    let err = run_soak(&cfg).expect_err("unknown id must not silently pass");
    assert!(err.contains("no-such-scenario"), "error: {err}");
}

// ---- direct checker tests on hand-doctored fleet output -------------------

fn tiny_run() -> FleetRun {
    let job = JobSpec {
        graph: GraphSource::Ring { n: 16 },
        algorithm: Algorithm::Congest,
        lists: ListSpec::default(),
        seed: 7,
        faults: None,
    };
    Fleet::new(1).run(&[job])
}

#[test]
fn validity_checker_fires_on_doctored_valid_flag() {
    let mut run = tiny_run();
    assert!(run.outcomes[0].ok && run.outcomes[0].valid);
    let (_, clean) = check_validity(&run, Expect::Solve);
    assert!(clean.is_empty());

    run.outcomes[0].valid = false;
    let (checked, details) = check_validity(&run, Expect::Solve);
    assert_eq!(checked, 1);
    assert_eq!(details.len(), 1);
    assert!(details[0].contains("failed validation"), "{details:?}");

    // Fail-closed scenarios tolerate a truthfully-flagged invalid outcome…
    let (_, tolerated) = check_validity(&run, Expect::FailClosed);
    assert!(tolerated.is_empty());

    // …but never incoherent ok/error flags, under either expectation.
    run.outcomes[0].error = Some("boom".to_string());
    let (_, incoherent) = check_validity(&run, Expect::FailClosed);
    assert_eq!(incoherent.len(), 1);
    assert!(incoherent[0].contains("incoherent"), "{incoherent:?}");
}

#[test]
fn det_rows_checker_fires_on_mutated_line() {
    let base = tiny_run();
    let mut other = tiny_run();
    let (_, clean) = check_rows_identical("shards=4", &base, &other);
    assert!(clean.is_empty());

    other.outcomes[0].row.push('X');
    let (_, details) = check_rows_identical("shards=4", &base, &other);
    assert!(!details.is_empty());
    assert!(details[0].contains("shards=4"), "{details:?}");
}

#[test]
fn ref_equiv_checker_fires_on_divergent_solve() {
    let base = tiny_run();
    let mut reference = tiny_run();
    let (_, clean) = check_solve_equal(&base, &reference);
    assert!(clean.is_empty());

    reference.outcomes[0].rounds += 1;
    let (_, details) = check_solve_equal(&base, &reference);
    assert!(!details.is_empty(), "rounds drift must be caught");
}

#[test]
fn stats_sum_checker_fires_on_skewed_summary() {
    let mut run = tiny_run();
    let (_, clean) = check_stats_consistency(&run);
    assert!(clean.is_empty());

    run.summary.rounds_total += 1;
    let (_, details) = check_stats_consistency(&run);
    assert!(!details.is_empty(), "summary skew must be caught");
}
