//! Integration tests for the fleet batch runner (DESIGN.md §10): shard
//! invariance of the JSONL stream, graph-cache accounting, and fault
//! roll-up arithmetic.

use ldc::batch::{Algorithm, FaultSpec, Fleet, GraphSource, JobSpec, ListSpec};
use ldc::core::FaultStats;

/// A mixed job list: repeated topologies, two algorithms, one faulted job.
fn mixed_jobs() -> Vec<JobSpec> {
    let regular = GraphSource::Regular {
        n: 40,
        d: 4,
        seed: 2,
    };
    let mut jobs = vec![
        JobSpec {
            graph: GraphSource::Ring { n: 24 },
            algorithm: Algorithm::Congest,
            lists: ListSpec::default(),
            seed: 1,
            faults: None,
        },
        JobSpec {
            graph: regular.clone(),
            algorithm: Algorithm::Congest,
            lists: ListSpec::default(),
            seed: 1,
            faults: None,
        },
        JobSpec {
            graph: regular.clone(),
            algorithm: Algorithm::EdgeColoring,
            lists: ListSpec::default(),
            seed: 3,
            faults: None,
        },
        JobSpec {
            graph: regular.clone(),
            algorithm: Algorithm::Congest,
            lists: ListSpec::default(),
            seed: 2,
            faults: Some(FaultSpec {
                seed: 0xBA7C4,
                drop_milli: 50,
                max_retries: 8,
                ..FaultSpec::default()
            }),
        },
    ];
    jobs.push(JobSpec {
        graph: GraphSource::Torus { rows: 5, cols: 6 },
        algorithm: Algorithm::Congest,
        lists: ListSpec::default(),
        seed: 4,
        faults: None,
    });
    jobs
}

#[test]
fn jsonl_stream_is_byte_identical_across_shard_counts() {
    let mut jobs = mixed_jobs();
    // Theorem 1.1 on a ring's (degree+1)-lists stalls in the laggard
    // chain: a typed error row, not a panic that takes the fleet down.
    jobs.push(JobSpec {
        graph: GraphSource::Ring { n: 24 },
        algorithm: Algorithm::LdcDistributed,
        lists: ListSpec::default(),
        seed: 1,
        faults: None,
    });
    // Theorem 1.4 under 20% message drops: a lost color announcement
    // breaks Linial's initial coloring — again a typed error row.
    jobs.push(JobSpec {
        graph: GraphSource::Regular {
            n: 500,
            d: 8,
            seed: 3,
        },
        algorithm: Algorithm::Congest,
        lists: ListSpec::default(),
        seed: 1,
        faults: Some(FaultSpec {
            seed: 1,
            drop_milli: 200,
            max_retries: 8,
            ..FaultSpec::default()
        }),
    });
    // Theorem 1.4's class-iteration branch on K₂₄ with 4 nodes crashed
    // through round 60: a crashed node never decides its color — a typed
    // error row too.
    jobs.push(JobSpec {
        graph: GraphSource::Complete { n: 24 },
        algorithm: Algorithm::Congest,
        lists: ListSpec::default(),
        seed: 1,
        faults: Some(FaultSpec {
            crash_nodes: 4,
            crash_from: 0,
            crash_until: 60,
            ..FaultSpec::default()
        }),
    });
    let baseline = Fleet::new(1).run(&jobs);
    assert_eq!(
        baseline.summary.ok,
        jobs.len() as u64 - 3,
        "all other jobs solve"
    );
    for failed in &baseline.outcomes[jobs.len() - 3..] {
        assert!(!failed.ok);
        assert!(
            failed.row.contains("\"status\":\"error\""),
            "{}",
            failed.row
        );
    }
    let improper = &baseline.outcomes[jobs.len() - 2];
    assert!(improper.row.contains("lost properness"), "{}", improper.row);
    let undecided = &baseline.outcomes[jobs.len() - 1];
    assert!(undecided.row.contains("never decided"), "{}", undecided.row);
    for shards in [2, 3, 4, 64] {
        let run = Fleet::new(shards).run(&jobs);
        assert_eq!(
            run.to_jsonl(),
            baseline.to_jsonl(),
            "stream differs at {shards} shards"
        );
        assert_eq!(run.summary, baseline.summary);
    }
}

#[test]
fn graph_cache_counts_hits_and_reuses_builds() {
    let jobs = mixed_jobs();
    let run = Fleet::new(2).run(&jobs);
    // 3 distinct sources (ring, regular, torus); the regular graph is
    // named by 3 jobs, so exactly 2 of the 5 resolutions are hits.
    assert_eq!(run.summary.cache_misses, 3);
    assert_eq!(run.summary.cache_hits, 2);

    // A job running on a cached graph behaves exactly like the same job
    // running alone on a freshly built graph.
    let alone = Fleet::new(1).run(&jobs[1..2]);
    assert_eq!(alone.summary.cache_hits, 0);
    let cached = &run.outcomes[1];
    let fresh = &alone.outcomes[0];
    assert_eq!(cached.rounds, fresh.rounds);
    assert_eq!(cached.total_bits, fresh.total_bits);
    assert_eq!(cached.colors_used, fresh.colors_used);
    assert!(cached.valid && fresh.valid);
}

#[test]
fn faulted_fleet_rollup_sums_per_job_reports() {
    // Two resilient OLDC jobs under transient errors: the fleet summary's
    // restart and fault counters must equal the sum of the per-job
    // `ResilientReport`s (the all-attempts totals, not the final attempt).
    let lists = ListSpec::Uniform {
        space: 1 << 13,
        len: 3000,
        defect: 3,
        salt: 0,
    };
    let jobs: Vec<JobSpec> = [5u64, 6]
        .iter()
        .map(|&seed| JobSpec {
            graph: GraphSource::Regular { n: 80, d: 6, seed },
            algorithm: Algorithm::Oldc,
            lists: lists.clone(),
            seed: 1,
            faults: Some(FaultSpec {
                seed: 0xE44 + seed,
                error_milli: 300,
                max_retries: 6,
                max_restarts: 8,
                ..FaultSpec::default()
            }),
        })
        .collect();
    let run = Fleet::new(2).run(&jobs);
    assert_eq!(run.summary.ok, 2, "both resilient solves succeed");

    let mut restarts = 0u64;
    let mut faults = FaultStats::default();
    let mut saw_retries = false;
    for o in &run.outcomes {
        let r = o.resilient.as_ref().expect("faulted job carries a report");
        restarts += u64::from(r.restarts);
        faults.absorb(&r.faults);
        saw_retries |= r.faults.rounds_retried > 0;
        assert!(o.row.contains("\"resilient\":"), "row echoes the report");
    }
    assert!(saw_retries, "a 30% error rate must trigger retries");
    assert_eq!(run.summary.restarts, restarts);
    assert_eq!(run.summary.faults, faults);
}
