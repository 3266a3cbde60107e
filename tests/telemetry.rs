//! Integration tests for the telemetry layer (DESIGN.md §12): manifest
//! round-trips through the JSON reader, registry snapshots that must stay
//! byte-identical across shard counts and engine thread counts, and the
//! `strip_timing` contract the CI byte-diff job relies on.

use ldc::batch::jsonin::Value;
use ldc::batch::{Algorithm, Fleet, GraphSource, JobSpec, ListSpec};
use ldc::classic;
use ldc::graph::generators;
use ldc::sim::json::Obj;
use ldc::sim::telemetry::{strip_timing, EventSink, Registry, RunManifest};
use ldc::sim::{Bandwidth, Network};

fn sample_jobs() -> Vec<JobSpec> {
    let regular = GraphSource::Regular {
        n: 40,
        d: 4,
        seed: 2,
    };
    vec![
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
            graph: regular,
            algorithm: Algorithm::EdgeColoring,
            lists: ListSpec::default(),
            seed: 3,
            faults: None,
        },
    ]
}

#[test]
fn manifest_round_trips_through_jsonin() {
    let m = RunManifest {
        commit: "0123456789abcdef0123456789abcdef01234567".into(),
        rustc: "rustc 1.75.0 (82e1608df 2023-12-21)".into(),
        threads: 8,
        exec_mode: "pooled".into(),
        seed: 42,
        workload: "ci/batch_smoke.json".into(),
    };
    let v = Value::parse(&m.to_json()).expect("manifest JSON parses");
    let back = RunManifest {
        commit: v.get("commit").and_then(Value::as_str).unwrap().into(),
        rustc: v.get("rustc").and_then(Value::as_str).unwrap().into(),
        threads: v.get("threads").and_then(Value::as_u64).unwrap(),
        exec_mode: v.get("exec_mode").and_then(Value::as_str).unwrap().into(),
        seed: v.get("seed").and_then(Value::as_u64).unwrap(),
        workload: v.get("workload").and_then(Value::as_str).unwrap().into(),
    };
    assert_eq!(back, m, "every field survives the round trip");
    // Re-rendering the parsed manifest is byte-identical: the schema is
    // closed, so history rows can be diffed textually.
    assert_eq!(back.to_json(), m.to_json());
}

#[test]
fn fleet_registry_snapshot_is_shard_invariant() {
    let jobs = sample_jobs();
    let baseline = Fleet::new(1).run(&jobs);
    assert_eq!(baseline.summary.ok, jobs.len() as u64);
    let mut reg = Registry::new();
    baseline.telemetry(&mut reg);
    let det = reg.to_json();
    assert!(
        det.contains("fleet.jobs"),
        "registry carries fleet counters"
    );

    for shards in [2, 4, 64] {
        let run = Fleet::new(shards).run(&jobs);
        let mut reg = Registry::new();
        run.telemetry(&mut reg);
        assert_eq!(
            reg.to_json(),
            det,
            "registry snapshot differs at {shards} shards"
        );
    }
}

#[test]
fn sink_det_section_is_shard_invariant_and_timing_free() {
    // Model exactly what `ldc batch --telemetry` writes: one "fleet"
    // event whose det is the registry snapshot and whose timing section
    // holds shard count and latency percentiles. The stripped stream
    // must be byte-identical for every shard count even though the
    // timing sections differ wildly.
    let jobs = sample_jobs();
    let mut stripped: Vec<String> = Vec::new();
    for shards in [1usize, 2, 4, 64] {
        let run = Fleet::new(shards).run(&jobs);
        let mut reg = Registry::new();
        run.telemetry(&mut reg);
        let lat = run.latency_histogram();
        let mut sink = EventSink::new();
        sink.set_manifest(&RunManifest::capture("batch", 0, "sample"));
        let timing = Obj::new()
            .u64("shards", shards as u64)
            .u64("latency_p50_ns", lat.percentile(0.50))
            .u64("latency_p99_ns", lat.percentile(0.99))
            .finish();
        sink.emit("fleet", reg.to_json(), timing);
        let full = sink.to_jsonl();
        assert!(full.starts_with("{\"manifest\":"), "manifest line first");
        stripped.push(strip_timing(&full));
    }
    for (i, s) in stripped.iter().enumerate() {
        assert_eq!(s, &stripped[0], "det section differs at index {i}");
        assert!(!s.contains("\"timing\""), "timing leaked into det stream");
        assert!(!s.contains("\"manifest\""), "manifest leaked");
        assert!(!s.contains("latency"), "latency is timing-only");
    }
}

#[test]
fn registry_snapshot_identical_across_exec_modes() {
    let g = generators::random_regular(64, 4, 9);
    let mut snapshots: Vec<String> = Vec::new();
    let mut parallel_rounds = Vec::new();
    for threads in [1, 4] {
        let mut net = Network::new(&g, Bandwidth::congest_log(g.num_nodes(), 16));
        net.set_threads(threads);
        net.set_parallel_threshold(0);
        let lin = classic::linial_coloring(&mut net, None).expect("linial succeeds");
        let lists: Vec<Vec<u64>> = g
            .nodes()
            .map(|_| (0..g.max_degree() as u64 + 1).collect())
            .collect();
        classic::reduction::class_iteration_list_coloring(&mut net, &lin, &lists)
            .expect("reduction succeeds");
        let mut reg = Registry::new();
        reg.observe_metrics("engine", net.metrics());
        snapshots.push(reg.to_json());
        parallel_rounds.push(net.parallel_rounds());
    }
    assert_eq!(
        parallel_rounds[0], 0,
        "the one-thread reference must run serially"
    );
    assert!(parallel_rounds[1] > 0, "the pooled run must go parallel");
    assert_eq!(snapshots[0], snapshots[1], "pooled differs from serial");
    assert!(snapshots[0].contains("engine.rounds"));
    assert!(snapshots[0].contains("engine.round_bits"));
}
