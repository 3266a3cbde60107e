//! Round-engine throughput bench: times `Network::exchange` hot-path
//! workloads (sparse flood, dense clique, rings up to 5M nodes): one
//! serial row (one thread) and a pooled thread sweep (t = 1/2/4/8, keyed `mode@tN`
//! like BENCH_solver.json), and writes `BENCH_engine.json` at the repo
//! root, seeding the perf trajectory (`BENCH_*.json`).
//!
//! Self-contained harness (the workspace builds hermetically, so no
//! criterion): each case is warmed up once, then sampled, and the median
//! node-steps/s is recorded. `--quick` shrinks instances and samples for
//! the CI smoke step; a substring argument filters cases:
//! `cargo bench --bench engine_throughput -- dense`.
//!
//! `--scale-smoke` runs the bounded million-node determinism smoke
//! instead of timing: a 1M-node ring with a t = 1/2 sweep plus a 10M-node
//! ring round, byte-diffing final states across serial/pooled —
//! the CI `engine-scale-smoke` job. Exit code 1 on any divergence.

use ldc_graph::{generators, Graph};
use ldc_sim::json::json_string;
use ldc_sim::pool::default_threads;
use ldc_sim::{Bandwidth, Network, Outbox};
use std::hint::black_box;
use std::time::Instant;

struct Case {
    name: String,
    mode: &'static str,
    threads: usize,
    rounds: usize,
    nodes: usize,
    slots: usize,
    median_secs: f64,
    node_steps_per_sec: f64,
}

/// Run `rounds` mixing rounds on `g` with `threads` workers and the given
/// parallel threshold; returns wall seconds and the final states (for
/// cross-mode byte-diffs).
fn run_workload(g: &Graph, threads: usize, threshold: usize, rounds: usize) -> (f64, Vec<u64>) {
    let mut net = Network::new(g, Bandwidth::Local);
    net.set_parallel_threshold(threshold);
    net.set_threads(threads);
    let mut states: Vec<u64> = g.nodes().map(u64::from).collect();
    // Warm-up round: wire buffers allocate here, pool workers spawn here.
    exchange_round(&mut net, &mut states);
    let t0 = Instant::now();
    for _ in 0..rounds {
        exchange_round(&mut net, &mut states);
    }
    let elapsed = t0.elapsed().as_secs_f64();
    (elapsed, states)
}

fn exchange_round(net: &mut Network<'_>, states: &mut [u64]) {
    net.exchange(
        states,
        |_v, s, out: &mut Outbox<'_, u64>| {
            for p in 0..out.ports() {
                out.send(p, s.wrapping_add(p as u64));
            }
        },
        |v, s, inbox| {
            let mut acc = *s ^ u64::from(v);
            for (_, m) in inbox.iter() {
                acc = acc.wrapping_mul(31).wrapping_add(*m);
            }
            *s = acc;
        },
    )
    .expect("LOCAL exchange cannot fail");
}

/// The bounded engine-scale smoke: million-node workloads, t = 1/2 sweep,
/// byte-identical final states, serial vs pooled. Returns failures.
fn scale_smoke() -> Vec<String> {
    let mut failures = Vec::new();
    // 1M-node ring, 3 rounds, pooled × thread sweep against serial.
    let ring_1m = generators::ring(1_000_000);
    println!("scale-smoke: ring_1m generated ({} nodes)", 1_000_000);
    let (_, reference) = run_workload(&ring_1m, 1, usize::MAX, 3);
    for threads in [1usize, 2] {
        let (secs, states) = run_workload(&ring_1m, threads, 0, 3);
        let verdict = if states == reference {
            "ok"
        } else {
            "DIVERGED"
        };
        println!("scale-smoke: ring_1m/pooled@t{threads} {secs:.3}s  {verdict}");
        if states != reference {
            failures.push(format!("ring_1m/pooled@t{threads}: states diverged"));
        }
    }
    // 10M-node ring: one serial and one pooled round, still byte-identical. This is
    // the memory-scaling probe — the streaming generator builds the CSR in
    // one pass and a round is ~20M slots.
    let ring_10m = generators::ring(10_000_000);
    println!("scale-smoke: ring_10m generated ({} nodes)", 10_000_000);
    let (_, reference) = run_workload(&ring_10m, 1, usize::MAX, 1);
    let (secs, states) = run_workload(&ring_10m, 2, 0, 1);
    let verdict = if states == reference {
        "ok"
    } else {
        "DIVERGED"
    };
    println!("scale-smoke: ring_10m/pooled@t2 {secs:.3}s  {verdict}");
    if states != reference {
        failures.push("ring_10m/pooled@t2: states diverged".to_string());
    }
    failures
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    if args.iter().any(|a| a == "--scale-smoke") {
        let failures = scale_smoke();
        if failures.is_empty() {
            println!("scale-smoke: PASS");
            return;
        }
        for f in &failures {
            eprintln!("scale-smoke: FAIL {f}");
        }
        std::process::exit(1);
    }
    let filter = args.iter().find(|a| !a.starts_with("--")).cloned();
    let samples = if quick { 3 } else { 7 };

    // (name, graph, rounds, samples): a sparse flood (the E9 workload), a
    // dense clique (small n, huge work — the regime the old node-count
    // switch kept sequential), a ring (tiny per-node work), and in the
    // full tier the million-node workloads (few rounds / samples — each
    // round is already millions of node-steps, so medians are stable).
    let workloads: Vec<(String, Graph, usize, usize)> = if quick {
        vec![
            (
                "sparse_gnp_10k".into(),
                generators::gnp(10_000, 8.0 / 10_000.0, 31),
                10,
                samples,
            ),
            (
                "dense_complete_300".into(),
                generators::complete(300),
                10,
                samples,
            ),
            ("ring_20k".into(), generators::ring(20_000), 10, samples),
        ]
    } else {
        vec![
            (
                "sparse_gnp_100k".into(),
                generators::gnp(100_000, 8.0 / 100_000.0, 31),
                20,
                samples,
            ),
            (
                "dense_complete_1000".into(),
                generators::complete(1000),
                20,
                samples,
            ),
            ("ring_200k".into(), generators::ring(200_000), 20, samples),
            (
                "gnp_1m".into(),
                generators::gnp(1_000_000, 8.0 / 1_000_000.0, 31),
                5,
                3,
            ),
            ("ring_5m".into(), generators::ring(5_000_000), 3, 3),
        ]
    };

    // Serial is thread-independent (one row); the pooled executor sweeps
    // t = 1/2/4/8 — `t1` doubles as the overhead-neutrality baseline the
    // efficiency gate compares against.
    let modes: Vec<(&'static str, usize, usize)> = std::iter::once(("serial", 1, usize::MAX))
        .chain([1, 2, 4, 8].map(|t| ("pooled", t, 0)))
        .collect();

    let mut cases: Vec<Case> = Vec::new();
    for (wname, g, rounds, wsamples) in &workloads {
        let slots: usize = g.nodes().map(|v| g.degree(v)).sum();
        let selected: Vec<(String, &'static str, usize, usize)> = modes
            .iter()
            .filter_map(|&(mname, threads, threshold)| {
                let full = format!("{wname}/{mname}@t{threads}");
                match &filter {
                    Some(f) if !full.contains(f.as_str()) => None,
                    _ => Some((full, mname, threads, threshold)),
                }
            })
            .collect();
        // Samples are interleaved round-robin across the mode sweep (all
        // modes' sample 0, then all modes' sample 1, …) so time-correlated
        // host noise — a slow minute on a shared core — lands on every
        // mode equally instead of skewing one mode's whole block. The
        // serial-vs-sweep efficiency ratios the gate checks are only as
        // trustworthy as this pairing.
        let mut times: Vec<Vec<f64>> = vec![Vec::new(); selected.len()];
        for _ in 0..*wsamples {
            for (i, &(_, _, threads, threshold)) in selected.iter().enumerate() {
                times[i].push(run_workload(g, threads, threshold, *rounds).0);
            }
        }
        for ((full, mname, threads, _), mut samples) in selected.into_iter().zip(times) {
            samples.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
            let median = samples[samples.len() / 2];
            let steps = (g.num_nodes() * rounds) as f64;
            black_box(&samples);
            println!(
                "{full:<36} median {:>9.3} ms  {:>9.2} M node-steps/s",
                median * 1000.0,
                steps / median / 1e6
            );
            cases.push(Case {
                name: wname.clone(),
                mode: mname,
                threads,
                rounds: *rounds,
                nodes: g.num_nodes(),
                slots,
                median_secs: median,
                node_steps_per_sec: steps / median,
            });
        }
    }

    // Persist the trajectory point. Only full (non-quick, unfiltered) runs
    // overwrite the checked-in baseline; smoke runs write a scratch copy.
    let repo_root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let path = if quick || filter.is_some() {
        format!("{repo_root}/target/BENCH_engine.quick.json")
    } else {
        format!("{repo_root}/BENCH_engine.json")
    };
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"bench\": {},\n",
        json_string("engine_throughput")
    ));
    out.push_str(&format!("  \"threads\": {},\n", default_threads().max(2)));
    out.push_str(&format!("  \"samples\": {samples},\n"));
    out.push_str("  \"cases\": [\n");
    for (i, c) in cases.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"workload\": {}, \"mode\": {}, \"threads\": {}, \"nodes\": {}, \"slots\": {}, \"rounds\": {}, \"median_secs\": {:.6}, \"node_steps_per_sec\": {:.0}}}{}\n",
            json_string(&c.name),
            json_string(c.mode),
            c.threads,
            c.nodes,
            c.slots,
            c.rounds,
            c.median_secs,
            c.node_steps_per_sec,
            if i + 1 < cases.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    if let Err(e) = std::fs::write(&path, &out) {
        eprintln!("could not write {path}: {e}");
    } else {
        println!("wrote {path}");
    }
}
