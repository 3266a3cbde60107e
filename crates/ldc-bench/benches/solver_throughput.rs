//! OLDC solver throughput bench: times full `solve_oldc` runs under
//! `KernelMode::Fast` (type-keyed cache + packed kernels) against
//! `KernelMode::Reference` (the pre-cache naive loops), sweeps the
//! batched phases over worker-thread counts, and writes
//! `BENCH_solver.json` at the repo root (experiment E18).
//!
//! Workloads cover the regimes the kernel cache targets:
//!
//! - `dense_complete_*`  — complete graphs: every pair conflicts, so the
//!   symmetric verdict memo and the popcount intersection carry the
//!   verification rounds.
//! - `dense_multipartite` — few shared types (same-part nodes share their
//!   init color *and* list, and select in the same batch): the in-batch
//!   select dedup collapses per-node work to per-type work.
//! - `dense_gnp`         — dense random graph, per-node lists.
//! - `many_types_adversarial` — all-distinct lists and init colors; the
//!   select dedup never hits, so this row bounds its overhead.
//!
//! The warm-up solves double as the correctness gate: cached and
//! reference colors must be **byte-identical** — at every swept thread
//! count — before any timing counts.
//!
//! Same self-contained harness as `engine_throughput` (hermetic build, no
//! criterion): `--quick` shrinks instances for the CI smoke step, a
//! substring argument filters cases, and full unfiltered runs overwrite
//! the checked-in baseline.

use ldc_bench::hit_pct;
use ldc_bench::workloads::uniform_oldc_lists;
use ldc_core::kernels::{KernelConfig, KernelMode};
use ldc_core::oldc::solve_oldc;
use ldc_core::oldc::OldcOutcome;
use ldc_core::params::ParamProfile;
use ldc_core::problem::DefectList;
use ldc_core::OldcCtx;
use ldc_graph::{generators, DirectedView, Graph};
use ldc_sim::json::json_string;
use ldc_sim::{Bandwidth, Network};
use std::hint::black_box;
use std::time::Instant;

/// One OLDC instance: graph, lists, and the (possibly shared) init types.
struct Workload {
    name: String,
    graph: Graph,
    lists: Vec<DefectList>,
    space: u64,
    init: Vec<u64>,
    m: u64,
}

/// Workloads pin `(defect, len)` directly: `defect = 2^j − 1` survives the
/// engine's power-of-two defect rounding, and `len ≥ 2·τ·4^i` puts every
/// node into a real γ-class `i` (the warm-up asserts the conflict kernels
/// actually ran, so a degenerate laggard-only instance fails loudly
/// instead of benchmarking nothing).
fn dense_complete(n: usize, defect: u64, len: u64) -> Workload {
    let graph = generators::complete(n);
    let space = (len * 4).next_power_of_two();
    let lists = uniform_oldc_lists(&graph, space, len, defect);
    Workload {
        name: format!("dense_complete_{n}"),
        graph,
        lists,
        space,
        init: (0..n as u64).collect(),
        m: n as u64,
    }
}

/// Complete multipartite graph; same-part nodes share init color and list,
/// so the instance has `parts` types in total.
fn dense_multipartite(parts: usize, size: usize, defect: u64, len: u64) -> Workload {
    let graph = generators::complete_multipartite(parts, size);
    let n = parts * size;
    let space = (len * 4).next_power_of_two();
    let lists: Vec<DefectList> = (0..n as u64)
        .map(|v| {
            let part = v / size as u64;
            DefectList::new(
                (0..len)
                    .map(|i| ((i * 3 + part * 7) % space, defect))
                    .collect::<std::collections::BTreeMap<_, _>>()
                    .into_iter()
                    .collect(),
            )
        })
        .collect();
    Workload {
        name: format!("dense_multipartite_{parts}x{size}"),
        graph,
        lists,
        space,
        init: (0..(parts * size) as u64)
            .map(|v| v / size as u64)
            .collect(),
        m: parts as u64,
    }
}

/// Dense G(n,p) with per-node lists.
fn dense_gnp(n: usize, p: f64, defect: u64, len: u64) -> Workload {
    let graph = generators::gnp(n, p, 41);
    let space = (len * 4).next_power_of_two();
    let lists = uniform_oldc_lists(&graph, space, len, defect);
    Workload {
        name: format!("dense_gnp_{n}"),
        graph,
        lists,
        space,
        init: (0..n as u64).collect(),
        m: n as u64,
    }
}

/// Adversarial for the cache: all-distinct scattered lists (large per-node
/// salt, so no two lists share structure) on a dense random graph.
fn many_types(n: usize, p: f64, defect: u64, len: u64) -> Workload {
    let graph = generators::gnp(n, p, 59);
    let space = (len * 4).next_power_of_two();
    let lists: Vec<DefectList> = (0..n as u64)
        .map(|v| {
            DefectList::new(
                (0..len)
                    .map(|i| ((i * 5 + v * 7919 + i * i % 97) % space, defect))
                    .collect::<std::collections::BTreeMap<_, _>>()
                    .into_iter()
                    .collect(),
            )
        })
        .collect();
    Workload {
        name: format!("many_types_adversarial_{n}"),
        graph,
        lists,
        space,
        init: (0..n as u64).collect(),
        m: n as u64,
    }
}

/// One full solve on a fresh network; returns the outcome, rounds, seconds.
fn run_solve(w: &Workload, cfg: &KernelConfig) -> (OldcOutcome, u64, f64) {
    let view = DirectedView::bidirected(&w.graph);
    let active = vec![true; w.graph.num_nodes()];
    let group = vec![0u64; w.graph.num_nodes()];
    let ctx = OldcCtx {
        view: &view,
        space: w.space,
        init: &w.init,
        m: w.m,
        active: &active,
        group: &group,
        profile: ParamProfile::practical_default(),
        seed: 5,
    };
    let mut net = Network::new(&w.graph, Bandwidth::Local);
    let t0 = Instant::now();
    let out = solve_oldc(&mut net, &ctx, &w.lists, cfg).expect("workload must be solvable");
    let secs = t0.elapsed().as_secs_f64();
    (out, net.rounds() as u64, secs)
}

struct Case {
    name: String,
    mode: &'static str,
    threads: usize,
    rounds: u64,
    nodes: usize,
    slots: usize,
    median_secs: f64,
    node_steps_per_sec: f64,
    select_hit_pct: f64,
    conflict_hit_pct: f64,
}

/// Time `samples` solves of `w` under `cfg` and append the row.
#[allow(clippy::too_many_arguments)]
fn bench_case(
    cases: &mut Vec<Case>,
    w: &Workload,
    cfg: &KernelConfig,
    mname: &'static str,
    rounds: u64,
    samples: usize,
    kernels: &ldc_core::kernels::KernelStats,
    slots: usize,
) {
    let n = w.graph.num_nodes();
    let mut times: Vec<f64> = (0..samples)
        .map(|_| {
            let (out, _, secs) = run_solve(w, cfg);
            black_box(out.colors);
            secs
        })
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
    let median = times[times.len() / 2];
    let steps = n as f64 * rounds as f64;
    println!(
        "{:<44} median {:>9.3} ms  {:>9.3} M node-steps/s  select {:>5.1}%  conflict {:>5.1}%",
        format!("{}/{mname}@t{}", w.name, cfg.threads),
        median * 1000.0,
        steps / median / 1e6,
        hit_pct(kernels.select_calls, kernels.select_misses),
        hit_pct(kernels.conflict_calls, kernels.conflict_misses),
    );
    cases.push(Case {
        name: w.name.clone(),
        mode: mname,
        threads: cfg.threads,
        rounds,
        nodes: n,
        slots,
        median_secs: median,
        node_steps_per_sec: steps / median,
        select_hit_pct: hit_pct(kernels.select_calls, kernels.select_misses),
        conflict_hit_pct: hit_pct(kernels.conflict_calls, kernels.conflict_misses),
    });
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let filter = args.iter().find(|a| !a.starts_with("--")).cloned();
    let samples = if quick { 2 } else { 3 };
    let thread_counts: &[usize] = if quick { &[1, 4] } else { &[1, 2, 4, 8] };

    let workloads: Vec<Workload> = if quick {
        vec![
            dense_complete(96, 63, 2048),
            dense_multipartite(8, 8, 31, 2048),
            dense_gnp(96, 0.5, 31, 2048),
            many_types(96, 0.5, 31, 2048),
        ]
    } else {
        vec![
            dense_complete(1000, 255, 12288),
            dense_multipartite(16, 16, 63, 8192),
            dense_gnp(256, 0.35, 63, 4096),
            many_types(256, 0.35, 63, 4096),
        ]
    };

    let mut cases: Vec<Case> = Vec::new();
    for w in &workloads {
        let slots: usize = w.graph.nodes().map(|v| w.graph.degree(v)).sum();
        if let Some(f) = &filter {
            if !w.name.contains(f.as_str()) {
                continue;
            }
        }
        // Warm-up both modes at every swept thread count and gate on
        // byte-identical colors — a fast-but-wrong kernel (or a chunked
        // phase whose merge order leaks into the output) must fail the
        // bench, not win it.
        let (out_fast, rounds, _) = run_solve(w, &KernelConfig::default());
        let (out_ref, rounds_ref, _) = run_solve(w, &KernelConfig::from(KernelMode::Reference));
        assert_eq!(
            out_fast.colors, out_ref.colors,
            "{}: cached and reference colorings diverged",
            w.name
        );
        assert_eq!(rounds, rounds_ref, "{}: round counts diverged", w.name);
        assert!(
            out_fast.stats.kernels.conflict_calls > 0,
            "{}: degenerate instance — the conflict kernels never ran",
            w.name
        );
        for &t in thread_counts {
            if t == 1 {
                continue;
            }
            for mode in [KernelMode::Fast, KernelMode::Reference] {
                let cfg = KernelConfig::from(mode).with_threads(t);
                let (out_t, rounds_t, _) = run_solve(w, &cfg);
                assert_eq!(
                    out_t.colors, out_fast.colors,
                    "{}: {mode:?} colors diverged at {t} threads",
                    w.name
                );
                assert_eq!(
                    rounds_t, rounds,
                    "{}: {mode:?} rounds diverged at {t} threads",
                    w.name
                );
            }
        }

        // Cached rows sweep the thread counts; the reference row is the
        // t=1 anchor the speedup ratios are read against.
        for &t in thread_counts {
            let cfg = KernelConfig::default().with_threads(t);
            bench_case(
                &mut cases,
                w,
                &cfg,
                "cached",
                rounds,
                samples,
                &out_fast.stats.kernels,
                slots,
            );
        }
        bench_case(
            &mut cases,
            w,
            &KernelConfig::from(KernelMode::Reference),
            "reference",
            rounds,
            samples,
            &out_ref.stats.kernels,
            slots,
        );
    }

    // Persist the trajectory point (same layout as BENCH_engine.json, so
    // `bench_gate` parses both; `threads` folds into the gate key). Only
    // full unfiltered runs overwrite the checked-in baseline; smoke runs
    // write a scratch copy.
    let repo_root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let path = if quick || filter.is_some() {
        format!("{repo_root}/target/BENCH_solver.quick.json")
    } else {
        format!("{repo_root}/BENCH_solver.json")
    };
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"bench\": {},\n",
        json_string("solver_throughput")
    ));
    out.push_str(&format!("  \"samples\": {samples},\n"));
    out.push_str("  \"cases\": [\n");
    for (i, c) in cases.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"workload\": {}, \"mode\": {}, \"threads\": {}, \"nodes\": {}, \"slots\": {}, \"rounds\": {}, \"median_secs\": {:.6}, \"node_steps_per_sec\": {:.0}, \"select_hit_pct\": {:.1}, \"conflict_hit_pct\": {:.1}}}{}\n",
            json_string(&c.name),
            json_string(c.mode),
            c.threads,
            c.nodes,
            c.slots,
            c.rounds,
            c.median_secs,
            c.node_steps_per_sec,
            c.select_hit_pct,
            c.conflict_hit_pct,
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
