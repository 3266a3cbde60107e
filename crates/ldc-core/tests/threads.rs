//! Thread-count invariance suite (DESIGN.md §13): the solver's batched
//! phases — subset selection, conflict verification, the frequency
//! decisions — run over pool workers, and the chunk-then-ordered-merge
//! discipline must make the worker count unobservable. Four workload
//! shapes (the `solver_throughput` families, scaled down) plus a lollipop
//! whose path nodes take Theorem 1.1's Phase 0 and laggard chain run at
//! pool sizes 1/2/4/8 under both kernel modes; colors, γ-classes,
//! selection retries, rounds, total wire bits, and the laggard-chain depth
//! are byte-diffed against the sequential (1-thread) reference. A failure
//! here means a chunk boundary or merge order leaked into the algorithm.

mod common;

use ldc_core::kernels::{KernelConfig, KernelMode};
use ldc_core::oldc::{solve_oldc, OldcOutcome};
use ldc_core::params::ParamProfile;
use ldc_core::problem::DefectList;
use ldc_core::OldcCtx;
use ldc_graph::{generators, DirectedView, Graph};
use ldc_sim::{Bandwidth, Network, Tracer};
use std::collections::BTreeMap;

/// One OLDC instance (graph + lists + init types), small enough for a
/// test but shaped like its `solver_throughput` namesake.
struct Workload {
    name: &'static str,
    graph: Graph,
    lists: Vec<DefectList>,
    space: u64,
    init: Vec<u64>,
    m: u64,
}

fn uniform_lists(g: &Graph, space: u64, len: u64, defect: u64) -> Vec<DefectList> {
    g.nodes()
        .map(|v| {
            DefectList::new(
                (0..len)
                    .map(|i| ((i * 3 + u64::from(v) * 7) % space, defect))
                    .collect::<BTreeMap<_, _>>()
                    .into_iter()
                    .collect(),
            )
        })
        .collect()
}

fn workloads() -> Vec<Workload> {
    let mut out = Vec::new();

    let graph = generators::complete(96);
    let (len, defect) = (2048u64, 63u64);
    let space = (len * 4).next_power_of_two();
    out.push(Workload {
        name: "dense_complete_96",
        lists: uniform_lists(&graph, space, len, defect),
        space,
        init: (0..96).collect(),
        m: 96,
        graph,
    });

    let (parts, size) = (8usize, 8usize);
    let graph = generators::complete_multipartite(parts, size);
    let (len, defect) = (2048u64, 31u64);
    let space = (len * 4).next_power_of_two();
    let n = parts * size;
    out.push(Workload {
        name: "dense_multipartite_8x8",
        lists: (0..n as u64)
            .map(|v| {
                let part = v / size as u64;
                DefectList::new(
                    (0..len)
                        .map(|i| ((i * 3 + part * 7) % space, defect))
                        .collect::<BTreeMap<_, _>>()
                        .into_iter()
                        .collect(),
                )
            })
            .collect(),
        space,
        init: (0..n as u64).map(|v| v / size as u64).collect(),
        m: parts as u64,
        graph,
    });

    let graph = generators::gnp(96, 0.5, 41);
    let (len, defect) = (2048u64, 31u64);
    let space = (len * 4).next_power_of_two();
    out.push(Workload {
        name: "dense_gnp_96",
        lists: uniform_lists(&graph, space, len, defect),
        space,
        init: (0..96).collect(),
        m: 96,
        graph,
    });

    let graph = generators::gnp(96, 0.5, 59);
    let (len, defect) = (2048u64, 31u64);
    let space = (len * 4).next_power_of_two();
    out.push(Workload {
        name: "many_types_adversarial_96",
        lists: (0..96u64)
            .map(|v| {
                DefectList::new(
                    (0..len)
                        .map(|i| ((i * 5 + v * 7919 + i * i % 97) % space, defect))
                        .collect::<BTreeMap<_, _>>()
                        .into_iter()
                        .collect(),
                )
            })
            .collect(),
        space,
        init: (0..96).collect(),
        m: 96,
        graph,
    });

    let (graph, lists, space) = common::laggard_lollipop();
    out.push(Workload {
        name: "laggard_lollipop_40",
        lists,
        space,
        init: (0..40).collect(),
        m: 40,
        graph,
    });

    out
}

/// Full solve under `cfg`; returns the outcome plus (rounds, total bits,
/// laggard-chain depth).
fn solve(w: &Workload, cfg: &KernelConfig) -> (OldcOutcome, u64, u64, u64) {
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
    net.set_tracer(Tracer::new());
    let out = solve_oldc(&mut net, &ctx, &w.lists, cfg).expect("workload must be solvable");
    let (_, laggard_depth) = common::laggard_trace(&net.tracer().report());
    let m = net.metrics();
    (out, net.rounds() as u64, m.total_bits(), laggard_depth)
}

#[test]
fn solver_output_is_invariant_across_pool_sizes() {
    for w in workloads() {
        for mode in [KernelMode::Fast, KernelMode::Reference] {
            let (base, base_rounds, base_bits, base_depth) = solve(&w, &KernelConfig::from(mode));
            if w.name == "laggard_lollipop_40" {
                assert!(base_depth > 0, "{}: the laggard chain never ran", w.name);
            } else {
                assert!(
                    base.stats.kernels.conflict_calls > 0,
                    "{}: degenerate instance — conflict kernels never ran",
                    w.name
                );
            }
            for threads in [2usize, 4, 8] {
                let cfg = KernelConfig::from(mode).with_threads(threads);
                let (out, rounds, bits, depth) = solve(&w, &cfg);
                let tag = format!("{name} {mode:?} t={threads}", name = w.name);
                assert_eq!(out.colors, base.colors, "{tag}: colors diverged");
                assert_eq!(out.classes, base.classes, "{tag}: γ-classes diverged");
                assert_eq!(
                    out.stats.selection_retries, base.stats.selection_retries,
                    "{tag}: selection retries diverged"
                );
                assert_eq!(rounds, base_rounds, "{tag}: round count diverged");
                assert_eq!(bits, base_bits, "{tag}: total wire bits diverged");
                assert_eq!(depth, base_depth, "{tag}: laggard chain diverged");
                // The batch pipelines must preserve the sequential cache
                // accounting exactly, not just the outputs.
                assert_eq!(
                    format!("{:?}", out.stats.kernels),
                    format!("{:?}", base.stats.kernels),
                    "{tag}: kernel counters diverged"
                );
            }
        }
    }
}

#[test]
fn fast_and_reference_agree_at_every_pool_size() {
    for w in workloads() {
        let (base, base_rounds, _, _) = solve(&w, &KernelConfig::default());
        for threads in [1usize, 2, 4, 8] {
            let cfg = KernelConfig::from(KernelMode::Reference).with_threads(threads);
            let (out, rounds, _, _) = solve(&w, &cfg);
            assert_eq!(
                out.colors, base.colors,
                "{} reference t={threads}: colors diverged from cached",
                w.name
            );
            assert_eq!(
                rounds, base_rounds,
                "{} reference t={threads}: rounds diverged from cached",
                w.name
            );
        }
    }
}
