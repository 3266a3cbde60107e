//! Graph decomposition with *arbdefective* colorings (Theorem 1.3).
//!
//! The paper's highlighted corollary: a `d`-arbdefective
//! `⌊Δ/(d+1)+1⌋`-coloring — a partition of the nodes into few classes plus
//! an edge orientation in which every node has at most `d` same-class
//! out-neighbors — in `Õ(√(Δ/(d+1)))` rounds, beating the previous
//! `O(Δ/(d+1))`-round algorithms. Such decompositions are the standard tool
//! for divide-and-conquer coloring: each class induces a low-outdegree
//! (hence low-arboricity) subgraph that simpler algorithms can finish.
//!
//! ```sh
//! cargo run --release --example arbdefective_decomposition
//! ```

use ldc::core::arbdefective::{solve_list_arbdefective, ArbConfig, Substrate};
use ldc::core::colorspace::Theorem11Solver;
use ldc::core::params::practical_kappa;
use ldc::core::validate::validate_arbdefective;
use ldc::core::{DefectList, ParamProfile};
use ldc::graph::{generators, ProperColoring};
use ldc::sim::{Bandwidth, Network};

fn main() {
    let n = 256;
    let delta = 12;
    let g = generators::random_regular(n, delta, 11);
    let d = 3u64; // allowed arbdefect
    let q = (delta as u64) / (d + 1) + 1; // ⌊Δ/(d+1)⌋ + 1 classes
    println!("{n} nodes, Δ = {delta}: computing a {d}-arbdefective {q}-coloring");

    // The instance: every node may pick any of the q classes, tolerating
    // d same-class out-neighbors — Σ(d+1) = q(d+1) > Δ as Theorem 1.3 needs.
    let lists: Vec<DefectList> = (0..n).map(|_| DefectList::uniform(0..q, d)).collect();
    let init = ProperColoring::by_id(&g);
    let profile = ParamProfile::practical_default();
    let cfg = ArbConfig {
        nu: 1.0,
        kappa: practical_kappa(profile, delta as u64, q, n as u64),
        substrate: Substrate::Bootstrap { levels: 1 },
        profile,
        seed: 31,
    };
    let mut net = Network::new(&g, Bandwidth::Local);
    let (classes, orientation, report) = solve_list_arbdefective(
        &mut net,
        q,
        &lists,
        &init,
        &cfg,
        &Theorem11Solver::default(),
    )
    .unwrap();
    validate_arbdefective(&g, &lists, &classes, &orientation).unwrap();

    // Report the decomposition quality.
    let mut sizes = vec![0usize; q as usize];
    for &c in &classes {
        sizes[c as usize] += 1;
    }
    let max_out_same = g
        .nodes()
        .map(|v| {
            g.incident_edges(v)
                .iter()
                .filter(|&&e| {
                    orientation.is_out(&g, e, v)
                        && classes[g.other_endpoint(e, v) as usize] == classes[v as usize]
                })
                .count()
        })
        .max()
        .unwrap();
    println!(
        "classes sizes = {:?}; max same-class out-degree = {} (budget {})",
        sizes, max_out_same, d
    );
    println!(
        "rounds: {} main + {} substrate over {} stages / {} OLDC calls",
        report.rounds_main, report.rounds_substrate, report.stages, report.oldc_calls
    );
}
