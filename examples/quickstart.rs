//! Quickstart: define a list defective coloring instance, check the
//! existence condition, solve it sequentially (Lemma A.1) and with the
//! distributed OLDC algorithm (Theorem 1.1), and validate both outputs.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use ldc::core::colorspace::{OldcSolver, Theorem11Solver};
use ldc::core::existence::solve_ldc;
use ldc::core::validate::{validate_ldc, validate_oldc};
use ldc::core::{ColorSpace, DefectList, KernelStats, LdcInstance, OldcCtx, ParamProfile};
use ldc::graph::{generators, DirectedView};
use ldc::sim::{Bandwidth, Network};

fn main() {
    // A 6-regular random graph on 64 nodes.
    let g = generators::random_regular(64, 6, 42);
    println!(
        "graph: {} nodes, {} edges, Δ = {}",
        g.num_nodes(),
        g.num_edges(),
        g.max_degree()
    );

    // --- Part 1: sequential existence (Lemma A.1). -------------------------
    // Give every node 4 colors with defect 1: Σ(d+1) = 8 > Δ = 6, so a list
    // defective coloring exists and the potential-function search finds it.
    let space = ColorSpace::new(16);
    let lists: Vec<DefectList> = g
        .nodes()
        .map(|v| DefectList::uniform((0..4).map(|i| (u64::from(v) + i * 3) % 16), 1))
        .collect();
    let inst = LdcInstance::new(&g, space, lists);
    let sol = solve_ldc(&inst).expect("condition Σ(d+1) > Δ holds");
    validate_ldc(&g, &inst.lists, &sol.colors).expect("checker accepts");
    println!(
        "Lemma A.1: solved with {} recoloring steps (initial potential {})",
        sol.recolor_steps, sol.initial_potential
    );

    // --- Part 2: distributed OLDC (Theorem 1.1). ---------------------------
    // Bidirected view (β = Δ), defect 2 per color, lists big enough for the
    // practical profile's square-mass requirement.
    let view = DirectedView::bidirected(&g);
    let big_space = 1 << 13;
    let oldc_lists: Vec<DefectList> = g
        .nodes()
        .map(|v| DefectList::uniform((0..2048u64).map(|i| (i * 3 + u64::from(v)) % big_space), 2))
        .collect();
    let init: Vec<u64> = g.nodes().map(u64::from).collect();
    let active = vec![true; g.num_nodes()];
    let group = vec![0u64; g.num_nodes()];
    let ctx = OldcCtx {
        view: &view,
        space: big_space,
        init: &init,
        m: g.num_nodes() as u64,
        active: &active,
        group: &group,
        profile: ParamProfile::practical_default(),
        seed: 7,
    };
    let mut net = Network::new(&g, Bandwidth::Local);
    let colors = Theorem11Solver::default()
        .solve(&mut net, &ctx, &oldc_lists, &mut KernelStats::default())
        .expect("square-mass condition holds");
    let colors: Vec<u64> = colors.into_iter().map(|c| c.unwrap()).collect();
    validate_oldc(&view, &oldc_lists, &colors).expect("checker accepts");
    println!(
        "Theorem 1.1: solved in {} rounds, max message {} bits, total {} KiB on the wire",
        net.rounds(),
        net.metrics().max_message_bits(),
        net.metrics().total_bits() / 8192
    );
}
