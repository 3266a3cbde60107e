//! Interference-tolerant frequency assignment with *list defective*
//! colorings — the kind of application that motivates tolerating a bounded
//! number of same-colored neighbors.
//!
//! Scenario: base stations on a wrap-around grid must each pick a channel.
//! Every station supports only a subset of channels (hardware restrictions
//! → *lists*), and cheap wide-band channels can tolerate a couple of
//! interfering neighbors while premium narrow-band channels tolerate none
//! (→ per-color *defects*). This is exactly Definition 1.1.
//!
//! ```sh
//! cargo run --release --example frequency_assignment
//! ```

use ldc::core::existence::solve_ldc;
use ldc::core::multi_defect::solve_multi_defect;
use ldc::core::validate::{validate_ldc, validate_oldc};
use ldc::core::{ColorSpace, DefectList, KernelConfig, LdcInstance, OldcCtx, ParamProfile};
use ldc::graph::{generators, DirectedView};
use ldc::sim::{Bandwidth, Network};

/// Channels 0..8 are "premium" (no interference allowed); channels 8..4096
/// are "bulk" (up to 2 interfering neighbors acceptable).
fn station_channels(v: u32, bulk_space: u64) -> DefectList {
    let premium = (0..4u64).map(|i| ((u64::from(v) + i) % 8, 0));
    let bulk = (0..1024u64).map(move |i| (8 + (u64::from(v) * 17 + i * 3) % bulk_space, 2));
    premium
        .chain(bulk)
        .collect::<std::collections::BTreeMap<_, _>>()
        .into_iter()
        .collect()
}

fn main() {
    let (rows, cols) = (16, 16);
    let g = generators::torus(rows, cols); // 4-regular interference graph
    let bulk_space = 4096;
    let space = 8 + bulk_space;
    let lists: Vec<DefectList> = g.nodes().map(|v| station_channels(v, bulk_space)).collect();
    println!(
        "{}×{} torus of base stations, Δ = {}, {} channels",
        rows,
        cols,
        g.max_degree(),
        space
    );

    // Sanity: the existence condition (Eq. 1) holds with room to spare.
    let inst = LdcInstance::new(&g, ColorSpace::new(space), lists.clone());
    inst.check_existence_condition().expect("Σ(d+1) > Δ");

    // Offline planner: Lemma A.1's potential-function search.
    let sol = solve_ldc(&inst).unwrap();
    validate_ldc(&g, &lists, &sol.colors).unwrap();
    let premium_users = sol.colors.iter().filter(|&&c| c < 8).count();
    println!(
        "offline (Lemma A.1):     {} recolorings, {} stations on premium channels",
        sol.recolor_steps, premium_users
    );

    // Distributed assignment: Lemma 3.6 on the bidirected interference
    // graph — stations pick channels in O(log β) rounds of short messages.
    let view = DirectedView::bidirected(&g);
    let init: Vec<u64> = g.nodes().map(u64::from).collect();
    let active = vec![true; g.num_nodes()];
    let group = vec![0u64; g.num_nodes()];
    let ctx = OldcCtx {
        view: &view,
        space,
        init: &init,
        m: g.num_nodes() as u64,
        active: &active,
        group: &group,
        profile: ParamProfile::practical_default(),
        seed: 4,
    };
    let mut net = Network::new(&g, Bandwidth::Local);
    let out = solve_multi_defect(&mut net, &ctx, &lists, 0, &KernelConfig::default()).unwrap();
    let colors: Vec<u64> = out.inner.colors.iter().map(|c| c.unwrap()).collect();
    validate_oldc(&view, &lists, &colors).unwrap();
    let interfering: usize = g
        .edges()
        .filter(|&(_, u, v)| colors[u as usize] == colors[v as usize])
        .count();
    println!(
        "distributed (Lemma 3.6): {} rounds, max message {} bits, {} interfering links (all within per-channel tolerance)",
        net.rounds(),
        net.metrics().max_message_bits(),
        interfering
    );
}
