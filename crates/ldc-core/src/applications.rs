//! The paper's §1.1/§5 *applications*: classic coloring problems expressed
//! as list defective coloring special cases.
//!
//! * a standard `d`-defective `c`-coloring is a list defective instance
//!   with the uniform list `[c]` and constant defect `d`;
//! * a `d`-arbdefective `q`-coloring is a list *arbdefective* instance
//!   with uniform list `[q]` and constant defect `d`, solvable with
//!   `q = ⌊Δ/(d+1)⌋ + 1` classes (Theorem 1.3) — the bound that improves
//!   the `O(Δ/d)`-color / `O(Δ/d)`-round algorithms of \[BEG18, BBKO21\].

use crate::arbdefective::{solve_list_arbdefective, ArbConfig, Substrate};
use crate::colorspace::Theorem11Solver;
use crate::ctx::{CoreError, OldcCtx};
use crate::kernels::KernelConfig;
use crate::multi_defect::solve_multi_defect;
use crate::params::{practical_kappa, ParamProfile};
use crate::problem::DefectList;
use ldc_graph::{DirectedView, Graph, Orientation, ProperColoring};
use ldc_sim::Network;

/// Compute a standard `d`-defective `c`-coloring with the distributed list
/// defective engine (Lemma 3.6 on the bidirected lift).
///
/// Needs `c·(d+1)² ≳ Δ²·κ` (the square-mass condition); compare with
/// `ldc-classic`'s Kuhn'09 algorithm, which needs `c = O((Δ/(d+1))²)` but
/// no mass slack. Returns the colors in `0..c`.
pub fn defective_coloring_via_ldc(
    net: &mut Network<'_>,
    c: u64,
    d: u64,
    profile: ParamProfile,
    seed: u64,
) -> Result<Vec<u64>, CoreError> {
    let g: &Graph = net.graph();
    let n = g.num_nodes();
    let view = DirectedView::bidirected(g);
    let lists: Vec<DefectList> = (0..n).map(|_| DefectList::uniform(0..c, d)).collect();
    let init: Vec<u64> = g.nodes().map(u64::from).collect();
    let active = vec![true; n];
    let group = vec![0u64; n];
    let ctx = OldcCtx {
        view: &view,
        space: c,
        init: &init,
        m: n as u64,
        active: &active,
        group: &group,
        profile,
        seed,
    };
    let out = solve_multi_defect(net, &ctx, &lists, 0, &KernelConfig::default())?;
    Ok(out
        .inner
        .colors
        .into_iter()
        .map(|x| x.expect("all active"))
        .collect())
}

/// The paper's arbdefective corollary: a `d`-arbdefective
/// `(⌊Δ/(d+1)⌋+1)`-coloring via Theorem 1.3.
pub fn arbdefective_via_theorem13(
    net: &mut Network<'_>,
    d: u64,
    substrate: Substrate,
    profile: ParamProfile,
    seed: u64,
) -> Result<(Vec<u64>, u64, Orientation), CoreError> {
    let g: &Graph = net.graph();
    let delta = g.max_degree() as u64;
    let q = delta / (d + 1) + 1;
    let lists: Vec<DefectList> = (0..g.num_nodes())
        .map(|_| DefectList::uniform(0..q, d))
        .collect();
    let init = ProperColoring::by_id(g);
    let cfg = ArbConfig {
        nu: 1.0,
        kappa: practical_kappa(profile, delta, q, g.num_nodes() as u64),
        substrate,
        profile,
        seed,
    };
    let (colors, orientation, _report) =
        solve_list_arbdefective(net, q, &lists, &init, &cfg, &Theorem11Solver::default())?;
    Ok((colors, q, orientation))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::validate_arbdefective;
    use ldc_graph::generators;
    use ldc_sim::Bandwidth;

    #[test]
    fn defective_coloring_respects_budget() {
        let g = generators::random_regular(120, 8, 5);
        let mut net = Network::new(&g, Bandwidth::Local);
        // β = 8, d = 3 ⇒ γ-class ~2; c·16 must cover the square mass bar.
        let c = 2048;
        let colors =
            defective_coloring_via_ldc(&mut net, c, 3, ParamProfile::practical_default(), 4)
                .unwrap();
        for v in g.nodes() {
            let same = g
                .neighbors(v)
                .iter()
                .filter(|&&u| colors[u as usize] == colors[v as usize])
                .count();
            assert!(same <= 3, "node {v}: defect {same}");
            assert!(colors[v as usize] < c);
        }
    }

    #[test]
    fn arbdefective_matches_paper_class_count() {
        let g = generators::random_regular(160, 12, 9);
        let mut net = Network::new(&g, Bandwidth::Local);
        let d = 3;
        let (colors, q, orientation) = arbdefective_via_theorem13(
            &mut net,
            d,
            Substrate::Randomized,
            ParamProfile::practical_default(),
            8,
        )
        .unwrap();
        assert_eq!(q, 12 / 4 + 1);
        let lists: Vec<DefectList> = (0..160).map(|_| DefectList::uniform(0..q, d)).collect();
        assert_eq!(
            validate_arbdefective(&g, &lists, &colors, &orientation),
            Ok(())
        );
        // Every class is in range and the paper's bound q(d+1) > Δ holds.
        assert!(q * (d + 1) > 12);
        assert!(colors.iter().all(|&c| c < q));
    }
}
